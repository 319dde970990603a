"""Independent verification engines.

Two deliberately low-tech solvers used as ground truth everywhere else:

* :func:`fd_integrate` -- method-of-lines on the original coupled system,
  second-order central differences with periodic closure.  Every block
  carries the same diffusion 2 gamma_p D2, which commutes with the rest B
  of the operator, so each snapshot interval applies the lattice heat
  semigroup exactly (one periodic convolution with the discrete Gaussian
  ive(|j|, 2s)) and then steps B alone by the degree-30 Taylor polynomial
  of exp(hB), in Horner form (every increment hB times a vector, so mass is
  kept to round-off), at the step of Al-Mohy & Higham's bound, over only
  the components that can be non-zero.  It touches only the core types and
  scipy.special.ive; it uses no FFT and never imports the spectral or
  closed-form modules, so agreement with them is meaningful evidence.

* :func:`quad_inverse_fourier` -- plain trapezoid quadrature of
  (1/2pi) * integral exp(i xi x) S(xi) d(xi) for a matrix symbol S at the
  given points, with nested interval halving (each rule adds the midpoints
  of the last, so no node is evaluated twice) until successive results
  agree.  No FFT involved.

scipy.sparse and scipy.special are imported by the functions that use
them, on first use, so importing this module loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from .core import (
    DEFAULT_EPS_TAIL,
    BlochField,
    InitialCondition,
    Params,
    SpatialGrid,
    sample_initial,
)
from .errors import DomainTooNarrow, NonPositiveTime, QuadratureNotConverged, UnstableStep

if TYPE_CHECKING:
    import scipy.sparse as sp

QUAD_START_NODES = 2049    # quad_inverse_fourier's first node count; odd, so xi = 0 is a node
QUAD_TOL = 1e-10           # max-norm change between two refinements that ends the doubling
QUAD_MAX_NODES = 1 << 21   # node count beyond which QuadratureNotConverged is raised
TAYLOR_DEGREE = 30         # degree of the truncated Taylor step of exp(hB)
THETA_30 = 3.54            # largest h ||B|| of a degree-30 step with backward error below 2^-53


@dataclass
class FdResult:
    """Final field, optional intermediate snapshots and a step-halving error bound."""

    field: BlochField
    richardson_error: Optional[float]
    snapshots: dict = field(default_factory=dict)


def _difference_operator(p: Params, grid: SpatialGrid) -> sp.csr_matrix:
    """The periodic difference operator B of everything but diffusion.

    The full semi-discretisation is A = 2 gamma_p (I x D2) + B: every block
    carries the same circulant D2, which commutes with B's central
    difference D1 and scalar couplings, so exp(tA) = exp(tB) exp(2 gamma_p t D2)
    exactly (see :func:`_lattice_heat`).
    """
    import scipy.sparse as sp
    n = grid.n_points
    ones = np.ones(n - 1)
    d1 = sp.diags(
        [ones, -ones, [-1.0], [1.0]],
        [1, -1, n - 1, -(n - 1)],
        format="csr",
    ) / (2.0 * grid.dx)
    eye = sp.identity(n, format="csr")
    zero = sp.csr_matrix((n, n))
    # unknown ordering: (rho_plus, c_i, rho_minus, c_r)
    return sp.bmat(
        [
            [zero, zero, -2.0 * p.delta * d1, zero],
            [zero, -2.0 * p.gamma_z * eye, p.omega * eye, zero],
            [-2.0 * p.delta * d1, -4.0 * p.omega * eye, zero, zero],
            [zero, zero, zero, -2.0 * p.gamma_z * eye],
        ],
        format="csr",
    )


def auto_time_step(p: Params, grid: SpatialGrid) -> float:
    """Step of the degree-30 Taylor step for the coupling operator B.

    Diffusion is applied exactly, so the Taylor step only advances B
    (advection and Rabi coupling).  The row sums of |B| give ||B||_inf =
    max(2 delta/dx + 4 omega, 2 gamma_z + omega), and h = THETA_30 /
    ||B||_inf.  At h ||B|| <= THETA_30 the degree-30 truncation of exp(hB)
    is exp(h(B + E)) with ||E|| <= 2^-53 ||B|| (Al-Mohy & Higham, "Computing
    the action of the matrix exponential", SIAM J. Sci. Comput. 33, 2011,
    Table 3.1).  The bound holds on every mode, the grid-scale advection
    modes and the Rabi and dephasing couplings alike, so the step does not
    rely on the heat step having damped any of them.  Pure diffusion has
    B = 0 and gets math.inf, one exact step per interval.
    """
    norm = max(2.0 * p.delta / grid.dx + 4.0 * p.omega, 2.0 * p.gamma_z + p.omega)
    return THETA_30 / norm if norm > 0.0 else math.inf


def _live_components(B: sp.csr_matrix, y0: np.ndarray, n: int) -> np.ndarray:
    """Indices of the n-blocks of ``y0`` that can ever be non-zero under B.

    A block is live if it is non-zero at t = 0 or if a non-zero n x n block of
    B feeds it from a live block; every other block stays exactly zero.
    Diffusion acts within each block, so it feeds none.
    """
    k = B.shape[0] // n
    coo = B.tocoo()
    nonzero = coo.data != 0.0
    feeds = np.zeros((k, k), dtype=bool)
    feeds[coo.row[nonzero] // n, coo.col[nonzero] // n] = True
    live = np.any(y0.reshape(k, n) != 0.0, axis=1)
    for _ in range(k):  # a feeding chain has at most k - 1 links
        live = live | feeds[:, live].any(axis=1)
    return np.flatnonzero(np.repeat(live, n))


def _lattice_heat(y: np.ndarray, s: float, n: int) -> np.ndarray:
    """exp(s (S + S^-1 - 2)) applied to each n-block of ``y`` on a ring of n nodes.

    With s = 2 gamma_p t / dx^2 this is exp(2 gamma_p t D2), the exact lattice
    heat semigroup.  Its entries are the discrete Gaussian e^{-2s} I_|j|(2s)
    = ive(|j|, 2s) (Lindeberg, IEEE TPAMI 12, 1990), summed over the periodic
    images when the kernel is wider than the ring; the kernel sums to 1, so
    mass is kept to round-off, and s = 0 returns the data exactly.  The
    kernel is the Skellam law of two Poisson(s) counts, so Bernstein's
    inequality puts the mass beyond ``reach`` below 2 e^-45.  One direct
    periodic convolution per block, no FFT.
    """
    from scipy.special import ive
    reach = math.ceil(12.0 * math.sqrt(2.0 * s) + 30.0)
    offsets = np.arange(-reach, reach + 1)
    kernel = ive(np.abs(offsets), 2.0 * s)
    if kernel.size > n:
        kernel = np.bincount(offsets % n, weights=kernel, minlength=n)
        offsets = np.arange(n)
    wrap = np.arange(-offsets[-1], n - offsets[0]) % n  # out[i] = sum_m kernel[m] y[i - m]
    blocks = [np.convolve(block[wrap], kernel, "valid") for block in y.reshape(-1, n)]
    return np.array(blocks).reshape(y.shape)


def _taylor_run(
    B: sp.csr_matrix,
    y0: np.ndarray,
    span: float,
    dt: float,
    norm_cap: float,
) -> np.ndarray:
    """Advance y' = B y by ``span`` in max(1, ceil(span / dt)) Taylor steps.

    Each step of size h applies T(hB) = sum_{j <= TAYLOR_DEGREE} (hB)^j / j!
    in Horner form: v = y, then v = y + (hB v)/j for j = TAYLOR_DEGREE down
    to 2, then y + hB v, TAYLOR_DEGREE matrix-vector products in all.  Every
    increment is hB times a vector, and the columns of B sum to exactly zero
    over the rho_plus rows, so the mass changes by round-off only.
    """
    nsteps = max(1, math.ceil(span / dt))
    h = span / nsteps
    hB = h * B
    y = y0.copy()
    for step in range(nsteps):
        v = y
        for j in range(TAYLOR_DEGREE, 1, -1):
            v = hB @ v
            v *= 1.0 / j
            v += y
        y += hB @ v
        if not np.all(np.abs(y) <= norm_cap):
            raise UnstableStep(
                f"solution norm exceeded 10x its initial value after {step + 1} steps of {h:.3g}"
            )
    return y


def fd_integrate(
    p: Params,
    ic: InitialCondition,
    t_end: float,
    grid: SpatialGrid,
    dt: Optional[float] = None,
    snapshot_times: Optional[Sequence[float]] = None,
    richardson: bool = True,
) -> FdResult:
    """March the coupled system to ``t_end`` with central differences.

    Each snapshot interval of length tau applies the lattice heat semigroup
    exactly (:func:`_lattice_heat`) and then Taylor steps of the coupling
    operator B (:func:`_taylor_run`, step ``dt``, by default
    :func:`auto_time_step`).  The two commute, so the split adds no error
    to the semi-discretisation.  Only the live components are integrated
    (see :func:`_live_components`); the others come back as exact zeros.
    The Richardson estimate is the max-norm difference against a re-run
    over [0, t_end] as one interval at dt/2, scaled by 2^30/(2^30 - 1) (the
    step-halving bound for a method of order 30); it covers the time error
    of the B part only, the O(dx^2) spatial error is assessed by grid
    refinement in the tests.  The tail and boundary checks use
    DEFAULT_EPS_TAIL.
    """
    if t_end <= 0.0:
        raise NonPositiveTime(f"t_end must be > 0, got {t_end}")
    times = sorted(set(float(t) for t in (snapshot_times or [])) | {float(t_end)})
    if times[0] <= 0.0:
        raise NonPositiveTime(f"snapshot times must be > 0, got {times[0]}")
    if times[-1] > t_end:
        raise ValueError(f"snapshot times must be <= t_end={t_end}, got {times[-1]}")
    u0 = sample_initial(ic, grid)
    y0 = np.concatenate([u0.rho_plus, u0.c_i, u0.rho_minus, u0.c_r])
    n = grid.n_points
    B = _difference_operator(p, grid)
    live = _live_components(B, y0, n)
    B, y0_live = B[live][:, live], y0[live]
    if dt is None:
        dt = auto_time_step(p, grid)
    norm_cap = 10.0 * max(np.max(np.abs(y0)), 1e-300)
    heat_rate = 2.0 * p.gamma_p / grid.dx**2  # s of the lattice heat semigroup per unit time

    def advance(y: np.ndarray, span: float, step: float) -> np.ndarray:
        return _taylor_run(B, _lattice_heat(y, heat_rate * span, n), span, step, norm_cap)

    y, t_prev, states = y0_live, 0.0, []
    for t in times:
        y = advance(y, t - t_prev, dt)
        states.append(y)
        t_prev = t

    def unpack(y_live: np.ndarray, t: float) -> BlochField:
        y = np.zeros_like(y0)
        y[live] = y_live
        return BlochField(
            grid=grid,
            rho_plus=y[:n],
            c_i=y[n:2 * n],
            rho_minus=y[2 * n:3 * n],
            c_r=y[3 * n:],
            time=t,
        )

    snaps = {t: unpack(y, t) for t, y in zip(times, states)}
    final = snaps[times[-1]]
    boundary = max(abs(final.rho_plus[0]), abs(final.rho_plus[n - 1]))
    if boundary > DEFAULT_EPS_TAIL:
        raise DomainTooNarrow(
            f"density at the boundary is {boundary:.3e} > {DEFAULT_EPS_TAIL:.1e}; widen the grid"
        )

    rich = None
    if richardson:
        half = advance(y0_live, times[-1], dt / 2.0)
        halving = 2.0**TAYLOR_DEGREE
        rich = halving / (halving - 1.0) * float(np.max(np.abs(states[-1] - half)))

    return FdResult(field=final, richardson_error=rich, snapshots=snaps)


def quad_inverse_fourier(
    symbol: Callable[[np.ndarray], np.ndarray], x_points: np.ndarray, xi_max: float
) -> np.ndarray:
    """Evaluate (1/2pi) * integral_{-xi_max}^{xi_max} S(xi) e^{i xi x} dxi.

    ``symbol`` maps an array of frequencies (m,) to stacked matrices
    (m, 3, 3), its time dependence included.  The node count starts at
    QUAD_START_NODES and is doubled (less one) until two successive
    trapezoid results differ by less than QUAD_TOL in max norm, or raises
    QuadratureNotConverged beyond QUAD_MAX_NODES.  The rules nest: the
    (2n - 1)-node sum is the n-node sum plus the n - 1 new midpoints, so
    each node's symbol and phases are evaluated once.  Returns the real part,
    shape (len(x), 3, 3).
    """
    x = np.atleast_1d(np.asarray(x_points, dtype=float))
    n = QUAD_START_NODES
    xi = new = np.linspace(-xi_max, xi_max, n)
    weights = np.ones(n)
    weights[0] = weights[-1] = 0.5
    total = np.zeros((x.size, 9), dtype=complex)  # the trapezoid sum over its step
    prev = None
    chunk = max(1, min(8192, 2**18 // x.size))  # phase block of at most 2^18 entries
    while True:
        for lo in range(0, new.size, chunk):
            hi = min(lo + chunk, new.size)
            sym = np.asarray(symbol(new[lo:hi]), dtype=complex).reshape(hi - lo, 9)
            sym = sym * weights[lo:hi, None]
            phase = np.exp(1j * np.outer(x, new[lo:hi]))
            total += phase @ sym
        result = (total * ((xi[1] - xi[0]) / (2.0 * math.pi))).reshape(x.size, 3, 3)
        if prev is not None and np.max(np.abs(result - prev)) < QUAD_TOL:
            return np.real(result)
        prev = result
        n = 2 * n - 1
        if n > QUAD_MAX_NODES:
            raise QuadratureNotConverged(
                f"inverse Fourier quadrature did not reach tol={QUAD_TOL:.1e} within {QUAD_MAX_NODES} nodes"
            )
        xi = np.linspace(-xi_max, xi_max, n)
        new = xi[1::2]
        weights = np.ones(new.size)
