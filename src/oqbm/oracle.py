"""Independent verification engines.

Two deliberately low-tech solvers used as ground truth everywhere else:

* :func:`fd_integrate` -- method-of-lines on the original coupled system,
  second-order central differences with periodic closure and explicit RK4
  at the step 2 / ||A||_inf, stepped as y + hA (P y) (mass kept to
  round-off) over only the components that can be non-zero.  It touches
  only the core types; it never imports the spectral or closed-form
  modules, so agreement with them is meaningful evidence.

* :func:`quad_inverse_fourier` -- plain trapezoid quadrature of
  (1/2pi) * integral exp(i xi x) S(xi) d(xi) for a matrix symbol S at the
  given points, with nested interval halving (each rule adds the midpoints
  of the last, so no node is evaluated twice) until successive results
  agree.  No FFT involved.

scipy.sparse is imported by the functions that assemble and step the
operator, on first use, so importing this module loads no scipy.
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
RK4_RADIUS = 2.0           # h ||A||_inf of auto_time_step; RK4 is stable to 2.61


@dataclass
class FdResult:
    """Final field, optional intermediate snapshots and a step-halving error bound."""

    field: BlochField
    richardson_error: Optional[float]
    snapshots: dict = field(default_factory=dict)


def _difference_operator(p: Params, grid: SpatialGrid) -> sp.csr_matrix:
    import scipy.sparse as sp
    n = grid.n_points
    dx = grid.dx
    ones = np.ones(n - 1)
    d2 = sp.diags(
        [np.full(n, -2.0), ones, ones, [1.0], [1.0]],
        [0, 1, -1, n - 1, -(n - 1)],
        format="csr",
    ) / dx**2
    d1 = sp.diags(
        [ones, -ones, [-1.0], [1.0]],
        [1, -1, n - 1, -(n - 1)],
        format="csr",
    ) / (2.0 * dx)
    eye = sp.identity(n, format="csr")
    zero = sp.csr_matrix((n, n))
    diff = 2.0 * p.gamma_p * d2
    # unknown ordering: (rho_plus, c_i, rho_minus, c_r)
    return sp.bmat(
        [
            [diff, zero, -2.0 * p.delta * d1, zero],
            [zero, diff - 2.0 * p.gamma_z * eye, p.omega * eye, zero],
            [-2.0 * p.delta * d1, -4.0 * p.omega * eye, diff, zero],
            [zero, zero, zero, diff - 2.0 * p.gamma_z * eye],
        ],
        format="csr",
    )


def auto_time_step(p: Params, grid: SpatialGrid) -> float:
    """Explicit-RK4 step RK4_RADIUS / ||A||_inf for the periodic operator A.

    The row sums of |A| give ||A||_inf = 8 gamma_p/dx^2 + max(2 delta/dx +
    4 omega, 2 gamma_z + omega).  Every eigenvalue of A has Re <= 0 and
    |lambda| <= ||A||_inf, and RK4's stability region holds the left half-disc
    of radius 2.61 (Hairer & Wanner, Solving ODEs II, IV.2), so h lambda stays
    inside it.  The radius is 2.0, not a stable 2.5, because the time error
    grows as h^4 on the resolved advection and Rabi modes: with all rates at
    1e-3..1e-2 on SpatialGrid(24, 2048) it is 8.0e-13 at t = 50 (2.5: 1.9e-12).
    """
    dx = grid.dx
    norm = 8.0 * p.gamma_p / dx**2 + max(
        2.0 * p.delta / dx + 4.0 * p.omega, 2.0 * p.gamma_z + p.omega
    )
    return RK4_RADIUS / norm


def _live_components(A: sp.csr_matrix, y0: np.ndarray, n: int) -> np.ndarray:
    """Indices of the n-blocks of ``y0`` that can ever be non-zero under A.

    A block is live if it is non-zero at t = 0 or if a non-zero n x n block of
    A feeds it from a live block; every other block stays exactly zero.
    """
    k = A.shape[0] // n
    coo = A.tocoo()
    nonzero = coo.data != 0.0
    feeds = np.zeros((k, k), dtype=bool)
    feeds[coo.row[nonzero] // n, coo.col[nonzero] // n] = True
    live = np.any(y0.reshape(k, n) != 0.0, axis=1)
    for _ in range(k):  # a feeding chain has at most k - 1 links
        live = live | feeds[:, live].any(axis=1)
    return np.flatnonzero(np.repeat(live, n))


def _rk4_run(
    A: sp.csr_matrix,
    y0: np.ndarray,
    times: Sequence[float],
    dt: float,
    norm_cap: float,
) -> list:
    """Integrate y' = A y from 0 through the sorted positive ``times``.

    For this linear autonomous operator one classical RK4 step of size h is
    exactly the degree-4 Taylor polynomial of exp(hA), written here as
    y + hA (P y) with P = I + hA/2 + (hA)^2/6 + (hA)^3/24.  hA and P are
    assembled once per distinct h.  Every increment is hA times a vector, and
    the columns of A sum to exactly zero over the rho_plus rows, so the mass
    changes by round-off only; a single assembled increment hA P would have
    rounded column sums and drift with the step count.
    """
    import scipy.sparse as sp
    eye = sp.identity(A.shape[0], format="csr")
    assembled = {}
    out = []
    y = y0.copy()
    t_prev = 0.0
    for t_target in times:
        span = t_target - t_prev
        nsteps = max(1, math.ceil(span / dt))
        h = span / nsteps
        if h not in assembled:
            hA = h * A
            P = eye + hA / 4.0
            P = eye + (hA / 3.0) @ P
            P = eye + (hA / 2.0) @ P
            assembled[h] = (hA, P)
        hA, P = assembled[h]
        for step in range(nsteps):
            y += hA @ (P @ y)
            if step % 64 == 0 and not np.all(np.abs(y) <= norm_cap):
                raise UnstableStep(
                    f"solution norm exceeded 10x its initial value at t~{t_prev + step * h:.3g}"
                )
        if not np.all(np.isfinite(y)) or not np.all(np.abs(y) <= norm_cap):
            raise UnstableStep("solution norm exceeded 10x its initial value")
        out.append(y.copy())
        t_prev = t_target
    return out


def fd_integrate(
    p: Params,
    ic: InitialCondition,
    t_end: float,
    grid: SpatialGrid,
    dt: Optional[float] = None,
    snapshot_times: Optional[Sequence[float]] = None,
    richardson: bool = True,
) -> FdResult:
    """March the coupled system to ``t_end`` with central differences + RK4.

    Only the live components are integrated (see :func:`_live_components`);
    the others come back as exact zeros.  The Richardson estimate is the
    max-norm difference against a half-step re-run scaled by 16/15 (the
    step-halving bound for a fourth-order method); it covers the time
    integration error only, the O(dx^2) spatial error is assessed by grid
    refinement in the tests.  The tail and boundary checks use DEFAULT_EPS_TAIL.
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
    A = _difference_operator(p, grid)
    live = _live_components(A, y0, n)
    A, y0_live = A[live][:, live], y0[live]
    if dt is None:
        dt = auto_time_step(p, grid)
    norm_cap = 10.0 * max(np.max(np.abs(y0)), 1e-300)

    states = _rk4_run(A, y0_live, times, dt, norm_cap)

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
        half = _rk4_run(A, y0_live, [times[-1]], dt / 2.0, norm_cap)[0]
        rich = (16.0 / 15.0) * float(np.max(np.abs(states[-1] - half)))

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
    chunk = 8192
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
