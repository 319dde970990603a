"""General solver for arbitrary positive rates via the Fourier symbol.

Transforming the coupled system for u = (rho_plus, c_i, rho_minus) turns it
into u_hat' = Q(xi) u_hat with the 3x3 symbol

        [ -2 gp xi^2              0            -2 i xi delta ]
  Q  =  [     0        -2 gp xi^2 - 2 gz           omega     ]
        [ -2 i xi delta       -4 omega          -2 gp xi^2   ]

The solution is exp(t Q(xi)) applied to the transformed initial data, pulled
back by the inverse transform; the Green's matrix is the inverse transform of
exp(t Q) itself.  Eigenvalues come from the cubic in closed (Cardano) form
with principal complex branches.  The exponential is the Newton interpolant
of exp at those eigenvalues (Putzer's formula), which needs no eigenvectors
and holds unchanged where eigenvalues coalesce (xi = 0, the critical point
gamma_z = 2 omega, zeros of the cubic's discriminant); only the divided
differences of exp switch to series forms there.

c_r = Re(rho12) decouples into a damped heat equation: its transform is
multiplied by exp(-(2 gp xi^2 + 2 gz) t) and inverted alongside the others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    BlochField,
    DensityField,
    InitialCondition,
    Params,
    SpatialGrid,
    sample_initial,
    to_bloch,
    validate_params,
)
from .errors import GridUnderResolved, StabilityViolation, TailNotDecayed

_NEAR = 1.0                # points this close use series forms of the divided differences
_SERIES_TERMS = 20         # terms of the three-point series; the rest is below 1e-18
_FFT_IMAG_TOL = 1e-10      # relative imaginary residue allowed in real kernels
_TINY = np.finfo(float).tiny  # least positive normal double
_EPS = np.finfo(float).eps
_RE_ULPS = 8.0             # round-off allowed in Re lambda, in ulp of max |lambda|


@dataclass(frozen=True)
class StabilityReport:
    max_real_part: float
    zero_mode_residual: float
    n_samples: int


@dataclass(frozen=True)
class GreenMatrix:
    """Matrix kernel sampled on a grid; entries[i, j] is a real array over x."""

    grid: SpatialGrid
    time: float
    entries: np.ndarray  # (3, 3, n)

    @classmethod
    def checked(cls, grid: SpatialGrid, time: float, entries: np.ndarray,
                eps_tail: float) -> "GreenMatrix":
        """The Green's matrix of ``entries``, or TailNotDecayed when any entry
        at either grid boundary exceeds ``eps_tail`` times the peak entry."""
        peak = np.max(np.abs(entries))
        boundary = max(np.max(np.abs(entries[:, :, 0])), np.max(np.abs(entries[:, :, -1])))
        if boundary > eps_tail * peak:
            raise TailNotDecayed(
                f"Green entries at the boundary are {boundary:.3e} (peak {peak:.3e}); widen the grid"
            )
        return cls(grid=grid, time=time, entries=entries)


def symbol_matrices(xis: np.ndarray, p: Params) -> np.ndarray:
    """Stacked Q(xi), shape (m, 3, 3)."""
    xis = np.asarray(xis, dtype=float)
    m = xis.size
    q = np.zeros((m, 3, 3), dtype=complex)
    lap = -2.0 * p.gamma_p * xis**2
    q[:, 0, 0] = lap
    q[:, 1, 1] = lap - 2.0 * p.gamma_z
    q[:, 2, 2] = lap
    q[:, 0, 2] = q[:, 2, 0] = -2j * xis * p.delta
    q[:, 1, 2] = p.omega
    q[:, 2, 1] = -4.0 * p.omega
    return q


def char_coeffs(xi, p: Params):
    """(a1, a2, a3) of det(lambda I - Q) = lambda^3 + a1 l^2 + a2 l + a3.

    ``xi`` may be a float or an array of frequencies.
    """
    gp, gz, dl, om = p.gamma_p, p.gamma_z, p.delta, p.omega
    x2 = xi * xi
    a1 = 6.0 * gp * x2 + 2.0 * gz
    a2 = 12.0 * gp**2 * x2**2 + (4.0 * dl**2 + 8.0 * gp * gz) * x2 + 4.0 * om**2
    a3 = x2 * (8.0 * gp**3 * x2**2 + (8.0 * dl**2 * gp + 8.0 * gp**2 * gz) * x2
               + 8.0 * om**2 * gp + 8.0 * dl**2 * gz)
    return a1, a2, a3


def cardano_eigenvalues(xis: np.ndarray, p: Params) -> np.ndarray:
    """Closed-form eigenvalues of Q(xi), shape (m, 3), in no fixed order.

    The radicals are taken with principal complex branches (the square root
    argument goes negative for some parameter ranges, where the cubic has
    three real roots and the complex arithmetic recombines them).  Two forms
    keep round-off from cancelling: the square root is added to qc with
    qc's sign, and the root of least modulus (the zero mode near xi = 0) is
    taken from Vieta's relation lambda_k = -a3 / (lambda_i lambda_j), so it
    has the right sign however small it is.  Below |xi| ~ 1e-152 it is
    smaller than the least normal double and comes out as zero.
    """
    xis = np.asarray(xis, dtype=float)
    gp, gz, dl, om = p.gamma_p, p.gamma_z, p.delta, p.omega
    x2 = xis * xis
    pc = (12.0 * dl**6 * x2**3
          + 12.0 * dl**4 * (3.0 * om**2 + 2.0 * gz**2) * x2**2
          + 12.0 * dl**2 * (3.0 * om**4 - 5.0 * om**2 * gz**2 + gz**4) * x2
          + 3.0 * om**4 * (4.0 * om**2 - gz**2))
    qc = 4.0 * gz * (-18.0 * dl**2 * x2 + 9.0 * om**2 - 2.0 * gz**2)
    rc = 4.0 * dl**2 * x2 + 4.0 * om**2 - (4.0 / 3.0) * gz**2
    # either sign of the root gives the same three roots (s s' = -27 rc^3);
    # the one that adds to |qc| avoids cancellation where qc^2 ~ 144 pc
    root = 12.0 * np.sqrt(pc.astype(complex))
    s = np.where(qc < 0.0, qc - root, qc + root)
    w = s ** (1.0 / 3.0)
    base = -2.0 * gp * x2 - (2.0 / 3.0) * gz
    # s == 0 is a triple root of the depressed cubic: all three roots are base
    ok = s != 0.0
    out = np.empty((xis.size, 3), dtype=complex)
    out[~ok, :] = base[~ok, None]
    w, base = w[ok], base[ok]
    ratio = rc[ok] / w
    out[ok, 0] = base + w / 3.0 - ratio
    re = base - w / 6.0 + 0.5 * ratio
    im = 0.5 * math.sqrt(3.0) * (w / 3.0 + ratio)
    out[ok, 1] = re + 1j * im
    out[ok, 2] = re - 1j * im
    # the small root is a difference of large terms (|xi| < 1e-8 gives
    # +3e-16 for the zero mode); the product of the other two does not cancel
    _, _, a3 = char_coeffs(xis, p)
    rows = np.arange(xis.size)
    k = np.argmin(np.abs(out), axis=1)
    pair = out[rows, (k + 1) % 3] * out[rows, (k + 2) % 3]
    usable = (pair != 0.0) & ok
    out[rows[usable], k[usable]] = -a3[usable] / pair[usable]
    return out


def stability_check(p: Params, xi_samples: Sequence[float]) -> StabilityReport:
    """Assert the dissipativity structure of the eigenvalues on samples.

    At xi = 0 the spectrum is exactly {0, -gz +- sqrt(gz^2 - 4 om^2)}: one
    zero mode when omega > 0, two when omega = 0 < gamma_z, three when both
    vanish.  Those must lie within 1e-10 * scale of zero, and so must the
    real parts of the others when gamma_z = 0 (+-2i omega); otherwise the
    others need Re < 0.

    At xi != 0 every exact real part is negative.  The Cardano form leaves
    round-off of a few ulp of max |lambda| in each root (up to 3.6 seen), and
    at gamma_z = 0 and small xi the exact real part of the +-2i omega pair,
    about -2 gp xi^2, is smaller than that.  So a complex mode, one whose
    imaginary part exceeds _RE_ULPS ulp of max |lambda|, needs a real part
    below that many ulp; a real mode needs Re < 0.  One exception: the mode
    of least modulus is about -a3/a2, and where a3/a2 lies below the least
    normal double that mode cannot be told from zero in double precision
    (|xi| below ~1e-152 for rates of order one); there only a positive real
    part raises StabilityViolation.
    """
    validate_params(p)
    max_re = -math.inf
    zero_res = 0.0
    n_zero = 1 if p.omega > 0.0 else (2 if p.gamma_z > 0.0 else 3)
    for xi in xi_samples:
        lam = cardano_eigenvalues(np.array([float(xi)]), p)[0]
        scale = max(abs(p.gamma_z), p.omega, p.gamma_p * xi * xi, abs(p.delta * xi), 1.0)
        if xi == 0.0:
            order = np.argsort(np.abs(lam))
            zero, rest = lam[order[:n_zero]], lam[order[n_zero:]]
            zero_res = max(zero_res, float(np.max(np.abs(zero))))
            if np.any(np.abs(zero) > 1e-10 * scale):
                raise StabilityViolation(f"expected {n_zero} zero modes at xi=0: eigenvalues {lam}")
            if p.gamma_z == 0.0:
                if np.any(np.abs(rest.real) > 1e-10 * scale):
                    raise StabilityViolation(f"+-2i omega pair off the imaginary axis at xi=0: {lam}")
            elif np.any(rest.real >= 0.0):
                raise StabilityViolation(f"non-negative real part at xi=0: {lam}")
            else:
                max_re = max(max_re, float(np.max(rest.real)))
        else:
            slack = _RE_ULPS * _EPS * np.max(np.abs(lam))
            not_negative = lam.real >= np.where(np.abs(lam.imag) > slack, slack, 0.0)
            _, a2, a3 = char_coeffs(float(xi), p)
            if a2 > 0.0 and a3 / a2 < _TINY:
                k = int(np.argmin(np.abs(lam)))
                not_negative[k] = lam[k].real > 0.0
            if np.any(not_negative):
                raise StabilityViolation(f"Re lambda >= 0 at xi={xi}: {lam}")
            max_re = max(max_re, float(np.max(lam.real)))
    return StabilityReport(max_real_part=max_re, zero_mode_residual=zero_res, n_samples=len(xi_samples))


def _sinhc(w: np.ndarray) -> np.ndarray:
    """sinh(w) / w by its Taylor series, exact to round-off for |w| <= 1/2."""
    w2 = w * w
    out = np.ones_like(w)
    for k in range(7, 0, -1):
        out = 1.0 + out * w2 / ((2 * k) * (2 * k + 1))
    return out


def _exp_dd2(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Divided difference (e^x - e^y) / (x - y), elementwise.

    Close points use e^((x+y)/2) sinh(h/2) / (h/2) with h = x - y, which
    holds at x = y; the plain quotient serves the rest.
    """
    h = x - y
    out = np.empty_like(h)
    near = np.abs(h) <= _NEAR
    out[near] = np.exp(0.5 * (x[near] + y[near])) * _sinhc(0.5 * h[near])
    far = ~near
    out[far] = (np.exp(x[far]) - np.exp(y[far])) / h[far]
    return out


def _exp_dd3_series(d1: np.ndarray, d2: np.ndarray, d3: np.ndarray) -> np.ndarray:
    """Divided difference e[d1, d2, d3] of exp for |d_k| <= _NEAR.

    The series is sum_m h_m(d1, d2, d3) / (m + 2)!, with h_m the complete
    homogeneous symmetric polynomial of degree m, built one point at a time
    by h_m(d1..dk) = h_m(d1..dk-1) + dk h_(m-1)(d1..dk).  Its m-th term is
    at most 1 / (2 m!).
    """
    h1 = h2 = h3 = np.ones_like(d1)
    weight = 0.5
    total = weight * h3
    for m in range(1, _SERIES_TERMS):
        h1 = d1 * h1
        h2 = h1 + d2 * h2
        h3 = h2 + d3 * h3
        weight /= m + 2
        total = total + weight * h3
    return total


def exp_symbols(xis: np.ndarray, p: Params, t: float) -> np.ndarray:
    """Stacked exp(t Q(xi_k)), shape (m, 3, 3).

    With z1, z2, z3 the eigenvalues of A = t Q, Putzer's formula

        exp(A) = e[z1] I + e[z1, z2] (A - z1) + e[z1, z2, z3] (A - z1)(A - z2)

    holds whether or not the eigenvalues are distinct; e[...] are divided
    differences of exp.  Each row puts its closest pair last, so |z1 - z3|
    is at least half the spread of the three points.  e[z1, z2, z3] is a
    series about the centroid where all three lie within _NEAR of it, and
    (e[z1, z2] - e[z2, z3]) / (z1 - z3) elsewhere.
    """
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    xis = np.asarray(xis, dtype=float)
    a = t * symbol_matrices(xis, p)
    z = t * cardano_eigenvalues(xis, p)
    gap = np.abs(z - np.roll(z, -1, axis=1))  # gap[:, j] = |z_j - z_(j+1)|
    first = (np.argmin(gap, axis=1) + 2) % 3
    z = np.take_along_axis(z, (first[:, None] + np.arange(3)) % 3, axis=1)
    z1, z2, z3 = z.T
    e12 = _exp_dd2(z1, z2)
    e123 = np.empty_like(e12)
    centre = z.mean(axis=1)
    d = z - centre[:, None]
    near = np.abs(d).max(axis=1) <= _NEAR
    far = ~near
    e123[near] = np.exp(centre[near]) * _exp_dd3_series(*d[near].T)
    e123[far] = (e12[far] - _exp_dd2(z2[far], z3[far])) / (z1[far] - z3[far])
    eye = np.eye(3)
    b1 = a - z1[:, None, None] * eye
    b2 = a - z2[:, None, None] * eye
    return (np.exp(z1)[:, None, None] * eye + e12[:, None, None] * b1
            + e123[:, None, None] * (b1 @ b2))


def _real_inverse(grid: SpatialGrid, spectra: np.ndarray) -> np.ndarray:
    """Real parts of the inverse transforms of stacked spectra (last axis over xi).

    Every row is the transform of a real field, so its imaginary part is FFT
    round-off; a row whose max |imag| exceeds _FFT_IMAG_TOL times
    max(max |real|, 1) means the spectrum lost conjugate symmetry.
    """
    values = grid.inverse_transform(spectra)
    residue = np.max(np.abs(values.imag), axis=-1)
    allowed = _FFT_IMAG_TOL * np.maximum(np.max(np.abs(values.real), axis=-1), 1.0)
    bad = residue > allowed
    if np.any(bad):
        raise ValueError(
            f"rows {np.argwhere(bad).tolist()} have an imaginary residue beyond tolerance; "
            "the spectrum lost conjugate symmetry"
        )
    return values.real


def green_function(
    p: Params,
    t: float,
    grid: SpatialGrid,
    eps_tail: float = 1e-8,
    points_per_sigma: float = 8.0,
) -> GreenMatrix:
    """Matrix Green's function on the grid by inverse FFT of exp(t Q).

    Rejects grids that cannot resolve the diffusion width (GridUnderResolved)
    and results whose entries have not decayed at the boundary
    (TailNotDecayed).  Entries are real up to FFT round-off; the imaginary
    residue is checked against _FFT_IMAG_TOL.
    """
    validate_params(p)
    if t <= 0.0:
        raise ValueError(f"green_function needs t > 0, got {t}")
    sigma = math.sqrt(4.0 * p.gamma_p * t)
    if grid.dx > sigma / points_per_sigma:
        raise GridUnderResolved(
            f"dx={grid.dx:.3g} too coarse for diffusion width {sigma:.3g} "
            f"(need >= {points_per_sigma} points per standard deviation)"
        )
    if grid.half_width < 2.0 * p.delta * t + 6.0 * sigma:
        raise GridUnderResolved(
            f"half_width={grid.half_width:.3g} smaller than drift + 6 sigma "
            f"= {2.0 * p.delta * t + 6.0 * sigma:.3g}"
        )
    spectra = exp_symbols(grid.fourier_nodes, p, t)
    entries = _real_inverse(grid, np.moveaxis(spectra, 0, -1))
    return GreenMatrix.checked(grid, t, entries, eps_tail)


def solve(p: Params, ic: InitialCondition, t: float, grid: SpatialGrid) -> BlochField:
    """Propagate the initial data to time t in Fourier space.

    Equivalent to convolving with the Green's matrix (one transform less).
    Built-in initial shapes enter through their closed Fourier transforms
    (no kink-sampling error) and are not sampled on the grid; Custom fields
    are transformed by FFT.  (rho_plus, c_i, rho_minus) evolve by exp(t Q);
    the decoupled c_r by the damped heat factor exp(-(2 gp xi^2 + 2 gz) t).
    All four components come back in one inverse transform.
    """
    validate_params(p)
    xis = grid.fourier_nodes
    hat = ic.spectrum(xis)
    if hat is None:  # Custom data
        u0 = to_bloch(sample_initial(ic, grid))
        if t == 0.0:
            return u0
        hat = grid.forward_transform(np.stack([u0.rho_plus, u0.c_i, u0.rho_minus, u0.c_r]))
    elif t == 0.0:
        return to_bloch(DensityField(grid, *ic.heat(0.0, grid.nodes, p.gamma_p)))
    spectra = exp_symbols(xis, p, t)
    evolved = np.empty((4, grid.n_points), dtype=complex)
    evolved[:3] = np.einsum("mij,mj->mi", spectra, np.stack(hat[:3], axis=1).astype(complex)).T
    evolved[3] = hat[3] * np.exp(-(2.0 * p.gamma_p * xis**2 + 2.0 * p.gamma_z) * t)
    rho_plus, c_i, rho_minus, c_r = _real_inverse(grid, evolved)
    return BlochField(grid=grid, rho_plus=rho_plus, c_i=c_i, rho_minus=rho_minus, c_r=c_r, time=t)
