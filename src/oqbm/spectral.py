"""General solver for arbitrary positive rates via the Fourier symbol.

Transforming the coupled system for u = (rho_plus, c_i, rho_minus) turns it
into u_hat' = Q(xi) u_hat with the 3x3 symbol

        [ -2 gp xi^2              0            -2 i xi delta ]
  Q  =  [     0        -2 gp xi^2 - 2 gz           omega     ]
        [ -2 i xi delta       -4 omega          -2 gp xi^2   ]

The solution is exp(t Q(xi)) applied to the transformed initial data, pulled
back by the inverse transform; the Green's matrix is the inverse transform of
exp(t Q) itself.  Eigenvalues come from the cubic in closed (Cardano) form
with principal complex branches; eigenvectors from the resolvent ratios.
Frequencies where that basis is ill-conditioned fall back to a dense
eigensolver and, failing that, to scaling-and-squaring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.linalg

from . import omega0
from .core import (
    BlochField,
    InitialCondition,
    Params,
    SpatialGrid,
    initial_spectrum,
    sample_initial,
    to_bloch,
    validate_params,
)
from .errors import (
    DefectiveMatrix,
    GridUnderResolved,
    StabilityViolation,
    TailNotDecayed,
)

_COND_LIMIT = 1e8          # eigenbasis condition beyond which the basis is useless
_DIAG_COND_LIMIT = 1e5     # stricter gate for the fast diagonalized exponential
_RESIDUAL_LIMIT = 1e-8     # characteristic-polynomial residual gate
_FFT_IMAG_TOL = 1e-10      # relative imaginary residue allowed in real kernels
_TINY = np.finfo(float).tiny  # least positive normal double


@dataclass(frozen=True)
class SymbolMatrix:
    xi: float
    q: np.ndarray  # (3, 3) complex


@dataclass(frozen=True)
class EigenSystem:
    lambdas: np.ndarray    # (3,) complex
    vectors: np.ndarray    # (3, 3) complex, columns are eigenvectors
    inverse: np.ndarray    # (3, 3) complex
    condition: float


@dataclass(frozen=True)
class StabilityReport:
    max_real_part: float
    zero_mode_residual: float
    n_samples: int


@dataclass(frozen=True)
class GreenMatrix:
    """Matrix kernel sampled on a grid; entries[i, j] is a real array over x.

    ``delta_shifts[(i, j)]`` lists (location, weight) Dirac contributions that
    are carried analytically by closed-form producers; the spectral route
    never populates it.
    """

    grid: SpatialGrid
    time: float
    entries: np.ndarray  # (3, 3, n)
    delta_shifts: dict


def build_symbol(xi: float, p: Params) -> SymbolMatrix:
    return SymbolMatrix(xi=float(xi), q=symbol_matrices(np.array([xi]), p)[0])


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


def _ratio_eigenvectors(xis: np.ndarray, lam: np.ndarray, p: Params):
    """Eigenvectors from the resolvent ratios, unnormalized; shape (m, 3, 3).

    Column j solves (Q - lam_j) v = 0 with third component fixed to one:
    v = (-2 i delta xi / (2 gp xi^2 + lam), omega / (2 gp xi^2 + 2 gz + lam), 1).
    Returns (vectors, bad) where ``bad`` marks frequencies whose denominators
    degenerate (those need the dense fallback).
    """
    m = xis.size
    den1 = lam + (2.0 * p.gamma_p * xis**2)[:, None]
    den2 = den1 + 2.0 * p.gamma_z
    scale = (np.abs(lam).max(axis=1) + 2.0 * p.gamma_z + 4.0 * p.omega
             + 2.0 * p.delta * np.abs(xis) + 1e-300)
    tol = 1e-9 * scale[:, None]
    bad = (np.abs(den1) < tol).any(axis=1) | (np.abs(den2) < tol).any(axis=1)
    u = np.empty((m, 3, 3), dtype=complex)
    safe1 = np.where(np.abs(den1) < tol, 1.0, den1)
    safe2 = np.where(np.abs(den2) < tol, 1.0, den2)
    u[:, 0, :] = (-2j * p.delta * xis)[:, None] / safe1
    u[:, 1, :] = p.omega / safe2
    u[:, 2, :] = 1.0
    return u, bad


def eigensystem(sm: SymbolMatrix, p: Params) -> EigenSystem:
    """Diagonalization at a single frequency; DefectiveMatrix when hopeless."""
    xis = np.array([sm.xi])
    lam = cardano_eigenvalues(xis, p)
    vec, bad = _ratio_eigenvectors(xis, lam, p)
    a1, a2, a3 = char_coeffs(sm.xi, p)
    scale = max(np.max(np.abs(sm.q)), 1e-300)
    residual = np.max(np.abs(lam[0] ** 3 + a1 * lam[0] ** 2 + a2 * lam[0] + a3)) / scale**3
    if bad[0] or residual > _RESIDUAL_LIMIT:
        w, v = np.linalg.eig(sm.q)
        lam, vec = w[None, :], v[None, :, :]
    cond = float(np.linalg.cond(vec[0]))
    pairwise = np.abs(lam[0][:, None] - lam[0][None, :])
    pairwise[np.arange(3), np.arange(3)] = np.inf
    gap = float(np.min(pairwise))
    if not np.isfinite(cond) or cond > _COND_LIMIT or gap < 1e-8 * scale:
        raise DefectiveMatrix(
            f"no well-conditioned eigenbasis at xi={sm.xi} (cond={cond:.2e}); use exp_symbol"
        )
    return EigenSystem(
        lambdas=lam[0], vectors=vec[0], inverse=np.linalg.inv(vec[0]), condition=cond
    )


def stability_check(p: Params, xi_samples: Sequence[float]) -> StabilityReport:
    """Assert the dissipativity structure of the eigenvalues on samples.

    For xi != 0 all real parts must be strictly negative.  At xi = 0 the
    spectrum is exactly {0, -gz +- sqrt(gz^2 - 4 om^2)}: one zero mode when
    omega > 0, two when omega = 0 < gamma_z, three when both vanish.  Those
    must lie within 1e-10 * scale of zero, and so must the real parts of the
    others when gamma_z = 0 (+-2i omega); otherwise the others need Re < 0.

    One exception at xi != 0: the mode of least modulus is about -a3/a2,
    and where a3/a2 lies below the least normal double that mode cannot be
    told from zero in double precision (|xi| below ~1e-152 for rates of
    order one).  There its real part may be zero; a zero real part
    anywhere else, and a positive one anywhere, raises StabilityViolation.
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
            non_negative = lam.real >= 0.0
            _, a2, a3 = char_coeffs(float(xi), p)
            if a2 > 0.0 and a3 / a2 < _TINY:
                k = int(np.argmin(np.abs(lam)))
                non_negative[k] = lam[k].real > 0.0
            if np.any(non_negative):
                raise StabilityViolation(f"Re lambda >= 0 at xi={xi}: {lam}")
            max_re = max(max_re, float(np.max(lam.real)))
    return StabilityReport(max_real_part=max_re, zero_mode_residual=zero_res, n_samples=len(xi_samples))


def exp_symbol(sm: SymbolMatrix, t: float, es: Optional[EigenSystem] = None) -> np.ndarray:
    """exp(t Q(xi)) for one frequency; diagonalization if possible, else expm."""
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    if es is None:
        return scipy.linalg.expm(t * sm.q)
    return (es.vectors * np.exp(t * es.lambdas)) @ es.inverse


def exp_symbols(xis: np.ndarray, p: Params, t: float) -> np.ndarray:
    """Stacked exp(t Q(xi_k)), shape (m, 3, 3), with per-frequency fallbacks."""
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    xis = np.asarray(xis, dtype=float)
    m = xis.size
    if t == 0.0:
        return np.broadcast_to(np.eye(3, dtype=complex), (m, 3, 3)).copy()
    q = symbol_matrices(xis, p)
    lam = cardano_eigenvalues(xis, p)
    vec, bad = _ratio_eigenvectors(xis, lam, p)

    # replace flagged frequencies with the dense eigensolver
    if bad.any():
        w, v = np.linalg.eig(q[bad])
        lam[bad] = w
        vec[bad] = v
    with np.errstate(all="ignore"):
        cond = np.linalg.cond(vec)
    scale = np.abs(q).reshape(m, 9).max(axis=1)
    pairwise = np.abs(lam[:, :, None] - lam[:, None, :])
    pairwise[:, np.arange(3), np.arange(3)] = np.inf
    gap = np.min(pairwise, axis=(1, 2))
    # diagonalization loses ~cond * eps digits; route anything marginal to expm
    hard = ~np.isfinite(cond) | (cond > _DIAG_COND_LIMIT) | (gap < 1e-6 * scale)
    easy = ~hard
    out = np.empty((m, 3, 3), dtype=complex)
    if easy.any():
        inv = np.linalg.inv(vec[easy])
        out[easy] = np.einsum("mik,mk,mkj->mij", vec[easy], np.exp(t * lam[easy]), inv)
    for idx in np.nonzero(hard)[0]:
        out[idx] = scipy.linalg.expm(t * q[idx])
    return out


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
    entries = np.empty((3, 3, grid.n_points))
    for i in range(3):
        for j in range(3):
            kernel = grid.inverse_transform(spectra[:, i, j])
            peak = np.max(np.abs(kernel.real)) + 1e-300
            if np.max(np.abs(kernel.imag)) > _FFT_IMAG_TOL * max(peak, 1.0):
                raise ValueError(
                    f"entry ({i},{j}) has imaginary residue beyond tolerance; "
                    "the symbol lost conjugate symmetry"
                )
            entries[i, j] = kernel.real
    peak = np.max(np.abs(entries))
    boundary = max(np.max(np.abs(entries[:, :, 0])), np.max(np.abs(entries[:, :, -1])))
    if boundary > eps_tail * peak:
        raise TailNotDecayed(
            f"Green entries at the boundary are {boundary:.3e} (peak {peak:.3e}); widen the grid"
        )
    return GreenMatrix(grid=grid, time=t, entries=entries, delta_shifts={})


def solve(p: Params, ic: InitialCondition, t: float, grid: SpatialGrid) -> BlochField:
    """Propagate the initial data to time t in Fourier space.

    Equivalent to convolving with the Green's matrix (one transform less).
    Built-in initial shapes enter through their closed Fourier transforms
    (no kink-sampling error); Custom fields are transformed by FFT.  The
    decoupled c_r component comes from the exact kernel in
    :mod:`oqbm.omega0`, which holds for every parameter choice.
    """
    validate_params(p)
    u0 = to_bloch(sample_initial(ic, grid))
    if t == 0.0:
        return u0
    spectra = exp_symbols(grid.fourier_nodes, p, t)
    closed_hat = initial_spectrum(ic, grid.fourier_nodes)
    if closed_hat is not None:
        hat = np.stack(closed_hat[:3], axis=1).astype(complex)
    else:
        hat = np.stack([
            grid.forward_transform(u0.rho_plus),
            grid.forward_transform(u0.c_i),
            grid.forward_transform(u0.rho_minus),
        ], axis=1)
    evolved = np.einsum("mij,mj->mi", spectra, hat)
    comps = []
    for i in range(3):
        values = grid.inverse_transform(evolved[:, i])
        peak = max(np.max(np.abs(values.real)), 1.0)
        if np.max(np.abs(values.imag)) > _FFT_IMAG_TOL * peak:
            raise ValueError(f"component {i} acquired an imaginary part beyond tolerance")
        comps.append(values.real)
    return BlochField(
        grid=grid,
        rho_plus=comps[0],
        c_i=comps[1],
        rho_minus=comps[2],
        c_r=omega0.solve_cr(ic, t, grid, p),
        time=t,
    )
