"""Closed forms for the uncoupled regime (delta = 0).

Without the coin-position coupling the Green's matrix is a single heat kernel
times a constant-in-x internal matrix whose 2x2 (c_i, rho_minus) block damps
like an oscillator: overdamped for gamma_z > 2*omega, underdamped below, and
critically damped exactly at gamma_z = 2*omega, all three by one formula.

For mixture data (no coherence) the imbalance that :func:`solve` returns is
the scalar internal_matrix(p, t)[2, 2] times the heat-spread rho11 - rho22, so
in the underdamped regime it vanishes identically at the times tau_n returned
by :func:`imbalance_zeros`.
"""

from __future__ import annotations

import math

import numpy as np

from . import specfun as sf
from .core import BlochField, InitialCondition, Params, SpatialGrid
from .errors import NonFinite, NonPositiveTime, OqbmError, WrongRegime


def _discriminant(p: Params) -> tuple:
    """(gamma_z - 2 omega, w), the damping regime: overdamped where the first is > 0,
    underdamped where < 0, critical at 0.  w^2 = (gamma_z - 2 omega)(gamma_z + 2 omega)
    has the sign of its first factor, and w = sqrt(|w^2|) is taken per factor, so it
    never cancels."""
    split = p.gamma_z - 2.0 * p.omega
    return split, math.sqrt(abs(split)) * math.sqrt(p.gamma_z + 2.0 * p.omega)


def _require_regime(p: Params) -> None:
    if p.delta != 0.0:
        raise WrongRegime(f"this module needs delta = 0, got delta={p.delta}")


def internal_matrix(p: Params, t: float) -> np.ndarray:
    """The x-independent 3x3 internal factor of the Green's matrix.

    Its (c_i, rho_minus) block exp(tM), M = [[-2 gamma_z, omega], [-4 omega, 0]], is
    c I + s (M + gamma_z I) with c = e^{-gamma_z t} cosh(w t) and s = e^{-gamma_z t} sinh(w t) / w,
    one entire function of w^2: cos and sin / |w| for w^2 < 0, and s = t e^{-gamma_z t} at w = 0.
    """
    _require_regime(p)
    gz, om = p.gamma_z, p.omega
    split, w = _discriminant(p)
    if split > 0.0:
        # decay rates gz -/+ w: the slow one as 4 om^2 / (gz + w), which does not cancel
        slow = math.exp(-4.0 * om * (om / (gz + w)) * t)
        gap = math.expm1(-2.0 * w * t)  # e^{-(fast - slow) t} - 1
        c = slow * (1.0 + 0.5 * gap)
        s = -slow * gap / (2.0 * w)
    else:
        if not math.isfinite(w * t):  # where math.cos raises a bare ValueError
            raise NonFinite(f"the angle w t overflows a float at omega={om!r}, gamma_z={gz!r}, t={t!r}")
        damp = math.exp(-gz * t)
        c = damp * math.cos(w * t)
        s = damp * (math.sin(w * t) / w if w > 0.0 else t)
    return np.array([[1.0, 0.0, 0.0], [0.0, c - gz * s, om * s], [0.0, -4.0 * om * s, c + gz * s]])


def green_delta0(p: Params, t: float, x):
    """Green's matrix for delta = 0: heat kernel times the internal matrix."""
    if t <= 0.0:
        raise NonPositiveTime(f"green_delta0 needs t > 0, got {t}")
    m = internal_matrix(p, t)
    g = sf.heat_kernel(t, np.asarray(x, dtype=float), p.gamma_p)
    return g[..., None, None] * m


def imbalance_zeros(p: Params, n_max: int) -> np.ndarray:
    """Times tau_n at which the mixture imbalance vanishes identically.

    Roots of gamma_z sin(w t) + w cos(w t) = 0 in the underdamped regime:
    tau_n = (n pi - arctan(w / gamma_z)) / w, n = 1..n_max.
    """
    split, w = _discriminant(p)
    if split >= 0.0:
        raise WrongRegime("imbalance zeros exist only in the underdamped regime")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    n = np.arange(1, n_max + 1, dtype=float)
    taus = (n * math.pi - math.atan2(w, p.gamma_z)) / w
    residual = np.abs(p.gamma_z * np.sin(w * taus) + w * np.cos(w * taus))
    if np.max(residual) >= 1e-12 * w:
        raise OqbmError(f"zero-time residual {np.max(residual):.3e} exceeds 1e-12*w")
    return taus


def solve(p: Params, ic: InitialCondition, t: float, grid: SpatialGrid) -> BlochField:
    """Full closed-form field for delta = 0 (any damping regime).

    The heat-propagated components are rotated by the internal matrix; c_r
    only decays, at rate 2*gamma_z.
    """
    _require_regime(p)
    rho11, rho22, rho12 = ic.heat(t, grid.nodes, p.gamma_p)
    minus, ci = rho11 - rho22, np.imag(rho12)
    m = internal_matrix(p, t)
    return BlochField(
        grid=grid,
        rho_plus=rho11 + rho22,
        c_i=m[1, 1] * ci + m[1, 2] * minus,
        rho_minus=m[2, 1] * ci + m[2, 2] * minus,
        c_r=math.exp(-2.0 * p.gamma_z * t) * np.real(rho12),
        time=t,
    )
