"""Closed forms for the uncoupled regime (delta = 0).

Without the coin-position coupling the Green's matrix is a single heat kernel
times a constant-in-x internal matrix whose 2x2 (c_i, rho_minus) block damps
like an oscillator: overdamped for gamma_z > 2*omega (hyperbolic functions of
omega_plus = sqrt(gamma_z^2 - 4 omega^2)), underdamped for gamma_z < 2*omega
(trigonometric functions of omega_minus = sqrt(4 omega^2 - gamma_z^2)), and a
polynomial-times-exponential Jordan block exactly at gamma_z = 2*omega.

For mixture data (no coherence) the imbalance that :func:`solve` returns is
the scalar internal_matrix(p, t)[2, 2] times the heat-spread rho11 - rho22, so
in the underdamped regime it vanishes identically at the times tau_n returned
by :func:`imbalance_zeros`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import specfun as sf
from .core import BlochField, InitialCondition, Params, SpatialGrid
from .errors import NonPositiveTime, OqbmError, WrongRegime

TOL_CRITICAL = 1e-9  # relative width of the Jordan-block window


class DampingKind(enum.Enum):
    OVER = "overdamped"
    UNDER = "underdamped"
    CRITICAL = "critical"


@dataclass(frozen=True)
class DampingRegime:
    kind: DampingKind
    omega_pm: float  # sqrt(|gamma_z^2 - 4 omega^2|); zero in the critical window


def classify(p: Params) -> DampingRegime:
    split = p.gamma_z - 2.0 * p.omega
    total = p.gamma_z + 2.0 * p.omega
    if abs(split) <= TOL_CRITICAL * total or total == 0.0:
        return DampingRegime(DampingKind.CRITICAL, 0.0)
    if split > 0.0:
        return DampingRegime(DampingKind.OVER, math.sqrt(p.gamma_z**2 - 4.0 * p.omega**2))
    return DampingRegime(DampingKind.UNDER, math.sqrt(4.0 * p.omega**2 - p.gamma_z**2))


def _require_regime(p: Params) -> None:
    if p.delta != 0.0:
        raise WrongRegime(f"this module needs delta = 0, got delta={p.delta}")


def internal_matrix(p: Params, t: float) -> np.ndarray:
    """The x-independent 3x3 internal factor of the Green's matrix."""
    _require_regime(p)
    gz, om = p.gamma_z, p.omega
    reg = classify(p)
    m = np.eye(3)
    if reg.kind is DampingKind.CRITICAL:
        # Jordan block: exp(-2 om t) (I + t N); finite limit of both regimes
        damp = math.exp(-2.0 * om * t)
        m[1, 1] = (1.0 - 2.0 * om * t) * damp
        m[1, 2] = om * t * damp
        m[2, 1] = -4.0 * om * t * damp
        m[2, 2] = (1.0 + 2.0 * om * t) * damp
        return m
    w = reg.omega_pm
    damp = math.exp(-gz * t)
    if reg.kind is DampingKind.OVER:
        c, s = math.cosh(w * t), math.sinh(w * t)
    else:
        c, s = math.cos(w * t), math.sin(w * t)
    m[1, 1] = damp * (c - (gz / w) * s)
    m[1, 2] = damp * (om / w) * s
    m[2, 1] = -damp * (4.0 * om / w) * s
    m[2, 2] = damp * (c + (gz / w) * s)
    return m


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
    reg = classify(p)
    if reg.kind is not DampingKind.UNDER:
        raise WrongRegime("imbalance zeros exist only in the underdamped regime")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    w = reg.omega_pm
    n = np.arange(1, n_max + 1, dtype=float)
    taus = (n * math.pi - math.atan2(w, p.gamma_z)) / w
    residual = np.abs(p.gamma_z * np.sin(w * taus) + w * np.cos(w * taus))
    if np.max(residual) >= 1e-12 * w:
        raise OqbmError(f"zero-time residual {np.max(residual):.3e} exceeds 1e-12*w")
    return taus


def solve(p: Params, ic: InitialCondition, t: float, grid: SpatialGrid) -> BlochField:
    """Full closed-form field for delta = 0 (any damping regime).

    The heat-propagated components are rotated by the internal matrix; c_r
    only decays, at rate 2*gamma_z.  Custom data needs the spectral solver.
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
