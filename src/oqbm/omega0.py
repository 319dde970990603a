"""Closed forms for the undriven regime (omega = 0).

With no driving the coherences decouple completely and the populations couple
only through the drift: the Green's matrix is a pair of Gaussians translated
by +-2*delta*t on the population block and a damped heat kernel on the
coherence block.  Every built-in initial shape (Gaussian, Laplace, uniform,
and the two coherent variants) then has an explicit solution: its heat flow
(the shapes' shared ``heat``, built from the closed heat flows of their
profiles in :mod:`oqbm.core`) with rho11 and rho22 drifted apart by +-2*delta*t.
"""

from __future__ import annotations

import math

import numpy as np

from . import specfun as sf
from .core import BlochField, InitialCondition, Params, SpatialGrid
from .errors import NonPositiveTime, WrongRegime


def _require_regime(p: Params) -> None:
    if p.omega != 0.0:
        raise WrongRegime(f"this module needs omega = 0, got omega={p.omega}")


def green_omega0(p: Params, t: float, x):
    """Green's matrix for omega = 0, shape (..., 3, 3) over the x samples.

    The population entries are evaluated as half-sums of Gaussians shifted by
    +-2*delta*t (mathematically cosh/sinh times a central Gaussian, but the
    shifted form cannot overflow for large x*delta/gamma_p).
    """
    _require_regime(p)
    if t <= 0.0:
        raise NonPositiveTime(f"green_omega0 needs t > 0, got {t}")
    x = np.asarray(x, dtype=float)
    drift = 2.0 * p.delta * t
    g_right = sf.heat_kernel(t, x - drift, p.gamma_p)
    g_left = sf.heat_kernel(t, x + drift, p.gamma_p)
    out = np.zeros(x.shape + (3, 3))
    out[..., 0, 0] = out[..., 2, 2] = 0.5 * (g_right + g_left)
    out[..., 0, 2] = out[..., 2, 0] = 0.5 * (g_right - g_left)
    out[..., 1, 1] = math.exp(-2.0 * p.gamma_z * t) * sf.heat_kernel(t, x, p.gamma_p)
    return out


def solve(p: Params, ic: InitialCondition, t: float, grid: SpatialGrid) -> BlochField:
    """Full closed-form field at time t >= 0 for any built-in initial shape.

    rho11 and rho22 are the initial populations heat-spread (variance
    4*gamma_p*t) and drifted to +2*delta*t and -2*delta*t; at t = 0 this is
    the initial data.
    """
    _require_regime(p)
    rho11, rho22, rho12 = ic.heat(t, grid.nodes, p.gamma_p, drift=2.0 * p.delta * t)
    rho12 = math.exp(-2.0 * p.gamma_z * t) * rho12
    return BlochField.from_density(grid, rho11, rho22, rho12, time=t)
