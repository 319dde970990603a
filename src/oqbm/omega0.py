"""Closed forms for the undriven regime (omega = 0).

With no driving the coherences decouple completely and the populations couple
only through the drift: the Green's matrix is a pair of Gaussians translated
by +-2*delta*t on the population block and a damped heat kernel on the
coherence block.  Every supported initial shape (Gaussian, Laplace, uniform,
and the two coherent variants) then has an explicit solution.

This module also owns :func:`solve_cr`, the decoupled Re(rho12) propagator

    c_r(t, x) = exp(-2 gamma_z t) * (heat kernel * c_r(0, .))(x),

which is valid for any parameter values and is reused by every other solver.
"""

from __future__ import annotations

import math

import numpy as np

from . import specfun as sf
from .core import (
    BlochField,
    Custom,
    DensityField,
    GaussianCoherent,
    GaussianMixture,
    InitialCondition,
    LaplaceCoherent,
    LaplaceMixture,
    Params,
    SpatialGrid,
    UniformMixture,
    sample_initial,
    to_bloch,
    validate_params,
)
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
    _require_regime(validate_params(p))
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


def solve_cr(ic: InitialCondition, t: float, grid: SpatialGrid, p: Params) -> np.ndarray:
    """Re(rho12) at time t; exact for every built-in shape, FFT for Custom."""
    validate_params(p)
    x = grid.nodes
    if t == 0.0:
        return np.real(sample_initial(ic, grid).rho12)
    damp = math.exp(-2.0 * p.gamma_z * t)
    if isinstance(ic, (GaussianMixture, LaplaceMixture, UniformMixture)):
        return np.zeros(grid.n_points)
    if isinstance(ic, GaussianCoherent):
        amp = ic.mu * math.sqrt(ic.p * (1.0 - ic.p))
        conv = sf.heat_modulated_gauss(t, x, p.gamma_p, ic.k, ic.sigma)
        return amp * damp * np.real(conv)
    if isinstance(ic, LaplaceCoherent):
        amp = ic.r * math.sqrt(ic.p * (1.0 - ic.p))
        return amp * damp * sf.heat_laplace(t, x, p.gamma_p, 1.0 / ic.scale)
    # Custom: decoupled heat + decay in Fourier space
    cr0 = np.real(sample_initial(ic, grid).rho12)
    spectrum = grid.forward_transform(cr0)
    spectrum *= np.exp(-2.0 * p.gamma_p * t * grid.fourier_nodes**2)
    return damp * np.real(grid.inverse_transform(spectrum))


def gaussian_solution(p: Params, ic: GaussianMixture, t: float, x):
    """(P, Q) for the Gaussian mixture: two drifting, spreading Gaussians.

    Variances grow as sigma_i^2 + 4*gamma_p*t (diffusive spreading set by the
    same rate that appears in the Green's function).
    """
    _require_regime(validate_params(p))
    if t < 0.0:
        raise NonPositiveTime(f"t must be >= 0, got {t}")
    x = np.asarray(x, dtype=float)
    drift = 2.0 * p.delta * t
    v1 = ic.sigma1**2 + 4.0 * p.gamma_p * t
    v2 = ic.sigma2**2 + 4.0 * p.gamma_p * t
    rho11 = ic.p * np.exp(-((x - drift) ** 2) / (2.0 * v1)) / math.sqrt(2.0 * math.pi * v1)
    rho22 = (1.0 - ic.p) * np.exp(-((x + drift) ** 2) / (2.0 * v2)) / math.sqrt(2.0 * math.pi * v2)
    return rho11 + rho22, rho11 - rho22


def laplace_solution(p: Params, ic: LaplaceMixture, t: float, x):
    """(P, Q) for the Laplace mixture (erfc closed forms, overflow-safe)."""
    _require_regime(validate_params(p))
    if t <= 0.0:
        raise NonPositiveTime(f"laplace_solution needs t > 0, got {t}")
    x = np.asarray(x, dtype=float)
    drift = 2.0 * p.delta * t
    rho11 = ic.p * sf.heat_laplace(t, x - drift, p.gamma_p, 1.0 / ic.a)
    rho22 = (1.0 - ic.p) * sf.heat_laplace(t, x + drift, p.gamma_p, 1.0 / ic.b)
    return rho11 + rho22, rho11 - rho22


def uniform_solution(p: Params, ic: UniformMixture, t: float, x):
    """(P, Q) for the uniform mixture (erf-difference closed forms)."""
    _require_regime(validate_params(p))
    if t <= 0.0:
        raise NonPositiveTime(f"uniform_solution needs t > 0, got {t}")
    x = np.asarray(x, dtype=float)
    drift = 2.0 * p.delta * t
    rho11 = ic.p * sf.heat_uniform(t, x - drift, p.gamma_p, ic.a)
    rho22 = (1.0 - ic.p) * sf.heat_uniform(t, x + drift, p.gamma_p, ic.b)
    return rho11 + rho22, rho11 - rho22


def _coherence(ic: InitialCondition, t: float, x, p: Params) -> np.ndarray:
    """rho12(t, x) (complex): damped heat propagation, no drift, no coupling."""
    damp = math.exp(-2.0 * p.gamma_z * t)
    if isinstance(ic, (GaussianMixture, LaplaceMixture, UniformMixture)):
        return np.zeros_like(np.asarray(x, dtype=float), dtype=complex)
    if isinstance(ic, GaussianCoherent):
        amp = ic.mu * math.sqrt(ic.p * (1.0 - ic.p))
        return amp * damp * sf.heat_modulated_gauss(t, x, p.gamma_p, ic.k, ic.sigma)
    if isinstance(ic, LaplaceCoherent):
        amp = math.sqrt(ic.p * (1.0 - ic.p)) * complex(ic.r, ic.q)
        return amp * damp * sf.heat_laplace(t, x, p.gamma_p, 1.0 / ic.scale)
    raise TypeError(f"no closed coherence propagation for {type(ic).__name__}")


def solve(p: Params, ic: InitialCondition, t: float, grid: SpatialGrid) -> BlochField:
    """Full closed-form field at time t for any built-in initial shape.

    Custom initial data has no closed form here; use the spectral solver.
    """
    _require_regime(validate_params(p))
    if t < 0.0:
        raise NonPositiveTime(f"t must be >= 0, got {t}")
    if isinstance(ic, Custom):
        raise WrongRegime("custom initial data has no closed form; use spectral.solve")
    if t == 0.0:
        return to_bloch(sample_initial(ic, grid))
    x = grid.nodes
    drift = 2.0 * p.delta * t
    if isinstance(ic, GaussianMixture):
        v1 = ic.sigma1**2 + 4.0 * p.gamma_p * t
        v2 = ic.sigma2**2 + 4.0 * p.gamma_p * t
        rho11 = ic.p * np.exp(-((x - drift) ** 2) / (2.0 * v1)) / math.sqrt(2.0 * math.pi * v1)
        rho22 = (1.0 - ic.p) * np.exp(-((x + drift) ** 2) / (2.0 * v2)) / math.sqrt(2.0 * math.pi * v2)
    elif isinstance(ic, GaussianCoherent):
        v = ic.sigma**2 + 4.0 * p.gamma_p * t
        rho11 = ic.p * np.exp(-((x - drift) ** 2) / (2.0 * v)) / math.sqrt(2.0 * math.pi * v)
        rho22 = (1.0 - ic.p) * np.exp(-((x + drift) ** 2) / (2.0 * v)) / math.sqrt(2.0 * math.pi * v)
    elif isinstance(ic, LaplaceMixture):
        rho11 = ic.p * sf.heat_laplace(t, x - drift, p.gamma_p, 1.0 / ic.a)
        rho22 = (1.0 - ic.p) * sf.heat_laplace(t, x + drift, p.gamma_p, 1.0 / ic.b)
    elif isinstance(ic, UniformMixture):
        rho11 = ic.p * sf.heat_uniform(t, x - drift, p.gamma_p, ic.a)
        rho22 = (1.0 - ic.p) * sf.heat_uniform(t, x + drift, p.gamma_p, ic.b)
    elif isinstance(ic, LaplaceCoherent):
        rho11 = ic.p * sf.heat_laplace(t, x - drift, p.gamma_p, 1.0 / ic.scale)
        rho22 = (1.0 - ic.p) * sf.heat_laplace(t, x + drift, p.gamma_p, 1.0 / ic.scale)
    else:
        raise TypeError(f"unsupported initial condition {type(ic).__name__}")
    rho12 = _coherence(ic, t, x, p)
    return to_bloch(DensityField(grid=grid, rho11=rho11, rho22=rho22, rho12=rho12, time=t))
