"""Special functions and closed-form kernels.

Vectorized over the position argument:

    erf / erfc / erfcx      scipy.special, erfc in the scaled form erfcx * exp(-x^2)
    bessel_j0 / bessel_j1   scipy.special.j0 / j1, restricted to z >= 0
    heat_kernel             g(t,x) = exp(-x^2/(8 gp t)) / (2 sqrt(2 pi gp t))
    h_plus / h_minus        heat kernel convolved with (sign-weighted) Laplace
    kg_kernel_0 / kg_kernel_1   light-cone kernels of u_tt = 4 D^2 u_xx - 4 W^2 u
    phi_plus / phi_minus    h_plus/h_minus convolved once more with the Laplace

The driven-regime kernels are parametrized by the rates (gamma_p, delta,
omega); the Laplace shape involved always has inverse scale c = omega/delta.
Exponential prefactors like exp(2 omega^2 gamma_p t / delta^2) overflow well
inside the useful (t, x) range, so every erfc product is evaluated in the
fused form exp(gauss) * erfcx(b) via :func:`scaled_erfc_product`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.special
from scipy.special import erf, erfcx  # re-exported unchanged

from .core import Params
from .errors import DegenerateParams, NegativeArgument, NonPositiveTime


def _exp_nsq(y: np.ndarray) -> np.ndarray:
    """exp(-y^2) with the classic split that keeps the rounding tight."""
    ysq = np.floor(y * 16.0) / 16.0
    rest = (y - ysq) * (y + ysq)
    return np.exp(-ysq * ysq) * np.exp(-rest)


def _scalar_or_array(res):
    return float(res) if np.ndim(res) == 0 else res


def erfc(x):
    """Complementary error function 1 - erf(x), relative error below 1e-15.

    Evaluated as erfcx(|x|) * exp(-x^2) and reflected as 2 - value for
    x < 0; scipy.special.erfc itself is off by up to ~6e-14 (relative) in the
    tail 6 < x < 27.
    """
    v = np.asarray(x, dtype=float)
    y = np.abs(v)
    out = erfcx(y) * _exp_nsq(y)
    return _scalar_or_array(np.where(v < 0.0, 2.0 - out, out))


def scaled_erfc_product(gauss_exponent, b):
    """exp(gauss_exponent) * erfcx(b), safe for any sign of b.

    Callers arrange ``gauss_exponent`` to be the completed-square exponent
    (always <= 0 here), so for b >= 0 both factors are bounded.  For b < 0 the
    mathematically equal form exp(gauss_exponent + b^2) * erfc(b) is used; in
    every kernel in this module that combined exponent is bounded above by 0
    as well, so neither branch can overflow.
    """
    g = np.asarray(gauss_exponent, dtype=float)
    barr = np.asarray(b, dtype=float)
    g, barr = np.broadcast_arrays(g, barr)
    out = np.empty_like(g)
    pos = barr >= 0.0
    if pos.any():
        out[pos] = np.exp(g[pos]) * erfcx(barr[pos])
    if (~pos).any():
        bn = barr[~pos]
        out[~pos] = np.exp(g[~pos] + bn * bn) * erfc(bn)
    return out if out.ndim else float(out)


def _nonnegative(z, name: str) -> np.ndarray:
    arr = np.asarray(z, dtype=float)
    if np.any(arr < 0.0):
        raise NegativeArgument(f"{name} requires z >= 0")
    return arr


def bessel_j0(z):
    """Bessel J0 on z >= 0, absolute error below 1e-14 up to z = 1e4."""
    return _scalar_or_array(scipy.special.j0(_nonnegative(z, "bessel_j0")))


def bessel_j1(z):
    """Bessel J1 on z >= 0, absolute error below 1e-14 up to z = 1e4."""
    return _scalar_or_array(scipy.special.j1(_nonnegative(z, "bessel_j1")))


def bessel_j1_over_z(z):
    """J1(z)/z, with the removable singularity filled by the series value 1/2."""
    y = _nonnegative(z, "bessel_j1_over_z")
    tiny = y < 1e-4
    q = 0.25 * y * y
    series = 0.5 * (1.0 - q / 2.0 + q * q / 12.0)
    return _scalar_or_array(np.where(tiny, series, scipy.special.j1(y) / np.where(tiny, 1.0, y)))


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

def _require_positive_time(t: float) -> None:
    if not t > 0.0:
        raise NonPositiveTime(f"kernel defined for t > 0 only, got t={t}")


def _require_driven(p: Params) -> None:
    if p.delta == 0.0 or p.omega == 0.0:
        raise DegenerateParams(
            "kernel needs delta > 0 and omega > 0; use the matching special-case solver"
        )


def heat_kernel(t: float, x, gamma_p: float):
    """Gaussian with variance 4*gamma_p*t and unit mass."""
    _require_positive_time(t)
    x = np.asarray(x, dtype=float)
    v = 4.0 * gamma_p * t
    return np.exp(-x * x / (2.0 * v)) / math.sqrt(2.0 * math.pi * v)


def heat_modulated_gauss(t: float, x, gamma_p: float, k: float, sigma: float):
    """Heat kernel convolved with exp(iky) N(0, sigma^2)(y); complex result.

    Equals N(0, v + sigma^2)(x) * exp(-v sigma^2 k^2 / (2(v + sigma^2)))
    * exp(i k sigma^2 x / (v + sigma^2)) with v = 4*gamma_p*t.
    """
    _require_positive_time(t)
    x = np.asarray(x, dtype=float)
    v = 4.0 * gamma_p * t
    w = v + sigma * sigma
    envelope = np.exp(-(x * x + v * sigma * sigma * k * k) / (2.0 * w)) / math.sqrt(2.0 * math.pi * w)
    return envelope * np.exp(1j * (k * sigma * sigma / w) * x)


def heat_uniform(t: float, x, gamma_p: float, a: float):
    """Heat kernel convolved with the plateau density on [-a, a] (mass 1)."""
    _require_positive_time(t)
    x = np.asarray(x, dtype=float)
    s = 2.0 * math.sqrt(2.0 * gamma_p * t)
    return (erf((x + a) / s) - erf((x - a) / s)) / (4.0 * a)


def heat_laplace(t: float, x, gamma_p: float, c: float):
    """(heat kernel * Laplace density)(x) for the density (c/2) exp(-c|y|)."""
    _require_positive_time(t)
    x = np.asarray(x, dtype=float)
    v = 4.0 * gamma_p * t
    s = math.sqrt(2.0 * v)
    neg = -x * x / (2.0 * v)
    bm = (c * v - x) / s
    bp = (c * v + x) / s
    return 0.25 * c * (scaled_erfc_product(neg, bm) + scaled_erfc_product(neg, bp))


def heat_sgn_laplace(t: float, x, gamma_p: float, c: float):
    """(heat kernel * sgn(y) (c/2) exp(-c|y|))(x); odd in x."""
    _require_positive_time(t)
    x = np.asarray(x, dtype=float)
    v = 4.0 * gamma_p * t
    s = math.sqrt(2.0 * v)
    neg = -x * x / (2.0 * v)
    bm = (c * v - x) / s
    bp = (c * v + x) / s
    return 0.25 * c * (scaled_erfc_product(neg, bm) - scaled_erfc_product(neg, bp))


def h_plus(t: float, x, p: Params):
    """Even driven kernel: heat kernel smoothed over the coin's Laplace shape."""
    _require_driven(p)
    return heat_laplace(t, x, p.gamma_p, p.omega / p.delta)


def h_minus(t: float, x, p: Params):
    """Odd partner of :func:`h_plus` (heat kernel against sgn * Laplace)."""
    _require_driven(p)
    return heat_sgn_laplace(t, x, p.gamma_p, p.omega / p.delta)


def phi_plus(t: float, x, p: Params):
    """h_plus convolved once more with the Laplace density; even in x."""
    _require_driven(p)
    _require_positive_time(t)
    x = np.asarray(x, dtype=float)
    gp, dl, om = p.gamma_p, p.delta, p.omega
    v = 4.0 * gp * t
    s = math.sqrt(2.0 * v)
    c = om / dl
    neg = -x * x / (2.0 * v)
    tm = scaled_erfc_product(neg, (c * v - x) / s)
    tp = scaled_erfc_product(neg, (c * v + x) / s)
    bracket = (4.0 * om**2 * gp * t - dl**2 - om * dl * x) * tm \
        + (4.0 * om**2 * gp * t - dl**2 + om * dl * x) * tp
    gauss = (om**2 / dl**2) * math.sqrt(gp * t / (2.0 * math.pi)) * np.exp(neg)
    return -(om / (8.0 * dl**3)) * bracket + gauss


def phi_minus(t: float, x, p: Params):
    """h_minus convolved once more with the Laplace density; odd in x."""
    _require_driven(p)
    _require_positive_time(t)
    x = np.asarray(x, dtype=float)
    gp, dl, om = p.gamma_p, p.delta, p.omega
    v = 4.0 * gp * t
    s = math.sqrt(2.0 * v)
    c = om / dl
    neg = -x * x / (2.0 * v)
    tm = scaled_erfc_product(neg, (c * v - x) / s)
    tp = scaled_erfc_product(neg, (c * v + x) / s)
    return (om**2 / (8.0 * dl**3)) * ((4.0 * om * gp * t + dl * x) * tp
                                      - (4.0 * om * gp * t - dl * x) * tm)


@dataclass(frozen=True)
class KernelSample:
    """Smooth part of a kernel plus Dirac deltas carried analytically.

    ``delta_shifts`` is a tuple of (location, weight) pairs; consumers apply
    them as exact translations, never by discretizing onto a grid.
    """

    values: np.ndarray
    delta_shifts: tuple = ()


def kg_kernel_0(t: float, x, p: Params):
    """Light-cone kernel with delta'(x)-free initial data.

    Supported on |x| < 2*delta*t, where it equals
    J0((omega/delta) sqrt(4 delta^2 t^2 - x^2)) / (4 delta); zero outside
    (including exactly on the cone).
    """
    _require_positive_time(t)
    if p.delta == 0.0:
        raise DegenerateParams("light-cone kernels need delta > 0")
    x = np.asarray(x, dtype=float)
    cone = 2.0 * p.delta * t
    inside = np.abs(x) < cone
    out = np.zeros_like(x)
    if inside.any():
        root = np.sqrt(np.maximum(cone * cone - x[inside] ** 2, 0.0))
        out[inside] = bessel_j0((p.omega / p.delta) * root) / (4.0 * p.delta)
    return out


def kg_kernel_1(t: float, x, p: Params) -> KernelSample:
    """Time derivative (distributionally) of :func:`kg_kernel_0`.

    Smooth part: -t*omega * J1(w)/sqrt(4 d^2 t^2 - x^2) with
    w = (omega/delta) sqrt(4 d^2 t^2 - x^2) inside the cone, zero outside;
    on the cone itself the interior limit -t*omega^2/(2*delta) is used.
    Deltas: weight 1/2 at x = +-2*delta*t, returned analytically.
    """
    _require_positive_time(t)
    if p.delta == 0.0:
        raise DegenerateParams("light-cone kernels need delta > 0")
    x = np.asarray(x, dtype=float)
    cone = 2.0 * p.delta * t
    inside = np.abs(x) <= cone
    out = np.zeros_like(x)
    if inside.any():
        root2 = np.maximum(cone * cone - x[inside] ** 2, 0.0)
        w = (p.omega / p.delta) * np.sqrt(root2)
        # J1(w)/sqrt(root2) = (omega/delta) * J1(w)/w, finite on the cone
        out[inside] = -t * p.omega * (p.omega / p.delta) * bessel_j1_over_z(w)
    return KernelSample(values=out, delta_shifts=((cone, 0.5), (-cone, 0.5)))
