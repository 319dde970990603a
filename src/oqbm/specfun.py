"""Special functions and closed-form kernels.

Vectorized over the position argument:

    erfc                    scipy.special.erfcx(|x|) * exp(-x^2), reflected for x < 0
    bessel_j0 / bessel_j1   scipy.special.j0 / j1, restricted to z >= 0
    heat_kernel             g(t,x) = exp(-x^2/(8 gp t)) / (2 sqrt(2 pi gp t))
    h_plus / h_minus        heat kernel convolved with (sign-weighted) Laplace
    kg_kernel_0 / kg_kernel_1   light-cone kernels of u_tt = 4 D^2 u_xx - 4 W^2 u
    phi_plus / phi_minus    h_plus/h_minus convolved once more with the Laplace
    DrivenKernels           all four of h+/-, phi+/- at one set of points

The driven-regime kernels are parametrized by the rates (gamma_p, delta,
omega); the Laplace shape involved always has inverse scale c = omega/delta.
Exponential prefactors like exp(2 omega^2 gamma_p t / delta^2) overflow well
inside the useful (t, x) range, so every erfc product is evaluated in the
fused form exp(gauss) * erfcx(b) via :func:`scaled_erfc_product`.

scipy.special is imported by the functions that call it, on first use, so
importing this module (and the package) loads no scipy.  erf and erfcx are
taken from scipy.special directly; this module does not re-export them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import NegativeArgument, NonPositiveTime, WrongRegime

if TYPE_CHECKING:  # core imports this module for its heat kernels
    from .core import Params

_ERFC_ZERO = 30.0  # exp(-x^2) is exactly 0.0 in double precision beyond x ~ 27.3


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
    tail 6 < x < 27.  |x| is capped at _ERFC_ZERO, beyond which exp(-x^2)
    underflows to zero anyway, so +-inf give 0 and 2 rather than inf - inf.
    """
    import scipy.special
    v = np.asarray(x, dtype=float)
    y = np.minimum(np.abs(v), _ERFC_ZERO)
    out = scipy.special.erfcx(y) * _exp_nsq(y)
    return _scalar_or_array(np.where(v < 0.0, 2.0 - out, out))


def scaled_erfc_product(gauss_exponent, b):
    """exp(gauss_exponent) * erfcx(b) for b >= 0; NegativeArgument otherwise.

    It stands for exp(gauss_exponent + b^2) erfc(b), whose factors exp(b^2)
    and erfc(b) overflow and underflow well inside the useful parameter
    range; callers arrange ``gauss_exponent`` to be the completed-square
    exponent (always <= 0 here).  A kernel whose b can be negative reflects
    itself, as :func:`_erfc_pair` does, because only it knows the reflected
    term's exponent in closed form.
    """
    import scipy.special
    g, barr = np.broadcast_arrays(np.asarray(gauss_exponent, dtype=float),
                                  _nonnegative(b, "scaled_erfc_product"))
    out = np.exp(g) * scipy.special.erfcx(barr)
    return out if out.ndim else float(out)


def _nonnegative(z, name: str) -> np.ndarray:
    arr = np.asarray(z, dtype=float)
    if np.any(arr < 0.0):
        raise NegativeArgument(f"{name} requires an argument >= 0")
    return arr


def bessel_j0(z):
    """Bessel J0 on z >= 0, absolute error below 1e-14 up to z = 1e4."""
    import scipy.special
    return _scalar_or_array(scipy.special.j0(_nonnegative(z, "bessel_j0")))


def bessel_j1(z):
    """Bessel J1 on z >= 0, absolute error below 1e-14 up to z = 1e4."""
    import scipy.special
    return _scalar_or_array(scipy.special.j1(_nonnegative(z, "bessel_j1")))


def bessel_j1_over_z(z):
    """J1(z)/z, with the removable singularity filled by the series value 1/2."""
    import scipy.special
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
        raise WrongRegime(
            "kernel needs delta > 0 and omega > 0; use the matching special-case solver"
        )


def heat_kernel(t: float, x, gamma_p: float):
    """Gaussian with variance 4*gamma_p*t and unit mass."""
    _require_positive_time(t)
    x = np.asarray(x, dtype=float)
    v = 4.0 * gamma_p * t
    with np.errstate(over="ignore"):  # -inf where v is tiny: exp(-inf) = 0 is the exact limit
        neg = -x * x / (2.0 * v)
    return np.exp(neg) / math.sqrt(2.0 * math.pi * v)


def heat_uniform(t: float, x, gamma_p: float, a: float):
    """Heat kernel convolved with the plateau density on [-a, a] (mass 1).

    Even in x, so it is taken at |x|, with lo = (|x| - a)/s, hi = (|x| + a)/s
    and s the diffusion width: over the plateau (lo <= 0) as erf(hi) - erf(lo),
    whose terms have opposite signs, and beyond it as erfc(lo) - erfc(hi),
    whose second term is the smaller, so the tails keep their relative
    accuracy rather than reading 0.0 where both erf values round to 1.
    """
    import scipy.special
    _require_positive_time(t)
    x = np.abs(np.asarray(x, dtype=float))
    s = 2.0 * math.sqrt(2.0 * gamma_p * t)
    lo, hi = (x - a) / s, (x + a) / s
    inside = scipy.special.erf(hi) - scipy.special.erf(lo)
    return np.where(lo > 0.0, erfc(lo) - erfc(hi), inside) / (4.0 * a)


def _erfc_pair(t: float, x, gamma_p: float, c: float):
    """The heat kernel against the Laplace density (c/2) exp(-c|y|), split at y = 0.

    Returns (x, neg, minus, plus): x as an array, neg = -x^2/(2 v) and the two
    halves (y > 0 and y < 0), each over c/4, as the scaled erfc products
    exp(neg) erfcx(b), b = (c v -/+ x)/s, with v = 4 gamma_p t and s = sqrt(2 v).
    Every Laplace-smoothed kernel below is a fixed combination of the two.
    For b < 0 a half is 2 exp(neg + b^2) - exp(neg) erfcx(-b), whose exponent
    neg + b^2 is taken in closed form, c^2 v/2 -/+ c x (at most -c^2 v/2
    there): formed as the sum, two terms of size x^2/(2 v) would cancel.
    """
    _require_positive_time(t)
    x = np.asarray(x, dtype=float)
    v = 4.0 * gamma_p * t
    s = math.sqrt(2.0 * v)
    with np.errstate(over="ignore"):  # -inf where v is tiny: exp(-inf) = 0 is the exact limit
        neg = -x * x / (2.0 * v)
    halves = []
    for sign in (-1.0, 1.0):
        b = (c * v + sign * x) / s
        half = np.asarray(scaled_erfc_product(neg, np.abs(b)))
        below = b < 0.0
        half[below] = 2.0 * np.exp(0.5 * c * c * v + sign * c * x[below]) - half[below]
        halves.append(_scalar_or_array(half))
    return x, neg, *halves


def heat_laplace(t: float, x, gamma_p: float, c: float):
    """(heat kernel * Laplace density)(x) for the density (c/2) exp(-c|y|)."""
    _, _, tm, tp = _erfc_pair(t, x, gamma_p, c)
    return 0.25 * c * (tm + tp)


class DrivenKernels:
    """h+/h- and phi+/phi- at the points x, from one pair of scaled erfc products.

    The Laplace shape has inverse scale c = omega/delta.  A caller that needs
    several of the four kernels at the same points builds one instance, so the
    erfc products behind them are formed once; the module functions
    :func:`h_plus` ... :func:`phi_minus` build one per call.
    """

    def __init__(self, t: float, x, p: Params):
        _require_driven(p)
        self.t, self.p, self.c = t, p, p.omega / p.delta
        self.x, self.neg, self.tm, self.tp = _erfc_pair(t, x, p.gamma_p, self.c)

    def h_plus(self):
        return 0.25 * self.c * (self.tm + self.tp)

    def h_minus(self):
        return 0.25 * self.c * (self.tm - self.tp)

    def phi_plus(self):
        gp, dl, om = self.p.gamma_p, self.p.delta, self.p.omega
        t, x = self.t, self.x
        bracket = (4.0 * om**2 * gp * t - dl**2 - om * dl * x) * self.tm \
            + (4.0 * om**2 * gp * t - dl**2 + om * dl * x) * self.tp
        gauss = (om**2 / dl**2) * math.sqrt(gp * t / (2.0 * math.pi)) * np.exp(self.neg)
        return -(om / (8.0 * dl**3)) * bracket + gauss

    def phi_minus(self):
        gp, dl, om = self.p.gamma_p, self.p.delta, self.p.omega
        t, x = self.t, self.x
        return (om**2 / (8.0 * dl**3)) * ((4.0 * om * gp * t + dl * x) * self.tp
                                          - (4.0 * om * gp * t - dl * x) * self.tm)


def h_plus(t: float, x, p: Params):
    """Even driven kernel: heat kernel smoothed over the coin's Laplace shape."""
    return DrivenKernels(t, x, p).h_plus()


def h_minus(t: float, x, p: Params):
    """Odd partner of :func:`h_plus` (heat kernel against sgn * Laplace)."""
    return DrivenKernels(t, x, p).h_minus()


def phi_plus(t: float, x, p: Params):
    """h_plus convolved once more with the Laplace density; even in x."""
    return DrivenKernels(t, x, p).phi_plus()


def phi_minus(t: float, x, p: Params):
    """h_minus convolved once more with the Laplace density; odd in x."""
    return DrivenKernels(t, x, p).phi_minus()


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
        raise WrongRegime("light-cone kernels need delta > 0")
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
        raise WrongRegime("light-cone kernels need delta > 0")
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
