"""Closed forms for the undamped driven regime (gamma_z = 0).

Here the Green's matrix mixes the heat kernel g, the Laplace-smoothed kernels
h+/h- and the light-cone kernels k0/k1 (see :mod:`oqbm.specfun`):

        [ h+ + (g - h+)*k1    -2 h- + 2 h-*k1     (d/2 gp t) (xg)*k0 ]
  G  =  [ h-/2 - (h-*k1)/2    g - h+ + h+*k1          om g*k0        ]
        [ (d/2 gp t)(xg)*k0     -4 om g*k0              g*k1         ]

where * is convolution.  Convolving a smooth f with k0/k1 reduces, after the
substitution y = 2 t delta cos(theta), to integrals over [0, pi]:

  f*k1 = (f(x - 2dt) + f(x + 2dt))/2
          - t om * int f(x - 2dt cos(th)) J1(2 t om sin(th)) dth
  f*k0 = (t/2) * int f(x - 2dt cos(th)) J0(2 t om sin(th)) sin(th) dth

evaluated by adaptive Gauss-Legendre quadrature (the integrands are smooth;
the square-root edge singularity disappears with the substitution).

For the Laplace-coherent initial state (envelope scale locked to
delta/omega) the full solution is closed in terms of h+/-, phi+/- and those
two convolutions.

Like the other regimes' Green's matrices, green_gammaz0 takes any points on
the real line, not a grid.  These forms are the reference for the gamma_z = 0
regime: ``oqbm validate`` checks them against the quadrature oracle, the
tests check the spectral route against them (this module imports nothing
from :mod:`oqbm.spectral`), and the CLI uses them under ``method:
"closed"``.  Under ``method: "auto"`` the CLI takes the spectral route, which
gives the same field to 4e-11 at about 1/50 of the cost (fig4-left, t = 50,
8,192 nodes: 3.3 ms against 165 ms, median of 7 warm calls on 2 vCPUs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from . import specfun as sf
from .core import QUAD_TOL, BlochField, LaplaceCoherent, Params, SpatialGrid
from .errors import (
    NonPositiveDiffusion,
    NonPositiveTime,
    QuadratureNotConverged,
    ScaleMismatch,
    WrongRegime,
)

QUAD_START_ORDER = 64
QUAD_MAX_ORDER = 4096
# samples (x rows times theta nodes) per block of the theta quadrature, 512 KB
# of float64: the block and the kernel temporaries built from it stay in cache
_BLOCK_SAMPLES = 1 << 16
# convolution_identities_check's compound rule: its order, and its largest
# piece in Laplace scales (delta/omega) and in heat widths (sqrt(4 gp t))
_IDENTITY_ORDER = 32
_LAPLACE_PIECE = 2.0
_HEAT_PIECE = 1.0


# theta's round-off floor in the Newton iteration of theta_rule: the last real
# step is about 1e-11 and the next one is noise of about 2.5e-16, at every
# order up to QUAD_MAX_ORDER
_NEWTON_STEP_FLOOR = 1e-15


def _legendre_pair(n: int, theta: np.ndarray) -> tuple:
    """(P_{n-1}, P_n) at x = cos(theta) for n >= 1, by the three-term recurrence
    written for the differences P_j - P_{j-1} in y = 1 - x = 2 sin^2(theta/2),
    so that the nodes next to x = +-1 keep their relative accuracy."""
    y = 2.0 * np.sin(0.5 * theta) ** 2
    below, p, diff = np.ones_like(y), 1.0 - y, -y
    for j in range(1, n):
        diff = (j * diff - (2 * j + 1) * y * p) / (j + 1)
        below, p = p, p + diff
    return below, p


@lru_cache(maxsize=16)
def theta_rule(order: int) -> tuple:
    """Gauss-Legendre (nodes, weights) mapped onto [0, pi]; cached, so read-only.

    The roots x_k = cos(theta_k) of P_n, n = order, are found in theta by
    Newton's method from Tricomi's estimates pi (k - 1/4)/(n + 1/2),
    vectorised over the half of the nodes with x >= 0 (the rule is
    symmetric), until the step falls to theta's round-off floor.  The
    weights are 2/(sin^2(theta) P_n'^2) = 2 sin^2(theta)/(n P_{n-1})^2.  No
    eigensolver is involved.
    """
    n = order
    theta = math.pi * (np.arange(1, (n + 1) // 2 + 1) - 0.25) / (n + 0.5)
    while True:
        below, p = _legendre_pair(n, theta)
        step = p * np.sin(theta) / (n * (below - np.cos(theta) * p))
        if np.max(np.abs(step)) < _NEWTON_STEP_FLOOR:
            break
        theta += step
    x = np.cos(theta)
    w = 2.0 * np.sin(theta) ** 2 / (n * below) ** 2
    half = n // 2  # -x[:half] mirror the nodes x > 0; an odd order's x = 0 is x[-1]
    nodes = 0.5 * math.pi * (np.concatenate((-x[:half], x[::-1])) + 1.0)
    weights = 0.5 * math.pi * np.concatenate((w[:half], w[::-1]))
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _require_regime(p: Params) -> None:
    if p.gamma_z != 0.0:
        raise WrongRegime(f"this module needs gamma_z = 0, got gamma_z={p.gamma_z}")
    if p.delta == 0.0 or p.omega == 0.0:
        raise WrongRegime("this module needs delta > 0 and omega > 0")


def _cone_convolutions(fields, t: float, x, p: Params) -> tuple:
    """(F_i(x), (F_i * k1)(x), (F_i * k0)(x)) for every kernel F_i of ``fields``.

    ``fields(y)`` returns k kernels at the points y, stacked on a new leading
    axis; each of the three results is a (k, x.size) array.  The Dirac parts
    of k1 are the half-weight translates to the cone edges x -/+ 2 t delta,
    evaluated in the same stack as the values at x.  The rest are the theta
    integrals

        j1[i]    = int_0^pi F_i(x - 2 t d cos th) J1(2 t om sin th) dth
        j0sin[i] = int_0^pi F_i(x - 2 t d cos th) J0(2 t om sin th) sin th dth

    by Gauss-Legendre rules that double in order from QUAD_START_ORDER until
    no integral changes by QUAD_TOL; per order the stack is evaluated once on
    each block of samples and both weightings are applied in one matrix
    product.
    """
    if t <= 0.0:
        raise NonPositiveTime(f"light-cone convolutions need t > 0, got {t}")
    if 2.0 * p.gamma_p * t == 0.0:  # delta and omega still act, so the initial data is no answer
        raise NonPositiveDiffusion(f"the diffusion width 2 gamma_p t underflows to 0 at "
                                   f"gamma_p = {p.gamma_p:g}, t = {t:g}: the gamma_z = 0 kernels divide by it")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    reach = 2.0 * t * p.delta
    at, back, ahead = np.moveaxis(fields(np.stack((x, x - reach, x + reach))), 1, 0)
    prev = None
    order = QUAD_START_ORDER
    while order <= QUAD_MAX_ORDER:
        nodes, rule_weights = theta_rule(order)
        arg = 2.0 * t * p.omega * np.sin(nodes)
        weights = np.column_stack((
            rule_weights * sf.bessel_j1(arg),
            rule_weights * (sf.bessel_j0(arg) * np.sin(nodes)),
        ))
        shifts = reach * np.cos(nodes)
        rows = max(1, _BLOCK_SAMPLES // order)
        blocks = []
        for lo in range(0, max(x.size, 1), rows):
            stack = fields(x[lo:lo + rows, None] - shifts)
            blocks.append((stack.reshape(-1, order) @ weights).reshape(stack.shape[:2] + (2,)))
        sums = np.concatenate(blocks, axis=1)
        if not np.all(np.isfinite(sums)):
            raise QuadratureNotConverged(f"theta integrand is not finite (order {order})")
        if prev is not None and np.max(np.abs(sums - prev), initial=0.0) < QUAD_TOL:
            j1, j0sin = sums[..., 0], sums[..., 1]
            return at, 0.5 * (back + ahead) - t * p.omega * j1, 0.5 * t * j0sin
        prev = sums
        order *= 2
    raise QuadratureNotConverged(
        f"theta quadrature still changing beyond tol={QUAD_TOL:.1e} at order {QUAD_MAX_ORDER}"
    )


def exp_symbol_closed(p: Params, t: float) -> Callable[[np.ndarray], np.ndarray]:
    """The closed matrix exponential exp(t Q(xi)) for gamma_z = 0.

    With w(xi) = 2 sqrt(delta^2 xi^2 + omega^2) every entry is a rational
    combination of cos(t w), sin(t w)/w and the Gaussian decay factor.
    Returned as a vectorized symbol suitable for the quadrature oracle.
    """
    _require_regime(p)

    def symbol(xis: np.ndarray) -> np.ndarray:
        xis = np.asarray(xis, dtype=float)
        w2 = 4.0 * (p.delta**2 * xis**2 + p.omega**2)
        w = np.sqrt(w2)
        cos_tw = np.cos(t * w)
        sin_tw = np.sin(t * w)
        decay = np.exp(-2.0 * p.gamma_p * t * xis**2)
        out = np.empty((xis.size, 3, 3), dtype=complex)
        out[:, 0, 0] = (4.0 * p.omega**2 + 4.0 * xis**2 * p.delta**2 * cos_tw) / w2
        out[:, 0, 1] = -8j * p.delta * xis * p.omega * (cos_tw - 1.0) / w2
        out[:, 0, 2] = -2j * xis * p.delta * sin_tw / w
        out[:, 1, 0] = 2j * p.delta * xis * p.omega * (cos_tw - 1.0) / w2
        out[:, 1, 1] = (4.0 * xis**2 * p.delta**2 + 4.0 * p.omega**2 * cos_tw) / w2
        out[:, 1, 2] = p.omega * sin_tw / w
        out[:, 2, 0] = -2j * xis * p.delta * sin_tw / w
        out[:, 2, 1] = -4.0 * p.omega * sin_tw / w
        out[:, 2, 2] = cos_tw
        return out * decay[:, None, None]

    return symbol


def green_gammaz0(p: Params, t: float, x) -> np.ndarray:
    """Green's matrix at the points x, shape (x.size, 3, 3), assembled from the
    kernel convolutions.

    The Dirac parts of k1 turn into exact half-weight translates, so the
    returned entries are ordinary functions.  The form holds on the whole
    real line, so there is no boundary to check: each entry of exp(tQ) is of
    exponential type 2 delta t in xi times a Gaussian, so (Paley-Wiener) the
    entries are confined to the light cone |x| <= 2 delta t widened by the
    diffusion width sqrt(4 gamma_p t).  Outside the cone they are
    cancellations between Laplace-tailed pieces (h+-, their k1
    convolutions), so their values there are round-off.
    """
    _require_regime(p)

    def fields(y):
        g = sf.heat_kernel(t, y, p.gamma_p)
        driven = sf.DrivenKernels(t, y, p)
        return np.stack((g, y * g, driven.h_plus(), driven.h_minus()))

    (g, _, hp, hm), (k1_g, _, k1_hp, k1_hm), (k0_g, k0_xg, _, _) = _cone_convolutions(
        fields, t, x, p
    )

    entries = np.empty((g.size, 3, 3))
    entries[:, 0, 0] = hp + k1_g - k1_hp
    entries[:, 0, 1] = -2.0 * hm + 2.0 * k1_hm
    entries[:, 0, 2] = (p.delta / (2.0 * p.gamma_p * t)) * k0_xg
    entries[:, 1, 0] = 0.5 * hm - 0.5 * k1_hm
    entries[:, 1, 1] = g - hp + k1_hp
    entries[:, 1, 2] = p.omega * k0_g
    entries[:, 2, 0] = entries[:, 0, 2]
    entries[:, 2, 1] = -4.0 * p.omega * k0_g
    entries[:, 2, 2] = k1_g
    return entries


def _check_initial(p: Params, ic: LaplaceCoherent) -> float:
    expected = p.delta / p.omega
    if not math.isclose(ic.scale, expected, rel_tol=1e-12):
        raise ScaleMismatch(
            f"initial Laplace scale {ic.scale} must equal delta/omega = {expected}"
        )
    return math.sqrt(ic.p * (1.0 - ic.p))


def laplace_coherent_field(p: Params, ic: LaplaceCoherent, t: float, x) -> tuple:
    """Exact (rho_plus, c_i, rho_minus, c_r) for the Laplace-coherent initial
    state at the points x, each of shape (x.size,).

    All Laplace-against-Laplace convolutions are closed (phi+/-); only the
    light-cone convolutions remain as one-dimensional theta integrals.  At
    t = 0 the components are those of the initial data.
    """
    _require_regime(p)
    amp = _check_initial(p, ic)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if t == 0.0:
        rho11, rho22, rho12 = ic.heat(0.0, x, p.gamma_p)
        return rho11 + rho22, np.imag(rho12).copy(), rho11 - rho22, np.real(rho12).copy()
    coh = 2.0 * ic.q * amp        # coefficient of the Im(rho12) channel
    pop = 2.0 * ic.p - 1.0        # coefficient of the rho_minus channel

    def fields(y):
        driven = sf.DrivenKernels(t, y, p)
        hp, php = driven.h_plus(), driven.phi_plus()
        return np.stack((hp - php, driven.phi_minus(), php, driven.h_minus(), hp))

    (_, phm, php, _, hp), (k1_dphi, k1_phm, k1_php, _, _), (_, _, _, k0_hm, k0_hp) = \
        _cone_convolutions(fields, t, x, p)

    u1 = php + k1_dphi - coh * (phm - k1_phm) + 2.0 * p.omega * pop * k0_hm
    u2 = 0.5 * (phm - k1_phm) + 0.5 * coh * (hp - php + k1_php) + p.omega * pop * k0_hp
    u3 = 2.0 * p.omega * k0_hm - 2.0 * coh * p.omega * k0_hp + pop * (k1_dphi + k1_php)
    return u1, u2, u3, ic.r * amp * hp


def solve_laplace_coherent(p: Params, ic: LaplaceCoherent, t: float, grid: SpatialGrid) -> BlochField:
    """:func:`laplace_coherent_field` on the nodes of ``grid``."""
    rho_plus, c_i, rho_minus, c_r = laplace_coherent_field(p, ic, t, grid.nodes)
    return BlochField(grid=grid, rho_plus=rho_plus, c_i=c_i, rho_minus=rho_minus, c_r=c_r, time=t)


@dataclass(frozen=True)
class IdentityReport:
    """Max absolute discrepancies of the kernel convolution identities."""

    laplace_self: float          # f*f = (om|x|+d) f / (2d)
    laplace_sign_self: float     # f*(sgn f) = om x f / (2d)
    heat_laplace: float          # g*f = h+
    heat_sign_laplace: float     # g*(sgn f) = h-
    moment_laplace: float        # (xg)*f = (4 gp t om/d) h-
    cone_k1: float               # f*k1 = f        for x > 2 t d
    cone_k0: float               # f*k0 = t f      for x > 2 t d

    def max_error(self) -> float:
        return max(
            self.laplace_self, self.laplace_sign_self, self.heat_laplace,
            self.heat_sign_laplace, self.moment_laplace, self.cone_k1, self.cone_k0,
        )


def _compound_rule(lo: float, hi: float, kinks: Sequence[float], width: float) -> tuple:
    """(nodes, weights) of theta_rule(_IDENTITY_ORDER) compounded over [lo, hi]:
    split at the kinks inside it, then into equal pieces at most ``width`` wide."""
    cuts = [lo, *sorted(k for k in kinks if lo < k < hi), hi]
    ends = np.concatenate(
        [np.linspace(a, b, math.ceil((b - a) / width) + 1)[:-1] for a, b in zip(cuts, cuts[1:])]
        + [[hi]]
    )
    left, size = ends[:-1, None], np.diff(ends)[:, None]
    nodes, weights = theta_rule(_IDENTITY_ORDER)
    return (left + size * (nodes / math.pi)).ravel(), (size * (weights / math.pi)).ravel()


def convolution_identities_check(
    p: Params, t: float, x_points: Sequence[float]
) -> IdentityReport:
    """Evaluate both sides of the printed kernel identities.

    The Laplace and heat convolutions are compound Gauss-Legendre sums
    (:func:`_compound_rule`): pieces split at the integrands' kinks 0 and x,
    at most _LAPLACE_PIECE Laplace scales wide, and for the heat products
    also at most _HEAT_PIECE heat widths.  The cone kernels use the solver's
    theta quadrature.  The right-hand sides are the closed forms from
    :mod:`oqbm.specfun`.
    """
    _require_regime(p)
    if t <= 0.0:
        raise NonPositiveTime(f"identities need t > 0, got {t}")
    x_points = np.asarray(sorted(x_points), dtype=float)
    c = p.omega / p.delta
    scale = 1.0 / c

    def f_l(y):
        return 0.5 * c * np.exp(-c * np.abs(y))

    sigma = math.sqrt(4.0 * p.gamma_p * t)
    width_l = _LAPLACE_PIECE * scale
    width_g = min(_HEAT_PIECE * sigma, width_l)

    driven = sf.DrivenKernels(t, x_points, p)
    e1 = e1s = e2 = e3 = e4 = 0.0
    for xv, hp, hm in zip(x_points, driven.h_plus(), driven.h_minus()):
        # Laplace products on +-60 Laplace scales about 0 and x
        y, w = _compound_rule(-60.0 * scale + min(0.0, xv), 60.0 * scale + max(0.0, xv),
                              (0.0, xv), width_l)
        prod = f_l(y) * f_l(xv - y)
        e1 = max(e1, abs(w @ prod - (p.omega * abs(xv) + p.delta) * f_l(xv) / (2.0 * p.delta)))
        e1s = max(e1s, abs(w @ (np.sign(y) * prod) - xv * p.omega * f_l(xv) / (2.0 * p.delta)))
        # heat products on +-12 heat widths
        y, w = _compound_rule(-12.0 * sigma, 12.0 * sigma, (xv,), width_g)
        prod = sf.heat_kernel(t, y, p.gamma_p) * f_l(xv - y)
        e2 = max(e2, abs(w @ prod - hp))
        e3 = max(e3, abs(w @ (np.sign(xv - y) * prod) - hm))
        e4 = max(e4, abs(w @ (y * prod) - (4.0 * p.gamma_p * t * p.omega / p.delta) * hm))

    outside = x_points[x_points > 2.0 * t * p.delta * (1.0 + 1e-9)]
    e5 = e6 = 0.0
    if outside.size:
        _, (k1,), (k0,) = _cone_convolutions(lambda y: f_l(y)[None], t, outside, p)
        e5 = float(np.max(np.abs(k1 - f_l(outside))))
        e6 = float(np.max(np.abs(k0 - t * f_l(outside))))
    return IdentityReport(
        laplace_self=e1, laplace_sign_self=e1s, heat_laplace=e2,
        heat_sign_laplace=e3, moment_laplace=e4, cone_k1=e5, cone_k0=e6,
    )
