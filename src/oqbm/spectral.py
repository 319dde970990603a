"""General solver for arbitrary positive rates via the Fourier symbol.

Transforming the coupled system for u = (rho_plus, c_i, rho_minus) turns it
into u_hat' = Q(xi) u_hat with the 3x3 symbol

        [ -2 gp xi^2              0            -2 i xi delta ]
  Q  =  [     0        -2 gp xi^2 - 2 gz           omega     ]
        [ -2 i xi delta       -4 omega          -2 gp xi^2   ]

Every field here is real, so exp(t Q(-xi)) = conj exp(t Q(xi)) and only the
half nodes xi >= 0 are evolved: the solution is exp(t Q(xi)) applied to the
transformed initial data, pulled back by the grid's real inverse transform;
the Green's matrix is that inverse of exp(t Q) itself.  The eigenvalues are
a bracketed Newton root of the cubic and a Vieta pair, each with its exact
sign.  The exponential is the Newton interpolant of exp at them (Putzer's
formula), which needs no eigenvectors and holds unchanged where eigenvalues
coalesce (xi = 0, the critical point gamma_z = 2 omega, zeros of the cubic's
discriminant); only the divided differences of exp switch to series forms.
solve applies the formula to the data vector itself, so no 3x3 matrix is
formed; exp_symbols applies it to the three unit columns.

c_r = Re(rho12) decouples into a damped heat equation: its transform is
multiplied by exp(-(2 gp xi^2 + 2 gz) t) and inverted alongside the others.

Every real part of t Q's eigenvalues is at most -2 gp xi^2 t, exactly (as
symbol_eigenvalues forms them; rounding is monotone).  So where 2 gp xi^2 t
>= _FLUSH, e[z1], both branches of each divided difference (exp times a
series, or a difference of zeros) and the c_r factor are exactly +-0: only
the other frequencies (:func:`_live`) are evaluated, the rest zero-filled.
"""

from __future__ import annotations

import math
import threading
from typing import Sequence

import numpy as np

from .core import (
    DEFAULT_EPS_TAIL,
    BlochField,
    InitialCondition,
    Params,
    SpatialGrid,
    check_grid,
    sample_initial,
)
from .errors import NonFinite, NonPositiveTime, TailNotDecayed

_NEAR = 1.0                # points this close use series forms of the divided differences
_SERIES_TERMS = 20         # terms of the three-point series; the rest is below 1e-18
_EPS = np.finfo(float).eps
_NEWTON_STEPS = 60         # cap on the real root's Newton steps; 1-8 is typical
# exp(x) rounds to 0.0 below ln(2^-1075) = -745.13; 746 leaves a margin for libm
_FLUSH = 746.0


def _pow(v, k: int):
    """v**k as a float rate gets it, libm's pow, also on an array of rates:
    numpy's own power (a product for k = 2) differs from it in the last bit
    for some rates, and a row must get the bits of its rate set alone.
    NonFinite where the power overflows, which Python's float power raises."""
    try:
        return v**k if np.ndim(v) == 0 else np.array([u**k for u in v.tolist()])
    except OverflowError:
        raise NonFinite(f"the symbol's {max(np.ravel(v).tolist(), key=abs)!r}**{k} overflows a float") from None


def symbol_eigenvalues(xis: np.ndarray, p: Params) -> np.ndarray:
    """Eigenvalues of Q(xi), shape (m, 3): a real root, then the other two.

    lambda = mu - 2 gp xi^2, where mu solves f(mu) = (mu + b)(mu^2 + e) + w mu
    with b = 2 gz, e = 4 dl^2 xi^2 and w = 4 om^2.  As f(-b) = -w b <= 0 <=
    b e = f(0), a real root r lies in [-b, 0]; Newton's method finds it, kept
    inside that bracket.  The other two solve mu^2 + s mu + P = 0 with
    s = b + r >= 0 and P = e + w + r s >= 0 (Vieta).  Each quantity is formed
    so that its sign holds in floating point: every real part is at most
    -2 gp xi^2, exactly, and simple roots are accurate relative to themselves.
    The rates of ``p`` may also be arrays of xis' shape, one rate set per
    row; each row gets the bits it gets alone.  NonFinite where a step of
    the real root, or the discriminant of a meeting pair, overflows a float.
    """
    xis = np.asarray(xis, dtype=float)
    b = 2.0 * p.gamma_z
    with np.errstate(over="ignore", invalid="ignore"):
        e = 4.0 * _pow(p.delta, 2) * (xis * xis)
        w = 4.0 * _pow(p.omega, 2)
        # for r in [-b, 0] and S = b^2 + e + w: |f(r)| <= b S, and r^2 + e,
        # |f'(r)| and |s^2 - 4P| are at most 4 S.  Where this bound is finite
        # no step of the root overflows; elsewhere f could be inf - inf = NaN,
        # which keeps the bracket and can end the iteration on a non-root
        bound = 4.0 * (1.0 + b) * (b * b + e + w)
    if not np.all(np.isfinite(bound)):
        raise NonFinite(f"the symbol's cubic is not finite in a float: b = 2 gamma_z = {np.max(b):.3g}, "
                        f"e = 4 delta^2 xi^2 up to {np.max(e):.3g}, w = 4 omega^2 = {np.max(w):.3g}")
    lo, hi = np.full_like(e, -b), np.zeros_like(e)
    with np.errstate(invalid="ignore", divide="ignore"):
        # start at Newton's step from 0, clipped (at omega = 0 rounding puts it
        # below -b; 0/0 at e = w = 0 gives the root 0); a later step that leaves
        # the bracket or is NaN (f' = 0 at a triple root) bisects instead
        r = np.clip(np.nan_to_num(-b * e / (e + w)), lo, hi)
        active = np.ones(r.shape, dtype=bool)
        for _ in range(_NEWTON_STEPS):
            f = (r + b) * (r * r + e) + w * r
            # f(lo) <= 0 <= f(hi); f == 0 closes the bracket on r, which keeps
            # the exact roots r = 0 at xi = 0 and r = -b at omega = 0
            hi = np.where(f >= 0.0, r, hi)
            lo = np.where(f <= 0.0, r, lo)
            new = r - f / (r * (3.0 * r + 2.0 * b) + e + w)
            new = np.where((new >= lo) & (new <= hi), new, 0.5 * (lo + hi))
            # Newton can cycle between adjacent doubles, so stop at 4 ulp; each
            # row stops on its own, so its root does not depend on the batch
            converged = np.abs(new - r) <= 4.0 * _EPS * np.abs(new)
            r = np.where(active, new, r)
            active &= ~converged
            if not active.any():
                break
        # s = b + r cancels where r is near -b (omega << gamma_z); there
        # f(r) = 0 gives s = w |r| / (r^2 + e), which does not
        s = np.where(r < -0.5 * b, w * -r / (r * r + e), b + r)
        # P = p1 p2 >= 0; the form b e / |r| loses all precision at subnormal xi
        prod = np.maximum(e + w + r * s, 0.0)
        disc = s * s - 4.0 * prod
        # s^2 - 4P cancels where the pair meets; (p1 - p2)^2 is also the cubic's
        # discriminant over f'(r)^2, whose rate form keeps gz - 2 om as a factor.
        # f'(r) -> 0 where r is itself a double root, so that form serves only
        # where |s^2 - 4P| < |f'(r)|; e, which may be subnormal, multiplies last.
        fprime = r * (3.0 * r + 2.0 * b) + e + w
        meet = np.abs(disc) < np.abs(fprime)
        crit = 4.0 * (p.gamma_z - 2.0 * p.omega) * (p.gamma_z + 2.0 * p.omega)  # b^2 - 4 w
        em, fm, bm, wm, crit = (v[meet] if np.ndim(v) else v for v in (e, fprime, b, w, crit))
        b2 = _pow(bm, 2)
        # fm is finite and not 0, so an overflow below leaves disc[meet] inf or NaN
        with np.errstate(over="ignore"):
            e_term = em * em + em * (2.0 * b2 + 3.0 * wm) + _pow(bm, 4) - 5.0 * b2 * wm + 3.0 * _pow(wm, 2)
            disc[meet] = _pow(wm, 2) * crit / fm / fm - 4.0 * em * (e_term / fm / fm)
        if not np.all(np.isfinite(disc[meet])):
            raise NonFinite("the discriminant of the symbol's eigenvalue pair overflows a float")
        # disc <= 0 is a complex pair, also where disc underflows at subnormal xi
        root = np.sqrt(np.abs(disc))
        real = disc > 0.0
        big = -0.5 * (s + root)
        pair = (np.where(real, big, -0.5 * s + 0.5j * root),
                np.where(real, prod / big, -0.5 * s - 0.5j * root))
    return np.stack([r, *pair], axis=1) - (2.0 * p.gamma_p * (xis * xis))[:, None]


def _zero_modes(p: Params):
    """Zero modes of Q(0): one when omega > 0, two when omega = 0 < gamma_z, else three."""
    return np.where(p.omega > 0.0, 1, np.where(p.gamma_z > 0.0, 2, 3))


def dissipativity_rows(xis: np.ndarray, p: Params) -> tuple:
    """The dissipativity rules of Q's eigenvalues, row by row; the rates are
    scalars or one rate set per row (see :func:`symbol_eigenvalues`).

    Where 2 gp xi^2 is 0.0 (xi = 0, or |xi| below ~1e-162), Q(xi) is Q(0),
    with spectrum {0, -gz +- sqrt(gz^2 - 4 om^2)}: its zero modes (counted by
    _zero_modes) must lie within 1e-10 * scale of zero with Re <= 0; the
    others need Re < 0, or real parts within 1e-10 * scale when gamma_z = 0
    (+-2i omega).  Every other xi needs Re < 0 of every mode, which
    symbol_eigenvalues guarantees by construction.  Returns (rule, lam,
    modes, zero): each row's broken rule (0 none, 1 the zero modes, 2 the
    +-2i omega pair, 3 Re lambda >= 0), the eigenvalues, the real parts held
    to Re < 0 (the rest -inf) and the moduli of the zero modes where xi
    counts as 0 (the rest 0)."""
    xis = np.asarray(xis, dtype=float)
    lam = symbol_eigenvalues(xis, p)
    # the routine's own arithmetic: (2 gp xi) xi gives 5e-324 where xi xi is 0
    at_zero = (2.0 * p.gamma_p * (xis * xis) == 0.0)[:, None]
    tol = 1e-10 * np.maximum(np.maximum(np.maximum(p.gamma_z, p.omega), 1.0), np.abs(p.delta * xis))[:, None]
    ranked = np.take_along_axis(lam, np.argsort(np.abs(lam), axis=1), axis=1)
    zero = at_zero & (np.arange(3) < _zero_modes(p)[..., None])
    undamped = at_zero & np.asarray(p.gamma_z == 0.0)[..., None]  # Q(0)'s other pair is +-2i omega
    zero_bad = np.any(zero & ((np.abs(ranked) > tol) | (ranked.real > 0.0)), axis=1)
    pair_bad = np.any(undamped & ~zero & (np.abs(ranked.real) > tol), axis=1)
    # real parts held to Re < 0: not those of Q(0)'s zero modes, nor any when gamma_z = 0
    modes = np.where(zero | undamped, -math.inf, ranked.real)
    rule = np.select([zero_bad, pair_bad, np.any(modes >= 0.0, axis=1)], [1, 2, 3])
    return rule, lam, modes, np.where(zero, np.abs(ranked), 0.0)


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


def _putzer_weights(z: np.ndarray) -> tuple:
    """(z1, z2, e[z1], e[z1, z2], e[z1, z2, z3]) for A = t Q(xi), each of shape (m,),
    from ``z`` = t * symbol_eigenvalues(xis, p), of shape (m, 3).

    z1, z2, z3 are the eigenvalues of A, each row with its closest pair last,
    so |z1 - z3| is at least half the spread of the three points; e[...] are
    divided differences of exp.  e[z1, z2, z3] is a series about the centroid
    where all three lie within _NEAR of it, and (e[z1, z2] - e[z2, z3]) /
    (z1 - z3) elsewhere.  Its own function, so that the temporaries are gone
    before _apply_exp forms its vectors.
    """
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
    return z1.copy(), z2.copy(), np.exp(z1), e12, e123


def _live(xis: np.ndarray, p: Params, t: float) -> np.ndarray:
    """Where exp(t Q(xi)) can be nonzero: 2 gp xi^2 t not >= _FLUSH, so a NaN
    product (t = inf at xi = 0) and every xi at t = 0 count as live; t < 0 is refused."""
    if t < 0.0:
        raise NonPositiveTime(f"exp(t Q) needs t >= 0, got {t}")
    with np.errstate(over="ignore"):  # a product that overflows is past the edge too
        return ~(t * (2.0 * p.gamma_p * (xis * xis)) >= _FLUSH)


def _apply_exp(xis: np.ndarray, p: Params, t: float, v: Sequence[np.ndarray], weights: tuple) -> tuple:
    """exp(t Q(xi)) v by Putzer's formula, for v = (v0, v1, v2) whose last axis
    runs over ``xis``; returns the three components of the result.

    ``weights`` are :func:`_putzer_weights` of t Q at ``xis``.  With z1, z2,
    z3 the eigenvalues of A = t Q,

        exp(A) v = e[z1] v + e[z1, z2] w1 + e[z1, z2, z3] w2,
        w1 = (A - z1) v,  w2 = (A - z2) w1,

    holds whether or not the eigenvalues are distinct.  A is applied through
    its five distinct nonzero entries; no 3x3 matrix is formed.
    """
    z1, z2, e1, e12, e123 = weights
    lap = -2.0 * p.gamma_p * xis**2
    a00, a11 = t * lap, t * (lap - 2.0 * p.gamma_z)  # a22 = a00
    a02 = t * (-2j * xis * p.delta)                   # a20 = a02
    a12, a21 = t * p.omega, t * (-4.0 * p.omega)

    def shifted(z, u):  # (A - z) u
        u0, u1, u2 = u
        return ((a00 - z) * u0 + a02 * u2,
                (a11 - z) * u1 + a12 * u2,
                a02 * u0 + a21 * u1 + (a00 - z) * u2)

    w1 = shifted(z1, v)
    w2 = shifted(z2, w1)
    return tuple(e1 * a + e12 * b + e123 * c for a, b, c in zip(v, w1, w2))


class SharedSymbol:
    """Eigenvalues and Putzer weights of one run's spectral snapshots on one
    rate set and grid, ``times`` their t > 0 (a t per snapshot), the one source
    of :func:`solve`'s live half nodes and weights.  The eigenvalues are taken
    once, on the live prefix of the earliest t, which holds every later prefix;
    a row's are its own in any batch, so slices keep every bit.  A t's weights
    are made by its first snapshot (the rest wait on its lock) and dropped
    after its last; the eigenvalues go as soon as the last t has scaled them."""

    def __init__(self, p: Params, grid: SpatialGrid, times: Sequence[float]):
        self._p, self._xis = p, grid.half_nodes[: np.count_nonzero(_live(grid.half_nodes, p, min(times)))]
        self._lam = symbol_eigenvalues(self._xis, p)
        self._slots = {t: [threading.Lock(), times.count(t), None] for t in set(times)}  # lock, uses, weights
        self._unscaled = set(times)  # the times that have yet to read the eigenvalues

    def live_nodes(self, t: float) -> np.ndarray:
        """The half nodes where exp(t Q) can be nonzero (:func:`_live`), a prefix."""
        return self._xis[: np.count_nonzero(_live(self._xis, self._p, t))]

    def weights(self, t: float) -> tuple:
        """:func:`_putzer_weights` at t on :meth:`live_nodes` at t."""
        slot = self._slots[t]
        with slot[0]:
            if slot[2] is None:
                # no name holds the scaled eigenvalues, so _putzer_weights frees them once it has sorted them
                slot[2] = _putzer_weights(self._scaled(t, self.live_nodes(t).size))
            slot[1] -= 1
            weights, slot[2] = slot[2], slot[2] if slot[1] else None  # the last use drops them
        return weights

    def _scaled(self, t: float, m: int) -> np.ndarray:
        """t times the first m rows of the eigenvalues; the last t to read them drops them."""
        z = t * self._lam[:m]
        self._unscaled.discard(t)
        if not self._unscaled:
            self._lam = None
        return z


def exp_symbols(xis: np.ndarray, p: Params, t: float) -> np.ndarray:
    """Stacked exp(t Q(xi_k)) at any frequencies, shape (m, 3, 3): Putzer's
    formula (:func:`_apply_exp`) applied to the three unit columns.  At t = 0 it
    is the identity exactly.  Frequencies that :func:`_live` drops get zeros.

    The error grows as about eps * t * max |lambda|: a root known to
    relative eps gives exp a phase error of eps |t lambda|.  On 300 draws
    with rates up to 100 and t up to 1e4 it stayed below
    1.5 eps max(1, t max |lambda|) against 40-digit mpmath.
    """
    xis = np.asarray(xis, dtype=float)
    live = _live(xis, p, t)
    # component i of unit column j is eye[i, j]; no name holds the weights past the call
    columns = _apply_exp(xis[live], p, t, np.eye(3)[:, :, None], _putzer_weights(t * symbol_eigenvalues(xis[live], p)))
    out = np.zeros((3, 3, xis.size), dtype=complex)
    out[..., live] = np.stack(columns)
    return out.transpose(2, 0, 1)


def green_function(p: Params, t: float, grid: SpatialGrid) -> np.ndarray:
    """Matrix Green's function on the grid, the real inverse transform of
    exp(t Q) on the half nodes, shape (n, 3, 3).

    Rejects grids narrower than the reach or too coarse for the diffusion
    width (core.check_grid for a point source: DomainTooNarrow,
    GridUnderResolved), and results with an entry at either grid boundary
    above DEFAULT_EPS_TAIL times the peak entry (TailNotDecayed).
    """
    if t <= 0.0:
        raise NonPositiveTime(f"green_function needs t > 0, got {t}")
    check_grid(grid.half_width, grid.n_points, p, (t,), 0.0, 0.0)
    spectra = exp_symbols(grid.half_nodes, p, t)
    entries = np.moveaxis(grid.real_inverse(np.moveaxis(spectra, 0, -1)), -1, 0)
    peak = np.max(np.abs(entries))
    boundary = max(np.max(np.abs(entries[0])), np.max(np.abs(entries[-1])))
    if boundary > DEFAULT_EPS_TAIL * peak:
        raise TailNotDecayed(
            f"Green entries at the boundary are {boundary:.3e} (peak {peak:.3e}); widen the grid"
        )
    return entries


def solve(p: Params, ic: InitialCondition, t: float, grid: SpatialGrid, symbol=None) -> BlochField:
    """Propagate the initial data to time t in Fourier space, on the half nodes.

    Equivalent to convolving with the Green's matrix (one transform less).
    The initial data enter through their closed Fourier transforms, free of
    sampling error but cut at pi/dx, where a kink or jump is damped only by
    exp(-2 gp (pi/dx)^2 t): early snapshots of Laplace or plateau data alias
    (see core.initial_spectrum; the figures, whose earliest t > 0 is 25, do
    not).  (rho_plus, c_i, rho_minus) evolve by exp(t Q), the decoupled c_r
    by the damped heat factor exp(-(2 gp xi^2 + 2 gz) t); all four come back
    in one real inverse transform.  Both factors are evaluated only on the half
    nodes where they can be nonzero, the live nodes of ``symbol`` (a run's
    :class:`SharedSymbol`, or one made for this t alone): the others are exactly
    zero in double precision, so they are zero-filled and each field keeps the
    bits it gets alone.  At t = 0 the sampled initial data returns.
    """
    if t == 0.0:
        return sample_initial(ic, grid)
    symbol = SharedSymbol(p, grid, (t,)) if symbol is None else symbol
    xis = symbol.live_nodes(t)
    hat = ic.spectrum(xis)
    evolved = np.zeros((4, grid.half_nodes.size), dtype=complex)
    # the weights come last and unnamed: nothing holds them while hat is made or the field inverted
    evolved[:3, : xis.size] = _apply_exp(xis, p, t, hat[:3], symbol.weights(t))
    evolved[3, : xis.size] = hat[3] * np.exp(-(2.0 * p.gamma_p * xis**2 + 2.0 * p.gamma_z) * t)
    rho_plus, c_i, rho_minus, c_r = grid.real_inverse(evolved)
    return BlochField(grid=grid, rho_plus=rho_plus, c_i=c_i, rho_minus=rho_minus, c_r=c_r, time=t)
