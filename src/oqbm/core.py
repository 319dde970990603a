"""Domain types: physical rates, spatial grids, the density-matrix field, initial data.

The model evolves a 2x2 Hermitian density matrix field rho(t, x) on the real
line.  :class:`BlochField` stores it in the real Bloch-style coordinates

    rho_plus  = rho11 + rho22      (position probability density)
    rho_minus = rho11 - rho22      (population imbalance, <sigma_z>)
    c_r       = Re rho12
    c_i       = Im rho12

and builds from, and reads back, the matrix entries (rho11, rho22, rho12).
The line is truncated to [-L, L) with n uniform nodes; the discrete Fourier
dual uses frequencies xi_k = pi*k/L and the transform convention

    u_hat(xi) = integral u(x) exp(-i xi x) dx.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Optional, Union

import numpy as np

from .errors import (
    DomainTooNarrow,
    GridMismatch,
    GridUnderResolved,
    NegativeRate,
    NonFinite,
    NonPositiveDiffusion,
    NonPositiveTime,
)

DEFAULT_EPS_TAIL = 1e-8    # tail mass (or boundary/peak ratio) a grid may leave outside
MASS_POINTS = 1 << 15      # nodes of the grid initial_mass integrates on
POINTS_PER_FEATURE = 8.0   # check_grid: nodes per solution width, at least
MIN_POINTS = 256           # plan_grid: bounds on the node count
MAX_POINTS = 1 << 21
QUAD_TOL = 1e-9            # gammaz0's theta quadrature tolerance, which run manifests record


@dataclass(frozen=True)
class Params:
    """The four rates of the master equation, checked when built.

    gamma_p  diffusion rate (must be > 0, it multiplies d^2/dx^2)
    gamma_z  dephasing rate (>= 0)
    delta    coin-position coupling / drift rate (>= 0)
    omega    driving amplitude (>= 0)

    Raises NonFinite, NonPositiveDiffusion or NegativeRate, so every Params
    in existence is a valid rate set.
    """

    gamma_p: float
    gamma_z: float = 0.0
    delta: float = 0.0
    omega: float = 0.0

    def __post_init__(self):
        values = (self.gamma_p, self.gamma_z, self.delta, self.omega)
        if not all(math.isfinite(v) for v in values):
            raise NonFinite(f"rates must be finite, got {values}")
        if self.gamma_p <= 0.0:
            raise NonPositiveDiffusion(f"gamma_p must be > 0, got {self.gamma_p}")
        if self.gamma_z < 0.0 or self.delta < 0.0 or self.omega < 0.0:
            raise NegativeRate(f"gamma_z, delta, omega must be >= 0, got {values[1:]}")


def grid_spacing(half_width: float, n_points: int) -> float:
    """dx of ``SpatialGrid(half_width, n_points)``, or the ValueError its
    constructor raises; allocates nothing."""
    if not (math.isfinite(half_width) and half_width > 0):
        raise ValueError(f"half_width must be positive and finite, got {half_width}")
    if n_points < 2 or (n_points & (n_points - 1)) != 0:
        raise ValueError(f"n_points must be a power of two >= 2, got {n_points}")
    return 2.0 * float(half_width) / int(n_points)


class SpatialGrid:
    """Uniform grid on [-L, L) together with its discrete Fourier dual.

    Nodes are x_j = -L + j*dx with dx = 2L/n (the right endpoint is excluded;
    the grid is periodic).  ``n_points`` must be a power of two so the FFT
    stays fast.  Fourier nodes are xi_k = pi*k/L in numpy fft ordering; the
    n/2 + 1 ``half_nodes`` k = 0 .. n/2 carry all of a real field's spectrum
    (u_hat(-xi) = conj u_hat(xi)), which :meth:`real_inverse` pulls back.
    """

    def __init__(self, half_width: float, n_points: int):
        self.dx = grid_spacing(half_width, n_points)
        self.half_width = float(half_width)
        self.n_points = int(n_points)
        self.nodes = -self.half_width + self.dx * np.arange(self.n_points)
        k = np.fft.fftfreq(self.n_points, d=1.0 / self.n_points)  # integer k
        self.fourier_nodes = (np.pi / self.half_width) * k
        # k = -n/2 is the last half node, as +n/2: its xi flips sign exactly
        self.half_nodes = np.abs(self.fourier_nodes[: self.n_points // 2 + 1])
        # exp(+- i xi_k L) = (-1)^k, exact in integer arithmetic; -n/2 and n/2 share it
        self._signs = np.where(np.asarray(np.rint(k), dtype=np.int64) % 2 == 0, 1.0, -1.0)
        for arr in (self.nodes, self.fourier_nodes, self.half_nodes, self._signs):
            arr.setflags(write=False)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SpatialGrid)
            and other.half_width == self.half_width
            and other.n_points == self.n_points
        )

    def __hash__(self) -> int:
        return hash((self.half_width, self.n_points))

    def __repr__(self) -> str:
        return f"SpatialGrid(half_width={self.half_width}, n_points={self.n_points})"

    def forward_transform(self, values: np.ndarray) -> np.ndarray:
        """Approximate u_hat(xi_k) = integral u e^(-i xi x) dx on the grid."""
        return self.dx * self._signs * np.fft.fft(values)

    def inverse_transform(self, spectrum: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`forward_transform` (returns a complex array)."""
        return np.fft.ifft(self._signs * spectrum) / self.dx

    def real_inverse(self, half_spectrum: np.ndarray) -> np.ndarray:
        """The real field whose transform is ``half_spectrum`` on the half nodes (last
        axis); the Nyquist entry's imaginary part is dropped, as a real field has none."""
        return np.fft.irfft(self._signs[: self.half_nodes.size] * half_spectrum, n=self.n_points) / self.dx

    def trapezoid(self, values: np.ndarray) -> float:
        """Trapezoid integral over [-L, L - dx]; fine for tail-decayed data."""
        return float(np.trapezoid(values, dx=self.dx))


def _check_grid_arrays(grid: SpatialGrid, arrays: dict) -> None:
    for name, arr in arrays.items():
        if arr.shape != (grid.n_points,):
            raise GridMismatch(
                f"{name} has shape {arr.shape}, expected ({grid.n_points},)"
            )


@dataclass(frozen=True)
class BlochField:
    """The density-matrix field in the real coordinates (rho_plus, c_i, rho_minus)
    plus the decoupled c_r; rho21 = conj(rho12) is never stored."""

    grid: SpatialGrid
    rho_plus: np.ndarray
    c_i: np.ndarray
    rho_minus: np.ndarray
    c_r: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        if self.time < 0:
            raise ValueError(f"time must be >= 0, got {self.time}")
        _check_grid_arrays(
            self.grid,
            {"rho_plus": self.rho_plus, "c_i": self.c_i, "rho_minus": self.rho_minus, "c_r": self.c_r},
        )
        for arr in (self.rho_plus, self.c_i, self.rho_minus, self.c_r):
            arr.setflags(write=False)

    @classmethod
    def from_density(cls, grid: SpatialGrid, rho11, rho22, rho12, time: float = 0.0) -> "BlochField":
        """The field with matrix entries rho11, rho22, rho12 on ``grid``:
        rho_pm = rho11 +- rho22, c_r + i c_i = rho12."""
        _check_grid_arrays(grid, {"rho11": rho11, "rho22": rho22, "rho12": rho12})
        return cls(grid=grid, rho_plus=rho11 + rho22, c_i=np.imag(rho12).copy(),
                   rho_minus=rho11 - rho22, c_r=np.real(rho12).copy(), time=time)

    @property
    def rho11(self) -> np.ndarray:
        return 0.5 * (self.rho_plus + self.rho_minus)

    @property
    def rho22(self) -> np.ndarray:
        return 0.5 * (self.rho_plus - self.rho_minus)

    @property
    def rho12(self) -> np.ndarray:
        return self.c_r + 1j * self.c_i

    def mass(self) -> float:
        return self.grid.trapezoid(self.rho_plus)


# ---------------------------------------------------------------------------
# Initial conditions
# ---------------------------------------------------------------------------

# A built-in shape puts p f1 in rho11, (1 - p) f2 in rho22 and c f12 in rho12
# (f12 = None: no coherence), each f a unit-mass profile below.  A profile
# states its closed forms once, the weight w passed in so that products keep
# one order: its density w f(x), its heat flow w (g_t * f)(x) at t > 0, its
# transform w f_hat(xi), its mass beyond +-L and the length a grid must resolve.
# Heat flows import specfun when called, so sampling initial data (as the FD
# oracle does) loads none of the closed-form kernels that the oracle checks.

@dataclass(frozen=True)
class _Gaussian:
    """N(0, sigma^2), times the plane wave e^{ikx} unless k is None."""

    sigma: float
    k: Optional[float] = None

    def density(self, w, x):
        f = w * (np.exp(-x * x / (2.0 * self.sigma * self.sigma)) / (math.sqrt(2.0 * math.pi) * self.sigma))
        return f if self.k is None else f * np.exp(1j * self.k * x)

    def heat(self, w, t, x, gamma_p):
        s = 4.0 * gamma_p * t
        if self.k is None:
            v = self.sigma**2 + s
            return w * np.exp(-(x ** 2) / (2.0 * v)) / math.sqrt(2.0 * math.pi * v)
        # N(0, v)(x) exp(-s sigma^2 k^2 / (2 v)) exp(i k sigma^2 x / v); sigma * sigma
        # rounds as the product does, where sigma**2 (C pow) may differ in the last bit
        sigma, k = self.sigma, self.k
        v = s + sigma * sigma
        envelope = np.exp(-(x * x + s * sigma * sigma * k * k) / (2.0 * v)) / math.sqrt(2.0 * math.pi * v)
        return w * (envelope * np.exp(1j * (k * sigma * sigma / v) * x))

    def hat(self, w, xis):
        if self.k is None:
            return w * np.exp(-0.5 * (self.sigma * xis) ** 2)
        return w * np.exp(-0.5 * self.sigma**2 * (xis - self.k) ** 2)

    def tail(self, half_width): return math.erfc(half_width / (self.sigma * math.sqrt(2.0)))
    def feature(self): return min(self.sigma, 2.0 * math.pi / abs(self.k)) if self.k else self.sigma


@dataclass(frozen=True)
class _Laplace:
    """exp(-|x| / scale) / (2 scale)."""

    scale: float

    def density(self, w, x): return w * (np.exp(-np.abs(x) / self.scale) / (2.0 * self.scale))
    def hat(self, w, xis): return w / (1.0 + (self.scale * xis) ** 2)
    def tail(self, half_width): return math.exp(-half_width / self.scale)
    def feature(self): return self.scale

    def heat(self, w, t, x, gamma_p):
        from . import specfun
        return w * specfun.heat_laplace(t, x, gamma_p, 1.0 / self.scale)


@dataclass(frozen=True)
class _Plateau:
    """1 / (2a) on [-a, a], with the midpoint (half-plateau) value at the jumps."""

    a: float

    def density(self, w, x):
        inside = (np.abs(x) < self.a).astype(float)
        inside[np.abs(np.abs(x) - self.a) == 0.0] = 0.5
        return w * (inside / (2.0 * self.a))

    def hat(self, w, xis): return w * np.sinc(self.a * xis / math.pi)
    def tail(self, half_width): return 1.0 if half_width < self.a else 0.0  # a domain may not cut it
    def feature(self): return self.a

    def heat(self, w, t, x, gamma_p):
        from . import specfun
        return w * specfun.heat_uniform(t, x, gamma_p, self.a)


def _check_shape(shape, *widths: str) -> None:
    """NonFinite for a NaN or infinite field; the mixture weight p must lie in
    (0, 1) and the named profile widths must be > 0."""
    for f in fields(shape):
        value = getattr(shape, f.name)
        if not math.isfinite(value):
            raise NonFinite(f"{f.name} must be finite, got {value}")
    if not 0.0 < shape.p < 1.0:
        raise ValueError(f"mixture weight p must lie in (0, 1), got {shape.p}")
    if any(getattr(shape, name) <= 0 for name in widths):
        raise ValueError(f"{', '.join(widths)} must be > 0")


class _ClosedShape:
    """Built-in initial shapes: closed densities, heat flow and Fourier transform,
    all from the profiles (p, f1, f2, c, f12) that ``_declare`` returns."""

    @functools.cached_property
    def _profiles(self) -> tuple:
        return self._declare()

    def rho11(self, x): return self._profiles[1].density(self.p, np.asarray(x, dtype=float))
    def rho22(self, x): return self._profiles[2].density(1.0 - self.p, np.asarray(x, dtype=float))

    def rho12(self, x):
        _, _, _, c, f12 = self._profiles
        x = np.asarray(x, dtype=float)
        return np.zeros_like(x, dtype=complex) if f12 is None else f12.density(c, x)

    def heat(self, t: float, x, gamma_p: float, drift: float = 0.0):
        """(rho11 at x - drift, rho22 at x + drift, rho12 at x) after heat flow
        of variance 4*gamma_p*t; the initial data itself where 2*gamma_p*t,
        the least width a profile divides by, is 0.0 (t = 0 or an underflow)."""
        if t < 0.0:
            raise NonPositiveTime(f"heat flow needs t >= 0, got {t}")
        x = np.asarray(x, dtype=float)
        if 2.0 * gamma_p * t == 0.0:
            return self.rho11(x - drift), self.rho22(x + drift), self.rho12(x)
        p, f1, f2, c, f12 = self._profiles
        rho12 = np.zeros_like(x, dtype=complex) if f12 is None else f12.heat(c, t, x, gamma_p)
        return f1.heat(p, t, x - drift, gamma_p), f2.heat(1.0 - p, t, x + drift, gamma_p), rho12

    def spectrum(self, xis):
        """Closed transforms (u_hat = integral u e^{-i xi x} dx) of
        (rho_plus, c_i, rho_minus, c_r) at the float array ``xis``."""
        p, f1, f2, c, f12 = self._profiles
        if f1 is f2:  # a shared envelope: rho_minus without cancellation near p = 1/2
            plus = f1.hat(1.0, xis)
            minus = (2.0 * p - 1.0) * plus
        else:
            top, bot = f1.hat(p, xis), f2.hat(1.0 - p, xis)
            plus, minus = top + bot, top - bot
        if f12 is None:
            zero = np.zeros_like(xis)
            return plus, zero, minus, zero
        fp = f12.hat(1.0, xis)
        if isinstance(c, complex):  # a fixed direction c on an even profile
            return plus, c.imag * fp, minus, c.real * fp
        fm = f12.hat(1.0, -xis)  # a real c on a plane wave: its odd and even parts
        return plus, c * (fp - fm) / 2j, minus, c * (fp + fm) / 2.0

    def tail_mass(self, half_width: float) -> float:
        p, f1, f2, _, _ = self._profiles
        if f1 is f2:
            return f1.tail(half_width)
        return p * f1.tail(half_width) + (1.0 - p) * f2.tail(half_width)

    def min_feature(self) -> float:
        _, f1, f2, _, f12 = self._profiles
        return min(f.feature() for f in (f1, f2, f12) if f is not None)


@dataclass(frozen=True)
class GaussianMixture(_ClosedShape):
    """Diagonal rho(0): p N(0, sigma1^2) in rho11, (1-p) N(0, sigma2^2) in rho22."""

    p: float
    sigma1: float
    sigma2: float

    def __post_init__(self):
        _check_shape(self, "sigma1", "sigma2")

    def _declare(self):
        return self.p, _Gaussian(self.sigma1), _Gaussian(self.sigma2), 0.0, None


@dataclass(frozen=True)
class GaussianCoherent(_ClosedShape):
    """Gaussian envelope with a plane-wave off-diagonal coherence.

    rho(0, x) = N(0, sigma^2)(x) * [[p, mu*sqrt(p(1-p)) e^{ikx}], [c.c., 1-p]]
    """

    p: float
    mu: float
    k: float
    sigma: float

    def __post_init__(self):
        _check_shape(self, "sigma")
        if not 0.0 < self.mu < 1.0:
            raise ValueError(f"mu must lie in (0, 1), got {self.mu}")

    def _declare(self):
        env = _Gaussian(self.sigma)
        return self.p, env, env, self.mu * math.sqrt(self.p * (1.0 - self.p)), _Gaussian(self.sigma, self.k)


@dataclass(frozen=True)
class LaplaceMixture(_ClosedShape):
    """Diagonal rho(0) with Laplace profiles of scales a and b."""

    p: float
    a: float
    b: float

    def __post_init__(self):
        _check_shape(self, "a", "b")

    def _declare(self):
        return self.p, _Laplace(self.a), _Laplace(self.b), 0.0, None


@dataclass(frozen=True)
class UniformMixture(_ClosedShape):
    """Diagonal rho(0) with centered plateaus of half-widths a and b."""

    p: float
    a: float
    b: float

    def __post_init__(self):
        _check_shape(self, "a", "b")

    def _declare(self):
        return self.p, _Plateau(self.a), _Plateau(self.b), 0.0, None


@dataclass(frozen=True)
class LaplaceCoherent(_ClosedShape):
    """Laplace envelope with a constant complex coherence direction.

    rho(0, x) = f(x) * [[p, sqrt(p(1-p))(r + iq)], [sqrt(p(1-p))(r - iq), 1-p]]

    where f is the Laplace density with the given scale.  The closed-form
    driven solver requires scale == delta/omega; build instances through
    :meth:`for_params` to guarantee that.
    """

    p: float
    r: float
    q: float
    scale: float

    def __post_init__(self):
        _check_shape(self, "scale")
        if self.r * self.r + self.q * self.q > 1.0 + 1e-12:
            raise ValueError(f"need r^2 + q^2 <= 1, got {self.r**2 + self.q**2}")

    @classmethod
    def for_params(cls, p: float, r: float, q: float, params: Params) -> "LaplaceCoherent":
        if params.delta == 0.0 or params.omega == 0.0:
            raise ValueError("Laplace-coherent data needs delta > 0 and omega > 0")
        return cls(p=p, r=r, q=q, scale=params.delta / params.omega)

    def _declare(self):
        env = _Laplace(self.scale)
        return self.p, env, env, math.sqrt(self.p * (1.0 - self.p)) * complex(self.r, self.q), env


InitialCondition = Union[GaussianMixture, GaussianCoherent, LaplaceMixture, UniformMixture,
                         LaplaceCoherent]


def initial_spectrum(ic: InitialCondition, xis: np.ndarray):
    """Closed Fourier transforms (u_hat = integral u e^{-i xi x} dx) of the
    initial components (rho_plus, c_i, rho_minus, c_r).

    Using these instead of an FFT of samples removes the sampling error of
    kinks and jumps in the initial profiles.  But the spectrum is cut at
    pi/dx, where a kink or jump is damped only by exp(-2 gp (pi/dx)^2 t), so
    early snapshots of Laplace or plateau data alias (5.3e-2 against a peak
    of 0.19 for a uniform mixture at t = 1e-4); the figures, whose earliest
    t > 0 is 25, are not affected.
    """
    return ic.spectrum(np.asarray(xis, dtype=float))


def _check_tail(ic: _ClosedShape, half_width: float) -> None:
    """DomainTooNarrow when the analytic tail mass beyond +-half_width exceeds
    DEFAULT_EPS_TAIL.  A plateau's tail is an indicator (a domain may not cut
    it), so a cut plateau is named with the mass of the density that lies
    beyond +-half_width."""
    tail = ic.tail_mass(half_width)
    if tail <= DEFAULT_EPS_TAIL:
        return
    p, f1, f2, _, _ = ic._profiles
    weighted = ((1.0, f1),) if f1 is f2 else ((p, f1), (1.0 - p, f2))
    cut = [(w, f) for w, f in weighted if isinstance(f, _Plateau) and f.a > half_width]
    if not cut:
        raise DomainTooNarrow(
            f"tail mass {tail:.3e} beyond half_width {half_width} exceeds {DEFAULT_EPS_TAIL:.1e}")
    beyond = sum(w * (1.0 - half_width / f.a) for w, f in cut)
    which = " and ".join(f"{f.a:g}" for _, f in cut)
    which = f"plateau of half-width {which}" if len(cut) == 1 else f"plateaus of half-widths {which}"
    raise DomainTooNarrow(f"half_width {half_width} cuts the {which}: {beyond:.3e} of the density "
                          f"lies beyond +-{half_width}, and a domain may not cut a plateau")


def sample_initial(ic: InitialCondition, grid: SpatialGrid) -> BlochField:
    """Sample the closed-form initial density matrix on ``grid``.

    Raises DomainTooNarrow when the analytic tail mass beyond +-L exceeds
    DEFAULT_EPS_TAIL.
    """
    _check_tail(ic, grid.half_width)
    x = grid.nodes
    return BlochField.from_density(
        grid,
        np.asarray(ic.rho11(x), dtype=float),
        np.asarray(ic.rho22(x), dtype=float),
        np.asarray(ic.rho12(x), dtype=complex),
    )


def initial_mass(ic: InitialCondition) -> float:
    """Richardson-extrapolated trapezoid mass of ``sample_initial``'s rho_plus.

    The grid has MASS_POINTS nodes and, as half-width, the next power of two
    above the tail width plus 1, so the spacing is dyadic and the
    integer-valued plateau edges of uniform data fall exactly on nodes (where
    the half-plateau sampling makes the trapezoid exact).  The O(h^2)
    trapezoid error at the kink of Laplace shapes is removed by
    m_h + (m_h - m_2h)/3, with m_2h taken from every other sample.
    """
    grid = SpatialGrid(2.0 ** math.ceil(math.log2(tail_half_width(ic) + 1.0)), MASS_POINTS)
    density = sample_initial(ic, grid).rho_plus
    fine = grid.trapezoid(density)
    coarse = float(np.trapezoid(density[::2], dx=2.0 * grid.dx))
    return fine + (fine - coarse) / 3.0


def tail_half_width(ic: InitialCondition) -> float:
    """Smallest X with tail_mass(X) <= DEFAULT_EPS_TAIL, found by bisection.

    The bisection ends when lo and hi are adjacent doubles, where no
    midpoint lies between them and further halvings would change neither.
    """
    lo, hi = 0.0, 1.0
    while ic.tail_mass(hi) > DEFAULT_EPS_TAIL:
        hi *= 2.0
        if hi > 1e12:
            raise DomainTooNarrow("initial condition tail does not decay")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if ic.tail_mass(mid) > DEFAULT_EPS_TAIL:
            lo = mid
        else:
            hi = mid
    return hi


def reach(params: Params, t: float) -> float:
    """How far a point mass spreads by time t: the drift excursion 2*delta*t
    plus six diffusion standard deviations sqrt(4*gamma_p*t)."""
    return 2.0 * params.delta * t + 6.0 * math.sqrt(4.0 * params.gamma_p * t)


def plan_size(ic: InitialCondition, params: Params, t_max: float) -> tuple:
    """(half_width, n_points) of the planned grid, without allocating it.

    Half-width rule: initial tail width (to DEFAULT_EPS_TAIL) + reach(params, t_max).
    Resolution rule: at least POINTS_PER_FEATURE nodes per smallest
    relevant length (initial feature, or the diffusion width at t_max if
    t_max > 0), with the node count held to [MIN_POINTS, MAX_POINTS].  The
    bare diffusion width, not check_grid's hypot(feature, width): at dx =
    sqrt(4 gamma_p t_max) / 8 the heat factor exp(-2 gamma_p xi^2 t_max) at the
    Nyquist frequency pi/dx is e^(-32 pi^2), so the spectral route is free of
    aliasing at t_max even for data with kinks.
    A half-width that overflows raises DomainTooNarrow and a diffusion
    width that underflows to 0 raises GridUnderResolved, each naming the
    quantity; a node count beyond MAX_POINTS, however far, is MAX_POINTS.
    """
    width = tail_half_width(ic) + reach(params, t_max)
    half_width = 1.25 * width  # slack so the rule is met with margin
    if not math.isfinite(half_width):
        raise DomainTooNarrow(f"the drift and diffusion reach by t = {t_max:g} is not finite: "
                              f"no grid is wide enough")
    feature = ic.min_feature()
    if t_max > 0.0:
        spread = math.sqrt(4.0 * params.gamma_p * t_max)
        if spread == 0.0:
            raise GridUnderResolved(f"the diffusion width sqrt(4 gamma_p t) at t = {t_max:g} "
                                    f"underflows to 0: no grid resolves it")
        feature = min(feature, spread)
    dx_target = feature / POINTS_PER_FEATURE
    cells = 2.0 * half_width / dx_target if dx_target > 0.0 else math.inf
    n = 1 << max(1, math.ceil(math.log2(min(cells, MAX_POINTS))))
    return half_width, max(n, MIN_POINTS)


def plan_grid(ic: InitialCondition, params: Params, t_max: float) -> SpatialGrid:
    """The grid of :func:`plan_size`, or GridUnderResolved, before any node array
    exists, when the MAX_POINTS cap leaves the solution at t_max unresolved."""
    half_width, n_points = plan_size(ic, params, t_max)
    check_grid(half_width, n_points, params, (t_max,), tail_half_width(ic), ic.min_feature())
    return SpatialGrid(half_width, n_points)


def check_grid(half_width: float, n_points: int, params: Params, times, tail_width: float,
               feature: float) -> None:
    """The two rules every grid meets, checked before any node array exists.

    A half-width or node count that SpatialGrid refuses raises its ValueError.
    Width: DomainTooNarrow unless half_width covers tail_width plus
    reach(params, max(times)); a reach that is not finite fails it.
    Resolution: GridUnderResolved unless the solution width at the earliest
    time, sqrt(feature^2 + 4 gamma_p t_min), spans POINTS_PER_FEATURE nodes.
    The width grows with t, so a grid that resolves the earliest snapshot
    resolves every later one.  A point source has tail_width = feature = 0.0.
    """
    dx = grid_spacing(half_width, n_points)
    t_max, t_min = max(times), min(times)
    need = tail_width + reach(params, t_max)
    if not half_width >= need:  # a need that is inf or NaN fails too
        raise DomainTooNarrow(
            f"half_width {half_width:g} is narrower than the initial tails plus "
            f"drift and diffusion reach by t = {t_max:g}; it needs half_width >= {need:.6g}"
        )
    spread = math.hypot(feature, math.sqrt(4.0 * params.gamma_p * t_min))
    if dx > spread / POINTS_PER_FEATURE:
        raise GridUnderResolved(
            f"dx = {dx:.3g} gives fewer than {POINTS_PER_FEATURE:g} nodes per solution width "
            f"{spread:.3g} at t = {t_min:g}"
        )
