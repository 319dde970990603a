import copy
import dataclasses
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oqbm import core, errors
from oqbm.core import (
    BlochField,
    GaussianCoherent,
    GaussianMixture,
    LaplaceCoherent,
    LaplaceMixture,
    Params,
    SpatialGrid,
    UniformMixture,
    initial_mass,
    initial_spectrum,
    plan_grid,
    sample_initial,
    tail_half_width,
)

RATE_NAMES = ("gamma_p", "gamma_z", "delta", "omega")


class TestParams:
    def test_figure_rates_are_valid(self):
        p = Params(gamma_p=1e-3, gamma_z=1e-3, delta=1e-2, omega=0.0)
        assert (p.gamma_p, p.gamma_z, p.delta, p.omega) == (1e-3, 1e-3, 1e-2, 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", RATE_NAMES)
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(errors.NonFinite):
            Params(**dict(dict.fromkeys(RATE_NAMES, 1.0), **{name: value}))

    @pytest.mark.parametrize("gamma_p", [0.0, -1e-3], ids=["zero", "negative"])
    def test_non_positive_diffusion_rejected(self, gamma_p):
        with pytest.raises(errors.NonPositiveDiffusion):
            Params(gamma_p=gamma_p)

    @pytest.mark.parametrize("name", RATE_NAMES[1:])
    def test_negative_rate_rejected(self, name):
        with pytest.raises(errors.NegativeRate):
            Params(gamma_p=1.0, **{name: -0.1})


class TestGrid:
    def test_requires_power_of_two(self):
        with pytest.raises(ValueError):
            SpatialGrid(10.0, 1000)

    def test_nodes_symmetric_and_increasing(self):
        g = SpatialGrid(8.0, 256)
        assert np.all(np.diff(g.nodes) > 0)
        assert g.nodes[0] == -8.0
        assert g.nodes[g.n_points // 2] == 0.0
        assert math.isclose(g.dx, 16.0 / 256)

    def test_transform_matches_analytic_gaussian(self):
        g = SpatialGrid(20.0, 1024)
        u = np.exp(-g.nodes**2 / 2)
        ref = math.sqrt(2 * math.pi) * np.exp(-g.fourier_nodes**2 / 2)
        assert np.max(np.abs(g.forward_transform(u) - ref)) < 1e-13

    def test_transform_roundtrip(self, rng):
        g = SpatialGrid(5.0, 512)
        u = rng.normal(size=g.n_points)
        back = g.inverse_transform(g.forward_transform(u))
        assert np.max(np.abs(back - u)) < 1e-13

    @pytest.mark.parametrize("n_points", [2, 4, 512])
    def test_half_nodes_are_the_nonnegative_fourier_nodes(self, n_points):
        g = SpatialGrid(5.0, n_points)
        m = n_points // 2
        assert g.half_nodes.size == m + 1
        assert np.array_equal(g.half_nodes[:m], g.fourier_nodes[:m])
        # the Nyquist node is k = +n/2, the mirror of the full grid's k = -n/2
        assert g.half_nodes[m] == -g.fourier_nodes[m] > 0.0

    def test_real_inverse_of_the_half_transform(self, rng):
        # the half of the complex forward transform, Nyquist bin included, gives
        # back the real samples, as the full complex inverse does
        g = SpatialGrid(5.0, 512)
        u = rng.normal(size=(2, g.n_points))
        half = g.forward_transform(u)[:, : g.half_nodes.size]
        back = g.real_inverse(half)
        assert back.dtype == float and back.shape == u.shape
        assert np.max(np.abs(back - u)) < 1e-13
        assert np.max(np.abs(back - g.inverse_transform(g.forward_transform(u)).real)) < 1e-14


class TestBlochConversion:
    def test_symmetric_bump_maps_to_plus_channel(self):
        g = SpatialGrid(8.0, 256)
        bump = np.exp(-g.nodes**2)
        b = BlochField.from_density(g, 0.5 * bump, 0.5 * bump, np.zeros(g.n_points, dtype=complex))
        assert np.allclose(b.rho_plus, bump)
        assert np.all(b.rho_minus == 0) and np.all(b.c_r == 0) and np.all(b.c_i == 0)

    def test_mixture_imbalance_profile(self):
        ic = GaussianMixture(p=0.75, sigma1=1.0, sigma2=2.0)
        g = SpatialGrid(24.0, 1024)
        b = sample_initial(ic, g)
        x = g.nodes
        expected = (0.75 * np.exp(-x**2 / 2) / math.sqrt(2 * math.pi)
                    - 0.25 * np.exp(-x**2 / 8) / (2 * math.sqrt(2 * math.pi)))
        assert np.max(np.abs(b.rho_minus - expected)) < 1e-15

    def test_coherent_imaginary_channel(self):
        p = Params(gamma_p=1e-2, delta=1e-1, omega=1e-2)
        ic = LaplaceCoherent.for_params(p=0.25, r=0.0, q=-0.5, params=p)
        g = SpatialGrid(256.0, 4096)
        b = sample_initial(ic, g)
        f_l = (p.omega / (2 * p.delta)) * np.exp(-(p.omega / p.delta) * np.abs(g.nodes))
        expected = -0.5 * math.sqrt(0.25 * 0.75) * f_l
        assert np.max(np.abs(b.c_i - expected)) < 1e-16

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_is_identity(self, seed):
        rng = np.random.default_rng(seed)
        g = SpatialGrid(4.0, 128)
        rho11, rho22 = rng.normal(size=g.n_points), rng.normal(size=g.n_points)
        rho12 = rng.normal(size=g.n_points) + 1j * rng.normal(size=g.n_points)
        first = BlochField.from_density(g, rho11, rho22, rho12, time=float(rng.uniform(0, 10)))
        assert np.max(np.abs(first.rho11 - rho11)) < 1e-14
        assert np.max(np.abs(first.rho22 - rho22)) < 1e-14
        assert np.max(np.abs(first.rho12 - rho12)) < 1e-14
        again = BlochField.from_density(g, first.rho11, first.rho22, first.rho12, first.time)
        assert np.max(np.abs(again.rho_plus - first.rho_plus)) < 1e-14

    def test_entries_are_the_inverse_arithmetic(self, rng):
        g = SpatialGrid(4.0, 128)
        b = BlochField(g, rho_plus=rng.normal(size=128), c_i=rng.normal(size=128),
                       rho_minus=rng.normal(size=128), c_r=rng.normal(size=128))
        assert np.array_equal(b.rho11, 0.5 * (b.rho_plus + b.rho_minus))
        assert np.array_equal(b.rho22, 0.5 * (b.rho_plus - b.rho_minus))
        assert np.array_equal(b.rho12, b.c_r + 1j * b.c_i)

    def test_grid_mismatch_detected(self):
        g = SpatialGrid(8.0, 256)
        with pytest.raises(errors.GridMismatch):
            BlochField.from_density(g, np.zeros(100), np.zeros(256), np.zeros(256, dtype=complex))


class TestSampling:
    def test_gaussian_mixture_values_at_origin(self):
        ic = GaussianMixture(p=0.75, sigma1=1.0, sigma2=2.0)
        g = SpatialGrid(24.0, 1024)
        d = sample_initial(ic, g)
        mid = g.n_points // 2
        assert math.isclose(d.rho11[mid], 0.75 / math.sqrt(2 * math.pi), rel_tol=1e-15)
        assert math.isclose(d.rho22[mid], 0.25 / (2 * math.sqrt(2 * math.pi)), rel_tol=1e-15)

    def test_uniform_plateau_and_midpoint_convention(self):
        ic = UniformMixture(p=0.75, a=3.0, b=2.0)
        g = SpatialGrid(16.0, 2048)  # dyadic dx, edges on nodes
        d = sample_initial(ic, g)
        x = g.nodes
        inside = np.argmin(np.abs(x - 2.5))
        assert d.rho11[inside] == 0.75 / 6.0
        assert d.rho22[inside] == 0.0
        edge = np.argmin(np.abs(x - 3.0))
        assert d.rho11[edge] == 0.5 * 0.75 / 6.0

    def test_trace_masses(self):
        p = Params(gamma_p=1e-2, delta=1e-1, omega=1e-2)
        ics = [
            GaussianMixture(p=0.75, sigma1=1.0, sigma2=2.0),
            GaussianCoherent(p=0.75, mu=0.8, k=1.0, sigma=1.0),
            LaplaceMixture(p=0.25, a=1.0, b=2.0),
            UniformMixture(p=0.75, a=3.0, b=2.0),
            LaplaceCoherent.for_params(p=0.25, r=0.5, q=-0.5, params=p),
        ]
        for ic in ics:
            assert abs(initial_mass(ic) - 1.0) < 1e-8, type(ic).__name__

    @pytest.mark.parametrize("ic", [
        GaussianMixture(p=0.75, sigma1=1.0, sigma2=2.0),
        LaplaceMixture(p=0.25, a=1.0, b=2.0),
        UniformMixture(p=0.75, a=3.0, b=2.0),
        GaussianCoherent(p=0.75, mu=0.8, k=1.0, sigma=1.0),
        LaplaceCoherent.for_params(p=0.25, r=0.5, q=-0.5,
                                   params=Params(gamma_p=1e-2, delta=1e-1, omega=1e-2)),
    ], ids=lambda ic: type(ic).__name__)
    def test_mass_is_the_sampled_fields_bit_for_bit(self, ic):
        # initial_mass is the extrapolated trapezoid of sample_initial's
        # rho_plus on the MASS_POINTS-node grid of dyadic half-width
        half_width = 2.0 ** math.ceil(math.log2(tail_half_width(ic) + 1.0))
        grid = SpatialGrid(half_width, core.MASS_POINTS)
        density = sample_initial(ic, grid).rho_plus
        fine = grid.trapezoid(density)
        coarse = float(np.trapezoid(density[::2], dx=2.0 * grid.dx))
        assert initial_mass(ic) == fine + (fine - coarse) / 3.0

    def test_domain_too_narrow(self):
        ic = GaussianMixture(p=0.5, sigma1=2.0, sigma2=2.0)
        with pytest.raises(errors.DomainTooNarrow):
            sample_initial(ic, SpatialGrid(4.0, 128))

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError):
            GaussianMixture(p=1.5, sigma1=1.0, sigma2=1.0)
        with pytest.raises(ValueError):
            LaplaceCoherent(p=0.5, r=0.9, q=0.9, scale=1.0)


FIVE_SHAPES = [
    GaussianMixture(p=0.75, sigma1=1.0, sigma2=2.0),
    GaussianCoherent(p=0.75, mu=0.8, k=1.0, sigma=1.0),
    LaplaceMixture(p=0.25, a=1.0, b=2.0),
    UniformMixture(p=0.75, a=3.0, b=2.0),
    LaplaceCoherent(p=0.25, r=0.5, q=-0.5, scale=10.0),
]


def _shape_id(ic):
    return type(ic).__name__


class TestShapes:
    @pytest.mark.parametrize("ic", FIVE_SHAPES, ids=_shape_id)
    def test_shape_survives_use(self, ic):
        # a used shape still pickles, deep-copies, hashes and compares as a fresh one
        x, xis = np.linspace(-5.0, 5.0, 11), np.linspace(0.0, 3.0, 7)
        ic.heat(2.0, x, 1e-2, drift=0.1), ic.spectrum(xis), ic.tail_mass(2.0)
        fresh = type(ic)(**dataclasses.asdict(ic))
        for twin in (pickle.loads(pickle.dumps(ic)), copy.deepcopy(ic)):
            assert twin == ic == fresh
            assert hash(twin) == hash(ic) == hash(fresh)
            assert dataclasses.asdict(twin) == dataclasses.asdict(fresh)
            for got, want in zip(twin.heat(2.0, x, 1e-2, drift=0.1), fresh.heat(2.0, x, 1e-2, drift=0.1)):
                assert np.array_equal(got, want)
            for got, want in zip(twin.spectrum(xis), fresh.spectrum(xis)):
                assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("ic", FIVE_SHAPES, ids=_shape_id)
    @pytest.mark.parametrize("half_width", [0.0, 0.5, 2.5, 4.0])
    def test_tail_mass_is_the_density_beyond(self, ic, half_width):
        # both populations are even, so the mass beyond +-L is twice that on
        # [L, L + 512]; the dyadic spacing puts the plateau edges on nodes,
        # where the half-plateau value makes the trapezoid exact.  A plateau
        # that reaches beyond L counts whole: a domain may not cut it.
        x = half_width + np.linspace(0.0, 512.0, (1 << 21) + 1)
        populations = (ic.rho11(x), ic.rho22(x))
        if isinstance(ic, UniformMixture):
            mass = sum(w for w, rho in zip((ic.p, 1.0 - ic.p), populations) if rho.any())
        else:
            mass = 2.0 * float(np.trapezoid(populations[0] + populations[1], x))
        assert math.isclose(ic.tail_mass(half_width), mass, rel_tol=1e-7, abs_tol=1e-15)

    def test_plateau_tail_weighs_each_plateau(self):
        # each plateau's tail counts with its weight: the wide one below 1e-8
        # no longer widens the grid, as a light wide Gaussian or Laplace does not
        ic = UniformMixture(p=1.0 - 1e-9, a=1.0, b=3.0)
        assert ic.tail_mass(0.5) == 1.0
        assert math.isclose(ic.tail_mass(2.0), 1.0 - ic.p)
        assert ic.tail_mass(3.0) == 0.0
        assert tail_half_width(ic) == pytest.approx(1.0)
        assert tail_half_width(UniformMixture(p=0.75, a=3.0, b=2.0)) == pytest.approx(3.0)

    @pytest.mark.parametrize("half_width, message", [
        # 0.75 (3 - 2.5)/3 of the density lies beyond +-2.5, not the indicator's 0.75
        (2.5, "cuts the plateau of half-width 3: 1.250e-01 of the density lies beyond +-2.5"),
        # 0.75 (3 - 1.5)/3 + 0.25 (2 - 1.5)/2
        (1.5, "cuts the plateaus of half-widths 3 and 2: 4.375e-01 of the density lies beyond +-1.5"),
    ])
    def test_refusal_names_the_cut_plateau(self, half_width, message):
        with pytest.raises(errors.DomainTooNarrow, match=re.escape(message)):
            sample_initial(UniformMixture(p=0.75, a=3.0, b=2.0), SpatialGrid(half_width, 256))

    @pytest.mark.parametrize("ic, feature", [
        (GaussianMixture(p=0.75, sigma1=3.0, sigma2=2.0), 2.0),
        (GaussianCoherent(p=0.75, mu=0.8, k=1.0, sigma=1.0), 1.0),
        (GaussianCoherent(p=0.75, mu=0.8, k=-4.0, sigma=2.0), math.pi / 2.0),  # the wavelength
        (GaussianCoherent(p=0.75, mu=0.8, k=0.0, sigma=2.0), 2.0),
        (LaplaceMixture(p=0.25, a=3.0, b=2.0), 2.0),
        (UniformMixture(p=0.75, a=3.0, b=2.0), 2.0),
        (LaplaceCoherent(p=0.25, r=0.5, q=-0.5, scale=10.0), 10.0),
    ], ids=lambda v: type(v).__name__ if not isinstance(v, float) else "")
    def test_min_feature(self, ic, feature):
        assert ic.min_feature() == feature


class TestGridPlanning:
    def test_tail_rule_fits_drift_and_diffusion(self):
        ic = GaussianMixture(p=0.75, sigma1=1.0, sigma2=2.0)
        p = Params(gamma_p=1e-3, gamma_z=1e-3, delta=1e-2)
        t_max = 200.0
        g = plan_grid(ic, p, t_max)
        need = tail_half_width(ic) + 2 * p.delta * t_max + 6 * math.sqrt(4 * p.gamma_p * t_max)
        assert g.half_width >= need
        assert ic.tail_mass(g.half_width) < 1e-8

    def test_zero_t_max_resolves_the_initial_feature(self):
        # at t_max = 0 there is no diffusion width; the initial feature alone sets dx
        ic = GaussianMixture(p=0.75, sigma1=1.0, sigma2=2.0)
        g = plan_grid(ic, Params(gamma_p=1e-3, gamma_z=1e-3, delta=1e-2), 0.0)
        assert g.n_points == 256
        assert g.dx <= ic.min_feature() / 8.0

    def test_capped_grid_that_cannot_resolve_raises(self, monkeypatch):
        ic = GaussianMixture(p=0.75, sigma1=1.0, sigma2=2.0)
        p = Params(gamma_p=1e-3, gamma_z=1e-3, delta=1e-2)
        assert plan_grid(ic, p, 1e11).n_points == 1 << 21  # capped, still 8 nodes per width

        def no_grid(*args, **kwargs):
            raise AssertionError("SpatialGrid built for a grid plan_grid refuses")

        monkeypatch.setattr(core, "SpatialGrid", no_grid)  # refused before any allocation
        with pytest.raises(errors.GridUnderResolved):
            plan_grid(ic, p, 1e300)

    def test_tail_half_width_bisection(self):
        ic = LaplaceMixture(p=0.25, a=1.0, b=2.0)
        w = tail_half_width(ic)
        assert ic.tail_mass(w) <= 1e-8 < ic.tail_mass(0.99 * w)

    @pytest.mark.parametrize("name", ["FIG1_IC", "FIG2_IC", "FIG3_IC", "FIG6_RIGHT_IC", "FIG4_RIGHT_IC"])
    def test_tail_half_width_stops_at_adjacent_doubles(self, name, monkeypatch):
        # the full 200-halving bisection gives the same bits: once lo and hi
        # are adjacent no midpoint moves either; the early stop evaluates
        # the tail about 53 times past the doubling, not 200
        from oqbm import validate
        ic = getattr(validate, name)
        lo, hi = 0.0, 1.0
        while ic.tail_mass(hi) > core.DEFAULT_EPS_TAIL:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if ic.tail_mass(mid) > core.DEFAULT_EPS_TAIL:
                lo = mid
            else:
                hi = mid
        calls = []
        tail_mass = type(ic).tail_mass
        monkeypatch.setattr(type(ic), "tail_mass", lambda self, x: calls.append(x) or tail_mass(self, x))
        assert tail_half_width(ic) == hi
        assert len(calls) < 80


class TestInitialSpectrum:
    @pytest.mark.parametrize("ic", [
        GaussianMixture(p=0.75, sigma1=1.0, sigma2=2.0),
        GaussianCoherent(p=0.75, mu=0.8, k=1.0, sigma=1.0),
        LaplaceMixture(p=0.25, a=1.0, b=2.0),
        UniformMixture(p=0.75, a=3.0, b=2.0),
        LaplaceCoherent(p=0.25, r=0.5, q=-0.5, scale=10.0),
    ], ids=lambda ic: type(ic).__name__)
    def test_matches_fft_of_samples(self, ic):
        g = SpatialGrid(256.0, 1 << 16)
        b = sample_initial(ic, g)
        hat = initial_spectrum(ic, g.fourier_nodes)
        sampled = [
            g.forward_transform(b.rho_plus),
            g.forward_transform(b.c_i),
            g.forward_transform(b.rho_minus),
            g.forward_transform(b.c_r),
        ]
        # compare on low frequencies where the sampled transform is accurate
        low = np.abs(g.fourier_nodes) < 3.0
        for closed, fft_side in zip(hat, sampled):
            assert np.max(np.abs(closed[low] - fft_side[low])) < 2e-4

    def test_zero_frequency_is_total_mass(self):
        ic = LaplaceCoherent(p=0.25, r=0.5, q=-0.5, scale=10.0)
        plus, ci, minus, cr = initial_spectrum(ic, np.array([0.0]))
        assert math.isclose(plus[0], 1.0)
        assert math.isclose(minus[0], 2 * 0.25 - 1.0)
        amp = math.sqrt(0.25 * 0.75)
        assert math.isclose(complex(ci[0]).real, -0.5 * amp)
        assert math.isclose(cr[0], 0.5 * amp)
