import math

import numpy as np
import pytest
import scipy.special
from mpmath import mp

from oqbm import specfun as sf
from oqbm.core import Params
from oqbm.errors import NegativeArgument, NonPositiveTime, WrongRegime

mp.dps = 30

DRIVEN = Params(gamma_p=1e-2, delta=1e-1, omega=1e-2)


class TestErf:
    def test_pinned_values(self):
        assert sf.erfc(0.0) == 1.0
        assert abs(sf.erfc(1.0) - 0.15729920705028513) < 1e-16

    def test_reflection(self):
        for x in (0.3, 1.7, 4.0):
            assert abs(sf.erfc(-x) + sf.erfc(x) - 2.0) < 1e-15

    def test_against_mpmath(self, rng):
        xs = np.concatenate([rng.uniform(-6, 6, 200), rng.uniform(-26, 26, 100),
                             [0.46875, -0.46875, 4.0, -4.0]])
        for x in xs:
            ref_c = float(mp.erfc(x))
            assert abs(sf.erfc(x) - ref_c) <= 1e-14 * max(abs(ref_c), 1e-300)
            # heat_uniform takes scipy's erf itself, so its accuracy is pinned here
            ref = float(mp.erf(x))
            assert abs(scipy.special.erf(x) - ref) <= 1e-14 * max(abs(ref), 1e-18)

    def test_infinite_arguments(self):
        # exp(-x^2) must not be formed as exp(-inf) * exp(-(inf - inf) * inf)
        assert sf.erfc(math.inf) == 0.0
        assert sf.erfc(-math.inf) == 2.0
        assert math.isnan(sf.erfc(math.nan))
        x = np.array([math.inf, -math.inf, math.nan, 0.5, -3.0, 40.0])
        out = sf.erfc(x)
        assert out[0] == 0.0 and out[1] == 2.0 and math.isnan(out[2])
        assert np.array_equal(out[3:], [sf.erfc(0.5), sf.erfc(-3.0), 0.0])

    def test_erfcx_scaled_form(self, rng):
        # scipy's erfcx, on which erfc and scaled_erfc_product rest
        for x in rng.uniform(0.0, 50.0, 200):
            ref = float(mp.exp(mp.mpf(x) ** 2) * mp.erfc(mp.mpf(x)))
            assert abs(scipy.special.erfcx(x) - ref) <= 1e-13 * ref

    def test_scaled_product_no_overflow(self):
        # b < 0 is each kernel's own reflection (_erfc_pair), so it is refused
        b = -30.0
        with pytest.raises(NegativeArgument):
            sf.scaled_erfc_product(-(b * b) - 5.0, np.array([b]))
        # large positive b: erfcx decay, no underflow surprises
        big = sf.scaled_erfc_product(0.0, np.array([1e4]))
        assert abs(big[0] - 1.0 / (1e4 * math.sqrt(math.pi))) < 1e-9


class TestBessel:
    def test_pinned_values(self):
        assert sf.bessel_j0(0.0) == 1.0
        assert sf.bessel_j1(0.0) == 0.0
        assert abs(sf.bessel_j0(2.404825557695773)) < 1e-12

    def test_against_mpmath_wide_range(self, rng):
        zs = np.concatenate([rng.uniform(0, 10, 150), rng.uniform(10, 1e4, 150),
                             [4.999999, 5.0, 5.000001]])
        for z in zs:
            assert abs(sf.bessel_j0(z) - float(mp.besselj(0, z))) < 1e-12
            assert abs(sf.bessel_j1(z) - float(mp.besselj(1, z))) < 1e-12

    def test_negative_argument_rejected(self):
        with pytest.raises(NegativeArgument):
            sf.bessel_j0(-1.0)
        with pytest.raises(NegativeArgument):
            sf.bessel_j1(np.array([1.0, -2.0]))

    def test_j1_over_z_limit(self):
        assert sf.bessel_j1_over_z(0.0) == 0.5
        z = 1e-5
        assert abs(sf.bessel_j1_over_z(z) - sf.bessel_j1(z) / z) < 1e-15


class TestHeatKernel:
    def test_peak_value(self):
        t, gp = 3.0, 0.7
        assert math.isclose(sf.heat_kernel(t, 0.0, gp), 1.0 / (2 * math.sqrt(2 * math.pi * gp * t)))

    def test_pinned_point(self):
        # variance 4 at t=1, gamma_p=1: value e^{-1/2} / (2 sqrt(2 pi))
        assert math.isclose(sf.heat_kernel(1.0, 2.0, 1.0),
                            math.exp(-0.5) / (2 * math.sqrt(2 * math.pi)), rel_tol=1e-15)

    def test_unit_mass(self):
        x = np.linspace(-60, 60, 200001)
        m = np.trapezoid(sf.heat_kernel(7.0, x, 0.5), x)
        assert abs(m - 1.0) < 1e-10

    def test_rejects_nonpositive_time(self):
        with pytest.raises(NonPositiveTime):
            sf.heat_kernel(0.0, 1.0, 1.0)


class TestHeatUniform:
    @pytest.mark.parametrize("t, a", [(50.0, 3.0), (200.0, 3.0), (200.0, 2.0)])
    def test_tails_against_mpmath(self, t, a):
        # fig3's rate and plateaus, out to 12 diffusion widths s beyond the
        # edge; erf(hi) - erf(lo) read 0.0 at x = 12 for t = 200, a = 3, where
        # the value is 6.8e-25
        gp = 1e-3
        s = 2.0 * math.sqrt(2.0 * gp * t)
        x = np.linspace(-(a + 12.0 * s), a + 12.0 * s, 121)
        got = sf.heat_uniform(t, x, gp, a)
        eps = np.finfo(float).eps
        with mp.workdps(40):
            s_exact = 2 * mp.sqrt(2 * mp.mpf(gp) * mp.mpf(t))
            for xv, v in zip(x, got):
                ax = abs(mp.mpf(xv))
                ref = (mp.erfc((ax - a) / s_exact) - mp.erfc((ax + a) / s_exact)) / (4 * a)
                # beyond the edge erfc(lo), lo = (|x| - a)/s, has relative
                # condition 2 lo^2 in lo, which carries the rounding of s
                lo = max((abs(xv) - a) / s, 0.0)
                assert abs(v - ref) <= 16 * eps * (1 + lo * lo) * ref, xv

    def test_even_in_x(self):
        x = np.linspace(0.0, 20.0, 81)
        assert np.array_equal(sf.heat_uniform(200.0, x, 1e-3, 3.0),
                              sf.heat_uniform(200.0, -x, 1e-3, 3.0))


_TAIL_X = np.array([0.3, 1.0, 3.0, 10.0, 30.0, 60.0, 100.0, 200.0, 300.0])
_TAIL_X = np.concatenate((-_TAIL_X[::-1], _TAIL_X))


def _laplace_halves(t, x, gp, c):
    """exp(c^2 v/2 -/+ c x) erfc((c v -/+ x)/s), v = 4 gp t, s = sqrt(2 v), in
    mpmath from the exact double inputs: the Laplace-smoothed halves times 4/c."""
    v = 4 * gp * t
    s = mp.sqrt(2 * v)
    return tuple(mp.exp(c * c * v / 2 + sign * c * x) * mp.erfc((c * v + sign * x) / s)
                 for sign in (-1, 1))


class TestLaplaceTails:
    """Laplace-smoothed kernels stay accurate relative to themselves in the
    tails: the conditioning of exp(-c|x|) is c|x| eps.  The exponent of each
    b < 0 half used to be the sum of two terms of size x^2/(2v), which cost
    up to 2500 eps (1 + c|x|) at fig4's rates."""

    @staticmethod
    def assert_within_conditioning(got, ref, c, x):
        eps = np.finfo(float).eps
        for g, r, xv in zip(got, ref, x):
            assert abs(g - float(r)) <= 8 * eps * (1 + c * abs(xv)) * abs(float(r)), xv

    @pytest.mark.parametrize("t, gp, c", [(50.0, 1e-3, 1.0), (200.0, 1e-3, 0.5), (25.0, 1e-2, 0.1)])
    def test_heat_laplace(self, t, gp, c):
        with mp.workdps(50):
            ref = [c / 4 * sum(_laplace_halves(mp.mpf(t), mp.mpf(xv), mp.mpf(gp), mp.mpf(c)))
                   for xv in _TAIL_X]
        self.assert_within_conditioning(sf.heat_laplace(t, _TAIL_X, gp, c), ref, c, _TAIL_X)

    @pytest.mark.parametrize("t, p", [(25.0, DRIVEN), (100.0, DRIVEN),
                                      (50.0, Params(gamma_p=1e-3, delta=1.0, omega=1.0))])
    def test_driven_kernels(self, t, p):
        kernels = sf.DrivenKernels(t, _TAIL_X, p)
        c = p.omega / p.delta
        refs = []
        with mp.workdps(50):
            t_, gp, dl, om = (mp.mpf(v) for v in (t, p.gamma_p, p.delta, p.omega))
            for xv in _TAIL_X:
                x = mp.mpf(xv)
                tm, tp = _laplace_halves(t_, x, gp, om / dl)
                gauss = om**2 / dl**2 * mp.sqrt(gp * t_ / (2 * mp.pi)) * mp.exp(-x * x / (8 * gp * t_))
                refs.append((
                    om / dl / 4 * (tm + tp),
                    om / dl / 4 * (tm - tp),
                    -om / (8 * dl**3) * ((4 * om**2 * gp * t_ - dl**2 - om * dl * x) * tm
                                         + (4 * om**2 * gp * t_ - dl**2 + om * dl * x) * tp) + gauss,
                    om**2 / (8 * dl**3) * ((4 * om * gp * t_ + dl * x) * tp
                                           - (4 * om * gp * t_ - dl * x) * tm),
                ))
        for got, ref in zip((kernels.h_plus(), kernels.h_minus(), kernels.phi_plus(),
                             kernels.phi_minus()), zip(*refs)):
            self.assert_within_conditioning(got, ref, c, _TAIL_X)


def _trapezoid_inverse_ft(symbol_fn, x, xi_max=60.0, n=400001):
    xi = np.linspace(-xi_max, xi_max, n)
    vals = symbol_fn(xi)
    out = np.empty_like(np.asarray(x, dtype=float))
    for i, xv in enumerate(np.atleast_1d(x)):
        out[i] = np.trapezoid(vals * np.cos(xi * xv), xi) / (2 * math.pi)
    return out


class TestDrivenKernels:
    def test_h_parity(self, rng):
        x = rng.uniform(0, 200, 64)
        for t in (1.0, 25.0, 400.0):
            assert np.max(np.abs(sf.h_plus(t, x, DRIVEN) - sf.h_plus(t, -x, DRIVEN))) < 1e-15
            assert np.max(np.abs(sf.h_minus(t, x, DRIVEN) + sf.h_minus(t, -x, DRIVEN))) < 1e-15
            assert abs(sf.h_minus(t, 0.0, DRIVEN)) == 0.0

    def test_h_plus_matches_spectral_representation(self):
        # h+ is the inverse transform of 4 om^2 / w(xi)^2 * exp(-2 gp t xi^2)
        p, t = DRIVEN, 1.0
        x = np.array([0.0, 0.5, 2.0, 10.0])

        def sym(xi):
            w2 = 4 * (p.delta**2 * xi**2 + p.omega**2)
            return 4 * p.omega**2 / w2 * np.exp(-2 * p.gamma_p * t * xi**2)

        ref = _trapezoid_inverse_ft(sym, x)
        assert np.max(np.abs(sf.h_plus(t, x, p) - ref)) < 1e-8

    def test_h_minus_matches_spectral_representation(self):
        # h- is the inverse transform of 4 om delta xi / (i w(xi)^2) e^{-2 gp t xi^2}
        p, t = DRIVEN, 25.0
        x = np.array([0.5, 2.0, 10.0, 40.0])
        xi = np.linspace(-60, 60, 400001)
        w2 = 4 * (p.delta**2 * xi**2 + p.omega**2)
        spec = 4 * p.omega * p.delta * xi / w2 * np.exp(-2 * p.gamma_p * t * xi**2)
        # odd imaginary symbol: the inverse transform is a sine integral
        ref = np.array([np.trapezoid(spec * np.sin(xi * xv), xi) / (2 * math.pi) for xv in x])
        assert np.max(np.abs(sf.h_minus(t, x, p) - ref)) < 1e-8

    def test_phi_matches_spectral_representation(self):
        # phi+/- carry one more Laplace factor 4 om^2 / w(xi)^2 in the symbol
        p, t = DRIVEN, 25.0
        x = np.array([0.0, 1.5, 8.0, 30.0])
        xi = np.linspace(-60, 60, 400001)
        w2 = 4 * (p.delta**2 * xi**2 + p.omega**2)
        lap_hat = 4 * p.omega**2 / w2
        decay = np.exp(-2 * p.gamma_p * t * xi**2)
        even = lap_hat**2 * decay
        odd = lap_hat * (4 * p.omega * p.delta * xi / w2) * decay
        ref_p = np.array([np.trapezoid(even * np.cos(xi * xv), xi) / (2 * math.pi) for xv in x])
        ref_m = np.array([np.trapezoid(odd * np.sin(xi * xv), xi) / (2 * math.pi) for xv in x])
        assert np.max(np.abs(sf.phi_plus(t, x, p) - ref_p)) < 1e-8
        assert np.max(np.abs(sf.phi_minus(t, x, p) - ref_m)) < 1e-8

    def test_h_plus_large_time_stays_finite(self):
        # naive prefactor exp(2 om^2 gp t / d^2) overflows near t ~ 1e5 here
        p = Params(gamma_p=1.0, delta=1e-2, omega=1.0)
        vals = sf.h_plus(1e4, np.array([0.0, 1.0, 1e3]), p)
        assert np.all(np.isfinite(vals)) and np.all(vals >= 0)

    def test_degenerate_params_rejected(self):
        with pytest.raises(WrongRegime):
            sf.h_plus(1.0, 0.0, Params(gamma_p=1.0, delta=0.0, omega=1.0))
        with pytest.raises(WrongRegime):
            sf.phi_minus(1.0, 0.0, Params(gamma_p=1.0, delta=1.0, omega=0.0))

    def test_phi_matches_grid_convolution(self):
        p, t = DRIVEN, 25.0
        L, n = 800.0, 1 << 17
        x = np.linspace(-L, L, n, endpoint=False)
        dx = x[1] - x[0]
        c = p.omega / p.delta
        f_l = 0.5 * c * np.exp(-c * np.abs(x))
        hp = sf.h_plus(t, x, p)
        hm = sf.h_minus(t, x, p)
        conv_p = np.fft.irfft(np.fft.rfft(hp) * np.fft.rfft(np.fft.ifftshift(f_l)), n) * dx
        conv_m = np.fft.irfft(np.fft.rfft(hm) * np.fft.rfft(np.fft.ifftshift(f_l)), n) * dx
        sel = np.abs(x) < 100.0
        assert np.max(np.abs(sf.phi_plus(t, x, p)[sel] - conv_p[sel])) < 1e-8
        assert np.max(np.abs(sf.phi_minus(t, x, p)[sel] - conv_m[sel])) < 1e-8

    def test_phi_plus_parity_and_gaussian_term(self):
        p, t = Params(gamma_p=1.0, delta=1.0, omega=1.0), 1.0
        x = np.linspace(-5, 5, 41)
        php = sf.phi_plus(t, x, p)
        assert np.max(np.abs(php - php[::-1])) < 1e-14
        assert abs(sf.phi_minus(t, 0.0, p)) == 0.0


class TestConeKernels:
    def test_support(self):
        t = 25.0
        cone = 2 * DRIVEN.delta * t
        x = np.array([-cone * 1.5, -cone, 0.0, 0.5 * cone, cone, 2.5 * cone])
        k0 = sf.kg_kernel_0(t, x, DRIVEN)
        assert k0[0] == 0.0 and k0[1] == 0.0 and k0[-1] == 0.0 and k0[-2] == 0.0
        assert k0[2] > 0.0

    def test_small_driving_limit(self):
        # J0(0) = 1, so kappa0 -> 1/(4 delta) inside the cone
        p = Params(gamma_p=1e-2, delta=1e-1, omega=1e-12)
        t = 10.0
        inside = np.linspace(-1.9, 1.9, 11)
        assert np.max(np.abs(sf.kg_kernel_0(t, inside, p) - 1 / (4 * p.delta))) < 1e-12

    def test_kappa1_boundary_limit_and_deltas(self):
        t = 25.0
        cone = 2 * DRIVEN.delta * t
        ks = sf.kg_kernel_1(t, np.array([cone, -cone]), DRIVEN)
        limit = -t * DRIVEN.omega**2 / (2 * DRIVEN.delta)
        assert np.max(np.abs(ks.values - limit)) < 1e-14
        assert ks.delta_shifts == ((cone, 0.5), (-cone, 0.5))

    def test_masses(self):
        # integral k0 = sin(2 om t)/(2 om); integral k1 (with deltas) = cos(2 om t)
        p, t = DRIVEN, 25.0
        cone = 2 * p.delta * t
        theta, w = np.polynomial.legendre.leggauss(800)
        theta = 0.5 * math.pi * (theta + 1)
        w = 0.5 * math.pi * w
        y = cone * np.cos(theta)
        jac = cone * np.sin(theta)
        m0 = float(np.sum(w * jac * sf.kg_kernel_0(t, y, p)))
        assert abs(m0 - math.sin(2 * p.omega * t) / (2 * p.omega)) < 1e-12
        k1 = sf.kg_kernel_1(t, y, p)
        m1 = float(np.sum(w * jac * k1.values)) + 1.0
        assert abs(m1 - math.cos(2 * p.omega * t)) < 1e-12

    def test_kappa1_is_time_derivative_of_kappa0(self):
        # distributional check against a smooth compactly supported test function
        p, t = DRIVEN, 25.0

        def bump(x):
            x = np.asarray(x, dtype=float)
            r = x / 30.0
            out = np.zeros_like(x)
            ok = np.abs(r) < 1.0
            out[ok] = np.exp(-1.0 / (1.0 - r[ok] ** 2))
            return out

        theta, w = np.polynomial.legendre.leggauss(600)
        theta = 0.5 * math.pi * (theta + 1)
        w = 0.5 * math.pi * w

        def pair_k0(tt):
            cone = 2 * p.delta * tt
            y = cone * np.cos(theta)
            return float(np.sum(w * cone * np.sin(theta) * sf.kg_kernel_0(tt, y, p) * bump(y)))

        def pair_k1(tt):
            cone = 2 * p.delta * tt
            y = cone * np.cos(theta)
            smooth = float(np.sum(w * cone * np.sin(theta) * sf.kg_kernel_1(tt, y, p).values * bump(y)))
            return smooth + 0.5 * (bump(cone) + bump(-cone))

        exact = pair_k1(t)
        errs = []
        for dt in (0.2, 0.1):
            central = (pair_k0(t + dt) - pair_k0(t - dt)) / (2 * dt)
            errs.append(abs(central - exact))
        assert errs[0] < 1e-4
        # central difference converges at second order
        assert errs[1] < errs[0] / 3.2

    def test_kappa0_solves_wave_equation_inside_cone(self):
        # residual of u_tt - 4 d^2 u_xx + 4 om^2 u by central differences
        p, t = DRIVEN, 25.0
        h = 1e-3
        x = np.linspace(-0.6 * 2 * p.delta * t, 0.6 * 2 * p.delta * t, 41)
        u_tt = (sf.kg_kernel_0(t + h, x, p) - 2 * sf.kg_kernel_0(t, x, p)
                + sf.kg_kernel_0(t - h, x, p)) / h**2
        u_xx = (sf.kg_kernel_0(t, x + h, p) - 2 * sf.kg_kernel_0(t, x, p)
                + sf.kg_kernel_0(t, x - h, p)) / h**2
        residual = u_tt - 4 * p.delta**2 * u_xx + 4 * p.omega**2 * sf.kg_kernel_0(t, x, p)
        assert np.max(np.abs(residual)) < 1e-6

    def test_rejects_nonpositive_time(self):
        with pytest.raises(NonPositiveTime):
            sf.kg_kernel_0(0.0, 0.0, DRIVEN)
