import math

import mpmath
import numpy as np
import pytest

from oqbm import delta0, oracle, spectral
from oqbm.core import (
    GaussianCoherent,
    GaussianMixture,
    LaplaceMixture,
    Params,
    SpatialGrid,
    UniformMixture,
)
from oqbm.errors import WrongRegime

UNDER = Params(gamma_p=1e-3, gamma_z=1e-3, delta=0.0, omega=1e-2)
FIG6_LEFT = GaussianMixture(p=0.75, sigma1=2.0, sigma2=1.0)
FIG6_RIGHT = GaussianCoherent(p=0.75, mu=0.8, k=1.0, sigma=1.0)
# (gamma_z, omega, t) with w t > 710: cosh(w t) and sinh(w t) overflow a float
OVERDAMPED_LONG = [(1.0, 1e-2, 1e3), (0.1, 1e-3, 8e3), (0.5, 0.1, 2e3), (10.0, 1.0, 1e4),
                   (8.88, 0.0563, 1189.5), (0.464, 0.0114, 9680.0)]


def _expm_block(gz, om, t):
    """exp(tM) of the (c_i, rho_minus) block, to 50 digits."""
    with mpmath.workdps(50):
        e = mpmath.expm(mpmath.mpf(t) * mpmath.matrix([[-2 * mpmath.mpf(gz), om], [-4 * mpmath.mpf(om), 0]]))
        return np.array([[float(e[i, j]) for j in range(2)] for i in range(2)])


class TestRegimes:
    def test_classification(self):
        # only the underdamped regime (gamma_z < 2 omega) has imbalance zeros
        for gz in (4e-2, 2e-2):  # over, critical
            with pytest.raises(WrongRegime, match="underdamped"):
                delta0.imbalance_zeros(Params(1, gz, 0, 1e-2), 1)
        assert delta0.imbalance_zeros(Params(1, 1e-2, 0, 1e-2), 1).shape == (1,)

    def test_omega_pm_value(self):
        # the underdamped block oscillates at w = sqrt(4 omega^2 - gamma_z^2)
        w, gz, om = math.sqrt(4e-4 - 1e-6), UNDER.gamma_z, UNDER.omega
        for t in (1.0, 81.0, 500.0):
            m = delta0.internal_matrix(UNDER, t)
            damp, s = math.exp(-gz * t), math.exp(-gz * t) * math.sin(w * t) / w
            assert abs(m[2, 2] - (damp * math.cos(w * t) + gz * s)) < 1e-14, t
            assert abs(m[1, 2] - om * s) < 1e-14, t

    def test_internal_matrix_matches_expm(self, rng):
        draws = [(*rng.uniform(1e-3, 0.3, 2), float(rng.uniform(0.5, 60.0))) for _ in range(40)]
        near_critical = [(2 * om * (1 + e), om, t) for e in (1e-12, -1e-12, 3e-10, -3e-10, 1.5e-9, -1.5e-9)
                         for om in (1e-2, 1.0) for t in (1.0, 100.0, 1e4)]
        # the draws' phases w t reach about 35, so rounding w costs them up to ~1e-15 more
        for cases, tol in ((draws, 1e-14), (OVERDAMPED_LONG + near_critical, 1e-15)):
            for gz, om, t in cases:
                m = delta0.internal_matrix(Params(1e-3, gz, 0.0, om), t)
                assert np.max(np.abs(m[1:, 1:] - _expm_block(gz, om, t))) < tol, (gz, om, t)
                assert m[0, 0] == 1.0
        for gz in (1e-3, 2e-2, 1.0):  # under, critical, over
            assert np.array_equal(delta0.internal_matrix(Params(1e-3, gz, 0.0, 1e-2), 0.0), np.eye(3))

    def test_continuity_across_critical_line(self):
        for om in (1e-2, 1.0):
            for t in (1.0, 25.0, 100.0, 1e4):
                critical = delta0.internal_matrix(Params(1e-3, 2 * om, 0.0, om), t)
                for eps in (1e-5, 1e-6, 1e-7, 1.5e-9, 3e-10, 1e-12):
                    over = delta0.internal_matrix(Params(1e-3, 2 * om * (1 + eps), 0.0, om), t)
                    under = delta0.internal_matrix(Params(1e-3, 2 * om * (1 - eps), 0.0, om), t)
                    gap = np.max(np.abs(over - under))
                    assert gap < 20.0 * eps, (om, t, eps)
                    assert np.max(np.abs(over - critical)) < 20.0 * eps, (om, t, eps)

    def test_small_driving_limit_is_undriven_matrix(self):
        p = Params(1e-3, 5e-2, 0.0, 1e-9)
        t = 30.0
        m = delta0.internal_matrix(p, t)
        assert abs(m[1, 1] - math.exp(-2 * p.gamma_z * t)) < 1e-6
        assert abs(m[2, 2] - 1.0) < 1e-6


class TestGreen:
    def test_wrong_regime(self):
        with pytest.raises(WrongRegime):
            delta0.green_delta0(Params(1e-3, 0, 1e-2, 0), 1.0, np.zeros(3))

    def test_matches_spectral_all_regimes(self):
        t = 25.0
        for gz in (1e-2, 2e-2, 4e-2):
            p = Params(gamma_p=1e-3, gamma_z=gz, delta=0.0, omega=1e-2)
            grid = SpatialGrid(8.0, 2048)
            G = spectral.green_function(p, t, grid)
            Gc = delta0.green_delta0(p, t, grid.nodes)
            err = np.max(np.abs(G - Gc))
            assert err < 1e-8, (gz, err)


class TestImbalanceZeros:
    def test_printed_first_zero(self):
        taus = delta0.imbalance_zeros(UNDER, 1)
        ref = 1000 * math.sqrt(399) / 399 * (math.pi / 2 + math.atan(1 / math.sqrt(399)))
        assert abs(taus[0] - ref) / ref < 1e-15
        assert abs(taus[0] - 81.1423506200) / 81.1423506200 < 1e-8

    def test_spacing_is_half_period(self):
        taus = delta0.imbalance_zeros(UNDER, 6)
        w = math.sqrt(4e-4 - 1e-6)
        assert np.max(np.abs(np.diff(taus) - math.pi / w)) < 1e-9

    def test_imbalance_vanishes_at_every_zero(self):
        grid = SpatialGrid(32.0, 1024)
        taus = delta0.imbalance_zeros(UNDER, 4)
        scale = np.max(np.abs(delta0.solve(UNDER, FIG6_LEFT, 50.0, grid).rho_minus))
        for tau in taus:
            q = delta0.solve(UNDER, FIG6_LEFT, float(tau), grid).rho_minus
            assert np.max(np.abs(q)) < 1e-12 * scale

    def test_overdamped_has_no_zeros(self):
        with pytest.raises(WrongRegime):
            delta0.imbalance_zeros(Params(1e-3, 4e-2, 0.0, 1e-2), 3)


class TestImbalance:
    def test_zero_for_balanced_diagonal_data(self):
        ic = GaussianMixture(p=0.5, sigma1=1.0, sigma2=1.0)
        grid = SpatialGrid(8.0, 64)
        assert np.max(np.abs(delta0.solve(UNDER, ic, 35.0, grid).rho_minus)) == 0.0

    def test_coherent_reduces_to_mixture_as_k_vanishes(self):
        grid = SpatialGrid(20.0, 256)
        tiny_k = GaussianCoherent(p=0.75, mu=0.8, k=1e-280, sigma=1.0)
        same_sigma = GaussianMixture(p=0.75, sigma1=1.0, sigma2=1.0)
        got = delta0.solve(UNDER, tiny_k, 50.0, grid).rho_minus
        ref = delta0.solve(UNDER, same_sigma, 50.0, grid).rho_minus
        assert np.max(np.abs(got - ref)) < 1e-15

    def test_coherent_term_breaks_the_zeros(self):
        tau = float(delta0.imbalance_zeros(UNDER, 1)[0])
        grid = SpatialGrid(20.0, 512)
        q = delta0.solve(UNDER, FIG6_RIGHT, tau, grid).rho_minus
        assert np.max(np.abs(q)) > 1e-4

    def test_against_fd_oracle(self):
        grid = SpatialGrid(32.0, 2048)
        t = 100.0
        fd = oracle.fd_integrate(UNDER, FIG6_RIGHT, t, grid, richardson=False)
        q = delta0.solve(UNDER, FIG6_RIGHT, t, grid).rho_minus
        assert np.max(np.abs(fd.field.rho_minus - q)) < 1e-5


class TestDensityAndSolve:
    def test_density_is_driftless_heat_spread(self):
        x = np.linspace(-20, 20, 201)
        t = 100.0
        rho11, rho22, _ = FIG6_LEFT.heat(t, x, UNDER.gamma_p)
        P = rho11 + rho22
        v1 = FIG6_LEFT.sigma1**2 + 4 * UNDER.gamma_p * t
        v2 = FIG6_LEFT.sigma2**2 + 4 * UNDER.gamma_p * t
        ref = (0.75 * np.exp(-x**2 / (2 * v1)) / math.sqrt(2 * math.pi * v1)
               + 0.25 * np.exp(-x**2 / (2 * v2)) / math.sqrt(2 * math.pi * v2))
        assert np.max(np.abs(P - ref)) < 1e-15

    def test_density_matches_fd(self):
        grid = SpatialGrid(32.0, 2048)
        t = 100.0
        fd = oracle.fd_integrate(UNDER, FIG6_LEFT, t, grid, richardson=False)
        P = delta0.solve(UNDER, FIG6_LEFT, t, grid).rho_plus
        assert np.max(np.abs(fd.field.rho_plus - P)) < 1e-5

    def test_density_mass(self):
        grid = SpatialGrid(32.0, 2048)
        for ic in (FIG6_LEFT, LaplaceMixture(p=0.3, a=1.0, b=0.5),
                   UniformMixture(p=0.4, a=2.0, b=1.0)):
            for t in (20.0, 150.0):
                P = delta0.solve(UNDER, ic, t, grid).rho_plus
                assert abs(grid.trapezoid(P) - 1.0) < 1e-8

    @pytest.mark.parametrize("gz", [1e-2, 2e-2, 4e-2], ids=["under", "critical", "over"])
    def test_solve_matches_spectral(self, gz):
        p = Params(gamma_p=1e-3, gamma_z=gz, delta=0.0, omega=1e-2)
        grid = SpatialGrid(32.0, 2048)
        u = delta0.solve(p, FIG6_RIGHT, 60.0, grid)
        us = spectral.solve(p, FIG6_RIGHT, 60.0, grid)
        for name in ("rho_plus", "c_i", "rho_minus", "c_r"):
            assert np.max(np.abs(getattr(u, name) - getattr(us, name))) < 1e-8

    @pytest.mark.parametrize("ic", [
        LaplaceMixture(p=0.3, a=1.0, b=0.5),
        UniformMixture(p=0.4, a=2.0, b=1.0),
    ], ids=["laplace", "uniform"])
    def test_solve_nongaussian_mixtures_match_spectral(self, ic):
        grid = SpatialGrid(32.0, 4096)
        u = delta0.solve(UNDER, ic, 80.0, grid)
        us = spectral.solve(UNDER, ic, 80.0, grid)
        for name in ("rho_plus", "c_i", "rho_minus"):
            assert np.max(np.abs(getattr(u, name) - getattr(us, name))) < 1e-8
