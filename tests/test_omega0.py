import math

import numpy as np
import pytest

from oqbm import omega0, oracle, specfun as sf, spectral
from oqbm.core import (
    GaussianCoherent,
    GaussianMixture,
    LaplaceCoherent,
    LaplaceMixture,
    Params,
    SpatialGrid,
    UniformMixture,
    sample_initial,
    to_bloch,
)
from oqbm.errors import NonPositiveTime, WrongRegime

RATES = Params(gamma_p=1e-3, gamma_z=1e-3, delta=1e-2, omega=0.0)
GAUSS = GaussianMixture(p=0.75, sigma1=1.0, sigma2=2.0)
LAPL = LaplaceMixture(p=0.25, a=1.0, b=2.0)
UNIF = UniformMixture(p=0.75, a=3.0, b=2.0)


class TestGreen:
    def test_wrong_regime(self):
        with pytest.raises(WrongRegime):
            omega0.green_omega0(Params(1e-3, 0, 0, 1e-2), 1.0, np.zeros(3))

    def test_reduces_to_heat_kernel_without_drift(self):
        p = Params(gamma_p=1e-3, gamma_z=2e-3, delta=0.0, omega=0.0)
        x = np.linspace(-5, 5, 101)
        G = omega0.green_omega0(p, 10.0, x)
        g = sf.heat_kernel(10.0, x, p.gamma_p)
        assert np.max(np.abs(G[:, 0, 0] - g)) < 1e-15
        assert np.max(np.abs(G[:, 1, 1] - math.exp(-2 * p.gamma_z * 10.0) * g)) < 1e-15
        assert np.max(np.abs(G[:, 0, 2])) == 0.0

    def test_population_blocks_sum_to_shifted_gaussian(self):
        # (1,1)+(1,3) must equal the Gaussian drifted to +2*delta*t
        t, x = 50.0, np.linspace(-10, 10, 201)
        G = omega0.green_omega0(RATES, t, x)
        drifted = sf.heat_kernel(t, x - 2 * RATES.delta * t, RATES.gamma_p)
        assert np.max(np.abs(G[:, 0, 0] + G[:, 0, 2] - drifted)) < 1e-15

    def test_no_overflow_far_from_origin(self):
        # the cosh form overflows around x*delta/gamma_p ~ 700; shifted
        # Gaussians must not
        p = Params(gamma_p=1e-3, gamma_z=0.0, delta=1e-2, omega=0.0)
        vals = omega0.green_omega0(p, 1.0, np.array([200.0]))
        assert np.all(np.isfinite(vals))


class TestSolveCr:
    def test_zero_for_diagonal_data(self):
        grid = SpatialGrid(24.0, 512)
        assert np.all(omega0.solve_cr(GAUSS, 50.0, grid, RATES) == 0.0)

    def test_mass_decays_at_dephasing_rate(self):
        p = Params(gamma_p=1e-3, gamma_z=3e-3, delta=1e-2, omega=0.0)
        ic = GaussianCoherent(p=0.5, mu=0.9, k=0.0, sigma=1.0)
        grid = SpatialGrid(24.0, 2048)
        m0 = grid.trapezoid(np.real(sample_initial(ic, grid).rho12))
        for t in (20.0, 90.0):
            mt = grid.trapezoid(omega0.solve_cr(ic, t, grid, p))
            assert math.isclose(mt, math.exp(-2 * p.gamma_z * t) * m0, rel_tol=1e-10)

    def test_laplace_coherent_uses_smoothed_kernel(self):
        # at gamma_z = 0 the closed answer is r*sqrt(p(1-p)) * h_plus
        p = Params(gamma_p=1e-2, gamma_z=0.0, delta=1e-1, omega=1e-2)
        ic = LaplaceCoherent.for_params(p=0.25, r=0.8, q=0.1, params=p)
        grid = SpatialGrid(256.0, 2048)
        t = 25.0
        got = omega0.solve_cr(ic, t, grid, p)
        ref = 0.8 * math.sqrt(0.25 * 0.75) * sf.h_plus(t, grid.nodes, p)
        assert np.max(np.abs(got - ref)) < 1e-15


class TestClosedSolutions:
    def test_gaussian_initial_recovery(self):
        x = np.linspace(-10, 10, 101)
        P, Q = omega0.gaussian_solution(RATES, GAUSS, 0.0, x)
        assert np.max(np.abs(P - (GAUSS.rho11(x) + GAUSS.rho22(x)))) < 1e-15

    def test_balanced_mixture_has_zero_center_imbalance(self):
        ic = GaussianMixture(p=0.5, sigma1=1.3, sigma2=1.3)
        for t in (0.0, 40.0, 160.0):
            _, Q = omega0.gaussian_solution(RATES, ic, t, np.array([0.0]))
            assert abs(Q[0]) < 1e-18

    def test_gaussian_peaks_near_drift_positions(self):
        grid = SpatialGrid(24.0, 4096)
        P, _ = omega0.gaussian_solution(RATES, GAUSS, 200.0, grid.nodes)
        peaks = grid.nodes[1:-1][(P[1:-1] > P[:-2]) & (P[1:-1] > P[2:])]
        assert len(peaks) == 2
        assert np.max(np.abs(np.sort(peaks) - [-4.0, 4.0])) <= 2 * grid.dx

    def test_laplace_pointwise_limit(self):
        # short times approach the initial density away from the kinks
        x = np.array([-3.0, -0.7, 0.9, 2.5])
        P, _ = omega0.laplace_solution(RATES, LAPL, 1e-4, x)
        ref = LAPL.rho11(x) + LAPL.rho22(x)
        assert np.max(np.abs(P - ref)) < 1e-6

    def test_uniform_interior_limit(self):
        x = np.array([-1.5, 0.0, 1.2])
        P, _ = omega0.uniform_solution(RATES, UNIF, 1e-6, x)
        ref = 0.75 / 6.0 + 0.25 / 4.0
        assert np.max(np.abs(P - ref)) < 1e-12
        far = omega0.uniform_solution(RATES, UNIF, 1e-6, np.array([100.0]))[0]
        assert abs(far[0]) < 1e-300

    @pytest.mark.parametrize("ic,solver", [
        (GAUSS, omega0.gaussian_solution),
        (LAPL, omega0.laplace_solution),
        (UNIF, omega0.uniform_solution),
    ], ids=["gaussian", "laplace", "uniform"])
    def test_mass_and_positivity(self, ic, solver):
        # near t=0 the smoothed kinks are narrow (width ~ sqrt(4 gp t)), so
        # the trapezoid needs a grid fine enough to resolve them
        fine = SpatialGrid(64.0, 1 << 18)
        coarse = SpatialGrid(64.0, 8192)
        for t, grid in [(1e-2, fine), (50.0, coarse), (100.0, coarse),
                        (150.0, coarse), (200.0, coarse)]:
            P, Q = solver(RATES, ic, t, grid.nodes)
            assert abs(grid.trapezoid(P) - 1.0) < 1e-8
            rho11 = 0.5 * (P + Q)
            rho22 = 0.5 * (P - Q)
            assert min(rho11.min(), rho22.min()) >= -1e-12

    @pytest.mark.parametrize("ic,solver", [
        (GAUSS, omega0.gaussian_solution),
        (LAPL, omega0.laplace_solution),
        (UNIF, omega0.uniform_solution),
    ], ids=["gaussian", "laplace", "uniform"])
    def test_matches_spectral_route(self, ic, solver):
        grid = SpatialGrid(64.0, 4096)
        for t in (50.0, 200.0):
            P, Q = solver(RATES, ic, t, grid.nodes)
            u = spectral.solve(RATES, ic, t, grid)
            assert np.max(np.abs(u.rho_plus - P)) < 1e-7
            assert np.max(np.abs(u.rho_minus - Q)) < 1e-7

    def test_laplace_matches_fd_oracle(self):
        # the initial kink makes the FD error constant ~4x the smooth case,
        # so this comparison needs the fig-1-equivalent spacing dx ~ 0.0117
        grid = SpatialGrid(48.0, 8192)
        t = 50.0
        fd = oracle.fd_integrate(RATES, LAPL, t, grid, richardson=False)
        P, Q = omega0.laplace_solution(RATES, LAPL, t, grid.nodes)
        assert np.max(np.abs(fd.field.rho_plus - P)) < 1e-5

    def test_long_time_two_gaussian_profile(self):
        # late-time L1 distance to the two-Gaussian superposition with the
        # drifted means and variances (initial component variance) + 4 gp t
        t = 4e4
        grid = SpatialGrid(1024.0, 16384)
        drift = 2 * RATES.delta * t
        spread = 4 * RATES.gamma_p * t
        cases = (
            (LAPL, omega0.laplace_solution, 2 * LAPL.a**2, 2 * LAPL.b**2),
            (UNIF, omega0.uniform_solution, UNIF.a**2 / 3, UNIF.b**2 / 3),
        )
        for ic, solver, var1, var2 in cases:
            P, _ = solver(RATES, ic, t, grid.nodes)
            v1, v2 = var1 + spread, var2 + spread
            fit = (ic.p * np.exp(-(grid.nodes - drift) ** 2 / (2 * v1)) / math.sqrt(2 * math.pi * v1)
                   + (1 - ic.p) * np.exp(-(grid.nodes + drift) ** 2 / (2 * v2)) / math.sqrt(2 * math.pi * v2))
            assert grid.trapezoid(np.abs(P - fit)) < 1e-3


class TestFullSolve:
    def test_all_variants_match_spectral(self):
        p = Params(gamma_p=1e-3, gamma_z=2e-3, delta=1e-2, omega=0.0)
        ics = [
            GAUSS, LAPL, UNIF,
            GaussianCoherent(p=0.6, mu=0.5, k=0.7, sigma=1.2),
            LaplaceCoherent(p=0.3, r=0.4, q=0.2, scale=2.0),
        ]
        grid = SpatialGrid(64.0, 4096)
        for ic in ics:
            u = omega0.solve(p, ic, 60.0, grid)
            us = spectral.solve(p, ic, 60.0, grid)
            for name in ("rho_plus", "c_i", "rho_minus", "c_r"):
                err = np.max(np.abs(getattr(u, name) - getattr(us, name)))
                assert err < 1e-8, (type(ic).__name__, name, err)

    def test_zero_time_is_initial_data(self):
        grid = SpatialGrid(24.0, 1024)
        u = omega0.solve(RATES, GAUSS, 0.0, grid)
        ref = to_bloch(sample_initial(GAUSS, grid))
        assert np.max(np.abs(u.rho_plus - ref.rho_plus)) == 0.0

    def test_time_validation(self):
        with pytest.raises(NonPositiveTime):
            omega0.laplace_solution(RATES, LAPL, 0.0, np.zeros(3))
        with pytest.raises(NonPositiveTime):
            omega0.solve(RATES, GAUSS, -1.0, SpatialGrid(24.0, 1024))
