import math

import mpmath
import numpy as np
import pytest

from oqbm import gammaz0, oracle, specfun as sf, spectral
from oqbm.core import LaplaceCoherent, Params, SpatialGrid, sample_initial
from oqbm.errors import QuadratureNotConverged, ScaleMismatch, WrongRegime

RATES = Params(gamma_p=1e-2, gamma_z=0.0, delta=1e-1, omega=1e-2)
IC = LaplaceCoherent.for_params(p=0.25, r=0.0, q=-0.5, params=RATES)
IC_FULL = LaplaceCoherent.for_params(p=0.25, r=0.5, q=-0.5, params=RATES)
GRID = SpatialGrid(224.0, 4096)


def one_kernel(f):
    """``f`` as a stack of one kernel, the form ``_cone_convolutions`` takes."""
    return lambda y: f(y)[None]


class TestThetaQuadrature:
    def test_polynomial_exactness(self):
        # a rule of order n integrates monomials up to degree 2n-1 exactly
        nodes, weights = gammaz0.theta_rule(8)
        for k in range(16):
            got = float(np.sum(weights * nodes**k))
            exact = math.pi ** (k + 1) / (k + 1)
            assert abs(got - exact) < 1e-12 * exact

    def test_caching_returns_same_rule(self):
        assert gammaz0.theta_rule(64) is gammaz0.theta_rule(64)

    @pytest.mark.parametrize("order, weight_tol", [(64, 1e-13), (512, 1e-12), (2048, 1e-11)])
    def test_rule_against_mpmath(self, order, weight_tol):
        # numpy's leggauss is off by 1.3e-12 / 1.1e-10 / 6.3e-8 relative on
        # these weights; nodes of either rule are within about one ulp of pi,
        # the rounding of the map onto [0, pi]
        nodes, weights = gammaz0.theta_rule(order)
        assert np.all(np.diff(nodes) > 0.0)
        with mpmath.workdps(32):
            n = mpmath.mpf(order)
            for i in sorted({0, 1, order // 7, order // 2, order - 2, order - 1}):
                # the i-th root in ascending order, by Newton from Tricomi's estimate
                x = -mpmath.cos(mpmath.pi * (i + mpmath.mpf(0.75)) / (n + mpmath.mpf(0.5)))
                for _ in range(8):
                    p, below = mpmath.legendre(order, x), mpmath.legendre(order - 1, x)
                    step = p * (x * x - 1) / (n * (x * p - below))
                    x -= step
                    if abs(step) < 1e-28:
                        break
                assert abs(nodes[i] - mpmath.pi * (x + 1) / 2) < 5e-16, i
                weight = mpmath.pi * (1 - x * x) / (n * below) ** 2
                assert abs(weights[i] - weight) < weight_tol * weight, i


class TestKernelConvolutions:
    def test_kappa1_of_laplace_outside_cone(self):
        # exact identity: (f * k1)(x) = f(x) for x > 2 t delta
        t = 25.0
        c = RATES.omega / RATES.delta

        def f_l(y):
            return 0.5 * c * np.exp(-c * np.abs(y))

        x = np.array([5.5, 7.0, 12.0, 30.0])
        _, (got,), _ = gammaz0._cone_convolutions(one_kernel(f_l), t, x, RATES)
        assert np.max(np.abs(got - f_l(x))) < 1e-10

    def test_kappa0_of_laplace_outside_cone(self):
        t = 25.0
        c = RATES.omega / RATES.delta

        def f_l(y):
            return 0.5 * c * np.exp(-c * np.abs(y))

        x = np.array([5.5, 7.0, 12.0, 30.0])
        _, _, (got,) = gammaz0._cone_convolutions(one_kernel(f_l), t, x, RATES)
        assert np.max(np.abs(got - t * f_l(x))) < 1e-10

    def test_quadrature_cap_raises(self, monkeypatch):
        def noisy(y):
            return np.random.default_rng(0).normal(size=y.shape)

        monkeypatch.setattr(gammaz0, "QUAD_TOL", 1e-14)
        with pytest.raises(QuadratureNotConverged):
            gammaz0._cone_convolutions(one_kernel(noisy), 25.0, np.array([0.0]), RATES)

    def test_non_finite_integrand_stops_at_first_order(self):
        orders = set()

        def broken(y):
            orders.add(y.shape[-1])
            return np.full_like(y, np.nan)

        with pytest.raises(QuadratureNotConverged, match="not finite"):
            gammaz0._cone_convolutions(one_kernel(broken), 25.0, np.linspace(-5.0, 5.0, 11), RATES)
        # the edge translates are one column, the quadrature samples one order
        assert orders == {11, gammaz0.QUAD_START_ORDER}

    def test_empty_points_give_empty_results(self):
        t = 5.0

        def g(y):
            return sf.heat_kernel(t, y, RATES.gamma_p)

        empty = np.array([])
        for result in gammaz0._cone_convolutions(one_kernel(g), t, empty, RATES):
            assert result.shape == (1, 0)


class TestKernelStack:
    T = 25.0

    def single_fields(self):
        t = self.T
        return [
            lambda y: sf.heat_kernel(t, y, RATES.gamma_p),
            lambda y: y * sf.heat_kernel(t, y, RATES.gamma_p),
            lambda y: sf.h_plus(t, y, RATES),
            lambda y: sf.phi_minus(t, y, RATES),
        ]

    def stack(self, y):
        return np.stack([f(y) for f in self.single_fields()])

    def test_stack_matches_one_field_at_a_time(self):
        x = np.linspace(-60.0, 60.0, 301)
        at, k1, k0 = gammaz0._cone_convolutions(self.stack, self.T, x, RATES)
        for i, f in enumerate(self.single_fields()):
            assert np.array_equal(at[i], f(x))
            _, (k1_one,), (k0_one,) = gammaz0._cone_convolutions(one_kernel(f), self.T, x, RATES)
            assert np.max(np.abs(k1[i] - k1_one)) <= 1e-15
            assert np.max(np.abs(k0[i] - k0_one)) <= 1e-15

    def test_blocks_do_not_change_results(self):
        # at the start order a block holds _BLOCK_SAMPLES / 64 points: this x
        # fills two blocks and part of a third
        rows = gammaz0._BLOCK_SAMPLES // gammaz0.QUAD_START_ORDER
        x = np.linspace(-60.0, 60.0, 2 * rows + 37)
        _, k1, k0 = gammaz0._cone_convolutions(self.stack, self.T, x, RATES)
        for lo in range(0, x.size, 97):
            part = x[lo:lo + 97]
            _, p1, p0 = gammaz0._cone_convolutions(self.stack, self.T, part, RATES)
            assert np.max(np.abs(k1[:, lo:lo + 97] - p1)) <= 1e-15
            assert np.max(np.abs(k0[:, lo:lo + 97] - p0)) <= 1e-15


class TestIdentities:
    def test_all_printed_identities(self):
        rep = gammaz0.convolution_identities_check(
            RATES, 25.0, [-7.0, -2.0, 0.0, 1.5, 4.0, 5.5, 8.0, 12.0]
        )
        assert rep.max_error() < 1e-8
        assert rep.laplace_self < 1e-10
        assert rep.cone_k1 < 1e-10 and rep.cone_k0 < 1e-10
        # the compound Gauss-Legendre sides are at round-off
        assert max(rep.laplace_self, rep.laplace_sign_self, rep.heat_laplace,
                   rep.heat_sign_laplace, rep.moment_laplace) <= 1e-15

    def test_laplace_scale_far_below_heat_width(self):
        # a Laplace scale 1/1300 of the heat width: the heat products' pieces are
        # held to two Laplace scales too, so the narrow factor is resolved
        p = Params(gamma_p=0.066, gamma_z=0.0, delta=0.002, omega=2.6)
        rep = gammaz0.convolution_identities_check(p, 5.2, [-3.0, -0.5, 0.0, 4e-4, 0.5, 2.0])
        assert rep.max_error() < 1e-12


class TestGreen:
    def test_wrong_regime(self):
        with pytest.raises(WrongRegime):
            gammaz0.green_gammaz0(Params(1e-2, 1e-3, 1e-1, 1e-2), 1.0, GRID.nodes)

    def test_matches_quadrature_oracle(self):
        t = 25.0
        x = SpatialGrid(224.0, 8192).nodes[np.linspace(0, 8191, 201).astype(int)]
        G = gammaz0.green_gammaz0(RATES, t, x)
        xi_max = math.sqrt(18 * math.log(10) / (2 * RATES.gamma_p * t))
        K = oracle.quad_inverse_fourier(gammaz0.exp_symbol_closed(RATES, t), x, xi_max)
        assert G.shape == (x.size, 3, 3)
        assert np.max(np.abs(G - K)) < 1e-7

    def test_matches_spectral_symbol(self):
        # the closed matrix exponential equals the generic one entrywise
        t = 25.0
        xi = np.linspace(-12, 12, 401)
        closed = gammaz0.exp_symbol_closed(RATES, t)(xi)
        generic = spectral.exp_symbols(xi, RATES, t)
        assert np.max(np.abs(closed - generic)) < 1e-12

    def test_points_do_not_depend_on_their_batch(self):
        # the nodes of the coarse grid are every other node of the fine one; a
        # point's entries match whichever batch it is evaluated in (bit for bit
        # with OpenBLAS 0.3; the margin allows a BLAS that rounds the block
        # product differently for another row count)
        t = 25.0
        fine = gammaz0.green_gammaz0(RATES, t, SpatialGrid(224.0, 4096).nodes)
        coarse = gammaz0.green_gammaz0(RATES, t, SpatialGrid(224.0, 2048).nodes)
        assert np.max(np.abs(fine[::2] - coarse)) <= 1e-15

    def test_corner_entries_symmetric(self):
        t = 10.0
        G = gammaz0.green_gammaz0(RATES, t, SpatialGrid(224.0, 4096).nodes)
        assert np.array_equal(G[:, 0, 2], G[:, 2, 0])


class TestLaplaceCoherentSolve:
    def test_scale_mismatch_rejected(self):
        bad = LaplaceCoherent(p=0.25, r=0.0, q=-0.5, scale=3.0)
        with pytest.raises(ScaleMismatch):
            gammaz0.solve_laplace_coherent(RATES, bad, 1.0, GRID)

    def test_zero_time_recovers_initial_data(self):
        u = gammaz0.solve_laplace_coherent(RATES, IC_FULL, 0.0, GRID)
        ref = sample_initial(IC_FULL, GRID)
        assert np.max(np.abs(u.rho_plus - ref.rho_plus)) == 0.0

    def test_zero_time_applies_no_tail_rule(self):
        # the window cuts the Laplace tail at 4.5e-5 of the peak, beyond the
        # sampling rule's default 1e-8, yet t = 5 solves on it; t = 0 is the
        # initial data on the same window, as on the other routes
        grid = SpatialGrid(100.0, 2048)
        u = gammaz0.solve_laplace_coherent(RATES, IC, 0.0, grid)
        assert np.array_equal(u.rho_plus, IC.rho11(grid.nodes) + IC.rho22(grid.nodes))
        assert abs(gammaz0.solve_laplace_coherent(RATES, IC, 5.0, grid).mass() - 1.0) < 1e-4

    def test_short_time_approaches_initial_data(self):
        x = GRID.nodes
        u = gammaz0.solve_laplace_coherent(RATES, IC_FULL, 1e-3, GRID)
        ref = sample_initial(IC_FULL, GRID)
        away = np.abs(x) > 1.0  # the kink at 0 smooths instantly
        assert np.max(np.abs(u.rho_plus[away] - ref.rho_plus[away])) < 1e-5
        assert np.max(np.abs(u.rho_minus[away] - ref.rho_minus[away])) < 1e-5

    def test_against_transform_oracle(self):
        t = 25.0
        u = gammaz0.solve_laplace_coherent(RATES, IC_FULL, t, GRID)
        amp = math.sqrt(IC_FULL.p * (1 - IC_FULL.p))
        weights = np.array([1.0, IC_FULL.q * amp, 2 * IC_FULL.p - 1.0])
        closed = gammaz0.exp_symbol_closed(RATES, t)

        def symbol(xis):
            f_hat = 4 * RATES.omega**2 / (4 * (RATES.delta**2 * xis**2 + RATES.omega**2))
            out = np.zeros((xis.size, 3, 3), dtype=complex)
            out[:, :, 0] = np.einsum("mij,j->mi", closed(xis), weights) * f_hat[:, None]
            return out

        xi_max = math.sqrt(18 * math.log(10) / (2 * RATES.gamma_p * t))
        sel = np.linspace(0, GRID.n_points - 1, 151).astype(int)
        K = oracle.quad_inverse_fourier(symbol, GRID.nodes[sel], xi_max)
        assert np.max(np.abs(K[:, 0, 0] - u.rho_plus[sel])) < 1e-9
        assert np.max(np.abs(K[:, 1, 0] - u.c_i[sel])) < 1e-9
        assert np.max(np.abs(K[:, 2, 0] - u.rho_minus[sel])) < 1e-9

    @pytest.mark.parametrize("t", [0.0, 25.0])
    def test_points_form_equals_the_grid_solution(self, t):
        # validate's driven row evaluates the field only at the 301 nodes it
        # compares; there each component equals the whole grid's bit for bit
        grid = SpatialGrid(260.0, 8192)
        sel = np.linspace(0, grid.n_points - 1, 301).astype(int)
        u = gammaz0.solve_laplace_coherent(RATES, IC_FULL, t, grid)
        at = gammaz0.laplace_coherent_field(RATES, IC_FULL, t, grid.nodes[sel])
        for name, values in zip(("rho_plus", "c_i", "rho_minus", "c_r"), at):
            assert np.array_equal(values, getattr(u, name)[sel]), name

    def test_balanced_data_leaves_only_odd_channel(self):
        # q = 0 and p = 1/2 kill the coherent and population source terms
        ic = LaplaceCoherent.for_params(p=0.5, r=0.0, q=0.0, params=RATES)
        t = 25.0
        u = gammaz0.solve_laplace_coherent(RATES, ic, t, GRID)
        x = GRID.nodes

        def fields(y):
            return np.stack((sf.phi_minus(t, y, RATES), sf.h_minus(t, y, RATES)))

        (phm, _), (k1_phm, _), (_, k0_hm) = gammaz0._cone_convolutions(fields, t, x, RATES)
        assert np.max(np.abs(u.c_i - 0.5 * (phm - k1_phm))) < 1e-12
        assert np.max(np.abs(u.rho_minus - 2 * RATES.omega * k0_hm)) < 1e-12

    def test_mass_conserved(self):
        for t in (1.0, 25.0, 100.0):
            u = gammaz0.solve_laplace_coherent(RATES, IC_FULL, t, GRID)
            assert abs(u.mass() - 1.0) < 1e-7

    def test_against_fd_oracle_over_the_figure_times(self):
        from oqbm import oracle

        grid = SpatialGrid(224.0, 8192)
        times = [25.0, 50.0, 75.0, 100.0]
        fd = oracle.fd_integrate(RATES, IC, 100.0, grid, snapshot_times=times,
                                 richardson=False)
        for t in times:
            u = gammaz0.solve_laplace_coherent(RATES, IC, t, grid)
            assert np.max(np.abs(fd.snapshots[t].rho_plus - u.rho_plus)) < 5e-5, t
            assert np.max(np.abs(fd.snapshots[t].rho_minus - u.rho_minus)) < 5e-5, t

    def test_small_driving_limit_of_green_entries(self):
        # as omega -> 0 the cone kernels collapse onto the pure deltas, so the
        # (3,3) entry becomes the half-sum of edge-shifted heat kernels and
        # the off-diagonal driving entries vanish
        p = Params(gamma_p=1e-2, gamma_z=0.0, delta=1e-1, omega=1e-9)
        t = 25.0
        x = SpatialGrid(64.0, 1024).nodes
        G = gammaz0.green_gammaz0(p, t, x)
        reach = 2 * t * p.delta
        ref = 0.5 * (sf.heat_kernel(t, x - reach, p.gamma_p)
                     + sf.heat_kernel(t, x + reach, p.gamma_p))
        assert np.max(np.abs(G[:, 2, 2] - ref)) < 1e-10
        # driving entries scale linearly in omega: (2,3) ~ om * t, (3,2) ~ 4x
        assert np.max(np.abs(G[:, 1, 2])) < 5.0 * t * p.omega
        assert np.max(np.abs(G[:, 2, 1])) < 20.0 * t * p.omega
