import math

import mpmath
import numpy as np
import pytest

from oqbm import gammaz0, oracle, specfun as sf, spectral
from oqbm.core import GaussianCoherent, GaussianMixture, Params, SpatialGrid, sample_initial
from oqbm.errors import DomainTooNarrow, NonPositiveTime, QuadratureNotConverged, UnstableStep
from oqbm.oracle import auto_time_step, fd_integrate, quad_inverse_fourier
from oqbm.validate import FIG1, FIG3_IC, FIG4

IC = GaussianMixture(p=0.75, sigma1=1.0, sigma2=2.0)
GENERAL = Params(gamma_p=1e-3, gamma_z=1e-3, delta=1e-2, omega=1e-2)


class TestFdIntegrate:
    def test_pure_heat_limit(self, monkeypatch):
        # with delta = omega = gamma_z = 0 every component just diffuses: B = 0,
        # so each interval (and the Richardson re-run) takes one Taylor step
        # that leaves the exact lattice heat semigroup as it is
        p = Params(gamma_p=1e-3)
        grid = SpatialGrid(24.0, 4096)
        assert auto_time_step(p, grid) == math.inf
        steps = []
        taylor_run = oracle._taylor_run

        def counted(B, y0, span, dt, norm_cap):
            steps.append(max(1, math.ceil(span / dt)))
            return taylor_run(B, y0, span, dt, norm_cap)

        monkeypatch.setattr(oracle, "_taylor_run", counted)
        times = [10.0, 25.0, 50.0]
        res = fd_integrate(p, IC, 50.0, grid, snapshot_times=times)
        assert steps == [1, 1, 1, 1]
        # one kernel over [0, 50] against three composed ones: round-off only
        assert res.richardson_error < 1e-14
        x = grid.nodes
        # the semi-discrete solution in closed form: each Fourier mode of the
        # sampled data decays by exp(-2 gamma_p t (2 sin(k dx/2)/dx)^2)
        k = 2.0 * math.pi * np.fft.fftfreq(grid.n_points, grid.dx)
        y0 = sample_initial(IC, grid).rho_plus
        for t in times:
            v1, v2 = 1.0 + 4e-3 * t, 4.0 + 4e-3 * t
            exact = (0.75 * np.exp(-x**2 / (2 * v1)) / math.sqrt(2 * math.pi * v1)
                     + 0.25 * np.exp(-x**2 / (2 * v2)) / math.sqrt(2 * math.pi * v2))
            assert np.max(np.abs(res.snapshots[t].rho_plus - exact)) < 1e-6
            decay = np.exp(-2e-3 * t * (2.0 * np.sin(k * grid.dx / 2.0) / grid.dx) ** 2)
            lattice = np.real(np.fft.ifft(decay * np.fft.fft(y0)))
            assert np.max(np.abs(res.snapshots[t].rho_plus - lattice)) < 2e-15

    def test_matches_closed_gaussian_solution(self):
        from oqbm import omega0

        p = Params(gamma_p=1e-3, gamma_z=1e-3, delta=1e-2, omega=0.0)
        grid = SpatialGrid(24.0, 8192)
        res = fd_integrate(p, IC, 50.0, grid, richardson=False)
        c = omega0.solve(p, IC, 50.0, grid)
        assert np.max(np.abs(res.field.rho_plus - c.rho_plus)) < 5e-6
        assert np.max(np.abs(res.field.rho_minus - c.rho_minus)) < 5e-6

    def test_mass_drift_negligible(self):
        p = Params(gamma_p=1e-3, gamma_z=1e-3, delta=1e-2, omega=0.0)
        grid = SpatialGrid(24.0, 1024)
        res = fd_integrate(p, IC, 200.0, grid, richardson=False)
        assert abs(res.field.mass() - 1.0) < 1e-14

    def test_mass_kept_to_round_off_on_the_uniform_case(self):
        # the heat kernel sums to 1, every Taylor increment is hB times a vector,
        # and the columns of B sum to zero over the rho_plus rows
        grid = SpatialGrid(16.0, 4096)
        short = fd_integrate(FIG1, FIG3_IC, 50.0, grid)
        assert abs(short.field.mass() - 1.0) < 1e-14
        assert short.richardson_error < 1e-13
        long = fd_integrate(FIG1, FIG3_IC, 200.0, grid, richardson=False)
        assert abs(long.field.mass() - 1.0) < 1e-14

    def test_second_order_in_space(self):
        # halving dx must cut the error by at least ~3.7x (second order)
        p = Params(gamma_p=1e-3, gamma_z=1e-3, delta=1e-2, omega=1e-2)
        t = 25.0
        errs = []
        for n in (512, 1024):
            grid = SpatialGrid(20.0, n)
            res = fd_integrate(p, IC, t, grid, richardson=False)
            fine = SpatialGrid(20.0, 4096)
            ref = fd_integrate(p, IC, t, fine, richardson=False)
            step = fine.n_points // n
            errs.append(np.max(np.abs(res.field.rho_plus - ref.field.rho_plus[::step])))
        assert errs[0] / errs[1] > 3.7

    def test_richardson_estimate_reported(self):
        p = Params(gamma_p=1e-3, delta=1e-2)
        grid = SpatialGrid(20.0, 512)
        res = fd_integrate(p, IC, 10.0, grid, richardson=True)
        assert res.richardson_error is not None
        assert 0.0 < res.richardson_error < 1e-8

    def test_snapshots_and_final_consistent(self):
        p = Params(gamma_p=1e-3, delta=1e-2)
        grid = SpatialGrid(20.0, 512)
        res = fd_integrate(p, IC, 20.0, grid, snapshot_times=[10.0, 20.0], richardson=False)
        assert set(res.snapshots) == {10.0, 20.0}
        assert res.snapshots[20.0] is res.field

    def test_unstable_step_detected(self):
        # diffusion is exact, so only B can go unstable: pure advection gives
        # B the eigenvalues i (2 delta/dx) sin(k dx), reaching ||B||_inf at
        # k dx = pi/2, and a step putting them at h|lambda| = 15, where the
        # degree-30 Taylor polynomial has left the unit disc (|T_30(iy)|
        # grows large beyond y ~ 12), grows that mode by ~340x per step
        p = Params(gamma_p=1e-3, delta=1e-2)
        grid = SpatialGrid(20.0, 512)
        big_dt = (15.0 / oracle.THETA_30) * auto_time_step(p, grid)
        with pytest.raises(UnstableStep):
            fd_integrate(p, IC, 2000.0, grid, dt=big_dt, richardson=False)

    def test_domain_too_narrow_rejected(self):
        p = Params(gamma_p=1e-3)
        with pytest.raises(DomainTooNarrow):
            fd_integrate(p, IC, 10.0, SpatialGrid(6.0, 256), richardson=False)

    def test_nonpositive_time_is_typed(self):
        grid = SpatialGrid(20.0, 512)
        with pytest.raises(NonPositiveTime):
            fd_integrate(GENERAL, IC, 0.0, grid, richardson=False)
        with pytest.raises(NonPositiveTime):
            fd_integrate(GENERAL, IC, 10.0, grid, snapshot_times=[0.0, 5.0], richardson=False)
        with pytest.raises(ValueError):
            fd_integrate(GENERAL, IC, 10.0, grid, snapshot_times=[12.0], richardson=False)

    def test_assembled_step_is_one_rk4_step(self):
        # one Horner-form step is the plain sum of (hB)^j y / j! over j <= 30
        grid = SpatialGrid(20.0, 512)
        B = oracle._difference_operator(GENERAL, grid)
        h = auto_time_step(GENERAL, grid)
        y = np.random.default_rng(3).normal(size=B.shape[0])
        term, taylor = y, y.copy()
        for j in range(1, oracle.TAYLOR_DEGREE + 1):
            term = h * (B @ term) / j
            taylor += term
        horner = oracle._taylor_run(B, y, h, h, norm_cap=math.inf)
        assert np.max(np.abs(horner - taylor)) < 1e-14 * np.max(np.abs(y))

    @pytest.mark.parametrize("seed", range(10))
    def test_auto_step_inside_rk4_region(self, seed):
        # dense spectrum of the coupling operator B on a small grid: h|lambda|
        # stays within THETA_30 (reached by advection when n is a multiple
        # of 4, hence the round-off slack) and the degree-30 Taylor step
        # amplifies no eigenmode
        rng = np.random.default_rng(seed)
        gamma_p, gamma_z, delta, omega = 10.0 ** rng.uniform(-4.0, 1.0, size=4)
        p = Params(gamma_p=gamma_p, gamma_z=gamma_z, delta=delta, omega=omega)
        grid = SpatialGrid(rng.uniform(2.0, 40.0), 64)
        B = oracle._difference_operator(p, grid).toarray()
        z = auto_time_step(p, grid) * np.linalg.eigvals(B)
        assert np.max(np.abs(z)) <= oracle.THETA_30 * (1.0 + 1e-12)
        term, taylor = np.ones_like(z), np.ones_like(z)
        for j in range(1, oracle.TAYLOR_DEGREE + 1):
            term = term * z / j
            taylor += term
        assert np.max(np.abs(taylor)) <= 1.0 + 1e-12

    def test_coherent_data_matches_spectral(self):
        # non-zero c_r and c_i at t = 0, so all four blocks are integrated
        ic = GaussianCoherent(p=0.75, mu=0.8, k=1.0, sigma=1.0)
        grid = SpatialGrid(16.0, 2048)
        fd = fd_integrate(GENERAL, ic, 50.0, grid, richardson=False)
        u = spectral.solve(GENERAL, ic, 50.0, grid)
        for name in ("rho_plus", "c_i", "rho_minus", "c_r"):
            assert np.max(np.abs(getattr(fd.field, name) - getattr(u, name))) < 3e-5, name

    def test_unfed_components_stay_exactly_zero(self):
        grid = SpatialGrid(20.0, 512)
        still = fd_integrate(Params(gamma_p=1e-3, gamma_z=1e-3, delta=1e-2, omega=0.0),
                             IC, 10.0, grid, richardson=False).field
        assert np.all(still.c_i == 0.0) and np.all(still.c_r == 0.0)
        # omega > 0 feeds c_i from rho_minus; c_r stays unfed
        fed = fd_integrate(GENERAL, IC, 10.0, grid, richardson=False).field
        assert np.max(np.abs(fed.c_i)) > 1e-3
        assert np.all(fed.c_r == 0.0)


class TestLatticeHeat:
    @staticmethod
    def _reference(s, n):
        # e^{-2s} I_|j|(2s) at 32 digits, summed over the periodic images out
        # to |j| = 20 sqrt(2s) + 60, well past the oracle's own truncation
        with mpmath.workdps(32):
            reach = math.ceil(20.0 * math.sqrt(2.0 * s) + 60.0)
            entry = [mpmath.exp(-2 * s) * mpmath.besseli(j, 2 * s) for j in range(reach + 1)]
            ring = [mpmath.mpf(0)] * n
            for j in range(-reach, reach + 1):
                ring[j % n] += entry[abs(j)]
            return np.array([float(v) for v in ring]), entry

    def test_zero_time_returns_the_data(self):
        y = np.random.default_rng(7).normal(size=3 * 64)
        assert np.array_equal(oracle._lattice_heat(y, 0.0, 64), y)

    @pytest.mark.parametrize("s, n", [(0.3, 64), (5.0, 64), (300.0, 4096), (300.0, 64)])
    def test_kernel_against_mpmath(self, s, n):
        # the response to a unit impulse is the periodic kernel itself
        impulse = np.zeros(n)
        impulse[0] = 1.0
        kernel = oracle._lattice_heat(impulse, s, n)
        ref, entry = self._reference(s, n)
        assert np.max(np.abs(kernel - ref)) < 1e-15
        assert abs(math.fsum(kernel) - 1.0) < 1e-15
        if 2.0 * math.sqrt(2.0 * s) > n / 2:
            # wider than the ring: the images at least double the antipode
            assert kernel[n // 2] > 2.0 * float(entry[n // 2])

    def test_mass_kept(self):
        y = np.random.default_rng(11).uniform(size=2 * 4096)
        out = oracle._lattice_heat(y, 2913.0, 4096)
        for before, after in zip(y.reshape(2, -1), out.reshape(2, -1)):
            assert abs(math.fsum(after) - math.fsum(before)) < 1e-14 * math.fsum(before)


class TestQuadInverseFourier:
    def test_gaussian_symbol_gives_heat_kernel(self):
        gp, t = 1e-2, 25.0

        def symbol(xi):
            out = np.zeros((xi.size, 3, 3), dtype=complex)
            e = np.exp(-2 * gp * t * xi**2)
            for i in range(3):
                out[:, i, i] = e
            return out

        x = np.linspace(-5, 5, 21)
        xi_max = math.sqrt(16 * math.log(10) / (2 * gp * t))
        K = quad_inverse_fourier(symbol, x, xi_max)
        assert np.max(np.abs(K[:, 0, 0] - sf.heat_kernel(t, x, gp))) < 1e-10

    def test_laplace_smoothed_symbol_gives_h_plus(self):
        p, t = Params(gamma_p=1e-2, delta=1e-1, omega=1e-2), 25.0

        def symbol(xi):
            out = np.zeros((xi.size, 3, 3), dtype=complex)
            w2 = 4 * (p.delta**2 * xi**2 + p.omega**2)
            out[:, 0, 0] = 4 * p.omega**2 / w2 * np.exp(-2 * p.gamma_p * t * xi**2)
            return out

        x = np.linspace(-20, 20, 17)
        xi_max = math.sqrt(16 * math.log(10) / (2 * p.gamma_p * t))
        K = quad_inverse_fourier(symbol, x, xi_max)
        assert np.max(np.abs(K[:, 0, 0] - sf.h_plus(t, x, p))) < 1e-10

    def test_nested_sum_equals_plain_trapezoid(self):
        gp, t = 1e-2, 25.0
        calls = []

        def symbol(xi):
            calls.append(xi.size)
            out = np.zeros((xi.size, 3, 3), dtype=complex)
            out[:, 0, 0] = np.exp(-2 * gp * t * xi**2)
            return out

        x = np.linspace(-5, 5, 21)
        xi_max = math.sqrt(16 * math.log(10) / (2 * gp * t))
        K = quad_inverse_fourier(symbol, x, xi_max)
        assert len(calls) > 1  # at least one refinement was nested
        xi = np.linspace(-xi_max, xi_max, sum(calls))
        w = np.full(xi.size, xi[1] - xi[0])
        w[0] = w[-1] = 0.5 * w[0]
        plain = np.real(np.exp(1j * np.outer(x, xi)) @ (w * symbol(xi)[:, 0, 0])) / (2 * math.pi)
        assert np.max(np.abs(K[:, 0, 0] - plain)) <= 1e-15 * np.max(np.abs(plain))

    def test_angle_addition_at_validates_arguments(self):
        # validate's t = 1 row: |x xi| reaches about 1.2e4, where each phase
        # e^{i x xi_b} e^{i x k s} may be off the node's own by a few ulp of
        # xi_max times |x|; the bound allows 4 eps max|x| xi_max per node
        t = 1.0
        closed = gammaz0.exp_symbol_closed(FIG4, t)
        calls = []

        def symbol(xi):
            calls.append(xi.size)
            return closed(xi)

        x = SpatialGrid(260.0, 32768).nodes[np.linspace(0, 32767, 301).astype(int)]
        xi_max = math.sqrt(18.0 * math.log(10.0) / (2.0 * FIG4.gamma_p * t))
        K = quad_inverse_fourier(symbol, x, xi_max)
        xi = np.linspace(-xi_max, xi_max, sum(calls))
        w = np.full(xi.size, xi[1] - xi[0])
        w[0] = w[-1] = 0.5 * w[0]
        wS = w[:, None] * closed(xi).reshape(xi.size, 9)
        plain = np.real(np.exp(1j * np.outer(x, xi)) @ wS) / (2 * math.pi)
        unit = 4 * np.finfo(float).eps * np.max(np.abs(x)) * xi_max * np.max(np.sum(np.abs(wS), axis=0))
        assert np.max(np.abs(K.reshape(x.size, 9) - plain)) <= unit / (2 * math.pi)

    def test_not_converged_raises(self, monkeypatch):
        # an oscillatory symbol cannot settle to 1e-14 within two refinements;
        # each refinement evaluates only its new midpoints, and none is made
        # past QUAD_MAX_NODES
        calls = []

        def symbol(xi):
            calls.append(xi.size)
            out = np.zeros((xi.size, 3, 3), dtype=complex)
            out[:, 0, 0] = np.cos(37.0 * xi)
            return out

        monkeypatch.setattr(oracle, "QUAD_START_NODES", 129)
        monkeypatch.setattr(oracle, "QUAD_TOL", 1e-14)
        monkeypatch.setattr(oracle, "QUAD_MAX_NODES", 513)
        with pytest.raises(QuadratureNotConverged):
            quad_inverse_fourier(symbol, np.array([0.0]), xi_max=10.0)
        assert calls == [129, 128, 256]
