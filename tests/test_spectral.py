import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from oqbm import omega0, oracle, spectral
from oqbm.core import (
    Custom,
    GaussianMixture,
    Params,
    SpatialGrid,
    from_bloch,
    sample_initial,
)
from oqbm.errors import (
    DefectiveMatrix,
    GridUnderResolved,
    StabilityViolation,
    TailNotDecayed,
)

IC = GaussianMixture(p=0.75, sigma1=1.0, sigma2=2.0)
GENERAL = Params(gamma_p=1e-3, gamma_z=1e-3, delta=1e-2, omega=1e-2)


class TestSymbol:
    def test_structure_at_zero_frequency(self):
        p = Params(gamma_p=1.0, gamma_z=0.3, delta=0.7, omega=0.2)
        q = spectral.build_symbol(0.0, p).q
        expected = np.array([[0, 0, 0], [0, -0.6, 0.2], [0, -0.8, 0]], dtype=complex)
        assert np.max(np.abs(q - expected)) < 1e-15

    def test_undriven_zero_frequency_is_diagonal(self):
        p = Params(gamma_p=1.0, gamma_z=0.3, delta=0.7, omega=0.0)
        q = spectral.build_symbol(0.0, p).q
        assert np.max(np.abs(q - np.diag([0.0, -0.6, 0.0]))) < 1e-15

    def test_unit_frequency_substitution(self):
        p = Params(gamma_p=1.0, gamma_z=0.0, delta=1.0, omega=0.0)
        q = spectral.build_symbol(1.0, p).q
        expected = np.array([[-2, 0, -2j], [0, -2, 0], [-2j, 0, -2]])
        assert np.max(np.abs(q - expected)) < 1e-15

    def test_conjugate_symmetry(self, rng):
        p = Params(*rng.uniform(0.01, 1.0, 4))
        for xi in rng.uniform(-20, 20, 10):
            assert np.max(np.abs(spectral.build_symbol(-xi, p).q
                                 - np.conj(spectral.build_symbol(xi, p).q))) < 1e-14


class TestCharacteristicCubic:
    def test_zero_frequency_coefficients(self):
        p = Params(gamma_p=1.0, gamma_z=0.3, delta=0.7, omega=0.2)
        a1, a2, a3 = spectral.char_coeffs(0.0, p)
        assert math.isclose(a1, 2 * p.gamma_z)
        assert math.isclose(a2, 4 * p.omega**2)
        assert a3 == 0.0

    def test_hurwitz_combination(self, rng):
        # a1 a2 - a3 printed expansion
        for _ in range(50):
            p = Params(*rng.uniform(0.01, 2.0, 4))
            xi = float(rng.uniform(-10, 10))
            a1, a2, a3 = spectral.char_coeffs(xi, p)
            gp, gz, dl, om = p.gamma_p, p.gamma_z, p.delta, p.omega
            expected = (64 * gp**3 * xi**6
                        + (16 * dl**2 * gp + 64 * gp**2 * gz) * xi**4
                        + (16 * om**2 * gp + 16 * gp * gz**2) * xi**2
                        + 8 * om**2 * gz)
            assert math.isclose(a1 * a2 - a3, expected, rel_tol=1e-12)

    def test_matches_determinant(self, rng):
        for _ in range(50):
            p = Params(*rng.uniform(0.01, 2.0, 4))
            xi = float(rng.uniform(-10, 10))
            a1, a2, a3 = spectral.char_coeffs(xi, p)
            q = spectral.build_symbol(xi, p).q
            lam = complex(rng.normal(), rng.normal())
            det = np.linalg.det(lam * np.eye(3) - q)
            poly = lam**3 + a1 * lam**2 + a2 * lam + a3
            assert abs(det - poly) < 1e-10 * max(1.0, abs(det))


class TestEigenvalues:
    def test_cardano_matches_dense_solver(self, rng):
        worst = 0.0
        for _ in range(1000):
            p = Params(*np.exp(rng.uniform(math.log(1e-3), math.log(3.0), 4)))
            xi = float(rng.uniform(-30, 30))
            lam = spectral.cardano_eigenvalues(np.array([xi]), p)[0]
            ref = np.linalg.eigvals(spectral.build_symbol(xi, p).q)
            scale = max(1.0, np.max(np.abs(ref)))
            for lv in lam:
                worst = max(worst, np.min(np.abs(ref - lv)) / scale)
        assert worst < 1e-9

    @given(
        rates=st.tuples(*[st.floats(1e-4, 5.0) for _ in range(4)]),
        xi=st.floats(-50.0, 50.0),
    )
    @settings(max_examples=60, deadline=None)
    # zero mode (about -a3/a2) below the least normal double: a zero is right
    @example(rates=(1.0, 2.0, 1.0, 0.5), xi=1.0527533645051122e-212)
    # zero mode -5.2e-205 is representable and must come out negative
    @example(rates=(1.0, 2.0, 1.0, 0.5), xi=1.7e-103)
    # qc + 12 sqrt(pc) cancels to 1e-8 of its terms here unless the root takes qc's sign
    @example(rates=(1.0, 0.421875, 3.25, 0.0625), xi=0.072265625)
    def test_cardano_property(self, rates, xi):
        p = Params(*rates)
        lam = spectral.cardano_eigenvalues(np.array([xi]), p)[0]
        a1, a2, a3 = spectral.char_coeffs(xi, p)
        scale = max(1.0, float(np.max(np.abs(lam)))) ** 3
        residual = np.abs(lam**3 + a1 * lam**2 + a2 * lam + a3) / scale
        assert float(np.max(residual)) < 1e-10
        if xi != 0.0:
            # no double can hold a negative zero mode whose exact value lies
            # below the least normal double, so there only Re <= 0 is asked
            order = np.argsort(np.abs(lam))
            assert np.all(lam[order[1:]].real < 0.0)
            if a3 / a2 >= np.finfo(float).tiny:
                assert lam[order[0]].real < 0.0
            else:
                assert lam[order[0]].real <= 0.0

    def test_undriven_closed_eigenvalues(self):
        p = Params(gamma_p=0.4, gamma_z=0.3, delta=0.7, omega=0.0)
        xi = 1.3
        lam = sorted(spectral.cardano_eigenvalues(np.array([xi]), p)[0], key=lambda z: z.imag)
        base = -2 * p.gamma_p * xi**2
        expected = sorted([base - 2 * p.gamma_z, base + 2j * p.delta * xi,
                           base - 2j * p.delta * xi], key=lambda z: z.imag)
        assert np.max(np.abs(np.array(lam) - np.array(expected))) < 1e-12

    def test_uncoupled_closed_eigenvalues(self):
        p = Params(gamma_p=0.4, gamma_z=0.5, delta=0.0, omega=0.1)
        xi = 0.9
        lam = spectral.cardano_eigenvalues(np.array([xi]), p)[0]
        base = -2 * p.gamma_p * xi**2
        root = math.sqrt(p.gamma_z**2 - 4 * p.omega**2)
        expected = np.array([base, base - p.gamma_z + root, base - p.gamma_z - root])
        for e in expected:
            assert np.min(np.abs(lam - e)) < 1e-12

    def test_undamped_closed_eigenvalues(self):
        p = Params(gamma_p=0.4, gamma_z=0.0, delta=0.6, omega=0.2)
        xi = 1.1
        lam = spectral.cardano_eigenvalues(np.array([xi]), p)[0]
        base = -2 * p.gamma_p * xi**2
        w = 2 * math.sqrt(p.delta**2 * xi**2 + p.omega**2)
        for e in (base, base + 1j * w, base - 1j * w):
            assert np.min(np.abs(lam - e)) < 1e-12


class TestEigensystem:
    def test_vectors_satisfy_eigen_equation(self, rng):
        for _ in range(100):
            p = Params(*rng.uniform(0.02, 2.0, 4))
            xi = float(rng.uniform(0.05, 20.0) * rng.choice([-1, 1]))
            sm = spectral.build_symbol(xi, p)
            try:
                es = spectral.eigensystem(sm, p)
            except DefectiveMatrix:
                continue
            for j in range(3):
                res = sm.q @ es.vectors[:, j] - es.lambdas[j] * es.vectors[:, j]
                assert np.max(np.abs(res)) < 1e-8 * max(1.0, np.max(np.abs(sm.q)))
            recon = (es.vectors * np.exp(es.lambdas)) @ es.inverse
            assert np.max(np.abs(recon - scipy.linalg.expm(sm.q))) < 1e-9

    def test_defective_critical_point_raises(self):
        # gamma_z = 2*omega makes the internal block a Jordan cell at xi=0
        p = Params(gamma_p=1.0, gamma_z=0.2, delta=0.5, omega=0.1)
        with pytest.raises(DefectiveMatrix):
            spectral.eigensystem(spectral.build_symbol(0.0, p), p)

    def test_exp_symbol_falls_back_for_defective(self):
        p = Params(gamma_p=1.0, gamma_z=0.2, delta=0.5, omega=0.1)
        sm = spectral.build_symbol(0.0, p)
        direct = spectral.exp_symbol(sm, 3.0)
        ref = scipy.linalg.expm(3.0 * sm.q)
        assert np.max(np.abs(direct - ref)) < 1e-13


class TestStability:
    def test_zero_frequency_pair(self):
        p = Params(gamma_p=1.0, gamma_z=0.5, delta=0.7, omega=0.1)
        lam = spectral.cardano_eigenvalues(np.array([0.0]), p)[0]
        root = math.sqrt(p.gamma_z**2 - 4 * p.omega**2)
        targets = [0.0, -p.gamma_z + root, -p.gamma_z - root]
        for tv in targets:
            assert np.min(np.abs(lam - tv)) < 1e-12

    def test_random_draws_dissipative(self, rng):
        for _ in range(100):
            p = Params(*np.exp(rng.uniform(math.log(1e-4), math.log(10.0), 4)))
            xis = rng.uniform(-100, 100, 10)
            report = spectral.stability_check(p, [0.0, *xis[xis != 0.0]])
            assert report.max_real_part < 0.0
            assert report.zero_mode_residual < 1e-12

    def test_underflowed_zero_mode_accepted(self):
        # the zero mode at these xi is below the least normal double
        p = Params(gamma_p=1.0, gamma_z=2.0, delta=1.0, omega=0.5)
        report = spectral.stability_check(p, [0.0, 1e-170, 1.0527533645051122e-212])
        assert report.max_real_part <= 0.0

    @pytest.mark.parametrize("xi, mode, value", [
        (1.7e-103, 0, 0.0),      # representable zero mode with zero real part
        (1e-170, 0, 1e-300),     # positive real part, even below the least normal
        (1e-170, 1, 0.0),        # zero real part on a mode that is not the least
    ])
    def test_violations_still_raise(self, monkeypatch, xi, mode, value):
        p = Params(gamma_p=1.0, gamma_z=2.0, delta=1.0, omega=0.5)
        cardano = spectral.cardano_eigenvalues

        def tampered(xis, p):
            lam = cardano(xis, p)
            order = np.argsort(np.abs(lam[0]))
            lam[0, order[mode]] = complex(value, lam[0, order[mode]].imag)
            return lam

        monkeypatch.setattr(spectral, "cardano_eigenvalues", tampered)
        with pytest.raises(StabilityViolation):
            spectral.stability_check(p, [xi])

    @pytest.mark.parametrize("p", [
        Params(gamma_p=1.0, gamma_z=0.5, delta=0.7, omega=0.0),  # 0, 0, -2 gamma_z
        Params(gamma_p=1.0, gamma_z=0.0, delta=0.7, omega=0.0),  # 0, 0, 0
        Params(gamma_p=1.0, gamma_z=0.0, delta=0.7, omega=0.5),  # 0, +-2i omega
    ])
    def test_zero_modes_counted_from_rates(self, p):
        # the exact zeros at xi = 0 come out as +-6e-17; that must not matter
        report = spectral.stability_check(p, [0.0, 0.3])
        assert report.max_real_part < 0.0
        assert report.zero_mode_residual < 1e-12

    @pytest.mark.parametrize("p, mode", [
        (Params(gamma_p=1.0, gamma_z=0.5, delta=0.7, omega=0.0), 1),  # a zero mode
        (Params(gamma_p=1.0, gamma_z=0.5, delta=0.7, omega=0.0), 2),  # the -2 gamma_z mode
        (Params(gamma_p=1.0, gamma_z=0.0, delta=0.7, omega=0.5), 1),  # one of +-2i omega
    ])
    def test_zero_frequency_violations_raise(self, monkeypatch, p, mode):
        cardano = spectral.cardano_eigenvalues

        def tampered(xis, p):
            lam = cardano(xis, p)
            order = np.argsort(np.abs(lam[0]))
            lam[0, order[mode]] = complex(1e-3, lam[0, order[mode]].imag)
            return lam

        monkeypatch.setattr(spectral, "cardano_eigenvalues", tampered)
        with pytest.raises(StabilityViolation):
            spectral.stability_check(p, [0.0])

    def test_triple_root_is_warning_free(self):
        # the depressed cubic has a triple root here; its rows must not form inf * 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = spectral.stability_check(Params(1.0, 0.0, 0.0, 0.0), [1e-100])
            lam = spectral.cardano_eigenvalues(np.array([0.0, 1e-100]), Params(1.0, 0.0, 0.0, 0.0))
        assert report.max_real_part < 0.0
        assert np.all(lam == np.array([[0.0], [-2e-200]]))

    def test_large_frequency_dominated_by_diffusion(self):
        p = Params(gamma_p=1.0, gamma_z=0.5, delta=0.7, omega=0.1)
        lam = spectral.cardano_eigenvalues(np.array([100.0]), p)[0]
        assert np.max(lam.real) < -1.9e4


class TestExpSymbol:
    def test_identity_at_zero_time(self):
        sm = spectral.build_symbol(0.7, GENERAL)
        assert np.max(np.abs(spectral.exp_symbol(sm, 0.0) - np.eye(3))) == 0.0
        E = spectral.exp_symbols(np.array([0.3, 0.9]), GENERAL, 0.0)
        assert np.max(np.abs(E - np.eye(3))) == 0.0

    def test_undriven_printed_matrix(self):
        p = Params(gamma_p=1e-3, gamma_z=1e-3, delta=1e-2, omega=0.0)
        t = 50.0
        xi = np.linspace(-40, 40, 801)
        E = spectral.exp_symbols(xi, p, t)
        decay = np.exp(-2 * p.gamma_p * t * xi**2)
        ref = np.zeros_like(E)
        ref[:, 0, 0] = ref[:, 2, 2] = decay * np.cos(2 * p.delta * t * xi)
        ref[:, 0, 2] = ref[:, 2, 0] = -1j * decay * np.sin(2 * p.delta * t * xi)
        ref[:, 1, 1] = decay * math.exp(-2 * p.gamma_z * t)
        assert np.max(np.abs(E - ref)) < 1e-13

    def test_undamped_corner_entry(self):
        # for gamma_z = 0 the (3,3) entry is exp(-2 gp t xi^2) cos(t w(xi))
        p = Params(gamma_p=1e-2, gamma_z=0.0, delta=1e-1, omega=1e-2)
        t = 25.0
        xi = np.linspace(-10, 10, 401)
        E = spectral.exp_symbols(xi, p, t)
        w = 2 * np.sqrt(p.delta**2 * xi**2 + p.omega**2)
        ref = np.exp(-2 * p.gamma_p * t * xi**2) * np.cos(t * w)
        assert np.max(np.abs(E[:, 2, 2] - ref)) < 1e-12

    def test_semigroup_property(self, rng):
        for _ in range(20):
            p = Params(*rng.uniform(0.01, 1.0, 4))
            xi = float(rng.uniform(-5, 5))
            t1, t2 = rng.uniform(0.1, 30.0, 2)
            e1 = spectral.exp_symbols(np.array([xi]), p, t1)[0]
            e2 = spectral.exp_symbols(np.array([xi]), p, t2)[0]
            e12 = spectral.exp_symbols(np.array([xi]), p, t1 + t2)[0]
            assert np.max(np.abs(e2 @ e1 - e12)) < 1e-10

    def test_diagonalized_path_matches_expm(self, rng):
        worst = 0.0
        for _ in range(200):
            p = Params(*np.exp(rng.uniform(math.log(1e-3), math.log(2.0), 4)))
            xi = float(rng.uniform(-20, 20))
            t = float(rng.uniform(0.0, 100.0))
            mine = spectral.exp_symbols(np.array([xi]), p, t)[0]
            ref = scipy.linalg.expm(t * spectral.build_symbol(xi, p).q)
            worst = max(worst, np.max(np.abs(mine - ref)))
        assert worst < 1e-10


class TestGreenFunction:
    def test_matches_closed_undriven_matrix(self):
        p = Params(gamma_p=1e-3, gamma_z=1e-3, delta=1e-2, omega=0.0)
        grid = SpatialGrid(24.0, 4096)
        G = spectral.green_function(p, 50.0, grid)
        ref = omega0.green_omega0(p, 50.0, grid.nodes)
        err = max(np.max(np.abs(G.entries[i, j] - ref[:, i, j]))
                  for i in range(3) for j in range(3))
        assert err < 1e-8
        assert G.delta_shifts == {}

    def test_first_column_mass(self):
        # integral over x of (G11 + G31) equals the (1,1)+(3,1) entries of
        # exp(t Q(0)), i.e. total probability of a point source stays 1
        grid = SpatialGrid(24.0, 2048)
        t = 30.0
        G = spectral.green_function(GENERAL, t, grid)
        total = grid.trapezoid(G.entries[0, 0] + G.entries[2, 0])
        e0 = spectral.exp_symbols(np.array([0.0]), GENERAL, t)[0]
        assert math.isclose(total, float((e0[0, 0] + e0[2, 0]).real), abs_tol=1e-9)
        assert math.isclose(total, 1.0, abs_tol=1e-9)

    def test_under_resolved_grid_rejected(self):
        with pytest.raises(GridUnderResolved):
            spectral.green_function(GENERAL, 1.0, SpatialGrid(24.0, 256))

    def test_tail_not_decayed_rejected(self):
        p = Params(gamma_p=1.0, gamma_z=0.0, delta=0.0, omega=0.0)
        with pytest.raises((TailNotDecayed, GridUnderResolved)):
            spectral.green_function(p, 40.0, SpatialGrid(12.0, 1024))


class TestSolve:
    def test_zero_time_returns_sampled_data(self):
        grid = SpatialGrid(24.0, 1024)
        u = spectral.solve(GENERAL, IC, 0.0, grid)
        d = sample_initial(IC, grid)
        assert np.max(np.abs(u.rho_plus - d.probability_density)) == 0.0

    def test_matches_closed_undriven_solution(self):
        p = Params(gamma_p=1e-3, gamma_z=1e-3, delta=1e-2, omega=0.0)
        grid = SpatialGrid(24.0, 2048)
        for t in (50.0, 200.0):
            u = spectral.solve(p, IC, t, grid)
            P, Q = omega0.gaussian_solution(p, IC, t, grid.nodes)
            assert np.max(np.abs(u.rho_plus - P)) < 1e-8
            assert np.max(np.abs(u.rho_minus - Q)) < 1e-8

    def test_matches_fd_oracle_general_params(self):
        grid = SpatialGrid(24.0, 2048)
        t = 50.0
        fd = oracle.fd_integrate(GENERAL, IC, t, grid, richardson=True)
        u = spectral.solve(GENERAL, IC, t, grid)
        worst = max(
            np.max(np.abs(u.rho_plus - fd.field.rho_plus)),
            np.max(np.abs(u.c_i - fd.field.c_i)),
            np.max(np.abs(u.rho_minus - fd.field.rho_minus)),
            np.max(np.abs(u.c_r - fd.field.c_r)),
        )
        # the FD spatial truncation dominates; its time error is tiny
        assert fd.richardson_error < 1e-12
        assert worst < 3e-5

    def test_mass_conserved(self):
        grid = SpatialGrid(28.0, 2048)
        for t in (10.0, 120.0):
            u = spectral.solve(GENERAL, IC, t, grid)
            assert abs(u.mass() - 1.0) < 1e-8

    def test_semigroup_through_custom_restart(self):
        grid = SpatialGrid(28.0, 2048)
        direct = spectral.solve(GENERAL, IC, 50.0, grid)
        leg = spectral.solve(GENERAL, IC, 30.0, grid)
        two = spectral.solve(GENERAL, Custom(from_bloch(leg)), 20.0, grid)
        assert np.max(np.abs(two.rho_plus - direct.rho_plus)) < 1e-8
        assert np.max(np.abs(two.c_r - direct.c_r)) < 1e-8
