import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import brentq
from hypothesis import example, given, settings, strategies as st

from oqbm import gammaz0, omega0, oracle, spectral
from oqbm.core import (
    Custom,
    GaussianCoherent,
    GaussianMixture,
    LaplaceCoherent,
    Params,
    SpatialGrid,
    from_bloch,
    sample_initial,
)
from oqbm.errors import GridUnderResolved, NonPositiveTime, StabilityViolation, TailNotDecayed

IC = GaussianMixture(p=0.75, sigma1=1.0, sigma2=2.0)
GENERAL = Params(gamma_p=1e-3, gamma_z=1e-3, delta=1e-2, omega=1e-2)
CRITICAL = Params(gamma_p=1.0, gamma_z=0.2, delta=0.5, omega=0.1)  # gamma_z = 2 omega


def symbol(xi, p):
    return spectral.symbol_matrices(np.array([xi]), p)[0]


def discriminant_zeros(p):
    """Frequencies in (1e-3, 30) where the characteristic cubic has a double root."""
    def disc(xi):
        a1, a2, a3 = spectral.char_coeffs(xi, p)
        return (18 * a1 * a2 * a3 - 4 * a1**3 * a3 + a1**2 * a2**2
                - 4 * a2**3 - 27 * a3**2)

    xs = np.geomspace(1e-3, 30.0, 400)
    d = np.array([disc(x) for x in xs])
    return [brentq(disc, xs[i], xs[i + 1], xtol=1e-300)
            for i in np.nonzero(np.sign(d[:-1]) != np.sign(d[1:]))[0]]


def mpmath_eigenvalues(xi, p):
    """Eigenvalues of Q(xi) at 60 digits, from the exact double rates and xi."""
    with mpmath.workdps(60):
        gp, gz, dl, om, x = (mpmath.mpf(v) for v in (p.gamma_p, p.gamma_z, p.delta, p.omega, xi))
        lap = -2 * gp * x * x
        q = mpmath.matrix([[lap, 0, -2j * x * dl],
                           [0, lap - 2 * gz, om],
                           [-2j * x * dl, -4 * om, lap]])
        return mpmath.eig(q, left=False, right=False)


def mpmath_expm(q, t):
    """exp(t q) at 40 digits from the double entries of q."""
    with mpmath.workdps(40):
        m = mpmath.matrix([[mpmath.mpc(v.real, v.imag) * t for v in row] for row in q])
        e = mpmath.expm(m)
        return np.array([[complex(e[i, j]) for j in range(3)] for i in range(3)])


class TestSymbol:
    def test_structure_at_zero_frequency(self):
        p = Params(gamma_p=1.0, gamma_z=0.3, delta=0.7, omega=0.2)
        q = symbol(0.0, p)
        expected = np.array([[0, 0, 0], [0, -0.6, 0.2], [0, -0.8, 0]], dtype=complex)
        assert np.max(np.abs(q - expected)) < 1e-15

    def test_undriven_zero_frequency_is_diagonal(self):
        p = Params(gamma_p=1.0, gamma_z=0.3, delta=0.7, omega=0.0)
        q = symbol(0.0, p)
        assert np.max(np.abs(q - np.diag([0.0, -0.6, 0.0]))) < 1e-15

    def test_unit_frequency_substitution(self):
        p = Params(gamma_p=1.0, gamma_z=0.0, delta=1.0, omega=0.0)
        q = symbol(1.0, p)
        expected = np.array([[-2, 0, -2j], [0, -2, 0], [-2j, 0, -2]])
        assert np.max(np.abs(q - expected)) < 1e-15

    def test_conjugate_symmetry(self, rng):
        p = Params(*rng.uniform(0.01, 1.0, 4))
        for xi in rng.uniform(-20, 20, 10):
            assert np.max(np.abs(symbol(-xi, p) - np.conj(symbol(xi, p)))) < 1e-14


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
            q = symbol(xi, p)
            lam = complex(rng.normal(), rng.normal())
            det = np.linalg.det(lam * np.eye(3) - q)
            poly = lam**3 + a1 * lam**2 + a2 * lam + a3
            assert abs(det - poly) < 1e-10 * max(1.0, abs(det))


class TestEigenvalues:
    def test_symbol_eigenvalues_match_dense_solver(self, rng):
        worst = 0.0
        for _ in range(1000):
            p = Params(*np.exp(rng.uniform(math.log(1e-3), math.log(3.0), 4)))
            xi = float(rng.uniform(-30, 30))
            lam = spectral.symbol_eigenvalues(np.array([xi]), p)[0]
            ref = np.linalg.eigvals(symbol(xi, p))
            scale = max(1.0, np.max(np.abs(ref)))
            for lv in lam:
                worst = max(worst, np.min(np.abs(ref - lv)) / scale)
        assert worst < 1e-9

    @given(
        rates=st.tuples(*[st.floats(1e-4, 5.0) for _ in range(4)]),
        xi=st.floats(-50.0, 50.0),
    )
    @settings(max_examples=60, deadline=None)
    # 2 gp xi^2 underflows to 0 here: Q(xi) is Q(0), with an exact zero mode
    @example(rates=(1.0, 2.0, 1.0, 0.5), xi=1.0527533645051122e-212)
    # zero mode -5.2e-205 is representable and must come out negative
    @example(rates=(1.0, 2.0, 1.0, 0.5), xi=1.7e-103)
    # Cardano's radicals cancelled to 1e-8 of their terms here
    @example(rates=(1.0, 0.421875, 3.25, 0.0625), xi=0.072265625)
    # subnormal e = 4 dl^2 xi^2: the form P = b e / |r| left a residual of 4e-7
    @example(rates=(1.0, 1.0, 1.0, 1.5), xi=1.2234265033506086e-159)
    # the discriminant underflows at this xi; a real branch returned +e
    @example(rates=(0.001479669037313537, 0.006094542339445628, 1.6578503398546838, 0.0),
             xi=2.8516054689412795e-160)
    def test_symbol_eigenvalues_property(self, rates, xi):
        p = Params(*rates)
        lam = spectral.symbol_eigenvalues(np.array([xi]), p)[0]
        a1, a2, a3 = spectral.char_coeffs(xi, p)
        scale = max(1.0, float(np.max(np.abs(lam)))) ** 3
        residual = np.abs(lam**3 + a1 * lam**2 + a2 * lam + a3) / scale
        assert float(np.max(residual)) < 1e-10
        # every real part is at most -2 gp xi^2, in the routine's own arithmetic
        if 2.0 * p.gamma_p * (xi * xi) != 0.0:
            assert np.all(lam.real < 0.0)
        else:
            assert np.all(lam.real <= 0.0)

    def test_each_root_matches_mpmath(self, rng):
        # relative to the root itself, where the roots are well apart; the
        # draws avoid double roots, where any double-precision input moves
        # the roots by sqrt(eps)
        points = [(Params(1.0, 0.3, 0.7, 0.0), xi) for xi in (2.3e-12, 1e-8, 1e-3)]  # omega = 0
        points += [(CRITICAL, xi) for xi in (1e-12, 1e-8, 1e-4, 0.3)]
        points += [(Params(1.0, 0.0, 0.7, 0.5), xi) for xi in (1e-12, 1e-6, 0.7)]     # gamma_z = 0
        points += [(Params(1.0, 0.5, 0.0, 0.1), xi) for xi in (1e-9, 0.2, 3.0)]       # delta = 0
        points += [(Params(1.0, 0.5, 0.7, 0.0), 1e-16), (Params(1.0, 0.5, 0.0, 0.0), 1e-10)]
        for _ in range(40):
            p = Params(*np.exp(rng.uniform(math.log(1e-4), math.log(5.0), 4)))
            points.append((p, float(10.0 ** rng.uniform(-12.0, 1.5))))
        worst_rel = worst_abs = 0.0
        for p, xi in points:
            lam = spectral.symbol_eigenvalues(np.array([xi]), p)[0]
            ref = mpmath_eigenvalues(xi, p)
            scale = max(abs(r) for r in ref)
            for r in ref:
                err = min(abs(mpmath.mpc(v.real, v.imag) - r) for v in lam)
                worst_rel = max(worst_rel, float(err / abs(r)))
                worst_abs = max(worst_abs, float(err / scale))
        assert worst_rel <= 1e-13
        assert worst_abs <= 1e-15

    def test_undriven_closed_eigenvalues(self):
        p = Params(gamma_p=0.4, gamma_z=0.3, delta=0.7, omega=0.0)
        xi = 1.3
        lam = sorted(spectral.symbol_eigenvalues(np.array([xi]), p)[0], key=lambda z: z.imag)
        base = -2 * p.gamma_p * xi**2
        expected = sorted([base - 2 * p.gamma_z, base + 2j * p.delta * xi,
                           base - 2j * p.delta * xi], key=lambda z: z.imag)
        assert np.max(np.abs(np.array(lam) - np.array(expected))) < 1e-12

    def test_uncoupled_closed_eigenvalues(self):
        p = Params(gamma_p=0.4, gamma_z=0.5, delta=0.0, omega=0.1)
        xi = 0.9
        lam = spectral.symbol_eigenvalues(np.array([xi]), p)[0]
        base = -2 * p.gamma_p * xi**2
        root = math.sqrt(p.gamma_z**2 - 4 * p.omega**2)
        expected = np.array([base, base - p.gamma_z + root, base - p.gamma_z - root])
        for e in expected:
            assert np.min(np.abs(lam - e)) < 1e-12

    def test_undamped_closed_eigenvalues(self):
        p = Params(gamma_p=0.4, gamma_z=0.0, delta=0.6, omega=0.2)
        xi = 1.1
        lam = spectral.symbol_eigenvalues(np.array([xi]), p)[0]
        base = -2 * p.gamma_p * xi**2
        w = 2 * math.sqrt(p.delta**2 * xi**2 + p.omega**2)
        for e in (base, base + 1j * w, base - 1j * w):
            assert np.min(np.abs(lam - e)) < 1e-12


class TestStability:
    def test_zero_frequency_pair(self):
        p = Params(gamma_p=1.0, gamma_z=0.5, delta=0.7, omega=0.1)
        lam = spectral.symbol_eigenvalues(np.array([0.0]), p)[0]
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
        # 2 gp xi^2 underflows to 0 at these xi, so Q(xi) is Q(0) and the
        # zero mode is held to the xi = 0 rule
        p = Params(gamma_p=1.0, gamma_z=2.0, delta=1.0, omega=0.5)
        report = spectral.stability_check(p, [0.0, 1e-170, 1.0527533645051122e-212])
        assert report.max_real_part < 0.0

    @pytest.mark.parametrize("p, xi", [
        (Params(1.0, 0.5, 0.7, 0.0), 1e-16),  # the pair +-2i dl xi has real part -2e-32
        (Params(1.0, 0.5, 0.0, 0.0), 1e-10),  # a double root at -2e-20
    ])
    def test_undriven_modes_at_tiny_frequency(self, p, xi):
        report = spectral.stability_check(p, [0.0, xi])
        assert report.max_real_part < 0.0

    @pytest.mark.parametrize("xi, mode, value", [
        (1.7e-103, 0, 0.0),      # zero real part where 2 gp xi^2 > 0
        (1e-170, 0, 1e-300),     # positive real part on the zero mode of Q(0)
        (1e-170, 1, 0.0),        # zero real part on a damped mode of Q(0)
    ])
    def test_violations_still_raise(self, monkeypatch, xi, mode, value):
        p = Params(gamma_p=1.0, gamma_z=2.0, delta=1.0, omega=0.5)
        eigenvalues = spectral.symbol_eigenvalues

        def tampered(xis, p):
            lam = eigenvalues(xis, p)
            order = np.argsort(np.abs(lam[0]))
            lam[0, order[mode]] = complex(value, lam[0, order[mode]].imag)
            return lam

        monkeypatch.setattr(spectral, "symbol_eigenvalues", tampered)
        with pytest.raises(StabilityViolation):
            spectral.stability_check(p, [xi])

    @pytest.mark.parametrize("p", [
        Params(gamma_p=1.0, gamma_z=0.5, delta=0.7, omega=0.0),  # 0, 0, -2 gamma_z
        Params(gamma_p=1.0, gamma_z=0.0, delta=0.7, omega=0.0),  # 0, 0, 0
        Params(gamma_p=1.0, gamma_z=0.0, delta=0.7, omega=0.5),  # 0, +-2i omega
    ])
    def test_zero_modes_counted_from_rates(self, p):
        # the zero modes at xi = 0 come out exactly zero
        report = spectral.stability_check(p, [0.0, 0.3])
        assert report.max_real_part < 0.0
        assert report.zero_mode_residual < 1e-12

    @pytest.mark.parametrize("p, mode", [
        (Params(gamma_p=1.0, gamma_z=0.5, delta=0.7, omega=0.0), 1),  # a zero mode
        (Params(gamma_p=1.0, gamma_z=0.5, delta=0.7, omega=0.0), 2),  # the -2 gamma_z mode
        (Params(gamma_p=1.0, gamma_z=0.0, delta=0.7, omega=0.5), 1),  # one of +-2i omega
    ])
    def test_zero_frequency_violations_raise(self, monkeypatch, p, mode):
        eigenvalues = spectral.symbol_eigenvalues

        def tampered(xis, p):
            lam = eigenvalues(xis, p)
            order = np.argsort(np.abs(lam[0]))
            lam[0, order[mode]] = complex(1e-3, lam[0, order[mode]].imag)
            return lam

        monkeypatch.setattr(spectral, "symbol_eigenvalues", tampered)
        with pytest.raises(StabilityViolation):
            spectral.stability_check(p, [0.0])

    def test_triple_root_is_warning_free(self):
        # the shifted cubic is mu^3 here; Newton's first step is 0/0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = spectral.stability_check(Params(1.0, 0.0, 0.0, 0.0), [1e-100])
            lam = spectral.symbol_eigenvalues(np.array([0.0, 1e-100]), Params(1.0, 0.0, 0.0, 0.0))
        assert report.max_real_part < 0.0
        assert np.all(lam == np.array([[0.0], [-2e-200]]))

    @pytest.mark.parametrize("xi", [1e-12, 1e-10, 1e-9])
    def test_undamped_pair_at_small_frequency(self, xi):
        # the real part of the +-2i omega pair, -2 gp xi^2, lies far below
        # the round-off of |lambda| = 1 and must still come out negative
        report = spectral.stability_check(Params(1.0, 0.0, 0.7, 0.5), [xi])
        assert report.max_real_part < 0.0

    def test_large_frequency_dominated_by_diffusion(self):
        p = Params(gamma_p=1.0, gamma_z=0.5, delta=0.7, omega=0.1)
        lam = spectral.symbol_eigenvalues(np.array([100.0]), p)[0]
        assert np.max(lam.real) < -1.9e4


class TestExpSymbol:
    def test_identity_at_zero_time(self):
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
            ref = scipy.linalg.expm(t * symbol(xi, p))
            worst = max(worst, np.max(np.abs(mine - ref)))
        assert worst < 1e-10

    def test_critical_point_matches_expm(self):
        # gamma_z = 2 omega makes the internal block a Jordan cell at xi = 0
        direct = spectral.exp_symbols(np.array([0.0]), CRITICAL, 3.0)[0]
        ref = scipy.linalg.expm(3.0 * symbol(0.0, CRITICAL))
        assert np.max(np.abs(direct - ref)) < 1e-13

    def test_matches_mpmath_where_eigenvalues_coalesce(self):
        # eigenvalues meet at xi = 0, near it, at the critical point, at
        # omega = 0, at gamma_z = 0, under pure diffusion and at zeros of
        # the cubic's discriminant (a double root)
        coalescing = [CRITICAL,
                      Params(gamma_p=1.0, gamma_z=0.3, delta=0.7, omega=0.0),
                      Params(gamma_p=1.0, gamma_z=0.0, delta=0.7, omega=0.5),
                      Params(gamma_p=1.0, gamma_z=0.0, delta=0.0, omega=0.0)]
        points = [(xi, p) for p in coalescing for xi in (0.0, 1e-12, 1e-8, 1e-5, 1e-3, 0.1)]
        for p in (CRITICAL, Params(1.0, 0.5, 0.7, 0.1), Params(1.0, 1.0, 1.0, 0.4),
                  Params(0.1, 3.0, 1.0, 0.5)):
            zeros = discriminant_zeros(p)
            assert zeros
            points += [(xi, p) for xi in zeros]
        worst = 0.0
        for xi, p in points:
            for t in (0.5, 3.0, 40.0):
                mine = spectral.exp_symbols(np.array([xi]), p, t)[0]
                ref = mpmath_expm(symbol(xi, p), t)
                worst = max(worst, np.max(np.abs(mine - ref)) / max(1.0, np.max(np.abs(ref))))
        assert worst <= 1e-12


@pytest.mark.parametrize("call", [
    lambda: spectral.green_function(GENERAL, 0.0, SpatialGrid(24.0, 512)),
    lambda: spectral.green_function(GENERAL, -1.0, SpatialGrid(24.0, 512)),
    lambda: spectral.exp_symbols(np.array([0.3]), GENERAL, -1.0),
    lambda: spectral.solve(GENERAL, IC, -1.0, SpatialGrid(24.0, 512)),
], ids=["green-zero", "green-negative", "exp-negative", "solve-negative"])
def test_nonpositive_time_is_typed(call):
    with pytest.raises(NonPositiveTime):
        call()


class TestGreenFunction:
    def test_matches_closed_undriven_matrix(self):
        p = Params(gamma_p=1e-3, gamma_z=1e-3, delta=1e-2, omega=0.0)
        grid = SpatialGrid(24.0, 4096)
        G = spectral.green_function(p, 50.0, grid)
        ref = omega0.green_omega0(p, 50.0, grid.nodes)
        err = max(np.max(np.abs(G.entries[i, j] - ref[:, i, j]))
                  for i in range(3) for j in range(3))
        assert err < 1e-8

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
            P, Q = omega0.populations(p, IC, t, grid.nodes)
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
        # the coherent input gives the Custom route's c_r transform non-zero data
        grid = SpatialGrid(28.0, 2048)
        for ic in (IC, GaussianCoherent(p=0.75, mu=0.8, k=1.0, sigma=1.0)):
            direct = spectral.solve(GENERAL, ic, 50.0, grid)
            leg = spectral.solve(GENERAL, ic, 30.0, grid)
            two = spectral.solve(GENERAL, Custom(from_bloch(leg)), 20.0, grid)
            assert np.max(np.abs(two.rho_plus - direct.rho_plus)) < 1e-8
            assert np.max(np.abs(two.c_r - direct.c_r)) < 1e-8

    def test_matches_closed_driven_laplace_coherent(self):
        # every component, c_r included, against the gamma_z = 0 closed route
        p = Params(gamma_p=1e-2, gamma_z=0.0, delta=1e-1, omega=1e-2)
        ic = LaplaceCoherent.for_params(p=0.25, r=0.8, q=0.1, params=p)
        grid = SpatialGrid(224.0, 4096)
        for t in (25.0, 100.0):
            u = spectral.solve(p, ic, t, grid)
            ref = gammaz0.solve_laplace_coherent(p, ic, t, grid)
            for name in ("rho_plus", "c_i", "rho_minus", "c_r"):
                assert np.max(np.abs(getattr(u, name) - getattr(ref, name))) < 1e-10, name
