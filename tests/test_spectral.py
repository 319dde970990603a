import functools
import math
import warnings
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import brentq
from hypothesis import example, given, settings, strategies as st

from oqbm import gammaz0, omega0, oracle, spectral
from oqbm.core import (
    GaussianCoherent,
    GaussianMixture,
    LaplaceCoherent,
    LaplaceMixture,
    Params,
    SpatialGrid,
    UniformMixture,
    plan_grid,
    reach,
    sample_initial,
)
from oqbm.errors import (
    DomainTooNarrow,
    GridUnderResolved,
    NonPositiveTime,
    TailNotDecayed,
)

IC = GaussianMixture(p=0.75, sigma1=1.0, sigma2=2.0)
GENERAL = Params(gamma_p=1e-3, gamma_z=1e-3, delta=1e-2, omega=1e-2)
CRITICAL = Params(gamma_p=1.0, gamma_z=0.2, delta=0.5, omega=0.1)  # gamma_z = 2 omega


def symbol(xi, p):
    """The reference symbol Q(xi), a dense complex 3x3 matrix."""
    lap = -2.0 * p.gamma_p * xi**2
    return np.array([[lap, 0.0, -2j * xi * p.delta],
                     [0.0, lap - 2.0 * p.gamma_z, p.omega],
                     [-2j * xi * p.delta, -4.0 * p.omega, lap]], dtype=complex)


def char_coeffs(xi, p):
    """The reference polynomial: (a1, a2, a3) of det(lambda I - Q) =
    lambda^3 + a1 lambda^2 + a2 lambda + a3."""
    gp, gz, dl, om = p.gamma_p, p.gamma_z, p.delta, p.omega
    x2 = xi * xi
    a1 = 6.0 * gp * x2 + 2.0 * gz
    a2 = 12.0 * gp**2 * x2**2 + (4.0 * dl**2 + 8.0 * gp * gz) * x2 + 4.0 * om**2
    a3 = x2 * (8.0 * gp**3 * x2**2 + (8.0 * dl**2 * gp + 8.0 * gp**2 * gz) * x2
               + 8.0 * om**2 * gp + 8.0 * dl**2 * gz)
    return a1, a2, a3


def discriminant_zeros(p):
    """Frequencies in (1e-3, 30) where the characteristic cubic has a double root."""
    def disc(xi):
        a1, a2, a3 = char_coeffs(xi, p)
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


@functools.cache
def coalescing_points() -> list:
    """(xi, p) where eigenvalues meet: at xi = 0, near it, at the critical
    point, at omega = 0, at gamma_z = 0, under pure diffusion and at zeros of
    the cubic's discriminant (a double root)."""
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
    return points


@functools.cache
def coalescing_reference(xi, p, t):
    return mpmath_expm(symbol(xi, p), t)


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
        a1, a2, a3 = char_coeffs(0.0, p)
        assert math.isclose(a1, 2 * p.gamma_z)
        assert math.isclose(a2, 4 * p.omega**2)
        assert a3 == 0.0

    def test_hurwitz_combination(self, rng):
        # a1 a2 - a3 printed expansion
        for _ in range(50):
            p = Params(*rng.uniform(0.01, 2.0, 4))
            xi = float(rng.uniform(-10, 10))
            a1, a2, a3 = char_coeffs(xi, p)
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
            a1, a2, a3 = char_coeffs(xi, p)
            q = symbol(xi, p)
            lam = complex(rng.normal(), rng.normal())
            det = np.linalg.det(lam * np.eye(3) - q)
            poly = lam**3 + a1 * lam**2 + a2 * lam + a3
            assert abs(det - poly) < 1e-10 * max(1.0, abs(det))


def rate_rows(sets, m):
    """The rates of ``sets`` as arrays, each rate set repeated over m rows."""
    return SimpleNamespace(**{f: np.repeat([getattr(p, f) for p in sets], m)
                              for f in ("gamma_p", "gamma_z", "delta", "omega")})


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
        a1, a2, a3 = char_coeffs(xi, p)
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

    def test_row_does_not_depend_on_its_batch(self, rng):
        # Newton stops per row: a frequency alone gets the bits it gets in a batch
        differ = []
        for _ in range(200):
            p = Params(*np.exp(rng.uniform(math.log(1e-3), math.log(3.0), 4)))
            xis = rng.uniform(-30.0, 30.0, 64)
            batch = spectral.symbol_eigenvalues(xis, p)
            for i in rng.choice(xis.size, 16, replace=False):
                alone = spectral.symbol_eigenvalues(xis[i:i + 1], p)[0]
                if alone.tobytes() != batch[i].tobytes():
                    differ.append((p, xis[i]))
        assert differ == []

    def test_rate_arrays_give_each_row_the_bits_of_its_rates_alone(self):
        # delta and omega where numpy's delta * delta differs from delta**2 (libm's
        # pow, which a float rate gets) in the last bit on glibc; each row of
        # one call over two rate sets must match its rate set checked alone
        sets = [Params(0.3, 0.2, 1.8528002090845035, 0.013587695790717126),
                Params(0.01, 1.5, 0.0026256095115628213, 0.00529201084146534)]
        xis = np.linspace(-20.0, 20.0, 41)
        lam = spectral.symbol_eigenvalues(np.tile(xis, 2), rate_rows(sets, xis.size))
        for k, p in enumerate(sets):
            assert np.array_equal(lam[k * xis.size:(k + 1) * xis.size], spectral.symbol_eigenvalues(xis, p))

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
            rule, _, modes, zero = spectral.dissipativity_rows(np.array([0.0, *xis[xis != 0.0]]), p)
            assert np.all(rule == 0)
            assert modes.max() < 0.0
            assert zero.max() < 1e-12

    def test_underflowed_zero_mode_accepted(self):
        # 2 gp xi^2 underflows to 0 at these xi, so Q(xi) is Q(0) and the
        # zero mode is held to the xi = 0 rule
        p = Params(gamma_p=1.0, gamma_z=2.0, delta=1.0, omega=0.5)
        rule, _, modes, _ = spectral.dissipativity_rows(np.array([0.0, 1e-170, 1.0527533645051122e-212]), p)
        assert np.all(rule == 0)
        assert modes.max() < 0.0

    @pytest.mark.parametrize("p, xi", [
        (Params(1.0, 0.5, 0.7, 0.0), 1e-16),  # the pair +-2i dl xi has real part -2e-32
        (Params(1.0, 0.5, 0.0, 0.0), 1e-10),  # a double root at -2e-20
    ])
    def test_undriven_modes_at_tiny_frequency(self, p, xi):
        rule, _, modes, _ = spectral.dissipativity_rows(np.array([0.0, xi]), p)
        assert np.all(rule == 0)
        assert modes.max() < 0.0

    # each tampered row is flagged with the rule it breaks: 1 the zero modes,
    # 2 the +-2i omega pair, 3 Re lambda >= 0
    @pytest.mark.parametrize("xi, mode, value, broken", [
        # zero real part where 2 gp xi^2 > 0
        pytest.param(1.7e-103, 0, 0.0, 3, id="1.7e-103-0-0.0"),
        # positive real part on the zero mode of Q(0)
        pytest.param(1e-170, 0, 1e-300, 1, id="1e-170-0-1e-300"),
        # zero real part on a damped mode of Q(0)
        pytest.param(1e-170, 1, 0.0, 3, id="1e-170-1-0.0"),
    ])
    def test_violations_still_raise(self, monkeypatch, xi, mode, value, broken):
        p = Params(gamma_p=1.0, gamma_z=2.0, delta=1.0, omega=0.5)
        eigenvalues = spectral.symbol_eigenvalues

        def tampered(xis, p):
            lam = eigenvalues(xis, p)
            order = np.argsort(np.abs(lam[0]))
            lam[0, order[mode]] = complex(value, lam[0, order[mode]].imag)
            return lam

        monkeypatch.setattr(spectral, "symbol_eigenvalues", tampered)
        assert spectral.dissipativity_rows(np.array([xi]), p)[0].tolist() == [broken]

    @pytest.mark.parametrize("p", [
        Params(gamma_p=1.0, gamma_z=0.5, delta=0.7, omega=0.0),  # 0, 0, -2 gamma_z
        Params(gamma_p=1.0, gamma_z=0.0, delta=0.7, omega=0.0),  # 0, 0, 0
        Params(gamma_p=1.0, gamma_z=0.0, delta=0.7, omega=0.5),  # 0, +-2i omega
    ])
    def test_zero_modes_counted_from_rates(self, p):
        # the zero modes at xi = 0 come out exactly zero
        rule, _, modes, zero = spectral.dissipativity_rows(np.array([0.0, 0.3]), p)
        assert np.all(rule == 0)
        assert modes.max() < 0.0
        assert zero.max() < 1e-12

    def test_rules_of_a_batch_are_those_of_each_rate_set_alone(self):
        # the zero-mode count and the +-2i omega pair differ between these
        # rate sets; one call over all of them gives each row what it gets alone
        sets = [Params(1.0, 0.5, 0.7, 0.0), Params(1.0, 0.0, 0.7, 0.0),
                Params(1.0, 0.0, 0.7, 0.5), Params(1.0, 2.0, 1.0, 0.5)]
        xis = np.array([0.0, 1e-170, 0.3, 5.0])
        batch = spectral.dissipativity_rows(np.tile(xis, len(sets)), rate_rows(sets, xis.size))
        for k, p in enumerate(sets):
            for got, alone in zip(batch, spectral.dissipativity_rows(xis, p)):
                assert np.array_equal(got[k * xis.size:(k + 1) * xis.size], alone)

    @pytest.mark.parametrize("p, mode, broken", [
        # a zero mode
        pytest.param(Params(gamma_p=1.0, gamma_z=0.5, delta=0.7, omega=0.0), 1, 1, id="p0-1"),
        # the -2 gamma_z mode
        pytest.param(Params(gamma_p=1.0, gamma_z=0.5, delta=0.7, omega=0.0), 2, 3, id="p1-2"),
        # one of +-2i omega
        pytest.param(Params(gamma_p=1.0, gamma_z=0.0, delta=0.7, omega=0.5), 1, 2, id="p2-1"),
    ])
    def test_zero_frequency_violations_raise(self, monkeypatch, p, mode, broken):
        eigenvalues = spectral.symbol_eigenvalues

        def tampered(xis, p):
            lam = eigenvalues(xis, p)
            order = np.argsort(np.abs(lam[0]))
            lam[0, order[mode]] = complex(1e-3, lam[0, order[mode]].imag)
            return lam

        monkeypatch.setattr(spectral, "symbol_eigenvalues", tampered)
        assert spectral.dissipativity_rows(np.array([0.0]), p)[0].tolist() == [broken]

    def test_triple_root_is_warning_free(self):
        # the shifted cubic is mu^3 here; Newton's first step is 0/0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rule, _, modes, _ = spectral.dissipativity_rows(np.array([1e-100]), Params(1.0, 0.0, 0.0, 0.0))
            lam = spectral.symbol_eigenvalues(np.array([0.0, 1e-100]), Params(1.0, 0.0, 0.0, 0.0))
        assert rule.tolist() == [0]
        assert modes.max() < 0.0
        assert np.all(lam == np.array([[0.0], [-2e-200]]))

    @pytest.mark.parametrize("xi", [1e-12, 1e-10, 1e-9])
    def test_undamped_pair_at_small_frequency(self, xi):
        # the real part of the +-2i omega pair, -2 gp xi^2, lies far below
        # the round-off of |lambda| = 1 and must still come out negative
        rule, _, modes, _ = spectral.dissipativity_rows(np.array([xi]), Params(1.0, 0.0, 0.7, 0.5))
        assert rule.tolist() == [0]
        assert modes.max() < 0.0

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

    def test_conjugate_symmetry_at_round_off(self, rng):
        # exp(t Q(-xi)) = conj exp(t Q(xi)): the property that lets solve and
        # green_function evolve only xi >= 0 and invert with a real transform.
        # Each side is accurate to about 1.5 eps max(1, t max|lambda|) (see
        # exp_symbols); on these 300 draws (19200 frequencies) the two sides
        # differed by at most 4.0 eps times that scale (1.8e-15 absolute).
        eps = np.finfo(float).eps
        worst = 0.0
        for _ in range(300):
            p = Params(*np.exp(rng.uniform(math.log(1e-3), math.log(100.0), 4)))
            t = float(np.exp(rng.uniform(math.log(1e-2), math.log(1e4))))
            xi = rng.uniform(0.0, 50.0, 64) * np.exp(rng.uniform(-8.0, 0.0, 64))
            diff = spectral.exp_symbols(-xi, p, t) - np.conj(spectral.exp_symbols(xi, p, t))
            lam = np.max(np.abs(spectral.symbol_eigenvalues(xi, p)), axis=1)
            scale = eps * np.maximum(1.0, t * lam)
            worst = max(worst, float(np.max(np.max(np.abs(diff), axis=(1, 2)) / scale)))
        assert worst <= 6.0

    def test_critical_point_matches_expm(self):
        # gamma_z = 2 omega makes the internal block a Jordan cell at xi = 0
        direct = spectral.exp_symbols(np.array([0.0]), CRITICAL, 3.0)[0]
        ref = scipy.linalg.expm(3.0 * symbol(0.0, CRITICAL))
        assert np.max(np.abs(direct - ref)) < 1e-13

    def test_matches_mpmath_where_eigenvalues_coalesce(self):
        worst = 0.0
        for xi, p in coalescing_points():
            for t in (0.5, 3.0, 40.0):
                mine = spectral.exp_symbols(np.array([xi]), p, t)[0]
                ref = coalescing_reference(xi, p, t)
                worst = max(worst, np.max(np.abs(mine - ref)) / max(1.0, np.max(np.abs(ref))))
        assert worst <= 1e-12

    def test_vector_form_matches_mpmath_where_eigenvalues_coalesce(self, rng):
        # _apply_exp, which solve uses, on random complex vectors at the
        # points and with the gate of the matrix test above
        worst = 0.0
        for xi, p in coalescing_points():
            for t in (0.5, 3.0, 40.0):
                v = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
                xis = np.full(4, xi)
                mine = np.array(spectral._apply_exp(xis, p, t, v, _weights(xis, p, t)))
                ref = coalescing_reference(xi, p, t) @ v
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
        assert G.shape == ref.shape == (grid.n_points, 3, 3)
        assert np.max(np.abs(G - ref)) < 1e-8

    def test_first_column_mass(self):
        # integral over x of (G11 + G31) equals the (1,1)+(3,1) entries of
        # exp(t Q(0)), i.e. total probability of a point source stays 1
        grid = SpatialGrid(24.0, 2048)
        t = 30.0
        G = spectral.green_function(GENERAL, t, grid)
        total = grid.trapezoid(G[:, 0, 0] + G[:, 2, 0])
        e0 = spectral.exp_symbols(np.array([0.0]), GENERAL, t)[0]
        assert math.isclose(total, float((e0[0, 0] + e0[2, 0]).real), abs_tol=1e-9)
        assert math.isclose(total, 1.0, abs_tol=1e-9)

    def test_under_resolved_grid_rejected(self):
        with pytest.raises(GridUnderResolved):
            spectral.green_function(GENERAL, 1.0, SpatialGrid(24.0, 256))

    def test_narrow_grid_rejected(self):
        # half-width 12 against a reach of 6 sqrt(160) = 75.9 at t = 40
        p = Params(gamma_p=1.0, gamma_z=0.0, delta=0.0, omega=0.0)
        with pytest.raises(DomainTooNarrow, match="needs half_width >= 75.89"):
            spectral.green_function(p, 40.0, SpatialGrid(12.0, 1024))

    def test_tail_not_decayed_rejected(self):
        # just wider than the reach: the width rule passes, but the boundary
        # entries (7.8e-10) exceed DEFAULT_EPS_TAIL times the peak (3.15e-2)
        p = Params(gamma_p=1.0, gamma_z=0.0, delta=0.0, omega=0.0)
        with pytest.raises(TailNotDecayed):
            spectral.green_function(p, 40.0, SpatialGrid(1.01 * reach(p, 40.0), 128))


class TestSolve:
    def test_zero_time_returns_sampled_data(self):
        grid = SpatialGrid(24.0, 1024)
        u = spectral.solve(GENERAL, IC, 0.0, grid)
        d = sample_initial(IC, grid)
        assert np.max(np.abs(u.rho_plus - d.rho_plus)) == 0.0

    def test_matches_closed_undriven_solution(self):
        p = Params(gamma_p=1e-3, gamma_z=1e-3, delta=1e-2, omega=0.0)
        grid = SpatialGrid(24.0, 2048)
        for t in (50.0, 200.0):
            u = spectral.solve(p, IC, t, grid)
            c = omega0.solve(p, IC, t, grid)
            assert np.max(np.abs(u.rho_plus - c.rho_plus)) < 1e-8
            assert np.max(np.abs(u.rho_minus - c.rho_minus)) < 1e-8

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

    def test_semigroup_of_the_symbols(self, monkeypatch):
        # exp(20 Q) exp(30 Q) = exp(50 Q) on the half nodes; and solve hands
        # real_inverse hat * factor(t) as c_r, so the decoupled factors compose
        # when (hat f(20)) (hat f(30)) = hat (hat f(50)), checked on coherent
        # data, whose c_r transform is non-zero
        grid = SpatialGrid(28.0, 2048)
        xis = grid.half_nodes
        two = spectral.exp_symbols(xis, GENERAL, 20.0) @ spectral.exp_symbols(xis, GENERAL, 30.0)
        assert np.max(np.abs(two - spectral.exp_symbols(xis, GENERAL, 50.0))) < 1e-14
        ic = GaussianCoherent(p=0.75, mu=0.8, k=1.0, sigma=1.0)
        seen, real_inverse = [], SpatialGrid.real_inverse
        monkeypatch.setattr(SpatialGrid, "real_inverse",
                            lambda self, half: seen.append(half[3].copy()) or real_inverse(self, half))
        for t in (20.0, 30.0, 50.0):
            spectral.solve(GENERAL, ic, t, grid)
        c20, c30, c50 = seen
        hat = ic.spectrum(xis)[3]
        assert np.max(np.abs(c50)) > 0.1
        assert np.max(np.abs(c20 * c30 - hat * c50)) < 1e-15

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

    def test_zero_time_checks_closed_tails(self):
        # t = 0 returns the sampled initial data, tail check included
        with pytest.raises(DomainTooNarrow):
            spectral.solve(GENERAL, IC, 0.0, SpatialGrid(2.0, 256))

    def test_planned_grid_resolves_kinked_data_at_t_max(self):
        # plan_size resolves the diffusion width sqrt(4 gamma_p t_max), so the heat
        # factor at Nyquist is e^(-32 pi^2) and the Laplace kinks alias nothing: the
        # planned 16,384 nodes match 2^17; the 1,024 that resolve the feature do not
        ic, p = LaplaceMixture(p=0.25, a=1.0, b=2.0), Params(1e-3, 2e-3, 1e-2, 5e-3)
        planned = plan_grid(ic, p, 1.0)
        assert planned.n_points == 1 << 14
        fine = spectral.solve(p, ic, 1.0, SpatialGrid(planned.half_width, 1 << 17))

        def err(n_points):
            u = spectral.solve(p, ic, 1.0, SpatialGrid(planned.half_width, n_points))
            return max(np.max(np.abs(getattr(u, c) - getattr(fine, c)[:: (1 << 17) // n_points]))
                       for c in ("rho_plus", "c_i", "rho_minus", "c_r"))

        assert err(planned.n_points) < 1e-12
        assert err(1024) > 1e-6


class TestPositivity:
    """The decoherence-diffusion trade-off (Diosi, Phys. Scr. T163, 014004
    (2014); Oppenheim et al., Nat. Commun. 14, 7910 (2023)) on a coherent
    Gaussian at omega = 0: at x = 0, rho11 rho22 / |rho12|^2 =
    mu^-2 exp(4 gz t - a^2 / s^2) with a = 2 delta t and s^2 = sigma^2 + 4 gp t,
    so det rho < 0 exactly when 4 delta^2 t^2 / s^2 > 4 gz t - 2 ln mu."""

    IC = GaussianCoherent(p=0.5, mu=0.999, k=0.0, sigma=1.0)

    # delta^2 = ratio * 4 gp gz with gp = gz = 1e-2, within 5% of the threshold
    # at t (ratio 1.2506 at t = 100, 1.0313 at t = 800) on either side; at
    # t = 800, |rho12(0)| is still 1e-7 of max P, far above round-off
    @pytest.mark.parametrize("solver", [omega0.solve, spectral.solve], ids=["closed", "spectral"])
    @pytest.mark.parametrize("t, ratio", [(100.0, 1.2), (100.0, 1.3), (800.0, 0.99), (800.0, 1.07)])
    def test_sign_of_det_at_origin_follows_the_closed_form(self, solver, t, ratio):
        gp = gz = 1e-2
        p = Params(gamma_p=gp, gamma_z=gz, delta=math.sqrt(ratio * 4.0 * gp * gz), omega=0.0)
        grid = plan_grid(self.IC, p, t)
        u = solver(p, self.IC, t, grid)
        i = grid.n_points // 2
        assert grid.nodes[i] == 0.0 and abs(u.rho12[i]) > 1e-8 * u.rho_plus.max()
        s2 = self.IC.sigma**2 + 4.0 * gp * t
        # log(rho11 rho22 / |rho12|^2) at x = 0: 4 gz t - 2 ln mu - a^2 / s^2
        log_ratio = 4.0 * gz * t - 2.0 * math.log(self.IC.mu) - (2.0 * p.delta * t) ** 2 / s2
        det = u.rho11[i] * u.rho22[i] - abs(u.rho12[i]) ** 2
        assert (det < 0.0) == (log_ratio < 0.0)
        assert math.log(u.rho11[i] * u.rho22[i] / abs(u.rho12[i]) ** 2) == pytest.approx(log_ratio, abs=1e-6)


def _full_spectrum_solve(p, ic, t, grid):
    """(rho_plus, c_i, rho_minus, c_r) by exp(t Q) on all n Fourier nodes and
    the complex inverse transform, real part; the reference for the half
    spectrum, built from the public pieces as the benchmark's gate builds it."""
    xis = grid.fourier_nodes
    hat = ic.spectrum(xis)
    evolved = np.empty((4, xis.size), dtype=complex)
    evolved[:3] = np.einsum("mij,mj->mi", spectral.exp_symbols(xis, p, t),
                            np.stack(hat[:3], axis=1).astype(complex)).T
    evolved[3] = hat[3] * np.exp(-(2.0 * p.gamma_p * xis**2 + 2.0 * p.gamma_z) * t)
    return grid.inverse_transform(evolved).real


class TestHalfSpectrum:
    GRID = SpatialGrid(28.0, 2048)

    @pytest.mark.parametrize("ic", [IC, GaussianCoherent(p=0.75, mu=0.8, k=1.0, sigma=1.0),
                                    UniformMixture(p=0.75, a=3.0, b=2.0)],
                             ids=["mixture", "coherent", "uniform"])
    def test_solve_matches_full_spectrum_inverse(self, ic):
        # at t = 1e-6 diffusion leaves the plateaus' Nyquist transform (2.2e-3 on
        # this grid) at full size, so a dropped or doubled Nyquist entry would show
        for t in (1e-6, 1.0, 50.0):
            u = spectral.solve(GENERAL, ic, t, self.GRID)
            half = np.stack([u.rho_plus, u.c_i, u.rho_minus, u.c_r])
            assert np.max(np.abs(half - _full_spectrum_solve(GENERAL, ic, t, self.GRID))) <= 1e-15

    def test_green_function_matches_full_spectrum_inverse(self):
        grid = SpatialGrid(24.0, 2048)
        for t in (10.0, 30.0):
            spectra = np.moveaxis(spectral.exp_symbols(grid.fourier_nodes, GENERAL, t), 0, -1)
            full = np.moveaxis(grid.inverse_transform(spectra).real, -1, 0)
            assert np.max(np.abs(spectral.green_function(GENERAL, t, grid) - full)) <= 1e-15


def _general_draw(seed):
    """Rates and t_max within 15% of solve-spectral's general-rate centre,
    on 8,192 nodes of the planned half-width."""
    rng = np.random.default_rng(seed)
    rates = dict(zip(("gamma_p", "gamma_z", "delta", "omega"),
                     np.array([3e-3, 5e-3, 6e-3, 1e-2]) * 1.15 ** rng.uniform(-1.0, 1.0, 4)))
    p, t_max = Params(**rates), 150.0 * 1.15 ** rng.uniform(-1.0, 1.0)
    return p, IC, t_max, SpatialGrid(plan_grid(IC, p, t_max).half_width, 8192)


def _fig4_left(t):
    from oqbm import cli

    s = cli.build_scenario(cli.FIGURES["fig4"]["configs"]["left"])
    return s.params, s.ic, t, s.grid


def _heat_factor(p, t, xis):
    """The c_r factor, as spectral.solve forms it."""
    return np.exp(-(2.0 * p.gamma_p * xis**2 + 2.0 * p.gamma_z) * t)


def _weights(xis, p, t):
    """The Putzer weights of t Q at every one of ``xis``, live or not."""
    return spectral._putzer_weights(t * spectral.symbol_eigenvalues(xis, p))


class TestSharedSymbol:
    """A run takes Q's eigenvalues once, on the live prefix of its earliest
    t > 0, and slices them for every later t (spectral.SharedSymbol)."""

    def test_eigenvalues_of_a_prefix_are_the_rows_of_the_whole(self, rng):
        # seeded rates, with the meeting pair gamma_z = 2 omega, omega = 0 and
        # delta = 0 among them, and zero and subnormal xi among the frequencies
        draws = [Params(*10.0 ** rng.uniform(-4.0, 1.0, 4)) for _ in range(30)]
        for gp, gz, dl, om in 10.0 ** rng.uniform(-4.0, 1.0, (10, 4)):
            draws += [Params(gp, 2.0 * om, dl, om), Params(gp, gz, dl, 0.0), Params(gp, gz, 0.0, om)]
        draws.append(CRITICAL)
        for p in draws:
            xis = np.sort(np.concatenate([[0.0, 5e-324, 1e-310, 1e-170], 10.0 ** rng.uniform(-8.0, 2.0, 60)]))
            whole = spectral.symbol_eigenvalues(xis, p)
            for m in rng.choice(np.arange(1, xis.size), 8, replace=False):
                assert spectral.symbol_eigenvalues(xis[:m], p).tobytes() == whole[:m].tobytes(), (p, m)

    def test_live_prefix_at_a_later_time_is_a_prefix_of_the_earlier(self, rng):
        cut = 0
        for _ in range(40):
            p = Params(*10.0 ** rng.uniform(-4.0, 1.0, 4))
            half = SpatialGrid(10.0 ** rng.uniform(0.5, 2.5), 2 ** int(rng.integers(8, 13))).half_nodes
            live = [spectral._live(half, p, t) for t in np.sort(10.0 ** rng.uniform(-2.0, 4.0, 6))]
            counts = [np.count_nonzero(mask) for mask in live]
            assert all(mask[:m].all() for mask, m in zip(live, counts))  # every live set is a prefix
            assert counts == sorted(counts, reverse=True)
            cut += len(set(counts)) > 1
        assert cut > 10

    def test_snapshots_through_one_symbol_keep_their_bits(self):
        # two panels' worth of general-rate snapshots, each t twice: the same
        # fields as solve alone, and each time's weights gone after its last use
        p, ic, t_max, grid = _general_draw(2)
        times = [t_max * k / 5 for k in range(1, 6)] * 2
        symbol = spectral.SharedSymbol(p, grid, times)
        for t in times:
            shared, alone = spectral.solve(p, ic, t, grid, symbol), spectral.solve(p, ic, t, grid)
            for name in ("rho_plus", "c_i", "rho_minus", "c_r"):
                assert getattr(shared, name).tobytes() == getattr(alone, name).tobytes(), (t, name)
        assert all(slot[1:] == [0, None] for slot in symbol._slots.values())

    def test_eigenvalues_are_dropped_before_the_last_weights(self, monkeypatch):
        # each time's first snapshot reads the eigenvalues; the last time drops
        # them before its weights' temporaries are made
        held, putzer_weights = [], spectral._putzer_weights
        monkeypatch.setattr(spectral, "_putzer_weights",
                            lambda *args: held.append(symbol._lam is not None) or putzer_weights(*args))
        times = [40.0, 5.0, 20.0, 5.0, 40.0, 20.0]
        symbol = spectral.SharedSymbol(GENERAL, SpatialGrid(28.0, 2048), times)
        for t in times:
            symbol.weights(t)
        assert held == [True, True, False] and symbol._lam is None

    def test_no_weights_are_held_while_the_spectrum_is_made_or_inverted(self, monkeypatch):
        # solve makes a snapshot's weights after its initial spectrum and holds
        # them by no name, so neither that spectrum nor the inverse transform meets them
        import weakref

        made, held, putzer_weights = [], [], spectral._putzer_weights

        def weights(z):
            out = putzer_weights(z)
            made.extend(weakref.ref(w) for w in out)
            return out

        def alive():
            held.append(sum(r() is not None for r in made))

        spectrum, real_inverse = type(IC).spectrum, SpatialGrid.real_inverse
        monkeypatch.setattr(spectral, "_putzer_weights", weights)
        monkeypatch.setattr(type(IC), "spectrum", lambda self, xis: alive() or spectrum(self, xis))
        monkeypatch.setattr(SpatialGrid, "real_inverse", lambda self, half: alive() or real_inverse(self, half))
        grid, times = SpatialGrid(28.0, 2048), (5.0, 20.0)
        symbol = spectral.SharedSymbol(GENERAL, grid, times)
        for t in times:  # through a run's symbol, and alone
            spectral.solve(GENERAL, IC, t, grid, symbol)
            spectral.solve(GENERAL, IC, t, grid)
        assert len(made) == 20 and held == [0] * 8

    def test_concurrent_snapshots_make_each_weight_set_once(self, monkeypatch):
        # more threads than cores, switching often: each time's weights are
        # made once, every snapshot of it gets that set, and its last use drops it
        import collections
        import concurrent.futures
        import sys

        # a weight set is made from the eigenvalues scaled by its t, one call each
        made, scaled = collections.Counter(), spectral.SharedSymbol._scaled
        monkeypatch.setattr(spectral.SharedSymbol, "_scaled", lambda self, t, m: made.update([t]) or scaled(self, t, m))
        times, grid = [5.0, 10.0, 20.0, 40.0] * 8, SpatialGrid(28.0, 2048)
        symbol = spectral.SharedSymbol(GENERAL, grid, times)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(symbol.weights, times, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert made == collections.Counter(set(times))
        assert all(len({id(w) for t, w in zip(times, got) if t == u}) == 1 for u in set(times))
        for t, w in zip(times, got):  # each t's own set, on its own live prefix
            m = np.count_nonzero(spectral._live(grid.half_nodes, GENERAL, t))
            assert [a.tobytes() for a in w] == [a.tobytes() for a in _weights(grid.half_nodes[:m], GENERAL, t)], t
        assert all(slot[1:] == [0, None] for slot in symbol._slots.values())


class TestFlushedSpectrum:
    """Past 2 gp xi^2 t = spectral._FLUSH, exp(t Q) and the c_r factor are
    exactly zero, so solve and exp_symbols evaluate only the other nodes."""

    GRID = SpatialGrid(28.0, 2048)

    @pytest.mark.parametrize("case", [
        lambda: _fig4_left(25.0),
        lambda: _fig4_left(100.0),
        lambda: _general_draw(3),
        lambda: (CRITICAL, IC, 5.0, TestFlushedSpectrum.GRID),
        lambda: (Params(1e-3, 1e-3, 1e-2, 0.0), IC, 200.0, SpatialGrid(24.0, 4096)),
        lambda: (Params(1e-3, 1e-3, 0.0, 1e-2), IC, 200.0, SpatialGrid(24.0, 4096)),
    ], ids=["fig4-left-25", "fig4-left-100", "general-t_max", "critical", "omega0", "delta0"])
    def test_cut_spectrum_equals_every_node_evaluated(self, case, monkeypatch):
        p, ic, t, grid = case()
        xis = grid.half_nodes
        assert not spectral._live(xis, p, t).all()
        hat, weights = ic.spectrum(xis), _weights(xis, p, t)
        every = np.stack([*spectral._apply_exp(xis, p, t, hat[:3], weights), hat[3] * _heat_factor(p, t, xis)])
        seen, real_inverse = [], SpatialGrid.real_inverse
        monkeypatch.setattr(SpatialGrid, "real_inverse",
                            lambda self, half: seen.append(half.copy()) or real_inverse(self, half))
        spectral.solve(p, ic, t, grid)
        assert np.all(seen[0] == every)  # == also takes -0.0 for 0.0
        columns = np.stack(spectral._apply_exp(xis, p, t, np.eye(3)[:, :, None], weights)).transpose(2, 0, 1)
        assert np.all(spectral.exp_symbols(xis, p, t) == columns)

    def test_weights_past_the_edge_are_exactly_zero(self):
        # seeded draws and degenerate rates, on nodes from half to four times the
        # edge; at gz = 0 the c_r factor just below the edge is 1e-304..5e-324
        rng = np.random.default_rng(7)
        draws = [Params(*10.0 ** rng.uniform(-4.0, 1.0, 4)) for _ in range(40)]
        draws += [CRITICAL, Params(1e-3, 1e-3, 1e-2, 0.0), Params(1e-3, 1e-3, 0.0, 1e-2),
                  Params(1e-2, 0.0, 1e-1, 1e-2), Params(1e-2, 0.0, 0.0, 0.0), Params(1.0, 2e-3, 1e-3, 1e-3)]
        for p in draws:
            t = 10.0 ** rng.uniform(-1.0, 3.0)
            xis = np.sqrt(np.linspace(0.5, 4.0, 2001) * spectral._FLUSH / (2.0 * p.gamma_p * t))
            dead = ~spectral._live(xis, p, t)
            assert 900 < np.count_nonzero(dead) < 2001
            _, _, *weights = _weights(xis[dead], p, t)
            for w in (*weights, _heat_factor(p, t, xis[dead])):
                assert np.all(w == 0.0), p

    def test_undamped_and_weakly_damped_diffusion_keep_every_node(self):
        xis = np.linspace(0.0, 1e3, 101)
        assert spectral._live(xis, SimpleNamespace(gamma_p=0.0), 1e300).all()
        assert spectral._live(xis, Params(1e-300, 1e-3, 1e-2, 1e-2), 1e6).all()
        # t = 0 keeps them too; a negative t is refused here, before any weight is made
        assert spectral._live(xis, GENERAL, 0.0).all()
        with pytest.raises(NonPositiveTime):
            spectral._live(xis, GENERAL, -1e300)
