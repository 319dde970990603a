import numpy as np
import pytest

from oqbm import core, spectral, validate


class TestCheckStability:
    def test_zero_real_part_report_passes(self, monkeypatch):
        # rows that break no rule (an underflowed zero mode reported as 0.0) pass the row
        def accepting(xis, p):
            return np.zeros(xis.size, dtype=int), None, np.zeros((xis.size, 3)), np.zeros((xis.size, 3))

        monkeypatch.setattr(spectral, "dissipativity_rows", accepting)
        monkeypatch.setattr(validate, "STABILITY_DRAWS", 5)
        row = validate.check_stability()
        assert row.passed
        assert row.max_err == 0.0

    def test_violation_gives_failed_row(self, monkeypatch):
        # two rows of the second draw break a rule: one failed draw
        calls = []

        def raising(xis, p):
            calls.append(p)
            rule = np.zeros(xis.size, dtype=int)
            rule[np.flatnonzero(xis == 0.0)[1] + np.arange(2)] = 3
            return rule, None, None, None

        monkeypatch.setattr(spectral, "dissipativity_rows", raising)
        monkeypatch.setattr(validate, "STABILITY_DRAWS", 5)
        row = validate.check_stability()
        assert len(calls) == 1 and calls[0].gamma_p.size == 5 * 9
        assert not row.passed
        assert row.max_err == 1.0

    def test_one_call_matches_the_draws_checked_alone(self):
        # a row's rules, eigenvalues, real parts and zero-mode moduli do not
        # depend on its batch, so the one call over all draws sees the bits
        # that each draw checked alone sees
        rates, xis, draw = validate.stability_draws()
        batch = spectral.dissipativity_rows(xis, rates)
        failed = 0
        for k in range(validate.STABILITY_DRAWS):
            mine = draw == k
            p = core.Params(*(getattr(rates, f)[mine][0] for f in ("gamma_p", "gamma_z", "delta", "omega")))
            alone = spectral.dissipativity_rows(xis[mine], p)
            for got, want in zip(batch, alone, strict=True):
                assert np.array_equal(got[mine], want)
            failed += bool(np.any(alone[0]))
        assert failed == np.unique(draw[batch[0] != 0]).size == validate.check_stability().max_err


class TestCheckInitialMasses:
    def test_extrapolated_masses_pass_with_margin(self):
        assert validate.check_initial_masses().max_err < 1e-10

    def test_excess_mass_gives_failed_row(self, monkeypatch):
        # the extrapolation removes the trapezoid's kink error, not a real excess;
        # initial_mass reads the two populations, so the excess goes into them
        for name in ("rho11", "rho22"):
            density = getattr(core._ClosedShape, name)
            monkeypatch.setattr(core._ClosedShape, name,
                                lambda self, x, density=density: (1.0 + 2e-8) * density(self, x))
        row = validate.check_initial_masses()
        assert not row.passed
        assert row.max_err > 1.9e-8


class TestGammaZ0Rows:
    @pytest.mark.parametrize("check", [validate.check_greez_vs_quadrature,
                                       validate.check_driven_solution_vs_symbol])
    def test_closed_forms_match_transform_oracle(self, check):
        # both rows read about 5e-6 and 6e-7 of their gates
        row = check()
        assert row.passed
        assert row.max_err / row.tol < 1e-4
