import pytest

from oqbm import core, spectral, validate
from oqbm.errors import StabilityViolation


class TestCheckStability:
    def test_zero_real_part_report_passes(self, monkeypatch):
        # stability_check accepts an underflowed zero mode and reports its 0.0
        def accepting(p, xis):
            return spectral.StabilityReport(max_real_part=0.0, zero_mode_residual=0.0,
                                            n_samples=len(xis))

        monkeypatch.setattr(spectral, "stability_check", accepting)
        monkeypatch.setattr(validate, "STABILITY_DRAWS", 5)
        row = validate.check_stability()
        assert row.passed
        assert row.max_err == 0.0

    def test_violation_gives_failed_row(self, monkeypatch):
        calls = []

        def raising(p, xis):
            calls.append(p)
            if len(calls) == 2:
                raise StabilityViolation("Re lambda >= 0")
            return spectral.StabilityReport(max_real_part=-1.0, zero_mode_residual=0.0,
                                            n_samples=len(xis))

        monkeypatch.setattr(spectral, "stability_check", raising)
        monkeypatch.setattr(validate, "STABILITY_DRAWS", 5)
        row = validate.check_stability()
        assert len(calls) == 5
        assert not row.passed
        assert row.max_err == 1.0


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
