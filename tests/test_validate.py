import pytest

from oqbm import spectral, validate
from oqbm.errors import StabilityViolation


class TestCheckStability:
    def test_zero_real_part_report_passes(self, monkeypatch):
        # stability_check accepts an underflowed zero mode and reports its 0.0
        def accepting(p, xis):
            return spectral.StabilityReport(max_real_part=0.0, zero_mode_residual=0.0,
                                            n_samples=len(xis))

        monkeypatch.setattr(spectral, "stability_check", accepting)
        row = validate.check_stability(n_draws=5)
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
        row = validate.check_stability(n_draws=5)
        assert len(calls) == 5
        assert not row.passed
        assert row.max_err == 1.0
