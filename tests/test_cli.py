import json
import math

import numpy as np
import pytest

from oqbm import cli
from oqbm.core import LaplaceCoherent, Params
from oqbm.errors import ConfigError, UnknownFigure

TINY_CONFIG = {
    "gamma_p": 1e-3, "gamma_z": 1e-3, "delta": 1e-2, "omega": 0.0,
    "ic": "gaussian_mixture", "p": 0.75, "sigma1": 1.0, "sigma2": 2.0,
    "times": [0.0, 50.0],
    "half_width": 24.0, "n_points": 1024,
}
GRIDLESS_CONFIG = {k: v for k, v in TINY_CONFIG.items() if k not in ("half_width", "n_points")}


class TestConfig:
    def test_missing_key(self):
        bad = dict(TINY_CONFIG)
        del bad["sigma1"]
        with pytest.raises(ConfigError):
            cli.build_scenario(bad)

    def test_unknown_ic(self):
        bad = dict(TINY_CONFIG, ic="cauchy")
        with pytest.raises(ConfigError):
            cli.build_scenario(bad)

    def test_zero_diffusion_rejected(self):
        bad = dict(TINY_CONFIG, gamma_p=0.0)
        with pytest.raises(ConfigError):
            cli.build_scenario(bad)

    def test_bad_method(self):
        with pytest.raises(ConfigError):
            cli.build_scenario(dict(TINY_CONFIG, method="magic"))

    def test_grid_defaults_to_tail_rule(self):
        config = dict(TINY_CONFIG)
        del config["half_width"]
        del config["n_points"]
        scenario = cli.build_scenario(config)
        # wide enough for the initial tails plus drift and diffusion to t=50
        assert scenario.grid.half_width > 15.0
        assert scenario.ic.tail_mass(scenario.grid.half_width) < 1e-8

    def test_laplace_coherent_scale_comes_from_rates(self):
        config = {
            "gamma_p": 1e-2, "gamma_z": 0.0, "delta": 1e-1, "omega": 1e-2,
            "ic": "laplace_coherent", "p": 0.25, "r": 0.0, "q": -0.5,
            "times": [25.0], "half_width": 224.0, "n_points": 2048,
        }
        scenario = cli.build_scenario(config)
        assert isinstance(scenario.ic, LaplaceCoherent)
        assert math.isclose(scenario.ic.scale, 10.0)


class TestDispatch:
    def test_regimes(self):
        assert cli.classify_regime(Params(1e-3, 1e-3, 1e-2, 0.0)) == "omega"
        assert cli.classify_regime(Params(1e-3, 1e-3, 0.0, 1e-2)) == "delta"
        assert cli.classify_regime(Params(1e-3, 0.0, 1e-1, 1e-2)) == "gamma_z"
        assert cli.classify_regime(Params(1e-3, 1e-3, 1e-2, 1e-2)) == "general"
        assert cli.classify_regime(Params(1e-3, 0.0, 0.0, 1e-2)) == "general"
        # only an exact zero selects a closed form; a tiny rate is general
        assert cli.classify_regime(Params(1e-3, 1e-3, 1e-2, 1e-21)) == "general"

    def test_snapshot_solver_names(self):
        scenario = cli.build_scenario(TINY_CONFIG)
        name, _ = cli.solve_snapshot(scenario, 0.0)
        assert name == "initial"
        name, _ = cli.solve_snapshot(scenario, 50.0)
        assert name == "closed[omega]"
        general = cli.build_scenario(dict(TINY_CONFIG, omega=5e-3))
        name, _ = cli.solve_snapshot(general, 50.0)
        assert name == "spectral"
        forced = cli.build_scenario(dict(TINY_CONFIG, method="spectral"))
        name, _ = cli.solve_snapshot(forced, 50.0)
        assert name == "spectral"

    def test_closed_method_requires_closed_solver(self):
        config = dict(TINY_CONFIG, omega=5e-3, method="closed")
        with pytest.raises(ConfigError):
            cli.solve_snapshot(cli.build_scenario(config), 50.0)

    def test_closed_and_spectral_agree(self):
        scenario = cli.build_scenario(TINY_CONFIG)
        _, closed = cli.solve_snapshot(scenario, 50.0)
        forced = cli.build_scenario(dict(TINY_CONFIG, method="spectral"))
        _, spec = cli.solve_snapshot(forced, 50.0)
        assert np.max(np.abs(closed.rho_plus - spec.rho_plus)) < 1e-8


class TestOutputs:
    def test_solve_writes_files_and_manifest(self, tmp_path):
        manifest = cli.run_solve(dict(TINY_CONFIG), tmp_path, threads=1)
        files = {f.name for f in tmp_path.iterdir()}
        assert "snapshot_t0.csv" in files and "snapshot_t50.csv" in files
        assert "snapshot_manifest.json" in files
        # manifest carries everything needed to re-run
        for key in ("params", "initial_condition", "grid", "times", "regime",
                    "method", "eps_tail", "csv_columns", "files"):
            assert key in manifest
        assert manifest["params"] == {"gamma_p": 1e-3, "gamma_z": 1e-3,
                                      "delta": 1e-2, "omega": 0.0}
        assert manifest["grid"]["n_points"] == 1024

    def test_csv_format(self, tmp_path):
        cli.run_solve(dict(TINY_CONFIG), tmp_path, threads=1)
        raw = (tmp_path / "snapshot_t50.csv").read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[0] == "t,x,P,Q,C_R,C_I,rho11,rho22"
        assert len(lines) == 1 + 1024
        row = lines[1].split(",")
        assert row[0] == "50" and float(row[1]) == -24.0

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        cli.run_solve(dict(TINY_CONFIG), a, threads=2)
        cli.run_solve(dict(TINY_CONFIG), b, threads=1)
        for name in ("snapshot_t0.csv", "snapshot_t50.csv", "snapshot_manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_manifest_is_sufficient_to_rerun(self, tmp_path):
        # rebuild a config purely from the manifest; outputs must be identical
        first = tmp_path / "first"
        manifest = cli.run_solve(dict(TINY_CONFIG), first, threads=1)
        rebuilt = dict(manifest["params"])
        ic = manifest["initial_condition"]
        rebuilt.update({
            "ic": {"GaussianMixture": "gaussian_mixture"}[ic["kind"]],
            "p": ic["p"], "sigma1": ic["sigma1"], "sigma2": ic["sigma2"],
            "times": manifest["times"],
            "half_width": manifest["grid"]["half_width"],
            "n_points": manifest["grid"]["n_points"],
            "eps_tail": manifest["eps_tail"],
            "method": manifest["method"],
        })
        second = tmp_path / "second"
        cli.run_solve(rebuilt, second, threads=1)
        for t in (0, 50):
            name = f"snapshot_t{t}.csv"
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_threaded_and_serial_solves_agree(self, tmp_path):
        import concurrent.futures

        scenario = cli.build_scenario(dict(TINY_CONFIG, omega=5e-3))
        serial = cli.solve_snapshot(scenario, 50.0)[1]
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            fields = list(pool.map(lambda t: cli.solve_snapshot(scenario, t)[1],
                                   [50.0] * 4))
        for f in fields:
            assert np.array_equal(f.rho_plus, serial.rho_plus)
            assert np.array_equal(f.c_r, serial.c_r)

    def test_time_tag(self):
        assert cli._time_tag(0.0) == "0"
        assert cli._time_tag(50.0) == "50"
        assert cli._time_tag(2.5) == "2p5"

    def test_unknown_figure(self, tmp_path):
        with pytest.raises(UnknownFigure):
            cli.run_figure("fig9", tmp_path)

    def test_figure_run_fig1_emits_five_snapshots(self, tmp_path):
        cli.run_figure("fig1", tmp_path, threads=2)
        for t in (0, 50, 100, 150, 200):
            assert (tmp_path / f"fig1_t{t}.csv").exists()
        manifest = json.loads((tmp_path / "fig1_manifest.json").read_text())
        assert manifest["panel_quantity"] == {"left": "P", "right": "Q"}
        assert manifest["runs"]["both"]["regime"] == "omega"

    def test_figure_run_fig6(self, tmp_path):
        manifest = cli.run_figure("fig6", tmp_path, threads=4)
        assert manifest["panel_quantity"] == {"left": "Q", "right": "Q"}
        for panel in ("left", "right"):
            for t in (0, 50, 100, 150, 200):
                assert (tmp_path / f"fig6_{panel}_t{t}.csv").exists()
        runs = manifest["runs"]
        assert runs["left"]["regime"] == "delta"
        assert runs["left"]["files"]["50"]["solver"] == "closed[delta]"


class TestMain:
    def test_solve_roundtrip(self, tmp_path):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(TINY_CONFIG))
        out = tmp_path / "out"
        code = cli.main(["solve", "--config", str(config_path), "--out", str(out)])
        assert code == 0
        assert (out / "snapshot_t50.csv").exists()

    def test_bad_config_exit_code(self, tmp_path):
        config_path = tmp_path / "bad.json"
        config_path.write_text(json.dumps(dict(TINY_CONFIG, gamma_p=0.0)))
        assert cli.main(["solve", "--config", str(config_path), "--out", str(tmp_path)]) == 2

    def test_near_zero_rate_solves(self, tmp_path):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(dict(TINY_CONFIG, omega=1e-21)))
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(config_path), "--out", str(out)]) == 0
        manifest = json.loads((out / "snapshot_manifest.json").read_text())
        assert manifest["regime"] == "general"
        # the spectral route at omega = 1e-21 matches the closed omega = 0 route
        _, closed = cli.solve_snapshot(cli.build_scenario(TINY_CONFIG), 50.0)
        rows = np.loadtxt(out / "snapshot_t50.csv", delimiter=",", skiprows=1)
        assert np.max(np.abs(rows[:, 2] - closed.rho_plus)) < 1e-12

    @pytest.mark.parametrize("omega", [1e-2, 0.0], ids=["spectral", "closed"])
    def test_tail_rule_uses_the_scenario_eps_tail(self, tmp_path, omega):
        # the Gaussian tail beyond +-5 is 5.7e-7: inside eps_tail 1e-3, not 1e-8
        config = {
            "gamma_p": 1e-3, "gamma_z": 1e-3, "delta": 1e-2, "omega": omega,
            "ic": "gaussian_mixture", "p": 0.75, "sigma1": 1.0, "sigma2": 1.0,
            "half_width": 5.0, "n_points": 1024, "times": [0.0, 1.0],
        }
        for eps_tail, code in ((1e-3, 0), (1e-8, 2)):
            config_path = tmp_path / "run.json"
            config_path.write_text(json.dumps(dict(config, eps_tail=eps_tail)))
            out = tmp_path / f"out{eps_tail:g}"
            assert cli.main(["solve", "--config", str(config_path), "--out", str(out)]) == code
            assert len(list(out.glob("*.csv"))) == (2 if code == 0 else 0)

    @pytest.mark.parametrize("config", [
        dict(TINY_CONFIG, half_width=4.0, eps_tail=math.nan),  # tail rule off: mass 0.988, exit 0
        dict(TINY_CONFIG, times=[0.0, math.nan]),              # wrote snapshot_tnan.csv, all NaN
        dict(GRIDLESS_CONFIG, times=[0.0, math.inf]),          # OverflowError in plan_grid
    ], ids=["eps_tail-nan", "time-nan", "time-inf"])
    def test_non_finite_config_rejected(self, tmp_path, config):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config))  # json writes NaN and Infinity
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(config_path), "--out", str(out)]) == 2
        assert not list(out.glob("*.csv"))

    def test_missing_file_exit_code(self, tmp_path):
        assert cli.main(["solve", "--config", str(tmp_path / "nope.json")]) == 2

    def test_out_dir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OQBM_OUT_DIR", str(tmp_path / "envout"))
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(TINY_CONFIG))
        assert cli.main(["solve", "--config", str(config_path)]) == 0
        assert (tmp_path / "envout" / "snapshot_t50.csv").exists()

    def test_validate_fast_passes(self, capsys):
        import time

        start = time.perf_counter()
        assert cli.main(["validate", "--level", "fast"]) == 0
        assert time.perf_counter() - start < 10.0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert out.count("PASS") >= 10
