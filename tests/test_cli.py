import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oqbm import cli, core, oracle
from oqbm.core import BlochField, LaplaceCoherent, Params, SpatialGrid
from oqbm.errors import ConfigError, GridUnderResolved, OqbmError, UnknownFigure

TINY_CONFIG = {
    "gamma_p": 1e-3, "gamma_z": 1e-3, "delta": 1e-2, "omega": 0.0,
    "ic": "gaussian_mixture", "p": 0.75, "sigma1": 1.0, "sigma2": 2.0,
    "times": [0.0, 50.0],
    "half_width": 24.0, "n_points": 1024,
}
GRIDLESS_CONFIG = {k: v for k, v in TINY_CONFIG.items() if k not in ("half_width", "n_points")}
DRIVEN_CONFIG = dict(cli.FIGURES["fig4"]["configs"]["left"], times=[0.0, 100.0], n_points=1024)
# delta = 0 with w t = 1000 at the last snapshot: cosh(w t) overflows a float
OVERDAMPED_CONFIG = {
    "gamma_p": 1e-3, "gamma_z": 1.0, "delta": 0.0, "omega": 1e-2,
    "ic": "gaussian_mixture", "p": 0.75, "sigma1": 1.0, "sigma2": 2.0,
    "times": [0, 1000],
}


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

    @pytest.mark.parametrize("times", [[0.0, 50.0, 50.0000001], [0.0, 50.0, 50.0]],
                             ids=["near-equal", "duplicate"])
    def test_times_sharing_a_file_tag_rejected(self, times):
        # both would write snapshot_t50.csv; the manifest would list a lost snapshot
        with pytest.raises(ConfigError, match=r"times \[50\.0, 50\.0(000001)?\].*_t50\.csv"):
            cli.build_scenario(dict(TINY_CONFIG, times=times))

    def test_n_points_above_cap_refused_before_allocation(self, monkeypatch):
        def no_grid(*args):
            raise AssertionError("SpatialGrid built for an n_points above MAX_POINTS")

        monkeypatch.setattr(cli, "SpatialGrid", no_grid)
        with pytest.raises(ConfigError, match=r"n_points must be a whole number <= 2097152"):
            cli.build_scenario(dict(TINY_CONFIG, n_points=1 << 22))

    @pytest.mark.parametrize("config", [
        dict(GRIDLESS_CONFIG, sigma1=1e-300),  # the planned grid had 2^21 nodes
        dict(TINY_CONFIG, half_width=1e300),
    ], ids=["planned", "explicit"])
    def test_coarse_grid_refused_before_allocation(self, monkeypatch, config):
        def no_grid(*args, **kwargs):
            raise AssertionError("SpatialGrid built for a grid too coarse for the earliest snapshot")

        monkeypatch.setattr(cli, "SpatialGrid", no_grid)
        monkeypatch.setattr(core, "SpatialGrid", no_grid)
        with pytest.raises(GridUnderResolved, match="nodes per solution width"):
            cli.build_scenario(config)

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

    def test_gamma_z_zero_is_closed_only_on_request(self):
        auto_name, auto = cli.solve_snapshot(cli.build_scenario(DRIVEN_CONFIG), 100.0)
        forced = cli.build_scenario(dict(DRIVEN_CONFIG, method="closed"))
        closed_name, closed = cli.solve_snapshot(forced, 100.0)
        assert (auto_name, closed_name) == ("spectral", "closed[gamma_z]")
        for a, b in ((auto.rho_plus, closed.rho_plus), (auto.rho_minus, closed.rho_minus),
                     (auto.c_r, closed.c_r), (auto.c_i, closed.c_i)):
            assert np.max(np.abs(a - b)) < 1e-8

    def test_closed_method_requires_closed_solver(self):
        # the route is chosen once, when the scenario is built
        config = dict(TINY_CONFIG, omega=5e-3, method="closed")
        with pytest.raises(ConfigError, match="no closed-form solver for regime 'general'"):
            cli.build_scenario(config)

    def test_route_is_stored_on_the_scenario(self):
        assert cli.build_scenario(TINY_CONFIG).route == "closed[omega]"
        assert cli.build_scenario(DRIVEN_CONFIG).route == "spectral"
        assert cli.build_scenario(dict(DRIVEN_CONFIG, method="closed")).route == "closed[gamma_z]"
        assert cli.build_scenario(dict(TINY_CONFIG, method="spectral")).route == "spectral"

    def test_closed_and_spectral_agree(self):
        scenario = cli.build_scenario(TINY_CONFIG)
        _, closed = cli.solve_snapshot(scenario, 50.0)
        forced = cli.build_scenario(dict(TINY_CONFIG, method="spectral"))
        _, spec = cli.solve_snapshot(forced, 50.0)
        assert np.max(np.abs(closed.rho_plus - spec.rho_plus)) < 1e-8
        route, closed = cli.solve_snapshot(cli.build_scenario(OVERDAMPED_CONFIG), 1000.0)
        _, spec = cli.solve_snapshot(cli.build_scenario(dict(OVERDAMPED_CONFIG, method="spectral")), 1000.0)
        assert route == "closed[delta]"
        for name in ("rho_plus", "c_i", "rho_minus", "c_r"):
            assert np.max(np.abs(getattr(closed, name) - getattr(spec, name))) < 1e-12, name


class TestOutputs:
    def test_solve_writes_files_and_manifest(self, tmp_path):
        manifest = cli.run_solve(dict(TINY_CONFIG), tmp_path, threads=1)
        files = {f.name for f in tmp_path.iterdir()}
        assert "snapshot_t0.csv" in files and "snapshot_t50.csv" in files
        assert "snapshot_manifest.json" in files
        # manifest carries everything needed to re-run
        for key in ("params", "initial_condition", "grid", "times", "regime",
                    "method", "csv_columns", "files"):
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

    def test_csv_bytes_match_per_value_format(self, tmp_path):
        grid = SpatialGrid(1.0, 8)
        values = np.array([-0.0, 5e-324, 1.0 / 3.0, 2.0 / 3.0, 0.1, -7.5, 1e-300, 123456789.0])
        field = BlochField(grid=grid, rho_plus=values, c_i=np.where(values < 0, -1e308, 1e308),
                           rho_minus=values[::-1].copy(), c_r=values / 3.0, time=1e-05)
        cli.write_snapshot_csv(tmp_path / "s.csv", field)
        cols = (grid.nodes, field.rho_plus, field.rho_minus, field.c_r, field.c_i,
                field.rho11, field.rho22)
        rows = [",".join([format(1e-05, ".17g")] + [format(float(c[i]), ".17g") for c in cols])
                for i in range(8)]
        expected = "t,x,P,Q,C_R,C_I,rho11,rho22\n" + "".join(r + "\n" for r in rows)
        assert (tmp_path / "s.csv").read_bytes() == expected.encode()
        assert rows[0].startswith("1.0000000000000001e-05,-1,-0,")
        assert ",4.9406564584124654e-324," in rows[1] and ",-1e+308," in rows[5]

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


def _powers_of_ten_and_neighbours():
    values = []
    for k in range(-323, 309):
        for p in {10.0 ** k, float(f"1e{k}")}:
            values += [np.nextafter(p, -np.inf), p, np.nextafter(p, np.inf)]
    return values


class TestCsvKernel:
    """``_format_g17`` gives exactly format(v, ".17g"), value by value."""

    @staticmethod
    def assert_matches_format(values):
        values = np.asarray(values, dtype=float)
        slots = cli._format_g17(values)
        assert slots.shape == (values.size, cli._SLOT)
        for v, slot in zip(values.tolist(), slots):
            assert bytes(slot).replace(b"\0", b"") == ("," + format(v, ".17g")).encode(), repr(v)

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(19).integers(0, 2**64, size=200_000, dtype=np.uint64)
        self.assert_matches_format(bits.view(np.float64))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=64))
    def test_any_floats(self, values):
        self.assert_matches_format(values)

    @pytest.mark.parametrize("values", [
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, np.inf, -np.inf, np.nan],
        [1e-280, np.nextafter(1e-280, 0.0), np.nextafter(1e-280, 1.0), 1e280, 1e308, -1e308],
        # a half-even tie, the double nearest 1e-4, both ends of [1e16, 1e17)
        [437988075602300.625, -437988075602300.625, 9.99999999999999999e-5, 1e16,
         99999999999999999.0, 1e17, 123.0, 1200.0, 0.0001, 1e-5],
        _powers_of_ten_and_neighbours(),
    ], ids=["specials", "fast-path-edges", "named", "powers-of-ten"])
    def test_edge_cases(self, values):
        self.assert_matches_format(values)

    @pytest.mark.parametrize("shift", [-1e-9, 1e-9])
    def test_exponent_exact_whatever_log10_rounds(self, monkeypatch, shift):
        # a log10 off either way next to 10^k moves floor(log10|v|) by one,
        # which the comparisons with the double-double 10^k take back
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
        self.assert_matches_format(_powers_of_ten_and_neighbours())

    def test_rows_across_chunk_boundaries(self, tmp_path, monkeypatch):
        # 2048 rows in chunks of 300: six whole chunks and one of 248 rows
        monkeypatch.setattr(cli, "_ROWS_PER_CHUNK", 300)
        grid = SpatialGrid(3.0, 2048)
        rng = np.random.default_rng(7)
        cols = [rng.normal(size=2048) * 10.0 ** rng.integers(-30, 30, 2048) for _ in range(4)]
        field = BlochField(grid=grid, rho_plus=cols[0], rho_minus=cols[1], c_r=cols[2],
                           c_i=cols[3], time=0.1)
        cli.write_snapshot_csv(tmp_path / "s.csv", field)
        table = (grid.nodes, field.rho_plus, field.rho_minus, field.c_r, field.c_i,
                 field.rho11, field.rho22)
        rows = ["0.10000000000000001," + ",".join(format(float(c[i]), ".17g") for c in table) + "\n"
                for i in range(2048)]
        assert (tmp_path / "s.csv").read_text() == "t,x,P,Q,C_R,C_I,rho11,rho22\n" + "".join(rows)


class TestCsvWorkingMemory:
    """CSV writes share per-grid x text and reuse working memory across
    chunks, files and threads; none of it may leak between writes."""

    @pytest.mark.parametrize("n_points", [256, 8192])  # under one chunk, and eight chunks
    def test_two_threads_write_the_bytes_of_one(self, tmp_path, n_points):
        import threading

        grid = SpatialGrid(4.0, n_points)
        rng = np.random.default_rng(n_points)
        fields = [BlochField(grid=grid, time=0.25 * k, **{
            name: rng.normal(size=n_points) * 10.0 ** rng.integers(-20, 20, n_points)
            for name in ("rho_plus", "c_i", "rho_minus", "c_r")}) for k in range(6)]
        for k, field in enumerate(fields):
            cli.write_snapshot_csv(tmp_path / f"one_{k}.csv", field)
        barrier = threading.Barrier(2)

        def write(ks):
            barrier.wait()
            for k in ks:
                cli.write_snapshot_csv(tmp_path / f"two_{k}.csv", fields[k])

        threads = [threading.Thread(target=write, args=(ks,)) for ks in ((0, 2, 4), (1, 3, 5))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the two writers as finely as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for k, field in enumerate(fields):
            data = (tmp_path / f"one_{k}.csv").read_bytes()
            assert (tmp_path / f"two_{k}.csv").read_bytes() == data
            cols = (np.full(n_points, field.time), grid.nodes, field.rho_plus, field.rho_minus,
                    field.c_r, field.c_i, field.rho11, field.rho22)
            lines = data.decode().split("\n")
            assert lines[0] == cli.CSV_HEADER and lines[-1] == "" and len(lines) == n_points + 2
            for i, line in enumerate(lines[1:-1]):
                assert line.split(",") == [format(float(c[i]), ".17g") for c in cols], (k, i)

    def test_node_text_is_read_only_in_a_fixed_size_cache(self):
        grids = [SpatialGrid(1.0 + k, 16) for k in range(cli._node_slots.cache_info().maxsize + 2)]
        for grid in grids:
            slots = cli._node_slots(grid)
            assert not slots.flags.writeable
            assert cli._node_slots(SpatialGrid(grid.half_width, 16)) is slots
        info = cli._node_slots.cache_info()
        assert info.maxsize is not None and info.currsize == info.maxsize


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

    @pytest.mark.parametrize("config, key", [
        # eps_tail is no setting: the tail rule reads core.DEFAULT_EPS_TAIL
        (dict(TINY_CONFIG, half_width=4.0, eps_tail=math.nan), "eps_tail"),  # tail rule was off: mass 0.988
        (dict(TINY_CONFIG, times=[0.0, math.nan]), "times"),      # wrote snapshot_tnan.csv, all NaN
        (dict(GRIDLESS_CONFIG, times=[0.0, math.inf]), "times"),  # OverflowError in plan_grid
        # values that are not numbers: each escaped main as ValueError or TypeError
        (dict(TINY_CONFIG, gamma_p="fast"), "gamma_p"),
        (dict(TINY_CONFIG, gamma_p=None), "gamma_p"),
        (dict(TINY_CONFIG, times=5), "times"),
        (dict(TINY_CONFIG, times=[0, "x"]), "times[1]"),
        (dict(TINY_CONFIG, eps_tail="x"), "eps_tail"),
        (dict(TINY_CONFIG, n_points=None), "n_points"),
        (dict(TINY_CONFIG, n_points=2.5), "n_points"),            # was truncated to 2
        # non-finite shape fields: tracebacks, or NaN CSVs written with exit 0
        (dict(TINY_CONFIG, sigma1=math.nan), "sigma1 must be finite"),
        (dict(TINY_CONFIG, ic="laplace_mixture", a=math.nan, b=2.0), "a must be finite"),
        (dict(TINY_CONFIG, ic="gaussian_coherent", mu=0.8, k=math.inf, sigma=1.0), "k must be finite"),
        (dict(TINY_CONFIG, ic="uniform_mixture", a=3.0, b=math.nan), "b must be finite"),
        (dict(TINY_CONFIG, ic="gaussian_coherent", mu=0.8, k=math.nan, sigma=1.0), "k must be finite"),
        (dict(DRIVEN_CONFIG, r=math.nan), "r must be finite"),
        (dict(DRIVEN_CONFIG, q=math.nan), "q must be finite"),
        # explicit grids narrower than the initial tails plus the reach at t_max
        (dict(TINY_CONFIG, times=[5000.0]), "needs half_width >="),              # CSV of mass 3.5e-55
        (dict(TINY_CONFIG, omega=1e-2, times=[5000.0]), "needs half_width >="),  # wrapped around the grid
        (dict(TINY_CONFIG, times=[1e300]), "needs half_width >="),               # all-NaN CSV
        # JSON booleans and numeric strings are not numbers: each was read as a value
        (dict(TINY_CONFIG, gamma_p=True), "gamma_p"),     # solved with gamma_p = 1.0
        (dict(TINY_CONFIG, times=[True]), "times[0]"),    # wrote snapshot_t1.csv
        (dict(TINY_CONFIG, sigma1=True), "sigma1"),       # manifest recorded "sigma1": true
        (dict(TINY_CONFIG, p="0.5"), "p must be a number"),
        # a gridless run whose planned grid cannot resolve the solution under MAX_POINTS
        (dict(GRIDLESS_CONFIG, times=[1e300]), "nodes per solution width"),  # mass-0 CSV, dx 2.4e292
        # grids, planned or explicit, too coarse for the earliest snapshot
        (dict(GRIDLESS_CONFIG, sigma1=1e-300), "nodes per solution width"),  # NaN at x = 0 at t = 0
        (dict(TINY_CONFIG, half_width=1e300), "nodes per solution width"),   # grid mass 6.8e296 at t = 0
        # keys that are neither run keys nor fields of the chosen shape: each was ignored
        (dict(TINY_CONFIG, gama_z=0.5), "'gama_z'"),                  # solved with the default rate
        (dict(TINY_CONFIG, mu=0.8), "'mu'"),                          # a gaussian_coherent field
        (dict(DRIVEN_CONFIG, scale=3.0), "'scale'"),                  # for_params sets delta/omega
        # configs that are not JSON objects, and an ic that is not a string
        (5, "must be a JSON object"),                                 # TypeError in _need
        ([TINY_CONFIG], "must be a JSON object"),
        (dict(TINY_CONFIG, ic=["gaussian_mixture"]), "unknown initial condition kind"),
        # method "closed" with no closed form: each wrote snapshot_t0.csv before the refusal
        (dict(TINY_CONFIG, omega=5e-3, method="closed"), "regime 'general'"),
        (dict(TINY_CONFIG, gamma_z=0.0, omega=5e-3, method="closed"), "regime 'gamma_z'"),
        # JSON integers beyond the float range: each escaped main as OverflowError
        (dict(TINY_CONFIG, n_points=10**400), "n_points"),
        (dict(TINY_CONFIG, times=[0, 10**400]), "times[1]"),
        (dict(TINY_CONFIG, sigma1=10**400), "sigma1"),
    ], ids=["eps_tail-nan", "time-nan", "time-inf", "gamma_p-string", "gamma_p-null",
            "times-number", "time-string", "eps_tail-string", "n_points-null", "n_points-fraction",
            "sigma1-nan", "a-nan", "k-inf", "b-nan", "k-nan", "r-nan", "q-nan",
            "reach-closed", "reach-spectral", "reach-huge-time",
            "gamma_p-bool", "time-bool", "sigma1-bool", "p-numeric-string", "gridless-huge-time",
            "planned-grid-coarse-at-t0", "explicit-grid-coarse-at-t0",
            "unknown-key", "other-shape-key", "laplace-coherent-scale",
            "json-number", "json-list", "ic-list", "closed-general", "closed-gamma_z-gaussian",
            "n_points-huge-int", "time-huge-int", "sigma1-huge-int"])
    def test_non_finite_config_rejected(self, tmp_path, config, key, capsys):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config))  # json writes NaN and Infinity
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(config_path), "--out", str(out)]) == 2
        assert not list(out.glob("*.csv"))
        assert key in capsys.readouterr().err

    def test_non_finite_field_exits_2_before_its_csv(self, tmp_path):
        # at gamma_z = 1e308 the spectral symbol overflows and the solved field
        # is NaN; it ran in a new interpreter, where RuntimeWarning is not the
        # error that this suite's settings make it
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(dict(GRIDLESS_CONFIG, gamma_z=1e308, omega=1e-2,
                                               method="spectral")))
        out = tmp_path / "out"
        code = (
            "import contextlib, io\n"
            "from oqbm import cli\n"
            "err = io.StringIO()\n"
            "with contextlib.redirect_stderr(err):\n"
            f"    code = cli.main(['solve', '--config', {str(config_path)!r}, '--out', {str(out)!r}])\n"
            "print(code, 'not finite' in err.getvalue())"
        )
        assert _fresh_python(code) == "2 True"
        assert not any("nan" in f.read_text() for f in out.glob("*.csv"))
        assert not (out / "snapshot_manifest.json").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow the CLI also lets pass
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_failed_solve_leaves_no_partial_output(self, tmp_path, threads):
        # t = 0 is written before t = 50 is refused as not finite; the run
        # removes its CSV and writes no manifest, and keeps files it did not write
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(dict(GRIDLESS_CONFIG, gamma_z=1e308, omega=1e-2,
                                               method="spectral")))
        out = tmp_path / "out"
        out.mkdir()
        (out / "earlier.csv").write_text("kept\n")
        args = ["solve", "--config", str(config_path), "--out", str(out), "--threads", threads]
        assert cli.main(args) == 2
        assert sorted(f.name for f in out.iterdir()) == ["earlier.csv"]

    @pytest.mark.parametrize("command", ["figure", "solve"])
    def test_negative_threads_exit_code(self, tmp_path, command, capsys):
        # a negative count ran every snapshot serially and exited 0
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(TINY_CONFIG))
        args = ["--figure", "fig3"] if command == "figure" else ["--config", str(config_path)]
        out = tmp_path / "out"
        assert cli.main([command, *args, "--threads", "-5", "--out", str(out)]) == 2
        assert not out.exists()
        assert "threads must be >= 0" in capsys.readouterr().err

    def test_negative_threads_rejected_before_any_output(self, tmp_path):
        with pytest.raises(ConfigError, match="threads"):
            cli.run_solve(dict(TINY_CONFIG), tmp_path, threads=-1)
        with pytest.raises(ConfigError, match="threads"):
            cli.run_figure("fig3", tmp_path, threads=-1)
        assert not list(tmp_path.iterdir())  # 0, the default, still means auto

    def test_missing_file_exit_code(self, tmp_path):
        assert cli.main(["solve", "--config", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("raw", [
        b'{"gamma_p": 1e-3, "sigma\xe91": 1.0}',  # a Latin-1 byte: UnicodeDecodeError escaped main
        b'{"gamma_p": 1' + b"0" * 5000 + b"}",     # over 4300 digits: ValueError escaped main
    ], ids=["latin-1-byte", "int-over-4300-digits"])
    def test_unreadable_config_exit_code(self, tmp_path, raw, capsys):
        config_path = tmp_path / "run.json"
        config_path.write_bytes(raw)
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(config_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

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


def _log_uniform(rng, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _random_config(rng, ic: str, method: str) -> dict:
    """Rates log-uniform in [1e-5, 10], one of gamma_z, delta, omega zeroed in
    nine draws of ten, and one snapshot time log-uniform in [1e-3, 1e6]."""
    config = {key: _log_uniform(rng, 1e-5, 10.0) for key in ("gamma_p", "gamma_z", "delta", "omega")}
    zeroed = str(rng.choice(["gamma_z", "delta", "omega", ""], p=[0.3, 0.3, 0.3, 0.1]))
    if zeroed:
        config[zeroed] = 0.0
    angle, radius = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 1.0)
    shape = {"p": rng.uniform(0.05, 0.95), "mu": rng.uniform(0.05, 0.95), "k": rng.uniform(0.0, 3.0),
             "r": radius * math.cos(angle), "q": radius * math.sin(angle)}
    shape.update({key: _log_uniform(rng, 0.3, 3.0) for key in ("sigma", "sigma1", "sigma2", "a", "b")})
    return dict(config, ic=ic, method=method, times=[_log_uniform(rng, 1e-3, 1e6)],
                **{key: shape[key] for key in cli._shape_keys(cli.SHAPES[ic])})


def test_accepted_configs_solve_or_raise_typed_errors(rng):
    # every shape under every method; plans above 2^15 nodes are skipped to keep this fast
    combos = [(ic, method) for ic in cli.SHAPES for method in ("auto", "closed", "spectral")]
    configs = [OVERDAMPED_CONFIG] + [_random_config(rng, *combos[i % len(combos)]) for i in range(120)]
    routes = set()
    for config in configs:
        try:
            scenario = cli.build_scenario(config)
            if scenario.grid.n_points > 1 << 15:
                continue
            for t in scenario.times:
                route, field = cli.solve_snapshot(scenario, t)
                for name in ("rho_plus", "c_i", "rho_minus", "c_r"):
                    assert np.all(np.isfinite(getattr(field, name))), (config, t, name)
                routes.add(route)
        except OqbmError:
            continue
    assert routes == {"initial", "closed[omega]", "closed[delta]", "closed[gamma_z]", "spectral"}


@pytest.mark.parametrize("rates, times", [
    ({"gamma_p": 1e-300}, [1e-300]),  # sqrt(4 gamma_p t) underflows to 0
    ({"delta": 1e300}, [1e300]),      # the drift reach overflows
    ({"gamma_p": 1e200}, [1e200]),    # the diffusion reach overflows
    ({"gamma_p": 1e-300, "delta": 1e100}, [1e200]),  # finite scales, too many cells for a float
    ({"sigma1": 1e-323}, [0.0, 50.0]),  # the feature over POINTS_PER_FEATURE underflows to 0
], ids=["width-underflow", "drift-overflow", "diffusion-overflow", "cells-overflow", "feature-underflow"])
def test_planned_scales_out_of_range_raise_typed_errors(rates, times):
    # plan_size divided by 0 or took ceil of inf, so these raised bare
    # ZeroDivisionError and OverflowError; the fig1 Gaussian mixture
    config = dict(GRIDLESS_CONFIG, **rates, times=times)
    with pytest.raises(OqbmError):
        cli.build_scenario(config)


def _fresh_python(code: str) -> str:
    """Standard output of ``code`` run in a new interpreter on this package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True, timeout=60)
    return done.stdout.strip()


SCIPY_LOADED = "any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)"


class TestColdStart:
    def test_import_leaves_scipy_integrate_out(self):
        # no oqbm code path imports scipy.integrate (about half of a cold
        # `import oqbm.cli` when it did); the next test runs the one that did
        code = "import sys, oqbm.cli; print('scipy.integrate' in sys.modules)"
        assert _fresh_python(code) == "False"

    def test_identities_leave_scipy_integrate_out(self):
        # the convolution identities integrate on gammaz0.theta_rule, not scipy.integrate
        code = "import sys; from oqbm import validate; validate.check_identities(); " \
               "print('scipy.integrate' in sys.modules)"
        assert _fresh_python(code) == "False"

    def test_import_leaves_scipy_out(self):
        # scipy.special and scipy.sparse are imported by the functions that use them
        assert _fresh_python(f"import sys, oqbm.cli; print({SCIPY_LOADED})") == "False"

    @pytest.mark.parametrize("job", [
        "cli.run_figure('fig1', out, threads=1)",
        "cli.run_figure('fig4', out, threads=1)",  # gamma_z = 0 on the spectral route under auto
        f"cli.run_solve(dict({DRIVEN_CONFIG!r}, method='spectral'), out, threads=1)",
    ], ids=["fig1", "fig4", "solve-spectral"])
    def test_runs_without_scipy_functions_leave_scipy_out(self, tmp_path, job):
        code = f"import sys, pathlib; from oqbm import cli; out = pathlib.Path({str(tmp_path)!r}); {job}; " \
               f"print({SCIPY_LOADED})"
        assert _fresh_python(code) == "False"

    def test_first_scipy_import_from_snapshot_threads(self, tmp_path):
        # fig2's closed omega = 0 route is the first caller of scipy.special, from
        # two snapshot threads at once; the CSVs match a run with scipy preloaded
        run = "import sys, pathlib; from oqbm import cli; " \
              "cli.run_figure('fig2', pathlib.Path({out!r}), threads=2); print('scipy.special' in sys.modules)"
        lazy, eager = tmp_path / "lazy", tmp_path / "eager"
        assert _fresh_python(run.format(out=str(lazy))) == "True"
        assert _fresh_python("import scipy.special; " + run.format(out=str(eager))) == "True"
        names = sorted(f.name for f in lazy.iterdir())
        assert len([n for n in names if n.endswith(".csv")]) == 5
        assert names == sorted(f.name for f in eager.iterdir())
        for name in names:
            assert (lazy / name).read_bytes() == (eager / name).read_bytes(), name


class TestReferenceIndependence:
    def test_closed_driven_forms_load_no_spectral_solver(self):
        # gammaz0 is the reference the spectral route is checked against at
        # gamma_z = 0, so it must not run any of the spectral module's code
        code = "import sys, oqbm.gammaz0; print('oqbm.spectral' in sys.modules)"
        assert _fresh_python(code) == "False"

    def test_fd_oracle_runs_no_fft_and_no_closed_form(self):
        # the FD oracle is the reference for the spectral and closed routes:
        # criterion 2's uniform case must load none of their modules and no
        # FFT, sampling any of the five shapes (with its tail and feature)
        # must load none either, and the oracle's source must name no fft at all
        code = (
            "import sys\n"
            "from oqbm.core import (GaussianCoherent, GaussianMixture, LaplaceCoherent, LaplaceMixture,\n"
            "                       Params, SpatialGrid, UniformMixture, sample_initial, tail_half_width)\n"
            "from oqbm.oracle import fd_integrate\n"
            "fd_integrate(Params(gamma_p=1e-3, gamma_z=1e-3, delta=1e-2, omega=0.0),\n"
            "             UniformMixture(p=0.75, a=3.0, b=2.0), 200.0, SpatialGrid(16.0, 4096),\n"
            "             snapshot_times=[50.0, 200.0])\n"
            "for ic in (GaussianMixture(p=0.75, sigma1=1.0, sigma2=2.0),\n"
            "           GaussianCoherent(p=0.75, mu=0.8, k=1.0, sigma=1.0),\n"
            "           LaplaceMixture(p=0.25, a=1.0, b=2.0), UniformMixture(p=0.75, a=3.0, b=2.0),\n"
            "           LaplaceCoherent(p=0.25, r=0.5, q=-0.5, scale=1.0)):\n"
            "    sample_initial(ic, SpatialGrid(64.0, 4096)), tail_half_width(ic), ic.min_feature()\n"
            "banned = {'oqbm.spectral', 'oqbm.specfun', 'oqbm.omega0', 'oqbm.delta0', 'oqbm.gammaz0'}\n"
            "print(sorted(m for m in sys.modules if m in banned or m.split('.')[:2] == ['scipy', 'fft']))"
        )
        assert _fresh_python(code) == "[]"
        tree = ast.parse(Path(oracle.__file__).read_text())
        names = {getattr(node, f) for node in ast.walk(tree)
                 for f in ("id", "attr", "name", "asname", "module", "arg")
                 if isinstance(getattr(node, f, None), str)}
        assert "fft" not in " ".join(names).lower()
