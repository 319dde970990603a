import ast
import collections
import dataclasses
import fractions
import json
import math
import os
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oqbm import cli, core, oracle, spectral
from oqbm.core import BlochField, LaplaceCoherent, Params, SpatialGrid, plan_grid
from oqbm.errors import (ConfigError, DomainTooNarrow, GridUnderResolved, NonFinite, NonPositiveDiffusion,
                         OqbmError, UnknownFigure)

TINY_CONFIG = {
    "gamma_p": 1e-3, "gamma_z": 1e-3, "delta": 1e-2, "omega": 0.0,
    "ic": "gaussian_mixture", "p": 0.75, "sigma1": 1.0, "sigma2": 2.0,
    "times": [0.0, 50.0],
    "half_width": 24.0, "n_points": 1024,
}
GRIDLESS_CONFIG = {k: v for k, v in TINY_CONFIG.items() if k not in ("half_width", "n_points")}
DRIVEN_CONFIG = dict(cli.FIGURES["fig4"]["configs"]["left"], times=[0.0, 100.0], n_points=1024)
# all four rates positive: the spectral route under any method
GENERAL_CONFIG = {
    "gamma_p": 3e-3, "gamma_z": 5e-3, "delta": 6e-3, "omega": 1e-2,
    "ic": "gaussian_mixture", "p": 0.75, "sigma1": 1.0, "sigma2": 2.0,
    "times": [0.0, 50.0, 100.0], "half_width": 32.0, "n_points": 1024, "method": "spectral",
}
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
        # every figure panel: the mixtures of fig1-fig3 closed at omega = 0, the
        # driven runs of fig4 and fig5 spectral under auto, fig6 closed at delta = 0
        routes = {"fig1": "closed[omega]", "fig2": "closed[omega]", "fig3": "closed[omega]",
                  "fig4": "spectral", "fig5": "spectral", "fig6": "closed[delta]"}
        assert sorted(routes) == sorted(cli.FIGURES)
        for name, spec in cli.FIGURES.items():
            for panel, config in spec["configs"].items():
                assert cli.build_scenario(config).route == routes[name], (name, panel)

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

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("name", ["fig1", "fig3", "fig4", "fig6"])
    def test_figure_bytes_match_separate_solves(self, tmp_path, name, threads):
        # every panel's snapshots share one pool; on one thread or two, the
        # files are those of one serial run_solve per panel, the figure's
        # manifest included
        cli.run_figure(name, tmp_path / "figure", threads=threads)
        spec, separate = cli.FIGURES[name], tmp_path / "separate"
        runs = {panel or "both": cli.run_solve(dict(config), separate, 1,
                                               prefix=f"{name}_{panel}" if panel else name)
                for panel, config in spec["configs"].items()}
        combined = {"figure": name, "panel_quantity": spec["panels"], "runs": runs}
        (separate / f"{name}_manifest.json").write_text(json.dumps(combined, indent=2, sort_keys=True) + "\n")
        names = sorted(f.name for f in separate.iterdir())
        assert len([f for f in names if f.endswith(".csv")]) == 5 * len(runs)
        assert sorted(f.name for f in (tmp_path / "figure").iterdir()) == names
        for f in names:
            assert (tmp_path / "figure" / f).read_bytes() == (separate / f).read_bytes(), f

    def test_a_run_solves_each_symbol_once(self, tmp_path, monkeypatch):
        # fig4's panels share rates, grid and times: one eigenvalue set for
        # the run and one weight set per t > 0, on one thread or two, and a
        # second run computes its own (nothing outlives a run); the 15 t > 0
        # snapshots of a general-rate solve take one eigenvalue set
        calls = collections.Counter()
        for name in ("symbol_eigenvalues", "_putzer_weights"):
            def counted(*args, _name=name, _fn=getattr(spectral, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(spectral, name, counted)
        for threads in (1, 2, 2):
            calls.clear()
            cli.run_figure("fig4", tmp_path / "fig4", threads=threads)
            assert calls == {"symbol_eigenvalues": 1, "_putzer_weights": 4}, threads
        calls.clear()
        times = [150.0 * k / 15 for k in range(16)]
        config = {k: v for k, v in GENERAL_CONFIG.items() if k not in ("half_width", "n_points")}
        cli.run_solve(dict(config, times=times), tmp_path / "general", threads=2)
        assert calls == {"symbol_eigenvalues": 1, "_putzer_weights": 15}


FIG3_CONFIG = cli.FIGURES["fig3"]["configs"][""]


class TestRewriteInPlace:
    """A rerun into a directory that holds its outputs rewrites each CSV in
    place and cuts its old tail (cli._open_output), and makes its manifests
    anew once the CSVs are written."""

    def test_rerun_with_fewer_nodes_leaves_no_stale_tail(self, tmp_path):
        rerun, fresh = tmp_path / "rerun", tmp_path / "fresh"
        cli.run_solve(dict(FIG3_CONFIG), rerun, threads=1, prefix="fig3")
        longer = {f.name: f.stat().st_size for f in rerun.iterdir()}
        cli.run_solve(dict(FIG3_CONFIG, n_points=1024), rerun, threads=1, prefix="fig3")
        cli.run_solve(dict(FIG3_CONFIG, n_points=1024), fresh, threads=1, prefix="fig3")
        names = sorted(f.name for f in fresh.iterdir())
        assert sorted(longer) == names and len(names) == 6
        for name in names:
            assert (rerun / name).read_bytes() == (fresh / name).read_bytes(), name
            assert (rerun / name).stat().st_size < longer[name], name

    def test_rerun_keeps_each_csvs_inode(self, tmp_path, monkeypatch):
        # a second link holds each first-run inode, so a CSV that was unlinked
        # or renamed over could not come back with its number; the rerun opens
        # each file once, through os.open without O_TRUNC, and makes its
        # manifest anew
        out, links = tmp_path / "out", tmp_path / "links"
        cli.run_solve(dict(GENERAL_CONFIG), out, threads=2)
        links.mkdir()
        first = {f.name: f.stat().st_ino for f in out.iterdir()}
        for name in first:
            os.link(out / name, links / name)
        flags, os_open = {}, os.open
        monkeypatch.setattr(os, "open", lambda path, flag, *args, **kwargs: flags.update({Path(path).name: flag})
                            or os_open(path, flag, *args, **kwargs))
        cli.run_solve(dict(GENERAL_CONFIG), out, threads=2)
        csvs = sorted(name for name in first if name.endswith(".csv"))
        assert {name: (out / name).stat().st_ino for name in csvs} == {name: first[name] for name in csvs}
        assert len(csvs) == 3 and (out / "snapshot_manifest.json").stat().st_ino != first["snapshot_manifest.json"]
        assert sorted(flags) == sorted(first) and not any(flag & os.O_TRUNC for flag in flags.values())

    def test_no_manifest_stands_while_the_csvs_are_rewritten(self, tmp_path, monkeypatch):
        # the manifest is the run's commit mark: a rerun killed while it
        # rewrites the CSVs (where no except clause runs) leaves none that
        # vouches for them; fig4's combined manifest goes with its panels'
        cli.run_figure("fig4", tmp_path, threads=1)
        manifests = sorted(f.name for f in tmp_path.glob("*_manifest.json"))
        assert manifests == ["fig4_left_manifest.json", "fig4_manifest.json", "fig4_right_manifest.json"]
        seen, write = [], cli.write_snapshot_csv
        monkeypatch.setattr(cli, "write_snapshot_csv", lambda path, field: seen.append(
            sorted(f.name for f in tmp_path.glob("*_manifest.json"))) or write(path, field))
        cli.run_figure("fig4", tmp_path, threads=1)
        assert len(seen) == 10 and seen == [[]] * 10
        assert sorted(f.name for f in tmp_path.glob("*_manifest.json")) == manifests

    def test_json_writer_cuts_an_old_tail(self, tmp_path):
        # a run makes its manifests anew, yet every writer through the opener
        # cuts the old tail; the JSON is ASCII whatever its strings hold
        path = tmp_path / "written.json"
        path.write_bytes(b"x" * 1000)
        cli._write_json(path, {"b": [1.5], "a": "\u00e9"})
        assert path.read_bytes() == b'{\n  "a": "\\u00e9",\n  "b": [\n    1.5\n  ]\n}\n'

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_fresh_file_mode_follows_the_umask(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            cli.run_solve(dict(TINY_CONFIG), tmp_path, threads=1)
        finally:
            os.umask(old)
        for f in tmp_path.iterdir():
            assert f.stat().st_mode & 0o777 == 0o666 & ~umask, f.name

    @pytest.mark.parametrize("threads", [1, 2])
    def test_failed_rerun_removes_what_it_rewrote(self, tmp_path, monkeypatch, threads):
        # the rerun rewrites t = 0 and 50, then refuses t = 100 as not finite:
        # it removes the two CSVs and leaves t = 100's old CSV, with no manifest
        config = dict(GENERAL_CONFIG)
        cli.run_solve(config, tmp_path, threads=threads)
        before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
        solve_snapshot = cli.solve_snapshot

        def solve(scenario, t):
            solver, field = solve_snapshot(scenario, t)
            if t == 100.0:
                field = dataclasses.replace(field, c_r=np.full(field.grid.n_points, np.inf))
            return solver, field

        monkeypatch.setattr(cli, "solve_snapshot", solve)
        with pytest.raises(NonFinite):
            cli.run_solve(config, tmp_path, threads=threads)
        after = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
        assert after == {"snapshot_t100.csv": before["snapshot_t100.csv"]}


def _powers_of_ten_and_neighbours():
    values = []
    for k in range(-323, 309):
        for p in {10.0 ** k, float(f"1e{k}")}:
            values += [np.nextafter(p, -np.inf), p, np.nextafter(p, np.inf)]
    return values


def _exponent_length_cells():
    """A value of each sign for each decimal exponent X of the text and each
    significant length L = 1..17 of its digits: ``{(X, L): [v, -v]}``.

    The digits are 133..35 (5 for L = 1), or, where m = L - 1 - X digits
    follow the point and 5^m has at most L digits, the least odd multiple
    K 5^m of L digits, whose value is K 2^-m exactly.  The value is the
    double nearest those digits times 10^(X - L + 1); its text has them
    in every cell of X = 0..16, and in many others.
    """
    cells = {}
    for x in list(range(-6, 19)) + [-100, -99, 99, 100, -280, 280, cli._POW_MIN, cli._POW_MAX]:
        for length in range(1, 18):
            m = length - 1 - x  # digits after the point
            if m > 0 and 5**m < 10**length:
                k = -(-10 ** (length - 1) // 5**m) | 1  # odd, so the last digit is 5
                digits = k * 5**m
            else:
                digits = int("1" + "3" * (length - 2) + "5") if length > 1 else 5
            value = float(f"{digits}e{-m}")
            cells[x, length] = [value, -value]
    return cells


def _exact_ties(seed: int, exponents, count: int) -> list:
    """``count`` doubles of each sign per decimal exponent X whose 18th
    significant digit is an exact tie: v = m / 2^(k + 1) with m odd and
    k = 16 - X, so |v| 10^k = m 5^k / 2 ends in exactly .5.  An X whose
    range holds no such double (m from 2^53 on) gives none."""
    rng = np.random.default_rng(seed)
    ties = []
    for x in exponents:
        scale = 2 ** (17 - x)
        low = math.ceil(fractions.Fraction(10) ** x * scale)
        high = min(math.floor(fractions.Fraction(10) ** (x + 1) * scale), 2**53)
        if high - low < 2:
            continue
        for m in rng.integers(low // 2, high // 2, size=count) * 2 + 1:
            value = math.ldexp(int(m), x - 17)
            assert (fractions.Fraction(value) * 10 ** (16 - x)).denominator == 2
            ties += [value, -value]
    return ties


class _Rows:
    """What write_snapshot_csv reads of a grid, at a row count that no
    SpatialGrid (a power of two) has; hashed by identity."""

    def __init__(self, n: int):
        self.nodes = np.linspace(-3.0, 3.0, n)


def _table(grid, seed: int, time: float = 0.1) -> types.SimpleNamespace:
    """A field of ``grid``'s rows as write_snapshot_csv reads it, all six
    columns stored (a BlochField computes rho11 and rho22 on each read)."""
    rng = np.random.default_rng(seed)
    n = len(grid.nodes)
    return types.SimpleNamespace(grid=grid, time=time, **{
        name: rng.normal(size=n) * 10.0 ** rng.integers(-30, 30, n)
        for name in ("rho_plus", "rho_minus", "c_r", "c_i", "rho11", "rho22")})


def _csv_text(field) -> str:
    """The CSV of ``field`` with every value formatted by ``format`` itself."""
    table = (field.grid.nodes, field.rho_plus, field.rho_minus, field.c_r, field.c_i,
             field.rho11, field.rho22)
    stamp = format(float(field.time), ".17g")
    return cli.CSV_HEADER + "\n" + "".join(
        stamp + "," + ",".join(format(float(c[i]), ".17g") for c in table) + "\n"
        for i in range(len(field.grid.nodes)))


class TestCsvKernel:
    """``_format_g17`` gives exactly format(v, ".17g"), value by value."""

    @staticmethod
    def assert_matches_format(values, work=None):
        # in blocks of a CSV chunk's values, the most one working memory holds
        values, block = np.asarray(values, dtype=float), 6 * cli._ROWS_PER_CHUNK
        work = work if work is not None else cli._Scratch()
        words = np.empty((values.size, cli._WORDS), np.int64)
        for start in range(0, values.size, block):
            out = words[start:start + block]
            assert cli._format_g17(values[start:start + block], work, out) is out
        for v, word in zip(values.tolist(), words):
            assert bytes(word).replace(b"\0", b"") == ("," + format(v, ".17g")).encode(), repr(v)

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

    def test_exact_ties_round_half_even_without_format(self, monkeypatch):
        # where 10^(16 - X) is a double the kernel's |v| 10^(16 - X) is exact,
        # so it rounds each tie half to even itself: no value goes to format
        ties = _exact_ties(31, range(13, 17), 200) + _exact_ties(37, range(-6, 0), 200)
        calls, format_one = [], cli._format
        monkeypatch.setattr(cli, "_format", lambda v: calls.append(v) or format_one(v))
        self.assert_matches_format(ties)
        assert len(ties) == 2 * 200 * 9 and calls == []  # X = 16 holds no tie

    def test_every_exponent_and_length_of_the_word_layout(self):
        # every point position, count of shown digits, "0.000" prefix and
        # 2- and 3-digit exponent of the words, for both signs
        cells = _exponent_length_cells()
        self.assert_matches_format([v for pair in cells.values() for v in pair])
        shown = {}
        for (x, length), (value, _) in cells.items():
            mantissa, _, exp = format(value, ".17e").partition("e")
            shown[x, length] = (int(exp), len(mantissa.replace(".", "").rstrip("0")))
        # the texts fill the cells: every point position and count of shown
        # digits in fixed notation, and every count in the exponent form
        exact = {cell for cell, text in shown.items() if text == cell}
        assert {(x, n) for x in range(-1, 17) for n in range(1, 18)} <= exact and (-4, 7) in exact
        assert {n for x, n in exact if not -4 <= x <= 16} == set(range(1, 18))

    @pytest.mark.parametrize("shift", [-1e-9, 1e-9])
    def test_exponent_exact_whatever_log10_rounds(self, monkeypatch, shift):
        # a log10 off either way next to 10^k moves floor(log10|v|) by one,
        # which the comparisons with the double-double 10^k take back
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a, **kw: np.add(log10(a, **kw), shift, **kw))
        self.assert_matches_format(_powers_of_ten_and_neighbours())

    def test_reused_scratch_keeps_no_stale_state(self):
        # one working memory formats a whole chunk and then a shorter batch,
        # whose slow-path values sit where the chunk took the fast path and
        # whose fast-path values sit where it took the slow path
        rng = np.random.default_rng(29)
        work, chunk = cli._Scratch(), 6 * cli._ROWS_PER_CHUNK
        first = rng.integers(0, 2**64, size=chunk, dtype=np.uint64).view(np.float64)
        self.assert_matches_format(first, work)
        size = np.abs(first)
        was_fast = (size == 0.0) | ((size >= 1e-280) & (size <= 1e280))
        second = rng.normal(size=10_000) * 10.0 ** rng.integers(-200, 200, 10_000)
        # non-finite, beyond 1e280, below 1e-280, and within 1e-7 of a tie of
        # the 18th digit where 10^(16 - X) is no double
        slow = [np.nan, np.inf, -np.inf, 1e300, -3e290, 5e-300, 9.72431132956429e-10,
                -5.213923131857591e+40]
        at_fast = np.flatnonzero(was_fast[:10_000])
        second[at_fast] = np.resize(slow, at_fast.size)
        assert (~was_fast[:10_000]).sum() > 500 and at_fast.size > 8_000
        self.assert_matches_format(second, work)

    @pytest.mark.parametrize("rows", [2047, 2048, 2049, cli._ROWS_PER_CHUNK - 1, cli._ROWS_PER_CHUNK,
                                      cli._ROWS_PER_CHUNK + 1, 2 * cli._ROWS_PER_CHUNK + 1])
    def test_rows_across_the_chunks_of_a_write(self, tmp_path, rows):
        # the real chunk length: part chunks around 2,048 rows and just short of
        # a whole one, a whole one, and one row beyond one and two chunks
        field = _table(_Rows(rows), rows)
        cli.write_snapshot_csv(tmp_path / "s.csv", field)
        assert (tmp_path / "s.csv").read_text() == _csv_text(field)

    @pytest.mark.parametrize("rows", [2047, 2048, 2049, cli._ROWS_PER_CHUNK - 1, cli._ROWS_PER_CHUNK,
                                      cli._ROWS_PER_CHUNK + 1])
    @pytest.mark.parametrize("value, length", [(0.0, 1), (-1.2345678901234567e-100, 24)],
                             ids=["all-zero", "all-24-characters"])
    def test_rows_of_the_most_and_fewest_nul_bytes(self, tmp_path, rows, value, length):
        # every field "0" leaves the most NUL bytes in a row for the strip to
        # drop, and every field of the longest text the fewest
        grid = _Rows(rows)
        grid.nodes[:] = value
        field = types.SimpleNamespace(grid=grid, time=value, **{
            name: np.full(rows, value) for name in ("rho_plus", "rho_minus", "c_r", "c_i", "rho11", "rho22")})
        cli.write_snapshot_csv(tmp_path / "s.csv", field)
        data = (tmp_path / "s.csv").read_bytes()
        assert len(data) == len(cli.CSV_HEADER) + 1 + rows * (8 * length + 8)
        assert b"\0" not in data and data.decode() == _csv_text(field)

    def test_rows_across_chunk_boundaries(self, tmp_path, monkeypatch):
        # 2048 rows in chunks of 300: six whole chunks and one of 248 rows; the
        # 300-row working memory stays in this test's own list of idle buffers
        monkeypatch.setattr(cli, "_ROWS_PER_CHUNK", 300)
        monkeypatch.setattr(cli, "_IDLE_SCRATCH", collections.deque(maxlen=cli._MAX_THREADS))
        grid = SpatialGrid(3.0, 2048)
        rng = np.random.default_rng(7)
        cols = [rng.normal(size=2048) * 10.0 ** rng.integers(-30, 30, 2048) for _ in range(4)]
        field = BlochField(grid=grid, rho_plus=cols[0], rho_minus=cols[1], c_r=cols[2],
                           c_i=cols[3], time=0.1)
        cli.write_snapshot_csv(tmp_path / "s.csv", field)
        assert (tmp_path / "s.csv").read_text() == _csv_text(field)


def _assert_same_text(got: bytes, expected: bytes, what) -> None:
    """``got == expected``, reporting the first line that differs, not a diff of two megabytes."""
    if got != expected:
        a_lines, b_lines = got.split(b"\n"), expected.split(b"\n")
        pairs = enumerate(zip(a_lines, b_lines))
        line = next((i for i, (a, b) in pairs if a != b), min(len(a_lines), len(b_lines)))
        pytest.fail(f"{what}: line {line} differs ({len(a_lines)} lines against {len(b_lines)} expected)")


class TestCsvZeroColumns:
    """A column that is +0.0 in a whole chunk is written without the kernel,
    and t's text takes only the words it fills; the bytes stay format's."""

    def test_zero_column_chunks_and_stamps_of_one_to_three_words(self, tmp_path):
        # two chunks: in the first every column is +0.0, in the second P,
        # C_I and rho22 are, while a lone 5e-324 and a lone -0.0 among zeros
        # are not and rho11 is +0.0 in the first chunk only; the last field
        # has the reverse, rho22 alone live in the first chunk and nothing in
        # the second; t's text fills 1, 2, 3 and 1 words
        import threading

        n, chunk = 2 * cli._ROWS_PER_CHUNK, cli._ROWS_PER_CHUNK
        grid, rng = _Rows(n), np.random.default_rng(46)
        names = ("rho_plus", "rho_minus", "c_r", "c_i", "rho11", "rho22")
        cols = {name: np.zeros(n) for name in names}
        cols["rho_minus"][chunk + 7] = 5e-324
        cols["c_r"][n - 3] = -0.0
        cols["rho11"][chunk:] = rng.normal(size=chunk) * 10.0 ** rng.integers(-30, 30, chunk)
        last = {name: np.zeros(n) for name in names}
        last["rho22"][:chunk] = rng.normal(size=chunk)
        fields = [types.SimpleNamespace(grid=grid, time=t, **cols) for t in (0.0, 0.0009765625, 1e-05)]
        fields.append(types.SimpleNamespace(grid=grid, time=25.0, **last))
        assert [-(-len(format(f.time, ".17g")) // 8) for f in fields] == [1, 2, 3, 1]
        for k, field in enumerate(fields):
            cli.write_snapshot_csv(tmp_path / f"one_{k}.csv", field)
        barrier = threading.Barrier(2)

        def write(ks):
            barrier.wait()
            for k in ks:
                cli.write_snapshot_csv(tmp_path / f"two_{k}.csv", fields[k])

        threads = [threading.Thread(target=write, args=(ks,)) for ks in ((0, 2), (1, 3))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        for k, field in enumerate(fields):
            expected = _csv_text(field).encode()
            _assert_same_text((tmp_path / f"one_{k}.csv").read_bytes(), expected, ("one thread", k))
            _assert_same_text((tmp_path / f"two_{k}.csv").read_bytes(), expected, ("two threads", k))
        lines = (tmp_path / "one_2.csv").read_text().split("\n")
        assert lines[1].startswith("1.0000000000000001e-05,-3,0,0,0,0,0,0")
        assert lines[1 + chunk + 7].split(",")[3] == "4.9406564584124654e-324"
        assert lines[n - 2].split(",")[4] == "-0"

    def test_an_all_zero_column_chunk_sends_no_value_to_the_kernel(self, tmp_path, monkeypatch):
        # C_R is +0.0 in the first chunk and C_I in the second: each chunk
        # formats the other five columns, packed in one call; a field that
        # is +0.0 throughout calls the kernel not at all
        n, chunk = 2 * cli._ROWS_PER_CHUNK, cli._ROWS_PER_CHUNK
        field = _table(_Rows(n), 3)
        field.c_r[:chunk] = 0.0
        field.c_i[chunk:] = 0.0
        cli._node_slots(field.grid)  # the x column text is formatted before the count starts
        shapes, format_g17 = [], cli._format_g17

        def format_counted(values, work, out):
            shapes.append(np.shape(values))
            return format_g17(values, work, out)

        monkeypatch.setattr(cli, "_format_g17", format_counted)
        cli.write_snapshot_csv(tmp_path / "s.csv", field)
        assert shapes == [(chunk, 5), (chunk, 5)]
        _assert_same_text((tmp_path / "s.csv").read_bytes(), _csv_text(field).encode(), "s.csv")
        zero = types.SimpleNamespace(grid=field.grid, time=0.0, **{
            name: np.zeros(n) for name in ("rho_plus", "rho_minus", "c_r", "c_i", "rho11", "rho22")})
        cli.write_snapshot_csv(tmp_path / "zero.csv", zero)
        assert shapes == [(chunk, 5), (chunk, 5)]
        _assert_same_text((tmp_path / "zero.csv").read_bytes(), _csv_text(zero).encode(), "zero.csv")


class TestCsvWorkingMemory:
    """CSV writes share per-grid x text and reuse working memory across
    chunks, files and threads; none of it may leak between writes."""

    @pytest.mark.parametrize("n_points", [256, 8192])  # under one chunk, and two whole chunks
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

    def test_threaded_figure_reuses_idle_scratch(self, tmp_path, monkeypatch):
        # a new pool's threads take the working memory that an earlier run's
        # threads left idle: of the two threads' buffers, the second run makes
        # only those the warm-up did not leave, where it made both every run
        idle = collections.deque(maxlen=cli._MAX_THREADS)
        monkeypatch.setattr(cli, "_IDLE_SCRATCH", idle)
        cli.run_figure("fig4", tmp_path / "warm", threads=2)  # also caches fig4's x column text
        made, scratch = [], cli._Scratch
        monkeypatch.setattr(cli, "_Scratch", lambda *args: made.append(args) or scratch(*args))
        left_idle = len(idle)
        cli.run_figure("fig4", tmp_path / "again", threads=2)
        assert left_idle in (1, 2) and len(made) <= 2 - left_idle
        assert len(idle) == left_idle + len(made)

    def test_idle_scratch_kept_to_the_thread_cap(self, tmp_path, monkeypatch):
        # twelve writes hold twelve buffers at once; eight stay idle after them
        import threading

        idle = collections.deque(maxlen=cli._MAX_THREADS)
        monkeypatch.setattr(cli, "_IDLE_SCRATCH", idle)
        barrier, format_g17 = threading.Barrier(12), cli._format_g17

        def format_when_all_hold_one(values, work=None, out=None):
            barrier.wait(timeout=30)
            return format_g17(values, work, out)

        field = BlochField(grid=SpatialGrid(1.0, 16), **{name: np.full(16, 0.5) for name in
                                                          ("rho_plus", "c_i", "rho_minus", "c_r")})
        cli._node_slots(field.grid)  # the x column text is cached before the writes start
        monkeypatch.setattr(cli, "_format_g17", format_when_all_hold_one)
        threads = [threading.Thread(target=cli.write_snapshot_csv, args=(tmp_path / f"{k}.csv", field))
                   for k in range(12)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert len({(tmp_path / f"{k}.csv").read_bytes() for k in range(12)}) == 1
        assert cli._MAX_THREADS == 8 and len(idle) == 8 and len({id(work) for work in idle}) == 8

    def test_figure_formats_its_x_column_once_before_its_threads(self, tmp_path, monkeypatch):
        # fig4's two panels share one grid, here uncached: the calling thread
        # formats its x column once, before any snapshot is solved, so the
        # snapshot threads' writes take no lock
        import threading

        events, format_g17, solve_snapshot = [], cli._format_g17, cli.solve_snapshot

        def format_logged(values, work, out):
            if np.ndim(values) == 1:  # the x column; the value blocks are (rows, 6)
                events.append(("x", values.size, threading.get_ident()))
            return format_g17(values, work, out)

        def solve_logged(scenario, t):
            events.append(("solve", t, threading.get_ident()))
            return solve_snapshot(scenario, t)

        cli._node_slots.cache_clear()
        monkeypatch.setattr(cli, "_format_g17", format_logged)
        monkeypatch.setattr(cli, "solve_snapshot", solve_logged)
        cli.run_figure("fig4", tmp_path, threads=2)
        caller = threading.get_ident()
        assert [event for event in events if event[0] == "x"] == [events[0]] == [("x", 8192, caller)]
        solvers = {ident for kind, _, ident in events if kind == "solve"}
        assert len(events) == 11 and caller not in solvers

    def test_warm_write_allocates_no_array_temporaries(self, tmp_path):
        # numpy reports its buffers to tracemalloc, so whatever the allocator
        # does: a warm write of four chunks holds one chunk's NUL-stripped
        # text at a time, and every array of the kernel is reused memory;
        # besides that text, about 7 KB: the open file and array headers
        import tracemalloc

        field = _table(SpatialGrid(4.0, 4 * cli._ROWS_PER_CHUNK), 5)
        cli.write_snapshot_csv(tmp_path / "warm.csv", field)
        tracemalloc.start()
        try:
            cli.write_snapshot_csv(tmp_path / "s.csv", field)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "warm.csv").read_bytes()
        assert peak <= cli._ROWS_PER_CHUNK * cli._LINE + 16 * 1024, peak

    def test_scratch_holds_752_bytes_a_row(self):
        # per CSV row: the kernel's 9 rows of words and 4 of flags for six
        # values (456 bytes), the six columns (48) and the row text (248);
        # the rows and the NUL mask are views of that memory
        work = cli._Scratch()
        owned = [a for a in vars(work).values() if isinstance(a, np.ndarray) and a.base is None]
        assert len(owned) == 4
        assert sum(a.nbytes for a in owned) <= 752 * cli._ROWS_PER_CHUNK

    def test_x_column_of_a_large_grid_in_chunks(self):
        # 2^20 nodes: the x column's text (32 bytes a node) and one idle
        # working memory, not a whole-column one (about 450 MB more)
        grown_kib = _fresh_python(
            "import resource\n"
            "from oqbm import cli\n"
            "from oqbm.core import SpatialGrid\n"
            "grid = SpatialGrid(64.0, 2**20)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "slots = cli._node_slots(grid)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
            "for i in range(0, 2**20, 997):\n"
            "    text = ',' + format(float(grid.nodes[i]), '.17g')\n"
            "    assert bytes(slots[i]).replace(b'\\0', b'') == text.encode(), i\n")
        assert int(grown_kib) <= 64 * 1024, grown_kib  # ru_maxrss counts KiB on Linux

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

    @pytest.mark.parametrize("figure", ["fig2", "fig3"], ids=["laplace", "plateau"])
    @pytest.mark.parametrize("regime, rates", [("omega", {"delta": 1e-2, "omega": 0.0}),
                                               ("delta", {"delta": 0.0, "omega": 1e-2})],
                             ids=["closed-omega", "closed-delta"])
    def test_underflowing_diffusion_width_keeps_the_initial_profiles(self, tmp_path, figure,
                                                                      regime, rates):
        # 2 gamma_p t underflows to 0.0: the plateau's heat flow divided by it,
        # leaving NaN at the edges that fall on nodes (exit 2), and the Laplace
        # flow warned of a division by zero.  Without diffusion P, Q, rho11
        # and rho22 keep their t = 0 values
        config = dict(cli.FIGURES[figure]["configs"][""], gamma_p=1e-300, **rates, times=[0.0, 1e-30])
        manifest = cli.run_solve(config, tmp_path, threads=1)
        assert [f["solver"] for f in manifest["files"].values()] == ["initial", f"closed[{regime}]"]
        start, end = (np.loadtxt(tmp_path / f"snapshot_t{tag}.csv", delimiter=",", skiprows=1)
                      for tag in ("0", "1em30"))
        assert np.array_equal(start[:, [2, 3, 6, 7]], end[:, [2, 3, 6, 7]])

    @pytest.mark.parametrize("t", [1e-20, 1e-10, 1e-8])
    def test_tiny_diffusion_width_on_the_driven_route_is_warning_free(self, tmp_path, t):
        # 2 gamma_p t is tiny but not 0: x^2 / (4 gamma_p t) overflowed in
        # specfun._erfc_pair, a RuntimeWarning, where exp(-inf) = 0 is the
        # exact limit.  Over so short a time the field keeps its t = 0 values
        config = dict(cli.FIGURES["fig4"]["configs"]["right"], gamma_p=1e-300, method="closed",
                      n_points=1024, times=[0.0, t])
        config_path, out = tmp_path / "run.json", tmp_path / "out"
        config_path.write_text(json.dumps(config))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["solve", "--config", str(config_path), "--out", str(out)]) == 0
        files = json.loads((out / "snapshot_manifest.json").read_text())["files"]
        assert [f["solver"] for f in files.values()] == ["initial", "closed[gamma_z]"]
        start, end = (np.loadtxt(out / f["file"], delimiter=",", skiprows=1) for f in files.values())
        assert np.max(np.abs(end[:, 2:] - start[:, 2:])) < 1e-10

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
        (dict(GRIDLESS_CONFIG, gamma_p=1e-300, times=[1e-300]), "underflows to 0"),  # sqrt(4 gamma_p t) is 0.0
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
            "gridless-width-underflow",
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

    def test_non_finite_field_exits_2_before_its_csv(self, tmp_path, capsys):
        # at gamma_z = 1e308, 2 gamma_z overflows and the spectral symbol refuses
        # its cubic as not finite, before any t > 0 field is solved
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(dict(GRIDLESS_CONFIG, gamma_z=1e308, omega=1e-2,
                                               method="spectral")))
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(config_path), "--out", str(out)]) == 2
        assert "not finite" in capsys.readouterr().err
        assert not list(out.glob("*.csv"))
        assert not (out / "snapshot_manifest.json").exists()

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

    @pytest.mark.parametrize("rates", [{"omega": 1e80}, {"gamma_z": 1e100}, {"omega": 1e200}],
                             ids=["omega-1e80", "gamma_z-1e100", "omega-1e200"])
    def test_overflowing_symbol_power_is_typed(self, tmp_path, rates, capsys):
        # Python's float power in spectral._pow raised a bare OverflowError at
        # these rates, and `oqbm solve` exited 1 with a traceback
        config = dict(GRIDLESS_CONFIG, **{"omega": 1e-2, "method": "spectral", **rates})
        with pytest.raises(NonFinite, match=r"\*\*[24] overflows a float"):
            cli.run_solve(config, tmp_path / "solve", threads=1)
        assert not list((tmp_path / "solve").iterdir())
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "main"
        assert cli.main(["solve", "--config", str(config_path), "--out", str(out)]) == 2
        assert not list(out.iterdir())
        assert "overflows a float" in capsys.readouterr().err

    @pytest.mark.parametrize("config, error, message", [
        # b = 2 gamma_z = 1.2e163: b^2 overflows, and the Newton step of
        # spectral.symbol_eigenvalues raised a bare RuntimeWarning
        ({"gamma_p": 1.5474684268632542e-81, "gamma_z": 5.910358476285108e+162,
          "delta": 3.1145913361538467e-54, "omega": 5.280614470749352e-22, "ic": "uniform_mixture",
          "p": 0.27938736325923125, "a": 0.9706616868286976, "b": 0.8927157862158362,
          "times": [0, 2.1347477165500216e-37], "half_width": 3.1943462397832083, "n_points": 256},
         NonFinite, "the symbol's cubic is not finite in a float"),
        # where the pair meets, e^2 in the discriminant's rate form overflowed
        # (a bare RuntimeWarning) before _pow's typed refusal of b^4
        ({"gamma_p": 1.6300394031243072e-48, "gamma_z": 3.772370071624214e+78,
          "delta": 5.259136898058045e+76, "omega": 1.1671369162685816e+63, "ic": "gaussian_mixture",
          "p": 0.2883794045942554, "sigma1": 1.7863778950367435, "sigma2": 1.3883627226048696,
          "times": [0.0, 2.4805418285993435e-81], "half_width": 21.096825907307633, "n_points": 256,
          "method": "spectral"},
         NonFinite, "overflows a float"),
        # there, too, the float product w^2 (b^2 - 4 w) overflowed to inf with no
        # warning, and the infinite eigenvalue raised a bare RuntimeWarning in _putzer_weights
        ({"gamma_p": 1e-3, "gamma_z": 3.639182792899376e+66, "delta": 5.3075973197124406e+63,
          "omega": 4.366673548831189e+64, "ic": "gaussian_mixture", "p": 0.75, "sigma1": 1.0,
          "sigma2": 2.0, "times": [0.0, 1e-66], "half_width": 24.0, "n_points": 1024, "method": "spectral"},
         NonFinite, "the discriminant of the symbol's eigenvalue pair overflows a float"),
        # fig4-right's data where 2 gamma_p t underflows: specfun._erfc_pair
        # divided by it on the closed gamma_z = 0 route, and the field was NaN
        (dict(cli.FIGURES["fig4"]["configs"]["right"], gamma_p=1e-300, times=[0, 1e-30], method="closed"),
         NonPositiveDiffusion, "the diffusion width 2 gamma_p t underflows to 0"),
    ], ids=["newton-overflow", "meet-e-squared", "meet-discriminant", "closed-gamma_z-zero-width"])
    def test_rates_at_the_float_range_are_typed_refusals(self, tmp_path, config, error, message, capsys):
        with pytest.raises(error, match=message):
            cli.run_solve(config, tmp_path / "solve", threads=1)
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "main"
        assert cli.main(["solve", "--config", str(config_path), "--out", str(out)]) == 2
        assert not list(out.iterdir())
        assert message in capsys.readouterr().err

    def test_overflowing_delta0_angle_is_typed(self, tmp_path, capsys):
        # 2 omega overflows, and math.cos(inf) in delta0.internal_matrix raised
        # a bare ValueError; `oqbm solve` exited 1 with a traceback
        config = dict(TINY_CONFIG, delta=0.0, omega=1e308)
        assert cli.build_scenario(config).route == "closed[delta]"
        with pytest.raises(NonFinite, match=r"omega=1e\+308"):
            cli.run_solve(config, tmp_path / "solve", threads=1)
        assert not list((tmp_path / "solve").iterdir())
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "main"
        assert cli.main(["solve", "--config", str(config_path), "--out", str(out)]) == 2
        assert not list(out.iterdir())
        assert "overflows a float" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_failed_figure_leaves_no_partial_output(self, tmp_path, monkeypatch, threads):
        # fig6's right panel is not finite at t = 100, after the left panel's
        # snapshots are written: no file of either panel stays, and no manifest
        solve_snapshot = cli.solve_snapshot

        def solve(scenario, t):
            solver, field = solve_snapshot(scenario, t)
            if isinstance(scenario.ic, core.GaussianCoherent) and t == 100.0:
                field = dataclasses.replace(field, rho_plus=np.full(field.grid.n_points, np.nan))
            return solver, field

        monkeypatch.setattr(cli, "solve_snapshot", solve)
        out = tmp_path / "out"
        out.mkdir()
        (out / "earlier.csv").write_text("kept\n")
        assert cli.main(["figure", "--figure", "fig6", "--out", str(out), "--threads", threads]) == 2
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


def _wide_config(rng) -> dict:
    """Rates and t log-uniform in [1e-200, 1e200], one of gamma_z, delta, omega
    zeroed in half the draws, shapes and methods uniform, times [0, t], and an
    explicit 256-node grid of half-width log-uniform in [1, 100] in half the draws."""
    config = {key: _log_uniform(rng, 1e-200, 1e200) for key in ("gamma_p", "gamma_z", "delta", "omega")}
    if rng.uniform() < 0.5:
        config[str(rng.choice(["gamma_z", "delta", "omega"]))] = 0.0
    ic, method = str(rng.choice(sorted(cli.SHAPES))), str(rng.choice(["auto", "closed", "spectral"]))
    config = dict(_random_config(rng, ic, method), **config, times=[0.0, _log_uniform(rng, 1e-200, 1e200)])
    if rng.uniform() < 0.5:
        config.update(half_width=_log_uniform(rng, 1.0, 100.0), n_points=256)
    return config


def test_wide_range_configs_solve_or_raise_typed_errors(monkeypatch):
    # rates and times across the float range, so that extreme rates reach the
    # solvers through the small explicit grids and not only the planner; plans
    # above 2^15 nodes are skipped before their grid is made
    class Skipped(Exception):
        pass

    def small_grid(half_width, n_points):
        if n_points > 1 << 15:
            raise Skipped
        return SpatialGrid(half_width, n_points)

    monkeypatch.setattr(cli, "SpatialGrid", small_grid)
    counts = collections.Counter()
    for seed in range(1, 11):
        rng = np.random.default_rng(seed)
        for _ in range(60):
            config = _wide_config(rng)
            try:
                scenario = cli.build_scenario(config)
                for t in scenario.times:
                    field = cli.solve_snapshot(scenario, t)[1]
                    for name in ("rho_plus", "c_i", "rho_minus", "c_r"):
                        assert np.all(np.isfinite(getattr(field, name))), (config, t, name)
                counts["solved"] += 1
            except Skipped:
                counts["skipped"] += 1
            except OqbmError:
                counts["refused"] += 1
    print("wide-range draws:", dict(counts))
    assert sum(counts.values()) == 600 and min(counts[k] for k in ("solved", "refused", "skipped")) > 0


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


@pytest.mark.parametrize("error, explicit, planned, green", [
    # half-width 24 against a reach of 126.8 at t = 5000; the planner refuses only a
    # reach that is not finite, as its half-width meets the rule with 25% slack otherwise
    (DomainTooNarrow, {"times": [5000.0]}, ({"delta": 1e300}, 1e300), (5000.0, 24.0, 1024)),
    # dx = 2e300/1024 against a unit width, the planner at its MAX_POINTS cap, and
    # dx = 0.19 against the diffusion width 0.063 at t = 1
    (GridUnderResolved, {"half_width": 1e300}, ({}, 1e300), (1.0, 24.0, 256)),
], ids=["width", "resolution"])
def test_grid_rules_refuse_alike_in_every_caller(monkeypatch, error, explicit, planned, green):
    # build_scenario, plan_grid and green_function share core.check_grid: a broken
    # rule raises the same type in each, before a grid or a symbol is made
    t, half_width, n_points = green
    grid = SpatialGrid(half_width, n_points)  # the Green's function's own grid

    def refuse(*args, **kwargs):
        raise AssertionError("a grid or a symbol was made for a refused grid")

    for module, name in ((core, "SpatialGrid"), (cli, "SpatialGrid"), (spectral, "exp_symbols")):
        monkeypatch.setattr(module, name, refuse)
    rates = {k: TINY_CONFIG[k] for k in ("gamma_p", "gamma_z", "delta", "omega")}
    (planned_rates, t_max), ic = planned, core.GaussianMixture(p=0.75, sigma1=1.0, sigma2=2.0)
    with pytest.raises(error):
        cli.build_scenario(dict(TINY_CONFIG, **explicit))
    with pytest.raises(error):
        plan_grid(ic, Params(**dict(rates, **planned_rates)), t_max)
    with pytest.raises(error):
        spectral.green_function(Params(**rates), t, grid)


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

    def test_fd_cross_check_leaves_scipy_sparse_out(self):
        # the FD oracle applies its coupling operator as a stencil, with no sparse matrix
        code = "import sys; from oqbm import validate; validate.check_fd_cross(); " \
               "print('scipy.sparse' in sys.modules)"
        assert _fresh_python(code) == "False"

    def test_import_leaves_scipy_out(self):
        # scipy.special is imported by the functions that use it
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

    def test_import_loads_only_core_of_the_package(self):
        # route modules, validate, oracle, a thread pool and argparse load on use
        code = "import sys, oqbm.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'oqbm' " \
               "or m in ('concurrent.futures', 'argparse')))"
        assert _fresh_python(code) == str(["oqbm", "oqbm.cli", "oqbm.core", "oqbm.errors"])

    @pytest.mark.parametrize("name, loaded", [
        ("fig1", ["oqbm.omega0", "oqbm.specfun"]),
        ("fig4", ["oqbm.spectral"]),  # gamma_z = 0 on the spectral route under auto
        ("fig6", ["oqbm.delta0", "oqbm.specfun"]),
    ], ids=["fig1", "fig4", "fig6"])
    def test_building_a_figure_imports_only_its_route_module(self, name, loaded):
        code = "import sys; from oqbm import cli\n" \
               "before = set(sys.modules)\n" \
               f"scenarios = [cli.build_scenario(c) for c in cli.FIGURES[{name!r}]['configs'].values()]\n" \
               "print(sorted(m for m in set(sys.modules) - before if m.split('.')[0] == 'oqbm'))"
        assert _fresh_python(code) == str(loaded)

    def test_spectral_solves_import_no_other_route(self, tmp_path):
        # solve-spectral's two job kinds on one thread: the modules a cold run
        # no longer imports are not imported later in the run either
        unused = ["concurrent.futures", "oqbm.validate", "oqbm.oracle", "oqbm.gammaz0", "oqbm.omega0",
                  "oqbm.delta0", "oqbm.specfun"]
        code = f"import sys, pathlib; from oqbm import cli; out = pathlib.Path({str(tmp_path)!r})\n" \
               f"cli.run_solve({GENERAL_CONFIG!r}, out, threads=1, prefix='general')\n" \
               f"cli.run_solve(dict({DRIVEN_CONFIG!r}, method='spectral'), out, threads=1, prefix='driven')\n" \
               f"print(sorted(m for m in {unused!r} if m in sys.modules), 'oqbm.spectral' in sys.modules)"
        assert _fresh_python(code) == "[] True"
        assert len(list(tmp_path.glob("*.csv"))) == 5

    def test_cold_threaded_figure_matches_preloaded_modules(self, tmp_path):
        run = "import pathlib; from oqbm import cli; cli.run_figure('fig4', pathlib.Path({out!r}), threads=2)"
        preload = "import argparse, concurrent.futures, scipy.special\n" \
                  "from oqbm import delta0, gammaz0, omega0, oracle, specfun, spectral, validate\n"
        cold, warm = tmp_path / "cold", tmp_path / "warm"
        _fresh_python(run.format(out=str(cold)))
        _fresh_python(preload + run.format(out=str(warm)))
        names = sorted(f.name for f in cold.iterdir())
        assert len([n for n in names if n.endswith(".csv")]) == 10
        assert names == sorted(f.name for f in warm.iterdir())
        for name in names:
            assert (cold / name).read_bytes() == (warm / name).read_bytes(), name

    def test_manifest_records_the_theta_quadrature_tolerance(self, tmp_path):
        # one definition, read by gammaz0 and by the manifest, which no longer imports gammaz0
        from oqbm import gammaz0

        cli.run_solve(TINY_CONFIG, tmp_path, threads=1)
        text = (tmp_path / "snapshot_manifest.json").read_text()
        assert json.loads(text)["quadrature_tol"] == gammaz0.QUAD_TOL == 1e-9
        assert '"quadrature_tol": 1e-09,' in text


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
