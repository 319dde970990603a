"""Self-check of the benchmark in its seconds-long smoke mode.

    python3 -m pytest bench/test_smoke.py -q

Runs every workload's smoke variant through ``run.py`` as the benchmark
contract does, and checks the result line against BENCHMARK.json.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_smoke_reports_every_layer_metric(workload):
    result = _result(_run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.5",
                          "--trace", "1", "--smoke"))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["layer.cli.s"] > 0.0
    if workload != "validate-full":
        assert values["oracle.fd_integrate.s"] == 0.0 and values["cli.csv.bytes"] > 0.0


def test_untraced_smoke_reports_every_end_to_end_metric():
    result = _result(_run(ROOT, "--workload", "solve-spectral", "--seed", "3", "--seconds", "0.5",
                          "--trace", "0", "--smoke"))
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0.0 for v in result["metrics"].values())


def test_fails_without_the_package():
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        done = _run(Path(tmp), "--workload", "figures-closed", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0 and done.stdout == ""


def test_self_time_subtracts_the_union_of_parallel_children():
    import tracer

    spans = [
        tracer.Span(0, "cli.run_solve", 0.0, 10.0, None, 1, 0, 1),
        tracer.Span(1, "spectral.solve", 1.0, 6.0, 0, 2, 0, 1),   # two worker threads
        tracer.Span(2, "spectral.solve", 2.0, 8.0, 0, 3, 0, 1),
        tracer.Span(3, "spectral.exp_symbols", 2.0, 4.0, 1, 2, 0, 100),
    ]
    m = tracer.layer_metrics(spans, wall=10.0, threads=2)
    assert m["layer.cli.self_s"] == pytest.approx(3.0)        # 10 - covered [1, 8]
    assert m["layer.spectral.s"] == pytest.approx(11.0)       # both outermost solves
    assert m["layer.spectral.self_s"] == pytest.approx(11.0)  # 3 + 6 + 2
    assert m["spectral.exp_symbols.freqs"] == 100.0


def test_correction_leaves_out_stolen_ticks_and_trims_samples():
    import calibrate

    assert calibrate.stolen_share((100, 10), (190, 40)) == pytest.approx(0.25)   # 30 of 120 busy ticks
    assert calibrate.stolen_share(None, (190, 40)) == 0.0
    assert calibrate.stolen_share((100, 10), (100, 10)) == 0.0
    samples = [1.0] * 8 + [0.1, 50.0]                                             # one outlier either side
    assert calibrate.slowness(samples) == pytest.approx(1.0)
    assert calibrate.scale([calibrate.REFERENCE_S]) == pytest.approx(1.0)
