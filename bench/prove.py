"""Repeat the benchmark over several seeds and report the run-to-run spread.

    python3 bench/prove.py --runs 10                       # every workload, seeds 1..10
    python3 bench/prove.py --runs 5 --workloads solve-spectral
    python3 bench/prove.py --runs 10 --baseline bench/baseline.json

For each workload and end-to-end metric it prints the median of the runs,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json.  Runs are
sequential so they never compete for the cores.  ``--baseline`` stores the
medians, quartiles, one traced run's per-layer metrics per workload and the
machine description as the baseline of this commit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple:
    cmd = list(spec["command"]) + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1]), elapsed


def summarize(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"), "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*", default=None)
    parser.add_argument("--baseline", type=Path, default=None, help="write the summary here")
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    summary, env, ok = {}, None, True
    for workload in names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            info, result, elapsed = run_once(spec, workload, seed, trace=0)
            env = info["env"]
            runs.append((result, elapsed))
            print(f"{workload} seed {seed}: {elapsed:.1f}s correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        rows = {}
        for metric in spec["end_to_end"]:
            stats = summarize([r["metrics"][metric["name"]]["value"] for r, _ in runs])
            stats.update(unit=metric["unit"], bound=metric["bound"])
            rows[metric["name"]] = stats
            within = metric["name"] == "setup_s" or stats["spread"] <= metric["bound"] / 3
            ok &= within
            print(f"  {metric['name']:<16} median {stats['median']:<12.5g} q1 {stats['q1']:<12.5g} "
                  f"q3 {stats['q3']:<12.5g} spread {stats['spread']:.4f} (bound {metric['bound']})"
                  + ("" if within else "  <-- above a third of the bound"))
        summary[workload] = {"metrics": rows, "seconds_per_run": statistics.median(e for _, e in runs),
                             "all_correct": all(r["correct"] for r, _ in runs)}
        if args.baseline is not None:
            _, traced, _ = run_once(spec, workload, args.first_seed, trace=1)
            summary[workload]["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
    if args.baseline is not None:
        with open(args.baseline, "w") as fh:
            json.dump({"runs": args.runs, "first_seed": args.first_seed, "env": env,
                       "workloads": summary}, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
