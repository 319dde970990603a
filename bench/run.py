"""Benchmark of the oqbm CLI API on four workloads.

    python3 bench/run.py --workload figure-driven --seed 3 --seconds 10 --trace 0
    python3 bench/run.py --workload all                  # all four, a table each
    python3 bench/run.py --workload all --smoke --seconds 1 --trace 1

Each workload is a fixed job list of public ``oqbm.cli`` calls (see
``workloads.py``), run by one client in this fresh process.  The list is
repeated until ``--seconds`` of timed work have passed; the timings are
medians over the repetitions.  Set-up time is the median over fresh
interpreters that import ``oqbm`` and build every scenario of the workload.
Timings are corrected for how fast the shared host let this VM run
(``calibrate.py``): each job's and each set-up probe's wall time leaves out
the share of it that the host stole from the VM's cores, and is scaled to a
reference core speed by a kernel sampled while it runs; so is each job's CPU
time.  The measured times are in the info line before the result.
Every output is checked (``gate.py``); a failed check makes the run
incorrect and the exit code 1.  With ``--trace 1`` the list is then
repeated for another ``--seconds`` under the span tracer (``tracer.py``)
and the per-layer metrics, in measured seconds, are reported instead; the
spans go to ``.bench_out/spans-<workload>-seed<seed>.json``.

The metric names, units and bounds are those of BENCHMARK.json at the
repository root.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  Outputs are written to a
fresh directory under ``.bench_out/`` that is removed after the run.
"""

import os

# Only the snapshot threads may use the cores: pin every BLAS pool to one
# thread before numpy is imported here or in a set-up probe.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("figures-closed", "figure-driven", "solve-spectral", "validate-full")
ROUTES = {"initial": "initial", "closed[omega]": "closed-omega", "closed[delta]": "closed-delta",
          "closed[gamma_z]": "closed-gamma_z", "spectral": "spectral"}
# set-up probes before and after the timed loop, so the median spans two
# moments of a machine whose speed drifts
SETUP_PROBES = (3, 2)
PROBE_TIMEOUT = 60


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# set-up probe (runs in a fresh interpreter)
# ---------------------------------------------------------------------------

def probe_setup(workload: str, seed: int, smoke: bool) -> tuple:
    """Seconds to import oqbm and build every scenario of the workload, as
    (measured, reference) seconds; the correction is the jobs' one."""
    import calibrate
    import workloads

    ticks = calibrate.cpu_ticks()
    with calibrate.Sampler() as sampler:
        start = time.perf_counter()
        from oqbm import cli

        for job in workloads.jobs(workload, seed, smoke):
            for config in workloads.job_configs(job).values():
                cli.build_scenario(config)
        seconds = time.perf_counter() - start
    stolen = calibrate.stolen_share(ticks, calibrate.cpu_ticks())
    return seconds, seconds * (1.0 - stolen) * calibrate.scale(sampler.take() or [calibrate.sample()])


def measure_setup(args, probes: int) -> list:
    """(measured, reference) set-up seconds of ``probes`` fresh interpreters."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(probes):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT, check=True)
        times.append(tuple(json.loads(done.stdout.strip().splitlines()[-1])))
    return times


# ---------------------------------------------------------------------------
# the timed job list
# ---------------------------------------------------------------------------

class Iteration:
    """One pass over the job list: timings, what it wrote, and its verdicts.

    ``wall`` and ``cpu`` are measured seconds; ``ref_wall`` and ``ref_cpu``
    the same in reference seconds (untraced passes only).
    """

    def __init__(self):
        self.wall = self.cpu = 0.0
        self.ref_wall = self.ref_cpu = 0.0
        self.stolen = 0.0        # seconds of wall time the host took
        self.samples = []        # calibration kernel samples taken during the jobs
        self.outputs = 0
        self.csv_bytes = 0
        self.routes = Counter()
        self.verdicts = []


class Runner:
    def __init__(self, jobs, scenarios: dict, reference: dict, out_dir: Path):
        self.jobs = jobs
        self.scenarios = scenarios
        self.reference = reference
        self.out_dir = out_dir
        self.hashes: dict = {}   # file name -> sha256 of its bytes in the first iteration

    def _run_job(self, job):
        from oqbm import cli

        if job.kind == "figure":
            return list(cli.run_figure(job.arg, self.out_dir, threads=job.threads)["runs"].values())
        if job.kind == "solve":
            return [cli.run_solve(job.arg, self.out_dir, threads=job.threads, prefix=job.prefix)]
        stream = io.StringIO()
        code = cli.run_validate(job.arg, stream=stream)
        return stream.getvalue(), code

    def iterate(self, index: int, tracer=None, sampler=None) -> Iteration:
        """One pass over the job list; each job is timed alone.

        With a ``sampler`` each job's times are also scaled to reference
        seconds by the kernel samples taken while it ran.
        """
        import calibrate
        from oqbm.errors import OqbmError

        if tracer is not None:
            tracer.iteration = index
        results = []
        it = Iteration()
        for job in self.jobs:
            if sampler is not None:
                sampler.take()
            ticks0 = calibrate.cpu_ticks()
            usage0 = resource.getrusage(resource.RUSAGE_SELF)
            start = time.perf_counter()
            try:
                results.append((job, self._run_job(job)))
            except OqbmError as exc:
                results.append((job, exc))
            wall = time.perf_counter() - start
            usage1 = resource.getrusage(resource.RUSAGE_SELF)
            cpu = (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime)
            stolen = calibrate.stolen_share(ticks0, calibrate.cpu_ticks())
            it.wall += wall
            it.cpu += cpu
            if sampler is not None:
                samples = sampler.take() or [calibrate.sample()]
                factor = calibrate.scale(samples)
                it.ref_wall += wall * (1.0 - stolen) * factor
                it.ref_cpu += cpu * factor
                it.stolen += wall * stolen
                it.samples += samples
        for job, result in results:
            self._verify(it, job, result)
        return it

    def _verify(self, it: Iteration, job, result) -> None:
        import gate

        if isinstance(result, Exception):
            it.outputs += 1
            it.verdicts.append(gate.Verdict(f"{job.kind} {job.prefix}", float("inf"), True,
                                            f"{type(result).__name__}: {result}"))
            return
        if job.kind == "validate":
            rows = gate.parse_validate(*result)
            it.outputs += len(rows)
            it.verdicts.extend(rows)
            return
        for manifest in result:
            for t_key, entry in manifest["files"].items():
                name = entry["file"]
                path = self.out_dir / name
                prefix, tag = name[:-len(".csv")].rsplit("_t", 1)
                it.outputs += 1
                it.routes[ROUTES.get(entry["solver"], entry["solver"])] += 1
                it.csv_bytes += path.stat().st_size
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                if name in self.hashes:
                    if digest != self.hashes[name]:
                        it.verdicts.append(gate.Verdict(name, float("inf"), True,
                                                        "output differs from the first iteration"))
                    continue
                self.hashes[name] = digest
                scenario = self.scenarios[prefix]
                ref = gate.reference_for(self.reference, job.reference or prefix, tag, scenario.grid)
                it.verdicts.extend(gate.check_snapshot(path, scenario, float(t_key), entry["solver"], ref))

    def measure(self, seconds: float, tracer=None) -> list:
        """Repeat the job list until ``seconds`` of timed work have passed.

        Untraced, the calibration sampler runs throughout.
        """
        import calibrate

        iterations = []
        with contextlib.nullcontext() if tracer is not None else calibrate.Sampler() as sampler:
            while not iterations or sum(i.wall for i in iterations) < seconds:
                iterations.append(self.iterate(len(iterations), tracer, sampler))
        return iterations


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(setup: list, iterations: list) -> dict:
    """Timings in reference seconds, medians over the set-up probes and the passes."""
    import gate

    wall = statistics.median(i.ref_wall for i in iterations)
    return {
        "setup_s": statistics.median(reference for _, reference in setup),
        "wall_s": wall,
        "cpu_s": statistics.median(i.ref_cpu for i in iterations),
        "snapshots_per_s": statistics.median(i.outputs for i in iterations) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "err_margin": gate.err_margin(v for i in iterations for v in i.verdicts),
    }


def per_layer(jobs, tracer, plain: list, traced: list) -> dict:
    import tracer as tracing
    from oqbm import validate

    threads = max(job.threads for job in jobs)
    level = next((job.arg for job in jobs if job.kind == "validate"), "full")
    names = [fn.__name__[len("check_"):] for fn in validate.FULL_CHECKS]
    checks = [fn.__name__[len("check_"):] for fn in
              (validate.FAST_CHECKS if level == "fast" else validate.FULL_CHECKS)]
    results = dict(tracer.returns.get("validate.run_checks", []))
    rows = []
    for it_index, it in enumerate(traced):
        spans = [s for s in tracer.spans if s.iteration == it_index]
        row = tracing.layer_metrics(spans, it.wall, threads)
        row["cli.csv.bytes"] = float(it.csv_bytes)
        for route in ROUTES.values():
            row[f"cli.route.{route}.count"] = float(it.routes[route])
        for name in names:
            row[f"validate.{name}.s"] = row[f"validate.{name}.margin"] = 0.0
        for name, check in zip(checks, results.get(it_index, [])):
            row[f"validate.{name}.s"] = check.seconds
            row[f"validate.{name}.margin"] = check.max_err / check.tol
        rows.append(row)
    out = {key: statistics.fmean(row[key] for row in rows) for key in rows[0]}
    out["trace.overhead_s"] = (statistics.fmean(i.wall for i in traced)
                               - statistics.fmean(i.wall for i in plain))
    return out


def write_spans(path: Path, info: dict, tracer) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    spans = [s._asdict() for s in tracer.spans]
    with open(path, "w") as fh:
        json.dump({"run": info, "spans": spans}, fh)
        fh.write("\n")


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "git_sha": _git_sha(),
    }


def _git_sha() -> str:
    """Commit of the checkout, read from .git without running git; "unknown" outside a repo."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def run_workload(args, spec: dict) -> tuple:
    import calibrate
    import gate
    import workloads
    from oqbm import cli

    before, after = (1, 0) if args.smoke else SETUP_PROBES
    setup = measure_setup(args, before)
    jobs = workloads.jobs(args.workload, args.seed, args.smoke)
    scenarios = {prefix: cli.build_scenario(config)
                 for job in jobs for prefix, config in workloads.job_configs(job).items()}
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="run-") as tmp:
        runner = Runner(jobs, scenarios, gate.load_reference(), Path(tmp))
        plain = runner.measure(args.seconds)
        setup += measure_setup(args, after)
        values = end_to_end(setup, plain)
        traced = []
        if args.trace:
            import tracer as tracing

            tracer = tracing.Tracer()
            restore = tracing.install(tracer)
            try:
                traced = runner.measure(args.seconds, tracer)
            finally:
                restore()
            values.update(per_layer(jobs, tracer, plain, traced))
    verdicts = [v for it in plain + traced for v in it.verdicts]
    attempted = sum(it.outputs for it in plain + traced)
    failed_names = [{v.name for v in it.verdicts if v.failed} for it in plain + traced]
    failed = sum(len(names) for names in failed_names)
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "iterations": len(plain), "traced_iterations": len(traced),
        "failed_frac": failed / attempted,
        "measured_s": {"setup_probes": [measured for measured, _ in setup],
                       "setup": statistics.median(measured for measured, _ in setup),
                       "wall": statistics.median(i.wall for i in plain),
                       "cpu": statistics.median(i.cpu for i in plain),
                       "stolen": statistics.median(i.stolen for i in plain)},
        "passes_s": [{"wall": i.wall, "stolen": i.stolen, "reference_wall": i.ref_wall} for i in plain],
        "kernel_s": calibrate.slowness([x for i in plain for x in i.samples]),
        "failures": [f"{v.name}: {v.detail} (margin {v.margin:.3g})" for v in verdicts if v.failed][:20],
        "env": environment(),
    }
    if args.trace:
        info["spans_file"] = str((OUT / f"spans-{args.workload}-seed{args.seed}.json").relative_to(ROOT))
        write_spans(ROOT / info["spans_file"], info, tracer)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"benchmark computed no value for {missing}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    return info, result


def run_all(args) -> int:
    """Every workload in its own fresh process, with a table per workload."""
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd + (["--smoke"] if args.smoke else []), capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
            result["correct"]
        except (IndexError, ValueError, KeyError, TypeError):
            print(f"{workload}: exit {done.returncode}, no result\n{done.stderr}", file=sys.stderr)
            return 2
        print(f"== {workload}  correct={result['correct']}  "
              f"failed={result['failed']}/{result['attempted']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:<44} {metric['value']:>14.6g}  {metric['unit']}")
        status = max(status, done.returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed work per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="seconds-long variant of every workload")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "oqbm" / "__init__.py").is_file():
        print(f"error: no oqbm package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    if args.probe_setup:
        print(json.dumps(probe_setup(args.workload, args.seed, args.smoke)))
        return 0
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload == "all":
        return run_all(args)
    info, result = run_workload(args, spec)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
