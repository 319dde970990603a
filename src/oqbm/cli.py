"""Command-line front end: solve a configured scenario, reproduce the built-in
figure datasets, or run the cross-validation suite.

    oqbm solve --config run.json --out results/
    oqbm figure --figure fig4 --out results/
    oqbm validate --level fast

Configs are flat JSON.  Outputs are one CSV per snapshot (columns t, x, P, Q,
C_R, C_I, rho11, rho22; 17 significant digits, LF line endings) plus a
run_manifest.json capturing every number needed to re-run.  The default
output directory comes from $OQBM_OUT_DIR, falling back to the current
directory.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__, delta0, gammaz0, omega0, spectral, validate as validate_mod
from .core import (
    BlochField,
    Custom,
    GaussianCoherent,
    GaussianMixture,
    InitialCondition,
    LaplaceCoherent,
    LaplaceMixture,
    Params,
    SpatialGrid,
    UniformMixture,
    check_tail,
    from_bloch,
    plan_grid,
    sample_initial,
    to_bloch,
    validate_params,
)
from .errors import ConfigError, OqbmError, UnknownFigure

CSV_HEADER = "t,x,P,Q,C_R,C_I,rho11,rho22"


@dataclass(frozen=True)
class Scenario:
    params: Params
    ic: InitialCondition
    times: tuple
    grid: SpatialGrid
    eps_tail: float
    method: str  # "auto" | "closed" | "spectral"


def _need(config: dict, key: str):
    if key not in config:
        raise ConfigError(f"config is missing required key {key!r}")
    return config[key]


def build_initial(config: dict, params: Params) -> InitialCondition:
    kind = _need(config, "ic")
    try:
        if kind == "gaussian_mixture":
            return GaussianMixture(p=_need(config, "p"), sigma1=_need(config, "sigma1"),
                                   sigma2=_need(config, "sigma2"))
        if kind == "gaussian_coherent":
            return GaussianCoherent(p=_need(config, "p"), mu=_need(config, "mu"),
                                    k=_need(config, "k"), sigma=_need(config, "sigma"))
        if kind == "laplace_mixture":
            return LaplaceMixture(p=_need(config, "p"), a=_need(config, "a"), b=_need(config, "b"))
        if kind == "uniform_mixture":
            return UniformMixture(p=_need(config, "p"), a=_need(config, "a"), b=_need(config, "b"))
        if kind == "laplace_coherent":
            return LaplaceCoherent.for_params(p=_need(config, "p"), r=_need(config, "r"),
                                              q=_need(config, "q"), params=params)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid initial condition parameters: {exc}") from exc
    raise ConfigError(f"unknown initial condition kind {kind!r}")


def build_scenario(config: dict) -> Scenario:
    try:
        params = validate_params(Params(
            gamma_p=float(_need(config, "gamma_p")),
            gamma_z=float(config.get("gamma_z", 0.0)),
            delta=float(config.get("delta", 0.0)),
            omega=float(config.get("omega", 0.0)),
        ))
    except OqbmError as exc:
        raise ConfigError(f"invalid parameters: {exc}") from exc
    ic = build_initial(config, params)
    # json reads NaN and Infinity, which every comparison below would let through
    times = tuple(float(t) for t in _need(config, "times"))
    if not times or not all(0.0 <= t < math.inf for t in times):
        raise ConfigError(f"times must be a non-empty list of finite t >= 0, got {list(times)}")
    eps_tail = float(config.get("eps_tail", 1e-8))
    if not 0.0 < eps_tail < math.inf:
        raise ConfigError(f"eps_tail must be finite and > 0, got {eps_tail}")
    if "half_width" in config or "n_points" in config:
        try:
            grid = SpatialGrid(float(_need(config, "half_width")), int(_need(config, "n_points")))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    else:
        grid = plan_grid(ic, params, t_max=max(times), eps_tail=eps_tail)
    check_tail(ic, grid.half_width, eps_tail)
    method = config.get("method", "auto")
    if method not in ("auto", "closed", "spectral"):
        raise ConfigError(f"method must be auto|closed|spectral, got {method!r}")
    return Scenario(params=params, ic=ic, times=times, grid=grid, eps_tail=eps_tail, method=method)


def classify_regime(p: Params) -> str:
    """The one rate that is exactly 0.0 (the closed forms' own rule), else "general"."""
    zeros = [name for name, v in (("omega", p.omega), ("delta", p.delta), ("gamma_z", p.gamma_z))
             if v == 0.0]
    if len(zeros) == 1:
        return zeros[0]
    return "general"


def _closed_solver(regime: str, scenario: Scenario):
    """The closed-form route for the regime, or None when not applicable."""
    p, ic = scenario.params, scenario.ic
    if regime == "omega" and not isinstance(ic, Custom):
        return lambda t: omega0.solve(p, ic, t, scenario.grid)
    if regime == "delta" and not isinstance(ic, Custom):
        return lambda t: delta0.solve(p, ic, t, scenario.grid)
    if regime == "gamma_z" and isinstance(ic, LaplaceCoherent):
        return lambda t: gammaz0.solve_laplace_coherent(p, ic, t, scenario.grid)
    return None


def solve_snapshot(scenario: Scenario, t: float) -> tuple:
    """(solver name, BlochField) for one snapshot time."""
    regime = classify_regime(scenario.params)
    if t == 0.0:
        return "initial", to_bloch(sample_initial(scenario.ic, scenario.grid, scenario.eps_tail))
    closed = _closed_solver(regime, scenario) if scenario.method in ("auto", "closed") else None
    if scenario.method == "closed" and closed is None:
        raise ConfigError(f"no closed-form solver for regime {regime!r} with this initial condition")
    if closed is not None:
        return f"closed[{regime}]", closed(t)
    return "spectral", spectral.solve(scenario.params, scenario.ic, t, scenario.grid)


def _format(v: float) -> str:
    return format(float(v), ".17g")


def write_snapshot_csv(path: Path, field: BlochField) -> None:
    d = from_bloch(field)
    x = field.grid.nodes
    cols = (
        field.rho_plus, field.rho_minus, field.c_r, field.c_i,
        np.real(d.rho11), np.real(d.rho22),
    )
    t_str = _format(field.time)
    with open(path, "w", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for i in range(x.size):
            row = [t_str, _format(x[i])] + [_format(c[i]) for c in cols]
            fh.write(",".join(row) + "\n")


def _ic_manifest(ic: InitialCondition) -> dict:
    out = {"kind": type(ic).__name__}
    out.update({k: v for k, v in asdict(ic).items() if not isinstance(v, dict)})
    return out


def _grid_manifest(grid: SpatialGrid) -> dict:
    return {"half_width": grid.half_width, "n_points": grid.n_points, "dx": grid.dx}


def run_solve(config: dict, out_dir: Path, threads: int = 0, prefix: str = "snapshot") -> dict:
    """Solve all snapshots of a configured scenario and write CSV + manifest."""
    scenario = build_scenario(config)
    out_dir.mkdir(parents=True, exist_ok=True)

    def compute(t: float):
        solver, field = solve_snapshot(scenario, t)
        name = f"{prefix}_t{_time_tag(t)}.csv"
        write_snapshot_csv(out_dir / name, field)
        return t, solver, name

    results = _map_maybe_parallel(compute, scenario.times, threads)
    manifest = {
        "package_version": __version__,
        "params": asdict(scenario.params),
        "initial_condition": _ic_manifest(scenario.ic),
        "grid": _grid_manifest(scenario.grid),
        "times": list(scenario.times),
        "regime": classify_regime(scenario.params),
        "method": scenario.method,
        "eps_tail": scenario.eps_tail,
        "quadrature_tol": gammaz0.QUAD_TOL,
        "csv_columns": CSV_HEADER.split(","),
        "files": {_format(t): {"file": name, "solver": solver} for t, solver, name in results},
    }
    with open(out_dir / f"{prefix}_manifest.json", "w", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def _time_tag(t: float) -> str:
    tag = format(float(t), "g")
    return tag.replace(".", "p").replace("-", "m")


def _map_maybe_parallel(fn, items, threads: int):
    if threads == 0:
        threads = min(len(items), os.cpu_count() or 1, 8)
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# Built-in figure scenarios
# ---------------------------------------------------------------------------

_MIXTURE_RATES = {"gamma_p": 1e-3, "gamma_z": 1e-3, "delta": 1e-2, "omega": 0.0}
_DRIVEN_RATES = {"gamma_p": 1e-2, "gamma_z": 0.0, "delta": 1e-1, "omega": 1e-2}
_DAMPED_RATES = {"gamma_p": 1e-3, "gamma_z": 1e-3, "delta": 0.0, "omega": 1e-2}
_MIXTURE_TIMES = [0.0, 50.0, 100.0, 150.0, 200.0]
_DRIVEN_TIMES = [0.0, 25.0, 50.0, 75.0, 100.0]

FIGURES = {
    "fig1": {
        "panels": {"left": "P", "right": "Q"},
        "configs": {"": {**_MIXTURE_RATES, "ic": "gaussian_mixture",
                         "p": 0.75, "sigma1": 1.0, "sigma2": 2.0, "times": _MIXTURE_TIMES,
                         "half_width": 24.0, "n_points": 4096}},
    },
    "fig2": {
        "panels": {"left": "P", "right": "Q"},
        "configs": {"": {**_MIXTURE_RATES, "ic": "laplace_mixture",
                         "p": 0.25, "a": 1.0, "b": 2.0, "times": _MIXTURE_TIMES,
                         "half_width": 64.0, "n_points": 4096}},
    },
    "fig3": {
        "panels": {"left": "P", "right": "Q"},
        # dyadic spacing puts the plateau edges x = +-3, +-2 exactly on nodes
        "configs": {"": {**_MIXTURE_RATES, "ic": "uniform_mixture",
                         "p": 0.75, "a": 3.0, "b": 2.0, "times": _MIXTURE_TIMES,
                         "half_width": 16.0, "n_points": 2048}},
    },
    "fig4": {
        "panels": {"left": "P", "right": "P"},
        "configs": {
            "left": {**_DRIVEN_RATES, "ic": "laplace_coherent",
                     "p": 0.25, "r": 0.0, "q": 0.0, "times": _DRIVEN_TIMES,
                     "half_width": 224.0, "n_points": 8192},
            "right": {**_DRIVEN_RATES, "ic": "laplace_coherent",
                      "p": 0.25, "r": 0.0, "q": -0.5, "times": _DRIVEN_TIMES,
                      "half_width": 224.0, "n_points": 8192},
        },
    },
    "fig5": {
        "panels": {"left": "Q", "right": "Q"},
        "configs": {
            "left": {**_DRIVEN_RATES, "ic": "laplace_coherent",
                     "p": 0.25, "r": 0.0, "q": 0.0, "times": _DRIVEN_TIMES,
                     "half_width": 224.0, "n_points": 8192},
            "right": {**_DRIVEN_RATES, "ic": "laplace_coherent",
                      "p": 0.25, "r": 0.0, "q": -0.5, "times": _DRIVEN_TIMES,
                      "half_width": 224.0, "n_points": 8192},
        },
    },
    "fig6": {
        "panels": {"left": "Q", "right": "Q"},
        "configs": {
            "left": {**_DAMPED_RATES, "ic": "gaussian_mixture",
                     "p": 0.75, "sigma1": 2.0, "sigma2": 1.0, "times": _MIXTURE_TIMES,
                     "half_width": 32.0, "n_points": 2048},
            "right": {**_DAMPED_RATES, "ic": "gaussian_coherent",
                      "p": 0.75, "mu": 0.8, "k": 1.0, "sigma": 1.0, "times": _MIXTURE_TIMES,
                      "half_width": 32.0, "n_points": 2048},
        },
    },
}


def run_figure(name: str, out_dir: Path, threads: int = 0) -> dict:
    """Reproduce one built-in figure dataset; returns the combined manifest."""
    if name not in FIGURES:
        raise UnknownFigure(f"unknown figure {name!r}; choose from {sorted(FIGURES)}")
    spec = FIGURES[name]
    manifests = {}
    for panel, config in spec["configs"].items():
        prefix = name if panel == "" else f"{name}_{panel}"
        manifests[panel or "both"] = run_solve(dict(config), out_dir, threads, prefix=prefix)
    combined = {
        "figure": name,
        "panel_quantity": spec["panels"],
        "runs": manifests,
    }
    with open(out_dir / f"{name}_manifest.json", "w", newline="\n") as fh:
        json.dump(combined, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return combined


def run_validate(level: str, stream=None) -> int:
    """Print the cross-validation table; exit code 0 iff everything passed."""
    stream = stream if stream is not None else sys.stdout
    results = validate_mod.run_checks(level)
    width = max(len(r.name) for r in results)
    all_ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        all_ok &= r.passed
        stream.write(
            f"{status}  {r.name:<{width}}  max_err={r.max_err:10.3e}  tol={r.tol:8.1e}  {r.seconds:6.2f}s\n"
        )
    stream.write(("all checks passed" if all_ok else "SOME CHECKS FAILED") + "\n")
    return 0 if all_ok else 1


def _default_out_dir(value: Optional[str]) -> Path:
    if value:
        return Path(value)
    return Path(os.environ.get("OQBM_OUT_DIR", "."))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="oqbm", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a configured scenario")
    p_solve.add_argument("--config", required=True, help="path to a flat JSON config")
    p_solve.add_argument("--out", default=None, help="output directory (default $OQBM_OUT_DIR)")
    p_solve.add_argument("--threads", type=int, default=0, help="worker threads, 0 = auto")

    p_fig = sub.add_parser("figure", help="reproduce a built-in figure dataset")
    p_fig.add_argument("--figure", required=True, help="fig1..fig6")
    p_fig.add_argument("--out", default=None)
    p_fig.add_argument("--threads", type=int, default=0)

    p_val = sub.add_parser("validate", help="run the cross-validation suite")
    p_val.add_argument("--level", choices=("fast", "full"), default="fast")

    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            with open(args.config) as fh:
                config = json.load(fh)
            run_solve(config, _default_out_dir(args.out), threads=args.threads)
            return 0
        if args.command == "figure":
            run_figure(args.figure, _default_out_dir(args.out), threads=args.threads)
            return 0
        return run_validate(args.level)
    except (OqbmError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
