"""Command-line front end: solve a configured scenario, reproduce the built-in
figure datasets, or run the cross-validation suite.

    oqbm solve --config run.json --out results/
    oqbm figure --figure fig4 --out results/
    oqbm validate --level fast

Configs are flat JSON.  Outputs are one CSV per snapshot (columns t, x, P, Q,
C_R, C_I, rho11, rho22; 17 significant digits, LF line endings) plus a
run_manifest.json capturing every number needed to re-run; no two snapshot
times may share a file name.  An explicit half_width must cover the initial
tails plus the drift and diffusion reach (core.reach) at the last time; a
grid, explicit or planned, that cannot resolve the solution at the earliest
time (core.check_resolution) is refused before it is allocated.  Config
files are UTF-8 JSON whose values must be JSON numbers within the float
range, not booleans or strings; a key that is neither a RUN_KEYS entry nor a
field of the chosen shape is refused, and an explicit n_points may not exceed
core.MAX_POINTS.  The default output directory comes
from $OQBM_OUT_DIR, falling back to the current directory.  choose_route
fixes each scenario's t > 0 route before any CSV: gamma_z = 0 takes its closed
form only under ``method: "closed"``, and that method with no closed form is refused.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import numbers
import os
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__, delta0, gammaz0, omega0, spectral, validate as validate_mod
from .core import (
    MAX_POINTS,
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
    check_resolution,
    grid_spacing,
    plan_size,
    reach,
    sample_initial,
    tail_half_width,
)
from .errors import ConfigError, DomainTooNarrow, NonFinite, OqbmError, UnknownFigure

CSV_HEADER = "t,x,P,Q,C_R,C_I,rho11,rho22"

# config "ic" kind -> initial shape; the shape's fields are its config keys
SHAPES = {
    "gaussian_mixture": GaussianMixture,
    "gaussian_coherent": GaussianCoherent,
    "laplace_mixture": LaplaceMixture,
    "uniform_mixture": UniformMixture,
    "laplace_coherent": LaplaceCoherent,
}
# the keys every config may set besides its shape's
RUN_KEYS = ("gamma_p", "gamma_z", "delta", "omega", "ic", "times", "half_width", "n_points", "method")


@dataclass(frozen=True)
class Scenario:
    params: Params
    ic: InitialCondition
    times: tuple
    grid: SpatialGrid
    method: str  # "auto" | "closed" | "spectral"
    route: str   # choose_route: the solver of every t > 0 snapshot


def _need(config: dict, key: str):
    if key not in config:
        raise ConfigError(f"config is missing required key {key!r}")
    return config[key]


def _number(key: str, value) -> float:
    """``value`` as a float if it is a JSON number (not a boolean, not a
    string), or a ConfigError that names ``key``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # a JSON integer beyond the float range
        raise ConfigError(f"{key} must be a finite number, got one beyond the float range") from None


def _shape_keys(shape: type) -> list:
    """A shape's config keys: its dataclass fields, less the Laplace-coherent
    scale, which ``for_params`` sets to delta/omega."""
    return [f.name for f in fields(shape) if (shape, f.name) != (LaplaceCoherent, "scale")]


def build_initial(config: dict, params: Params) -> InitialCondition:
    kind = _need(config, "ic")
    if not isinstance(kind, str) or kind not in SHAPES:
        raise ConfigError(f"unknown initial condition kind {kind!r}; choose from {sorted(SHAPES)}")
    shape = SHAPES[kind]
    values = {key: _number(key, _need(config, key)) for key in _shape_keys(shape)}
    try:
        if shape is LaplaceCoherent:
            return LaplaceCoherent.for_params(params=params, **values)
        return shape(**values)
    except (ValueError, NonFinite) as exc:
        raise ConfigError(f"invalid initial condition parameters: {exc}") from exc


def build_scenario(config: dict) -> Scenario:
    if not isinstance(config, dict):
        raise ConfigError(f"a config must be a JSON object, got {type(config).__name__}")
    try:
        params = Params(
            gamma_p=_number("gamma_p", _need(config, "gamma_p")),
            gamma_z=_number("gamma_z", config.get("gamma_z", 0.0)),
            delta=_number("delta", config.get("delta", 0.0)),
            omega=_number("omega", config.get("omega", 0.0)),
        )
    except OqbmError as exc:
        raise ConfigError(f"invalid parameters: {exc}") from exc
    ic = build_initial(config, params)
    unknown = sorted(set(config) - set(RUN_KEYS) - set(_shape_keys(type(ic))))
    if unknown:
        raise ConfigError(f"unknown config keys {unknown} for ic {config['ic']!r}")
    times = _need(config, "times")
    if not isinstance(times, (list, tuple)):
        raise ConfigError(f"times must be a list of numbers, got {times!r}")
    # json reads NaN and Infinity, which every comparison below would let through
    times = tuple(_number(f"times[{i}]", t) for i, t in enumerate(times))
    if not times or not all(0.0 <= t < math.inf for t in times):
        raise ConfigError(f"times must be a non-empty list of finite t >= 0, got {list(times)}")
    tags = [_time_tag(t) for t in times]
    clash = [t for t, tag in zip(times, tags) if tags.count(tag) > 1]
    if clash:
        raise ConfigError(f"times {clash} share snapshot file names, e.g. *_t{_time_tag(clash[0])}.csv")
    method = config.get("method", "auto")
    if method not in ("auto", "closed", "spectral"):
        raise ConfigError(f"method must be auto|closed|spectral, got {method!r}")
    route = choose_route(params, ic, method)
    if "half_width" in config or "n_points" in config:
        n_points = _number("n_points", _need(config, "n_points"))
        if not (n_points.is_integer() and n_points <= MAX_POINTS):
            raise ConfigError(f"n_points must be a whole number <= {MAX_POINTS}, got {n_points!r}")
        half_width, n_points = _number("half_width", _need(config, "half_width")), int(n_points)
        try:
            dx = grid_spacing(half_width, n_points)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        need = tail_half_width(ic) + reach(params, max(times))
        if half_width < need:
            raise DomainTooNarrow(
                f"half_width {half_width:g} is narrower than the initial tails plus "
                f"drift and diffusion reach by t = {max(times):g}; it needs half_width >= {need:.6g}"
            )
    else:
        half_width, n_points = plan_size(ic, params, t_max=max(times))
        dx = grid_spacing(half_width, n_points)
    # every grid rule is checked before SpatialGrid allocates its node arrays
    check_resolution(dx, ic.min_feature(), params, min(times))
    return Scenario(params=params, ic=ic, times=times, grid=SpatialGrid(half_width, n_points),
                    method=method, route=route)


def classify_regime(p: Params) -> str:
    """The one rate that is exactly 0.0 (the closed forms' own rule), else "general"."""
    zeros = [name for name, v in (("omega", p.omega), ("delta", p.delta), ("gamma_z", p.gamma_z))
             if v == 0.0]
    return zeros[0] if len(zeros) == 1 else "general"


def choose_route(p: Params, ic: InitialCondition, method: str) -> str:
    """The solver of every t > 0 snapshot: "closed[<regime>]" or "spectral".

    The gamma_z = 0 closed form gives the spectral field to about 4e-11 at
    about 12 times its cost, so only ``method: "closed"`` takes it; that
    method with no closed form for the regime and shape is a ConfigError.
    """
    regime = classify_regime(p)
    if method != "spectral" and not isinstance(ic, Custom):
        if regime in ("omega", "delta") or (
                regime == "gamma_z" and method == "closed" and isinstance(ic, LaplaceCoherent)):
            return f"closed[{regime}]"
    if method == "closed":
        raise ConfigError(f"no closed-form solver for regime {regime!r} with this initial condition")
    return "spectral"


def solve_snapshot(scenario: Scenario, t: float) -> tuple:
    """(solver name, BlochField) for one snapshot time, on the scenario's route."""
    if t == 0.0:
        return "initial", sample_initial(scenario.ic, scenario.grid)
    solver = {"closed[omega]": omega0.solve, "closed[delta]": delta0.solve,
              "closed[gamma_z]": gammaz0.solve_laplace_coherent, "spectral": spectral.solve}
    return scenario.route, solver[scenario.route](scenario.params, scenario.ic, t, scenario.grid)


def _format(v: float) -> str:
    return format(float(v), ".17g")


def write_snapshot_csv(path: Path, field: BlochField) -> None:
    cols = (
        field.grid.nodes, field.rho_plus, field.rho_minus, field.c_r, field.c_i,
        field.rho11, field.rho22,
    )
    # "%.17g" % v and format(v, ".17g") give the same bytes; one template per
    # row formats the whole table in one pass
    row = _format(field.time) + ",%.17g" * len(cols) + "\n"
    table = np.column_stack(cols).tolist()
    with open(path, "w", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n" + "".join([row % tuple(r) for r in table]))


def _ic_manifest(ic: InitialCondition) -> dict:
    return {"kind": type(ic).__name__, **asdict(ic)}


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
# fig4 shows P and fig5 shows Q of the same two driven runs
_DRIVEN_CONFIGS = {
    "left": {**_DRIVEN_RATES, "ic": "laplace_coherent", "p": 0.25, "r": 0.0, "q": 0.0,
             "times": _DRIVEN_TIMES, "half_width": 224.0, "n_points": 8192},
    "right": {**_DRIVEN_RATES, "ic": "laplace_coherent", "p": 0.25, "r": 0.0, "q": -0.5,
              "times": _DRIVEN_TIMES, "half_width": 224.0, "n_points": 8192},
}

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
    "fig4": {"panels": {"left": "P", "right": "P"}, "configs": _DRIVEN_CONFIGS},
    "fig5": {"panels": {"left": "Q", "right": "Q"}, "configs": _DRIVEN_CONFIGS},
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
            # JSON text is UTF-8 whatever the locale; ValueError covers bytes that
            # are not UTF-8, text that is not JSON and integers of over 4300 digits
            try:
                with open(args.config, encoding="utf-8") as fh:
                    config = json.load(fh)
            except ValueError as exc:
                raise ConfigError(f"config {args.config} is not valid JSON: {exc}") from exc
            run_solve(config, _default_out_dir(args.out), threads=args.threads)
            return 0
        if args.command == "figure":
            run_figure(args.figure, _default_out_dir(args.out), threads=args.threads)
            return 0
        return run_validate(args.level)
    except (OqbmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
