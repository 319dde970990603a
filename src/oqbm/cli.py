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
import functools
import json
import math
import numbers
import os
import sys
import threading
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


# format(v, ".17g") of whole arrays.  Each value is laid out in a row of
# _SRC_WIDTH bytes (its digits once as they are and once less trailing
# zeros, its sign, point and exponent), and its text is gathered from that row
# into a slot of _SLOT bytes, "," and then the text, padded with NUL bytes
# that are dropped from the finished CSV rows.  Byte offsets in the row:
_COMMA, _SIGN, _ZERO, _RAW = 0, 1, 2, 3  # "," sign "0" and the 17 digits at 3..19
_POINT, _PAD, _STRIPPED, _EXP = 20, 21, 23, 40  # "." or NUL; 17 digits at 23..39; "e+XX"
_SRC_WIDTH = 48
_SLOT = 25
_POW_MIN, _POW_MAX = -290, 300  # exponents of the 10^k table
_FAST_MIN, _FAST_MAX = 1e-280, 1e280  # |v| of the fast path, besides 0
_TIE_GAP = 1e-6
_ROWS_PER_CHUNK = 1024
_LINE = 8 * _SLOT + 1  # a CSV row before its NUL bytes go: t's slot, seven fields, "\n"


def _split(x: np.ndarray) -> tuple:
    """Veltkamp's split: x = hi + lo exactly, each half with at most 26 bits."""
    c = 134217729.0 * x
    hi = c - (c - x)
    return hi, x - hi


@functools.cache
def _g17_tables() -> tuple:
    """Tables of :func:`_format_g17`, built from exact integers on first use.

    10^k = hi + lo to 2^-106 relative for k from _POW_MIN, with hi also
    split; the 4-digit ASCII chunks 0000..9999 as little-endian words, and
    each chunk's significant length (-99 for 0000); word masks that keep the
    first j - 1 of the digits d1..d16; the suffix "e+XX" of each exponent
    from _POW_MIN as an 8-byte word; and the row offsets of each slot's bytes,
    for fixed X = -4..16 and then for the exponent form.
    """
    from fractions import Fraction  # imports decimal: a cost only CSV writing pays

    exact = [Fraction(10) ** k for k in range(_POW_MIN, _POW_MAX + 1)]
    hi = [float(x) for x in exact]
    lo = np.array([float(x - Fraction(h)) for x, h in zip(exact, hi)])
    hi = np.array(hi)
    text = [f"{i:04d}" for i in range(10000)]
    chunks = np.frombuffer("".join(text).encode(), "<u4")
    length = np.array([len(s.rstrip("0")) if i else -99 for i, s in enumerate(text)], np.int8)
    keep = np.where(np.arange(16) < np.arange(-1, 17)[:, None], 0xFF, 0).astype(np.uint8)
    exps = np.frombuffer(b"".join(f"e{x:+03d}".encode().ljust(8, b"\0")
                                  for x in range(_POW_MIN, _POW_MAX + 1)), "<u8")
    raw = range(_RAW, _RAW + 17)
    stripped = range(_STRIPPED, _STRIPPED + 17)
    layouts = [[_ZERO, _POINT] + [_ZERO] * (-x - 1) + list(stripped) if x < 0
               else list(raw[:x + 1]) + [_POINT] + list(stripped[x + 1:]) for x in range(-4, 17)]
    layouts.append([raw[0], _POINT] + list(stripped[1:]) + list(range(_EXP, _EXP + 5)))
    slots = np.array([[_COMMA, _SIGN] + lay + [_PAD] * (_SLOT - 2 - len(lay)) for lay in layouts],
                     np.intp)
    return hi, lo, *_split(hi), chunks, length, keep.view("<u4"), exps, slots


def _below_pow10(a: np.ndarray, k: np.ndarray, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """a < 10^k exactly, for doubles a, from the double-double table."""
    h, low = hi[k - _POW_MIN], lo[k - _POW_MIN]
    return (a < h) | ((a == h) & (low > 0.0))


class _Scratch:
    """Working memory of :func:`_format_g17` for up to ``size`` values (the
    source rows, the gather index at 200 bytes a value, the slots), and of
    :func:`write_snapshot_csv` for ``rows`` rows; reused chunk after chunk."""

    def __init__(self, size: int, rows: int = 0):
        self.src = np.empty((size, _SRC_WIDTH // 4), "<u4")
        self.index = np.empty((size, _SLOT), np.intp)
        self.offsets = _SRC_WIDTH * np.arange(size)[:, None]  # each value's row in src
        self.out = np.empty((size, _SLOT), np.uint8)
        self.block = np.empty((rows, 6))  # P, Q, C_R, C_I, rho11, rho22
        self.lines = np.empty((rows, _LINE), np.uint8)
        self.lines[:, -1] = ord("\n")


_SCRATCH = threading.local()  # each thread's _Scratch, made by its first CSV write


def _format_g17(values: np.ndarray, work: Optional[_Scratch] = None) -> np.ndarray:
    """The bytes "," + format(v, ".17g") of each value, as (n, _SLOT) uint8
    rows padded with NUL bytes; they live in ``work`` if it is given, else
    in fresh memory.

    For 0 and 1e-280 <= |v| <= 1e280: the exact decimal exponent X of |v|
    comes from comparisons with the double-double 10^X; Dekker's exact
    two-product forms V = |v| 10^(16 - X) in [1e16, 1e17) as s + t with
    absolute error below 5e-15 (2^-106 V from the table, two roundings of
    terms below 32); its nearest integer N holds the 17 significant digits.
    N is exact unless V's fraction is within _TIE_GAP of 1/2, where the
    error could flip the rounding and true ties round half-even.  Those
    values, and non-finite ones and |v| outside that range, are formatted
    one at a time by ``format`` itself.
    """
    hi, lo, hi_hi, hi_lo, chunks, length, keep, exps, slots = _g17_tables()
    v = np.ravel(values)
    work = work if work is not None else _Scratch(v.size)
    a = np.abs(v)
    zero = a == 0.0
    fast = zero | ((a >= _FAST_MIN) & (a <= _FAST_MAX))
    a = np.where(fast & ~zero, a, 1.0)  # no log10(0) or cast of NaN below
    x = np.floor(np.log10(a)).astype(np.intp)
    x -= _below_pow10(a, x, hi, lo)
    x += ~_below_pow10(a, x + 1, hi, lo)
    k = 16 - x - _POW_MIN
    a_hi, a_lo = _split(a)
    p = a * hi[k]
    q = (((a_hi * hi_hi[k] - p) + a_hi * hi_lo[k] + a_lo * hi_hi[k]) + a_lo * hi_lo[k]) + a * lo[k]
    s = p + q
    t = q - (s - p)
    whole = np.floor(t)
    frac = t - whole
    n = s.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = n == 10**17  # 9.99..95e(X) rounds up to 1e(X+1)
    n = np.where(zero, 0, np.where(carry, 10**16, n))
    x += carry
    slow = np.flatnonzero(~fast | (np.abs(frac - 0.5) < _TIE_GAP))

    top, low8 = np.divmod(n, 10**8)
    lead, mid8 = np.divmod(top, 10**8)
    c1, c2 = np.divmod(mid8, 10**4)
    c3, c4 = np.divmod(low8, 10**4)
    n_digits = np.maximum(np.maximum(np.maximum(1 + length[c1], 5 + length[c2]),
                                     np.maximum(9 + length[c3], 13 + length[c4])), 1)
    fixed = (x >= -4) & (x < 17)  # format's "g" rule at precision 17
    # the row as little-endian words: byte 3 of words 0 and 5 is the first digit
    first = (lead.astype("<u4") + ord("0")) << 24
    src = work.src[:v.size]
    src[:, 0] = ord(",") | np.where(np.signbit(v), ord("-") << 8, 0) | ord("0") << 16 | first
    src[:, 1:5] = np.column_stack([chunks[c1], chunks[c2], chunks[c3], chunks[c4]])
    src[:, 5] = np.where(n_digits > np.where(fixed, x, 0) + 1, ord("."), 0) | first
    src[:, 6:10] = src[:, 1:5] & keep[n_digits]
    src.view("<u8")[:, _EXP // 8] = exps[np.where(fixed, 0, x) - _POW_MIN]
    # the last layout is the exponent form; every index is in range, so "clip"
    # only spares np.take the copy it makes of ``out`` under mode="raise"
    index = np.take(slots, np.where(fixed, x + 4, len(slots) - 1), axis=0, mode="clip",
                    out=work.index[:v.size])
    index += work.offsets[:v.size]
    out = np.take(src.view(np.uint8).ravel(), index, mode="clip", out=work.out[:v.size])
    for i in slow:
        text = np.frombuffer(("," + _format(v[i])).encode(), np.uint8)
        out[i] = 0
        out[i, :text.size] = text
    return out


@functools.lru_cache(maxsize=4)
def _node_slots(grid: SpatialGrid) -> np.ndarray:
    """The x column's slots, the same in every snapshot on ``grid``: formatted
    once per grid, read-only."""
    slots = _format_g17(grid.nodes)
    slots.setflags(write=False)
    return slots


def write_snapshot_csv(path: Path, field: BlochField) -> None:
    cols = (field.rho_plus, field.rho_minus, field.c_r, field.c_i, field.rho11, field.rho22)
    nodes = _node_slots(field.grid)
    stamp = np.frombuffer(_format(field.time).encode().ljust(_SLOT, b"\0"), np.uint8)
    work = getattr(_SCRATCH, "work", None)
    if work is None or len(work.lines) != _ROWS_PER_CHUNK:
        work = _SCRATCH.work = _Scratch(6 * _ROWS_PER_CHUNK, _ROWS_PER_CHUNK)
    with open(path, "wb") as fh:
        fh.write((CSV_HEADER + "\n").encode())
        work.lines[:, :_SLOT] = stamp
        for start in range(0, len(nodes), _ROWS_PER_CHUNK):
            stop = min(start + _ROWS_PER_CHUNK, len(nodes))
            lines = work.lines[:stop - start]
            block = np.stack([c[start:stop] for c in cols], axis=1, out=work.block[:stop - start])
            lines[:, _SLOT:2 * _SLOT] = nodes[start:stop]
            lines[:, 2 * _SLOT:-1] = _format_g17(block, work).reshape(len(lines), -1)
            fh.write(lines.tobytes().translate(None, b"\0"))


def _ic_manifest(ic: InitialCondition) -> dict:
    return {"kind": type(ic).__name__, **asdict(ic)}


def _grid_manifest(grid: SpatialGrid) -> dict:
    return {"half_width": grid.half_width, "n_points": grid.n_points, "dx": grid.dx}


def run_solve(config: dict, out_dir: Path, threads: int = 0, prefix: str = "snapshot") -> dict:
    """Solve all snapshots of a configured scenario and write CSV + manifest.

    ``threads`` is the number of snapshot threads, 0 for one per snapshot up to
    the core count and 8; a negative count is a ConfigError.  A solved field
    that is not finite raises NonFinite before its CSV is written.  A run
    that raises removes the CSVs it wrote, so it leaves no partial output.
    """
    if threads < 0:
        raise ConfigError(f"threads must be >= 0 (0 = auto), got {threads}")
    scenario = build_scenario(config)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []

    def compute(t: float):
        solver, field = solve_snapshot(scenario, t)
        if not all(np.isfinite(c).all() for c in (field.rho_plus, field.c_i, field.rho_minus, field.c_r)):
            raise NonFinite(f"the {solver} solution at t = {_format(t)} is not finite")
        name = f"{prefix}_t{_time_tag(t)}.csv"
        written.append(out_dir / name)
        write_snapshot_csv(out_dir / name, field)
        return t, solver, name

    try:
        results = _map_maybe_parallel(compute, scenario.times, threads)
    except BaseException:  # every worker has finished: the pool joins them on the way out
        for path in written:
            path.unlink(missing_ok=True)
        raise
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
