"""Command-line front end: solve a configured scenario, reproduce the built-in
figure datasets, or run the cross-validation suite.

    oqbm solve --config run.json --out results/
    oqbm figure --figure fig4 --out results/
    oqbm validate --level fast

Configs are flat JSON.  Outputs are one CSV per snapshot (columns t, x, P, Q,
C_R, C_I, rho11, rho22; each field format(v, ".17g"), made by _format_g17
as 8-byte words in the rows of the CSV text; LF line endings) plus a
<prefix>_manifest.json capturing every number needed to re-run; no two
snapshot times may share a file name.  A grid, explicit or planned, must
cover the initial tails plus the drift and diffusion reach at the last time
and resolve the solution at the earliest (core.check_grid), or it is refused
before it is allocated.  Config files are UTF-8 JSON whose values must be
JSON numbers within the float range, not booleans or strings; a key that is
neither a RUN_KEYS entry nor a field of the chosen shape is refused, and an
explicit n_points may not exceed core.MAX_POINTS.  The default output
directory comes from $OQBM_OUT_DIR, falling back to the current directory;
a rerun into it rewrites each CSV in place and cuts its old tail, and
makes the manifest anew after removing the old one before the first CSV.
choose_route fixes each scenario's t > 0 route before any CSV: gamma_z = 0
takes its closed form only under ``method: "closed"``, and that method with
no closed form is refused.

What loads when: ``import oqbm.cli`` loads numpy and, of the package, only
``core`` and ``errors``.  build_scenario imports the module of its route's
solver (``omega0``, ``delta0`` or ``gammaz0`` with ``specfun``, or
``spectral``) in the calling thread, before any snapshot thread starts;
run_validate imports ``validate``; a run on more than one thread imports
``concurrent.futures``; main imports ``argparse``.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import math
import numbers
import os
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .core import (
    MAX_POINTS,
    QUAD_TOL,
    BlochField,
    GaussianCoherent,
    GaussianMixture,
    InitialCondition,
    LaplaceCoherent,
    LaplaceMixture,
    Params,
    SpatialGrid,
    UniformMixture,
    check_grid,
    plan_size,
    sample_initial,
    tail_half_width,
)
from .errors import ConfigError, NonFinite, OqbmError, UnknownFigure

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
# route -> (module, function) of its t > 0 solver; the function is looked up
# on the module at each call, so a module attribute swapped in later is used
_SOLVERS = {"closed[omega]": ("omega0", "solve"), "closed[delta]": ("delta0", "solve"),
            "closed[gamma_z]": ("gammaz0", "solve_laplace_coherent"), "spectral": ("spectral", "solve")}


@dataclass(frozen=True)
class Scenario:
    params: Params
    ic: InitialCondition
    times: tuple
    grid: SpatialGrid
    method: str  # "auto" | "closed" | "spectral"
    route: str   # choose_route: the solver of every t > 0 snapshot
    symbol: object = field(default=None, compare=False, repr=False)  # spectral.SharedSymbol, in a run


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
    _route_module(route)  # its first import, here and not in a snapshot thread
    if "half_width" in config or "n_points" in config:
        n_points = _number("n_points", _need(config, "n_points"))
        if not (n_points.is_integer() and n_points <= MAX_POINTS):
            raise ConfigError(f"n_points must be a whole number <= {MAX_POINTS}, got {n_points!r}")
        half_width, n_points = _number("half_width", _need(config, "half_width")), int(n_points)
    else:
        half_width, n_points = plan_size(ic, params, t_max=max(times))
    try:  # every grid rule is checked before SpatialGrid allocates its node arrays
        check_grid(half_width, n_points, params, times, tail_half_width(ic), ic.min_feature())
    except ValueError as exc:  # a half-width or node count no grid may have
        raise ConfigError(str(exc)) from exc
    return Scenario(params=params, ic=ic, times=times, grid=SpatialGrid(half_width, n_points),
                    method=method, route=route)


def classify_regime(p: Params) -> str:
    """The one rate that is exactly 0.0 (the closed forms' own rule), else "general"."""
    zeros = [name for name, v in (("omega", p.omega), ("delta", p.delta), ("gamma_z", p.gamma_z))
             if v == 0.0]
    return zeros[0] if len(zeros) == 1 else "general"


def choose_route(p: Params, ic: InitialCondition, method: str) -> str:
    """The solver of every t > 0 snapshot: "closed[<regime>]" or "spectral".

    The gamma_z = 0 closed form gives the spectral field to 4e-11 at about 50
    times its cost (fig4-left, t = 50, 8,192 nodes: 165 ms against 3.3 ms,
    median of 7 warm calls on 2 vCPUs), so only ``method: "closed"`` takes
    it; that method with no closed form for the regime and shape is a
    ConfigError.
    """
    regime = classify_regime(p)
    if method != "spectral":
        if regime in ("omega", "delta") or (
                regime == "gamma_z" and method == "closed" and isinstance(ic, LaplaceCoherent)):
            return f"closed[{regime}]"
    if method == "closed":
        raise ConfigError(f"no closed-form solver for regime {regime!r} with this initial condition")
    return "spectral"


def _route_module(route: str):
    """The module of ``route``'s solver, imported on first use."""
    return importlib.import_module(f"{__package__}.{_SOLVERS[route][0]}")


def solve_snapshot(scenario: Scenario, t: float) -> tuple:
    """(solver name, BlochField) for one snapshot time, on the scenario's route."""
    if t == 0.0:
        return "initial", sample_initial(scenario.ic, scenario.grid)
    solver = getattr(_route_module(scenario.route), _SOLVERS[scenario.route][1])
    shared = {} if scenario.symbol is None else {"symbol": scenario.symbol}
    return scenario.route, solver(scenario.params, scenario.ic, t, scenario.grid, **shared)


def _format(v: float) -> str:
    return format(float(v), ".17g")


# format(v, ".17g") of whole arrays, as _WORDS little-endian 8-byte words a
# value padded with NUL bytes, which are dropped from the finished CSV rows:
# ",", the sign and the "0.000" of X = -4..-1 just before d1 in byte 7, so
# that a text in fixed notation is one run of bytes (the strip's boolean-mask
# copy pays a fixed cost per run of kept bytes); then d2..d17, with the
# point put in after the digits before it, and "e+XX" at byte 17.  Byte 31,
# past the longest text (25 bytes with its comma), is always NUL.
_WORDS = 4
_STAMP = 3  # the most words of t's text; the longest .17g text, "-1.2345678901234567e-100", has 24 bytes
_POW_MIN, _POW_MAX = -290, 300  # exponents of the 10^k table
_FAST_MIN, _FAST_MAX = 1e-280, 1e280  # |v| of the fast path, besides 0
_TIE_GAP = 1e-6
_ROWS_PER_CHUNK = 4096
_KERNEL_ROWS, _FLAG_ROWS = 9, 4  # _format_g17's temporaries: rows of words and of flags
_LINE = 8 * (_STAMP + 7 * _WORDS)  # the longest CSV row before its NUL bytes go: t and seven fields
_NEWLINE = ord("\n") << 56  # the row's "\n", in byte 31 of its last field


def _split(x: np.ndarray, out: tuple = (None, None)) -> tuple:
    """Veltkamp's split: x = hi + lo exactly, each half with at most 26 bits;
    written into the two arrays of ``out`` if they are given."""
    c = np.multiply(134217729.0, x, out=out[0])
    lo = np.subtract(c, x, out=out[1])
    hi = np.subtract(c, lo, out=c)  # c - (c - x)
    return hi, np.subtract(x, hi, out=lo)


def _words(text: str, size: int = 8) -> np.ndarray:
    """The ASCII ``text`` padded with NUL bytes to ``size`` bytes, as little-endian words."""
    return np.frombuffer(text.encode().ljust(size, b"\0"), "<i8")


_ZERO = _words("\0" * 6 + ",0", 8 * _WORDS)  # _format_g17's words of +0.0


@functools.cache
def _g17_tables() -> tuple:
    """Tables of :func:`_format_g17`, built from exact integers on first use.

    10^k = hi + lo to 2^-106 relative for k from _POW_MIN, with hi also
    split, and the least double not below 10^k (a < 10^k exactly iff a is
    below it); for the chunks d2..d5, d10..d13, d6..d9, d14..d17 being
    0000..9999, the index of the last significant digit (-99 for 0000); by
    X - _POW_MIN, the prefix word (of a negative v at that plus the count of
    exponents), the digits before the point (1 in the exponent form) and the
    exponent word; 0000..9999 as 4-byte words, in the low and the high half
    of a word; and
    word by word, in 0x7F bytes (all text is ASCII), masks that keep d2..dL
    (L = 0..17), and for a point after dq (q = 1..16; none for q = 0) masks
    of the digits before and after it, and the point.
    """
    from fractions import Fraction  # imports decimal: a cost only CSV writing pays

    exact = [Fraction(10) ** k for k in range(_POW_MIN, _POW_MAX + 1)]
    hi = [float(x) for x in exact]
    lo = np.array([float(x - Fraction(h)) for x, h in zip(exact, hi)])
    hi = np.array(hi)
    bound = np.where(lo > 0.0, np.nextafter(hi, np.inf), hi)
    text = [f"{i:04d}" for i in range(10000)]
    length = np.array([len(s.rstrip("0")) if i else -99 for i, s in enumerate(text)], np.intp)
    ends = length + np.array([1, 9, 5, 13])[:, None]
    fixed = range(-4, 17)  # format's "g" rule at precision 17
    powers = range(_POW_MIN, _POW_MAX + 1)
    prefix = np.concatenate([_words(("," + sign + ("0." + "0" * (-x - 1) if x < 0 and x in fixed else ""))
                                    .rjust(7, "\0")) for sign in ("", "-") for x in powers])
    before = np.array([max(x + 1, 0) if x in fixed else 1 for x in powers], np.intp)
    exps = np.concatenate([_words("" if x in fixed else f"\0e{x:+03d}") for x in powers])
    chunks = np.frombuffer("".join(text).encode(), "<u4").astype("<i8")
    # byte b of the 24 after the prefix (word b // 8) holds d(b + 2); k is L or q
    b, k = np.arange(24).reshape(3, 8), np.arange(18)[:, None, None]
    dot = np.where(k > 0, k - 1, 16)  # the byte of a point after dq; 16: none
    keep, low, high, point = (np.where(rule, byte, 0).astype(np.uint8).view("<i8")[..., 0].T.copy()
                              for rule, byte in ((b + 2 <= k, 0x7F), (b < dot, 0x7F), (b > dot, 0x7F),
                                                 ((b == dot) & (k > 0), ord("."))))
    return (hi, lo, *_split(hi), bound, ends, prefix, before, exps, chunks, chunks << 32,
            keep[:2], low[:2], high, point[:2])


class _Scratch:
    """Working memory of one CSV chunk, reused chunk after chunk: of
    :func:`_format_g17` for its 6 * _ROWS_PER_CHUNK values, 76 bytes a value
    (9 rows of words and 4 of flags: every temporary), and of
    :func:`write_snapshot_csv` for its _ROWS_PER_CHUNK rows, 296 bytes a row
    (the six columns 48, the longest row text 248) and a mask of the text's
    bytes kept in the memory of ``words``, which the kernel no longer needs
    once a chunk's text is made; 752 bytes a row in all."""

    def __init__(self):
        size, rows = 6 * _ROWS_PER_CHUNK, _ROWS_PER_CHUNK
        self.words = np.empty((_KERNEL_ROWS, size), np.int64)
        self.flags = np.empty((_FLAG_ROWS, size), np.bool_)
        self.block = np.empty((rows, 6))  # the live ones of P, Q, C_R, C_I, rho11, rho22
        self.text = np.empty(rows * _LINE, np.uint8)  # the CSV rows, NUL bytes and all
        self.keep = self.words.reshape(-1).view(np.bool_)[:self.text.size]  # the text's bytes that are not NUL


_MAX_THREADS = 8  # the cap of the auto thread count, and of the idle _Scratch kept for reuse
_IDLE_SCRATCH = collections.deque(maxlen=_MAX_THREADS)  # _Scratch that no CSV write holds


def _idle_scratch() -> _Scratch:
    """An idle _Scratch of one CSV chunk, or a new one; ``_IDLE_SCRATCH.append``
    gives it back (deque.pop and append are atomic; append drops the oldest)."""
    try:
        return _IDLE_SCRATCH.pop()
    except IndexError:
        return _Scratch()


def _format_g17(values: np.ndarray, work: _Scratch, out: np.ndarray) -> np.ndarray:
    """The bytes "," + format(v, ".17g") of each value as _WORDS NUL-padded
    little-endian words, in ``out`` (int64, values.shape + (_WORDS,), maybe a
    strided view of CSV rows).  Every temporary lives in ``work``, so a call
    takes at most a chunk's 6 * _ROWS_PER_CHUNK values and allocates only
    the slow path's positions.  A mask that varies from value to value
    enters the arithmetic as 0 or 1 (x -= mask), not as a ``where=``
    selection, which costs about ten times as much a value.

    For 0 and 1e-280 <= |v| <= 1e280: the exact decimal exponent X of |v|
    comes from comparisons with the double-double 10^X; Dekker's exact
    two-product forms V = |v| 10^(16 - X) in [1e16, 1e17) as s + t with
    absolute error below 5e-15 (2^-106 V from the table, two roundings of
    terms below 32); its nearest integer N holds the 17 significant digits.
    N is s + rint(t), and exact unless V's fraction is within _TIE_GAP of
    1/2, where the error could flip the rounding.  For -6 <= X <= 16,
    10^(16 - X) is a double, so s + t is V exactly and rint decides every
    tie, half to even as format does (s is even).  Near ties at other X, and
    non-finite values and |v| outside that range, are formatted one at a
    time by ``format`` itself.
    """
    (hi, lo, hi_hi, hi_lo, bound, ends, prefix, before, exps, chunks, chunks_hi,
     keep, low, high, point) = _g17_tables()
    v, shape = np.ravel(values), np.shape(values)
    n = v.size
    # every temporary sits in a row of n words, as floats f or integers i, or
    # of flags; a row is reused as soon as its value is dead, so at most
    # _KERNEL_ROWS rows are live at once (at the chunk words and the high mask)
    i = work.words.reshape(-1)[:_KERNEL_ROWS * n].reshape(_KERNEL_ROWS, n)
    f = i.view(np.float64)
    zero, fast, mask, exact = work.flags.reshape(-1)[:_FLAG_ROWS * n].reshape(_FLAG_ROWS, n)
    a = np.abs(v, out=f[0])
    np.equal(a, 0.0, out=zero)
    np.greater_equal(a, _FAST_MIN, out=fast)
    fast &= np.less_equal(a, _FAST_MAX, out=mask)
    np.copyto(a, 1.0, where=np.logical_not(fast, out=mask))  # no log10(0) or cast of NaN below
    fast |= zero
    x, k = i[7], i[1]
    np.copyto(x, np.floor(np.log10(a, out=f[1]), out=f[1]), casting="unsafe")
    np.less(a, np.take(bound, np.subtract(x, _POW_MIN, out=k), mode="clip", out=f[2]), out=mask)
    x -= mask  # a < 10^x
    np.greater_equal(a, np.take(bound, np.subtract(x, _POW_MIN - 1, out=k), mode="clip", out=f[2]),
                     out=mask)
    x += mask  # a >= 10^(x + 1)
    np.subtract(16 - _POW_MIN, x, out=k)
    a_hi, a_lo = _split(a, out=(f[2], f[3]))
    p = np.multiply(a, np.take(hi, k, mode="clip", out=f[4]), out=f[4])
    g_lo = np.take(lo, k, mode="clip", out=f[5])
    np.equal(g_lo, 0.0, out=exact)  # 10^(16 - X) is a double
    last = np.multiply(a, g_lo, out=a)  # the last term of q; a is not read again
    g_hi, g_lo = np.take(hi_hi, k, mode="clip", out=f[5]), np.take(hi_lo, k, mode="clip", out=f[6])
    # q = (((a_hi g_hi - p) + a_hi g_lo + a_lo g_hi) + a_lo g_lo) + a lo[k], term by term
    q = np.multiply(a_hi, g_hi, out=f[1])
    q -= p
    q += np.multiply(a_hi, g_lo, out=a_hi)
    q += np.multiply(a_lo, g_hi, out=g_hi)
    q += np.multiply(a_lo, g_lo, out=a_lo)
    q += last
    s = np.add(p, q, out=f[0])
    t = np.subtract(q, np.subtract(s, p, out=p), out=q)
    near = np.rint(t, out=p)
    digits = i[3]  # N = s + rint(t), each as an integer
    np.copyto(digits, s, casting="unsafe")
    np.copyto(i[2], near, casting="unsafe")
    digits += i[2]
    carry = mask  # free until the tie test below
    np.equal(digits, 10**17, out=carry)  # 9.99..95e(X) rounds up to 1e(X+1)
    np.copyto(digits, 10**16, where=carry)
    np.copyto(digits, 0, where=zero)
    x += carry
    # |t - rint(t)| within _TIE_GAP of 1/2, where t is not exact
    np.greater(np.absolute(np.subtract(t, near, out=t), out=t), 0.5 - _TIE_GAP, out=mask)
    mask &= np.logical_not(exact, out=exact)
    mask |= np.logical_not(fast, out=fast)
    slow = np.flatnonzero(mask)

    # numpy divides by a scalar several times faster than np.divmod does
    top = np.floor_divide(digits, 10**8, out=i[0])
    lead = np.floor_divide(top, 10**8, out=i[6])
    c = i[0:4]  # the 4-digit chunks d2..d5, d10..d13, d6..d9, d14..d17
    pair = c[2:]  # d2..d9 and d10..d17, the latter made in N's row
    np.subtract(top, np.multiply(lead, 10**8, out=i[1]), out=pair[0])
    np.subtract(digits, np.multiply(top, 10**8, out=top), out=pair[1])
    pair -= np.multiply(np.floor_divide(pair, 10**4, out=c[:2]), 10**4, out=i[4:6])
    # every index below is in range, so "clip" only spares np.take the copy
    # it makes of ``out`` under mode="raise"
    x -= _POW_MIN
    # the first word: the prefix and d1 ("-" prefixes: the table's 2nd half)
    row = np.multiply(np.signbit(v, out=mask), _POW_MAX + 1 - _POW_MIN, out=i[4])
    row += x
    head = np.take(prefix, row, mode="clip", out=i[5])
    lead = np.left_shift(np.add(lead, ord("0"), out=lead), 56, out=lead)
    np.bitwise_or(head.reshape(shape), lead.reshape(shape), out=out[..., 0])
    n_digits = np.take(ends[0], c[0], mode="clip", out=i[4])
    for j in (1, 2, 3):
        np.maximum(n_digits, np.take(ends[j], c[j], mode="clip", out=i[5]), out=n_digits)
    shown = np.take(before, x, mode="clip", out=i[8])
    s = i[3:6]  # s[2] starts as the exponent word, which every high mask keeps
    np.take(exps, x, mode="clip", out=s[2])
    np.greater(n_digits, shown, out=mask)
    np.maximum(n_digits, shown, out=n_digits)
    dot_at = np.multiply(shown, mask, out=shown)
    # d2..d17 as two words w, and as the three words s of w one byte on;
    # the 24 bytes are w's below the point's byte, the point and s's above it
    w = np.take(chunks, c[:2], mode="clip", out=i[6:8])
    w |= np.take(chunks_hi, c[2:], mode="clip", out=c[:2])
    w &= np.take(keep, n_digits, axis=1, mode="clip", out=i[0:2])
    np.left_shift(w, 8, out=s[:2])
    s[1:] |= np.right_shift(w, 56, out=i[0:2])  # each word's last byte goes to the next word's first
    s &= np.take(high, dot_at, axis=1, mode="clip", out=i[0:3])
    s[:2] |= np.bitwise_and(w, np.take(low, dot_at, axis=1, mode="clip", out=i[0:2]), out=w)
    np.bitwise_or(s[:2].reshape((2,) + shape),
                  np.take(point, dot_at, axis=1, mode="clip", out=i[0:2]).reshape((2,) + shape),
                  out=np.moveaxis(out[..., 1:3], -1, 0))
    np.copyto(out[..., 3], s[2].reshape(shape))
    for j in slow:
        out[np.unravel_index(j, shape)] = _words("," + _format(v[j]), 8 * _WORDS)
    return out


@functools.lru_cache(maxsize=4)
def _node_slots(grid: SpatialGrid) -> np.ndarray:
    """The x column's words, the same in every snapshot on ``grid``: formatted
    once per grid, in blocks of a CSV chunk's values through an idle
    _Scratch, and kept read-only.  _run_scenarios formats each grid here
    before its snapshot threads start; two threads that miss the cache
    together each format an identical copy, and one of them is kept."""
    nodes, block = grid.nodes, 6 * _ROWS_PER_CHUNK
    words = np.empty((len(nodes), _WORDS), np.int64)
    work = _idle_scratch()
    try:
        for start in range(0, len(nodes), block):
            _format_g17(nodes[start:start + block], work, out=words[start:start + block])
    finally:
        _IDLE_SCRATCH.append(work)
    words.setflags(write=False)
    return words


def write_snapshot_csv(path: Path, field: BlochField) -> None:
    """One CSV of ``field``, a chunk of _ROWS_PER_CHUNK rows at a time.  A
    column that is +0.0 in a whole chunk (no bit set, so -0.0 is formatted)
    gets the words of ",0" without the kernel; the live ones are formatted
    packed in one call.  t's text takes the words it fills, 1 to _STAMP."""
    cols = (field.rho_plus, field.rho_minus, field.c_r, field.c_i, field.rho11, field.rho22)
    nodes, stamp = _node_slots(field.grid), _format(field.time)
    size = -(-len(stamp) // 8)  # words of t's text
    work = _idle_scratch()
    try:
        with _open_output(path) as fh:
            fh.write((CSV_HEADER + "\n").encode())
            lines = work.text.view("<i8")[:_ROWS_PER_CHUNK * (size + 7 * _WORDS)].reshape(_ROWS_PER_CHUNK, -1)
            lines[:, :size] = _words(stamp, 8 * size)
            for start in range(0, len(nodes), _ROWS_PER_CHUNK):
                stop = min(start + _ROWS_PER_CHUNK, len(nodes))
                rows = lines[:stop - start]
                rows[:, size:size + _WORDS] = nodes[start:stop]
                fields = rows[:, size + _WORDS:].reshape(-1, 6, _WORDS)
                live = [j for j, c in enumerate(cols) if c[start:stop].view(np.int64).any()]
                if live:
                    block = work.block.reshape(-1)[:len(rows) * len(live)].reshape(len(rows), -1)
                    _format_g17(np.stack([cols[j][start:stop] for j in live], axis=1, out=block), work,
                                out=fields[:, :len(live)])
                for k, j in reversed(list(enumerate(live))):  # each to its slot, right to left
                    if j != k:
                        fields[:, j] = fields[:, k]
                for j in set(range(6)).difference(live):
                    fields[:, j] = _ZERO
                rows[:, -1] |= _NEWLINE
                # numpy's mask and copy release the GIL, so snapshot threads strip at once
                text = work.text[:rows.nbytes]
                fh.write(text[np.not_equal(text, 0, out=work.keep[:text.size])])
            fh.truncate()
    finally:
        _IDLE_SCRATCH.append(work)


def _ic_manifest(ic: InitialCondition) -> dict:
    return {"kind": type(ic).__name__, **asdict(ic)}


def _grid_manifest(grid: SpatialGrid) -> dict:
    return {"half_width": grid.half_width, "n_points": grid.n_points, "dx": grid.dx}


def run_solve(config: dict, out_dir: Path, threads: int = 0, prefix: str = "snapshot") -> dict:
    """Solve all snapshots of a configured scenario and write CSV + manifest.

    ``threads`` sizes the one pool of all the snapshots, 0 for one thread per
    snapshot up to the core count and 8; a negative count is a ConfigError.
    A solved field that is not finite raises NonFinite before its CSV is
    written.  The prefix's old manifest is removed before any CSV is written,
    so a run that stops partway leaves no manifest naming its CSVs; a run
    that raises also removes the CSVs it wrote.
    """
    return _run_scenarios({prefix: config}, out_dir, threads)[prefix]


def _run_scenarios(configs: dict, out_dir: Path, threads: int) -> dict:
    """run_solve of each {prefix: config}, all snapshots on one pool; returns
    {prefix: manifest}.  Every scenario is built before any file is written.
    Before the snapshot threads start, each grid's x text is formatted, and
    the spectral-route scenarios that share rates and grid (fig4's and fig5's
    panels) get one spectral.SharedSymbol for the run."""
    if threads < 0:
        raise ConfigError(f"threads must be >= 0 (0 = auto), got {threads}")
    scenarios = {prefix: build_scenario(config) for prefix, config in configs.items()}
    shared = collections.defaultdict(list)  # (params, grid) -> t > 0 of its spectral-route snapshots
    for s in scenarios.values():
        _node_slots(s.grid)
        shared[s.params, s.grid] += [t for t in s.times if t > 0.0 and s.route == "spectral"]
    out_dir.mkdir(parents=True, exist_ok=True)
    symbols = {key: _route_module("spectral").SharedSymbol(*key, times) for key, times in shared.items() if times}
    scenarios = {prefix: replace(s, symbol=symbols.get((s.params, s.grid)) if s.route == "spectral" else None)
                 for prefix, s in scenarios.items()}
    for prefix in scenarios:  # the manifest vouches for the CSVs: none stands while they are rewritten
        (out_dir / f"{prefix}_manifest.json").unlink(missing_ok=True)
    written = []

    def compute(task: tuple):
        prefix, t = task
        solver, field = solve_snapshot(scenarios[prefix], t)
        if not all(np.isfinite(c).all() for c in (field.rho_plus, field.c_i, field.rho_minus, field.c_r)):
            raise NonFinite(f"the {solver} solution at t = {_format(t)} is not finite")
        name = f"{prefix}_t{_time_tag(t)}.csv"
        written.append(out_dir / name)
        write_snapshot_csv(out_dir / name, field)
        return prefix, t, solver, name

    tasks = [(prefix, t) for prefix, scenario in scenarios.items() for t in scenario.times]
    try:
        results = _map_maybe_parallel(compute, tasks, threads)
    except BaseException:  # every worker has finished: the pool joins them on the way out
        for path in written:
            path.unlink(missing_ok=True)
        raise
    manifests = {prefix: {
        "package_version": __version__,
        "params": asdict(scenario.params),
        "initial_condition": _ic_manifest(scenario.ic),
        "grid": _grid_manifest(scenario.grid),
        "times": list(scenario.times),
        "regime": classify_regime(scenario.params),
        "method": scenario.method,
        "quadrature_tol": QUAD_TOL,
        "csv_columns": CSV_HEADER.split(","),
        "files": {},
    } for prefix, scenario in scenarios.items()}
    for prefix, t, solver, name in results:  # in task order: each prefix's times as configured
        manifests[prefix]["files"][_format(t)] = {"file": name, "solver": solver}
    for prefix, manifest in manifests.items():
        _write_json(out_dir / f"{prefix}_manifest.json", manifest)
    return manifests


def _open_output(path: Path):
    """``path`` opened for binary writing from its start without truncating
    it, so a rerun rewrites the file in place; its writer cuts the old tail
    with ``fh.truncate()``.  A new file gets the mode ``open(path, "wb")`` gives."""
    return open(os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666), "wb")


def _write_json(path: Path, data: dict) -> None:
    with _open_output(path) as fh:
        fh.write((json.dumps(data, indent=2, sort_keys=True) + "\n").encode())
        fh.truncate()


def _time_tag(t: float) -> str:
    tag = format(float(t), "g")
    return tag.replace(".", "p").replace("-", "m")


def _map_maybe_parallel(fn, items, threads: int):
    if threads == 0:
        threads = min(len(items), os.cpu_count() or 1, _MAX_THREADS)
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    import concurrent.futures

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
    """Reproduce one built-in figure dataset; returns the combined manifest.
    Its panels share one pool of ``threads`` and, if one fails, leave no file
    they wrote and no manifest."""
    if name not in FIGURES:
        raise UnknownFigure(f"unknown figure {name!r}; choose from {sorted(FIGURES)}")
    spec = FIGURES[name]
    configs = {f"{name}_{panel}" if panel else name: dict(config)
               for panel, config in spec["configs"].items()}
    (out_dir / f"{name}_manifest.json").unlink(missing_ok=True)  # as each panel's, in _run_scenarios
    manifests = _run_scenarios(configs, out_dir, threads)
    runs = {panel or "both": manifests[prefix] for panel, prefix in zip(spec["configs"], configs)}
    combined = {"figure": name, "panel_quantity": spec["panels"], "runs": runs}
    _write_json(out_dir / f"{name}_manifest.json", combined)
    return combined


def run_validate(level: str, stream=None) -> int:
    """Print the cross-validation table; exit code 0 iff everything passed."""
    from . import validate

    stream = stream if stream is not None else sys.stdout
    results = validate.run_checks(level)
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
    import argparse

    parser = argparse.ArgumentParser(prog="oqbm", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a configured scenario")
    p_solve.add_argument("--config", required=True, help="path to a flat JSON config")
    p_solve.add_argument("--out", default=None, help="output directory (default $OQBM_OUT_DIR)")
    threads_help = "size of the one snapshot pool, shared by all of a figure's panels; 0 = auto"
    p_solve.add_argument("--threads", type=int, default=0, help=threads_help)

    p_fig = sub.add_parser("figure", help="reproduce a built-in figure dataset")
    p_fig.add_argument("--figure", required=True, help="fig1..fig6")
    p_fig.add_argument("--out", default=None)
    p_fig.add_argument("--threads", type=int, default=0, help=threads_help)

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
