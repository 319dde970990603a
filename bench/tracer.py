"""Spans around the public functions of every oqbm module, for the traced run.

:func:`install` replaces each public function of the nine package modules
(and the two ``SpatialGrid`` transforms) by a wrapper that records a span
(name, start, end, parent, thread, iteration, work) in memory; nothing in the
package is edited, and the returned callable puts the originals back.  Spans
opened in a snapshot worker thread with no open span of their own take the
innermost open span of the client thread as parent, since the only
client thread is the one that started the pool.

:func:`layer_metrics` turns the spans of one iteration into the per-layer
metrics of BENCHMARK.json.  A span's self time is its duration minus the part
of it that its child spans cover; a group's time counts only spans with no
ancestor in the same group, so nested calls are not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import math
import threading
import time
from collections import defaultdict
from typing import NamedTuple

import numpy as np

LAYERS = ("cli", "core", "specfun", "spectral", "omega0", "delta0", "gammaz0", "oracle", "validate")

KERNELS = ("heat_kernel", "h_plus", "h_minus", "phi_plus", "phi_minus")
BESSEL = ("bessel_j0", "bessel_j1", "bessel_j1_over_z")

# metric prefix -> span names whose outermost spans it sums
GROUPS = {
    "cli.write_csv": ("cli.write_snapshot_csv",),
    "spectral.exp_symbols": ("spectral.exp_symbols",),
    "spectral.solve": ("spectral.solve",),
    "spectral.green_function": ("spectral.green_function",),
    "specfun.scaled_erfc_product": ("specfun.scaled_erfc_product",),
    "specfun.bessel": tuple(f"specfun.{n}" for n in BESSEL),
    "specfun.kernels": tuple(f"specfun.{n}" for n in KERNELS),
    "gammaz0.convolve": ("gammaz0.convolve_kappa0", "gammaz0.convolve_kappa1"),
    "gammaz0.solve": ("gammaz0.solve_laplace_coherent",),
    "gammaz0.green": ("gammaz0.green_gammaz0",),
    "omega0.solve": ("omega0.solve",),
    "omega0.solve_cr": ("omega0.solve_cr",),
    "delta0.solve": ("delta0.solve",),
    "core.transform": ("core.SpatialGrid.forward_transform", "core.SpatialGrid.inverse_transform"),
    "core.sample_initial": ("core.sample_initial",),
    "oracle.fd_integrate": ("oracle.fd_integrate",),
    "oracle.quad_inverse_fourier": ("oracle.quad_inverse_fourier",),
}
# work metric name -> group whose outermost spans' work it sums
WORK = {
    "spectral.exp_symbols.freqs": "spectral.exp_symbols",
    "specfun.scaled_erfc_product.points": "specfun.scaled_erfc_product",
    "specfun.bessel.points": "specfun.bessel",
    "specfun.kernels.points": "specfun.kernels",
    "gammaz0.convolve.calls": "gammaz0.convolve",
    "core.transform.calls": "core.transform",
    "oracle.fd.steps": "oracle.fd_integrate",
    "cli.csv.rows": "cli.write_csv",
}
SNAPSHOT_SPANS = ("cli.solve_snapshot", "cli.write_snapshot_csv")


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    iteration: int
    work: int


def _fd_steps(oracle):
    """RK4 steps fd_integrate takes, from the public auto_time_step and the requested times."""
    auto_time_step = oracle.auto_time_step

    def steps(a: dict) -> int:
        dt = a["dt"] if a["dt"] is not None else auto_time_step(a["p"], a["grid"])
        times = sorted(set(float(t) for t in (a["snapshot_times"] or [])) | {float(a["t_end"])})
        total, prev = 0, 0.0
        for t in times:
            total += max(1, math.ceil((t - prev) / dt))
            prev = t
        if a["richardson"]:
            total += max(1, math.ceil(times[-1] / (dt / 2.0)))
        return total

    return steps


def _points(arg: str):
    return lambda a: int(np.size(a[arg]))


class Tracer:
    """In-memory span recorder shared by the client thread and the snapshot workers."""

    def __init__(self):
        self.spans: list = []
        self.iteration = 0
        self.returns: dict = defaultdict(list)   # span name -> [(iteration, return value)]
        self._ids = itertools.count()
        self._stacks: dict = {}
        self._client = threading.get_ident()

    def wrap(self, name: str, fn, work=None, capture: bool = False):
        signature = inspect.signature(fn) if work is not None else None

        def traced(*args, **kwargs):
            ident = threading.get_ident()
            stack = self._stacks.setdefault(ident, [])
            if stack:
                parent = stack[-1]
            else:
                client = self._stacks.get(self._client) if ident != self._client else None
                parent = client[-1] if client else None
            amount = 1
            if work is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                amount = work(bound.arguments)
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(sid, name, start, end, parent, ident, self.iteration, amount))
            if capture:
                self.returns[name].append((self.iteration, result))
            return result

        return functools.wraps(fn)(traced)


def install(tracer: Tracer):
    """Wrap every public function of the package modules; returns the undo callable."""
    modules = {layer: importlib.import_module(f"oqbm.{layer}") for layer in LAYERS}
    work = {f"specfun.{n}": _points("x") for n in KERNELS}
    work.update({f"specfun.{n}": _points("z") for n in BESSEL})
    work["specfun.scaled_erfc_product"] = lambda a: int(np.broadcast(a["gauss_exponent"], a["b"]).size)
    work["spectral.exp_symbols"] = _points("xis")
    work["cli.write_snapshot_csv"] = lambda a: a["field"].grid.n_points
    work["oracle.fd_integrate"] = _fd_steps(modules["oracle"])

    wrapped = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                name = f"{layer}.{attr}"
                wrapped[obj] = tracer.wrap(name, obj, work.get(name), capture=name == "validate.run_checks")

    undo = []
    namespaces = [vars(importlib.import_module("oqbm"))] + [vars(m) for m in modules.values()]
    for ns in namespaces:
        for attr, obj in list(ns.items()):
            if inspect.isfunction(obj) and obj in wrapped:
                undo.append((ns, attr, obj))
                ns[attr] = wrapped[obj]
    grid_cls = modules["core"].SpatialGrid
    for attr in ("forward_transform", "inverse_transform"):
        original = vars(grid_cls)[attr]
        undo.append((grid_cls, attr, original))
        setattr(grid_cls, attr, tracer.wrap(f"core.SpatialGrid.{attr}", original))

    def restore():
        for target, attr, original in reversed(undo):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)

    return restore


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(spans: list, wall: float, threads: int) -> dict:
    """Per-layer metrics of one iteration's spans; ``wall`` is its traced wall time."""
    by_id = {s.id: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)

    def outermost(names):
        names = set(names)
        for s in spans:
            if s.name in names:
                parent = by_id.get(s.parent)
                while parent is not None and parent.name not in names:
                    parent = by_id.get(parent.parent)
                if parent is None:
                    yield s

    out = {}
    for group, names in GROUPS.items():
        out[f"{group}.s"] = sum(s.end - s.start for s in outermost(names))
    for metric, group in WORK.items():
        out[metric] = float(sum(s.work for s in outermost(GROUPS[group])))
    for layer in LAYERS:
        members = [s for s in spans if s.name.split(".", 1)[0] == layer]
        out[f"layer.{layer}.s"] = sum(s.end - s.start for s in outermost({s.name for s in members}))
        out[f"layer.{layer}.self_s"] = sum(
            (s.end - s.start) - _covered((max(c.start, s.start), min(c.end, s.end)) for c in children[s.id])
            for s in members
        )
    csv_s = out["cli.write_csv.s"]
    out["cli.csv.rows_per_s"] = out.pop("cli.csv.rows") / csv_s if csv_s > 0 else 0.0
    fd_s = out["oracle.fd_integrate.s"]
    out["oracle.fd.steps_per_s"] = out["oracle.fd.steps"] / fd_s if fd_s > 0 else 0.0
    snapshot_s = sum(s.end - s.start for s in spans if s.name in SNAPSHOT_SPANS)
    out["cli.parallel_efficiency"] = snapshot_s / (threads * wall) if wall > 0 else 0.0
    return out
