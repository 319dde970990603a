"""The four benchmark workloads as fixed job lists over the public CLI API.

A job is one call of ``oqbm.cli.run_figure``, ``run_solve`` or
``run_validate``.  Only the general-rate draw of ``solve-spectral`` depends on
the seed; every other config is one of the paper's figures.  This module
imports nothing from numpy or oqbm at import time, so the set-up probe can
start its clock before the package is imported.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

# (workload name, why it is in the benchmark); the same text is in BENCHMARK.json
WHY = {
    "figures-closed": "fig1-3 and fig6 on the closed omega=0/delta=0 routes; CSV writing is most of the time",
    "figure-driven": "fig4 on the closed gamma_z=0 theta quadrature with 2 snapshot threads; erfc/Bessel kernels dominate",
    "solve-spectral": "spectral solver on seeded general rates (16 snapshots) and on the degenerate gamma_z=0 symbol",
    "validate-full": "the full cross-validation suite; the only workload that runs the FD and quadrature oracles",
}


@dataclass(frozen=True)
class Job:
    """One public CLI call.

    ``kind`` is "figure" (``arg`` is the figure name), "solve" (``arg`` is
    the config dict) or "validate" (``arg`` is the level).  ``reference`` is
    the file prefix whose stored digests a solve job's snapshots must match.
    """

    kind: str
    arg: object
    threads: int = 1
    prefix: str = "snapshot"
    reference: str = ""


def snapshot_threads() -> int:
    """Two snapshot threads, never more than the machine has cores."""
    return max(1, min(2, os.cpu_count() or 1))


# centre of the general-rate draw; each rate and t_max varies by up to 15% either way
GENERAL_RATES = {"gamma_p": 3e-3, "gamma_z": 5e-3, "delta": 6e-3, "omega": 1e-2}
GENERAL_T_MAX = 150.0
JITTER = 1.15


def general_rates_config(seed: int, n_points: int, n_times: int) -> dict:
    """Config (a) of solve-spectral: all four rates positive, drawn from ``seed``.

    Each rate and the last snapshot time is its centre value times a factor
    drawn log-uniformly from [1/1.15, 1.15].  The band is narrow on purpose:
    the solver's dense-eigensolver fallback fires on a rate-dependent share
    of the frequencies, so a wide draw would make the run time depend on the
    seed more than on the code.  The drift stays well below 1e-2; with a much
    larger drift the equation itself drives P below zero for some rates (the
    finite-difference oracle agrees), which the positivity check would fail.
    The half-width comes from ``plan_grid`` so every draw keeps its tails
    inside the domain; the grid size and snapshot count are fixed.
    """
    from oqbm.core import GaussianMixture, Params, plan_grid

    rng = random.Random(seed)
    rates = {k: v * JITTER ** rng.uniform(-1.0, 1.0) for k, v in GENERAL_RATES.items()}
    t_max = GENERAL_T_MAX * JITTER ** rng.uniform(-1.0, 1.0)
    times = [t_max * k / (n_times - 1) for k in range(n_times)]
    ic = {"ic": "gaussian_mixture", "p": 0.75, "sigma1": 1.0, "sigma2": 2.0}
    grid = plan_grid(GaussianMixture(p=0.75, sigma1=1.0, sigma2=2.0), Params(**rates), t_max=t_max)
    return {**rates, **ic, "times": times, "half_width": grid.half_width,
            "n_points": n_points, "method": "spectral"}


def _spectral_driven_config(times, n_points: int) -> dict:
    """Config (b) of solve-spectral: fig4-right forced onto the spectral route."""
    from oqbm.cli import FIGURES

    config = dict(FIGURES["fig4"]["configs"]["right"])
    config.update(method="spectral", times=list(times), n_points=n_points)
    return config


def _small_driven_config() -> dict:
    from oqbm.cli import FIGURES

    config = dict(FIGURES["fig4"]["configs"]["left"])
    config.update(times=[0.0, 10.0], n_points=2048)
    return config


def jobs(workload: str, seed: int, smoke: bool = False) -> list:
    """The fixed job list of ``workload``; ``smoke`` gives a seconds-long variant."""
    if workload == "figures-closed":
        names = ("fig3",) if smoke else ("fig1", "fig2", "fig3", "fig6")
        return [Job("figure", name, threads=1) for name in names]
    if workload == "figure-driven":
        if smoke:
            return [Job("solve", _small_driven_config(), threads=snapshot_threads(), prefix="fig4_small")]
        return [Job("figure", "fig4", threads=snapshot_threads())]
    if workload == "solve-spectral":
        if smoke:
            return [
                Job("solve", general_rates_config(seed, 1024, 4), prefix="general"),
                Job("solve", _spectral_driven_config([0.0, 25.0], 2048), prefix="driven_spectral"),
            ]
        return [
            Job("solve", general_rates_config(seed, 8192, 16), prefix="general"),
            Job("solve", _spectral_driven_config([0.0, 25.0, 50.0, 75.0, 100.0], 8192),
                prefix="driven_spectral", reference="fig4_right"),
        ]
    if workload == "validate-full":
        return [Job("validate", "fast" if smoke else "full")]
    raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WHY)}")


def job_configs(job: Job) -> dict:
    """File prefix -> config dict of every scenario a figure or solve job builds."""
    if job.kind == "solve":
        return {job.prefix: job.arg}
    if job.kind == "figure":
        from oqbm.cli import FIGURES

        return {(job.arg if panel == "" else f"{job.arg}_{panel}"): dict(config)
                for panel, config in FIGURES[job.arg]["configs"].items()}
    return {}
