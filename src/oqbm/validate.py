"""Cross-validation matrix: closed forms vs spectral vs the two oracles.

Each check computes its worst error and ``_row`` turns that into a timed
:class:`CheckResult`; :func:`run_checks` collects the fast or the full suite,
whose figure rates and shapes are the scenarios ``oqbm figure`` builds.  The
CLI prints them as a table and exits nonzero if any fails; tests assert each.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Iterable

import numpy as np

from . import cli, delta0, gammaz0, omega0, oracle, specfun, spectral
from .core import BlochField, Params, SpatialGrid, initial_mass


def _figure(name: str, panel: str = "") -> tuple:
    """(params, initial condition) of one panel of a dataset ``oqbm figure`` writes."""
    scenario = cli.build_scenario(cli.FIGURES[name]["configs"][panel])
    return scenario.params, scenario.ic


FIG1, FIG1_IC = _figure("fig1")
FIG2_IC = _figure("fig2")[1]
FIG3_IC = _figure("fig3")[1]
FIG4, FIG4_RIGHT_IC = _figure("fig4", "right")
FIG6, FIG6_LEFT_IC = _figure("fig6", "left")
FIG6_RIGHT_IC = _figure("fig6", "right")[1]

TAU1_REFERENCE = 81.1423506200
STABILITY_DRAWS = 200  # random rate sets of the dissipativity row


@dataclass
class CheckResult:
    name: str
    max_err: float
    tol: float
    passed: bool
    seconds: float


def _row(name: str, tol: float) -> Callable:
    """Turn a function that returns its worst error into a timed check that
    passes when that error is below ``tol``; the check keeps the function's name."""

    def wrap(fn: Callable[[], float]) -> Callable[[], CheckResult]:
        @functools.wraps(fn)
        def check() -> CheckResult:
            start = time.perf_counter()
            err = float(fn())
            return CheckResult(name, err, tol, err < tol, time.perf_counter() - start)

        return check

    return wrap


@_row("bloch round-trip identity", 1e-14)
def check_bloch_roundtrip() -> float:
    rng = np.random.default_rng(0)
    grid = SpatialGrid(10.0, 256)
    n = grid.n_points
    worst = 0.0
    for _ in range(25):
        rho11, rho22 = rng.normal(size=n), rng.normal(size=n)
        rho12 = rng.normal(size=n) + 1j * rng.normal(size=n)
        b = BlochField.from_density(grid, rho11, rho22, rho12, time=float(rng.uniform(0.0, 5.0)))
        worst = max(
            worst,
            np.max(np.abs(b.rho11 - rho11)),
            np.max(np.abs(b.rho22 - rho22)),
            np.max(np.abs(b.rho12 - rho12)),
        )
    return worst


@_row("initial conditions integrate to 1", 1e-8)
def check_initial_masses() -> float:
    ics = (FIG1_IC, FIG2_IC, FIG3_IC, FIG6_RIGHT_IC, FIG4_RIGHT_IC)
    return max(abs(initial_mass(ic) - 1.0) for ic in ics)


@_row("special function pinned values", 1e-12)
def check_special_values() -> float:
    worst = abs(specfun.erfc(0.0) - 1.0)
    for v in (0.3, 1.7, 4.0):
        worst = max(worst, abs(specfun.erfc(v) + specfun.erfc(-v) - 2.0))
    worst = max(worst, abs(specfun.erfc(1.0) - 0.15729920705028513))
    worst = max(worst, abs(specfun.bessel_j0(0.0) - 1.0))
    worst = max(worst, abs(specfun.bessel_j1(0.0)))
    worst = max(worst, abs(specfun.bessel_j0(2.404825557695773)))
    return worst


@_row("kernel parity (even/odd)", 1e-12)
def check_kernel_parity() -> float:
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(20):
        p = Params(*rng.uniform(1e-3, 1.0, 4))
        t = float(rng.uniform(0.1, 80.0))
        x = rng.uniform(0.0, 40.0, 64)
        k = specfun.DrivenKernels(t, np.concatenate([x, -x]), p)  # one evaluation for x and -x
        for v, sign in ((k.h_plus(), 1.0), (k.h_minus(), -1.0), (k.phi_plus(), 1.0), (k.phi_minus(), -1.0)):
            worst = max(worst, np.max(np.abs(v[:64] - sign * v[64:])))
    return worst


@_row("cone kernel masses", 1e-9)
def check_cone_kernel_masses() -> float:
    p = FIG4
    worst = 0.0
    nodes, weights = gammaz0.theta_rule(512)
    for t in (5.0, 25.0, 60.0):
        want0, want1 = math.sin(2.0 * p.omega * t) / (2.0 * p.omega), math.cos(2.0 * p.omega * t)
        reach = 2.0 * t * p.delta
        y = reach * np.cos(nodes)
        jac = reach * np.sin(nodes)
        k0 = specfun.kg_kernel_0(t, y, p)
        mass0 = float(np.sum(weights * jac * k0))
        k1 = specfun.kg_kernel_1(t, y, p)
        mass1 = float(np.sum(weights * jac * k1.values))
        mass1 += sum(w for _, w in k1.delta_shifts)
        # the quadrature the closed gamma_z = 0 route runs, on constant data at x = 0
        _, conv1, conv0 = gammaz0._cone_convolutions(lambda z: np.ones((1,) + z.shape), t, 0.0, p)
        worst = max(worst, abs(mass0 - want0), abs(mass1 - want1),
                    abs(float(conv0[0, 0]) - want0), abs(float(conv1[0, 0]) - want1))
    return worst


@_row("first imbalance zero time", 1e-8)
def check_tau1() -> float:
    taus = delta0.imbalance_zeros(FIG6, 1)
    rel = abs(taus[0] - TAU1_REFERENCE) / TAU1_REFERENCE
    grid = SpatialGrid(32.0, 1024)
    q_tau = np.max(np.abs(delta0.solve(FIG6, FIG6_LEFT_IC, float(taus[0]), grid).rho_minus))
    q_max = max(
        np.max(np.abs(delta0.solve(FIG6, FIG6_LEFT_IC, t, grid).rho_minus))
        for t in (50.0, 100.0, 150.0, 200.0)
    )
    # both sub-criteria rescaled to the 1e-8 gate:
    # tau_1 relative error < 1e-8 and Q(tau_1) < 1e-10 * max Q
    return max(rel, (q_tau / q_max) * 1e2)


@_row("green: closed omega=0 vs spectral", 1e-8)
def check_green_omega0() -> float:
    grid = SpatialGrid(24.0, 2048)
    t = 50.0
    G = spectral.green_function(FIG1, t, grid)
    return np.max(np.abs(G - omega0.green_omega0(FIG1, t, grid.nodes)))


@_row("green: closed delta=0 vs spectral (3 regimes)", 1e-8)
def check_green_delta0() -> float:
    worst = 0.0
    t = 25.0
    for gz in (1e-2, 2e-2, 4e-2):
        p = Params(gamma_p=1e-3, gamma_z=gz, delta=0.0, omega=1e-2)
        grid = SpatialGrid(8.0, 2048)
        G = spectral.green_function(p, t, grid)
        worst = max(worst, np.max(np.abs(G - delta0.green_delta0(p, t, grid.nodes))))
    return worst


def stability_draws() -> tuple:
    """The dissipativity row's rate sets, each at xi = 0 and eight random
    frequencies: the rates of every row, the frequencies, each row's draw."""
    rng = np.random.default_rng(5)
    rates, xis = [], []
    for _ in range(STABILITY_DRAWS):
        rates.append(np.exp(rng.uniform(math.log(1e-4), math.log(10.0), 4)))
        x = rng.uniform(-100.0, 100.0, 8)
        xis.append(np.concatenate(([0.0], x[x != 0.0])))
    draw = np.repeat(np.arange(STABILITY_DRAWS), [len(x) for x in xis])
    rows = dict(zip(("gamma_p", "gamma_z", "delta", "omega"), np.array(rates)[draw].T))
    return SimpleNamespace(**rows), np.concatenate(xis), draw


@_row(f"dissipativity on {STABILITY_DRAWS} random draws", 0.5)
def check_stability() -> float:
    # the error is the number of draws that break a rule of dissipativity_rows
    rates, xis, draw = stability_draws()
    rule = spectral.dissipativity_rows(xis, rates)[0]
    return np.unique(draw[rule != 0]).size


@_row("mass conservation (spectral, general rates)", 1e-8)
def check_mass_conservation() -> float:
    p = Params(gamma_p=1e-3, gamma_z=2e-3, delta=1e-2, omega=5e-3)
    grid = SpatialGrid(28.0, 2048)
    worst = 0.0
    for t in (10.0, 60.0, 120.0):
        u = spectral.solve(p, FIG1_IC, t, grid)
        worst = max(worst, abs(u.mass() - 1.0))
    return worst


@_row("driven-regime convolution identities", 1e-8)
def check_identities() -> float:
    rep = gammaz0.convolution_identities_check(
        FIG4, 25.0, [-7.0, -2.0, 0.0, 1.5, 4.0, 5.5, 8.0, 12.0]
    )
    return rep.max_error()


def _transform_oracle(symbol: Callable, t: float, n: int) -> tuple:
    """301 of the nodes of SpatialGrid(260, n), and the quadrature oracle's
    inverse transform of ``symbol`` there, cut off where fig4's decay
    exp(-2 gamma_p t xi^2) falls to 1e-18."""
    x = SpatialGrid(260.0, n).nodes[np.linspace(0, n - 1, 301).astype(int)]
    xi_max = math.sqrt(18.0 * math.log(10.0) / (2.0 * FIG4.gamma_p * t))
    return x, oracle.quad_inverse_fourier(symbol, x, xi_max)


@_row("green: kernel assembly vs quadrature oracle", 1e-7)
def check_greez_vs_quadrature() -> float:
    worst = 0.0
    for t, n in ((1.0, 32768), (25.0, 8192)):
        x, K = _transform_oracle(gammaz0.exp_symbol_closed(FIG4, t), t, n)
        worst = max(worst, np.max(np.abs(gammaz0.green_gammaz0(FIG4, t, x) - K)))
    return worst


@_row("semigroup property", 1e-8)
def check_semigroup() -> float:
    p = Params(gamma_p=1e-3, gamma_z=1e-3, delta=1e-2, omega=1e-2)
    xis = SpatialGrid(28.0, 2048).half_nodes
    two = spectral.exp_symbols(xis, p, 20.0) @ spectral.exp_symbols(xis, p, 30.0)
    return np.max(np.abs(two - spectral.exp_symbols(xis, p, 50.0)))


@_row("finite-difference oracle vs spectral (t=50)", 3e-5)
def check_fd_cross() -> float:
    # the windows of THREE_WAY_CASES, on which acceptance criterion 2 also
    # runs (the uniform plateau edges must land on nodes or the sampled
    # initial data differs from the analytic one at O(dx))
    worst = 0.0
    t = 50.0
    for ic, (half_width, n) in THREE_WAY_CASES.values():
        grid = SpatialGrid(half_width, n)
        fd = oracle.fd_integrate(FIG1, ic, t, grid, richardson=False)
        u = spectral.solve(FIG1, ic, t, grid)
        worst = max(worst, np.max(np.abs(fd.field.rho_plus - u.rho_plus)))
        worst = max(worst, np.max(np.abs(fd.field.rho_minus - u.rho_minus)))
    return worst


THREE_WAY_CASES = {
    # scenario -> (initial condition, (half_width, n_points)); each window is
    # the tail-rule minimum and the spacings sit at dx ~ 0.010-0.012, where
    # the measured O(dx^2) FD error clears acceptance criterion 2's 1e-5
    # closed-vs-FD gate for all three shapes
    "gaussian": (FIG1_IC, (21.0, 4096)),
    "laplace": (FIG2_IC, (48.0, 8192)),
    "uniform": (FIG3_IC, (16.0, 4096)),
}


@_row("driven solution vs transform oracle", 1e-8)
def check_driven_solution_vs_symbol() -> float:
    """Exact-transform cross-check of fig4-right's Laplace-coherent solution."""
    t = 25.0
    closed = gammaz0.exp_symbol_closed(FIG4, t)

    def symbol(xis):  # exp(t Q) of the initial transforms, shape (m, 3)
        return np.einsum("mij,jm->mi", closed(xis), np.array(FIG4_RIGHT_IC.spectrum(xis)[:3]))

    x, K = _transform_oracle(symbol, t, 8192)
    rho_plus, c_i, rho_minus, _ = gammaz0.laplace_coherent_field(FIG4, FIG4_RIGHT_IC, t, x)
    return np.max(np.abs(K - np.stack([rho_plus, c_i, rho_minus], axis=1)))


FAST_CHECKS = (
    check_bloch_roundtrip,
    check_initial_masses,
    check_special_values,
    check_kernel_parity,
    check_cone_kernel_masses,
    check_tau1,
    check_green_omega0,
    check_green_delta0,
    check_stability,
    check_mass_conservation,
)

FULL_CHECKS = FAST_CHECKS + (
    check_identities,
    check_greez_vs_quadrature,
    check_semigroup,
    check_driven_solution_vs_symbol,
    check_fd_cross,
)


def run_checks(level: str = "fast") -> list:
    if level not in ("fast", "full"):
        raise ValueError(f"level must be 'fast' or 'full', got {level!r}")
    checks: Iterable = FAST_CHECKS if level == "fast" else FULL_CHECKS
    return [fn() for fn in checks]
