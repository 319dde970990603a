"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the table.
"""

import concurrent.futures
import json
import math
import time

import numpy as np
import pytest
from mpmath import mp

from oqbm import cli, delta0, gammaz0, omega0, oracle, spectral, validate
from oqbm import specfun as sf
from oqbm.core import Params, SpatialGrid, initial_mass

mp.dps = 30


def _report(number: int, label: str, err, tol, seconds=None):
    status = "PASS" if err < tol else "FAIL"
    extra = f"  [{seconds:.2f}s]" if seconds is not None else ""
    print(f"ACCEPTANCE {number} {status}: {label}  (max_err={err:.3e}, tol={tol:.1e}){extra}")
    return err < tol


def _peaks(x, values, floor_ratio=1e-9):
    v = values
    keep = (v[1:-1] > v[:-2]) & (v[1:-1] > v[2:]) & (v[1:-1] > floor_ratio * v.max())
    return x[1:-1][keep]


def test_criterion_1_first_imbalance_zero():
    start = time.perf_counter()
    p = validate.FIG6
    ic = validate.FIG6_LEFT_IC
    taus = delta0.imbalance_zeros(p, 1)
    rel = abs(float(taus[0]) - 81.1423506200) / 81.1423506200

    grid = SpatialGrid(32.0, 2048)
    q_tau = np.max(np.abs(delta0.solve(p, ic, float(taus[0]), grid).rho_minus))
    q_max = max(np.max(np.abs(delta0.solve(p, ic, t, grid).rho_minus))
                for t in (50.0, 100.0, 150.0, 200.0))
    elapsed = time.perf_counter() - start

    ok_tau = _report(1, "tau_1 = 81.1423506200 (relative)", rel, 1e-8, elapsed)
    ok_q = _report(1, "max_x |Q(tau_1, x)| / max_t,x |Q|", q_tau / q_max, 1e-10)
    assert ok_tau and ok_q
    assert elapsed < 1.0


def three_way_agreement_case(case: str) -> dict:
    """Closed vs spectral vs finite-difference errors for one omega=0 scenario
    of validate.THREE_WAY_CASES at t = 50 and t = 200.

    A module-level function, so that the worker processes of criterion 2
    can unpickle it by name.
    """
    ic, (half_width, n) = validate.THREE_WAY_CASES[case]
    times = (50.0, 200.0)
    grid = SpatialGrid(half_width, n)
    fd = oracle.fd_integrate(validate.FIG1, ic, max(times), grid,
                             snapshot_times=list(times), richardson=True)
    out = {"richardson": fd.richardson_error, "dx": grid.dx}
    for t in times:
        c = omega0.solve(validate.FIG1, ic, t, grid)
        u = spectral.solve(validate.FIG1, ic, t, grid)
        f = fd.snapshots[t]
        out[t] = {
            "closed_vs_spectral": max(
                float(np.max(np.abs(u.rho_plus - c.rho_plus))),
                float(np.max(np.abs(u.rho_minus - c.rho_minus))),
            ),
            "closed_vs_fd": max(
                float(np.max(np.abs(f.rho_plus - c.rho_plus))),
                float(np.max(np.abs(f.rho_minus - c.rho_minus))),
            ),
        }
    return out


def test_criterion_2_three_way_agreement_undriven():
    start = time.perf_counter()
    with concurrent.futures.ProcessPoolExecutor(max_workers=3) as pool:
        results = dict(zip(
            validate.THREE_WAY_CASES,
            pool.map(three_way_agreement_case, validate.THREE_WAY_CASES),
        ))
    elapsed = time.perf_counter() - start

    worst_spectral = max(r[t]["closed_vs_spectral"] for r in results.values() for t in (50.0, 200.0))
    worst_fd = max(r[t]["closed_vs_fd"] for r in results.values() for t in (50.0, 200.0))
    worst_rich = max(r["richardson"] for r in results.values())
    ok_s = _report(2, "closed vs spectral, omega=0, t in {50,200}", worst_spectral, 1e-7, elapsed)
    ok_f = _report(2, "closed vs finite-difference, omega=0", worst_fd, 1e-5)
    ok_r = _report(2, "FD time error (Richardson, dt/2 re-run)", worst_rich, 1e-10)
    assert ok_s and ok_f and ok_r
    assert elapsed < 60.0


def test_criterion_3_green_cross_check_uncoupled():
    # validate's row: gamma_z / 2 omega = 0.5, 1, 2 at omega = 1e-2, t = 25, on SpatialGrid(8, 2048)
    row = validate.check_green_delta0()
    assert _report(3, "delta=0 Green matrix vs spectral FFT (3 regimes, t=25)",
                   row.max_err, row.tol, row.seconds)


def test_criterion_4_driven_kernel_identities():
    # validate's row: fig4's rates at t = 25, at eight points
    row = validate.check_identities()
    ok_ids = _report(4, "printed convolution identities (gamma_z=0)", row.max_err, row.tol, row.seconds)

    start = time.perf_counter()
    p = validate.FIG4
    worst = 0.0
    x = SpatialGrid(224.0, 4096).nodes[np.linspace(0, 4095, 201).astype(int)]
    for t in (1.0, 25.0, 100.0):
        G = gammaz0.green_gammaz0(p, t, x)
        xi_max = math.sqrt(18.0 * math.log(10.0) / (2.0 * p.gamma_p * t))
        K = oracle.quad_inverse_fourier(gammaz0.exp_symbol_closed(p, t), x, xi_max)
        worst = max(worst, np.max(np.abs(G - K)))
    ok_green = _report(4, "kernel Green assembly vs quadrature oracle, t in {1,25,100}",
                       worst, 1e-7, time.perf_counter() - start)
    assert ok_ids and ok_green


@pytest.fixture(scope="module")
def figure_solutions():
    """Every figure panel solved at every snapshot time (deduplicated)."""
    cache = {}
    out = []
    for name, figure in cli.FIGURES.items():
        for panel, config in figure["configs"].items():
            key = json.dumps(config, sort_keys=True)
            if key not in cache:
                scenario = cli.build_scenario(dict(config))
                fields = {t: cli.solve_snapshot(scenario, t)[1] for t in scenario.times}
                cache[key] = (scenario, fields)
            out.append((name, panel, *cache[key]))
    return out


def test_criterion_5_mass_and_positivity(figure_solutions):
    start = time.perf_counter()
    worst_mass, worst_neg = 0.0, 0.0
    for name, panel, scenario, fields in figure_solutions:
        for t, field in fields.items():
            if t == 0.0:
                mass = initial_mass(scenario.ic)  # fine grid for kinked shapes
            else:
                mass = field.mass()
            worst_mass = max(worst_mass, abs(mass - 1.0))
            worst_neg = max(worst_neg, -float(np.min(field.rho_plus)))
    ok_mass = _report(5, "figure snapshots: |int P dx - 1|", worst_mass, 1e-7,
                      time.perf_counter() - start)
    ok_pos = _report(5, "figure snapshots: -min P", worst_neg, 1e-8)
    assert ok_mass and ok_pos


def test_criterion_6_dissipativity_random_draws():
    start = time.perf_counter()
    rng = np.random.default_rng(1234)
    worst = -math.inf
    for _ in range(1000):
        p = Params(*np.exp(rng.uniform(math.log(1e-4), math.log(10.0), 4)))
        xis = rng.uniform(-100.0, 100.0, 4)
        rule, _, modes, _ = spectral.dissipativity_rows(np.array([0.0, *xis[xis != 0.0]]), p)
        assert np.all(rule == 0), (p, rule)
        worst = max(worst, modes.max())
    # rule 0 also holds the zero modes of Q(0) within 1e-10 of zero
    assert _report(6, "Re lambda < 0 on 1000 random draws (max Re shown)",
                   worst, 0.0, time.perf_counter() - start)


def test_criterion_7_figure_shapes(figure_solutions):
    start = time.perf_counter()
    by_key = {(name, panel): (scenario, fields)
              for name, panel, scenario, fields in figure_solutions}

    scenario, fields = by_key[("fig1", "")]
    peaks = _peaks(scenario.grid.nodes, fields[200.0].rho_plus)
    n1 = len(peaks)
    offset = np.max(np.abs(np.sort(peaks) - [-4.0, 4.0])) if n1 == 2 else math.inf
    ok_two = _report(7, "fig1 t=200: exactly two maxima (count error)", abs(n1 - 2), 0.5)
    ok_at4 = _report(7, "fig1 t=200: maxima within 2*dx of +-4", offset, 2 * scenario.grid.dx)

    scenario4, fields4 = by_key[("fig4", "left")]
    n4 = len(_peaks(scenario4.grid.nodes, fields4[100.0].rho_plus))
    ok_three = _report(7, "fig4 t=100: exactly three maxima (count error)", abs(n4 - 3), 0.5,
                       time.perf_counter() - start)
    assert ok_two and ok_at4 and ok_three


def test_criterion_8_special_functions_vs_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    xs = rng.uniform(-26.0, 26.0, 1000)
    worst_erfc = max(abs(sf.erfc(x) - float(mp.erfc(mp.mpf(x)))) /
                     float(mp.erfc(mp.mpf(x))) for x in xs)
    zs = np.concatenate([rng.uniform(0.0, 20.0, 500), rng.uniform(20.0, 1e4, 500)])
    worst_j = max(max(abs(sf.bessel_j0(z) - float(mp.besselj(0, mp.mpf(z)))),
                      abs(sf.bessel_j1(z) - float(mp.besselj(1, mp.mpf(z))))) for z in zs)
    ok_erfc = _report(8, "erfc vs high-precision oracle, 1000 points (relative)",
                      worst_erfc, 1e-12, time.perf_counter() - start)
    ok_j = _report(8, "J0/J1 vs high-precision oracle, 1000 points (absolute)",
                   worst_j, 1e-12)

    # kappa_1 = d/dt kappa_0 in the distributional sense, O(dt^2) convergence
    p, t = validate.FIG4, 25.0
    theta, w = np.polynomial.legendre.leggauss(400)
    theta = 0.5 * math.pi * (theta + 1.0)
    w = 0.5 * math.pi * w

    def bump(x):
        x = np.asarray(x, dtype=float)
        r = x / 30.0
        out = np.zeros_like(x)
        ok = np.abs(r) < 1.0
        out[ok] = np.exp(-1.0 / (1.0 - r[ok] ** 2))
        return out

    def pair_k0(tt):
        cone = 2 * p.delta * tt
        y = cone * np.cos(theta)
        return float(np.sum(w * cone * np.sin(theta) * sf.kg_kernel_0(tt, y, p) * bump(y)))

    cone = 2 * p.delta * t
    y = cone * np.cos(theta)
    k1 = sf.kg_kernel_1(t, y, p)
    exact = float(np.sum(w * cone * np.sin(theta) * k1.values * bump(y)))
    exact += sum(weight * float(bump(loc)) for loc, weight in k1.delta_shifts)

    errs = [abs((pair_k0(t + dt) - pair_k0(t - dt)) / (2 * dt) - exact) for dt in (0.2, 0.1)]
    ok_small = _report(8, "kappa_1 = d/dt kappa_0 (distributional, dt=0.1)", errs[1], 1e-5)
    order = errs[0] / max(errs[1], 1e-300)
    ok_order = _report(8, "central-difference order (need >= 3.2x per halving)",
                       3.2 / order, 1.0)
    assert ok_erfc and ok_j and ok_small and ok_order
