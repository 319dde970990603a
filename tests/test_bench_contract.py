"""Names and parameters that the benchmark harness under bench/ binds.

bench/tracer.py binds each traced call's arguments to the callee's signature:
it counts fd_integrate's Taylor steps from its (p, ic, t_end, grid,
dt, snapshot_times, richardson) through auto_time_step(p, grid), and sizes the
work of the kernels, Bessel functions, erfc products, symbol exponentials and
CSV writes from the arguments named below.  bench/test_smoke.py runs validate
only at the fast level, which never calls fd_integrate, so a renamed or
dropped parameter would first show in a full traced run.

bench/gate.py builds its reference spectrum from core.initial_spectrum(ic,
xis) on a grid's fourier_nodes and pulls every spectral snapshot back with
SpatialGrid.inverse_transform; bench/tracer.py wraps forward_transform and
inverse_transform through vars(SpatialGrid), so a traced run raises KeyError
without either.  Only bench/test_smoke.py, outside tier-1, would see them go.

bench/run.py, bench/workloads.py and bench/gate.py also call the CLI's run
functions, core.plan_grid and spectral.solve with the arguments pinned at
the end of this file, and name validate's per-layer metrics by its check
functions' names.
"""

import inspect

import pytest

from oqbm import cli, core, oracle, specfun, spectral, validate


def _names(fn) -> list:
    return list(inspect.signature(fn).parameters)


def test_fd_integrate_parameters():
    assert _names(oracle.fd_integrate) == [
        "p", "ic", "t_end", "grid", "dt", "snapshot_times", "richardson",
    ]


def test_auto_time_step_parameters():
    assert _names(oracle.auto_time_step) == ["p", "grid"]


@pytest.mark.parametrize("name", ["heat_kernel", "h_plus", "h_minus", "phi_plus", "phi_minus"])
def test_kernels_take_x(name):
    assert "x" in _names(getattr(specfun, name))


@pytest.mark.parametrize("name", ["bessel_j0", "bessel_j1", "bessel_j1_over_z"])
def test_bessel_functions_take_z(name):
    assert "z" in _names(getattr(specfun, name))


def test_scaled_erfc_product_parameters():
    assert _names(specfun.scaled_erfc_product) == ["gauss_exponent", "b"]


def test_exp_symbols_takes_xis_first():
    assert _names(spectral.exp_symbols)[0] == "xis"


def test_write_snapshot_csv_parameters():
    assert _names(cli.write_snapshot_csv) == ["path", "field"]


def test_grid_transforms_are_class_attributes():
    assert {"forward_transform", "inverse_transform"} <= set(vars(core.SpatialGrid))


def test_grid_has_fourier_nodes():
    assert hasattr(core.SpatialGrid(8.0, 16), "fourier_nodes")


def test_initial_spectrum_parameters():
    assert _names(core.initial_spectrum) == ["ic", "xis"]


def test_spectral_solve_takes_its_first_four_positionally():
    # bench/gate.py calls solve(p, ic, t, grid) on every spectral snapshot
    params = list(inspect.signature(spectral.solve).parameters.values())
    assert [q.name for q in params[:4]] == ["p", "ic", "t", "grid"]
    assert all(q.kind is q.POSITIONAL_OR_KEYWORD for q in params[:4])
    assert all(q.default is not q.empty for q in params[4:])


def test_run_functions_take_the_keywords_bench_passes():
    # bench/run.py: run_solve(config, out_dir, threads=, prefix=),
    # run_figure(name, out_dir, threads=) and run_validate(level, stream=)
    assert {"threads", "prefix"} <= set(_names(cli.run_solve))
    assert "threads" in _names(cli.run_figure)
    assert "stream" in _names(cli.run_validate)


def test_plan_grid_takes_t_max():
    # bench/workloads.py sizes the general-rate draw by plan_grid(ic, params, t_max=...)
    assert "t_max" in _names(core.plan_grid)


def test_validate_checks_are_named_check_something():
    # bench/run.py strips "check_" from each name to name its per-layer metrics
    assert all(fn.__name__.startswith("check_") for fn in validate.FULL_CHECKS)
