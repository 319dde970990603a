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
"""

import inspect

import pytest

from oqbm import cli, core, oracle, specfun, spectral


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
