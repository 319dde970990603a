"""Parameter names that the benchmark harness under bench/ binds by name.

bench/tracer.py binds each traced call's arguments to the callee's signature:
it counts fd_integrate's degree-30 Taylor steps from its (p, ic, t_end, grid,
dt, snapshot_times, richardson) through auto_time_step(p, grid), and sizes the
work of the kernels, Bessel functions, erfc products, symbol exponentials and
CSV writes from the arguments named below.  bench/test_smoke.py runs validate
only at the fast level, which never calls fd_integrate, so a renamed or
dropped parameter would first show in a full traced run.
"""

import inspect

import pytest

from oqbm import cli, oracle, specfun, spectral


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
