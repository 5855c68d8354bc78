"""The conservation table measures only M and <V>, from real-input
field spectra, and reports the numbers a full ``run`` records.

Also: the real-input transform against the complex one, the tabulated
kernel oracle sums against complex exponentials, and the bound on the
dense site-matrix caches."""

import numpy as np
import pytest

import ringfield.observables
from ringfield import EvolutionConfig, make_lattice, paper_table_run, run
from ringfield.basis import momentum_coefficients
from ringfield.experiments import (
    TABLE_SHAPES,
    TABLE_TAUS,
    _direct_kernel_sums,
    _relative_variation,
    table_state,
)
from ringfield.kernels import f_site_matrix, g_site_matrix, kernel_f
from ringfield.lattice import make_even_lattice

TABLE_CASES = [
    (shape, tau, n_steps)
    for shape in TABLE_SHAPES
    for tau in TABLE_TAUS
    for n_steps in (0, 50)
]


@pytest.mark.filterwarnings("ignore:tau \\* g\\^2 \\* N\\^2")
@pytest.mark.parametrize("shape, tau, n_steps", TABLE_CASES)
def test_table_row_equals_the_run_columns(shape, tau, n_steps):
    report = paper_table_run(shape, tau, n_steps=n_steps)
    state = table_state(make_lattice(801), shape)
    series = run(state, EvolutionConfig(tau=tau), n_steps, record_every=10)
    assert report.metrics["relative variation of M"] == _relative_variation(
        series.column("m_total")
    )
    assert report.metrics["relative variation of <V>"] == _relative_variation(
        series.column("drift_velocity")
    )


def test_table_row_measures_no_position_moments(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("position moments measured")

    monkeypatch.setattr(ringfield.observables, "_circular_moments", forbidden)
    monkeypatch.setattr(ringfield.observables, "_shape_residual", forbidden)
    state = table_state(make_lattice(801), "gaussian")
    with pytest.raises(AssertionError, match="position moments"):
        run(state, EvolutionConfig(), 50)  # the patch reaches the full path
    report = paper_table_run("gaussian", 1e-3, n_steps=50)
    assert report.metrics["relative variation of M"] > 0.0


def _lattice(n):
    return make_lattice(n) if n % 2 else make_even_lattice(n)


@pytest.mark.parametrize("n", [3, 5, 801, 6, 800])
def test_real_rows_match_the_complex_transform(n):
    lattice = _lattice(n)
    rows = np.random.default_rng(n).normal(size=(4, n))
    real = momentum_coefficients(lattice, rows)
    complex_cast = momentum_coefficients(lattice, rows.astype(complex))
    assert real.shape == complex_cast.shape == (4, n)
    gap = np.max(np.abs(real - complex_cast))
    assert gap <= 1e-15 * np.max(np.abs(complex_cast))


@pytest.mark.parametrize("n", [3, 801, 6, 800])
def test_zero_rows_give_zero_coefficients(n):
    coefficients = momentum_coefficients(_lattice(n), np.zeros((3, n)))
    assert np.all(coefficients == 0.0)


def complex_exp_sums(n):
    """The direct sums with complex exponentials, as ``kernels`` defines them."""
    half = (n - 1) // 2
    d = np.arange(-2 * half, 2 * half + 1)
    k = np.arange(-half, half + 1).astype(float)
    phases = np.exp(2j * np.pi * np.multiply.outer(k, d) / n)
    return d, ((k**2) @ phases / n).real, (1j * (k @ phases) / n).real


@pytest.mark.parametrize("n", [3, 5, 7, 21, 101])
def test_tabulated_oracle_sums_match_complex_exponentials(n):
    lattice = make_lattice(n)
    d, f_sums, g_sums = _direct_kernel_sums(lattice)
    d_ref, f_ref, g_ref = complex_exp_sums(n)
    np.testing.assert_array_equal(d, d_ref)
    scale = 1e-12 * kernel_f(0, lattice)
    assert np.max(np.abs(f_sums - f_ref)) <= scale
    assert np.max(np.abs(g_sums - g_ref)) <= scale


def test_site_matrix_caches_stay_bounded():
    for n in (3, 5, 7, 9):
        f_site_matrix(make_lattice(n))
        g_site_matrix(make_lattice(n))
    assert f_site_matrix.cache_info().currsize <= 2
    assert g_site_matrix.cache_info().currsize <= 2
