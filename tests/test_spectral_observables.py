"""The spectral momentum and drift observables against their dense
G-kernel double sums, the Parseval guard, and the bound on memory: the
run paths and the experiments outside the identity suite never build an
N x N kernel matrix."""

import warnings

import numpy as np
import pytest

import ringfield.observables
from ringfield import (
    ConsistencyError,
    EvolutionConfig,
    gaussian_state,
    make_even_lattice,
    make_lattice,
    random_state,
    run,
    snapshot,
    state_from_amplitudes,
    uniform_state,
)
from ringfield.cli import main
from ringfield.experiments import (
    compare_rows,
    confined_drift_diagnostic,
    even_odd_comparison,
    order_of_accuracy_run,
    paper_table_grid,
    qualitative_shape_run,
)
from ringfield.ioutil import fmt
from ringfield.kernels import f_site_matrix, g_site_matrix

ORACLE_RTOL = 1e-10

LATTICES = [make_lattice(n) for n in (3, 5, 21, 801)] + [
    make_even_lattice(n) for n in (100, 800)
]


def _random(lattice):
    return random_state(lattice, 11)


def _boosted(lattice):
    sigma = min(10.0, float(lattice.half_width))
    return gaussian_state(lattice, 0, sigma, max(1, lattice.half_width // 3))


def _plane_wave(lattice):
    kappa = lattice.momentum_values()[(3 * lattice.n_sites) // 4]
    s = lattice.sites()
    amps = np.exp(2j * np.pi * kappa * s / lattice.n_sites) / np.sqrt(lattice.n_sites)
    return state_from_amplitudes(lattice, amps)


STATES = {"random": _random, "boosted": _boosted, "plane wave": _plane_wave}


def _relative_gap(value, reference):
    return abs(value - reference) / abs(reference)


@pytest.mark.parametrize("lattice", LATTICES, ids=lambda lat: f"N{lat.n_sites}")
@pytest.mark.parametrize("shape", STATES)
class TestAgainstDenseOracle:
    def test_momentum_expectation(self, lattice, shape):
        state = STATES[shape](lattice)
        amps = state.amplitudes()
        g = lattice.reciprocal_constant
        dense = -1j * g * np.vdot(amps, g_site_matrix(lattice) @ amps)
        assert _relative_gap(snapshot(state, 0).momentum_expectation, dense.real) <= ORACLE_RTOL

    def test_drift_velocity(self, lattice, shape):
        state = STATES[shape](lattice)
        g = lattice.reciprocal_constant
        dense = 4.0 * g * state.a @ (g_site_matrix(lattice) @ state.b)
        assert _relative_gap(snapshot(state, 0).drift_velocity, dense) <= ORACLE_RTOL


def test_real_state_drift_prints_as_positive_zero():
    for lattice in LATTICES:
        state = uniform_state(lattice, 0, 1, 0)
        assert fmt(snapshot(state, 0).drift_velocity) == "0.0"


class TestParsevalGuard:
    @pytest.fixture
    def dropped_coefficient(self, monkeypatch):
        original = ringfield.observables.momentum_coefficients

        def drop_largest(lattice, amplitudes):
            coefficients = original(lattice, amplitudes)
            coefficients[np.argmax(np.abs(coefficients))] = 0.0
            return coefficients

        monkeypatch.setattr(ringfield.observables, "momentum_coefficients", drop_largest)

    def test_corrupted_spectrum_raises(self, dropped_coefficient):
        state = random_state(make_lattice(101), 3)
        with pytest.raises(ConsistencyError, match="Parseval"):
            snapshot(state, 0)

    def test_intact_spectrum_passes_at_large_m(self):
        state = random_state(make_lattice(101), 3)
        scaled = state_from_amplitudes(state.lattice, 1e6 * state.amplitudes())
        assert np.isfinite(snapshot(scaled, 0).momentum_expectation)


class TestNoDenseMatrixOnRunPaths:
    N_SITES = 4001

    def _cache_infos(self):
        return f_site_matrix.cache_info(), g_site_matrix.cache_info()

    def test_library_run(self):
        lattice = make_lattice(self.N_SITES)
        state = gaussian_state(lattice, 0, 50.0, 20)
        before = self._cache_infos()
        series = run(state, EvolutionConfig(), 3, record_every=1)
        assert self._cache_infos() == before
        assert len(series.snapshots) == 4

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_cli(self, command, tmp_path):
        before = self._cache_infos()
        code = main([
            command, "--n-sites", str(self.N_SITES), "--width", "50",
            "--n-steps", "3", "--record-every", "1", "--csv", str(tmp_path / "out.csv"),
        ])
        assert code == 0
        assert self._cache_infos() == before


GAUSSIAN_801 = gaussian_state(make_lattice(801), 0, 10.0, 20)
PRODUCTION_PATHS = {
    "order_of_accuracy_run": order_of_accuracy_run,
    "paper_table_grid": lambda: paper_table_grid(n_steps=10),
    "compare_rows": lambda: compare_rows(GAUSSIAN_801, 1e-3, 20, 5),
    "run odd": lambda: run(GAUSSIAN_801, EvolutionConfig(), 20, 5),
    "run even": lambda: run(gaussian_state(make_even_lattice(800), 0, 10.0, 20),
                            EvolutionConfig(), 20, 5),
    "qualitative_shape_run": qualitative_shape_run,
    "confined_drift_diagnostic": confined_drift_diagnostic,
    "even_odd_comparison": lambda: even_odd_comparison(n_steps=1),
}


@pytest.mark.parametrize("name", PRODUCTION_PATHS)
def test_production_paths_build_no_dense_matrix(name):
    """Only the identity suite and the test oracles build F or G: the
    builders are neither called nor read from their caches."""
    f_site_matrix.cache_clear()
    g_site_matrix.cache_clear()
    with warnings.catch_warnings():
        # the table's two larger time steps pass the warning threshold by design
        warnings.filterwarnings("ignore", r"tau \* g\^2 \* N\^2", UserWarning)
        PRODUCTION_PATHS[name]()
    for info in (f_site_matrix.cache_info(), g_site_matrix.cache_info()):
        assert (info.hits, info.misses) == (0, 0)
