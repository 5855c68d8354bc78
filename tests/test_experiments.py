import json
import tracemalloc
import warnings

import numpy as np
import pytest

import ringfield.experiments
from ringfield import (
    TimestepBoundError,
    confined_drift_diagnostic,
    even_odd_comparison,
    gaussian_state,
    identity_suite,
    kernel_oracle_check,
    make_lattice,
    norm_m,
    order_of_accuracy_run,
    paper_table_grid,
    qualitative_shape_run,
    state_from_amplitudes,
)
from ringfield.basis import momentum_coefficients
from ringfield.experiments import (
    DEFAULT_SEED,
    GAUSSIAN_SIGMA,
    GAUSSIAN_VELOCITY_INDEX,
    IDENTITY_MAX_SITES,
    IDENTITY_STATES_PER_N,
    IDENTITY_TAU,
    N_SITES,
    ORDER_TAUS,
    ExperimentReport,
    _dense_reaction_step,
    _relative_variation,
)

from oracles import deviation_decimal, euler_step, f_site_matrix, identity_m_drift_residual

DEVIATION_RTOL = 1e-14  # as ``compare``'s deviation is held


class TestRelativeVariation:
    def test_constant_series(self):
        assert _relative_variation([2.0, 2.0, 2.0]) == 0.0

    def test_normalised_by_first(self):
        assert _relative_variation([2.0, 2.2, 1.9]) == pytest.approx(0.1)

    def test_zero_start_falls_back_to_absolute(self):
        assert _relative_variation([0.0, 0.5]) == 0.5


class TestIdentitySuite:
    def test_small_lattices_pass(self):
        report = identity_suite(n_sites_list=(3, 5, 9))
        assert report.passed
        assert report.metrics["max relative M drift residual"] < 1e-10
        assert report.metrics["max convolution residual (scaled)"] < 1e-8

    def test_deterministic(self):
        one = identity_suite(n_sites_list=(3, 5))
        two = identity_suite(n_sites_list=(3, 5))
        assert json.dumps(one.to_json_obj()) == json.dumps(two.to_json_obj())

    @pytest.mark.parametrize("n_sites_list", [(3, 5, 9), (15, 21)])
    def test_block_step_matches_the_per_state_oracle(self, n_sites_list):
        report = identity_suite(n_sites_list)
        expected = identity_m_drift_residual(
            n_sites_list, IDENTITY_STATES_PER_N, DEFAULT_SEED, IDENTITY_TAU
        )
        assert report.metrics["max relative M drift residual"] == expected

    @pytest.mark.parametrize("n", [3, 21, 101])
    def test_dense_step_on_a_block_is_euler_step_per_row(self, n):
        """The suite's step of a block is, row by row, bitwise the
        oracle's ``euler_step``."""
        lattice = make_lattice(n)
        rng = np.random.default_rng(n)
        rows = rng.uniform(-1.0, 1.0, (6, n)) + 1j * rng.uniform(-1.0, 1.0, (6, n))
        scale = 1e-4 * lattice.reciprocal_constant**2
        a, b = _dense_reaction_step(f_site_matrix(lattice), scale, rows.real, rows.imag)
        for row, (row_a, row_b) in enumerate(zip(a, b)):
            one = euler_step(state_from_amplitudes(lattice, rows[row]), 1e-4)
            assert np.array_equal(row_a, one.a) and np.array_equal(row_b, one.b)

    def test_dropped_creation_term_fails_the_drift_check(self, monkeypatch):
        def without_created_b(fmat, scale, a, b):
            return a + scale * np.matmul(fmat, b[..., None])[..., 0], b

        monkeypatch.setattr(ringfield.experiments, "_dense_reaction_step", without_created_b)
        report = identity_suite(n_sites_list=(3, 5, 9))
        drift = next(c for c in report.checks if c.name == "one-step M drift identity")
        assert not drift.passed and not report.passed

    def test_perturbed_f_fails_the_convolution_check(self, monkeypatch):
        # scaled, not shifted: F's rows sum to 0 (kappa = 0), so F F does
        # not see a constant added to F at first order
        original = ringfield.experiments.kernel_f
        monkeypatch.setattr(ringfield.experiments, "kernel_f",
                            lambda d, lattice: original(d, lattice) * (1.0 + 1e-6))
        report = identity_suite(n_sites_list=(3, 5, 9))
        convolution = next(c for c in report.checks if c.name == "F*F convolution identity")
        assert not convolution.passed and not report.passed

    def test_memory_stays_quadratic_in_n(self):
        """The direct k^4 sum is taken per residue d mod N, so no
        (N, N, N) array is built: an N^3 one at N = 101 took 34 MB."""
        tracemalloc.start()
        try:
            assert identity_suite((101,)).passed
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_nan_in_the_g_kernel_fails_the_commutator_check(self, monkeypatch):
        original = ringfield.experiments.kernel_g

        def with_nan(d, lattice):
            gmat = original(d, lattice)
            if lattice.n_sites == 5:
                gmat[0, 1] = np.nan
            return gmat

        monkeypatch.setattr(ringfield.experiments, "kernel_g", with_nan)
        report = identity_suite(n_sites_list=(3, 5, 9))
        commutator = next(c for c in report.checks if c.name == "F/G commutator vanishes")
        assert np.isnan(commutator.value)
        assert not commutator.passed and not report.passed

    @staticmethod
    def _forbid_kernel_matrices(patch):
        def forbidden(d, lattice):
            raise AssertionError("dense kernel matrix built")

        patch.setattr(ringfield.experiments, "kernel_f", forbidden)
        patch.setattr(ringfield.experiments, "kernel_g", forbidden)

    def test_refuses_a_lattice_past_its_cap(self, monkeypatch):
        """Every lattice is held to the cap before the first matrix of
        any lattice is built."""
        assert IDENTITY_MAX_SITES == 801
        with monkeypatch.context() as patch:
            self._forbid_kernel_matrices(patch)
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="^identity_suite builds dense matrices "
                                   "for N <= 801 only [(]got N = 803[)]$"):
                    identity_suite((3, IDENTITY_MAX_SITES + 2))
                _current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 2**20
        # a lattice at the cap is built; shown on a lowered cap
        monkeypatch.setattr(ringfield.experiments, "IDENTITY_MAX_SITES", 21)
        assert identity_suite((21,)).passed
        with pytest.raises(ValueError, match="N <= 21 only"):
            identity_suite((23,))

    def test_checks_the_tau_bound_before_any_matrix(self, monkeypatch):
        # tau g^2 N^2 = 0.02 (2 pi)^2 = 0.79, past the limit of 0.5
        self._forbid_kernel_matrices(monkeypatch)
        monkeypatch.setattr(ringfield.experiments, "IDENTITY_TAU", 0.02)
        with pytest.raises(TimestepBoundError):
            identity_suite((3, 5))


class TestKernelOracle:
    def test_clean_check_passes(self):
        report = kernel_oracle_check(n_sites_list=(3, 5, 21))
        assert report.passed

    def test_injected_error_fails(self):
        report = kernel_oracle_check(n_sites_list=(3, 5), perturbation=1e-6)
        assert not report.passed
        failing = [c.name for c in report.checks if not c.passed]
        assert any("kernel F" in name for name in failing)

    @pytest.mark.parametrize("kernel, name", [("kernel_f", "kernel F"), ("kernel_g", "kernel G")])
    @pytest.mark.parametrize("side", [-1, 1])
    def test_closed_form_wrong_on_one_side_fails(self, monkeypatch, kernel, name, side):
        """A closed form that is wrong only at negative (or only at
        positive) displacements must fail: the direct sums at d and -d
        are taken separately."""
        closed_form = getattr(ringfield.experiments, kernel)

        def one_sided(d, lattice):
            value = closed_form(d, lattice)
            return value + 1e-6 * lattice.n_sites * (side * np.asarray(d) > 0)

        monkeypatch.setattr(ringfield.experiments, kernel, one_sided)
        report = kernel_oracle_check(n_sites_list=(3, 21, 801))
        failing = [c.name for c in report.checks if not c.passed]
        assert failing == [f"{name} closed form vs spectral sum"]


@pytest.mark.parametrize("call, message", [
    (lambda: identity_suite([]), "at least one lattice"),
    (lambda: kernel_oracle_check([]), "at least one lattice"),
], ids=["identity suite without lattices", "kernel oracle without lattices"])
def test_a_report_that_would_check_nothing_raises_before_any_work(monkeypatch, call, message):
    # an empty report would read PASS
    def no_work(*args):
        raise AssertionError("a lattice was built")

    monkeypatch.setattr(ringfield.experiments, "make_lattice", no_work)
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.filterwarnings("ignore:tau \\* g\\^2 \\* N\\^2")
class TestPaperTableRun:
    """A run of the table, through its one entry point ``paper_table_grid``."""

    def test_short_run_is_ungated(self):
        report = paper_table_grid(n_steps=50)
        assert report.passed  # bands only gate the canonical 1000-step run
        assert all(not c.gated for c in report.checks)

    def test_deterministic_reports(self):
        one = paper_table_grid(n_steps=20, seed=5)
        two = paper_table_grid(n_steps=20, seed=5)
        assert json.dumps(one.to_json_obj()) == json.dumps(two.to_json_obj())

    def test_zero_steps_zero_variation(self):
        report = paper_table_grid(n_steps=0)
        assert report.metrics["uniform tau=0.001 var M"] == 0.0
        assert report.metrics["uniform tau=0.001 var <V>"] == 0.0


class TestOrderOfAccuracy:
    def test_orders_are_two(self):
        report = order_of_accuracy_run()
        assert report.passed
        for key, value in report.metrics.items():
            if key.startswith("order:"):
                assert value == pytest.approx(2.0, abs=0.1)

    def test_its_deliberate_step_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert order_of_accuracy_run().passed

    def test_deviations_match_the_decimal_oracle(self):
        """The one-step deviations, times sqrt(M) again, against a
        50-digit evaluation of |(1 - i x) - exp(-i x)| from the same
        float64 occupation and x (not against the site-space difference
        of the two states, which cancels)."""
        report = order_of_accuracy_run()
        state = gaussian_state(make_lattice(N_SITES), 0, GAUSSIAN_SIGMA, GAUSSIAN_VELOCITY_INDEX)
        lattice = state.lattice
        occupation = np.abs(momentum_coefficients(lattice, state.c)) ** 2
        g, kappa = lattice.reciprocal_constant, lattice.momentum_values()
        for tau in ORDER_TAUS:
            (want,) = deviation_decimal(occupation, tau * g * g * (kappa * kappa), [1])
            got = report.metrics[f"err(tau={tau:g}) euler vs exact"] * np.sqrt(norm_m(state))
            assert abs(got - float(want)) <= DEVIATION_RTOL * float(want)

    def test_the_hard_tau_limit_still_raises(self, monkeypatch):
        # tau g^2 N^2 = 0.02 (2 pi)^2 = 0.79, past the limit of 0.5
        monkeypatch.setattr(ringfield.experiments, "ORDER_TAUS", (2e-2, 1e-2))
        with pytest.raises(TimestepBoundError):
            order_of_accuracy_run()


class TestEvenOddComparison:
    def test_small_scale_structure(self):
        report = even_odd_comparison(n_even=100, n_odd=101, sigma=4.0, n_steps=20)
        assert report.metrics["wrapped even deviation"] > 0
        assert report.checks[0].name.startswith("confined")
        # the breakdown is visible already at this size
        assert report.metrics["wrapped/odd ratio"] > 100


class TestConfinedDriftDiagnostic:
    def test_diagonal_gate_passes(self):
        report = confined_drift_diagnostic()
        assert report.passed
        gated = [c for c in report.checks if c.gated]
        assert len(gated) == 1 and gated[0].value < 0.05


class TestQualitativeShapes:
    def test_gaussian_stays_ten_sigma_clear_of_the_wrap(self):
        """The gaussian's spread and residual are read at every record,
        and they hold only 10 sigma clear of the wrap point; its widest
        record, the last since its width grows monotonically, is."""
        report = qualitative_shape_run()
        (monotone,) = [c for c in report.checks if c.name == "gaussian width growth monotone"]
        assert monotone.passed
        growth = report.metrics["gaussian width growth factor"]
        assert 10 * GAUSSIAN_SIGMA * growth < N_SITES / 2


class TestReportRendering:
    def test_text_contains_status_lines(self):
        report = kernel_oracle_check(n_sites_list=(3,))
        text = report.to_text()
        assert "[PASS]" in text and "result: PASS" in text

    def test_json_round_trips_through_dumps(self):
        report = kernel_oracle_check(n_sites_list=(3,))
        payload = json.dumps(report.to_json_obj(), sort_keys=True)
        assert json.loads(payload)["passed"] is True

    def test_write_json_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        kernel_oracle_check(n_sites_list=(3, 5)).write_json(str(p1))
        kernel_oracle_check(n_sites_list=(3, 5)).write_json(str(p2))
        assert p1.read_bytes() == p2.read_bytes()


class TestExperimentReportType:
    def test_gating_logic(self):
        from ringfield.experiments import Check

        report = ExperimentReport(
            name="demo", params={}, metrics={},
            checks=(
                Check("hard", 1.0, "<= 2", True, gated=True),
                Check("soft", 9.9, "informational", True, gated=False),
            ),
        )
        assert report.passed
