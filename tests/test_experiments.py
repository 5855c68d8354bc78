import json

import numpy as np
import pytest

import ringfield.experiments
from ringfield import (
    confined_drift_diagnostic,
    euler_step,
    even_odd_comparison,
    identity_suite,
    kernel_oracle_check,
    make_lattice,
    order_of_accuracy_run,
    paper_table_run,
    state_from_amplitudes,
)
from ringfield.evolve import _dense_euler_step
from ringfield.experiments import IDENTITY_TAU, ExperimentReport, _relative_variation
from ringfield.kernels import f_site_matrix

from oracles import identity_m_drift_residual


class TestRelativeVariation:
    def test_constant_series(self):
        assert _relative_variation([2.0, 2.0, 2.0]) == 0.0

    def test_normalised_by_first(self):
        assert _relative_variation([2.0, 2.2, 1.9]) == pytest.approx(0.1)

    def test_zero_start_falls_back_to_absolute(self):
        assert _relative_variation([0.0, 0.5]) == 0.5


class TestIdentitySuite:
    def test_small_lattices_pass(self):
        report = identity_suite(n_sites_list=(3, 5, 9), states_per_n=10)
        assert report.passed
        assert report.metrics["max relative M drift residual"] < 1e-10
        assert report.metrics["max convolution residual (scaled)"] < 1e-8

    def test_deterministic(self):
        one = identity_suite(n_sites_list=(3, 5), states_per_n=5, seed=3)
        two = identity_suite(n_sites_list=(3, 5), states_per_n=5, seed=3)
        assert json.dumps(one.to_json_obj()) == json.dumps(two.to_json_obj())

    @pytest.mark.parametrize("n_sites_list, states_per_n, seed", [
        ((3, 5, 9), 10, 0),
        ((15, 21), 7, 3),
    ])
    def test_block_step_matches_the_per_state_oracle(self, n_sites_list, states_per_n, seed):
        report = identity_suite(n_sites_list, states_per_n, seed)
        expected = identity_m_drift_residual(n_sites_list, states_per_n, seed, IDENTITY_TAU)
        assert report.metrics["max relative M drift residual"] == expected

    @pytest.mark.parametrize("n", [3, 21, 101])
    def test_dense_step_on_a_block_is_euler_step_per_row(self, n):
        lattice = make_lattice(n)
        rng = np.random.default_rng(n)
        rows = rng.uniform(-1.0, 1.0, (6, n)) + 1j * rng.uniform(-1.0, 1.0, (6, n))
        a, b = _dense_euler_step(lattice, rows.real, rows.imag, 1e-4)
        for row, (row_a, row_b) in enumerate(zip(a, b)):
            one = euler_step(state_from_amplitudes(lattice, rows[row]), 1e-4)
            assert np.array_equal(row_a, one.a) and np.array_equal(row_b, one.b)

    def test_dropped_creation_term_fails_the_drift_check(self, monkeypatch):
        def without_created_b(lattice, a, b, tau):
            fmat = f_site_matrix(lattice)
            scale = tau * lattice.reciprocal_constant**2
            return a + scale * np.matmul(fmat, b[..., None])[..., 0], b

        monkeypatch.setattr(ringfield.experiments, "_dense_euler_step", without_created_b)
        report = identity_suite(n_sites_list=(3, 5, 9), states_per_n=10)
        drift = next(c for c in report.checks if c.name == "one-step M drift identity")
        assert not drift.passed and not report.passed

    def test_nan_in_the_g_kernel_fails_the_commutator_check(self, monkeypatch):
        original = ringfield.experiments.g_site_matrix

        def with_nan(lattice):
            gmat = original(lattice).copy()
            if lattice.n_sites == 5:
                gmat[0, 1] = np.nan
            return gmat

        monkeypatch.setattr(ringfield.experiments, "g_site_matrix", with_nan)
        report = identity_suite(n_sites_list=(3, 5, 9), states_per_n=4)
        commutator = next(c for c in report.checks if c.name == "F/G commutator vanishes")
        assert np.isnan(commutator.value)
        assert not commutator.passed and not report.passed


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


class TestPaperTableRun:
    def test_short_run_is_ungated(self):
        report = paper_table_run("gaussian", 1e-3, n_steps=50)
        assert report.passed  # bands only gate the canonical 1000-step run
        assert all(not c.gated for c in report.checks)

    def test_deterministic_reports(self):
        one = paper_table_run("random", 1e-3, n_steps=20, seed=5)
        two = paper_table_run("random", 1e-3, n_steps=20, seed=5)
        assert json.dumps(one.to_json_obj()) == json.dumps(two.to_json_obj())

    def test_zero_steps_zero_variation(self):
        report = paper_table_run("uniform", 1e-3, n_steps=0)
        assert report.metrics["relative variation of M"] == 0.0
        assert report.metrics["relative variation of <V>"] == 0.0


class TestOrderOfAccuracy:
    def test_orders_are_two(self):
        report = order_of_accuracy_run()
        assert report.passed
        for key, value in report.metrics.items():
            if key.startswith("order:"):
                assert value == pytest.approx(2.0, abs=0.1)


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
