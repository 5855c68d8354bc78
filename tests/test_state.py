import numpy as np
import pytest

from ringfield import (
    DegenerateStateError,
    EvolutionConfig,
    StateSpec,
    boost,
    build_state,
    combined_distribution,
    gaussian_state,
    make_lattice,
    norm_m,
    random_state,
    read_state_csv,
    state_from_amplitudes,
    uniform_state,
    write_state_csv,
)
from ringfield.evolve import advance, run
from ringfield.lattice import make_even_lattice
from ringfield.observables import (
    high_band_fraction,
    m_step_increase_exact,
    snapshot,
    snapshots,
)
from ringfield.state import _new_state, _normalize

LAT = make_lattice(801)
RNG = np.random.default_rng(5)


class TestGaussian:
    def test_unboosted_profile(self):
        state = gaussian_state(LAT, 0, 10.0, 0)
        assert np.argmax(state.a) == 400  # peak at s = 0
        assert np.all(state.b == 0.0)
        assert norm_m(state) == pytest.approx(1.0, abs=1e-12)

    def test_boost_keeps_combined_distribution(self):
        still = gaussian_state(LAT, 0, 10.0, 0)
        moving = gaussian_state(LAT, 0, 10.0, 50)
        np.testing.assert_allclose(
            combined_distribution(moving), combined_distribution(still), atol=1e-12
        )

    def test_drift_velocity_is_quantised(self):
        moving = gaussian_state(LAT, 0, 10.0, 50)
        target = 2 * LAT.reciprocal_constant * 50
        drift = snapshot(moving, 0).drift_velocity
        assert drift == pytest.approx(target, abs=1e-6)
        # frozen from the direct double-sum oracle
        assert drift == pytest.approx(0.7844176413457655, abs=1e-12)

    def test_cyclic_center(self):
        state = gaussian_state(LAT, -400, 5.0, 0)
        dist = combined_distribution(state)
        assert np.argmax(dist) == 0
        # mass wraps across the seam
        assert dist[-1] == pytest.approx(dist[1], rel=1e-12)

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            gaussian_state(LAT, 0, 0.0, 0)
        with pytest.raises(ValueError):
            gaussian_state(LAT, 0, 401.0, 0)
        with pytest.raises(ValueError):
            gaussian_state(LAT, 900, 10.0, 0)


    @pytest.mark.parametrize("sigma", [1e-160, 1e-170, 1e-300, 5e-324])
    def test_vanishing_sigma_gives_one_site(self, sigma):
        # 4 sigma^2 overflows the quotient, or underflows to 0: the
        # packet is the sigma -> 0 limit, one site, with no warning
        state = gaussian_state(LAT, 3, sigma, 7)
        distribution = combined_distribution(state)
        assert np.flatnonzero(distribution).tolist() == [3 - LAT.site_min]
        assert norm_m(state) == pytest.approx(1.0, rel=1e-15)


class TestUniform:
    def test_window_normalisation(self):
        state = uniform_state(LAT, 0, 25, 0)
        inside = np.abs(LAT.sites()) <= 25
        np.testing.assert_allclose(state.a[inside], 1 / np.sqrt(51), atol=1e-15)
        np.testing.assert_allclose(state.a[~inside], 0.0, atol=0)
        assert norm_m(state) == pytest.approx(1.0, abs=1e-12)

    def test_full_coverage_small_lattice(self):
        lat3 = make_lattice(3)
        state = uniform_state(lat3, 0, 1, 0)
        np.testing.assert_allclose(state.a, np.full(3, 1 / np.sqrt(3)), atol=1e-15)

    def test_boosted_window_drift(self):
        # the window's momentum tails reach the band edge, so the drift
        # sits below 2 g m by ~0.8%; value frozen from the double-sum oracle
        state = uniform_state(LAT, 0, 25, 10)
        drift = snapshot(state, 0).drift_velocity
        assert drift == pytest.approx(0.15563830375300763, abs=1e-12)
        target = 2 * LAT.reciprocal_constant * 10
        assert abs(drift - target) / target < 1e-2

    def test_width_validation(self):
        with pytest.raises(ValueError):
            uniform_state(LAT, 0, 0, 0)
        with pytest.raises(ValueError):
            uniform_state(LAT, 0, 401, 0)


class TestRandom:
    def test_deterministic(self):
        one = random_state(LAT, 42)
        two = random_state(LAT, 42)
        np.testing.assert_array_equal(one.a, two.a)
        np.testing.assert_array_equal(one.b, two.b)

    def test_normalised(self):
        assert norm_m(random_state(LAT, 42)) == pytest.approx(1.0, abs=1e-12)

    def test_seeds_differ(self):
        assert not np.array_equal(random_state(LAT, 42).a, random_state(LAT, 43).a)


class TestBoost:
    def test_zero_velocity_is_identity(self):
        state = random_state(LAT, 1)
        boosted = boost(state, 0.0)
        np.testing.assert_array_equal(boosted.a, state.a)
        np.testing.assert_array_equal(boosted.b, state.b)

    def test_shape_invariance_random_pairs(self):
        lat = make_lattice(101)
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(1000):
            state = state_from_amplitudes(
                lat, rng.normal(size=101) + 1j * rng.normal(size=101)
            )
            velocity = rng.uniform(-5, 5)
            boosted = boost(state, velocity)
            worst = max(
                worst,
                float(
                    np.max(
                        np.abs(
                            combined_distribution(boosted) - combined_distribution(state)
                        )
                    )
                ),
            )
        assert worst < 1e-12

    def test_composition(self):
        state = random_state(LAT, 9)
        v1, v2 = 0.0123, -0.0456
        once = boost(boost(state, v1), v2)
        direct = boost(state, v1 + v2)
        assert np.max(np.abs(once.a - direct.a)) < 1e-12
        assert np.max(np.abs(once.b - direct.b)) < 1e-12


class TestNormalise:
    def test_scales_fields(self):
        lat3 = make_lattice(3)
        state = _new_state(lat3, np.array([2.0, 0, 0]), np.zeros(3))
        assert norm_m(state) == 4.0
        np.testing.assert_allclose(_normalize(state).a, [1.0, 0, 0], atol=0)

    def test_zero_state_rejected(self):
        lat3 = make_lattice(3)
        state = _new_state(lat3, np.zeros(3), np.zeros(3))
        with pytest.raises(DegenerateStateError):
            _normalize(state)

    def test_combined_distribution_sums_to_one(self):
        state = gaussian_state(LAT, 0, 10.0, 20)
        assert np.sum(combined_distribution(state)) == pytest.approx(1.0, abs=1e-12)


class TestStateSpec:
    def test_identical_specs_identical_states(self):
        spec = StateSpec(shape="random", seed=13)
        one = build_state(LAT, spec)
        two = build_state(LAT, spec)
        np.testing.assert_array_equal(one.a, two.a)
        np.testing.assert_array_equal(one.b, two.b)

    def test_dispatch(self):
        gaussian = build_state(LAT, StateSpec(shape="gaussian", width=10.0, velocity_index=3))
        uniform = build_state(LAT, StateSpec(shape="uniform", width=25.0))
        assert norm_m(gaussian) == pytest.approx(1.0, abs=1e-12)
        assert np.count_nonzero(uniform.a) == 51
        with pytest.raises(ValueError):
            build_state(LAT, StateSpec(shape="bogus"))

    @pytest.mark.parametrize("name, build", [
        ("velocity_index", lambda: gaussian_state(make_lattice(21), 0, 3.0, 1.5)),
        ("center", lambda: uniform_state(LAT, 0.5, 3, 0)),
        ("center", lambda: build_state(LAT, StateSpec(center=2.5))),
    ], ids=["gaussian velocity", "uniform center", "spec center"])
    def test_site_labels_must_be_integers(self, name, build):
        # a fractional m jumps the boost phase at the seam
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            build()

    @pytest.mark.parametrize("name, build", [
        ("center", lambda: gaussian_state(LAT, True, 3.0)),
        ("velocity_index", lambda: uniform_state(LAT, 0, 3, False)),
        ("half_width", lambda: uniform_state(make_lattice(21), 0, 2.5)),
        ("half_width", lambda: uniform_state(LAT, 0, 3.0)),
        ("half_width", lambda: uniform_state(LAT, 0, True)),
    ], ids=["bool center", "bool velocity", "fractional half-width", "float half-width",
            "bool half-width"])
    def test_bools_and_fractions_are_no_site_counts(self, name, build):
        # a half-width of 2.5 would build the 5-site window of W = 2
        with pytest.raises(ValueError, match=f"^{name} must be an integer [(]got "):
            build()

    def test_numpy_integer_half_width_is_accepted(self):
        window = uniform_state(LAT, 0, np.int64(25), 0)
        np.testing.assert_array_equal(window.c, uniform_state(LAT, 0, 25, 0).c)

    def test_numpy_integer_site_labels_are_accepted(self):
        labelled = gaussian_state(LAT, np.int64(3), 5.0, np.int32(2))
        np.testing.assert_array_equal(labelled.c, gaussian_state(LAT, 3, 5.0, 2).c)


class TestImmutability:
    def test_fields_are_readonly(self):
        state = gaussian_state(LAT, 0, 10.0, 0)
        with pytest.raises(ValueError):
            state.a[0] = 1.0

    @pytest.mark.parametrize("field", ["b", "c"])
    def test_b_and_c_are_readonly(self, field):
        state = gaussian_state(LAT, 0, 10.0, 5)
        with pytest.raises(ValueError):
            getattr(state, field)[0] = 1.0

    def test_amplitudes_is_a_writable_copy(self):
        state = gaussian_state(LAT, 0, 10.0, 5)
        amplitudes = state.amplitudes()
        amplitudes[0] = 1.0
        assert state.c[0] != 1.0

    def test_nonfinite_rejected(self):
        lat3 = make_lattice(3)
        with pytest.raises(ValueError):
            _new_state(lat3, np.array([np.nan, 0, 0]), np.zeros(3))

    def test_new_state_keeps_negative_zeros(self):
        # a + 1j * b would turn these -0.0 into +0.0
        state = _new_state(make_lattice(3), [-0.0, 1.0, -0.0], [-0.0, -0.0, 2.0])
        assert np.signbit(state.a).tolist() == [True, False, True]
        assert np.signbit(state.b).tolist() == [True, True, False]

    def test_uniform_checkpoint_keeps_negative_zeros(self, tmp_path):
        state = uniform_state(LAT, 0, 25, 10)
        path = tmp_path / "state.csv"
        write_state_csv(state, str(path))
        assert "-0.0" in path.read_text()
        back = read_state_csv(str(path))
        assert np.array_equal(np.signbit(back.c.real), np.signbit(state.a))
        assert np.array_equal(np.signbit(back.c.imag), np.signbit(state.b))


class TestBlocks:
    """A ``FieldState`` of shape (R, N) holds R states, one per row."""

    BLOCK = state_from_amplitudes(
        LAT, [random_state(LAT, seed).c for seed in (1, 2, 3)]
    )

    def test_norm_m_per_row_is_bitwise_the_row_state(self):
        per_row = norm_m(self.BLOCK)
        assert per_row.shape == (3,)
        for i in range(3):
            assert per_row[i] == norm_m(self.BLOCK.row(i))
        assert isinstance(norm_m(self.BLOCK.row(0)), float)

    def test_snapshots_per_row_are_bitwise_the_row_snapshot(self):
        steps = [0, 10, 20]
        rows = snapshots(self.BLOCK, steps)
        assert rows == [snapshot(self.BLOCK.row(i), steps[i]) for i in range(3)]

    def test_rows_own_read_only_copies(self):
        for index in (1, [0, 2]):
            rows = self.BLOCK.row(index)
            assert rows.c.flags.owndata and not rows.c.flags.writeable
        assert self.BLOCK.row([0, 2]).c.shape == (2, LAT.n_sites)

    def test_state_from_amplitudes_takes_leading_axes(self):
        amplitudes = np.ones((2, 3, LAT.n_sites), dtype=complex)
        assert state_from_amplitudes(LAT, amplitudes).c.shape == (2, 3, LAT.n_sites)
        with pytest.raises(ValueError, match="one entry per site"):
            state_from_amplitudes(LAT, np.ones((2, LAT.n_sites + 1)))
        amplitudes[1, 2, 7] = np.inf
        with pytest.raises(ValueError, match="finite"):
            state_from_amplitudes(LAT, amplitudes)

    def test_one_state_operations_reject_a_block(self):
        for operation in (lambda: advance(self.BLOCK, "exact", 0.1, 1),
                          lambda: run(self.BLOCK, EvolutionConfig(), 2),
                          lambda: write_state_csv(self.BLOCK, "unused.csv"),
                          lambda: _new_state(LAT, self.BLOCK.a, self.BLOCK.b)):
            with pytest.raises(ValueError, match="block of rows|one entry per site"):
                operation()

    SINGLE_STATE_MEASUREMENTS = {
        "normalize": _normalize,
        "high_band_fraction": high_band_fraction,
        "m_step_increase_exact": lambda block: m_step_increase_exact(block, 1e-3),
        "snapshot": lambda block: snapshot(block, 0),
        "snapshots, too few labels": lambda block: snapshots(block, [0, 10]),
        "snapshots, too many labels": lambda block: snapshots(block, [0, 10, 20, 30]),
    }

    @pytest.mark.parametrize("name", SINGLE_STATE_MEASUREMENTS)
    def test_single_state_measurements_reject_a_block(self, name):
        with pytest.raises(ValueError, match="not a block of rows|step labels for a block"):
            self.SINGLE_STATE_MEASUREMENTS[name](self.BLOCK)

    def test_checkpoints_and_propagated_states_own_their_data(self):
        state = gaussian_state(make_lattice(101), 0, 5.0, 3)
        series = run(state, EvolutionConfig(), 20, record_every=5, checkpoint_every=10)
        for step in (10, 20):
            checkpoint = series.checkpoints[step].c
            assert checkpoint.flags.owndata and not checkpoint.flags.writeable
        for n in (5, 10):
            assert advance(state, "euler", 1e-3, n).c.flags.owndata
        assert advance(state, "exact", 0.1, 3).c.flags.owndata


class TestSerialization:
    def test_csv_round_trip(self, tmp_path):
        state = random_state(make_lattice(21), 4)
        path = tmp_path / "state.csv"
        write_state_csv(state, str(path))
        back = read_state_csv(str(path))
        np.testing.assert_array_equal(back.a, state.a)
        np.testing.assert_array_equal(back.b, state.b)
        assert back.lattice == state.lattice

    def test_csv_round_trip_even(self, tmp_path):
        state = random_state(make_even_lattice(8), 4)
        path = tmp_path / "state.csv"
        write_state_csv(state, str(path))
        back = read_state_csv(str(path))
        assert back.lattice.parity == "even"
        np.testing.assert_array_equal(back.a, state.a)

    def test_csv_header_guard(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(ValueError):
            read_state_csv(str(path))
