import math

import numpy as np
import pytest

import ringfield.observables
from ringfield import (
    DegenerateStateError,
    boost,
    count_local_maxima,
    gaussian_state,
    make_even_lattice,
    make_lattice,
    norm_m,
    random_state,
    snapshot,
    state_from_amplitudes,
    to_momentum_basis,
    uniform_state,
)
from ringfield.observables import (
    high_band_fraction,
    m_step_increase_exact,
    quartic_moment_coefficient,
)

from oracles import euler_step, momentum_expectation_spectral

LAT = make_lattice(801)


def plane_wave(lattice, k0):
    s = lattice.sites()
    amps = np.exp(2j * np.pi * k0 * s / lattice.n_sites) / np.sqrt(lattice.n_sites)
    return state_from_amplitudes(lattice, amps)


class TestDriftVelocity:
    def test_real_state_has_no_drift(self):
        state = uniform_state(LAT, 0, 25, 0)
        assert snapshot(state, 0).drift_velocity == 0.0

    def test_quantised_boost_value(self):
        state = gaussian_state(LAT, 0, 10.0, 50)
        assert snapshot(state, 0).drift_velocity == pytest.approx(
            2 * LAT.reciprocal_constant * 50, abs=1e-6
        )

    def test_drift_is_twice_momentum_on_random_states(self):
        lattice = make_lattice(101)
        for seed in range(100):
            state = random_state(lattice, seed)
            snap = snapshot(state, 0)
            assert snap.drift_velocity == pytest.approx(
                2 * snap.momentum_expectation, rel=1e-10, abs=1e-12
            )


class TestMomentumExpectation:
    def test_real_state_zero(self):
        state = gaussian_state(LAT, 0, 10.0, 0)
        assert snapshot(state, 0).momentum_expectation == pytest.approx(0.0, abs=1e-12)

    def test_plane_wave_eigenvalue(self):
        state = plane_wave(LAT, 120)
        assert snapshot(state, 0).momentum_expectation == pytest.approx(
            LAT.reciprocal_constant * 120, abs=1e-10
        )

    def test_kernel_vs_spectral_forms(self):
        for seed in range(20):
            state = random_state(LAT, seed)
            kernel_form = snapshot(state, 0).momentum_expectation
            spectral_form = momentum_expectation_spectral(state)
            assert kernel_form == pytest.approx(spectral_form, abs=1e-10)


class TestBoostShift:
    def test_quantised_boost_shifts_drift_exactly(self):
        state = gaussian_state(LAT, 0, 10.0, 0)
        m = 50
        v = 2 * LAT.reciprocal_constant * m
        shifted = boost(state, v)
        shift = snapshot(shifted, 0).drift_velocity - snapshot(state, 0).drift_velocity
        assert shift == pytest.approx(v, abs=1e-6)

    def test_shift_composes_from_nonzero_base(self):
        base = gaussian_state(LAT, 0, 10.0, 20)
        v = 2 * LAT.reciprocal_constant * 20
        shifted = boost(base, v)
        shift = snapshot(shifted, 0).drift_velocity - snapshot(base, 0).drift_velocity
        assert shift == pytest.approx(v, abs=1e-6)


class TestMomentumDistribution:
    def test_plane_wave_is_delta(self):
        state = plane_wave(LAT, -77)
        dist = np.abs(to_momentum_basis(state).coefficients) ** 2
        slot = -77 + LAT.half_width
        assert dist[slot] == pytest.approx(1.0, abs=1e-12)
        assert np.sum(dist) == pytest.approx(1.0, abs=1e-12)

    def test_high_band_fraction_extremes(self):
        edge = plane_wave(LAT, 399)
        centre = plane_wave(LAT, 0)
        assert high_band_fraction(edge) == pytest.approx(1.0, abs=1e-12)
        assert high_band_fraction(centre) == pytest.approx(0.0, abs=1e-12)

    def test_high_band_fraction_of_a_zero_state_raises(self):
        zero = state_from_amplitudes(make_lattice(21), np.zeros(21))
        with pytest.raises(DegenerateStateError, match="M > 0"):
            high_band_fraction(zero)


class TestPositionMoments:
    def test_uniform_window_mean_is_center(self):
        state = uniform_state(LAT, 37, 25, 0)
        assert snapshot(state, 0).position_mean == pytest.approx(37.0, abs=1e-6)

    def test_gaussian_spread_matches_sigma(self):
        state = gaussian_state(LAT, 0, 10.0, 0)
        assert snapshot(state, 0).position_spread == pytest.approx(10.0, abs=1e-3)

    def test_mean_wraps_correctly(self):
        state = gaussian_state(LAT, -395, 5.0, 0)
        assert snapshot(state, 0).position_mean == pytest.approx(-395.0, abs=1e-6)


MOMENT_LATTICES = [make_lattice(n) for n in (5, 21, 801, 4001)] + [
    make_even_lattice(n) for n in (100, 800)
]


def _seam_packet(lattice):
    # centred one site inside the seam, so the packet wraps
    sigma = max(1.0, lattice.half_width / 8.0)
    return gaussian_state(lattice, int(lattice.sites()[1]), sigma, lattice.half_width // 3)


def _seam_window(lattice):
    return uniform_state(lattice, int(lattice.sites()[1]), max(1, lattice.half_width // 4), 1)


MOMENT_STATES = {
    "random": lambda lattice: random_state(lattice, 5),
    "seam packet": _seam_packet,
    "seam window": _seam_window,
}


def _site_sum_moments(state):
    """Circular mean and spread (sites) of one state, summed site by
    site in Python floats with ``math.fsum``."""
    n = state.lattice.n_sites
    density = [float(a) ** 2 + float(b) ** 2 for a, b in zip(state.a, state.b)]
    angles = [2.0 * math.pi * int(s) / n for s in state.lattice.sites()]
    total = math.fsum(density)
    x = math.fsum(d * math.cos(t) for d, t in zip(density, angles)) / total
    y = math.fsum(d * math.sin(t) for d, t in zip(density, angles)) / total
    radius = math.hypot(x, y)
    to_sites = n / (2.0 * math.pi)
    return math.atan2(y, x) * to_sites, math.sqrt(-2.0 * math.log(radius)) * to_sites


@pytest.mark.parametrize("lattice", MOMENT_LATTICES, ids=lambda lat: f"N{lat.n_sites}")
@pytest.mark.parametrize("shape", MOMENT_STATES)
def test_position_moments_match_site_sums(lattice, shape):
    state = MOMENT_STATES[shape](lattice)
    snap = snapshot(state, 0)
    mean, spread = _site_sum_moments(state)
    n = lattice.n_sites
    # cyclic gap: a mean on the seam may read as +N/2 or -N/2
    gap = (snap.position_mean - mean + n / 2.0) % n - n / 2.0
    assert abs(gap) <= 1e-10 * n
    assert snap.position_spread == pytest.approx(spread, rel=1e-10)


class TestShapeResidual:
    def test_fresh_gaussian_is_gaussian(self):
        state = gaussian_state(LAT, 0, 10.0, 0)
        assert snapshot(state, 0).shape_residual < 1e-3

    def test_boost_does_not_change_residual(self):
        state = gaussian_state(LAT, 0, 10.0, 35)
        assert snapshot(state, 0).shape_residual < 1e-3

    def test_uniform_window_is_not_gaussian(self):
        state = uniform_state(LAT, 0, 25, 0)
        assert snapshot(state, 0).shape_residual > 1e-2


class TestLocalMaxima:
    def test_single_peak(self):
        state = gaussian_state(LAT, 0, 10.0, 0)
        from ringfield import combined_distribution

        assert count_local_maxima(combined_distribution(state)) == 1

    def test_flat_plateau_counts_nothing(self):
        values = np.zeros(100)
        values[40:60] = 1.0
        assert count_local_maxima(values) == 0

    def test_two_bumps(self):
        x = np.arange(100)
        values = np.exp(-((x - 25.0) ** 2) / 20) + np.exp(-((x - 70.0) ** 2) / 20)
        assert count_local_maxima(values) == 2


class TestSnapshot:
    def test_velocity_momentum_invariant(self):
        for seed in range(10):
            state = random_state(LAT, seed)
            snap = snapshot(state, 0)
            assert snap.drift_velocity == pytest.approx(
                2 * snap.momentum_expectation, abs=1e-10
            )
            assert snap.m_total >= 0.0

    def test_fields_populated(self):
        state = gaussian_state(LAT, 5, 10.0, 20)
        snap = snapshot(state, 7)
        assert snap.step == 7
        assert snap.m_total == pytest.approx(1.0, abs=1e-12)
        assert snap.position_mean == pytest.approx(5.0, abs=1e-3)
        assert snap.shape_residual < 1e-3


class TestMDriftDiagnostics:
    def test_exact_formula_matches_measured_step(self):
        state = gaussian_state(LAT, 0, 10.0, 20)
        tau = 4e-3  # tau g^2 N^2 = 0.158, past the warning threshold on purpose
        predicted = m_step_increase_exact(state, tau)
        with pytest.warns(UserWarning, match=r"tau \* g\^2 \* N\^2 = 0\.158"):
            stepped = euler_step(state, tau)
        measured = norm_m(stepped) - norm_m(state)
        assert measured == pytest.approx(predicted, rel=1e-5)

    def test_exact_formula_refuses_an_even_lattice_before_any_transform(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a transform was taken")

        state = gaussian_state(make_even_lattice(100), 0, 5.0, 3)
        monkeypatch.setattr(ringfield.observables, "momentum_coefficients", forbidden)
        monkeypatch.setattr(ringfield.observables, "_euler_increase", forbidden)
        with pytest.raises(ValueError, match="^the closed forms take an odd lattice$"):
            m_step_increase_exact(state, 1e-3)

    def test_diagonal_coefficient_near_limit(self):
        coeff = quartic_moment_coefficient(LAT)
        assert coeff == pytest.approx(np.pi**4 / 5, rel=1e-4)
