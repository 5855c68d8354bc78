import numpy as np
import pytest

from oracles import direct_coefficients
from ringfield import (
    make_lattice,
    norm_m,
    random_state,
    state_from_amplitudes,
    to_momentum_basis,
)
from ringfield.basis import momentum_coefficients, site_amplitudes
from ringfield.evolve import EULER, EXACT, _power_blocks
from ringfield.lattice import make_even_lattice

RNG = np.random.default_rng(11)


def basis_state(lattice, site):
    amps = np.zeros(lattice.n_sites, dtype=complex)
    amps[site - lattice.site_min] = 1.0
    return state_from_amplitudes(lattice, amps)


class TestUnbiasedness:
    def test_position_state_spreads_evenly(self):
        lat = make_lattice(7)
        spectrum = to_momentum_basis(basis_state(lat, 0))
        np.testing.assert_allclose(
            np.abs(spectrum.coefficients), np.full(7, 1 / np.sqrt(7)), atol=1e-14
        )

    def test_plane_wave_is_delta(self):
        lat = make_lattice(31)
        k0 = 5
        s = lat.sites()
        amps = np.exp(2j * np.pi * k0 * s / 31) / np.sqrt(31)
        spectrum = to_momentum_basis(state_from_amplitudes(lat, amps))
        expected = np.zeros(31)
        expected[k0 + 15] = 1.0
        np.testing.assert_allclose(np.abs(spectrum.coefficients) ** 2, expected, atol=1e-14)
        # and the phase convention makes the nonzero coefficient real positive
        assert spectrum.coefficients[k0 + 15].real == pytest.approx(1.0, abs=1e-12)


class TestRoundTrip:
    @pytest.mark.parametrize("n", [3, 5, 21, 101, 801])
    def test_odd_round_trip(self, n):
        lat = make_lattice(n)
        state = random_state(lat, seed=n)
        back = site_amplitudes(lat, momentum_coefficients(lat, state.c))
        assert np.max(np.abs(back - state.amplitudes())) < 1e-12

    @pytest.mark.parametrize("n", [4, 8, 100, 800])
    def test_even_round_trip(self, n):
        lat = make_even_lattice(n)
        state = random_state(lat, seed=n)
        back = site_amplitudes(lat, momentum_coefficients(lat, state.c))
        assert np.max(np.abs(back - state.amplitudes())) < 1e-12

    @pytest.mark.parametrize("n", [21, 801, 8, 800])
    def test_unitarity(self, n):
        lattice = make_lattice(n) if n % 2 else make_even_lattice(n)
        state = random_state(lattice, seed=3 * n)
        spectrum = to_momentum_basis(state)
        assert abs(float(np.sum(np.abs(spectrum.coefficients) ** 2)) - norm_m(state)) < 1e-10


class TestEvenBasis:
    def test_momenta_are_half_integers(self):
        lat = make_even_lattice(6)
        np.testing.assert_array_equal(lat.momentum_values(), [-2.5, -1.5, -0.5, 0.5, 1.5, 2.5])

    def test_half_integer_plane_wave_is_delta(self):
        lat = make_even_lattice(16)
        kappa0 = 1.5
        s = lat.sites()
        amps = np.exp(2j * np.pi * kappa0 * s / 16) / 4.0
        spectrum = to_momentum_basis(state_from_amplitudes(lat, amps))
        occupation = np.abs(spectrum.coefficients) ** 2
        slot = list(lat.momentum_values()).index(kappa0)
        assert occupation[slot] == pytest.approx(1.0, abs=1e-12)
        assert np.sum(occupation) == pytest.approx(1.0, abs=1e-12)


def _lattice(n):
    return make_lattice(n) if n % 2 else make_even_lattice(n)


class TestDirectSum:
    """The FFT path against the O(N^2) sum, which takes no FFT."""

    @pytest.mark.parametrize("n", [3, 5, 21, 801, 4, 6, 100, 800])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_coefficients_match_the_direct_sum(self, n, field):
        lattice = _lattice(n)
        rng = np.random.default_rng(n)
        rows = rng.normal(size=(3, n))
        if field == "complex":
            rows = rows + 1j * rng.normal(size=(3, n))
        for amplitudes in (rows[0], rows):  # one state and a block
            oracle = direct_coefficients(lattice, amplitudes)
            coefficients = momentum_coefficients(lattice, amplitudes)
            assert coefficients.shape == oracle.shape == amplitudes.shape
            assert np.max(np.abs(coefficients - oracle)) <= 1e-12 * np.max(np.abs(oracle))


@pytest.mark.parametrize("n, kind", [(21, EULER), (21, EXACT), (20, EULER), (20, EXACT)])
@pytest.mark.parametrize("steps", [[0], [0, 5]], ids=["no step", "steps"])
def test_step_zero_row_carries_the_state_spectrum(n, kind, steps):
    """The coefficient row ``_power_blocks`` yields at n = 0 is the
    state's own spectrum, bit for bit."""
    state = random_state(_lattice(n), 7)
    (_ns, _block, coefficients), *_rest = _power_blocks(state, kind, 1e-3, steps)
    expected = to_momentum_basis(state).coefficients
    assert coefficients.shape == (len(steps), n)
    assert coefficients[0].tobytes() == expected.tobytes()
