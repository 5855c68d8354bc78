"""The even demonstration mode: naive reaction rule vs the
sign-corrected quantum reference on the same lattice."""

import numpy as np
import pytest

from ringfield import (
    advance,
    gaussian_state,
    kernel_f,
    make_lattice,
    norm_m,
    random_state,
    snapshot,
    state_from_amplitudes,
)
from ringfield.evolve import EULER
from ringfield.lattice import make_even_lattice
from ringfield.state import _new_state

from oracles import euler_step, momentum_expectation_spectral, translate


def basis_state(lattice, site):
    amps = np.zeros(lattice.n_sites, dtype=complex)
    amps[site - lattice.site_min] = 1.0
    return state_from_amplitudes(lattice, amps)


class TestGuards:
    def test_zero_state_fixed(self):
        lattice = make_even_lattice(8)
        state = _new_state(lattice, np.zeros(8), np.zeros(8))
        stepped = advance(state, EULER, 1e-3)
        assert np.all(stepped.a == 0) and np.all(stepped.b == 0)


class TestSignCorrection:
    def test_translation_flips_sign_at_seam(self):
        lattice = make_even_lattice(8)
        border = basis_state(lattice, lattice.site_max)
        moved = advance(border, "translate", 1)
        amps = moved.amplitudes()
        assert amps[0] == pytest.approx(-1.0, abs=1e-12)  # site -N/2, sign flipped
        assert np.max(np.abs(amps[1:])) < 1e-12

    def test_translation_no_flip_inside(self):
        lattice = make_even_lattice(8)
        inner = basis_state(lattice, 0)
        moved = advance(inner, "translate", 1)
        amps = moved.amplitudes()
        assert amps[1 - lattice.site_min] == pytest.approx(1.0, abs=1e-12)

    def test_plain_roll_differs_from_generator_on_even(self):
        lattice = make_even_lattice(8)
        border = basis_state(lattice, lattice.site_max)
        rolled = translate(border, 1)
        generated = advance(border, "translate", 1)
        assert np.max(np.abs(rolled.amplitudes() - generated.amplitudes())) > 1.9

    def test_kernel_momentum_matches_spectral_on_even(self):
        state = random_state(make_even_lattice(100), 3)
        assert snapshot(state, 0).momentum_expectation == pytest.approx(
            momentum_expectation_spectral(state), abs=1e-10
        )


class TestNaiveVsExact:
    def test_confined_packet_agrees_to_second_order(self):
        lattice = make_even_lattice(800)
        state = gaussian_state(lattice, 0, 5.0)
        tau = 1e-3
        naive = advance(state, EULER, tau)
        reference = advance(state, "exact", tau)
        deviation = np.linalg.norm(naive.amplitudes() - reference.amplitudes())
        assert deviation < 1e-8  # pure linearisation error, O(tau^2)

    def test_confined_matches_odd_neighbour(self):
        # far from the seam the parity of N is invisible
        even = make_even_lattice(800)
        odd = make_lattice(801)
        tau = 1e-3
        dev_even = np.linalg.norm(
            advance(gaussian_state(even, 0, 5.0), EULER, tau).amplitudes()
            - advance(gaussian_state(even, 0, 5.0), "exact", tau).amplitudes()
        )
        dev_odd = np.linalg.norm(
            euler_step(gaussian_state(odd, 0, 5.0), tau).amplitudes()
            - advance(gaussian_state(odd, 0, 5.0), "exact", tau).amplitudes()
        )
        assert dev_even == pytest.approx(dev_odd, rel=0.05)

    def test_tiny_lattice_basis_state_breaks(self):
        # a basis state at the edge label of N=4 reaches displacement
        # |d| = 3 across the seam, where the naive wrap has the wrong
        # sign; the deviation is first order in tau, far above the
        # O(tau^2) linearisation floor
        lattice = make_even_lattice(4)
        state = basis_state(lattice, lattice.site_max)
        tau = 1e-3
        naive = advance(state, EULER, tau)
        reference = advance(state, "exact", tau)
        deviation = np.linalg.norm(naive.amplitudes() - reference.amplitudes())
        assert deviation > 0.5 * tau
        # a basis state at label 0 never reaches past the seam on N=4
        centred = basis_state(lattice, 0)
        deviation_centred = np.linalg.norm(
            advance(centred, EULER, tau).amplitudes()
            - advance(centred, "exact", tau).amplitudes()
        )
        assert deviation_centred < 0.01 * deviation

    def test_wrapped_packet_breaks(self):
        lattice = make_even_lattice(800)
        state = gaussian_state(lattice, lattice.site_min, 5.0)
        tau = 1e-3
        naive = advance(state, EULER, tau)
        reference = advance(state, "exact", tau)
        deviation = np.linalg.norm(naive.amplitudes() - reference.amplitudes())
        assert deviation > 1e-5  # first order in tau, not second

    def test_naive_step_preserves_m_to_second_order(self):
        lattice = make_even_lattice(100)
        state = random_state(lattice, 5)
        tau = 1e-3
        stepped = advance(state, EULER, tau)
        assert norm_m(stepped) == pytest.approx(1.0, abs=1e-3)

    def test_exact_step_unitary_on_even(self):
        state = random_state(make_even_lattice(100), 6)
        evolved = advance(state, "exact", 0.7)
        assert norm_m(evolved) == pytest.approx(norm_m(state), abs=1e-12)

    def test_run_supports_exact_scheme_on_even(self):
        from ringfield import EvolutionConfig, run

        lattice = make_even_lattice(100)
        state = gaussian_state(lattice, 0, 4.0)
        series = run(
            state,
            EvolutionConfig(scheme="exact"),
            20,
            record_every=10,
        )
        m_values = series.column("m_total")
        assert max(abs(m - m_values[0]) for m in m_values) < 1e-12


class TestEvenKernelValues:
    def test_f_at_seam_vanishes(self):
        lattice = make_even_lattice(10)
        assert kernel_f(5, lattice) == 0.0
        assert kernel_f(-5, lattice) == 0.0

    def test_even_diagonal_matches_odd_formula(self):
        lattice = make_even_lattice(10)
        assert kernel_f(0, lattice) == pytest.approx((100 - 1) / 12, abs=1e-12)
