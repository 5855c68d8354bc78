import numpy as np
import pytest

import ringfield.evolve
from ringfield import (
    EvolutionConfig,
    TimestepBoundError,
    advance,
    make_even_lattice,
    make_lattice,
    norm_m,
    random_state,
    gaussian_state,
    run,
    snapshot,
    state_from_amplitudes,
    to_momentum_basis,
)
from ringfield.evolve import EULER, EXACT
from ringfield.state import _new_state

from oracles import euler_step, translate

LAT = make_lattice(801)
LAT3 = make_lattice(3)


def basis_state(lattice, site):
    amps = np.zeros(lattice.n_sites, dtype=complex)
    amps[site - lattice.site_min] = 1.0
    return state_from_amplitudes(lattice, amps)


class TestEulerStep:
    def test_zero_state_fixed(self):
        state = _new_state(LAT3, np.zeros(3), np.zeros(3))
        stepped = euler_step(state, 1e-3)
        assert np.all(stepped.a == 0) and np.all(stepped.b == 0)

    def test_single_particle_hand_value(self):
        # one first-kind particle at s=0: after one step the second field
        # picks up -tau g^2 F(s), i.e. (tau g^2 / 3) * (1, -2, 1)
        state = _new_state(LAT3, np.array([0.0, 1.0, 0.0]), np.zeros(3))
        tau = 1e-3
        stepped = euler_step(state, tau)
        unit = tau * LAT3.reciprocal_constant**2 / 3
        np.testing.assert_allclose(stepped.b, unit * np.array([1.0, -2.0, 1.0]), rtol=1e-13)
        np.testing.assert_allclose(stepped.b, [1.4622e-3, -2.9243e-3, 1.4622e-3], atol=5e-8)
        np.testing.assert_array_equal(stepped.a, state.a)

    def test_one_step_against_exact_bound(self):
        # linearisation remainder is bounded by (tau ||P^2||)^2 / 2
        state = gaussian_state(LAT, 0, 10.0, 20)
        tau = 1e-3
        stepped = euler_step(state, tau)
        reference = advance(state, "exact", tau)
        bound = (tau * (LAT.reciprocal_constant * LAT.half_width) ** 2) ** 2 / 2
        assert np.max(np.abs(stepped.amplitudes() - reference.amplitudes())) < bound

    @pytest.mark.parametrize("n", [21, 801])
    def test_reference_equals_spectral(self, n):
        lattice = make_lattice(n)
        state = random_state(lattice, seed=n)
        one = euler_step(state, 1e-3)
        two = advance(state, EULER, 1e-3)
        assert np.max(np.abs(one.amplitudes() - two.amplitudes())) < 1e-12

    def test_linearity_over_complex_coefficients(self):
        lattice = make_lattice(21)
        rng = np.random.default_rng(2)
        psi1 = rng.normal(size=21) + 1j * rng.normal(size=21)
        psi2 = rng.normal(size=21) + 1j * rng.normal(size=21)
        alpha, beta = 0.3 - 1.1j, -0.7 + 0.2j
        tau = 1e-3
        combo = euler_step(
            state_from_amplitudes(lattice, alpha * psi1 + beta * psi2), tau
        )
        parts = alpha * euler_step(
            state_from_amplitudes(lattice, psi1), tau
        ).amplitudes() + beta * euler_step(
            state_from_amplitudes(lattice, psi2), tau
        ).amplitudes()
        assert np.max(np.abs(combo.amplitudes() - parts)) < 1e-12

    def test_tau_halving_quarters_the_error(self):
        state = gaussian_state(LAT, 0, 10.0, 20)
        errs = []
        for tau in (2e-3, 1e-3):
            stepped = euler_step(state, tau)
            reference = advance(state, "exact", tau)
            errs.append(np.linalg.norm(stepped.amplitudes() - reference.amplitudes()))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)


class TestTauGuard:
    def test_hard_limit(self):
        state = gaussian_state(LAT, 0, 10.0, 0)
        with pytest.raises(TimestepBoundError):
            euler_step(state, 0.013)  # tau (2 pi)^2 = 0.513

    def test_published_largest_step_allowed(self):
        state = gaussian_state(LAT, 0, 10.0, 0)
        with pytest.warns(UserWarning):
            euler_step(state, 0.010)

    def test_small_step_silent(self):
        import warnings

        state = gaussian_state(LAT, 0, 10.0, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            euler_step(state, 1e-3)


class TestExactStep:
    def test_zero_time_is_identity(self):
        state = random_state(LAT, 1)
        stepped = advance(state, "exact", 0.0)
        assert np.max(np.abs(stepped.amplitudes() - state.amplitudes())) < 1e-15

    def test_unitarity(self):
        state = random_state(LAT, 2)
        for t in (1e-3, 0.1, 3.0):
            assert norm_m(advance(state, "exact", t)) == pytest.approx(norm_m(state), abs=1e-12)

    def test_group_property(self):
        state = random_state(LAT, 3)
        two_hops = advance(advance(state, "exact", 0.4), "exact", 0.35)
        direct = advance(state, "exact", 0.75)
        assert np.max(np.abs(two_hops.amplitudes() - direct.amplitudes())) < 1e-12


class TestTranslate:
    # the first three hold the site-space roll itself, the oracle
    # (``oracles.translate``) that the spectral generator is held to
    def test_moves_basis_state(self):
        state = basis_state(LAT3, 0)
        moved = translate(state, 1)
        np.testing.assert_array_equal(moved.a, [0.0, 0.0, 1.0])

    def test_full_cycle_identity(self):
        state = random_state(LAT3, 4)
        moved = translate(state, 3)
        np.testing.assert_array_equal(moved.a, state.a)

    def test_border_wraps_without_sign_change(self):
        state = basis_state(LAT, LAT.site_max)
        moved = translate(state, 1)
        assert moved.a[0] == 1.0  # now at s = -L, positive sign

    @pytest.mark.parametrize("steps", [1, 2, 400, 801])
    def test_shift_equals_spectral_generator(self, steps):
        state = random_state(LAT, 6)
        rolled = translate(state, steps)
        generated = advance(state, "translate", steps)
        assert np.max(np.abs(rolled.amplitudes() - generated.amplitudes())) < 1e-10

    def test_border_site_spectral(self):
        state = basis_state(LAT, LAT.site_max)
        generated = advance(state, "translate", 1)
        expected = np.zeros(801, dtype=complex)
        expected[0] = 1.0
        assert np.max(np.abs(generated.amplitudes() - expected)) < 1e-10


class TestRun:
    def test_zero_steps_single_snapshot(self):
        state = gaussian_state(LAT, 0, 10.0, 20)
        series = run(state, EvolutionConfig(), 0, record_every=10)
        assert len(series.snapshots) == 1
        assert series.snapshots[0].step == 0

    @pytest.mark.parametrize("scheme", [EULER, EXACT])
    @pytest.mark.parametrize("lattice", [make_lattice(101), make_even_lattice(100)],
                             ids=["odd", "even"])
    def test_zero_steps_return_before_any_propagator(self, monkeypatch, lattice, scheme):
        """No step builds no propagator: the one snapshot (at step 0,
        whatever ``record_every``) is the state's own, as at step 0 of a
        longer run, and its checkpoint the state."""
        state = gaussian_state(lattice, 0, 5.0, 3)
        config = EvolutionConfig(scheme=scheme)
        step_zero = run(state, config, 20, 10).snapshots[0]

        def no_propagator(*_args):
            raise AssertionError("zero steps built a propagator")

        monkeypatch.setattr(ringfield.evolve, "propagator", no_propagator)
        series = run(state, config, 0, checkpoint_every=1)
        assert series.snapshots == (snapshot(state, 0),)
        assert series.snapshots[0] == step_zero
        assert series.checkpoints == {0: state}
        assert series.checkpoints[0] is state

    def test_record_every_and_final(self):
        state = gaussian_state(LAT, 0, 10.0, 20)
        series = run(state, EvolutionConfig(), 25, record_every=10)
        assert [s.step for s in series.snapshots] == [0, 10, 20, 25]

    def test_exact_scheme_conserves_m(self):
        state = gaussian_state(LAT, 0, 10.0, 20)
        series = run(state, EvolutionConfig(scheme="exact"), 100, record_every=25)
        m_values = series.column("m_total")
        assert max(abs(m - m_values[0]) for m in m_values) < 1e-12

    def test_euler_reference_and_spectral_paths_agree(self):
        # run's records against M of iterated dense reference steps
        state = gaussian_state(make_lattice(101), 0, 5.0, 3)
        fast = run(state, EvolutionConfig(), 20, record_every=5)
        ref, current = [norm_m(state)], state
        for step in range(1, 21):
            current = euler_step(current, 1e-3)
            if step % 5 == 0:
                ref.append(norm_m(current))
        assert len(ref) == len(fast.snapshots)
        for a, b in zip(ref, fast.column("m_total")):
            assert a == pytest.approx(b, abs=1e-12)

    def test_checkpoints(self):
        state = gaussian_state(make_lattice(101), 0, 5.0, 0)
        series = run(state, EvolutionConfig(), 20, record_every=5,
                     checkpoint_every=10)
        assert sorted(series.checkpoints) == [0, 10, 20]
        assert norm_m(series.checkpoints[20]) == pytest.approx(1.0, abs=1e-6)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EvolutionConfig(tau=0.0)
        with pytest.raises(ValueError):
            EvolutionConfig(scheme="rk4")


class TestMomentumDiagonal:
    def test_euler_step_is_diagonal_in_momentum(self):
        # spectral content moves only by the (1 - i tau g^2 k^2) factor
        state = random_state(LAT, 8)
        tau = 1e-3
        before = to_momentum_basis(state).coefficients
        after = to_momentum_basis(euler_step(state, tau)).coefficients
        kappa = LAT.momentum_values()
        factor = 1 - 1j * tau * LAT.reciprocal_constant**2 * kappa**2
        assert np.max(np.abs(after - before * factor)) < 1e-12
