"""Power form of the step multipliers against explicit stepping.

Every step kind is one multiplier per Fourier coefficient, so n steps
are one power of it.  The oracles here step explicitly: a plain numpy
FFT step written out in this file and the dense O(N^2) ``oracles.euler_step``,
which on an even lattice is the naive even-mode step.
"""

import re
import warnings

import numpy as np
import pytest

import ringfield.kernels
from ringfield import (
    EvolutionConfig,
    TimestepBoundError,
    gaussian_state,
    make_even_lattice,
    make_lattice,
    random_state,
    run,
)
from ringfield.evolve import (
    EULER,
    EXACT,
    advance,
    propagator,
)
from ringfield.state import state_from_amplitudes

from oracles import euler_step

LAT = make_lattice(801)
EVEN = make_even_lattice(800)


def relative_gap(state, reference_amplitudes) -> float:
    diff = state.amplitudes() - reference_amplitudes
    return float(np.linalg.norm(diff) / np.linalg.norm(reference_amplitudes))


def integer_momenta(n: int) -> np.ndarray:
    """Momentum of each output slot of ``np.fft.fft`` on an odd lattice."""
    return np.fft.fftfreq(n, 1.0 / n)


def explicit_fft_steps(state, multiplier, n_steps: int) -> np.ndarray:
    """``n_steps`` explicit steps, one FFT pair and one multiply each."""
    amps = state.amplitudes()
    for _ in range(n_steps):
        amps = np.fft.ifft(np.fft.fft(amps) * multiplier)
    return amps


@pytest.mark.filterwarnings("ignore:tau \\* g\\^2:UserWarning")
@pytest.mark.parametrize("tau", [1e-3, 1e-2])
@pytest.mark.parametrize("shape", ["gaussian", "random"])
def test_euler_power_equals_1000_explicit_steps(shape, tau):
    state = (gaussian_state(LAT, 0, 10.0, 20) if shape == "gaussian"
             else random_state(LAT, 7))
    g = LAT.reciprocal_constant
    k = integer_momenta(LAT.n_sites)
    reference = explicit_fft_steps(state, 1.0 - 1j * tau * g * g * k * k, 1000)
    assert relative_gap(advance(state, EULER, tau, 1000), reference) <= 1e-12


def test_euler_power_equals_dense_reference_steps():
    state = random_state(LAT, 3)
    stepped = state
    for _ in range(20):
        stepped = euler_step(stepped, 1e-3)
    assert relative_gap(advance(state, EULER, 1e-3, 20), stepped.amplitudes()) <= 1e-12


@pytest.mark.parametrize("shape", ["gaussian", "random"])
def test_exact_power_equals_100_explicit_steps(shape):
    state = (gaussian_state(LAT, 0, 10.0, 20) if shape == "gaussian"
             else random_state(LAT, 8))
    t = 1e-2
    one_at_a_time = state
    for _ in range(100):
        one_at_a_time = advance(one_at_a_time, "exact", t)
    power = advance(state, EXACT, t, 100)
    assert relative_gap(power, one_at_a_time.amplitudes()) <= 1e-12
    g = LAT.reciprocal_constant
    k = integer_momenta(LAT.n_sites)
    reference = explicit_fft_steps(state, np.exp(-1j * (g * k) ** 2 * t), 100)
    assert relative_gap(power, reference) <= 1e-12


EVEN_SIZES = [8, 20, 100, 800]


@pytest.mark.parametrize("at_seam", [False, True], ids=["centred", "seam"])
@pytest.mark.parametrize("n", EVEN_SIZES)
def test_even_naive_power_equals_100_dense_steps(n, at_seam):
    """On an even lattice ``euler_step`` is the naive circulant step,
    and ``advance`` its power."""
    lattice = make_even_lattice(n)
    state = gaussian_state(lattice, lattice.site_min if at_seam else 0, min(5.0, n / 4))
    stepped = state
    for _ in range(100):
        stepped = euler_step(stepped, 1e-3)
    assert relative_gap(advance(state, EULER, 1e-3, 100), stepped.amplitudes()) <= 1e-12


@pytest.mark.parametrize("n", EVEN_SIZES)
def test_even_naive_random_state_against_dense(n):
    state = random_state(make_even_lattice(n), 9)
    stepped = state
    for _ in range(100):
        stepped = euler_step(stepped, 1e-3)
    assert relative_gap(advance(state, EULER, 1e-3, 100), stepped.amplitudes()) <= 1e-12


def test_euler_step_on_an_even_lattice_keeps_its_guards(monkeypatch):
    with pytest.raises(TimestepBoundError):
        euler_step(gaussian_state(EVEN, 0, 5.0), OVER_BOUND)
    monkeypatch.setattr(ringfield.kernels, "SITE_MATRIX_MAX_SITES", 21)
    with pytest.raises(ValueError, match="N <= 21 only"):
        euler_step(gaussian_state(make_even_lattice(22), 0, 2.0), 1e-3)


@pytest.mark.parametrize("kind", [EULER, EXACT])
def test_advance_by_zero_steps_returns_the_state(kind):
    state = gaussian_state(LAT, 0, 10.0, 5)
    assert advance(state, kind, 1e-3, 0) is state


def test_checkpoint_at_unrecorded_step():
    lattice = make_lattice(101)
    state = gaussian_state(lattice, 0, 5.0, 3)
    series = run(state, EvolutionConfig(), 10, record_every=5, checkpoint_every=3)
    assert [snap.step for snap in series.snapshots] == [0, 5, 10]
    assert sorted(series.checkpoints) == [0, 3, 6, 9, 10]
    assert series.checkpoints[0] is state
    stepped = state
    for step in range(1, 10):
        stepped = euler_step(stepped, 1e-3)
        if step in (3, 6, 9):
            assert relative_gap(series.checkpoints[step], stepped.amplitudes()) <= 1e-12


OVER_BOUND = 0.02  # tau g^2 N^2 = 0.02 (2 pi)^2 = 0.79 >= 0.5
CASES = [
    (LAT, EvolutionConfig(tau=OVER_BOUND)),
    (EVEN, EvolutionConfig(tau=OVER_BOUND)),
]


@pytest.mark.parametrize("lattice, config", CASES)
def test_zero_steps_skip_the_tau_bound(lattice, config):
    state = gaussian_state(lattice, 0, 5.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        series = run(state, config, 0)
    assert [snap.step for snap in series.snapshots] == [0]


@pytest.mark.parametrize("lattice, config", CASES)
def test_one_step_checks_the_tau_bound(lattice, config):
    state = gaussian_state(lattice, 0, 5.0)
    with pytest.raises(TimestepBoundError):
        run(state, config, 1)


def test_run_transforms_once_per_record(monkeypatch):
    calls = {"fft": 0, "ifft": 0}
    for name in calls:
        original = getattr(np.fft, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    state = gaussian_state(LAT, 0, 10.0, 20)
    series = run(state, EvolutionConfig(), 1000, record_every=100)
    assert len(series.snapshots) == 11
    assert calls["fft"] + calls["ifft"] <= 1 + 3 * 11


def test_propagator_rejects_bad_input():
    with pytest.raises(ValueError, match="unknown step kind"):
        propagator(LAT, "rk4", 1e-3)
    with pytest.raises(ValueError, match="not finite"):
        propagator(make_lattice(101, 1e-300), EXACT, 1e-3)


@pytest.mark.parametrize("lattice", [LAT, EVEN], ids=["odd", "even"])
def test_even_naive_is_not_a_step_kind(lattice):
    """The lattice picks the naive circulant; ``even_naive`` names only
    the parity mode of a run configuration."""
    with pytest.raises(ValueError, match="unknown step kind 'even_naive'"):
        advance(gaussian_state(lattice, 0, 5.0), "even_naive", 1e-3, 10)


SMALL = gaussian_state(make_lattice(101), 0, 5.0, 3)
BAD_STEP_COUNTS = [
    # tau g^2 N^2 = 39.5 is far past the bound, which only n > 0 checks
    (EULER, 1.0, -1),
    (EULER, 1e-3, -1),
    (EULER, 1e-3, 2.5),
    (EULER, 1e-3, 0.0),
    (EXACT, 0.1, -1),
    (EXACT, 0.1, 0.5),
]


@pytest.mark.parametrize("kind, step, count", BAD_STEP_COUNTS,
                         ids=[f"advance {k} {s:g} {n}" for k, s, n in BAD_STEP_COUNTS])
def test_step_counts_must_be_non_negative_integers(monkeypatch, kind, step, count):
    def forbidden(*args, **kwargs):
        raise AssertionError("a transform ran before the step count was checked")

    for name in ("fft", "ifft", "rfft"):
        monkeypatch.setattr(np.fft, name, forbidden)
    with pytest.raises(ValueError, match=re.escape(f"(got {count!r})")):
        advance(SMALL, kind, step, count)


def test_numpy_integer_step_counts_count():
    expected = advance(SMALL, EULER, 1e-3, 7).amplitudes()
    for count in (np.int64(7), np.int32(7), np.uint8(7)):
        assert np.array_equal(advance(SMALL, EULER, 1e-3, count).amplitudes(), expected)


def test_overflowing_power_raises_value_error():
    state = random_state(make_lattice(101), 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            advance(state, EULER, 1e-3, 10**9)


def test_zero_state_stays_zero():
    state = state_from_amplitudes(EVEN, np.zeros(EVEN.n_sites))
    stepped = advance(state, EULER, 1e-3, 50)
    assert np.all(stepped.a == 0) and np.all(stepped.b == 0)
