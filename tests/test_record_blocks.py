"""Record blocks: ``run`` measures its records a block of rows at a
time, and ``compare`` evaluates its rows in closed form, a block of
rows at a time.  Every row must equal an independent evaluation of the
same state built on its own, the guards must still fire, no block may
exceed ``RECORD_BLOCK_BYTES``, and the tau-bound warning must name the
caller."""

import math
import re
import warnings

import numpy as np
import pytest

import ringfield.cli
import ringfield.evolve
import ringfield.experiments
import ringfield.observables
from ringfield import (
    ConsistencyError,
    EvolutionConfig,
    RunConfig,
    TimestepBoundError,
    advance,
    gaussian_state,
    make_even_lattice,
    make_lattice,
    random_state,
    run,
    snapshot,
    uniform_state,
)
from ringfield.basis import momentum_coefficients
from ringfield.experiments import (
    TABLE_TAUS,
    compare_rows,
    even_odd_comparison,
    paper_table_grid,
)
from ringfield.evolve import EULER, EXACT, MAX_RECORDS, record_steps
from ringfield.ioutil import fmt
from ringfield.observables import (
    RECORD_BLOCK_BYTES,
    ObservableSnapshot,
)
from ringfield.state import norm_m

import oracles
from oracles import _dense_euler_step, deviation_decimal, euler_step, g_site_matrix

BLOCK_RTOL = 1e-12  # of each column's maximum
TAU = 1e-3
COLUMNS = (
    "m_total",
    "drift_velocity",
    "momentum_expectation",
    "position_mean",
    "position_spread",
    "shape_residual",
)

METHODS = {
    "euler": (EvolutionConfig(tau=TAU), EULER),
    "exact": (EvolutionConfig(tau=TAU, scheme="exact"), EXACT),
    # the default run, held against iterated dense ``euler_step``
    "reference": (EvolutionConfig(tau=TAU), None),
    "even-naive": (EvolutionConfig(tau=TAU), EULER),
}
CASES = [
    (method, n) for method in ("euler", "exact", "reference") for n in (3, 5, 21, 801)
] + [("even-naive", 800), ("exact", 800)]


def _oracle_states(state, method, steps):
    """The state at each step, built one at a time."""
    if method == "reference":
        out, current, done = [], state, 0
        for n in steps:
            for _ in range(n - done):
                current = euler_step(current, TAU)
            done = n
            out.append(current)
        return out
    kind = METHODS[method][1]
    return [advance(state, kind, TAU, n) for n in steps]


def _oracle_conserved(state):
    """M, ⟨V⟩ and ⟨P⟩ of one state, the last two from the dense G-kernel
    double sums."""
    lattice = state.lattice
    g = lattice.reciprocal_constant
    gmat = g_site_matrix(lattice)
    amps = state.amplitudes()
    return (
        norm_m(state),
        4.0 * g * state.a @ (gmat @ state.b),
        (-1j * g * np.vdot(amps, gmat @ amps)).real,
    )


def _oracle_row(state):
    """Every recorded observable of one state."""
    snap = snapshot(state, 0)
    return (
        *_oracle_conserved(state),
        snap.position_mean,
        snap.position_spread,
        snap.shape_residual,
    )


@pytest.mark.parametrize("method, n_sites", CASES, ids=lambda v: str(v))
def test_rows_match_states_built_one_at_a_time(monkeypatch, method, n_sites):
    config, _kind = METHODS[method]
    lattice = make_even_lattice(n_sites) if n_sites % 2 == 0 else make_lattice(n_sites)
    if n_sites < 100:
        # 3 rows per block, so the 11 records below split 3 + 3 + 3 + 2
        monkeypatch.setattr(ringfield.observables, "RECORD_BLOCK_BYTES", 3 * 16 * n_sites)
        n_steps, record_every = 20, 2
    else:
        # 20 rows per block at the default size: 101 records split 5 x 20 + 1
        n_steps, record_every = 100, 1
    state = random_state(lattice, 7)
    series = run(state, config, n_steps, record_every, checkpoint_every=7)
    steps = [snap.step for snap in series.snapshots]
    assert steps == sorted({n_steps, *range(0, n_steps + 1, record_every)})

    measured = np.array([[getattr(snap, col) for col in COLUMNS] for snap in series.snapshots])
    # one formula for both: bitwise, not just within the tolerance
    assert all(snap.drift_velocity == 2.0 * snap.momentum_expectation
               for snap in series.snapshots)
    oracle = np.array([_oracle_row(s) for s in _oracle_states(state, method, steps)])
    scale = np.max(np.abs(oracle), axis=0)
    gap = np.max(np.abs(measured - oracle), axis=0)
    assert np.all(gap <= BLOCK_RTOL * scale), dict(zip(COLUMNS, gap / scale))

    checkpoint_steps = sorted(series.checkpoints)
    assert checkpoint_steps == sorted({n_steps, *range(0, n_steps + 1, 7)})
    for step, expected in zip(checkpoint_steps, _oracle_states(state, method, checkpoint_steps)):
        got = series.checkpoints[step].amplitudes()
        assert np.max(np.abs(got - expected.amplitudes())) <= 1e-14 * np.max(np.abs(got))


@pytest.mark.parametrize("lattice", [make_lattice(801), make_even_lattice(800)],
                         ids=["odd", "even"])
def test_real_state_has_exactly_zero_drift_at_step_zero(lattice):
    state = uniform_state(lattice, 0, 5, 0)
    first = run(state, EvolutionConfig(), 50, record_every=5).snapshots[0]
    for value in (first.drift_velocity, first.momentum_expectation):
        assert value == 0.0
        assert math.copysign(1.0, value) == 1.0
        assert fmt(value) == "0.0"


COMPARE_COLUMNS = ("deviation", "m_euler", "m_exact", "drift_euler", "drift_exact")


@pytest.mark.parametrize("n_sites", [3, 21, 801])
def test_compare_rows_match_states_built_one_at_a_time(monkeypatch, n_sites):
    """Every column of ``compare``, evaluated in closed form a block of
    rows at a time, against states built on their own and the dense G
    double sums."""
    if n_sites < 100:
        # 3 rows of float weights per block, so the 11 records below split
        # 3 + 3 + 3 + 2 in both the M/<P> series and the deviation
        monkeypatch.setattr(ringfield.observables, "RECORD_BLOCK_BYTES", 3 * 8 * n_sites)
        n_steps, record_every = 20, 2
    else:
        n_steps, record_every = 100, 1
    state = random_state(make_lattice(n_sites), 7)
    rows = compare_rows(state, TAU, n_steps, record_every)
    steps = [row[0] for row in rows]
    assert steps == sorted({n_steps, *range(0, n_steps + 1, record_every)})

    measured = np.array([row[1:] for row in rows])
    oracle = []
    for n in steps:
        euler, exact = advance(state, EULER, TAU, n), advance(state, EXACT, TAU, n)
        m_euler, drift_euler, _momentum = _oracle_conserved(euler)
        m_exact, drift_exact, _momentum = _oracle_conserved(exact)
        deviation = np.linalg.norm(euler.amplitudes() - exact.amplitudes())
        oracle.append((deviation, m_euler, m_exact, drift_euler, drift_exact))
    oracle = np.array(oracle)
    scale = np.max(np.abs(oracle), axis=0)
    gap = np.max(np.abs(measured - oracle), axis=0)
    assert np.all(gap <= BLOCK_RTOL * scale), dict(zip(COMPARE_COLUMNS, gap / scale))


DEVIATION_RTOL = 1e-14  # relative, per row
DEVIATION_CASES = {
    "default": (RunConfig(), None),
    "wide": (RunConfig(n_sites=4001, width=50.0, n_steps=100, record_every=5), None),
    "random": (RunConfig(n_sites=21, n_steps=20, record_every=2), 7),
}


@pytest.mark.parametrize("case", DEVIATION_CASES)
def test_compare_deviation_matches_the_decimal_oracle(case):
    """The deviation column against a 50-digit evaluation of
    (1 - i x)^n - exp(-i n x) from the same float64 occupation and x."""
    config, seed = DEVIATION_CASES[case]
    lattice = config.lattice()
    state = random_state(lattice, seed) if seed is not None else gaussian_state(
        lattice, config.center, config.width, config.velocity_index)
    rows = compare_rows(state, config.tau, config.n_steps, config.record_every)
    occupation = np.abs(momentum_coefficients(lattice, state.c)) ** 2
    g, kappa = lattice.reciprocal_constant, lattice.momentum_values()
    x = config.tau * g * g * (kappa * kappa)
    oracle = deviation_decimal(occupation, x, [row[0] for row in rows])
    assert rows[0][1] == 0.0 == oracle[0]
    gaps = [abs(row[1] - float(want)) / float(want) for row, want in zip(rows[1:], oracle[1:])]
    assert max(gaps) <= DEVIATION_RTOL


@pytest.mark.parametrize("scheme", ["euler", "exact"])
def test_compare_final_state_one_step_off_raises(monkeypatch, scheme):
    """The site-space checks at the final step: an Euler state one step
    short misses its M, an exact one (whose M is the same) misses the
    closed-form deviation."""
    original = ringfield.evolve.Propagator.amplitudes_after

    def one_step_short(self, coefficients, steps):
        exact = not np.any(self.log_multiplier.real)
        if exact == (scheme == "exact"):
            steps = [n - 1 for n in steps]
        return original(self, coefficients, steps)

    monkeypatch.setattr(ringfield.evolve.Propagator, "amplitudes_after", one_step_short)
    state = gaussian_state(make_lattice(801), 0, 10.0, 20)
    match = "closed-form deviation" if scheme == "exact" else "spectral prediction"
    with pytest.raises(ConsistencyError, match=match):
        compare_rows(state, TAU, 1000, 10)


def test_corrupted_transform_of_a_late_row_raises(monkeypatch):
    original = ringfield.evolve.site_amplitudes

    def drop_in_last_row(lattice, coefficients):
        """Corrupt the last row of every block of more than one row."""
        amplitudes = original(lattice, coefficients)
        if amplitudes.ndim == 2 and len(amplitudes) > 1:
            last = amplitudes[-1]
            last[np.argmax(np.abs(last))] = 0.0
        return amplitudes

    monkeypatch.setattr(ringfield.evolve, "site_amplitudes", drop_in_last_row)
    state = random_state(make_lattice(801), 3)
    with pytest.raises(ConsistencyError, match="Parseval"):
        run(state, EvolutionConfig(), 100, record_every=1)


def test_corrupted_checkpoint_at_an_unrecorded_step_raises(monkeypatch):
    """A checkpoint that is no record is measured too: its row passes
    the same Parseval check, so a broken step cannot be written as a
    state unchecked."""
    original = ringfield.evolve.Propagator.amplitudes_after

    def scale_step_7(self, coefficients, steps):
        amplitudes = original(self, coefficients, steps)
        amplitudes[np.asarray(steps) == 7] *= 1 + 1e-6
        return amplitudes

    monkeypatch.setattr(ringfield.evolve.Propagator, "amplitudes_after", scale_step_7)
    state = random_state(make_lattice(101), 3)
    with pytest.raises(ConsistencyError, match="Parseval"):
        run(state, EvolutionConfig(), 20, record_every=5, checkpoint_every=7)


def test_overflowing_row_raises_value_error():
    state = random_state(make_lattice(101), 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            run(state, EvolutionConfig(), 10**9, record_every=10**8)


def test_blocks_stay_within_the_byte_bound(monkeypatch):
    """The blocks that ``run`` inverse-transforms and hands to
    ``snapshots`` stay within the bound, and each comes with the
    spectral M and <P> of its own rows, not with block-sized
    coefficient rows.  ``snapshots`` is replaced by a recorder: it
    measures exactly the block it is given, and its cost at this size
    is not what is tested."""
    lattice = make_lattice(4001)
    ifft_shapes, observed_bytes, spectral_shapes = [], [], []
    original = np.fft.ifft

    def recorded_ifft(a, *args, **kwargs):
        ifft_shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    def recorded_snapshots(block, steps, spectral=None):
        observed_bytes.append(block.c.nbytes)
        spectral_shapes.append((np.shape(spectral), len(steps)))
        return [ObservableSnapshot(int(step), *[0.0] * 6) for step in steps]

    monkeypatch.setattr(np.fft, "ifft", recorded_ifft)
    monkeypatch.setattr(ringfield.evolve, "snapshots", recorded_snapshots)
    state = gaussian_state(lattice, 0, 10.0, 20)
    series = run(state, EvolutionConfig(scheme="exact"), 2000, record_every=1)
    assert len(series.snapshots) == 2001
    rows = max(1, RECORD_BLOCK_BYTES // (16 * 4001))
    assert len(ifft_shapes) == len(observed_bytes) == math.ceil(2001 / rows)
    assert max(math.prod(shape) * 16 for shape in ifft_shapes) <= RECORD_BLOCK_BYTES
    assert max(observed_bytes) <= RECORD_BLOCK_BYTES
    assert all(shape == (2, rows) for shape, rows in spectral_shapes)


@pytest.fixture
def fft_calls(monkeypatch):
    """The shapes passed to ``np.fft.fft``, ``ifft`` and ``rfft``, by name."""
    calls = {"fft": [], "ifft": [], "rfft": []}
    for name, shapes in calls.items():
        original = getattr(np.fft, name)

        def recorded(a, *args, _original=original, _shapes=shapes, **kwargs):
            _shapes.append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, recorded)
    return calls


@pytest.mark.parametrize("scheme", ["euler", "exact"])
def test_run_takes_one_inverse_transform_per_block(fft_calls, scheme):
    """One forward transform of the initial state (its two real-input
    FFTs) and one inverse transform per block: the recorded rows, the
    step-0 row among them, are measured from the coefficients ``run``
    builds."""
    lattice = make_lattice(4001)
    state = gaussian_state(lattice, 0, 50.0, 20)
    series = run(state, EvolutionConfig(scheme=scheme), 100, record_every=5)
    assert len(series.snapshots) == 21
    rows = max(1, RECORD_BLOCK_BYTES // (16 * 4001))
    assert fft_calls["fft"] == []
    assert len(fft_calls["ifft"]) == math.ceil(21 / rows)
    assert fft_calls["rfft"] == [(4001,), (4001,)]


def test_even_odd_takes_one_block_per_lattice(fft_calls):
    """``even_odd_comparison`` steps its confined and wrapped packets as
    one block of two rows per lattice: one forward transform per basis
    (the even Euler step's storage-order DFT, the unbiased basis of the
    exact step) and one batched inverse transform per scheme.  The
    one-row FFT builds the naive even step's eigenvalues."""
    assert even_odd_comparison().passed
    assert fft_calls == {"fft": [(800,), (2, 800)], "ifft": [(2, 800), (2, 800), (2, 801), (2, 801)],
                         "rfft": [(2, 800), (2, 800), (2, 801), (2, 801)]}


@pytest.mark.parametrize("parity", [["--n-sites", "801"], ["--n-sites", "4001"],
                                    ["--n-sites", "800", "--parity-mode", "even_naive"]],
                         ids=["801", "4001", "even-800"])
@pytest.mark.parametrize("scheme", ["euler", "exact"])
def test_outputs_do_not_depend_on_the_block_size(monkeypatch, tmp_path, parity, scheme):
    """``run`` writes the same bytes, series and checkpoints, whether its
    blocks hold one row or as many as the default size allows: each row
    is transformed, measured and formatted as it would be alone."""
    argv = ["run", *parity, "--scheme", scheme, "--width", "20", "--velocity-index", "9",
            "--n-steps", "60", "--record-every", "3", "--checkpoint-every", "20"]

    def written(directory):
        directory.mkdir()
        assert ringfield.cli.main([*argv, "--csv", str(directory / "series.csv"),
                                   "--checkpoint-dir", str(directory)]) == 0
        return {path.name: path.read_bytes() for path in directory.iterdir()}

    default = written(tmp_path / "default")
    n_sites = int(parity[1])
    assert RECORD_BLOCK_BYTES // (16 * n_sites) > 1
    monkeypatch.setattr(ringfield.observables, "RECORD_BLOCK_BYTES", 16 * n_sites)
    assert written(tmp_path / "one_row") == default
    assert len(default) == 5


@pytest.mark.parametrize("record_every, n_records", [(5, 21), (1, 101), (100, 2)])
def test_compare_takes_one_inverse_transform_per_scheme(fft_calls, record_every, n_records):
    """``compare`` evaluates its rows in closed form from one forward
    transform (two real-input FFTs), whatever the record count, and
    builds one state per scheme, the final one, for its site-space
    checks."""
    state = gaussian_state(make_lattice(4001), 0, 50.0, 20)
    assert len(compare_rows(state, TAU, 100, record_every)) == n_records
    assert fft_calls["fft"] == []
    assert len(fft_calls["ifft"]) <= 2
    assert fft_calls["rfft"] == [(4001,)] * 2


def test_one_block_size_splits_every_loop(monkeypatch, fft_calls):
    """``RECORD_BLOCK_BYTES`` is patched in ``observables`` alone, and it
    splits all three row-block loops alike: ``run``'s inverse transforms,
    and the rows that ``compare``'s M/<P> series and its deviation each
    reduce.  A loop that sized its own blocks would take all 11 records
    at once."""
    n = 21
    bound = 3 * 16 * n
    monkeypatch.setattr(ringfield.observables, "RECORD_BLOCK_BYTES", bound)
    state = random_state(make_lattice(n), 7)
    assert len(run(state, EvolutionConfig(), 20, 2).snapshots) == 11
    run_rows = [shape[0] for shape in fft_calls["ifft"]]

    # rows per reduction: the series reduces against the (N, 2) moments
    # M and <P>, the deviation against the occupation alone
    reduced = {"series": [], "deviation": []}
    original = np.matmul

    def recorded_matmul(a, b, *args, **kwargs):
        reduced["series" if np.shape(b) == (n, 2) else "deviation"].append(len(a))
        return original(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", recorded_matmul)
    assert len(compare_rows(state, TAU, 20, 2)) == 11
    # 3 complex rows or 6 float rows per block
    assert (run_rows, reduced) == ([3, 3, 3, 2], {"series": [6, 5], "deviation": [6, 5]})


@pytest.mark.parametrize("kind, step", [(EULER, 1e-3), (EXACT, 0.1), (EULER, 1.0),
                                        ("no such kind", float("nan"))])
@pytest.mark.parametrize("n", [801, 800])
def test_advance_by_zero_steps_takes_no_transform(fft_calls, kind, step, n):
    """n = 0 hands back the state itself: no transform, and neither the
    kind nor the step (here one far past the tau bound) is checked."""
    lattice = make_lattice(n) if n % 2 else make_even_lattice(n)
    state = random_state(lattice, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert advance(state, kind, step, 0) is state
    assert fft_calls == {"fft": [], "ifft": [], "rfft": []}


SMALL_STATE = gaussian_state(make_lattice(101), 0, 5.0, 3)
RECORDING_CALLERS = {
    "run": lambda n, every: run(SMALL_STATE, EvolutionConfig(), n, every),
    "compare_rows": lambda n, every: compare_rows(SMALL_STATE, TAU, n, every),
}


@pytest.mark.parametrize("n_steps, record_every, bad", [
    (2.5, 1, "n_steps"), (10.0, 2, "n_steps"), (10, 2.5, "record_every"),
    (10, np.float64(2.0), "record_every"),
])
@pytest.mark.parametrize("caller", RECORDING_CALLERS)
def test_recorded_step_counts_must_be_integers(fft_calls, caller, n_steps, record_every, bad):
    """A count that is not an integer fails with a ``ValueError`` that
    names it, before any transform."""
    value = n_steps if bad == "n_steps" else record_every
    with pytest.raises(ValueError, match=re.escape(f"{bad} must be an integer >= ")) as info:
        RECORDING_CALLERS[caller](n_steps, record_every)
    assert str(info.value).endswith(f"(got {value!r})")
    assert fft_calls == {"fft": [], "ifft": [], "rfft": []}


@pytest.mark.parametrize("checkpoint_every", [2.5, -1])
def test_checkpoint_every_is_checked_by_name(fft_calls, checkpoint_every):
    """``run`` checks ``checkpoint_every`` as a count of its own, an
    integer >= 0 (0 stores no state), before any transform."""
    message = f"checkpoint_every must be an integer >= 0 (got {checkpoint_every!r})"
    with pytest.raises(ValueError, match=re.escape(message)):
        run(SMALL_STATE, EvolutionConfig(), 10, 5, checkpoint_every=checkpoint_every)
    assert fft_calls == {"fft": [], "ifft": [], "rfft": []}


# each would record MAX_RECORDS + 1 steps
OVER_RECORD_BOUND = {
    "record_steps": lambda: record_steps(MAX_RECORDS, 1),
    "record_steps, with remainder": lambda: record_steps(3 * (MAX_RECORDS - 1) + 1, 3),
    "run": lambda: run(SMALL_STATE, EvolutionConfig(), MAX_RECORDS, 1),
    "run checkpoints": lambda: run(SMALL_STATE, EvolutionConfig(), MAX_RECORDS,
                                   MAX_RECORDS, checkpoint_every=1),
    "compare_rows": lambda: compare_rows(SMALL_STATE, TAU, MAX_RECORDS, 1),
    "paper_table_grid": lambda: paper_table_grid(n_steps=10 * MAX_RECORDS),
}


@pytest.mark.parametrize("name", OVER_RECORD_BOUND)
def test_record_count_above_the_bound_fails_before_any_transform(fft_calls, name):
    with pytest.raises(ValueError, match=f"make {MAX_RECORDS + 1} records, more than {MAX_RECORDS}$"):
        OVER_RECORD_BOUND[name]()
    assert fft_calls == {"fft": [], "ifft": [], "rfft": []}


def test_record_bound_counts_the_list_it_refuses(monkeypatch):
    """The count is the list's length: every list up to the bound is
    built, and every longer one refused."""
    monkeypatch.setattr(ringfield.evolve, "MAX_RECORDS", 5)
    for n_steps in range(30):
        for record_every in range(1, 12):
            expected = sorted({n_steps, *range(0, n_steps + 1, record_every)})
            if len(expected) <= 5:
                assert record_steps(n_steps, record_every) == expected
            else:
                with pytest.raises(ValueError, match=f"make {len(expected)} records"):
                    record_steps(n_steps, record_every)


# tau g^2 N^2 = 5e-3 (2 pi)^2 = 0.197: above the warning threshold, below the limit
WARN_TAU = 5e-3
WARN_LATTICE = make_lattice(801)
WARN_STATE = gaussian_state(WARN_LATTICE, 0, 10.0, 20)
# name -> (call, number of warnings, the file they name)
WARNING_CALLS = {
    "run": (lambda: run(WARN_STATE, EvolutionConfig(tau=WARN_TAU), 10), 1, __file__),
    "advance": (lambda: advance(WARN_STATE, EULER, WARN_TAU, 10), 1, __file__),
    # the oracle's dense step is the code that calls into the package
    "_dense_euler_step": (
        lambda: _dense_euler_step(WARN_LATTICE, WARN_STATE.a, WARN_STATE.b, WARN_TAU), 1,
        oracles.__file__,
    ),
    # one propagator for all three shapes at each of the two time steps
    # past the threshold
    "paper_table_grid": (lambda: paper_table_grid(n_steps=10), 2, __file__),
    "compare_rows": (lambda: compare_rows(WARN_STATE, WARN_TAU, 10, 5), 1, __file__),
    # one Euler propagator per lattice, for its confined and wrapped rows
    "even_odd_comparison": (lambda: even_odd_comparison(n_steps=1, tau=WARN_TAU), 2, __file__),
}


@pytest.mark.parametrize("name", WARNING_CALLS)
def test_tau_warning_names_the_caller(name):
    """However deep inside the package the linearised step is built,
    its tau warning names the code that called into the package."""
    call, expected, filename = WARNING_CALLS[name]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call()
    tau_warnings = [w for w in caught if "tau * g^2 * N^2" in str(w.message)]
    assert len(tau_warnings) == expected
    assert {w.filename for w in tau_warnings} == {filename}


# tau g^2 N^2 = 0.02 (2 pi)^2 = 0.79, past the limit of 0.5
LIMIT_TAU = 0.02
EVEN_STATE = gaussian_state(make_even_lattice(100), 0, 5.0)
OVER_LIMIT_CALLS = {
    "run": lambda: run(SMALL_STATE, EvolutionConfig(tau=LIMIT_TAU), 10),
    "advance": lambda: advance(SMALL_STATE, EULER, LIMIT_TAU, 10),
    "advance even": lambda: advance(EVEN_STATE, EULER, LIMIT_TAU, 10),
    "_dense_euler_step": lambda: _dense_euler_step(
        SMALL_STATE.lattice, SMALL_STATE.a, SMALL_STATE.b, LIMIT_TAU
    ),
    "compare_rows": lambda: compare_rows(SMALL_STATE, LIMIT_TAU, 10, 5),
    "even_odd_comparison": lambda: even_odd_comparison(n_steps=1, tau=LIMIT_TAU),
}


@pytest.mark.parametrize("name", OVER_LIMIT_CALLS)
def test_tau_limit_fails_before_any_transform(monkeypatch, fft_calls, name):
    """Where the linearised step is built, the bound comes first: no
    transform (not even the naive even-mode spectrum) and no dense F."""
    def forbidden(lattice):
        raise AssertionError("dense F built")

    monkeypatch.setattr(oracles, "f_site_matrix", forbidden)
    with pytest.raises(TimestepBoundError):
        OVER_LIMIT_CALLS[name]()
    assert fft_calls == {"fft": [], "ifft": [], "rfft": []}


NON_POSITIVE_TAU_CALLS = {
    "advance": lambda tau: advance(SMALL_STATE, EULER, tau, 3),
    "advance even": lambda tau: advance(EVEN_STATE, EULER, tau, 3),
    "_dense_euler_step": lambda tau: _dense_euler_step(
        SMALL_STATE.lattice, SMALL_STATE.a, SMALL_STATE.b, tau
    ),
}


@pytest.mark.parametrize("tau", [-10.0, -1e-3, 0.0, float("nan")])
@pytest.mark.parametrize("name", NON_POSITIVE_TAU_CALLS)
def test_a_non_positive_tau_fails_before_any_transform(monkeypatch, fft_calls, name, tau):
    """The tau bound compares the signed stiffness, so a tau that is not
    positive is refused where the bound is checked, before any
    transform or dense F: a negative one would pass under the bound."""
    def forbidden(lattice):
        raise AssertionError("dense F built")

    monkeypatch.setattr(oracles, "f_site_matrix", forbidden)
    with pytest.raises(ValueError, match=re.escape(f"tau must be positive (got {tau})")):
        NON_POSITIVE_TAU_CALLS[name](tau)
    assert fft_calls == {"fft": [], "ifft": [], "rfft": []}


def test_grid_checks_every_tau_before_any_transform(monkeypatch, fft_calls):
    """The grid builds the propagator of each tau, the last one past the
    limit here, before it transforms any state."""
    monkeypatch.setattr(ringfield.experiments, "TABLE_TAUS", (1e-3, LIMIT_TAU))
    with pytest.raises(TimestepBoundError):
        paper_table_grid(n_steps=10)
    assert fft_calls == {"fft": [], "ifft": [], "rfft": []}


def test_grid_shares_its_transforms_and_propagators(monkeypatch, fft_calls):
    """The three states take one batched forward transform (the two
    real-input FFTs of their real and imaginary parts), each tau one
    propagator and one batched inverse transform, for its final states."""
    built = []
    original = ringfield.experiments.propagator

    def counted(lattice, kind, step):
        built.append((kind, step))
        return original(lattice, kind, step)

    monkeypatch.setattr(ringfield.experiments, "propagator", counted)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", r"tau \* g\^2 \* N\^2", UserWarning)
        paper_table_grid()
    assert built == [(EULER, tau) for tau in TABLE_TAUS]
    assert fft_calls == {"fft": [], "ifft": [(3, 801)] * 3, "rfft": [(3, 801)] * 2}


def test_tau_warning_survives_a_frame_without_a_module_name():
    """The caller search reads ``__name__`` from each frame's globals
    and must not fail where there is none."""
    namespace = {"run": run, "state": WARN_STATE, "config": EvolutionConfig(tau=WARN_TAU)}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        exec("run(state, config, 10)", namespace)
    assert "__name__" not in namespace
    assert [str(w.message).startswith("tau * g^2 * N^2") for w in caught] == [True]
