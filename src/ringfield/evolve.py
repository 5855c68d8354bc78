"""Time evolution: every step kind is a multiplier on Fourier coefficients.

The reaction step of the two-field process,

    a_s <- a_s + tau g^2 sum_d b_[s+d] F(d)
    b_s <- b_s - tau g^2 sum_d a_[s+d] F(d),

is in complex form the linearised unitary c <- (1 - i tau g^2 F) c.
F is diagonal in the unbiased (momentum) basis, where it acts as
kappa^2, so one Euler step multiplies the momentum coefficients by
m = 1 - i tau g^2 kappa^2.  The same holds for every operator applied
here (``propagator`` builds each multiplier):

* Euler step          1 - i tau g^2 kappa^2
* exact step          exp(-i g^2 kappa^2 t), valid for any t
* translation         exp(-2 pi i kappa m / N) by m sites
* even naive step     1 - i tau g^2 lambda_k

The naive even-mode step wraps F modulo N on an even lattice.  That
matrix is a circulant, so it is diagonal in the plain integer DFT of the
storage order (not in the half-integer basis), with eigenvalues lambda,
the DFT of its first column.  It is deliberately not the quantum
evolution: its unitary reference is ``exact_step`` on the even lattice,
whose half-integer basis carries the sign-corrected translation, and
the two part ways once amplitude crosses the index seam.

So n steps are one multiplier raised to the power n.
``propagate_blocks`` transforms the initial state once and builds only
the rows asked for, a block of rows at a time: the rows c_hat_0 m^n for
the block's steps n go through one batched inverse transform, and the
block comes with those coefficient rows (at n = 0, m^0 = 1, c_hat_0
itself).  ``run``, ``compare`` and the shape experiment hand them to
``observables.snapshots`` or ``conserved_columns``, which take <P> and
<V> from them, so a record costs one transform.  The inverse transform
is still checked on every row: the row's summed occupation must match
the M of its amplitudes (Parseval).  The naive even-mode step multiplies
coefficients of the storage-order DFT, not of the momentum basis, so
its blocks take the momentum coefficients of their rows by one batched
forward transform.  A block holds at most ``RECORD_BLOCK_BYTES`` of
amplitudes, or one row where a row alone is larger, so memory stays
flat as the record count grows.
A block is a ``FieldState`` of rows; a checkpoint copies its row, so
it does not keep the block alive.  The lattice alone selects the
linearised step: Euler on an odd lattice, the naive even-mode step on
an even one.  ``advance`` takes n steps of any kind, ``exact_step`` and
``translate_spectral`` are n = 1 of the same propagator, and ``run``
has no other path.  The direct O(N^2) correlation ``euler_step`` is the
paper's site-space step, kept as the independent reference the fast
path is checked against: the tests iterate it, and the identity suite
steps a whole block of states at once through its row-wise form,
``_dense_euler_step``.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .basis import momentum_coefficients, site_amplitudes
from .kernels import f_site_matrix, kernel_f
from .lattice import EVEN, ODD, Lattice, make_even_lattice, wrap_index  # noqa: F401  (re-export)
from .observables import RECORD_BLOCK_BYTES, snapshots
from .series import TimeSeries
from .state import FieldState, _new_state, _require_one_state, state_from_amplitudes

EULER = "euler"
EXACT = "exact"
EVEN_NAIVE = "even_naive"
TRANSLATE = "translate"
# the step kinds that linearise the unitary, guarded by check_tau_bound
LINEARISED = (EULER, EVEN_NAIVE)

# hard ceiling and warning threshold for tau * g^2 * N^2 (= tau (2 pi / a)^2)
TAU_HARD_LIMIT = 0.5
TAU_WARN_LIMIT = 0.1


class TimestepBoundError(ValueError):
    """Time step too large for the linearised reaction step."""


@dataclass(frozen=True)
class EvolutionConfig:
    """How to step a state forward: the time step and the scheme (the
    linearised reaction step or the exact unitary).  The state's lattice
    fixes the parity, so an even lattice takes the naive even-mode step.
    Every scheme runs as powers of one multiplier (``propagator``)."""

    tau: float = 1e-3
    scheme: str = EULER

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError(f"tau must be positive (got {self.tau})")
        if self.scheme not in (EULER, EXACT):
            raise ValueError(f"scheme must be euler|exact (got {self.scheme!r})")


def check_tau_bound(tau: float, lattice: Lattice, stacklevel: int = 1) -> None:
    """Enforce tau g^2 N^2 < 0.5, warning above 0.1.

    A stiffness too large for a float (a vanishing lattice constant)
    counts as infinite and fails the bound.  The warning is attributed
    to the caller of this function at ``stacklevel`` 1, to its caller
    at 2, and so on.
    """
    try:
        stiffness = tau * lattice.reciprocal_constant**2 * lattice.n_sites**2
    except OverflowError:
        stiffness = math.inf
    if stiffness >= TAU_HARD_LIMIT:
        raise TimestepBoundError(
            f"tau * g^2 * N^2 = {stiffness:.3f} >= {TAU_HARD_LIMIT}; "
            "the linearised step is meaningless at this size"
        )
    if stiffness > TAU_WARN_LIMIT:
        warnings.warn(
            f"tau * g^2 * N^2 = {stiffness:.3f} > {TAU_WARN_LIMIT}; "
            "conservation will degrade visibly",
            stacklevel=stacklevel + 1,
        )


def _takes_linearised_step(kind: str, steps: Iterable[int]) -> bool:
    """Whether ``steps`` needs a linearised step, so the tau bound applies."""
    return kind in LINEARISED and any(n > 0 for n in steps)


def _naive_f_spectrum(lattice: Lattice) -> np.ndarray:
    """Eigenvalues of the naive circulant F, in integer DFT order.

    The first column of ``f_site_matrix`` is F at the storage offsets
    0..N-1 wrapped modulo N; F is even in d, so the circulant is
    symmetric and its eigenvalues are real.
    """
    column = kernel_f(wrap_index(np.arange(lattice.n_sites), lattice), lattice)
    return np.fft.fft(column).real


@dataclass(frozen=True)
class Propagator:
    """Steps of one kind as a multiplier on Fourier coefficients.

    ``log_multiplier`` holds ln m per coefficient, so n steps multiply
    by exp(n ln m).  The coefficients are those of the unbiased basis
    (``basis.momentum_coefficients``) or, with ``storage_dft``, the plain integer
    DFT of the amplitudes in storage order.
    """

    lattice: Lattice
    log_multiplier: np.ndarray
    storage_dft: bool = False

    def forward(self, state: FieldState) -> np.ndarray:
        """Coefficients of ``state`` in this propagator's basis."""
        if self.storage_dft:
            return np.fft.fft(state.c)
        return momentum_coefficients(self.lattice, state.c)

    def amplitudes_after(
        self, coefficients: np.ndarray, steps
    ) -> tuple[np.ndarray, np.ndarray]:
        """The coefficient rows ``coefficients * m**n``, one per n of
        ``steps``, and their site amplitudes by one batched inverse
        transform.

        Unchecked: a row that overflowed holds non-finite values, which
        ``state_from_amplitudes`` rejects.
        """
        evolved = np.asarray(steps, dtype=float)[:, None] * self.log_multiplier
        with np.errstate(over="ignore", invalid="ignore"):
            np.exp(evolved, out=evolved)
            np.multiply(coefficients, evolved, out=evolved)
            if self.storage_dft:
                return evolved, np.fft.ifft(evolved)
            return evolved, site_amplitudes(self.lattice, evolved)


def propagator(lattice: Lattice, kind: str, step: float) -> Propagator:
    """The per-step multiplier of one step kind on ``lattice``.

    ``step`` is the time step tau for ``euler`` and ``even_naive``, the
    time t for ``exact`` and the number of sites for ``translate``.
    The linearised multipliers 1 - i x are stored as
    ln|m| + i arg m = log1p(x^2) / 2 - i atan(x).  Raises ``ValueError``
    for an unknown kind, the wrong lattice parity (``euler`` needs an
    odd lattice, ``even_naive`` an even one) or a multiplier that is
    not finite, as when g^2 overflows.  Does not check the tau bound.
    """
    n = lattice.n_sites
    g = lattice.reciprocal_constant
    kappa = lattice.momentum_values()
    with np.errstate(over="ignore", invalid="ignore"):
        if kind == EXACT:
            log_m = -1j * (g * kappa) ** 2 * step
        elif kind == TRANSLATE:
            log_m = -2j * np.pi * kappa * step / n
        elif kind in LINEARISED:
            parity = ODD if kind == EULER else EVEN
            if lattice.parity != parity:
                raise ValueError(f"the {kind} step requires a {parity}-parity lattice")
            eigen = kappa * kappa if kind == EULER else _naive_f_spectrum(lattice)
            x = step * g * g * eigen
            log_m = 0.5 * np.log1p(x * x) - 1j * np.arctan(x)
        else:
            raise ValueError(f"unknown step kind {kind!r}")
        finite = bool(np.all(np.isfinite(log_m)))
    if not finite:
        raise ValueError(
            f"{kind} multiplier is not finite (g = {g:.3e}, step = {step:g})"
        )
    log_m.setflags(write=False)
    return Propagator(lattice, log_m, storage_dft=kind == EVEN_NAIVE)


def _block_rows(lattice: Lattice) -> int:
    """Rows per block: ``RECORD_BLOCK_BYTES`` of complex amplitudes."""
    return max(1, RECORD_BLOCK_BYTES // (np.dtype(complex).itemsize * lattice.n_sites))


def _power_blocks(
    state: FieldState, kind: str, step: float, steps: list[int]
) -> Iterator[tuple[list[int], FieldState, np.ndarray]]:
    """``propagate_blocks`` without the tau bound check."""
    lattice = state.lattice
    _require_one_state(state, "evolution")
    at_zero = np.asarray(steps) == 0
    prop = None if at_zero.all() else propagator(lattice, kind, step)
    initial = momentum_coefficients(lattice, state.c) if prop is None else prop.forward(state)
    rows = _block_rows(lattice)
    for lo in range(0, len(steps), rows):
        chunk, zero = steps[lo:lo + rows], at_zero[lo:lo + rows]
        if prop is None:  # every row is n = 0
            evolved = np.broadcast_to(initial, (len(chunk), lattice.n_sites))
            amplitudes = np.broadcast_to(state.c, evolved.shape)
        else:
            evolved, amplitudes = prop.amplitudes_after(initial, chunk)
            amplitudes[zero] = state.c
        block = state_from_amplitudes(lattice, amplitudes)
        if prop is not None and prop.storage_dft:
            evolved = momentum_coefficients(lattice, block.c)
        yield chunk, block, evolved


def propagate_blocks(
    state: FieldState, kind: str, step: float, steps: Iterable[int]
) -> Iterator[tuple[list[int], FieldState, np.ndarray]]:
    """Yield ``(ns, block, coefficients)``: the states after n steps for
    each n of ``steps``, a block (a ``FieldState`` of rows) at a time,
    in order, with the unbiased-basis coefficients of its rows.

    Every row is one power of the same multiplier: one forward
    transform, then one batched inverse transform per block of at most
    ``RECORD_BLOCK_BYTES`` (or one row).  ``coefficients`` are the rows
    c_hat_0 m^n the block was built from, which ``conserved_columns``
    and ``snapshots`` measure without a transform; a row at n = 0 holds
    ``state`` exactly and c_hat_0 = ``momentum_coefficients`` of it.
    The naive even-mode step (storage-order DFT) takes its blocks'
    coefficients by a forward transform of the rows.  The linearised
    kinds check ``check_tau_bound`` here, once, when some n >= 1; the
    propagator is built only then, so a list of zeros needs no valid
    multiplier.  Raises ``ValueError`` when a row leaves the finite
    floats, or when ``state`` is a block of rows rather than one state.
    """
    steps = list(steps)
    if _takes_linearised_step(kind, steps):
        check_tau_bound(step, state.lattice, stacklevel=2)
    return _power_blocks(state, kind, step, steps)


def advance(state: FieldState, kind: str, step: float, n_steps: int = 1) -> FieldState:
    """The state after ``n_steps`` steps of one kind (one row of
    ``propagate_blocks``); n = 0 returns ``state`` itself, with no
    transform and no check of ``kind`` or ``step``."""
    if n_steps == 0:
        _require_one_state(state, "evolution")
        return state
    if _takes_linearised_step(kind, (n_steps,)):
        check_tau_bound(step, state.lattice, stacklevel=2)
    _steps, block, _coefficients = next(_power_blocks(state, kind, step, [n_steps]))
    return block.row(0)


def euler_step(state: FieldState, tau: float) -> FieldState:
    """One reaction step, reference O(N^2) implementation."""
    if state.lattice.parity != ODD:
        raise ValueError(f"euler_step requires a {ODD}-parity lattice")
    check_tau_bound(tau, state.lattice, stacklevel=2)
    return _new_state(state.lattice, *_dense_euler_step(state.lattice, state.a, state.b, tau))


def _dense_euler_step(
    lattice: Lattice, a: np.ndarray, b: np.ndarray, tau: float
) -> tuple[np.ndarray, np.ndarray]:
    """``euler_step`` on raw fields, without its checks: the stepped
    ``(a, b)``.

    The fields hold one state per row with the sites on the last axis,
    shape (R, N) or (N,).  F acts on each row as a stacked matrix-vector
    product, which gives every row bitwise the result of ``F @ row``;
    the equivalent ``a @ F.T`` is one matrix product and does not.
    """
    fmat = f_site_matrix(lattice)
    scale = tau * lattice.reciprocal_constant**2
    created_a = np.matmul(fmat, b[..., None])[..., 0]
    created_b = np.matmul(fmat, a[..., None])[..., 0]
    return a + scale * created_a, b - scale * created_b


def exact_step(state: FieldState, t: float) -> FieldState:
    """Evolve by the exact unitary exp(-i P^2 t); valid for any t."""
    return advance(state, EXACT, t)


def translate(state: FieldState, steps: int) -> FieldState:
    """Cyclic shift of both fields (of every row) by ``steps`` sites."""
    return state_from_amplitudes(state.lattice, np.roll(state.c, steps, axis=-1))


def translate_spectral(state: FieldState, steps: int) -> FieldState:
    """Translation applied as exp(-i a steps P) in the momentum basis.

    Equal to ``translate`` on odd lattices (the generator property); on
    even lattices it is the sign-corrected shift that flips amplitude
    crossing the index seam.
    """
    return advance(state, TRANSLATE, steps)


def record_steps(n_steps: int, record_every: int) -> list[int]:
    """The steps a run records: 0, every ``record_every`` steps and
    ``n_steps``, ascending.

    Raises ``ValueError`` for ``n_steps < 0`` or ``record_every < 1``.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    return sorted({n_steps, *range(0, n_steps + 1, record_every)})


def run(
    state: FieldState,
    config: EvolutionConfig,
    n_steps: int,
    record_every: int = 10,
    *,
    checkpoint_every: int = 0,
) -> TimeSeries:
    """Evolve a state, recording observables as it goes.

    Snapshots are taken at step 0, every ``record_every`` steps and at
    the final step.  ``checkpoint_every`` > 0 additionally stores full
    states at those steps.  Only those rows are built, a block at a
    time (``propagate_blocks``), each row one power of the step
    multiplier; each block is measured by one ``snapshots`` call, from
    the momentum coefficients it comes with.  The lattice picks the
    Euler or the naive even-mode step.  The tau bound is checked once,
    when a step is taken.
    """
    steps = record_steps(n_steps, record_every)
    lattice = state.lattice

    def due(step: int, every: int) -> bool:
        return every > 0 and (step % every == 0 or step == n_steps)

    if checkpoint_every > 0:
        steps = sorted({*steps, *record_steps(n_steps, checkpoint_every)})
    kind = EXACT if config.scheme == EXACT else EVEN_NAIVE if lattice.parity == EVEN else EULER
    if _takes_linearised_step(kind, steps):
        check_tau_bound(config.tau, lattice, stacklevel=2)

    records = []
    checkpoints: dict[int, FieldState] = {}
    for chunk, block, coefficients in _power_blocks(state, kind, config.tau, steps):
        recorded = [row for row, step in enumerate(chunk) if due(step, record_every)]
        if recorded:
            rows, spectra = block, coefficients
            if len(recorded) < len(chunk):
                rows, spectra = block.row(recorded), coefficients[recorded]
            records.extend(snapshots(rows, [chunk[row] for row in recorded], spectra))
        for row, step in enumerate(chunk):
            if due(step, checkpoint_every):
                checkpoints[step] = state if step == 0 else block.row(row)
    return TimeSeries(snapshots=tuple(records), checkpoints=checkpoints)
