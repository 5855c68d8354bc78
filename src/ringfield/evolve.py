"""Time evolution: every step kind is a multiplier on Fourier coefficients.

The reaction step of the two-field process,

    a_s <- a_s + tau g^2 sum_d b_[s+d] F(d)
    b_s <- b_s - tau g^2 sum_d a_[s+d] F(d),

is in complex form the linearised unitary c <- (1 - i tau g^2 F) c.
F is diagonal in the unbiased (momentum) basis, where it acts as
kappa^2, so one Euler step multiplies the momentum coefficients by
m = 1 - i tau g^2 kappa^2.  The same holds for every operator applied
here (``propagator`` builds each multiplier):

* Euler step          1 - i tau g^2 kappa^2    (odd lattice)
                      1 - i tau g^2 lambda_k   (even lattice)
* exact step          exp(-i g^2 kappa^2 t), valid for any t
* translation         exp(-2 pi i kappa m / N) by m sites

On an even lattice the same reaction rule wraps F modulo N: the naive
even-mode step.  That matrix is a circulant, so it is diagonal in the
plain integer DFT of the storage order (not in the half-integer basis),
with eigenvalues lambda, the DFT of its first column.  It is
deliberately not the quantum evolution: its unitary reference is
``exact_step`` on the even lattice, whose half-integer basis carries
the sign-corrected translation, and the two part ways once amplitude
crosses the index seam.

So n steps are one multiplier raised to the power n.  ``run``
transforms the initial state once and builds only the rows it records,
a block (``observables.row_blocks``) at a time (``_power_blocks``): the
rows c_hat_0 m^n go through one batched inverse transform, and
``observables.snapshots`` measures <P> and <V> from those coefficient
rows, checking Parseval on every row.  So a record costs one transform,
and memory stays flat as the record count grows.  The Euler step of an
even lattice multiplies coefficients of the storage-order DFT, so its
blocks take their momentum coefficients by one batched forward
transform.  ``compare`` and the conservation table build no rows: their
columns are closed forms in c_hat_0 (``experiments``).  ``advance``
takes n steps of any kind, and ``exact_step`` and ``translate_spectral``
are n = 1 of it.  Every step count passes ``_check_count``, and every
linearised step the tau bound (``check_tau_bound``, called where the
step is built: ``propagator`` and ``_dense_euler_step``), before any
transform.  The direct O(N^2) correlation ``euler_step`` is the paper's
site-space step, kept as the independent reference on both parities:
the tests iterate it, and the identity suite steps a block of states at
once through its row-wise form, ``_dense_euler_step``.
"""

from __future__ import annotations

import math
import numbers
import sys
import warnings
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .basis import momentum_coefficients, site_amplitudes
from .kernels import f_site_matrix, kernel_f
from .lattice import EVEN, Lattice, wrap_index
from .observables import row_blocks, snapshots
from .series import TimeSeries
from .state import FieldState, _new_state, _require_one_state, state_from_amplitudes

EULER = "euler"
EXACT = "exact"
TRANSLATE = "translate"

# hard ceiling and warning threshold for tau * g^2 * N^2 (= tau (2 pi / a)^2)
TAU_HARD_LIMIT = 0.5
TAU_WARN_LIMIT = 0.1


class TimestepBoundError(ValueError):
    """Time step too large for the linearised reaction step."""


def _check_tau(tau: float) -> None:
    if not tau > 0:  # NaN too
        raise ValueError(f"tau must be positive (got {tau})")


def _check_count(name: str, value, minimum: int) -> None:
    """``ValueError`` naming ``name`` unless ``value`` is an integer (a
    Python or numpy one) >= ``minimum``."""
    if not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum} (got {value!r})")


@dataclass(frozen=True)
class EvolutionConfig:
    """How to step a state forward: the time step and the scheme (the
    linearised reaction step or the exact unitary).  On an even lattice
    the Euler scheme is the naive even-mode step.  Every scheme runs as
    powers of one multiplier (``propagator``)."""

    tau: float = 1e-3
    scheme: str = EULER

    def __post_init__(self):
        _check_tau(self.tau)
        if self.scheme not in (EULER, EXACT):
            raise ValueError(f"scheme must be euler|exact (got {self.scheme!r})")


def check_tau_bound(tau: float, lattice: Lattice) -> None:
    """Enforce tau g^2 N^2 < 0.5, warning above 0.1.

    A stiffness too large for a float (a vanishing lattice constant)
    counts as infinite and fails the bound.  The warning names the
    innermost caller outside this package, as ``logging`` finds its own.
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
        frame, stacklevel = sys._getframe(1), 2
        while frame.f_back and f"{frame.f_globals.get('__name__')}.".startswith("ringfield."):
            frame, stacklevel = frame.f_back, stacklevel + 1
        warnings.warn(
            f"tau * g^2 * N^2 = {stiffness:.3f} > {TAU_WARN_LIMIT}; "
            "conservation will degrade visibly",
            stacklevel=stacklevel,
        )


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

    ``step`` is the time step tau for ``euler``, the time t for
    ``exact`` and the number of sites for ``translate``.  The Euler
    multiplier 1 - i x, x = tau g^2 kappa^2 (tau g^2 lambda on an even
    lattice, module docstring), is stored as ln|m| + i arg m =
    log1p(x^2) / 2 - i atan(x).  Raises ``ValueError`` for an unknown
    kind or a multiplier that is not finite, as when g^2 overflows.
    The Euler kind checks the tau bound first.
    """
    n = lattice.n_sites
    g = lattice.reciprocal_constant
    kappa = lattice.momentum_values()
    naive = kind == EULER and lattice.parity == EVEN
    with np.errstate(over="ignore", invalid="ignore"):
        if kind == EXACT:
            log_m = -1j * (g * kappa) ** 2 * step
        elif kind == TRANSLATE:
            log_m = -2j * np.pi * kappa * step / n
        elif kind == EULER:
            check_tau_bound(step, lattice)
            x = step * g * g * (_naive_f_spectrum(lattice) if naive else kappa * kappa)
            log_m = 0.5 * np.log1p(x * x) - 1j * np.arctan(x)
        else:
            raise ValueError(f"unknown step kind {kind!r}")
        finite = bool(np.all(np.isfinite(log_m)))
    if not finite:
        raise ValueError(
            f"{kind} multiplier is not finite (g = {g:.3e}, step = {step:g})"
        )
    log_m.setflags(write=False)
    return Propagator(lattice, log_m, storage_dft=naive)


def _power_blocks(
    state: FieldState, kind: str, step: float, steps: list[int]
) -> Iterator[tuple[list[int], FieldState, np.ndarray]]:
    """Yield ``(ns, block, coefficients)`` for the n of ``steps``, a block
    at a time (module docstring); a row at n = 0 holds ``state`` and its
    c_hat_0 exactly.  The propagator, and with it the tau bound check,
    is built only when some n >= 1.  Raises ``ValueError``, before any
    transform, for a count that is not an integer >= 0 or a ``state``
    that is a block, and for a row that leaves the finite floats."""
    lattice = state.lattice
    _require_one_state(state, "evolution")
    for n in steps:
        _check_count("step count", n, 0)
    at_zero = np.asarray(steps) == 0
    prop = None if at_zero.all() else propagator(lattice, kind, step)
    naive = prop is not None and prop.storage_dft
    initial = np.fft.fft(state.c) if naive else momentum_coefficients(lattice, state.c)
    for rows in row_blocks(len(steps), np.dtype(complex).itemsize * lattice.n_sites):
        chunk, zero = steps[rows], at_zero[rows]
        if prop is None:  # every row is n = 0
            evolved = np.broadcast_to(initial, (len(chunk), lattice.n_sites))
            amplitudes = np.broadcast_to(state.c, evolved.shape)
        else:
            evolved, amplitudes = prop.amplitudes_after(initial, chunk)
            amplitudes[zero] = state.c
        block = state_from_amplitudes(lattice, amplitudes)
        if naive:
            evolved = momentum_coefficients(lattice, block.c)
        yield chunk, block, evolved


def advance(state: FieldState, kind: str, step: float, n_steps: int = 1) -> FieldState:
    """The state after ``n_steps`` steps of one kind (one row of
    ``_power_blocks``); n = 0 returns ``state`` itself, with no
    transform and no check of ``kind`` or ``step``."""
    _check_count("n_steps", n_steps, 0)
    if n_steps == 0:
        _require_one_state(state, "evolution")
        return state
    _steps, block, _coefficients = next(_power_blocks(state, kind, step, [n_steps]))
    return block.row(0)


def euler_step(state: FieldState, tau: float) -> FieldState:
    """One reaction step, reference O(N^2) implementation.

    On an even lattice F wraps modulo N, so this is the naive even-mode
    step.  Builds the dense F, so it raises ``ValueError`` before any
    allocation for N > ``kernels.SITE_MATRIX_MAX_SITES``.
    """
    return _new_state(state.lattice, *_dense_euler_step(state.lattice, state.a, state.b, tau))


def _dense_euler_step(
    lattice: Lattice, a: np.ndarray, b: np.ndarray, tau: float
) -> tuple[np.ndarray, np.ndarray]:
    """``euler_step`` on raw fields: the stepped ``(a, b)``, after the
    tau bound check.

    The fields hold one state per row with the sites on the last axis,
    shape (R, N) or (N,).  F acts on each row as a stacked matrix-vector
    product, which gives every row bitwise the result of ``F @ row``;
    the equivalent ``a @ F.T`` is one matrix product and does not.
    """
    check_tau_bound(tau, lattice)
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

    Raises ``ValueError`` unless ``n_steps`` is an integer >= 0 and
    ``record_every`` an integer >= 1.
    """
    _check_count("n_steps", n_steps, 0)
    _check_count("record_every", record_every, 1)
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

    Snapshots are taken at the ``record_steps`` of ``record_every``, and
    ``checkpoint_every`` > 0 also stores full states at its own.  Only
    those rows are built, a block at a time (module docstring), by one
    propagator, which checks the tau bound.  A count that is not an
    integer >= 0 (``record_every`` >= 1) raises ``ValueError`` first.
    """
    recorded = set(record_steps(n_steps, record_every))
    _check_count("checkpoint_every", checkpoint_every, 0)
    stored = set(record_steps(n_steps, checkpoint_every) if checkpoint_every else ())
    steps = sorted(recorded | stored)

    records = []
    checkpoints: dict[int, FieldState] = {}
    for chunk, block, coefficients in _power_blocks(state, config.scheme, config.tau, steps):
        rows = [row for row, step in enumerate(chunk) if step in recorded]
        if rows:
            measured, spectra = block, coefficients
            if len(rows) < len(chunk):
                measured, spectra = block.row(rows), coefficients[rows]
            records.extend(snapshots(measured, [chunk[row] for row in rows], spectra))
        for row, step in enumerate(chunk):
            if step in stored:
                checkpoints[step] = state if step == 0 else block.row(row)
    return TimeSeries(snapshots=tuple(records), checkpoints=checkpoints)
