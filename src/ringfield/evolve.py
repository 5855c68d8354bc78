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
deliberately not the quantum evolution: its unitary reference is the
exact step on the even lattice, whose half-integer basis carries the
sign-corrected translation, and the two part ways once amplitude
crosses the index seam.

So n steps are one multiplier raised to the power n.  ``run``
transforms the initial state once and builds only the rows it records,
a block (``observables.row_blocks``) at a time (``_power_blocks``): the
rows c_hat_0 m^n go through one batched inverse transform, so a record
costs one transform, and memory stays flat as the record count grows.
Its M and <P> columns come from one ``observables.spectral_series`` of
|c_hat_0|^2 whenever the step is diagonal in the unbiased basis, the
reduction behind ``compare``'s and the conservation table's closed
forms (``experiments``), which build no rows.  ``m_total`` is the
measured site-space M of each row, held to that series (Parseval).  The
naive even Euler step multiplies the storage-order DFT instead, so each
of its rows reduces its own occupation.  ``advance`` is the one step
function: n steps of any kind.  Every step count passes
``state._check_integer``, and every linearised step the tau bound
(``check_tau_bound``, called where the step is built: ``propagator``
and ``_dense_euler_step``), before any transform.  The paper's
site-space step on both parities, the direct O(N^2) correlation
``_dense_euler_step``, is on no public path: it is the reference of
``verify``'s identity suite and of the tests.
"""

from __future__ import annotations

import math
import sys
import warnings
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .basis import momentum_coefficients, site_amplitudes
from .kernels import _euler_x, f_site_matrix
from .lattice import EVEN, Lattice
from .observables import row_blocks, snapshots, spectral_series
from .series import TimeSeries
from .state import FieldState, _check_integer, _require_one_state, state_from_amplitudes

EULER = "euler"
EXACT = "exact"
TRANSLATE = "translate"

# hard ceiling and warning threshold for tau * g^2 * N^2 (= tau (2 pi / a)^2)
TAU_HARD_LIMIT = 0.5
TAU_WARN_LIMIT = 0.1

# the most steps one record list may hold (run, its checkpoints, compare, the table)
MAX_RECORDS = 10**6


class TimestepBoundError(ValueError):
    """Time step too large for the linearised reaction step."""


def _check_tau(tau: float) -> None:
    if not tau > 0:  # NaN too
        raise ValueError(f"tau must be positive (got {tau})")


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

    A tau that is not positive (NaN too) raises ``ValueError`` first, so
    a negative or zero step cannot pass under the bound.  A stiffness
    too large for a float (a vanishing lattice constant) counts as
    infinite and fails the bound.  The warning names the innermost
    caller outside this package, as ``logging`` finds its own.
    """
    _check_tau(tau)
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

    def amplitudes_after(self, coefficients: np.ndarray, steps) -> np.ndarray:
        """The site amplitudes of the coefficient rows
        ``coefficients * m**n``, one per n of ``steps``, by one batched
        inverse transform: ``coefficients`` is one row for every n, or
        one row per n.

        Unchecked: a row that overflowed holds non-finite values, which
        ``state_from_amplitudes`` rejects.
        """
        evolved = np.asarray(steps, dtype=float)[:, None] * self.log_multiplier
        with np.errstate(over="ignore", invalid="ignore"):
            np.exp(evolved, out=evolved)
            np.multiply(coefficients, evolved, out=evolved)
            if self.storage_dft:
                return np.fft.ifft(evolved)
            return site_amplitudes(self.lattice, evolved)


def propagator(lattice: Lattice, kind: str, step: float) -> Propagator:
    """The per-step multiplier of one step kind on ``lattice``.

    ``step`` is the time step tau for ``euler``, the time t for
    ``exact`` and the number of sites for ``translate``.  The Euler
    multiplier 1 - i x (``kernels._euler_x``: x = tau g^2 kappa^2, or
    tau g^2 lambda on an even lattice) is stored as ln|m| + i arg m =
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
            x = _euler_x(lattice, step)
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
) -> tuple[Propagator | None, np.ndarray, Iterator[tuple[slice, FieldState]]]:
    """The propagator for the n of ``steps`` (``None``, with no tau bound
    check, unless some n >= 1), the c_hat_0 of ``state`` that it
    multiplies, and an iterator of ``(rows, block)``: a slice of
    ``steps`` and its states, a block at a time (module docstring), with
    ``state`` exactly at n = 0.  Raises ``ValueError``, before any
    transform, for a count that is not an integer >= 0 or a ``state``
    that is a block, and, while iterating, for a row that leaves the
    finite floats."""
    lattice = state.lattice
    _require_one_state(state, "evolution")
    for n in steps:
        _check_integer("step count", n, 0)
    at_zero = np.asarray(steps) == 0
    prop = None if at_zero.all() else propagator(lattice, kind, step)
    naive = prop is not None and prop.storage_dft
    initial = np.fft.fft(state.c) if naive else momentum_coefficients(lattice, state.c)

    def blocks():
        for rows in row_blocks(len(steps), np.dtype(complex).itemsize * lattice.n_sites):
            if prop is None:  # every row is n = 0
                amplitudes = np.broadcast_to(state.c, (len(steps[rows]), lattice.n_sites))
            else:
                amplitudes = prop.amplitudes_after(initial, steps[rows])
                amplitudes[at_zero[rows]] = state.c
            yield rows, state_from_amplitudes(lattice, amplitudes)

    return prop, initial, blocks()


def advance(state: FieldState, kind: str, step: float, n_steps: int = 1) -> FieldState:
    """The state after ``n_steps`` steps of one kind, ``euler``, ``exact``
    or ``translate``, with ``step`` read as ``propagator`` reads it (one
    row of ``_power_blocks``); n = 0 returns ``state`` itself, with no
    transform and no check of ``kind`` or ``step``."""
    _check_integer("n_steps", n_steps, 0)
    if n_steps == 0:
        _require_one_state(state, "evolution")
        return state
    _prop, _initial, blocks = _power_blocks(state, kind, step, [n_steps])
    return next(blocks)[1].row(0)


def _dense_euler_step(
    lattice: Lattice, a: np.ndarray, b: np.ndarray, tau: float
) -> tuple[np.ndarray, np.ndarray]:
    """The reaction step as the direct O(N^2) correlation with the dense
    F (wrapped modulo N on an even lattice: the naive step), on raw
    fields: the stepped ``(a, b)``, after the tau bound check.  Raises
    ``ValueError`` before any allocation for N > ``kernels.SITE_MATRIX_MAX_SITES``.

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


def record_steps(n_steps: int, record_every: int) -> list[int]:
    """The steps a run records: 0, every ``record_every`` steps and
    ``n_steps``, ascending.

    Raises ``ValueError`` unless ``n_steps`` is an integer >= 0 and
    ``record_every`` an integer >= 1, or when the list would hold more
    than ``MAX_RECORDS`` steps, before building it.
    """
    _check_integer("n_steps", n_steps, 0)
    _check_integer("record_every", record_every, 1)
    count = n_steps // record_every + 1 + (n_steps % record_every > 0)
    if count > MAX_RECORDS:
        raise ValueError(f"{n_steps} steps recorded every {record_every} make {count} "
                         f"records, more than {MAX_RECORDS}")
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
    propagator, which checks the tau bound; their <P> and <V> come from
    one ``spectral_series`` on the diagonal steps, as ``compare``'s do.
    A count that is not an integer >= 0 (``record_every`` >= 1) raises
    ``ValueError`` first.
    """
    recorded = set(record_steps(n_steps, record_every))
    _check_integer("checkpoint_every", checkpoint_every, 0)
    stored = set(record_steps(n_steps, checkpoint_every) if checkpoint_every else ())
    steps = sorted(recorded | stored)
    prop, initial, blocks = _power_blocks(state, config.scheme, config.tau, steps)
    spectral = None
    if prop is None or not prop.storage_dft:  # diagonal in the unbiased basis
        log_m = np.zeros(len(initial)) if prop is None else prop.log_multiplier.real  # m^0 = 1
        spectral = np.stack(spectral_series(state.lattice, np.abs(initial) ** 2, log_m, steps))

    records = []
    checkpoints: dict[int, FieldState] = {}
    for rows, block in blocks:
        chunk = steps[rows]
        kept = [row for row, step in enumerate(chunk) if step in recorded]
        if kept:
            measured = block if len(kept) == len(chunk) else block.row(kept)
            columns = None if spectral is None else spectral[:, rows][:, kept]
            records.extend(snapshots(measured, [chunk[row] for row in kept], columns))
        for row, step in enumerate(chunk):
            if step in stored:
                checkpoints[step] = state if step == 0 else block.row(row)
    return TimeSeries(snapshots=tuple(records), checkpoints=checkpoints)
