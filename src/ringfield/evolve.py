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
transforms the initial state once (``Propagator.coefficients``) and
builds and measures only the rows it records or checkpoints, a block
(``ioutil.row_blocks``, 256 KiB of rows) at a time: the rows
c_hat_0 m^n are built in one array and go through one batched inverse
transform, which ``basis.site_amplitudes`` takes in place in the array
it returns (``Propagator.amplitudes_after``).  So a row costs its share
of one FFT call, whose fixed cost at a prime N a block spreads over
its rows (``ioutil.RECORD_BLOCK_BYTES``), and memory stays flat.
Its M and <P> columns come from one ``observables.spectral_series`` of
|c_hat_0|^2 whenever the step is diagonal in the unbiased basis, the
reduction behind ``compare``'s and the conservation table's closed
forms (``experiments``), which build no rows.  ``m_total`` is the
measured site-space M of each row, held to that series (Parseval).  The
naive even Euler step multiplies the storage-order DFT instead, so each
of its rows reduces its own occupation.  ``advance`` is the one step
function: n steps of any kind, one power of one row.  Every step count passes
``state._check_integer`` (in ``advance`` or ``record_steps``), and every
linearised step the tau bound (``check_tau_bound``, called where the
step is built, in ``propagator``), before any transform.  The
paper's site-space step, the direct O(N^2) correlation with a dense F,
is not in this module: ``verify``'s identity suite takes it on its own
small lattices (``experiments``, N <= ``IDENTITY_MAX_SITES``), and the
tests' reference copy on both parities is in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .basis import momentum_coefficients, site_amplitudes
from .kernels import _euler_x
from .lattice import EVEN, Lattice
from .ioutil import row_blocks
from .observables import snapshot, snapshots, spectral_series
from .series import TimeSeries
from .state import FieldState, _check_integer, _frozen, _require_one_state, state_from_amplitudes

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

    def coefficients(self, amplitudes: np.ndarray) -> np.ndarray:
        """The coefficients of site amplitudes (last axis) that the
        multiplier acts on: the transform ``amplitudes_after`` inverts."""
        if self.storage_dft:
            return np.fft.fft(amplitudes)
        return momentum_coefficients(self.lattice, amplitudes)

    def amplitudes_after(self, coefficients: np.ndarray, steps) -> np.ndarray:
        """The site amplitudes of the coefficient rows
        ``coefficients * m**n``, one per n of ``steps``, by one batched
        inverse transform: ``coefficients`` is one row for every n, or
        one row per n.

        Unchecked: a row that overflowed holds non-finite values, which
        ``state._frozen`` rejects.
        """
        evolved = np.asarray(steps, dtype=float)[:, None] * self.log_multiplier
        with np.errstate(over="ignore", invalid="ignore"):
            np.exp(evolved, out=evolved)
            np.multiply(coefficients, evolved, out=evolved)
            if self.storage_dft:
                return np.fft.ifft(evolved, out=evolved)
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


def advance(state: FieldState, kind: str, step: float, n_steps: int = 1) -> FieldState:
    """The state after ``n_steps`` steps of one kind, ``euler``, ``exact``
    or ``translate``, with ``step`` read as ``propagator`` reads it (one
    power of one row); n = 0 returns ``state`` itself, with no transform
    and no check of ``kind`` or ``step``."""
    _check_integer("n_steps", n_steps, 0)
    _require_one_state(state, "evolution")
    if n_steps == 0:
        return state
    prop = propagator(state.lattice, kind, step)
    return state_from_amplitudes(
        state.lattice, prop.amplitudes_after(prop.coefficients(state.c), [n_steps])[0])


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
    propagator, which checks the tau bound, and all are measured: a
    checkpoint passes the Parseval check of a record.  Their <P> and <V>
    come from one ``spectral_series`` on the diagonal steps, as
    ``compare``'s do.  Step 0 is ``state`` itself; zero steps build no
    propagator and check no tau bound.  A count that is not an integer
    >= 0 (``record_every`` >= 1) raises ``ValueError`` first.
    """
    recorded = set(record_steps(n_steps, record_every))
    _check_integer("checkpoint_every", checkpoint_every, 0)
    stored = set(record_steps(n_steps, checkpoint_every) if checkpoint_every else ())
    _require_one_state(state, "evolution")
    if n_steps == 0:
        return TimeSeries((snapshot(state, 0),), checkpoints=dict.fromkeys(stored, state))
    steps = sorted(recorded | stored)
    lattice = state.lattice
    prop = propagator(lattice, config.scheme, config.tau)
    initial = prop.coefficients(state.c)
    spectral = None
    if not prop.storage_dft:  # diagonal in the unbiased basis
        spectral = np.stack(spectral_series(
            lattice, np.abs(initial) ** 2, prop.log_multiplier.real, steps))

    records = []
    checkpoints: dict[int, FieldState] = {}
    for rows in row_blocks(len(steps), np.dtype(complex).itemsize * lattice.n_sites):
        amplitudes = prop.amplitudes_after(initial, steps[rows])
        if rows.start == 0:
            amplitudes[0] = state.c  # steps[0] = 0: the state itself, bit for bit
        block = _frozen(lattice, amplitudes)
        measured = snapshots(block, steps[rows], None if spectral is None else spectral[:, rows])
        for row, snap in enumerate(measured):
            if snap.step in recorded:
                records.append(snap)
            if snap.step in stored:
                checkpoints[snap.step] = state if snap.step == 0 else block.row(row)
    return TimeSeries(snapshots=tuple(records), checkpoints=checkpoints)
