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

So n steps are one multiplier raised to the power n.  ``run`` transforms
the initial state once and builds a state only where it records or
checkpoints, as the inverse transform of c_hat_0 m^n.  The one-step
functions (``euler_step_spectral``, ``exact_step``, ``translate_spectral``,
``even_naive_step``) are n = 1 of the same propagator.  The direct
O(N^2) correlation ``euler_step`` is kept as the independent reference
step that ``euler_method="reference"`` and the identity suite iterate.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .basis import MomentumSpectrum, from_momentum_basis, to_momentum_basis
from .kernels import KernelTable, build_kernel_table, f_site_matrix, kernel_f
from .lattice import EVEN, ODD, Lattice, make_even_lattice, wrap_index  # noqa: F401  (re-export)
from .observables import snapshot
from .series import TimeSeries
from .state import FieldState, _new_state, state_from_amplitudes

EULER = "euler"
EXACT = "exact"
ODD_STANDARD = "odd_standard"
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
    """How to step a state forward.

    ``euler_method`` picks the implementation of the reaction step:
    ``"reference"`` is the direct O(N^2) correlation, ``"spectral"``
    the fast diagonal path; both produce the same state to 1e-12.
    """

    tau: float = 1e-3
    scheme: str = EULER
    parity_mode: str = ODD_STANDARD
    euler_method: str = "spectral"

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError(f"tau must be positive (got {self.tau})")
        if self.scheme not in (EULER, EXACT):
            raise ValueError(f"scheme must be euler|exact (got {self.scheme!r})")
        if self.parity_mode not in (ODD_STANDARD, EVEN_NAIVE):
            raise ValueError(
                f"parity_mode must be odd_standard|even_naive (got {self.parity_mode!r})"
            )
        if self.euler_method not in ("reference", "spectral"):
            raise ValueError(
                f"euler_method must be reference|spectral (got {self.euler_method!r})"
            )


def check_tau_bound(tau: float, lattice: Lattice) -> None:
    """Enforce tau g^2 N^2 < 0.5, warning above 0.1.

    A stiffness too large for a float (a vanishing lattice constant)
    counts as infinite and fails the bound.
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
            stacklevel=2,
        )


def _require_parity(state: FieldState, parity: str, op: str) -> None:
    if state.lattice.parity != parity:
        raise ValueError(f"{op} requires a {parity}-parity lattice")


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
    (``to_momentum_basis``) or, with ``storage_dft``, the plain integer
    DFT of the amplitudes in storage order.
    """

    lattice: Lattice
    log_multiplier: np.ndarray
    storage_dft: bool = False

    def forward(self, state: FieldState) -> np.ndarray:
        """Coefficients of ``state`` in this propagator's basis."""
        if self.storage_dft:
            return np.fft.fft(state.amplitudes())
        return to_momentum_basis(state).coefficients

    def state_after(self, coefficients: np.ndarray, n_steps: int) -> FieldState:
        """The state whose coefficients are ``coefficients * m**n_steps``.

        Raises ``ValueError`` when the result leaves the finite floats.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            evolved = coefficients * np.exp(n_steps * self.log_multiplier)
            if self.storage_dft:
                return state_from_amplitudes(self.lattice, np.fft.ifft(evolved))
            return from_momentum_basis(MomentumSpectrum(self.lattice, evolved))


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


def propagate(
    state: FieldState, kind: str, step: float, steps: Iterable[int]
) -> Iterator[tuple[int, FieldState]]:
    """Yield ``(n, state after n steps)`` for each n of ``steps``.

    Every state is one power of the same multiplier: one forward
    transform, then one inverse transform per n.  n = 0 yields ``state``
    itself.  The linearised kinds check ``check_tau_bound`` once, before
    the first n >= 1; the propagator is built only then, so a list of
    zeros needs no valid multiplier.
    """
    prop = coefficients = None
    for n in steps:
        if n == 0:
            yield 0, state
            continue
        if prop is None:
            if kind in LINEARISED:
                check_tau_bound(step, state.lattice)
            prop = propagator(state.lattice, kind, step)
            coefficients = prop.forward(state)
        yield n, prop.state_after(coefficients, n)


def advance(state: FieldState, kind: str, step: float, n_steps: int = 1) -> FieldState:
    """The state after ``n_steps`` steps of one kind (see ``propagate``)."""
    return next(propagate(state, kind, step, (n_steps,)))[1]


def euler_step(state: FieldState, tau: float, kernels: KernelTable) -> FieldState:
    """One reaction step, reference O(N^2) implementation."""
    _require_parity(state, ODD, "euler_step")
    if kernels.lattice != state.lattice:
        raise ValueError("state and kernel table live on different lattices")
    check_tau_bound(tau, state.lattice)
    fmat = f_site_matrix(state.lattice)
    scale = tau * state.lattice.reciprocal_constant**2
    created_b = fmat @ state.a  # evaluate both sums before touching either field
    return _new_state(
        state.lattice,
        state.a + scale * (fmat @ state.b),
        state.b - scale * created_b,
    )


def euler_step_spectral(state: FieldState, tau: float) -> FieldState:
    """One reaction step through the momentum basis (fast path)."""
    _require_parity(state, ODD, "euler_step_spectral")
    return advance(state, EULER, tau)


def exact_step(state: FieldState, t: float) -> FieldState:
    """Evolve by the exact unitary exp(-i P^2 t); valid for any t."""
    return advance(state, EXACT, t)


def translate(state: FieldState, steps: int) -> FieldState:
    """Cyclic shift of both fields by ``steps`` sites."""
    return _new_state(
        state.lattice, np.roll(state.a, steps), np.roll(state.b, steps)
    )


def translate_spectral(state: FieldState, steps: int) -> FieldState:
    """Translation applied as exp(-i a steps P) in the momentum basis.

    Equal to ``translate`` on odd lattices (the generator property); on
    even lattices it is the sign-corrected shift that flips amplitude
    crossing the index seam.
    """
    return advance(state, TRANSLATE, steps)


def even_naive_step(
    state: FieldState, tau: float, kernels: KernelTable | None = None
) -> FieldState:
    """One reaction step on an even lattice with naive modulo-N wrapping.

    The displacement sum formally runs over -N/2 .. N/2; the profile
    vanishes at both endpoint displacements, so the duplicated endpoint
    contributes nothing.  Deliberately NOT equivalent to the quantum
    evolution once amplitude crosses the index seam.
    """
    _require_parity(state, EVEN, "even_naive_step")
    if kernels is not None and kernels.lattice != state.lattice:
        raise ValueError("state and kernel table live on different lattices")
    return advance(state, EVEN_NAIVE, tau)


def _reference_states(
    state: FieldState, tau: float, kernels: KernelTable, steps: Iterable[int]
) -> Iterator[tuple[int, FieldState]]:
    """``propagate`` for the O(N^2) reference step: explicit steps."""
    current, done = state, 0
    for n in steps:
        for _ in range(n - done):
            current = euler_step(current, tau, kernels)
        done = n
        yield n, current


def run(
    state: FieldState,
    config: EvolutionConfig,
    n_steps: int,
    record_every: int = 10,
    kernels: KernelTable | None = None,
    checkpoint_every: int = 0,
) -> TimeSeries:
    """Evolve a state, recording observables as it goes.

    Snapshots are taken at step 0, every ``record_every`` steps and at
    the final step.  ``checkpoint_every`` > 0 additionally stores full
    states at those steps.  Only those states are built, each as one
    power of the step multiplier (``propagate``), except under
    ``euler_method="reference"``, which steps explicitly.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    lattice = state.lattice
    even_mode = config.parity_mode == EVEN_NAIVE
    if even_mode and lattice.parity != EVEN:
        raise ValueError("parity_mode even_naive requires an even lattice")
    if not even_mode and lattice.parity != ODD:
        raise ValueError(
            "even lattices run only under parity_mode even_naive "
            "(or the exact scheme with that mode)"
        )

    def due(step: int, every: int) -> bool:
        return every > 0 and (step % every == 0 or step == n_steps)

    marks = {n_steps, *range(0, n_steps + 1, record_every)}
    if checkpoint_every > 0:
        marks.update(range(0, n_steps + 1, checkpoint_every))
    steps = sorted(marks)
    if config.scheme == EULER and not even_mode and config.euler_method == "reference":
        if kernels is None:
            kernels = build_kernel_table(lattice)
        states = _reference_states(state, config.tau, kernels, steps)
    else:
        kind = EXACT if config.scheme == EXACT else EVEN_NAIVE if even_mode else EULER
        states = propagate(state, kind, config.tau, steps)

    snapshots = []
    checkpoints: dict[int, FieldState] = {}
    for step, current in states:
        if due(step, record_every):
            snapshots.append(snapshot(current, step, kernels))
        if due(step, checkpoint_every):
            checkpoints[step] = current
    return TimeSeries(snapshots=tuple(snapshots), checkpoints=checkpoints)
