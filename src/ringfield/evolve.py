"""Time evolution engines.

Two schemes evolve a state:

* ``euler_step`` applies one step of the two-field reaction process,

      a_s <- a_s + tau g^2 sum_d b_[s+d] F(d)
      b_s <- b_s - tau g^2 sum_d a_[s+d] F(d)

  which in complex form is the linearised unitary,
  c <- (1 - i tau g^2 F) c.  The reference implementation is the direct
  O(N^2) circular correlation; a spectral fast path multiplies the
  momentum coefficients by (1 - i tau g^2 k^2) and agrees with the
  reference to rounding because the step operator is diagonal in the
  unbiased basis.

* ``exact_step`` applies the full unitary exp(-i P^2 t) spectrally and
  is exact for any t.

The even demonstration mode evolves an even-site lattice with the same
reaction rule and the naive modulo-N wrap (``even_naive_step``).  Its
unitary reference is ``exact_step`` on the even lattice, whose
half-integer momentum basis carries the sign-corrected translation; the
two agree while amplitude stays clear of the index seam and part ways
once it crosses, which is the point of the demonstration.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .basis import from_momentum_basis, to_momentum_basis
from .kernels import KernelTable, build_kernel_table, f_site_matrix
from .lattice import EVEN, ODD, Lattice, make_even_lattice  # noqa: F401  (re-export)
from .observables import snapshot
from .series import TimeSeries
from .state import FieldState, _new_state

EULER = "euler"
EXACT = "exact"
ODD_STANDARD = "odd_standard"
EVEN_NAIVE = "even_naive"

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
    check_tau_bound(tau, state.lattice)
    spectrum = to_momentum_basis(state)
    kappa = state.lattice.momentum_values()
    g = state.lattice.reciprocal_constant
    coeff = spectrum.coefficients * (1.0 - 1j * tau * g * g * kappa * kappa)
    return from_momentum_basis(type(spectrum)(state.lattice, coeff))


def exact_step(state: FieldState, t: float) -> FieldState:
    """Evolve by the exact unitary exp(-i P^2 t); valid for any t."""
    spectrum = to_momentum_basis(state)
    kappa = state.lattice.momentum_values()
    g = state.lattice.reciprocal_constant
    coeff = spectrum.coefficients * np.exp(-1j * (g * kappa) ** 2 * t)
    return from_momentum_basis(type(spectrum)(state.lattice, coeff))


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
    spectrum = to_momentum_basis(state)
    kappa = state.lattice.momentum_values()
    n = state.lattice.n_sites
    coeff = spectrum.coefficients * np.exp(-2j * np.pi * kappa * steps / n)
    return from_momentum_basis(type(spectrum)(state.lattice, coeff))


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
    check_tau_bound(tau, state.lattice)
    fmat = f_site_matrix(state.lattice)
    scale = tau * state.lattice.reciprocal_constant**2
    created_b = fmat @ state.a
    return _new_state(
        state.lattice,
        state.a + scale * (fmat @ state.b),
        state.b - scale * created_b,
    )


def _one_step(state: FieldState, config: EvolutionConfig, kernels: KernelTable | None) -> FieldState:
    if config.scheme == EXACT:
        return exact_step(state, config.tau)
    if config.parity_mode == EVEN_NAIVE:
        return even_naive_step(state, config.tau)
    if config.euler_method == "reference":
        return euler_step(state, config.tau, kernels)
    return euler_step_spectral(state, config.tau)


def run(
    state: FieldState,
    config: EvolutionConfig,
    n_steps: int,
    record_every: int = 10,
    kernels: KernelTable | None = None,
    checkpoint_every: int = 0,
) -> TimeSeries:
    """Step a state forward, recording observables as it goes.

    Snapshots are taken at step 0, every ``record_every`` steps and at
    the final step.  ``checkpoint_every`` > 0 additionally stores full
    states at those steps.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    parity = state.lattice.parity
    if config.parity_mode == EVEN_NAIVE and parity != EVEN:
        raise ValueError("parity_mode even_naive requires an even lattice")
    if config.parity_mode == ODD_STANDARD and parity != ODD:
        raise ValueError(
            "even lattices run only under parity_mode even_naive "
            "(or the exact scheme with that mode)"
        )
    if config.scheme == EULER and config.parity_mode == ODD_STANDARD:
        if kernels is None and config.euler_method == "reference":
            kernels = build_kernel_table(state.lattice)

    snapshots = []
    checkpoints: dict[int, FieldState] = {}
    current = state
    for step in range(n_steps + 1):
        due = step % record_every == 0 or step == n_steps
        if due:
            snapshots.append(snapshot(current, step, kernels))
        if checkpoint_every > 0 and (step % checkpoint_every == 0 or step == n_steps):
            checkpoints[step] = current
        if step < n_steps:
            current = _one_step(current, config, kernels)
    return TimeSeries(snapshots=tuple(snapshots), checkpoints=checkpoints)
