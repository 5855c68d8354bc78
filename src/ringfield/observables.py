"""Conserved and diagnostic quantities of a field state.

The two conserved observables of the process are the total M and the
drift velocity of the combined distribution.  Their defining double
sums over site pairs use the first-power kernel G,

    <V> = 4 g sum_{s,r} a_s b_r G(s - r),
    <P> = -i g sum_{s,r} conj(c_s) c_r G(s - r),

and <V> = 2 <P> under the units in use (velocity = 2 momentum).  G is
diagonal in the unbiased basis, where it acts as i kappa on the
momentum coefficients, so both are evaluated from the spectrum:

    <P> = g sum_k kappa |c_hat_k|^2,
    <V> = 4 g sum_k kappa Im(a_hat_k conj(b_hat_k)),

at the cost of one transform of each field and no N x N matrix.  The
double sums over the dense ``g_site_matrix`` stay as the test oracle.
Position mean and spread are circular moments, since the lattice is a
circle and linear moments stop meaning anything once a packet wraps.

Every observable is written over the last axis of its arrays, so
``snapshots`` measures a whole ``FieldBlock`` of states (one per row)
at once: two batched transforms, of the a rows and of the b rows, then
column-wise M, the Parseval check, <P>, the drift, the circular moments
and the shape residual.  ``snapshot`` and the single-state functions
are the same code on one row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import to_momentum_basis
from .kernels import ConsistencyError, KernelTable
from .lattice import Lattice
from .state import (
    DegenerateStateError,
    FieldBlock,
    FieldState,
    combined_distribution,
    norm_m,
)

# spread is reported from the resultant length R of the circular first
# moment; R is floored to keep log() finite for spread-less (flat) states
_MIN_RESULTANT = 1e-300


def _check_table(state: FieldState, kernels: KernelTable | None) -> None:
    if kernels is not None and kernels.lattice != state.lattice:
        raise ValueError("state and kernel table live on different lattices")


def _one_row(state: FieldState) -> FieldBlock:
    return FieldBlock(state.lattice, state.amplitudes())


def _spectral_columns(block: FieldBlock) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """M, <V> and <P> of each row, the last two from the field spectra.

    The fields are transformed one at a time, so a row with b = 0 has
    b_hat = 0 exactly and no drift at all.  The transform is unitary:
    an occupation that misses the site-space M by more than
    1e-10 max(1, M) in any row means a broken transform and raises
    ``ConsistencyError``.
    """
    lattice, c = block.lattice, block.c
    kappa = lattice.momentum_values()
    a_hat = to_momentum_basis(FieldBlock(lattice, c.real.astype(complex))).coefficients
    b_hat = to_momentum_basis(FieldBlock(lattice, c.imag.astype(complex))).coefficients
    cross = np.imag(a_hat * np.conj(b_hat))
    drift = 4.0 * lattice.reciprocal_constant * np.sum(kappa * cross, axis=-1)
    occupation = np.abs(a_hat + 1j * b_hat) ** 2
    m_sites = np.sum(c.real**2, axis=-1) + np.sum(c.imag**2, axis=-1)
    gap = np.sum(occupation, axis=-1) - m_sites
    broken = np.flatnonzero(np.abs(gap) > 1e-10 * np.maximum(1.0, m_sites))
    if broken.size:
        raise ConsistencyError(
            f"momentum occupation differs from M by {gap.flat[broken[0]]:.3e} (Parseval)"
        )
    return m_sites, drift, _momentum(lattice, occupation)


def _momentum(lattice: Lattice, occupation: np.ndarray) -> np.ndarray:
    kappa = lattice.momentum_values()
    return lattice.reciprocal_constant * np.sum(kappa * occupation, axis=-1)


def drift_velocity(state: FieldState, kernels: KernelTable | None = None) -> float:
    """Drift velocity 4 g sum a_s b_r G(s-r), from the field spectra.

    ``kernels`` is optional and only checked to live on the state's
    lattice.  Exactly 0.0 when b = 0.
    """
    _check_table(state, kernels)
    return float(_spectral_columns(_one_row(state))[1])


def momentum_expectation(state: FieldState, kernels: KernelTable | None = None) -> float:
    """Momentum expectation g sum_k kappa |c_hat_k|^2.

    Equal to the G kernel double sum -i g sum conj(c_s) c_r G(s - r),
    which is its definition and the test oracle.  ``kernels`` is
    optional and only checked to live on the state's lattice.  Raises
    ``ConsistencyError`` when the spectrum fails the Parseval check.
    """
    _check_table(state, kernels)
    return float(_spectral_columns(_one_row(state))[2])


def momentum_expectation_spectral(state: FieldState) -> float:
    """Independent spectral evaluation g sum_k kappa |c_hat_k|^2, from
    one transform of the complex amplitudes and without the Parseval
    check."""
    return float(_momentum(state.lattice, to_momentum_basis(state).occupation()))


def momentum_distribution(state: FieldState) -> np.ndarray:
    """Occupation |c_hat_k|^2 ordered like ``lattice.momentum_values()``."""
    return to_momentum_basis(state).occupation()


def _circular_moments(
    lattice: Lattice, density: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Circular mean and spread (sites) of each row of ``density``."""
    total = np.sum(density, axis=-1)
    if np.any(total <= 0.0):
        raise DegenerateStateError("position moments need a state with M > 0")
    n = lattice.n_sites
    angles = 2.0 * np.pi * lattice.sites() / n
    resultant = np.sum(density * np.exp(1j * angles), axis=-1) / total
    mean = np.angle(resultant) * n / (2.0 * np.pi)
    radius = np.maximum(np.abs(resultant), _MIN_RESULTANT)
    spread = np.sqrt(np.maximum(-2.0 * np.log(radius), 0.0)) * n / (2.0 * np.pi)
    return mean, spread


def position_mean(state: FieldState) -> float:
    """Circular mean of the combined distribution, in site units."""
    return float(_circular_moments(state.lattice, combined_distribution(state))[0])


def position_spread(state: FieldState) -> float:
    """Circular standard deviation of the combined distribution (sites)."""
    return float(_circular_moments(state.lattice, combined_distribution(state))[1])


def _shape_residual(
    lattice: Lattice, density: np.ndarray, mean: np.ndarray, spread: np.ndarray
) -> np.ndarray:
    spread = np.maximum(spread, 1e-9)[..., None]
    n = lattice.n_sites
    offsets = lattice.sites() - mean[..., None]
    offsets = (offsets + n / 2.0) % n - n / 2.0
    model = np.zeros_like(density)
    # C pow, which rounds like a Python float's spread ** 2; x * x can
    # differ by an ulp, and the residual of a near-gaussian packet is
    # rounding noise that would show it in the printed digits
    variance = np.float_power(spread, 2)
    for image in (-1, 0, 1):
        model += np.exp(-((offsets + image * n) ** 2) / (2.0 * variance))
    amplitude = np.sum(model * density, axis=-1) / np.sum(model * model, axis=-1)
    rms = np.sqrt(np.mean((density - amplitude[..., None] * model) ** 2, axis=-1))
    return rms / np.max(density, axis=-1)


def gaussian_shape_residual(state: FieldState) -> float:
    """RMS misfit between the combined distribution and its best
    gaussian, normalised by the peak height.

    The model is a wrapped gaussian centred and sized by the circular
    moments, with the amplitude fitted by least squares.  Near zero for
    packets that kept their gaussian profile; order one for anything
    else.
    """
    density = combined_distribution(state)
    mean, spread = _circular_moments(state.lattice, density)
    return float(_shape_residual(state.lattice, density, mean, spread))


def count_local_maxima(distribution: np.ndarray, prominence: float = 1e-6) -> int:
    """Number of strict cyclic local maxima of a per-site distribution.

    A site counts when it exceeds both neighbours by ``prominence``
    times the global peak, so flat plateaus and rounding ripple do not
    count.
    """
    distribution = np.asarray(distribution, dtype=float)
    floor = prominence * float(np.max(distribution))
    left = np.roll(distribution, 1)
    right = np.roll(distribution, -1)
    return int(np.sum((distribution > left + floor) & (distribution > right + floor)))


def high_band_fraction(state: FieldState) -> float:
    """Fraction of M carried by momenta in the outer half of the band."""
    occupation = to_momentum_basis(state).occupation()
    kappa = state.lattice.momentum_values()
    outer = np.abs(kappa) > np.max(np.abs(kappa)) / 2.0
    total = float(np.sum(occupation))
    return float(np.sum(occupation[outer]) / total)


# ---------------------------------------------------------------------------
# per-step M drift and its confined-regime estimate

def m_step_increase_exact(state: FieldState, tau: float) -> float:
    """Exact growth of M over one linearised step, tau^2 g^4 sum k^4 |c_hat|^2.

    Identical to what the reaction step produces, for any tau.
    """
    spectrum = to_momentum_basis(state)
    kappa = state.lattice.momentum_values()
    g = state.lattice.reciprocal_constant
    return float(tau * tau * g**4 * np.sum(kappa**4 * spectrum.occupation()))


def m_step_increase_confined_estimate(state: FieldState, tau: float) -> float:
    """Legacy confined-regime estimate of the one-step M growth,

        tau^2 (pi^4 / 5 a^4) * (2 sum_{r != u} c_r conj(c_u) (-1)^(r-u) / (r-u)^2 + M).

    Kept as a descriptive diagnostic only: its off-diagonal weight drops
    the 1/d^4 part of the true kernel, so it does not reproduce the
    cancellation that makes smooth states quasi-stationary and can be
    wrong by orders of magnitude for them.  The diagonal coefficient
    alone does match ``quartic_moment_coefficient`` closely at large N.
    """
    amps = state.amplitudes()
    sites = state.lattice.sites()
    disp = sites[:, None] - sites[None, :]
    signs = np.where(disp % 2 == 0, 1.0, -1.0)
    with np.errstate(divide="ignore"):
        weight = np.where(disp == 0, 0.0, signs / disp.astype(float) ** 2)
    cross = np.real(np.vdot(amps, weight @ amps))
    spacing = state.lattice.lattice_constant
    coeff = np.pi**4 / (5.0 * spacing**4)
    return float(tau * tau * coeff * (2.0 * cross + norm_m(state)))


def quartic_moment_coefficient(lattice) -> float:
    """g^4 (1/N) sum_k kappa^4, the diagonal of the exact M drift kernel.

    Approaches pi^4 / (5 a^4) as N grows.
    """
    kappa = lattice.momentum_values()
    g = lattice.reciprocal_constant
    return float(g**4 * np.sum(kappa**4) / lattice.n_sites)


@dataclass(frozen=True)
class ObservableSnapshot:
    """One row of a simulation time series."""

    step: int
    m_total: float
    drift_velocity: float
    momentum_expectation: float
    position_mean: float
    position_spread: float
    shape_residual: float


def snapshots(block: FieldBlock, steps) -> list[ObservableSnapshot]:
    """Measure all reported observables of every row of a block.

    ``steps`` labels the rows in order.  The field spectra and the
    combined distribution are each computed once per block and shared
    by the observables that need them.  Raises ``ConsistencyError``
    when a row fails the Parseval check and ``DegenerateStateError``
    when a row has M = 0.
    """
    lattice = block.lattice
    m_total, drift, momentum = _spectral_columns(block)
    density = block.c.real**2 + block.c.imag**2
    mean, spread = _circular_moments(lattice, density)
    residual = _shape_residual(lattice, density, mean, spread)
    columns = (m_total, drift, momentum, mean, spread, residual)
    rows = zip(*(np.reshape(column, -1).tolist() for column in columns))
    return [ObservableSnapshot(int(step), *row) for step, row in zip(steps, rows)]


def snapshot(state: FieldState, step: int, kernels: KernelTable | None = None) -> ObservableSnapshot:
    """Measure all reported observables of one state (``snapshots`` of
    one row)."""
    _check_table(state, kernels)
    return snapshots(_one_row(state), (step,))[0]
