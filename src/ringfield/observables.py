"""Conserved and diagnostic quantities of a field state.

The two conserved observables of the process are the total M and the
drift velocity of the combined distribution.  Their defining double
sums over site pairs use the first-power kernel G,

    <V> = 4 g sum_{s,r} a_s b_r G(s - r),
    <P> = -i g sum_{s,r} conj(c_s) c_r G(s - r),

and <V> = 2 <P> under the units in use (velocity = 2 momentum).  G is
diagonal in the unbiased basis, where it acts as i kappa on the
momentum coefficients, so <P> = g sum_k kappa |c_hat_k|^2.  For real
fields |a_hat_k|^2 and |b_hat_k|^2 are even in kappa, so of that sum
only the cross term 2 g sum_k kappa Im(a_hat_k conj(b_hat_k)) survives,
which is <V> / 2.  The momenta come in pairs +-kappa, so both are the
odd part of the occupation:

    <V> = g sum_k kappa (|c_hat_k|^2 - |c_hat_-k|^2),    <P> = <V> / 2,

with no N x N matrix.  The double sums over the dense
``g_site_matrix`` stay as the test oracle.
Position mean and spread are circular moments, since the lattice is a
circle and linear moments stop meaning anything once a packet wraps.

Every observable is written over the last axis of its arrays, so a
whole block of states (a ``FieldState`` with one state per row) is
measured at once.  ``conserved_columns`` evaluates that formula on every
row, from the coefficient rows ``run`` builds its blocks from or from
``basis.momentum_coefficients``, and checks Parseval on every row
against the site-space M; ``snapshots`` adds the position columns.
``snapshot`` and the single-state functions are the same code on a
state of shape (N,); they raise ``ValueError`` for a block.

A step that multiplies every momentum coefficient by m scales the
occupation by |m|^2, so M and <P> after any number of steps follow from
the initial occupation alone: ``spectral_series`` evaluates them there,
from the same odd part, with no transform at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import momentum_coefficients
from .kernels import ConsistencyError
from .lattice import Lattice
from .state import (
    DegenerateStateError,
    FieldState,
    _require_one_state,
    combined_distribution,
    norm_m,
)

# bytes of one block of rows: complex amplitudes in ``evolve``'s record
# blocks (5 rows at N = 801, one from N = 2049 on), real weights in
# ``spectral_series``.  Building a block takes about three and a half
# block-sized arrays at once (tracemalloc, 4 rows at N = 4001: 0.86 MB
# for a 0.24 MB block), and measuring it from its coefficient rows about
# three more (0.70 MB), next to the block and its coefficients.  So
# larger blocks raise the peak memory of large-N runs, while most of the
# batching gain at N = 801 is already there at 5 rows.
RECORD_BLOCK_BYTES = 64 * 1024

# spread is reported from the resultant length R of the circular first
# moment; R is floored to keep log() finite for spread-less (flat) states
_MIN_RESULTANT = 1e-300


def _check_parseval(occupation: np.ndarray, m_sites) -> None:
    """``ConsistencyError`` when the summed occupation of a row misses
    its site-space M by more than 1e-10 max(1, M): a broken transform."""
    gap = np.sum(occupation, axis=-1) - m_sites
    broken = np.flatnonzero(np.abs(gap) > 1e-10 * np.maximum(1.0, m_sites))
    if broken.size:
        raise ConsistencyError(
            f"momentum occupation differs from M by {gap.flat[broken[0]]:.3e} (Parseval)"
        )


def conserved_columns(
    state: FieldState, coefficients: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """M, <V> and <P> of each row, the last two from the momentum
    occupation (see the module docstring), so <V> = 2 <P> bitwise.

    ``coefficients`` are the rows' unbiased-basis coefficients c_hat
    when the caller already holds them; without them they come from
    ``momentum_coefficients``.  ``momentum_values()`` is symmetric, so
    -k is the reversed row, and a row whose occupation is even in kappa,
    as the real-input spectrum of b = 0 is, has both exactly 0.0.  The
    occupation is checked against the site-space M of every row
    (Parseval, ``ConsistencyError``).
    """
    lattice = state.lattice
    if coefficients is None:
        coefficients = momentum_coefficients(lattice, state.c)
    occupation = np.abs(coefficients) ** 2
    m_sites = norm_m(state)
    _check_parseval(occupation, m_sites)
    kappa = lattice.momentum_values()
    drift = lattice.reciprocal_constant * np.sum(
        kappa * (occupation - occupation[..., ::-1]), axis=-1
    )
    return m_sites, drift, drift / 2.0


def spectral_series(
    lattice: Lattice, occupation: np.ndarray, log_magnitude: np.ndarray, steps
) -> tuple[np.ndarray, np.ndarray]:
    """M(n) = sum_k |c_hat_0,k|^2 |m_k|^(2n) and <P>(n) for each n of
    ``steps``, from ``occupation`` |c_hat_0|^2 and ``log_magnitude``
    ln|m|, both ordered like ``lattice.momentum_values()``.

    |m_k| = |m_-k|, so <P> sums the odd part of the occupation, as
    ``conserved_columns`` does: an even occupation has <P> exactly 0.0.
    The weights exp(2 n ln|m|) are built ``RECORD_BLOCK_BYTES`` of rows
    (or one row) at a time, so memory stays flat as the step count
    grows, and each row is reduced alone, bitwise independent of its
    block.  Raises ``ValueError`` when a value leaves the finite floats.
    """
    steps = np.asarray(steps, dtype=float)
    odd_part = lattice.momentum_values() * (occupation - occupation[::-1]) / 2.0
    moments = np.stack((occupation, odd_part), axis=-1)
    twice = 2.0 * np.asarray(log_magnitude, dtype=float)
    rows = max(1, RECORD_BLOCK_BYTES // (np.dtype(float).itemsize * lattice.n_sites))
    series = np.empty((steps.size, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, steps.size, rows):
            weights = np.multiply.outer(steps[lo:lo + rows], twice)
            np.exp(weights, out=weights)
            # stacked 1 x N products: BLAS sums a lone row another way
            np.matmul(weights[:, None, :], moments, out=series[lo:lo + rows, None, :])
    if not np.all(np.isfinite(series)):
        raise ValueError("the spectral M or <P> leaves the finite floats")
    return series[:, 0], lattice.reciprocal_constant * series[:, 1]


def drift_velocity(state: FieldState) -> float:
    """Drift velocity 4 g sum a_s b_r G(s-r), from the momentum occupation.

    Exactly 0.0 when b = 0.
    """
    _require_one_state(state, "drift_velocity")
    return float(conserved_columns(state)[1])


def momentum_expectation(state: FieldState) -> float:
    """Momentum expectation g sum_k kappa |c_hat_k|^2.

    Equal to the G kernel double sum -i g sum conj(c_s) c_r G(s - r),
    which is its definition and the test oracle.  Raises
    ``ConsistencyError`` when the spectrum fails the Parseval check.
    """
    _require_one_state(state, "momentum_expectation")
    return float(conserved_columns(state)[2])


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
    _require_one_state(state, "position_mean")
    return float(_circular_moments(state.lattice, combined_distribution(state))[0])


def position_spread(state: FieldState) -> float:
    """Circular standard deviation of the combined distribution (sites)."""
    _require_one_state(state, "position_spread")
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
    _require_one_state(state, "gaussian_shape_residual")
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
    _require_one_state(state, "high_band_fraction")
    occupation = np.abs(momentum_coefficients(state.lattice, state.c)) ** 2
    kappa = state.lattice.momentum_values()
    outer = np.abs(kappa) > np.max(np.abs(kappa)) / 2.0
    total = float(np.sum(occupation))
    return float(np.sum(occupation[outer]) / total)


# ---------------------------------------------------------------------------
# per-step M drift

def m_step_increase_exact(state: FieldState, tau: float) -> float:
    """Exact growth of M over one linearised step, tau^2 g^4 sum k^4 |c_hat|^2.

    Identical to what the reaction step produces, for any tau.
    """
    _require_one_state(state, "m_step_increase_exact")
    occupation = np.abs(momentum_coefficients(state.lattice, state.c)) ** 2
    kappa = state.lattice.momentum_values()
    g = state.lattice.reciprocal_constant
    return float(tau * tau * g**4 * np.sum(kappa**4 * occupation))


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


def snapshots(
    block: FieldState, steps, coefficients: np.ndarray | None = None
) -> list[ObservableSnapshot]:
    """Measure all reported observables of every row of a block.

    ``steps`` labels the rows in order, one label per row (``ValueError``
    otherwise).  ``coefficients``, the rows' unbiased-basis coefficients
    when the caller holds them, spare the forward transforms
    (``conserved_columns``).  The spectra and the combined distribution
    are each computed once per block and shared by the observables that
    need them.  Raises ``ConsistencyError`` when a row fails the
    Parseval check and ``DegenerateStateError`` when a row has M = 0.
    """
    lattice = block.lattice
    steps = list(steps)
    n_rows = block.c.size // lattice.n_sites
    if len(steps) != n_rows:
        raise ValueError(f"{len(steps)} step labels for a block of {n_rows} rows")
    m_total, drift, momentum = conserved_columns(block, coefficients)
    density = combined_distribution(block)
    mean, spread = _circular_moments(lattice, density)
    residual = _shape_residual(lattice, density, mean, spread)
    columns = (m_total, drift, momentum, mean, spread, residual)
    rows = zip(*(np.reshape(column, -1).tolist() for column in columns))
    return [ObservableSnapshot(int(step), *row) for step, row in zip(steps, rows)]


def snapshot(state: FieldState, step: int) -> ObservableSnapshot:
    """Measure all reported observables of one state (``snapshots`` of
    one row)."""
    _require_one_state(state, "snapshot")
    return snapshots(state, (step,))[0]
