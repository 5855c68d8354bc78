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

with no N x N matrix.  The double sums over a dense G stay as the test
oracle (``tests/oracles.py`` builds it); in the package only ``verify``'s
identity suite builds G, for N <= ``experiments.IDENTITY_MAX_SITES``.
Position mean and spread are circular moments, since the lattice is a
circle and linear moments stop meaning anything once a packet wraps.

A step that multiplies every momentum coefficient by m scales the
occupation by |m|^2, so M and <P> after any number of steps follow from
the initial occupation alone.  ``spectral_series`` evaluates them
there, row by row (``_spectral_rows``, which sums ``compare``'s
deviation too), and is the one reduction behind every command's <V>
and <P>, and behind their increase over one Euler step
(``_euler_increase``).  A state with no such history (one state, or a
row of the naive even Euler step) reduces its own occupation through it
at n = 0.

Every observable is written over the last axis of its arrays, so a
whole block of states (a ``FieldState`` with one state per row) is
measured at once.  ``_check_parseval``, the one comparison of a
site-space M with a spectral one, holds each row of ``snapshots`` (and
the closed forms' final states): ``run``'s ``m_total`` is the measured
M and ``compare``'s ``m_euler`` the spectral prediction.  ``snapshot``
is the one measurement of a single state, the same code on a state of
shape (N,); it and the diagnostics of one state raise ``ValueError``
for a block.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .basis import momentum_coefficients
from .kernels import ConsistencyError, _euler_x
from .lattice import EVEN, Lattice
from .state import (
    DegenerateStateError,
    FieldState,
    _check_integer,
    _require_one_state,
    combined_distribution,
    norm_m,
)

# bytes of one block of rows, read only by ``row_blocks``: complex
# amplitudes in ``evolve``'s record blocks (20 rows at N = 801, 4 at
# N = 4001, one from N = 8193 on), real weights in ``_spectral_rows``,
# and the Python objects of a block of CSV rows (``ioutil.csv_blocks``).
# A record block is built in place and measured with one scratch block
# besides its position columns, so its transients are few.  Each batched
# inverse FFT pays a fixed cost at a prime N (at N = 4001 one row takes
# 0.27 ms and four 0.79 ms, best of 300 calls on a 2-vCPU Xeon VM), so
# 21 records take 6 calls of 4 rows instead of 21.
RECORD_BLOCK_BYTES = 256 * 1024

# exp(-t) rounds to exactly 0.0 in float64 for t > 745.14, where it falls
# below half the smallest subnormal; the margin covers the rounding of t
_FAR_IMAGE = 746.0

# spread is reported from the resultant length R of the circular first
# moment; R is floored to keep log() finite for spread-less (flat) states
_MIN_RESULTANT = 1e-300


def row_blocks(n_rows: int, row_bytes: int) -> Iterator[slice]:
    """Slices of ``range(n_rows)`` of at most ``RECORD_BLOCK_BYTES`` of
    rows of ``row_bytes`` each (or of one row, when a row is larger)."""
    rows = max(1, RECORD_BLOCK_BYTES // row_bytes)
    return (slice(lo, lo + rows) for lo in range(0, n_rows, rows))


def _check_parseval(m_spectral, m_sites) -> None:
    """``ConsistencyError`` when the site-space M of a row misses its
    spectral M by more than 1e-10 max(1, M): a broken transform or step."""
    gap = m_sites - m_spectral
    broken = np.flatnonzero(np.abs(gap) > 1e-10 * np.maximum(1.0, m_sites))
    if broken.size:
        raise ConsistencyError(
            f"M differs from its spectral prediction by {gap.flat[broken[0]]:.3e} (Parseval)"
        )


def spectral_series(
    lattice: Lattice, occupation: np.ndarray, log_magnitude: np.ndarray, steps
) -> tuple[np.ndarray, np.ndarray]:
    """M(n) = sum_k |c_hat_0,k|^2 |m_k|^(2n) and <P>(n) for each n of
    ``steps``, from ``occupation`` |c_hat_0|^2 and ``log_magnitude``
    ln|m|, both ordered like ``lattice.momentum_values()``.  An
    occupation of shape (R, N), one row per state, gives columns of
    shape (R, len(steps)), each row bitwise what it gives alone: the
    weights |m|^(2n) are built once for all of them.

    |m_k| = |m_-k|, so <P> sums the odd part of the occupation (-k is
    the reversed row): an even occupation has <P> exactly 0.0.  Summed
    row by row (``_spectral_rows``), which raises ``ValueError`` when a
    value leaves the finite floats.
    """
    twice = 2.0 * np.asarray(log_magnitude, dtype=float)
    return _weighted_moments(lattice, occupation, steps, lambda n: np.exp(n * twice))


def _euler_increase(lattice: Lattice, occupation: np.ndarray, taus):
    """The exact increase of M and <P> over one Euler step of each of
    ``taus``, sum_k |c_hat_k|^2 x_k^2 and likewise, with ``occupation``
    ordered like x (``kernels._euler_x``; <P> needs an odd lattice)."""
    return _weighted_moments(lattice, occupation, taus, lambda tau: _euler_x(lattice, tau) ** 2)


def _weighted_moments(lattice: Lattice, occupation: np.ndarray, steps, terms):
    """M and <P> of ``occupation`` (one row, or one per state) weighted
    by ``terms`` for each of ``steps`` (``_spectral_rows``); <P> sums
    its odd part (-k reversed)."""
    odd = lattice.momentum_values() * (occupation - occupation[..., ::-1]) / 2.0
    series = _spectral_rows(steps, terms, np.stack((occupation, odd), axis=-1))
    return series[..., 0], lattice.reciprocal_constant * series[..., 1]


def _spectral_rows(steps, terms, moments: np.ndarray) -> np.ndarray:
    """``terms(n) @ moments`` for the n of ``steps`` (counts or time
    steps), shape (..., S, K): ``terms`` maps a column of them (R, 1)
    to its weights (R, N), and ``moments`` is (N, K), or one (N, K)
    per leading index.  The weights are built a block of rows at a time
    (``row_blocks``), so memory stays flat as the step count grows, and
    each row is reduced alone, so its bits do not depend on its block.
    A block of weights is built once and reduced against each (N, K) of
    ``moments`` in turn, so each is bitwise what it gives alone; one
    product against the moments widened to (N, 2K) (the occupations of
    several states side by side) is not.  Raises ``ValueError`` when a
    value leaves the finite floats."""
    steps = np.asarray(steps, dtype=float)[:, None]
    sets = moments.reshape(-1, *moments.shape[-2:])
    series = np.empty((len(sets), len(steps), 1, moments.shape[-1]))
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in row_blocks(len(steps), np.dtype(float).itemsize * moments.shape[-2]):
            weights = terms(steps[rows])[:, None, :]
            for out, moment in zip(series, sets):
                # stacked 1 x N products: BLAS sums a lone row another way
                np.matmul(weights, moment, out=out[rows])
    if not np.all(np.isfinite(series)):
        raise ValueError("a spectral series (M, <P> or the deviation) leaves the finite floats")
    return series[:, :, 0, :].reshape(moments.shape[:-2] + (len(steps), moments.shape[-1]))


def _measured_columns(block: FieldState, spectral=None) -> tuple[np.ndarray, np.ndarray]:
    """The site-space M and the <P> of each row of ``block``, flat, from
    ``spectral``, the rows' spectral M and <P> (``run``'s prediction from
    c_hat_0), or else from one ``spectral_series`` at n = 0 of the rows'
    own occupations, which gives each row bitwise what it gives alone.
    ``ConsistencyError`` when a row's spectral M misses its M
    (Parseval)."""
    lattice = block.lattice
    if spectral is None:
        occupation = np.abs(momentum_coefficients(lattice, block.c)) ** 2
        unit = np.zeros(lattice.n_sites)  # ln|m| of m = 1: no step
        spectral = [column[:, 0] for column in spectral_series(
            lattice, occupation.reshape(-1, lattice.n_sites), unit, [0])]
    m_spectral, momentum = spectral
    m_sites = np.reshape(norm_m(block), -1)
    _check_parseval(m_spectral, m_sites)
    return m_sites, momentum


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


def _shape_residual(
    lattice: Lattice, density: np.ndarray, mean: np.ndarray, spread: np.ndarray
) -> np.ndarray:
    """RMS misfit of each row of ``density`` to a wrapped gaussian of its
    circular moments (amplitude by least squares), over the row's peak.

    Every site lies within N/2 of a row's mean, so the images at +-N add
    exp(-t) with t >= (N/2)^2 / (2 sigma^2); past ``_FAR_IMAGE``, where
    exp(-t) rounds to exactly 0.0, they are skipped.  The model is built
    in its offsets' array, and one scratch array serves every product.
    """
    n = lattice.n_sites
    # C pow, which rounds like a Python float's spread ** 2; x * x can
    # differ by an ulp, and the residual of a near-gaussian packet is
    # rounding noise that would show it in the printed digits
    twice_variance = 2.0 * np.float_power(np.maximum(spread, 1e-9), 2)[..., None]
    offsets = lattice.sites() - mean[..., None]
    offsets += n / 2.0
    offsets %= n
    offsets -= n / 2.0
    scratch = np.empty_like(offsets)
    if np.all((n / 2.0) ** 2 / twice_variance > _FAR_IMAGE):
        model = _gaussian_image(offsets, 0, twice_variance, out=offsets)
    else:
        model = np.zeros_like(offsets)
        for image in (-1, 0, 1):
            model += _gaussian_image(offsets, image * n, twice_variance, out=scratch)
    fit = np.sum(np.multiply(model, density, out=scratch), axis=-1)
    amplitude = fit / np.sum(np.multiply(model, model, out=scratch), axis=-1)
    np.multiply(amplitude[..., None], model, out=scratch)
    np.subtract(density, scratch, out=scratch)
    rms = np.sqrt(np.mean(np.square(scratch, out=scratch), axis=-1))
    return rms / np.max(density, axis=-1)


def _gaussian_image(offsets, shift, twice_variance, out):
    """exp(-(offsets + shift)^2 / (2 sigma^2)) into ``out``."""
    np.add(offsets, shift, out=out)
    np.square(out, out=out)
    np.negative(out, out=out)
    np.divide(out, twice_variance, out=out)
    return np.exp(out, out=out)


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
    if total <= 0.0:
        raise DegenerateStateError("high_band_fraction needs a state with M > 0")
    return float(np.sum(occupation[outer]) / total)


# ---------------------------------------------------------------------------
# per-step M drift

def m_step_increase_exact(state: FieldState, tau: float) -> float:
    """Exact growth of M over one linearised step, sum_k |c_hat_k|^2 x_k^2
    (``_euler_increase``), tau^2 g^4 sum k^4 |c_hat|^2 on an odd lattice.

    Identical to what the reaction step produces, for any tau.  On an
    even lattice c_hat is the unitary storage-order DFT, where the naive
    step is diagonal.
    """
    _require_one_state(state, "m_step_increase_exact")
    lattice, c = state.lattice, state.c
    naive = lattice.parity == EVEN
    coefficients = np.fft.fft(c, norm="ortho") if naive else momentum_coefficients(lattice, c)
    return float(_euler_increase(lattice, np.abs(coefficients) ** 2, [tau])[0][0])


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


def snapshots(block: FieldState, steps, spectral=None) -> list[ObservableSnapshot]:
    """Measure all reported observables of every row of a block.

    ``steps`` labels the rows in order, one integer >= 0 per row
    (``ValueError`` otherwise, before any work).  ``spectral``, the
    rows' spectral M and <P> when the caller holds them, spares the
    forward transform (``_measured_columns``); <V> = 2 <P>.  The
    combined distribution is computed once per block and shared by the
    position columns.  Raises ``ConsistencyError`` when a row fails the
    Parseval check and ``DegenerateStateError`` when a row has M = 0.
    """
    lattice = block.lattice
    steps = list(steps)
    for step in steps:
        _check_integer("step", step, 0)
    n_rows = block.c.size // lattice.n_sites
    if len(steps) != n_rows:
        raise ValueError(f"{len(steps)} step labels for a block of {n_rows} rows")
    m_total, momentum = _measured_columns(block, spectral)
    density = combined_distribution(block)
    mean, spread = _circular_moments(lattice, density)
    residual = _shape_residual(lattice, density, mean, spread)
    columns = (m_total, 2.0 * momentum, momentum, mean, spread, residual)
    rows = zip(*(np.reshape(column, -1).tolist() for column in columns))
    return [ObservableSnapshot(int(step), *row) for step, row in zip(steps, rows)]


def snapshot(state: FieldState, step: int) -> ObservableSnapshot:
    """Measure all reported observables of one state (``snapshots`` of
    one row).  Raises ``ValueError`` unless ``step`` is an integer >= 0."""
    _require_one_state(state, "snapshot")
    return snapshots(state, (step,))[0]
