"""Independent evaluations that the tests hold the package against."""

from decimal import Decimal, getcontext, localcontext
from functools import lru_cache

import numpy as np

from ringfield import euler_step, make_lattice, norm_m, state_from_amplitudes
from ringfield.basis import momentum_coefficients
from ringfield.kernels import f_site_matrix


@lru_cache(maxsize=4)
def _direct_phases(lattice):
    """exp(-2 pi i kappa s / N), one row per site s and one column per
    momentum.  2 kappa s is an integer, reduced modulo 2N exactly before
    the exponential, so no phase loses digits to a large argument."""
    n = lattice.n_sites
    twice_kappa = np.rint(2.0 * lattice.momentum_values()).astype(np.int64)
    turns = np.multiply.outer(lattice.sites().astype(np.int64), twice_kappa) % (2 * n)
    phases = np.exp(-1j * np.pi * turns / n)
    phases.setflags(write=False)
    return phases


def direct_coefficients(lattice, c) -> np.ndarray:
    """Unbiased-basis coefficients by the O(N^2) sum
    (1/sqrt N) sum_s c_s exp(-2 pi i kappa s / N) over the last axis of
    ``c``, ordered like ``lattice.momentum_values()``.  Takes no FFT."""
    return np.asarray(c) @ _direct_phases(lattice) / np.sqrt(lattice.n_sites)


def momentum_expectation_spectral(state) -> float:
    """Independent spectral evaluation g sum_k kappa |c_hat_k|^2, from
    the direct coefficient sum and without the Parseval check."""
    kappa = state.lattice.momentum_values()
    occupation = np.abs(direct_coefficients(state.lattice, state.c)) ** 2
    return float(state.lattice.reciprocal_constant * np.sum(kappa * occupation))


def odd_part_drift(state) -> np.ndarray:
    """<V> of each row of a block of states by a plain per-row sum of
    the occupation's odd part, g sum_k kappa (|c_hat_k|^2 - |c_hat_-k|^2)
    (-k is the reversed row), without the Parseval check."""
    lattice = state.lattice
    occupation = np.abs(momentum_coefficients(lattice, state.c)) ** 2
    odd = lattice.momentum_values() * (occupation - occupation[..., ::-1])
    return lattice.reciprocal_constant * np.sum(odd, axis=-1)


def identity_m_drift_residual(n_sites_list, states_per_n, seed, tau) -> float:
    """The identity suite's worst relative M drift residual, one state
    at a time: each random state at M = 1 and M = 7 takes one public
    ``euler_step``, and its measured change of M is held against
    tau^2 g^4 <c, F F c>.  Draws the same random stream as the suite."""
    rng = np.random.default_rng(seed)
    worst_m = 0.0
    for n in n_sites_list:
        lattice = make_lattice(n)
        g = lattice.reciprocal_constant
        fmat = f_site_matrix(lattice)
        conv = fmat @ fmat
        for _ in range(states_per_n):
            amps = rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n)
            amps /= np.linalg.norm(amps)
            for m_target in (1.0, 7.0):
                state = state_from_amplitudes(lattice, amps * np.sqrt(m_target))
                stepped = euler_step(state, tau)
                measured = norm_m(stepped) - norm_m(state)
                c = state.amplitudes()
                predicted = tau**2 * g**4 * float(np.real(np.vdot(c, conv @ c)))
                worst_m = max(worst_m, abs(measured - predicted) / abs(predicted))
    return worst_m


def _complex_product(p, q):
    return p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]


def _complex_power(z, n):
    """z^n by repeated squaring, in the current decimal context."""
    result = (Decimal(1), Decimal(0))
    while n:
        if n & 1:
            result = _complex_product(result, z)
        z = _complex_product(z, z)
        n >>= 1
    return result


def _cos_sin(theta):
    """cos and sin of a decimal angle by their Taylor series, summed
    until a term falls below the context's precision.  A large angle
    loses digits to cancellation; the callers' angles are below 10."""
    cos, sin = Decimal(0), Decimal(0)
    term, k = Decimal(1), 0  # theta^k / k!
    floor = Decimal(10) ** -(getcontext().prec + 5)
    while abs(term) > floor or k < 2:
        if k % 2 == 0:
            cos += term if k % 4 == 0 else -term
        else:
            sin += term if k % 4 == 1 else -term
        k += 1
        term = term * theta / k
    return cos, sin


def deviation_decimal(occupation, x, steps, digits=50) -> list:
    """sqrt(sum_k occ_k |(1 - i x_k)^n - exp(-i n x_k)|^2) for each n of
    ``steps`` (ascending, from 0), in ``decimal`` at ``digits`` digits.

    ``occupation`` and ``x`` are float64 and are converted exactly.  The
    power of the Euler multiplier is taken by repeated squaring and the
    exact phase by Taylor series of cos and sin; both are carried from
    one step count to the next.  Shares neither the expm1 formula nor
    float64 rounding with the package.
    """
    with localcontext() as context:
        context.prec = digits
        totals = [Decimal(0)] * len(steps)
        for occ, xk in zip(np.asarray(occupation, float), np.asarray(x, float)):
            if occ == 0.0:
                continue
            occ, xk = Decimal(float(occ)), Decimal(float(xk))
            euler, exact, done = (Decimal(1), Decimal(0)), (Decimal(1), Decimal(0)), 0
            factors = {}
            for row, n in enumerate(steps):
                gap = n - done
                if gap not in factors:
                    cos, sin = _cos_sin(gap * xk)
                    factors[gap] = (_complex_power((Decimal(1), -xk), gap), (cos, -sin))
                power, rotation = factors[gap]
                euler = _complex_product(euler, power)
                exact = _complex_product(exact, rotation)
                done = n
                real, imag = euler[0] - exact[0], euler[1] - exact[1]
                totals[row] += occ * (real * real + imag * imag)
        return [total.sqrt() for total in totals]
