"""Independent evaluations that the tests hold the package against."""

from functools import lru_cache

import numpy as np

from ringfield import euler_step, make_lattice, norm_m, state_from_amplitudes
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
