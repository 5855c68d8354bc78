"""Independent evaluations that the tests hold the package against."""

import numpy as np

from ringfield import euler_step, make_lattice, norm_m, state_from_amplitudes, to_momentum_basis
from ringfield.kernels import f_site_matrix


def momentum_expectation_spectral(state) -> float:
    """Independent spectral evaluation g sum_k kappa |c_hat_k|^2, from
    one transform of the complex amplitudes and without the Parseval
    check."""
    kappa = state.lattice.momentum_values()
    occupation = to_momentum_basis(state).occupation()
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
