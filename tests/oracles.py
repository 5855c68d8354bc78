"""Independent evaluations that the tests hold the package against."""

import numpy as np

from ringfield import to_momentum_basis


def momentum_expectation_spectral(state) -> float:
    """Independent spectral evaluation g sum_k kappa |c_hat_k|^2, from
    one transform of the complex amplitudes and without the Parseval
    check."""
    kappa = state.lattice.momentum_values()
    occupation = to_momentum_basis(state).occupation()
    return float(state.lattice.reciprocal_constant * np.sum(kappa * occupation))
