"""Unbiased (discrete Fourier) basis and momentum-space representation.

The momentum basis vectors are

    phi_k(s) = (1/sqrt N) exp(i 2 pi kappa s / N)

with kappa running over the lattice's ``momentum_values()``: integers
for odd N, half-integers for even N.  Every position state has overlap
of magnitude 1/sqrt(N) with every phi_k, and the phase choice makes
exp(-i a P) the one-site cyclic translation (odd N) or its
sign-corrected variant (even N).

The transform pair, ``momentum_coefficients`` and ``site_amplitudes``,
acts on the last axis of an array, so a block of states (one per row)
is transformed by one batched FFT.  The forward transform is a
real-input FFT, which computes only the momenta kappa >= 0 and takes
the negative ones as their conjugates; complex amplitudes c = a + i b
take it as the pair a_hat + i b_hat, so a real state's occupation is
exactly even in kappa.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import sqrt

import numpy as np

from .lattice import EVEN, Lattice
from .state import FieldState


# ``MomentumSpectrum`` and ``to_momentum_basis`` have no caller in the
# package; they stay only because the benchmark's output check reads
# ``to_momentum_basis(state).coefficients``, and go once it reads
# ``momentum_coefficients`` instead
@dataclass(frozen=True)
class MomentumSpectrum:
    """Complex coefficients of a state (or of each row of a block) in
    the unbiased basis."""

    lattice: Lattice
    coefficients: np.ndarray


@lru_cache(maxsize=32)
def _basis_tables(lattice: Lattice):
    """Per-lattice phases of the transform pair.

    ``offset`` is the storage-offset phase exp(-2 pi i kappa site_min / N)
    and ``unoffset`` its inverse; ``untwist`` restores the extra half
    wave of an even lattice after the inverse FFT (``None`` on odd
    lattices).  All read-only.
    """
    n = lattice.n_sites
    kappa = lattice.momentum_values()
    even = lattice.parity == EVEN
    offset = np.exp(-2j * np.pi * kappa * lattice.site_min / n)
    unoffset = np.exp(2j * np.pi * kappa * lattice.site_min / n)
    untwist = np.exp(1j * np.pi * np.arange(n) / n) if even else None
    tables = (offset, unoffset, untwist)
    for table in tables:
        if table is not None:
            table.setflags(write=False)
    return tables


def momentum_coefficients(lattice: Lattice, amplitudes: np.ndarray) -> np.ndarray:
    """Unbiased-basis coefficients of site amplitudes along the last axis.

    Every row (every index of the leading axes) is transformed on its
    own, in one batched real-input FFT: on an odd lattice ``rfft`` gives
    kappa = 0..L, on an even one the odd outputs of a 2N-point ``rfft``
    give kappa = 1/2..(N-1)/2, and the negative momenta are their exact
    conjugates, so a zero row has exactly zero coefficients.  Complex
    amplitudes take the coefficients of their real and imaginary parts,
    a_hat + i b_hat.  Coefficients are ordered like
    ``lattice.momentum_values()``; ``amplitudes`` is not modified.
    """
    if np.iscomplexobj(amplitudes):
        return (momentum_coefficients(lattice, np.real(amplitudes))
                + 1j * momentum_coefficients(lattice, np.imag(amplitudes)))
    offset, _unoffset, _untwist = _basis_tables(lattice)
    n = lattice.n_sites
    if lattice.parity == EVEN:
        positive = np.fft.rfft(amplitudes, 2 * n)[..., 1::2]
        negative = positive[..., ::-1]
    else:
        positive = np.fft.rfft(amplitudes)  # kappa = 0..L
        negative = positive[..., :0:-1]  # kappa = L..1
    coefficients = np.concatenate((np.conj(negative), positive), axis=-1)
    coefficients /= sqrt(n)
    # undo the storage offset: site s sits at array index s - site_min
    coefficients *= offset
    return coefficients


def site_amplitudes(lattice: Lattice, coefficients: np.ndarray) -> np.ndarray:
    """Inverse of ``momentum_coefficients``, along the last axis."""
    n = lattice.n_sites
    _offset, unoffset, untwist = _basis_tables(lattice)
    # ifftshift puts momentum kappa at FFT input index kappa mod N (kappa - 1/2 if even)
    amplitudes = np.fft.ifft(np.fft.ifftshift(coefficients * unoffset, axes=-1))
    amplitudes *= sqrt(n)
    if untwist is not None:
        amplitudes *= untwist
    return amplitudes


def to_momentum_basis(state: FieldState) -> MomentumSpectrum:
    """Project onto the unbiased basis.

    Returns coefficients ordered like ``lattice.momentum_values()``,
    one row per row of a block.  The transform is unitary, so the
    summed occupation equals M.
    """
    coefficients = momentum_coefficients(state.lattice, state.c)
    coefficients.setflags(write=False)
    return MomentumSpectrum(lattice=state.lattice, coefficients=coefficients)
