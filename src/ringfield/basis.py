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
is transformed by one batched FFT.  A real array (a field a or b on
its own) takes a real-input FFT, which computes only the momenta
kappa >= 0 and takes the negative ones as their conjugates.
``to_momentum_basis`` and ``from_momentum_basis`` are its state-level
wrappers; a ``FieldState`` block of rows goes through them whole.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import sqrt

import numpy as np

from .lattice import EVEN, Lattice
from .state import FieldState, state_from_amplitudes


@dataclass(frozen=True)
class MomentumSpectrum:
    """Complex coefficients of a state (or of each row of a block) in
    the unbiased basis."""

    lattice: Lattice
    coefficients: np.ndarray

    def occupation(self) -> np.ndarray:
        """|coefficient|^2 per momentum slot; sums to the state's M."""
        return np.abs(self.coefficients) ** 2


@lru_cache(maxsize=32)
def _basis_tables(lattice: Lattice):
    """Per-lattice slot indices and phases of the transform pair.

    ``slots`` maps each momentum to its FFT output index; ``offset`` is
    the storage-offset phase exp(-2 pi i kappa site_min / N) and
    ``unoffset`` its inverse; ``twist``/``untwist`` absorb the extra half
    wave of an even lattice (``None`` on odd lattices).  All read-only.
    """
    n = lattice.n_sites
    kappa = lattice.momentum_values()
    even = lattice.parity == EVEN
    slots = (kappa - 0.5 * even).astype(int) % n
    offset = np.exp(-2j * np.pi * kappa * lattice.site_min / n)
    unoffset = np.exp(2j * np.pi * kappa * lattice.site_min / n)
    twist = untwist = None
    if even:
        idx = np.arange(n)
        twist = np.exp(-1j * np.pi * idx / n)
        untwist = np.exp(1j * np.pi * idx / n)
    tables = (slots, offset, unoffset, twist, untwist)
    for table in tables:
        if table is not None:
            table.setflags(write=False)
    return tables


def momentum_coefficients(lattice: Lattice, amplitudes: np.ndarray) -> np.ndarray:
    """Unbiased-basis coefficients of site amplitudes along the last axis.

    Every row (every index of the leading axes) is transformed on its
    own, in one batched FFT.  Real rows take a real-input FFT: on an odd
    lattice ``rfft`` gives kappa = 0..L, on an even one the odd outputs
    of a 2N-point ``rfft`` give kappa = 1/2..(N-1)/2, and the negative
    momenta are their exact conjugates, so a zero row has exactly zero
    coefficients.  Coefficients are ordered like
    ``lattice.momentum_values()``; ``amplitudes`` is not modified.
    """
    slots, offset, _unoffset, twist, _untwist = _basis_tables(lattice)
    n = lattice.n_sites
    if not np.iscomplexobj(amplitudes):
        if twist is None:
            positive = np.fft.rfft(amplitudes)  # kappa = 0..L
            negative = positive[..., :0:-1]  # kappa = L..1
        else:
            positive = np.fft.rfft(amplitudes, 2 * n)[..., 1::2]
            negative = positive[..., ::-1]
        coefficients = np.concatenate((np.conj(negative), positive), axis=-1)
    else:
        if twist is not None:
            # half-integer momenta: absorb the extra half wave into a twist
            amplitudes = amplitudes * twist
        coefficients = np.fft.fft(amplitudes)[..., slots]
    coefficients /= sqrt(n)
    # undo the storage offset: site s sits at array index s - site_min
    coefficients *= offset
    return coefficients


def site_amplitudes(lattice: Lattice, coefficients: np.ndarray) -> np.ndarray:
    """Inverse of ``momentum_coefficients``, along the last axis."""
    n = lattice.n_sites
    slots, _offset, unoffset, _twist, untwist = _basis_tables(lattice)
    packed = np.empty(np.shape(coefficients), dtype=complex)
    packed[..., slots] = coefficients * unoffset
    amplitudes = np.fft.ifft(packed)
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


def from_momentum_basis(spectrum: MomentumSpectrum) -> FieldState:
    """Inverse of ``to_momentum_basis``; round trip is the identity."""
    lattice = spectrum.lattice
    return state_from_amplitudes(lattice, site_amplitudes(lattice, spectrum.coefficients))
