"""Unbiased (discrete Fourier) basis and momentum-space representation.

The momentum basis vectors are

    phi_k(s) = (1/sqrt N) exp(i 2 pi kappa s / N)

with kappa running over the lattice's ``momentum_values()``: integers
for odd N, half-integers for even N.  Every position state has overlap
of magnitude 1/sqrt(N) with every phi_k, and the phase choice makes
exp(-i a P) the one-site cyclic translation (odd N) or its
sign-corrected variant (even N).
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
    """Complex coefficients of a state in the unbiased basis."""

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


def to_momentum_basis(state: FieldState) -> MomentumSpectrum:
    """Project onto the unbiased basis.

    Returns coefficients ordered like ``lattice.momentum_values()``.
    The transform is unitary, so the summed occupation equals M.
    """
    lat = state.lattice
    slots, offset, _unoffset, twist, _untwist = _basis_tables(lat)
    amps = state.amplitudes()
    if twist is not None:
        # half-integer momenta: absorb the extra half wave into a twist
        amps *= twist
    spectrum = np.fft.fft(amps)[slots]
    spectrum /= sqrt(lat.n_sites)
    # undo the storage offset: site s sits at array index s - site_min
    spectrum *= offset
    spectrum.setflags(write=False)
    return MomentumSpectrum(lattice=lat, coefficients=spectrum)


def from_momentum_basis(spectrum: MomentumSpectrum) -> FieldState:
    """Inverse of ``to_momentum_basis``; round trip is the identity."""
    lat = spectrum.lattice
    n = lat.n_sites
    slots, _offset, unoffset, _twist, untwist = _basis_tables(lat)
    packed = np.empty(n, dtype=complex)
    packed[slots] = spectrum.coefficients * unoffset
    amps = np.fft.ifft(packed)
    amps *= sqrt(n)
    if untwist is not None:
        amps *= untwist
    return state_from_amplitudes(lat, amps)
