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

Each lattice holds one phase table, the conjugate of the storage
offset in FFT input order (and an even lattice's half-wave untwist):
the inverse shifts its coefficients into that order once, into the
array it returns, then multiplies by the table and transforms in place;
the forward multiplies by the table's conjugate, shifted back.  The
cache keeps two lattices, as many as any command transforms
(``even-odd``: 800 and 801 sites); more would only hold dead tables.
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


@lru_cache(maxsize=2)
def _basis_tables(lattice: Lattice):
    """Per-lattice phases of the transform pair, read-only: ``unoffset``,
    the conjugate of the storage offset exp(-2 pi i kappa site_min / N)
    in FFT input order (``ifftshift``), and ``untwist``, which restores
    the extra half wave of an even lattice after the inverse FFT
    (``None`` on odd lattices)."""
    n = lattice.n_sites
    offset = np.exp(-2j * np.pi * lattice.momentum_values() * lattice.site_min / n)
    unoffset = np.fft.ifftshift(np.conj(offset))
    untwist = np.exp(1j * np.pi * np.arange(n) / n) if lattice.parity == EVEN else None
    for table in (unoffset, untwist):
        if table is not None:
            table.setflags(write=False)
    return unoffset, untwist


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
    unoffset, _untwist = _basis_tables(lattice)
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
    coefficients *= np.conj(np.fft.fftshift(unoffset))
    return coefficients


def site_amplitudes(lattice: Lattice, coefficients: np.ndarray) -> np.ndarray:
    """Inverse of ``momentum_coefficients``, along the last axis."""
    n = lattice.n_sites
    unoffset, untwist = _basis_tables(lattice)
    # ifftshift puts momentum kappa at FFT input index kappa mod N (kappa - 1/2 if even)
    amplitudes = np.fft.ifftshift(np.asarray(coefficients, dtype=complex), axes=-1)
    amplitudes *= unoffset
    np.fft.ifft(amplitudes, out=amplitudes)
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
