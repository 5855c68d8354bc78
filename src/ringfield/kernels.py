"""Distance kernels of the reaction process.

Two lattice kernels drive everything here.  ``kernel_f`` is the
creation-strength profile,

    F(d) = (-1)^d cos(pi d / N) / (2 sin^2(pi d / N)),   F(0) = (N^2 - 1) / 12,

equal to the matrix element of the squared momentum between position
states (up to a factor g^2).  ``kernel_g`` is the first-power analogue

    G(d) = (-1)^d / (2 sin(pi d / N)),   G(0) = 0,

used for the drift velocity.  Both closed forms agree with their
spectral sums over the momentum index,

    F(d) = (1/N) sum_k k^2 exp(i 2 pi k d / N),
    G(d) = (i/N) sum_k k   exp(i 2 pi k d / N),

for every odd N.  Production applies F and G in the momentum basis, as
kappa^2 and i kappa (``_euler_x``), and reads the closed-form F only
for the naive even-mode step's eigenvalues.  The rest are oracles, and
this module builds no N x N matrix.  ``verify``'s identity suite builds
its own small dense F and G from the closed forms, for N up to
``experiments.IDENTITY_MAX_SITES``, and the tests' cached dense
builders and reference step live in ``tests/oracles.py``.  The package
holds no spectral form: the direct sums that check the closed forms are
``experiments._residue_sums`` (``verify``) and the tests' own.

For odd N both kernels are N-periodic, so evaluating them at unwrapped
displacements ``s - r`` in ``[-2L, 2L]`` equals evaluating at wrapped
ones.  For even N the closed forms are N-antiperiodic instead, which is
exactly the sign structure of the sign-corrected even-mode evolution.
"""

from __future__ import annotations

import numpy as np

from .lattice import EVEN, Lattice, wrap_index


class ConsistencyError(RuntimeError):
    """An internally computed quantity violated its own error budget."""


def _sign_alternation(d: np.ndarray) -> np.ndarray:
    return np.where(np.asarray(d) % 2 == 0, 1.0, -1.0)


def kernel_f(d, lattice: Lattice):
    """Closed-form F(d) for any integer displacement (scalar or array)."""
    n = lattice.n_sites
    d_arr = np.asarray(d)
    on_zero = (d_arr % n) == 0
    x = np.where(on_zero, 1.0, np.pi * d_arr / n)  # dummy angle on the zero branch
    with np.errstate(divide="ignore", invalid="ignore"):
        off = _sign_alternation(d_arr) * np.cos(x) / (2.0 * np.sin(x) ** 2)
    out = np.where(on_zero, (n * n - 1) / 12.0, off)
    if lattice.parity == EVEN:
        # vanishes identically at the opposite point of the circle (d = +-N/2)
        at_antipode = ((2 * d_arr) % n == 0) & ~on_zero
        out = np.where(at_antipode, 0.0, out)
    if np.isscalar(d) or np.ndim(d) == 0:
        return float(out)
    return out


def kernel_g(d, lattice: Lattice):
    """Closed-form G(d) for any integer displacement (scalar or array)."""
    n = lattice.n_sites
    d_arr = np.asarray(d)
    on_zero = (d_arr % n) == 0
    x = np.where(on_zero, 1.0, np.pi * d_arr / n)
    with np.errstate(divide="ignore", invalid="ignore"):
        off = _sign_alternation(d_arr) / (2.0 * np.sin(x))
    out = np.where(on_zero, 0.0, off)
    if np.isscalar(d) or np.ndim(d) == 0:
        return float(out)
    return out


def _euler_x(lattice: Lattice, tau) -> np.ndarray:
    """x = tau g^2 lambda over the eigenvalues lambda of F, so one Euler
    step multiplies each coefficient by 1 - i x: kappa^2 on an odd
    lattice, ordered like ``lattice.momentum_values()``, and on an even
    one the naive circulant's in integer DFT order, the DFT of F at the
    storage offsets 0..N-1 wrapped modulo N (real: F is even in d).
    ``tau`` may be a column, one row of x each, bitwise as if alone."""
    g = lattice.reciprocal_constant
    if lattice.parity == EVEN:
        column = kernel_f(wrap_index(np.arange(lattice.n_sites), lattice), lattice)
        return tau * g * g * np.fft.fft(column).real
    kappa = lattice.momentum_values()
    return tau * g * g * (kappa * kappa)
