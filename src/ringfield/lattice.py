"""Cyclic lattice geometry and index arithmetic.

Sites live on a circle of ``n_sites`` points with spacing
``lattice_constant``.  The standard (odd) labelling runs over
``s = -L, ..., L`` with ``n_sites = 2L + 1``; the even demonstration
mode labels sites ``s = -n_sites/2, ..., n_sites/2 - 1``.  The
reciprocal constant ``g = 2*pi / (n_sites * lattice_constant)`` is the
momentum-space spacing.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, pi

import numpy as np

ODD = "odd"
EVEN = "even"


@dataclass(frozen=True)
class Lattice:
    """Geometry of a cyclic 1D lattice.

    ``half_width`` is ``(n_sites - 1) // 2`` for odd lattices and
    ``n_sites // 2`` for even ones; ``reciprocal_constant`` is exactly
    ``2*pi / (n_sites * lattice_constant)``.
    """

    n_sites: int
    lattice_constant: float
    half_width: int
    reciprocal_constant: float
    parity: str = ODD

    @property
    def site_min(self) -> int:
        return -self.half_width

    @property
    def site_max(self) -> int:
        if self.parity == ODD:
            return self.half_width
        return self.half_width - 1

    def sites(self) -> np.ndarray:
        """Site labels in storage order (ascending)."""
        return np.arange(self.site_min, self.site_max + 1)

    def momentum_values(self) -> np.ndarray:
        """Momentum indices diagonalising the translation generator.

        Integers ``-L..L`` for odd lattices.  For even lattices the
        single-valued choice is half-integral, ``+-1/2, ..., +-(N-1)/2``,
        which makes translation antiperiodic across the index seam.
        """
        if self.parity == ODD:
            return np.arange(-self.half_width, self.half_width + 1).astype(float)
        return np.arange(-self.half_width, self.half_width) + 0.5


def _build(n_sites, lattice_constant: float, parity: str) -> Lattice:
    """The lattice of ``parity`` (odd or even), the one place a parity
    becomes a lattice; raises ``ValueError`` for any other parity, an
    ``n_sites`` that ``int()`` would change (nothing is truncated), of
    the wrong parity or too small, or a ``lattice_constant`` that is not
    positive and finite (an infinite one would give g = 0)."""
    if parity not in (ODD, EVEN):
        raise ValueError(f"parity must be {ODD}|{EVEN} (got {parity!r})")
    try:
        n = int(n_sites)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != n_sites:
        raise ValueError(f"n_sites must be a whole number (got {n_sites!r})")
    if parity == ODD and (n < 3 or n % 2 == 0):
        raise ValueError(
            f"n_sites must be an odd integer >= 3 (got {n}); "
            "the standard model requires an odd number of sites"
        )
    if parity == EVEN and (n < 4 or n % 2 == 1):
        raise ValueError(f"even-mode lattice needs an even n_sites >= 4 (got {n})")
    if not 0 < lattice_constant < inf:
        raise ValueError(f"lattice_constant must be positive and finite (got {lattice_constant})")
    return Lattice(
        n_sites=n,
        lattice_constant=float(lattice_constant),
        half_width=n // 2,
        reciprocal_constant=2.0 * pi / (n * lattice_constant),
        parity=parity,
    )


def make_lattice(n_sites: int, lattice_constant: float = 1.0) -> Lattice:
    """Build the standard odd-site cyclic lattice.

    Raises ``ValueError`` for an ``n_sites`` that is not a whole number,
    even or too small, or a ``lattice_constant`` that is not positive
    and finite; the even variant is ``make_even_lattice``.
    """
    return _build(n_sites, lattice_constant, ODD)


def make_even_lattice(n_sites: int, lattice_constant: float = 1.0) -> Lattice:
    """Build the even-site lattice used by the demonstration mode.

    Site labels run over ``-N/2 .. N/2 - 1``; checked like ``make_lattice``.
    """
    return _build(n_sites, lattice_constant, EVEN)


def wrap_index(s, lattice: Lattice):
    """Reduce site indices modulo N into the canonical label range.

    Returns the unique representative in ``[-L, L]`` (odd) or
    ``[-N/2, N/2 - 1]`` (even).  Accepts scalars or integer arrays.
    """
    n = lattice.n_sites
    lo = lattice.site_min
    wrapped = (np.asarray(s) - lo) % n + lo
    if np.isscalar(s) or np.ndim(s) == 0:
        return int(wrapped)
    return wrapped
