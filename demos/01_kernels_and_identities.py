#!/usr/bin/env python3
"""Walk through the two distance kernels and the identities they satisfy.

The reaction process is driven by F(d), the signed number of particles
created at distance d, and G(d), its first-power sibling used for the
drift velocity.  Both have closed forms, which ``verify``'s kernel
oracle holds against their direct spectral sums; their convolution and
commutation identities are what make M and <V> conserved quantities.
Run this file to see all of it numerically.
"""

import numpy as np

from ringfield import kernel_f, kernel_g, kernel_oracle_check, make_lattice
from ringfield.kernels import f_site_matrix, g_site_matrix

print(__doc__)

lattice = make_lattice(21)
print(f"lattice: N={lattice.n_sites}, L={lattice.half_width}, "
      f"g={lattice.reciprocal_constant:.6f}")

print("\n-- closed forms --")
print(f"{'d':>4s} {'F closed':>12s} {'G closed':>12s}")
for d in (0, 1, 2, 5, 10, 15, 20):
    print(f"{d:>4d} {kernel_f(d, lattice):>12.6f} {kernel_g(d, lattice):>12.6f}")

print("\nF alternates in sign and decays like 1/d^2 away from d=0,")
print("which is the particle/antiparticle alternation of the creation rule.")

print(f"\nF(0) = (N^2-1)/12 = {kernel_f(0, lattice):.6f}")
print(f"F is even:  F(3) - F(-3)  = {kernel_f(3, lattice) - kernel_f(-3, lattice):.1e}")
print(f"G is odd:   G(3) + G(-3)  = {kernel_g(3, lattice) + kernel_g(-3, lattice):.1e}")

print("\n-- closed forms vs direct spectral sums, every displacement --")
print(kernel_oracle_check((lattice.n_sites,)).to_text(), end="")

print("\n-- convolution identity --")
fmat = f_site_matrix(lattice)
conv = fmat @ fmat
k = np.arange(-lattice.half_width, lattice.half_width + 1).astype(float)
sites = lattice.sites()
disp = sites[:, None] - sites[None, :]
quartic = np.tensordot(
    k**4, np.exp(2j * np.pi * np.multiply.outer(k, disp) / lattice.n_sites), axes=1
) / lattice.n_sites
print("sum_s F(r-s) F(s-u) equals the k^4 spectral sum:")
print(f"  max residual = {np.max(np.abs(conv - quartic.real)):.2e}")

print("\n-- commutator identity --")
gmat = g_site_matrix(lattice)
comm = fmat @ gmat - gmat @ fmat
print("sum_s [F(u-s) G(s-r) - G(u-s) F(s-r)] vanishes:")
print(f"  max |commutator| = {np.max(np.abs(comm)):.2e}")
print("this cancellation is why the drift velocity is conserved to O(tau^2).")
