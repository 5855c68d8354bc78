#!/usr/bin/env python3
"""Walk through the two distance kernels and the identities they satisfy.

The reaction process is driven by F(d), the signed number of particles
created at distance d, and G(d), its first-power sibling used for the
drift velocity.  Both have closed forms, which ``verify``'s kernel
oracle holds against their direct spectral sums; their convolution and
commutation identities are what make M and <V> conserved quantities.
Run this file to see all of it numerically.
"""

from ringfield import identity_suite, kernel_f, kernel_g, kernel_oracle_check, make_lattice

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

print("\n-- convolution and commutator identities --")
print(identity_suite((lattice.n_sites,)).to_text(), end="")
print("the commutator's cancellation is why the drift velocity is conserved to O(tau^2).")
