#!/usr/bin/env python3
"""Why the site count must be odd.

On an odd ring the creation kernel is periodic, so the reaction rule
with plain modulo-N indexing linearises the true quantum evolution.  On
an even ring the quantum kernel is ANTIperiodic: amplitude crossing the
label seam must flip sign (particles exchange with antiparticles).  The
naive even-mode rule skips that flip.  A packet parked away from the
seam cannot tell the difference; one parked on the seam immediately can.
"""

import numpy as np

from ringfield import (
    advance,
    even_odd_comparison,
    make_even_lattice,
    state_from_amplitudes,
)

print(__doc__)

print("-- the sign flip, on an 8-site ring --")
lattice = make_even_lattice(8)
amps = np.zeros(8, dtype=complex)
amps[-1] = 1.0  # basis state at the last label, s = +3
border = state_from_amplitudes(lattice, amps)
rolled = np.roll(amps, 1)
generated = advance(border, "translate", 1)
print("plain cyclic roll of a border basis state:  ", np.round(rolled.real, 3))
print("translation generated by the momentum basis:", np.round(generated.amplitudes().real, 3))
print("the generated translation carries the minus sign across the seam.\n")

print("-- deviation from the unitary reference, N=800 vs N=801 --")
report = even_odd_comparison(n_even=800, n_odd=801, sigma=5.0, n_steps=100, tau=1e-3)
for key, value in report.metrics.items():
    print(f"  {key:<28s} {value:.3e}")
print()
for check in report.checks:
    print(f"  [{'PASS' if check.passed else 'FAIL'}] {check.name} ({check.requirement})")
print("\nconfined packets: parity invisible.  wrapped packets: the naive")
print("even rule creates far-side particles with the wrong sign and the")
print("correspondence with the quantum particle is gone.")
