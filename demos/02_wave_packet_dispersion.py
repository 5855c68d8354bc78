#!/usr/bin/env python3
"""A drifting gaussian packet under the reaction process.

The pair of fields is built as a gaussian, given drift with the local
boost, and stepped 1000 times with tau = 1e-3.  Watch the centre move at
the boost velocity while the width grows by free dispersion, the shape
stays gaussian, and M and the drift velocity hold still to ~1e-6.
"""

from ringfield import (
    EvolutionConfig,
    advance,
    combined_distribution,
    gaussian_state,
    make_lattice,
    run,
)

print(__doc__)

lattice = make_lattice(801)
state = gaussian_state(lattice, center=0, sigma=10.0, velocity_index=20)
velocity = 2 * lattice.reciprocal_constant * 20
print(f"boost velocity v = 2 g m = {velocity:.6f} sites per unit time")

series = run(state, EvolutionConfig(tau=1e-3), 1000, record_every=100)

print(f"\n{'step':>5s} {'M':>18s} {'<V>':>12s} {'mean':>9s} {'spread':>9s} {'residual':>10s}")
for snap in series.snapshots:
    print(f"{snap.step:>5d} {snap.m_total:>18.12f} {snap.drift_velocity:>12.8f} "
          f"{snap.position_mean:>9.4f} {snap.position_spread:>9.5f} "
          f"{snap.shape_residual:>10.2e}")

first, last = series.snapshots[0], series.snapshots[-1]
print(f"\ncentre moved {last.position_mean - first.position_mean:.4f} sites over t = 1.0"
      f" (v * t = {velocity:.4f})")
print(f"relative M variation: {abs(last.m_total - first.m_total) / first.m_total:.2e}")

print("\ncombined distribution before and after t = 100 of exact evolution")
print("(width sqrt(100 + (t/sigma)^2) -> 14.1 sites, drift 31 sites):")
late = advance(state, "exact", 100.0)
for label, snapshot_state in (("t=0", state), ("t=100", late)):
    density = combined_distribution(snapshot_state)
    peak = density.max()
    print(f"  {label}")
    for site in range(-20, 61, 8):
        value = density[site + lattice.half_width]
        bar = "#" * int(48 * value / peak)
        print(f"    s={site:+4d} {value:.5f} {bar}")
