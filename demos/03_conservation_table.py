#!/usr/bin/env python3
"""Reproduce the conservation table: three shapes, three time steps.

M and the drift velocity are exactly conserved by the continuous
dynamics; the discrete reaction step drifts them at O(tau^2) per step.
At tau = 1e-3 a smooth gaussian holds both to better than 1e-5 over
1000 steps, a uniform window to a few 1e-4 (its sharp edges put weight
at high momentum), and a random state only to a few percent.  Raising
tau degrades each shape in proportion to its momentum content.
"""

from ringfield import paper_table_grid
from ringfield.experiments import paper_table_text

print(__doc__)
grid = paper_table_grid(n_steps=1000, seed=0)
print(paper_table_text(grid), end="")
