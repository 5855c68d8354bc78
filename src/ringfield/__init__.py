"""Two-field reaction process on a cyclic lattice.

A pair of real fields on an odd-size ring, each sourcing signed
polarisation of the other through a long-range alternating kernel,
carries a conserved combined distribution that moves exactly like a
free quantum particle on the same lattice.  This package implements the
reaction step, the exact unitary evolution it linearises, the conserved
observables, and reproducible experiments for all of the model's
identities, including the even-size demonstration mode where the
correspondence breaks.
"""

from .basis import MomentumSpectrum, to_momentum_basis
from .config import RunConfig, parse_config_text, read_config
from .evolve import EvolutionConfig, TimestepBoundError, advance, run
from .experiments import (
    ExperimentReport,
    confined_drift_diagnostic,
    even_odd_comparison,
    identity_suite,
    kernel_oracle_check,
    order_of_accuracy_run,
    paper_table_grid,
    qualitative_shape_run,
)
from .kernels import ConsistencyError, kernel_f, kernel_g
from .lattice import Lattice, make_even_lattice, make_lattice, wrap_index
from .observables import ObservableSnapshot, count_local_maxima, snapshot
from .series import TimeSeries, read_timeseries_csv
from .state import (
    DegenerateStateError,
    FieldState,
    StateSpec,
    boost,
    build_state,
    combined_distribution,
    gaussian_state,
    norm_m,
    random_state,
    read_state_csv,
    state_from_amplitudes,
    uniform_state,
    write_state_csv,
)

__version__ = "0.1.0"
