"""Canned, reproducible experiment procedures.

Each procedure returns an ``ExperimentReport``: named metrics plus
pass/fail checks against tolerances fixed here.  Reports are
deterministic functions of their parameters and seed, so repeated runs
serialise byte-identically.

The headline conservation table runs the reaction process on an
801-site lattice for 1000 steps and watches the relative variation of
M and the drift velocity for three initial shapes.  The published
reference values it is held against:

    tau = 0.001   gaussian < 1e-5, uniform < 4e-4, random ~ 0.04
    tau = 0.005   gaussian and uniform < 1%, random visibly degraded
    tau = 0.010   gaussian still < 0.1%

The random row depends on how the random state is drawn, which the
reference leaves open, so it is gated on the order of magnitude
(band 0.004 .. 0.4) rather than a point value.

Every number the table and ``compare_rows`` report is an exact
function of the initial spectrum c_hat_0 (one forward transform).  One
Euler step multiplies c_hat_k by m_k = 1 - i x_k, x_k = tau g^2 kappa^2,
so M(n) = sum_k |c_hat_0,k|^2 |m_k|^(2n), and <P>(n) likewise
(``observables.spectral_series``), with <V> = 2 <P> for real fields.
The exact step multiplies by e_k = exp(-i x_k) and keeps M and <P>.
m = e exp(delta) with delta = log1p(x^2) / 2 - i (atan x - x), so the
distance between the two evolved states is

    deviation(n) = sqrt(sum_k |c_hat_0,k|^2 |expm1(n delta_k)|^2),

with no difference of two nearly equal vectors.  The closed forms take
an odd lattice (``ValueError`` before any transform) and check in site
space (``_euler_series``): c_hat_0 must carry the site-space M, and the
state after the final step, built by one inverse transform, must be
finite (``ValueError``) and carry the predicted M (both by
``observables._check_parseval``).  ``compare_rows`` builds the exact
final state too and holds it to M_0 and to the deviation.  The tests
hold the table against the M and <V> that ``run`` records.  The steps
``evolve`` builds check the tau bound; the one step built here, the
identity suite's dense Euler step, checks it before any matrix exists.

No procedure does the same work twice.  The table's grid evaluates its
nine rows at once (``paper_table_grid``): one batched forward
transform of the three states, one propagator per tau, and one block
of weights |m|^(2n) per tau and block of steps, shared by the three
shapes; each row is bitwise the relative variation of the M and drift
columns ``compare_rows`` gives for its shape alone.  The kernel oracle
sums F and G from one table index per block of residues
(``_residue_sums``).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .basis import momentum_coefficients
from .evolve import (
    EULER,
    EXACT,
    EvolutionConfig,
    _check_tau,
    advance,
    check_tau_bound,
    propagator,
    record_steps,
    run,
)
from .ioutil import atomic_write_text
from .kernels import ConsistencyError, _euler_x, kernel_f, kernel_g
from .lattice import ODD, make_even_lattice, make_lattice, wrap_index
from .observables import (
    _check_parseval,
    _euler_increase,
    _spectral_rows,
    count_local_maxima,
    high_band_fraction,
    m_step_increase_exact,
    quartic_moment_coefficient,
    spectral_series,
)
from .state import (
    FieldState,
    StateSpec,
    _check_integer,
    _check_seed,
    _frozen,
    build_state,
    combined_distribution,
    gaussian_state,
    norm_m,
    uniform_state,
)

# the lattice of the conservation table and of the procedures built on it
N_SITES = 801

# default construction parameters for the three table shapes; widths and
# drifts are choices of this artifact (the reference leaves them open)
GAUSSIAN_SIGMA = 10.0
GAUSSIAN_VELOCITY_INDEX = 20
UNIFORM_HALF_WIDTH = 50
UNIFORM_VELOCITY_INDEX = 10
DEFAULT_SEED = 0

TABLE_TAUS = (1e-3, 5e-3, 1e-2)
TABLE_SHAPES = ("gaussian", "uniform", "random")

# gated bands: shape, tau -> (low, high) on max(relvar M, relvar V)
TABLE_BANDS: dict[tuple[str, float], tuple[float, float]] = {
    ("gaussian", 1e-3): (0.0, 1e-5),
    ("uniform", 1e-3): (0.0, 4e-4),
    ("random", 1e-3): (0.004, 0.4),
    ("gaussian", 5e-3): (0.0, 1e-2),
    ("uniform", 5e-3): (0.0, 1e-2),
    ("gaussian", 1e-2): (0.0, 1e-3),
}
RANDOM_DEGRADATION_FACTOR = 10.0

IDENTITY_N_LIST = (3, 5, 9, 15, 21)
IDENTITY_STATES_PER_N = 50
IDENTITY_TAU = 2e-3
# the largest lattice ``identity_suite`` takes: its dense N x N matrices
# and their products peak at about 56 N^2 bytes (tracemalloc: 0.6 MB at
# N = 101, 36 MB at N = 801), so a larger N is refused before any allocation
IDENTITY_MAX_SITES = 801
KERNEL_ORACLE_N_LIST = (3, 5, 7, 21, 101, 801)

ORDER_TAUS = (4e-3, 2e-3, 1e-3, 5e-4)


@dataclass(frozen=True)
class Check:
    """One gated (or informational) comparison inside a report."""

    name: str
    value: float
    requirement: str
    passed: bool
    gated: bool = True


@dataclass(frozen=True)
class ExperimentReport:
    name: str
    params: dict
    metrics: dict
    checks: tuple[Check, ...] = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if c.gated)

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "params": self.params,
            "metrics": {k: _jsonable(v) for k, v in self.metrics.items()},
            "checks": [{**asdict(c), "value": _jsonable(c.value)} for c in self.checks],
            "passed": self.passed,
        }

    def to_text(self) -> str:
        lines = [f"== {self.name} =="]
        if self.params:
            lines.append("params: " + ", ".join(f"{k}={v}" for k, v in self.params.items()))
        for key, value in self.metrics.items():
            lines.append(f"  {key:<46s} {_fmt_value(value)}")
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            tag = "" if c.gated else "  [info]"
            lines.append(
                f"  [{status}] {c.name:<40s} {_fmt_value(c.value):>13s}  ({c.requirement}){tag}"
            )
        lines.append(_result_line(self))
        return "\n".join(lines) + "\n"

    def write_json(self, path: str) -> None:
        atomic_write_text(path, json.dumps(self.to_json_obj(), indent=1, sort_keys=True) + "\n")


def _jsonable(value):
    if isinstance(value, (bool, int, str)):
        return value
    return float(value)


def _result_line(report: ExperimentReport) -> str:
    return f"result: {'PASS' if report.passed else 'FAIL'}"


def _fmt_value(value) -> str:
    if isinstance(value, int):  # bool is an int, and str prints it as True/False
        return str(value)
    return f"{float(value):.6e}"


def _band_check(
    name: str, value: float, band: tuple[float, float] | None, gated: bool = True
) -> Check:
    if band is None:
        return Check(name, value, "informational", True, gated=False)
    low, high = band
    if low == 0.0:
        requirement = f"< {high:g}"
    else:
        requirement = f"in [{low:g}, {high:g}]"
    within = bool(low <= value <= high)
    if not gated:
        return Check(name, value, requirement + " (at 1000 steps)", True, gated=False)
    return Check(name, value, requirement, within)


def table_state(lattice, shape: str, seed: int = DEFAULT_SEED) -> FieldState:
    """Initial state used for one row of the conservation table."""
    params = {
        "gaussian": {"width": GAUSSIAN_SIGMA, "velocity_index": GAUSSIAN_VELOCITY_INDEX},
        "uniform": {"width": UNIFORM_HALF_WIDTH, "velocity_index": UNIFORM_VELOCITY_INDEX},
    }.get(shape, {})  # the random shape takes neither
    return build_state(lattice, StateSpec(shape, seed=seed, **params))


def _relative_variation(values) -> float:
    values = np.asarray(values, dtype=float)
    first = values[0]
    if first == 0.0:
        return float(np.max(np.abs(values - first)))
    return float(np.max(np.abs(values - first)) / abs(first))


# site-space distance of the final Euler and exact states against the
# closed-form deviation, relative to max(1, sqrt(M)) of the Euler state;
# measured at most 3.5e-16 (N = 101..32001, M_0 = 1 and 1e6, up to 1e6 steps)
FINAL_DEVIATION_RTOL = 1e-12


def _check_final_m(lattice, amplitudes: np.ndarray, predicted: float) -> None:
    """Finite amplitudes (``ValueError``) that carry the ``predicted`` M."""
    _check_parseval(predicted, norm_m(_frozen(lattice, amplitudes)))


def _euler_series(state: FieldState, taus, steps: list[int]):
    """c_hat_0 and its occupation, one row per state of ``state`` (one
    state or a block), and for each of ``taus`` the rows' M, <P> (one
    row per state, one column per n of ``steps``, ascending from 0) and
    amplitudes after the last step under the Euler step, checked as the
    module docstring says.  The parity check and every propagator (the
    tau bound) come first; no step taken gives ``None`` amplitudes and
    builds no propagator.  The rows share the work: one batched forward
    transform, one block of weights per tau and block of steps
    (``spectral_series``) and one batched inverse transform per tau."""
    lattice = state.lattice
    if lattice.parity != ODD:
        raise ValueError("the closed forms take an odd lattice")
    props = [propagator(lattice, EULER, tau) if steps[-1] else None for tau in taus]
    initial = np.reshape(momentum_coefficients(lattice, state.c), (-1, lattice.n_sites))
    occupation = np.abs(initial) ** 2
    _check_parseval(np.sum(occupation, axis=-1), norm_m(state))
    series = []
    for prop in props:
        log_m = np.zeros(lattice.n_sites) if prop is None else prop.log_multiplier.real  # m^0 = 1
        m_total, momentum = spectral_series(lattice, occupation, log_m, steps)
        final = None
        if prop is not None:
            final = prop.amplitudes_after(initial, [steps[-1]] * len(initial))  # one n per row
            _check_final_m(lattice, final, m_total[:, -1])
        series.append((m_total, momentum, final))
    return initial, occupation, series


def paper_table_grid(n_steps: int = 1000, seed: int = DEFAULT_SEED) -> ExperimentReport:
    """Full shapes-by-timesteps conservation grid in one report: the
    relative variation of M and <V> of each shape under each tau, in
    closed form at the steps ``run`` records every 10 (module
    docstring), and the band check of each row on the larger of the
    two.  The published bands describe the canonical 1000-step run;
    shorter runs report the same numbers ungated.

    The grid is evaluated once (``_euler_series``): the three states
    form one block, which takes one batched forward transform, each tau
    one propagator, all built before any transform, so the tau bound
    comes first, and each tau's weights |m|^(2n) serve all three
    shapes.  ``n_steps = 0`` reports variations of 0.0 and builds no
    propagator.  Raises ``ValueError`` for a seed that is not an integer
    >= 0 or a bad step count (``evolve.record_steps``), before any work.
    """
    _check_seed(seed)
    steps = record_steps(n_steps, 10)
    lattice = make_lattice(N_SITES)
    block = _frozen(
        lattice, np.stack([table_state(lattice, shape, seed).c for shape in TABLE_SHAPES])
    )
    _initial, _occupation, series = _euler_series(block, TABLE_TAUS, steps)
    variations = {
        (shape, tau): (_relative_variation(m_row), _relative_variation(2.0 * momentum_row))
        for tau, (m_total, momentum, _final) in zip(TABLE_TAUS, series)
        for shape, m_row, momentum_row in zip(TABLE_SHAPES, m_total, momentum)
    }
    gated = n_steps == 1000
    metrics: dict = {}
    checks: list[Check] = []
    for shape in TABLE_SHAPES:
        for tau in TABLE_TAUS:
            var_m, var_v = variations[(shape, tau)]
            metrics[f"{shape} tau={tau:g} var M"] = var_m
            metrics[f"{shape} tau={tau:g} var <V>"] = var_v
            checks.append(_band_check(f"{shape} tau={tau:g} max variation", max(var_m, var_v),
                                      TABLE_BANDS.get((shape, tau)), gated))
    if n_steps > 0:
        ratio = max(variations[("random", 5e-3)]) / max(variations[("random", 1e-3)])
        checks.append(
            Check(
                "random degradation at tau=0.005",
                ratio,
                f">= {RANDOM_DEGRADATION_FACTOR:g}x the tau=0.001 value",
                bool(ratio >= RANDOM_DEGRADATION_FACTOR) if gated else True,
                gated=gated,
            )
        )
    return ExperimentReport(
        name="conservation table",
        params={"n_steps": n_steps, "seed": seed},
        metrics=metrics,
        checks=tuple(checks),
    )


def _verdict(check: Check) -> str:
    if not check.gated:
        return "-"
    return "PASS" if check.passed else "FAIL"


def paper_table_text(grid: ExperimentReport) -> str:
    """The ``paper-table`` report: one aligned row per shape and time
    step, the degradation ratio when steps were taken, and the
    ``result:`` line."""
    header = f"{'shape':<10s} {'tau':>7s} {'var M':>12s} {'var <V>':>12s} {'band':>22s}  verdict"
    lines = [header, "-" * len(header)]
    verdicts = {c.name: c for c in grid.checks}
    for shape in TABLE_SHAPES:
        for tau in TABLE_TAUS:
            var_m = grid.metrics[f"{shape} tau={tau:g} var M"]
            var_v = grid.metrics[f"{shape} tau={tau:g} var <V>"]
            check = verdicts[f"{shape} tau={tau:g} max variation"]
            lines.append(
                f"{shape:<10s} {tau:>7g} {var_m:>12.3e} "
                f"{var_v:>12.3e} {check.requirement:>22s}  {_verdict(check)}"
            )
    ratio_check = verdicts.get("random degradation at tau=0.005")
    if ratio_check is not None:
        lines.append(
            f"random degradation at tau=0.005: x{ratio_check.value:.1f} "
            f"({ratio_check.requirement})  {_verdict(ratio_check)}"
        )
    lines.append(_result_line(grid))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# reaction step against the exact unitary


def _deviation_series(occupation: np.ndarray, x: np.ndarray, steps) -> np.ndarray:
    """The deviation of the module docstring for each n of ``steps``.

    With n delta = u - i v, |expm1(n delta)|^2 = expm1(u)^2 +
    4 e^u sin^2(v / 2): two non-negative terms, so nothing cancels.
    Summed row by row (``observables._spectral_rows``), which raises
    ``ValueError`` when a value leaves the finite floats.
    """
    log_magnitude = 0.5 * np.log1p(x * x)
    half_phase = 0.5 * (np.arctan(x) - x)

    def terms(n: np.ndarray) -> np.ndarray:
        growth = np.expm1(n * log_magnitude)
        turn = np.sin(n * half_phase)
        return growth * growth + 4.0 * (1.0 + growth) * turn * turn

    return np.sqrt(_spectral_rows(steps, terms, occupation[:, None])[:, 0])


def compare_rows(state: FieldState, tau: float, n_steps: int, record_every: int) -> list[tuple]:
    """The reaction step against the exact unitary from ``state``: rows
    (step, deviation, M_euler, M_exact, drift_euler, drift_exact) at
    the steps ``run`` records, in closed form (module docstring), with
    M_exact the site-space M_0 and drift = 2 <P>.

    At the final step the distance between the two states must match
    the deviation to ``FINAL_DEVIATION_RTOL`` (``ConsistencyError``).
    ``n_steps = 0`` gives one row, deviation 0.0, and builds no
    propagator.  Raises ``ValueError`` for a tau that is not positive, a
    bad step count (``evolve.record_steps``) or a state on an even
    lattice, before any work.
    """
    _check_tau(tau)
    steps = record_steps(n_steps, record_every)
    lattice = state.lattice
    (initial,), (occupation,), [((m_euler,), (momentum,), final)] = _euler_series(
        state, [tau], steps
    )
    m_exact = norm_m(state)
    deviation = np.zeros(len(steps))
    if final is not None:
        deviation = _deviation_series(occupation, _euler_x(lattice, tau), steps)
        (exact,) = propagator(lattice, EXACT, tau).amplitudes_after(initial, steps[-1:])
        _check_final_m(lattice, exact, m_exact)
        gap = np.linalg.norm(final[0] - exact) - deviation[-1]
        if not abs(gap) <= FINAL_DEVIATION_RTOL * max(1.0, np.sqrt(m_euler[-1])):
            raise ConsistencyError(
                f"the states after {n_steps} steps miss the closed-form deviation by {gap:.3e}"
            )
    drift = (2.0 * momentum).tolist()
    columns = zip(steps, deviation.tolist(), m_euler.tolist(), drift)
    return [(n, dev, m, m_exact, v, drift[0]) for n, dev, m, v in columns]


# ---------------------------------------------------------------------------
# exact identities at small N

EQ_M_DRIFT_RTOL = 1e-10
EQ_CONVOLUTION_RTOL = 1e-8
EQ_COMMUTATOR_SCALE = 1e-8


def _row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_s x_s y_s of each row of ``x`` with the same row of ``y``, as
    stacked 1 x N by N x 1 products: each is bitwise ``np.dot`` of its
    rows, so the norms and <c, F F c> below are bitwise those of
    ``np.linalg.norm`` and ``np.vdot`` row by row."""
    return np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]


def _check_sizes(n_sites_list) -> None:
    if len(n_sites_list) == 0:  # a report that checked no lattice would pass
        raise ValueError("n_sites_list must name at least one lattice size")


def _dense_reaction_step(fmat: np.ndarray, scale: float, a: np.ndarray, b: np.ndarray):
    """One reaction step of every row of the fields ``(a, b)``, shape
    (R, N), as the direct O(N^2) correlation with the dense F ``fmat``:
    a + scale F b and b - scale F a, with scale = tau g^2.  F acts on
    each row as a stacked matrix-vector product, which gives every row
    bitwise the result of ``F @ row``; the equivalent ``a @ F.T`` is one
    matrix product and does not."""
    created_a = np.matmul(fmat, b[..., None])[..., 0]
    created_b = np.matmul(fmat, a[..., None])[..., 0]
    return a + scale * created_a, b - scale * created_b


def identity_suite(n_sites_list=IDENTITY_N_LIST) -> ExperimentReport:
    """Brute-force verification of the derivation-level identities.

    * one-step M drift equals tau^2 g^4 sum_{r,u} c_r conj(c_u)
      sum_s F(r-s) F(s-u) (checked against the actual reaction step,
      at M = 1 and M = 7);
    * the F with F convolution collapses to the k^4 spectral sum;
    * sum_s [F(u-s) G(s-r) - G(u-s) F(s-r)] vanishes.

    Builds the dense F([s - r]) (wrapped modulo N) and G(s - r) of each
    lattice from the closed forms, so it takes small odd N only, where
    the O(N^3) matrix products stay cheap: at most
    ``IDENTITY_MAX_SITES`` = 801 sites, a peak of about 56 N^2 bytes.
    The k^4 sum is taken per residue d mod N (``_residue_sums``), so
    memory is O(N^2).  The ``IDENTITY_STATES_PER_N`` random states of a
    lattice, drawn from ``DEFAULT_SEED``, each at both normalisations,
    form one block of rows, which takes one dense Euler step of
    ``IDENTITY_TAU`` (``_dense_reaction_step``); both the block and the
    stepped block must be finite (``ValueError``).  Raises
    ``ValueError`` first for no lattice or a lattice past the cap, and
    checks the tau bound of every lattice (``check_tau_bound``,
    ``TimestepBoundError``), before any matrix is built.
    """
    _check_sizes(n_sites_list)
    tau = IDENTITY_TAU
    lattices = [make_lattice(n) for n in n_sites_list]
    for lattice in lattices:
        if lattice.n_sites > IDENTITY_MAX_SITES:
            raise ValueError(f"identity_suite builds dense matrices for N <= "
                             f"{IDENTITY_MAX_SITES} only (got N = {lattice.n_sites})")
        check_tau_bound(tau, lattice)
    rng = np.random.default_rng(DEFAULT_SEED)
    worst_m = worst_conv = worst_comm = 0.0
    for lattice in lattices:
        n = lattice.n_sites
        g = lattice.reciprocal_constant
        sites = lattice.sites()
        disp = sites[:, None] - sites[None, :]
        fmat = kernel_f(wrap_index(disp, lattice), lattice)
        gmat = kernel_g(disp, lattice)
        conv = fmat @ fmat

        # convolution identity against the direct k^4 sum at (s - r) mod N,
        # scaled by its value at d = 0 (no residual matrix outlives this)
        (quartic,) = _residue_sums(lattice, ((4, np.cos),))
        gap = np.max(np.abs(conv - quartic[disp % n]) / quartic[0])
        worst_conv = float(np.maximum(worst_conv, gap))

        # commutator of the two kernels
        f0 = kernel_f(0, lattice)
        comm = fmat @ gmat - gmat @ fmat
        worst_comm = float(np.maximum(worst_comm, np.max(np.abs(comm)) / f0**2))

        # one-step M drift, bilinear so checked at two normalisations:
        # every state at M = 1, then every state at M = 7, one block
        draws = rng.uniform(-1.0, 1.0, (IDENTITY_STATES_PER_N, 2, n))
        amps = draws[:, 0] + 1j * draws[:, 1]
        amps /= np.sqrt(_row_dots(amps.real, amps.real) + _row_dots(amps.imag, amps.imag))[:, None]
        block = _frozen(
            lattice, np.concatenate([amps * np.sqrt(m_target) for m_target in (1.0, 7.0)])
        )
        stepped_a, stepped_b = _dense_reaction_step(fmat, tau * g**2, block.a, block.b)
        stepped = _frozen(lattice, stepped_a + 1j * stepped_b)
        measured = norm_m(stepped) - norm_m(block)
        conv_c = np.matmul(conv, block.c[..., None])[..., 0]  # bitwise conv @ c per row
        quadratic = _row_dots(np.conj(block.c), conv_c).real
        predicted = tau**2 * g**4 * quadratic
        residual = np.abs(measured - predicted) / np.abs(predicted)
        worst_m = float(np.max(residual, initial=worst_m))
    checks = (
        Check("one-step M drift identity", worst_m, f"rel <= {EQ_M_DRIFT_RTOL:g}",
              bool(worst_m <= EQ_M_DRIFT_RTOL)),
        Check("F*F convolution identity", worst_conv, f"rel <= {EQ_CONVOLUTION_RTOL:g}",
              bool(worst_conv <= EQ_CONVOLUTION_RTOL)),
        Check("F/G commutator vanishes", worst_comm,
              f"<= {EQ_COMMUTATOR_SCALE:g} * F(0)^2", bool(worst_comm <= EQ_COMMUTATOR_SCALE)),
    )
    return ExperimentReport(
        name="identity suite",
        params={
            "n_sites_list": list(n_sites_list),
            "states_per_n": IDENTITY_STATES_PER_N,
            "seed": DEFAULT_SEED,
            "tau": tau,
        },
        metrics={
            "max relative M drift residual": worst_m,
            "max convolution residual (scaled)": worst_conv,
            "max commutator residual / F(0)^2": worst_comm,
        },
        checks=checks,
    )


KERNEL_F_RTOL = 1e-9
KERNEL_G_RTOL = 1e-9
KERNEL_ORACLE_BLOCK = 128  # residues per block of the direct sums


def _residue_sums(lattice, terms) -> np.ndarray:
    """The direct sums (1/N) sum_k k^power trig(2 pi k r / N) over
    k in [-L, L] for each residue r = 0..N-1, one row per ``(power,
    trig)`` of ``terms``: ``trig`` is ``np.cos`` for an even ``power``,
    ``np.sin`` for an odd one.  The phase of k r depends only on k r
    modulo N, so the values of ``trig`` are entries of one N-entry
    table, and every row reads the same index (k r) mod N.  Two exact
    identities cut the work 4x without changing what is summed:

    - residues: the table index (k d) mod N is the same for d and
      d +- N, so each sum is a function of r = d mod N.  The N residues
      0..N-1 are summed once and displacement d reads ``sums[d % N]``.
    - +-k pairs: k^power trig(2 pi k r / N) is even in k and vanishes
      at k = 0, so the sum over k in [-L, L] is twice the sum over
      k = 1..L.

    Every residue is summed on its own: r and N - r are not folded
    into one another, so a closed form that is wrong on one side of
    d = 0 still meets an independent sum there.  The sums run in real
    arithmetic, a block of ``KERNEL_ORACLE_BLOCK`` residues at a time,
    so the index matrix stays L x KERNEL_ORACLE_BLOCK; they use neither
    an FFT nor the closed forms.  At N = 801 the index and the gathered
    table of a 128-wide block take 400 KB each, and a call takes no
    minor page fault; at 256 wide (800 KB each) a call took about 370
    and a quarter more time.  The width regroups BLAS's sums, and 128
    and 256 give bitwise the same sums on every ``KERNEL_ORACLE_N_LIST``
    lattice (not every width does).  The index is reduced as
    x - (x // N) N in int64 (k r < N^2 cannot overflow): numpy divides
    integers by a scalar without a hardware division per entry, which
    its ``%`` takes.  Each row is bitwise the sum its term alone gives.
    """
    n = lattice.n_sites
    k = np.arange(1, lattice.half_width + 1)
    residues = np.arange(n)
    rows = [(k**power, trig(2.0 * np.pi * residues / n)) for power, trig in terms]
    sums = np.empty((len(rows), n))
    for lo in range(0, n, KERNEL_ORACLE_BLOCK):
        block = slice(lo, lo + KERNEL_ORACLE_BLOCK)
        index = np.multiply.outer(k, residues[block])
        index -= index // n * n  # (k r) mod N
        for out, (weights, table) in zip(sums, rows):
            out[block] = 2 * (weights @ table[index]) / n
    return sums


def kernel_oracle_check(
    n_sites_list=KERNEL_ORACLE_N_LIST, perturbation: float = 0.0
) -> ExperimentReport:
    """Closed forms of F and G against their direct spectral sums.

    Checked for every displacement d in [-2L, 2L] against the real parts
    of the complex sums in ``kernels``, F(d) = (1/N) sum_k k^2 cos(2 pi
    k d / N) and G(d) = -(1/N) sum_k k sin(2 pi k d / N), taken once per
    residue d mod N and once per +-k pair, both from one index
    (``_residue_sums``); both identities are exact, and d and -d are
    summed separately, so a closed form wrong only at negative (or only
    at positive) displacements fails the check.  ``perturbation`` is a
    self-test hook: a nonzero value is added to the closed-form F so the
    check must fail.  Raises ``ValueError`` first for no lattice.
    """
    _check_sizes(n_sites_list)
    worst_f = worst_g = 0.0
    for n in n_sites_list:
        lattice = make_lattice(n)
        d = np.arange(-2 * lattice.half_width, 2 * lattice.half_width + 1)
        f_spectral, g_sums = _residue_sums(lattice, ((2, np.cos), (1, np.sin)))[:, d % n]
        g_spectral = -g_sums
        f_closed = kernel_f(d, lattice) + perturbation
        g_closed = kernel_g(d, lattice)
        f0 = kernel_f(0, lattice)
        worst_f = float(np.maximum(worst_f, np.max(np.abs(f_closed - f_spectral)) / f0))
        worst_g = float(np.maximum(worst_g, np.max(np.abs(g_closed - g_spectral)) / n))
    checks = (
        Check("kernel F closed form vs spectral sum", worst_f,
              f"<= {KERNEL_F_RTOL:g} * F(0)", bool(worst_f <= KERNEL_F_RTOL)),
        Check("kernel G closed form vs spectral sum", worst_g,
              f"<= {KERNEL_G_RTOL:g} * N", bool(worst_g <= KERNEL_G_RTOL)),
    )
    return ExperimentReport(
        name="kernel oracle equivalence",
        params={"n_sites_list": list(n_sites_list), "perturbation": perturbation},
        metrics={
            "max |F_closed - F_spectral| / F(0)": worst_f,
            "max |G_closed - G_spectral| / N": worst_g,
        },
        checks=checks,
    )


# ---------------------------------------------------------------------------
# order of accuracy

ORDER_TARGET = 2.0
ORDER_TOL = 0.1


def _fitted_order(taus, errors) -> float:
    return float(np.polyfit(np.log(np.asarray(taus)), np.log(np.asarray(errors)), 1)[0])


def order_of_accuracy_run() -> ExperimentReport:
    """Fitted convergence orders of the reaction step on the table's
    gaussian, one step of each of ``ORDER_TAUS``.

    One linearised step differs from the exact unitary at second order
    in tau, and the per-step changes of M and <P> are exactly quadratic
    in tau, so all three fitted orders sit at 2.  All are closed forms
    in c_hat_0 (module docstring): the deviation is ``compare_rows``'s
    at step 1, checks included, relative to sqrt(M).  The largest tau
    steps past the tau bound's warning threshold on purpose (tau g^2 N^2
    = 0.158), so that warning is silenced here; the hard limit still
    raises.
    """
    lattice = make_lattice(N_SITES)
    state = gaussian_state(lattice, 0, GAUSSIAN_SIGMA, GAUSSIAN_VELOCITY_INDEX)
    base_norm = np.sqrt(norm_m(state))
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", r"tau \* g\^2 \* N\^2", UserWarning)
        err_state = [compare_rows(state, tau, 1, 1)[1][1] / base_norm for tau in ORDER_TAUS]
    occupation = np.abs(momentum_coefficients(lattice, state.c)) ** 2
    err_m, err_p = _euler_increase(lattice, occupation, ORDER_TAUS)
    orders = {
        "one-step euler vs exact": _fitted_order(ORDER_TAUS, err_state),
        "per-step |dM|": _fitted_order(ORDER_TAUS, np.abs(err_m)),
        "per-step |d<P>|": _fitted_order(ORDER_TAUS, np.abs(err_p)),
    }
    checks = tuple(
        Check(f"fitted order: {key}", value,
              f"{ORDER_TARGET:g} +- {ORDER_TOL:g}",
              bool(abs(value - ORDER_TARGET) <= ORDER_TOL))
        for key, value in orders.items()
    )
    metrics = {f"order: {k}": v for k, v in orders.items()}
    metrics.update({f"err(tau={t:g}) euler vs exact": e for t, e in zip(ORDER_TAUS, err_state)})
    return ExperimentReport(
        name="order of accuracy",
        params={"taus": list(ORDER_TAUS), "n_sites": N_SITES, "sigma": GAUSSIAN_SIGMA,
                "velocity_index": GAUSSIAN_VELOCITY_INDEX},
        metrics=metrics,
        checks=checks,
    )


# ---------------------------------------------------------------------------
# qualitative shape behaviour

SHAPE_RESIDUAL_LIMIT = 1e-2
NEW_MAXIMA_REQUIRED = 2


def qualitative_shape_run() -> ExperimentReport:
    """Shape phenomenology of the three canonical initial states.

    * a drifting gaussian under exact evolution keeps its gaussian
      profile and its width never shrinks;
    * a uniform window under the reaction process grows side lobes;
    * the random state's position-space roughness and outer-band
      momentum fraction are reported without gating (the smoothing of
      random fluctuations has no quantitative published statement).

    The gaussian's spread and shape residual are those ``run`` records
    at t = 0, 10, ..., 200.  They hold while the packet is 10 sigma
    clear of the wrap point, as it is at these fixed times: the
    free-particle law sigma(t)^2 = sigma_0^2 + (t / (a^2 sigma_0))^2
    gives sigma <= 22.4, so 10 sigma <= 224 < N / 2 = 400.5.
    """
    lattice = make_lattice(N_SITES)

    # gaussian dispersion under the exact unitary
    state = gaussian_state(lattice, 0, GAUSSIAN_SIGMA, GAUSSIAN_VELOCITY_INDEX)
    series = run(state, EvolutionConfig(tau=10.0, scheme=EXACT), 20, record_every=1)
    spreads = series.column("position_spread")
    residual_max = max(series.column("shape_residual"))
    monotone = not any(b < a - 1e-9 for a, b in zip(spreads, spreads[1:]))
    growth = spreads[-1] / spreads[0]

    # uniform window develops side lobes under the reaction process
    window = uniform_state(lattice, 0, 25, UNIFORM_VELOCITY_INDEX)
    maxima_before = count_local_maxima(combined_distribution(window))
    stepped = advance(window, EULER, 1e-3, 1000)
    maxima_after = count_local_maxima(combined_distribution(stepped))

    # random state: descriptive smoothness metrics only
    rough = table_state(lattice, "random")
    rough_before = _roughness(rough)
    band_before = high_band_fraction(rough)
    rough_after_state = advance(rough, EULER, 1e-3, 1000)
    rough_after = _roughness(rough_after_state)
    band_after = high_band_fraction(rough_after_state)

    checks = (
        Check("gaussian width growth monotone", float(monotone), "no shrink step",
              monotone),
        Check("gaussian shape residual", residual_max,
              f"< {SHAPE_RESIDUAL_LIMIT:g}", bool(residual_max < SHAPE_RESIDUAL_LIMIT)),
        Check("uniform new local maxima", float(maxima_after - maxima_before),
              f">= {NEW_MAXIMA_REQUIRED}", bool(maxima_after - maxima_before >= NEW_MAXIMA_REQUIRED)),
    )
    return ExperimentReport(
        name="qualitative shapes",
        params={"seed": DEFAULT_SEED, "n_sites": N_SITES},
        metrics={
            "gaussian width growth factor": growth,
            "gaussian max shape residual": residual_max,
            "uniform maxima before": maxima_before,
            "uniform maxima after": maxima_after,
            "random roughness before": rough_before,
            "random roughness after": rough_after,
            "random outer-band fraction before": band_before,
            "random outer-band fraction after": band_after,
        },
        checks=checks,
    )


def _roughness(state: FieldState) -> float:
    """Mean absolute nearest-neighbour jump of the combined
    distribution, normalised by its mean value."""
    density = combined_distribution(state)
    jumps = np.abs(np.diff(np.concatenate([density, density[:1]])))
    return float(np.mean(jumps) / np.mean(density))


# ---------------------------------------------------------------------------
# even vs odd demonstration

WRAPPED_RATIO_REQUIRED = 1e3
CONFINED_RATIO_LIMIT = 2.0


def even_odd_comparison(
    n_even: int = 800,
    n_odd: int = 801,
    sigma: float = 5.0,
    n_steps: int = 100,
    tau: float = 1e-3,
) -> ExperimentReport:
    """Reaction process vs its unitary reference on both parities.

    For a packet confined away from the even lattice's index seam the
    two parities deviate from their references comparably (the pure
    linearisation error).  For a packet sitting on the seam the Euler
    step of the even lattice, the naive even-mode step, picks the wrong
    sign for far-side creation and its deviation blows past the odd one
    by orders of magnitude.

    Raises ``ValueError`` unless ``tau`` > 0 and ``n_steps`` is an integer
    >= 1, and when a deviation the ratios divide by vanishes.
    """
    _check_tau(tau)
    _check_integer("n_steps", n_steps, 1)
    even = make_even_lattice(n_even)
    odd = make_lattice(n_odd)

    def deviations(lattice) -> list[float]:
        # the confined and the wrapped packet as one block of two rows:
        # n Euler steps against one exact step of n tau, as two ``advance``
        # calls take them, but from one forward transform when both
        # multipliers act on the unbiased basis; the naive even Euler
        # step acts on the storage-order DFT instead
        block = np.stack([gaussian_state(lattice, center, sigma).c
                          for center in (0, lattice.site_min)])
        euler = propagator(lattice, EULER, tau)
        initial = euler.coefficients(block)
        stepped = _frozen(lattice, euler.amplitudes_after(initial, [n_steps] * 2))
        exact = propagator(lattice, EXACT, n_steps * tau)
        if euler.storage_dft:
            initial = exact.coefficients(block)
        reference = _frozen(lattice, exact.amplitudes_after(initial, [1] * 2))
        # row by row: a norm along an axis sums in another order
        return [float(np.linalg.norm(row)) for row in stepped.c - reference.c]

    dev_even_confined, dev_even_wrapped = deviations(even)
    dev_odd_confined, dev_odd_wrapped = deviations(odd)
    if min(dev_even_confined, dev_odd_confined, dev_odd_wrapped) == 0.0:
        raise ValueError(
            f"the reaction step does not deviate from its reference at tau = {tau:g}"
        )

    confined_ratio = max(dev_even_confined, dev_odd_confined) / min(
        dev_even_confined, dev_odd_confined
    )
    wrapped_ratio = dev_even_wrapped / dev_odd_wrapped
    checks = (
        Check("confined packets deviate comparably", confined_ratio,
              f"ratio <= {CONFINED_RATIO_LIMIT:g}",
              bool(confined_ratio <= CONFINED_RATIO_LIMIT)),
        Check("wrapped packet breaks even mode", wrapped_ratio,
              f">= {WRAPPED_RATIO_REQUIRED:g} x odd deviation",
              bool(wrapped_ratio >= WRAPPED_RATIO_REQUIRED)),
    )
    return ExperimentReport(
        name="even vs odd",
        params={"n_even": n_even, "n_odd": n_odd, "sigma": sigma,
                "n_steps": n_steps, "tau": tau},
        metrics={
            "confined even deviation": dev_even_confined,
            "confined odd deviation": dev_odd_confined,
            "wrapped even deviation": dev_even_wrapped,
            "wrapped odd deviation": dev_odd_wrapped,
            "wrapped/odd ratio": wrapped_ratio,
        },
        checks=checks,
    )


# ---------------------------------------------------------------------------
# confined-regime M drift diagnostic

CONFINED_DIAGONAL_RTOL = 0.05
CONFINED_TAU = 1e-3


def confined_drift_diagnostic() -> ExperimentReport:
    """Exact one-step M growth of a confined gaussian and the diagonal
    coefficient of the drift kernel.

    The diagonal coefficient approaches pi^4 / (5 a^4) and is gated at
    5%; the one-step growth, one step of ``CONFINED_TAU``, is reported.
    """
    lattice = make_lattice(N_SITES)
    state = gaussian_state(lattice, 0, GAUSSIAN_SIGMA)
    exact = m_step_increase_exact(state, CONFINED_TAU)
    diag = quartic_moment_coefficient(lattice)
    target = np.pi**4 / (5.0 * lattice.lattice_constant**4)
    diag_dev = abs(diag - target) / target
    checks = (
        Check("diagonal drift coefficient vs pi^4/5", diag_dev,
              f"rel <= {CONFINED_DIAGONAL_RTOL:g}",
              bool(diag_dev <= CONFINED_DIAGONAL_RTOL)),
    )
    return ExperimentReport(
        name="confined drift diagnostic",
        params={"sigma": GAUSSIAN_SIGMA, "n_sites": N_SITES, "tau": CONFINED_TAU},
        metrics={
            "exact one-step M increase": exact,
            "diagonal coefficient": diag,
            "diagonal target pi^4/(5 a^4)": float(target),
        },
        checks=checks,
    )
