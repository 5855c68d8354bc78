"""The benchmark's workloads, their inputs and their output checks.

Each workload is a fixed list of operations that one pass runs in
order, each starting when the previous one returned (a closed loop with
one client).  An operation is timed as part of its pass; its check runs
after the pass, outside the timed region, and returns ``None`` or the
reason it failed.  See README.md for why each workload exists.

The seed draws the packet centre and the velocity index of the ``run``
workload (``wide_dense``); neither changes its cost.  ``reproduce`` takes no
seed: ``paper-table`` is gated at its own seed 0 (README.md says why).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# written out here, not imported, so a change to the package's header
# shows up as a failed check
SERIES_HEADER = (
    "step,m_total,drift_velocity,momentum_expectation,"
    "position_mean,position_spread,shape_residual"
)
M_RTOL = 1e-10  # recorded m_total against the exact spectral prediction
DRIFT_RTOL = 1e-10  # drift_velocity against 2 * momentum_expectation
CHECKPOINT_RTOL = 1e-12  # M of a read-back checkpoint against its CSV row
VELOCITY_INDEX_RANGE = (5, 40)  # nonzero, so the drift check is relative to a real drift


@dataclass
class Operation:
    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    span: str | None = None  # a traced pass times the call as this span


@dataclass
class Workload:
    operations: list[Operation]
    setup_config: dict  # RunConfig fields the set-up probe builds
    inputs: dict
    outputs: list[str] = field(default_factory=list)  # removed before each pass

    def clear_outputs(self) -> None:
        for path in self.outputs:
            if os.path.exists(path):
                os.remove(path)


def cli_call(argv: list[str]) -> tuple[int, str]:
    """Run ``ringfield.cli.main(argv)`` in this process; return the exit
    code and what it printed."""
    from ringfield import cli

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code if isinstance(exc.code, int) else 1
    return code, buffer.getvalue()


class SpectralPrediction:
    """Exact M after n Euler steps: sum_k |c_k|^2 |1 - i tau g^2 k^2|^(2n),
    from ``to_momentum_basis`` of the initial state."""

    def __init__(self, n_sites: int, center: int, width: float,
                 velocity_index: int, tau: float):
        import ringfield

        lattice = ringfield.make_lattice(n_sites)
        state = ringfield.gaussian_state(lattice, center, width, velocity_index)
        spectrum = ringfield.to_momentum_basis(state)
        self.occupation = np.abs(spectrum.coefficients) ** 2
        g = lattice.reciprocal_constant
        kappa = lattice.momentum_values()
        self.log_growth = np.log1p((tau * g * g * kappa * kappa) ** 2)

    def m_total(self, step: int) -> float:
        return float(np.sum(self.occupation * np.exp(step * self.log_growth)))


def _relative_gap(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def read_series_csv(path: str) -> tuple[list[str], list[list[float]]]:
    with open(path) as handle:
        lines = handle.read().splitlines()
    rows = [[float(x) for x in line.split(",")] for line in lines[1:] if line]
    return lines[:1], rows


def check_series(csv_path: str, json_path: str | None, steps: list[int],
                 prediction: SpectralPrediction) -> str | None:
    """Header, record count, M against the spectral prediction, drift
    against twice the momentum, and the JSON copy against the CSV."""
    if not os.path.exists(csv_path):
        return f"{csv_path} was not written"
    header, rows = read_series_csv(csv_path)
    if header != [SERIES_HEADER]:
        return f"CSV header {header!r}"
    if [int(row[0]) for row in rows] != steps:
        return f"CSV has {len(rows)} records, expected steps {steps}"
    for row in rows:
        step, m_total, drift, momentum = int(row[0]), row[1], row[2], row[3]
        expected = prediction.m_total(step)
        if not _relative_gap(m_total, expected) <= M_RTOL:
            return f"step {step}: m_total {m_total!r} vs spectral prediction {expected!r}"
        scale = max(abs(drift), abs(2.0 * momentum))
        if not abs(drift - 2.0 * momentum) <= DRIFT_RTOL * scale:
            return f"step {step}: drift_velocity {drift!r} vs 2 <P> {2.0 * momentum!r}"
    if json_path is not None:
        if not os.path.exists(json_path):
            return f"{json_path} was not written"
        with open(json_path) as handle:
            obj = json.load(handle)
        if obj.get("columns") != SERIES_HEADER.split(",") or obj.get("rows") != rows:
            return "JSON series differs from the CSV series"
    return None


def check_exit(expected_code: int, marker: str):
    def check(outcome) -> str | None:
        code, text = outcome
        if code != expected_code:
            return f"exit code {code}, expected {expected_code}"
        if marker not in text:
            return f"output lacks {marker!r}"
        return None
    return check


def record_steps(n_steps: int, record_every: int) -> list[int]:
    steps = list(range(0, n_steps + 1, record_every))
    return steps if steps[-1] == n_steps else steps + [n_steps]


def _run_workload(name: str, workdir: str, seed: int, *, n_sites: int,
                  width: float, n_steps: int, record_every: int,
                  write_json: bool = False, checkpoint_every: int = 0) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    half = (n_sites - 1) // 2
    center = rng.randint(-half, half)
    velocity_index = rng.randint(*VELOCITY_INDEX_RANGE)
    tau = 1e-3

    csv_path = os.path.join(workdir, "series.csv")
    json_path = os.path.join(workdir, "series.json") if write_json else None
    argv = [
        "run", "--n-sites", str(n_sites), "--width", repr(width),
        "--center", str(center), "--velocity-index", str(velocity_index),
        "--n-steps", str(n_steps), "--record-every", str(record_every),
        "--csv", csv_path,
    ]
    if json_path:
        argv += ["--json", json_path]
    checkpoint_dir = os.path.join(workdir, "checkpoints")
    checkpoints = []
    if checkpoint_every:
        argv += ["--checkpoint-every", str(checkpoint_every),
                 "--checkpoint-dir", checkpoint_dir]
        checkpoints = record_steps(n_steps, checkpoint_every)

    prediction = SpectralPrediction(n_sites, center, width, velocity_index, tau)
    steps = record_steps(n_steps, record_every)
    operations = [
        Operation(
            "ringfield " + " ".join(argv),
            lambda: cli_call(argv),
            lambda outcome: (
                f"exit code {outcome[0]}: {outcome[1].strip()[-200:]}"
                if outcome[0] != 0
                else check_series(csv_path, json_path, steps, prediction)
            ),
        )
    ]
    outputs = [csv_path] + ([json_path] if json_path else [])
    for step in checkpoints:
        path = os.path.join(checkpoint_dir, f"state_{step:06d}.csv")
        outputs.append(path)
        operations.append(Operation(
            f"read_state_csv {os.path.basename(path)}",
            lambda path=path: _read_state(path),
            lambda state, step=step: _check_checkpoint(state, step, csv_path, prediction),
        ))
    return Workload(
        operations=operations,
        setup_config={"n_sites": n_sites, "width": width, "center": center,
                      "velocity_index": velocity_index, "tau": tau},
        inputs={"argv": argv, "center": center, "velocity_index": velocity_index,
                "checkpoints_read": len(checkpoints)},
        outputs=outputs,
    )


def _read_state(path: str):
    import ringfield

    return ringfield.read_state_csv(path)


def _check_checkpoint(state, step: int, csv_path: str,
                      prediction: SpectralPrediction) -> str | None:
    m_read = float(np.sum(state.a**2) + np.sum(state.b**2))
    _header, rows = read_series_csv(csv_path)
    row = [r for r in rows if int(r[0]) == step]
    if not row:
        return f"no CSV row for checkpoint step {step}"
    if not _relative_gap(m_read, row[0][1]) <= CHECKPOINT_RTOL:
        return f"checkpoint {step}: M {m_read!r} vs CSV row {row[0][1]!r}"
    expected = prediction.m_total(step)
    if not _relative_gap(m_read, expected) <= M_RTOL:
        return f"checkpoint {step}: M {m_read!r} vs spectral prediction {expected!r}"
    return None


def _reproduce_workload(smoke: bool) -> Workload:
    commands = [
        ("cli.verify", ["verify"] + (["--max-n", "21"] if smoke else []),
         "verify: all checks passed"),
        ("cli.paper_table", ["paper-table"] + (["--steps", "10"] if smoke else []),
         "result: PASS"),
        ("cli.even_odd", ["even-odd"] + (["--n-even", "400", "--n-odd", "401"] if smoke else []),
         "result: PASS"),
    ]
    return Workload(
        operations=[
            Operation("ringfield " + " ".join(argv), lambda argv=argv: cli_call(argv),
                      check_exit(0, marker), span)
            for span, argv, marker in commands
        ],
        setup_config={},
        inputs={"argv": [argv for _span, argv, _marker in commands]},
    )


def make_workload(name: str, seed: int, workdir: str, smoke: bool = False) -> Workload:
    """The named workload; ``smoke`` shrinks every lattice and loop so a
    pass takes well under a second (for the smoke test only)."""
    if name == "wide_dense":
        return _run_workload(name, workdir, seed, n_sites=201 if smoke else 4001,
                             width=10.0 if smoke else 50.0, n_steps=100,
                             record_every=5, write_json=True, checkpoint_every=25)
    if name == "reproduce":
        return _reproduce_workload(smoke)
    raise KeyError(name)


WORKLOADS = ("wide_dense", "reproduce")
