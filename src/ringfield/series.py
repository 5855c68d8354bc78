"""Time series of observable snapshots and their on-disk forms."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .ioutil import atomic_write_text, csv_blocks, read_csv_table
from .observables import ObservableSnapshot
from .state import FieldState

TIMESERIES_CSV_HEADER = (
    "step,m_total,drift_velocity,momentum_expectation,"
    "position_mean,position_spread,shape_residual"
)
_COLUMNS = TIMESERIES_CSV_HEADER.split(",")


@dataclass(frozen=True)
class TimeSeries:
    """Snapshots in step order (first one at step 0), plus optional
    full-state checkpoints keyed by step."""

    snapshots: tuple[ObservableSnapshot, ...]
    checkpoints: dict[int, FieldState] = field(default_factory=dict)

    def __post_init__(self):
        steps = [snap.step for snap in self.snapshots]
        if steps and steps[0] != 0:
            raise ValueError("a time series starts at step 0")
        if any(b <= a for a, b in zip(steps, steps[1:])):
            raise ValueError("snapshot steps must be strictly increasing")

    def column(self, name: str):
        """All values of one snapshot field, in step order."""
        return [getattr(snap, name) for snap in self.snapshots]

    def csv_blocks(self):
        """The CSV text in blocks of rows (``ioutil.csv_blocks``)."""
        return csv_blocks(TIMESERIES_CSV_HEADER, self.column("step"),
                          [self.column(name) for name in _COLUMNS[1:]])

    def write_csv(self, path: str) -> None:
        atomic_write_text(path, self.csv_blocks())

    def to_json_obj(self) -> dict:
        return {
            "columns": _COLUMNS,
            "rows": [
                [snap.step] + [float(getattr(snap, col)) for col in _COLUMNS[1:]]
                for snap in self.snapshots
            ],
        }

    def write_json(self, path: str) -> None:
        atomic_write_text(path, json.dumps(self.to_json_obj(), indent=1) + "\n")


def read_timeseries_csv(path: str) -> list[ObservableSnapshot]:
    """Snapshots from a time-series CSV (``ioutil.read_csv_table``)."""
    steps, values = read_csv_table(path, TIMESERIES_CSV_HEADER)
    return [ObservableSnapshot(step, *row) for step, row in zip(steps.tolist(), values.tolist())]
