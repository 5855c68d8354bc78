"""Run configuration: a flat, human-editable key = value format.

Every field of ``RunConfig`` is one line; a ``#`` that opens a line or
follows a blank starts a comment.  Command-line flags override file
values.

Defaults are the headline configuration: 801 sites, unit spacing,
tau = 1e-3, 1000 steps, observables recorded every 10 steps, drifting
gaussian initial state.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields

from .evolve import EvolutionConfig
from .lattice import EVEN, ODD, Lattice, _build
from .state import StateSpec, _check_integer, _check_seed

PARITY_MODES = {"odd_standard": ODD, "even_naive": EVEN}
_COMMENT = re.compile(r"(?:^|\s)#")


@dataclass(frozen=True)
class RunConfig:
    n_sites: int = 801
    lattice_constant: float = 1.0
    shape: str = "gaussian"
    center: int = 0
    width: float = 10.0
    velocity_index: int = 20
    seed: int = 0
    scheme: str = "euler"
    tau: float = 1e-3
    n_steps: int = 1000
    record_every: int = 10
    parity_mode: str = "odd_standard"
    csv_path: str = ""
    json_path: str = ""
    checkpoint_every: int = 0
    checkpoint_dir: str = ""

    def __post_init__(self):
        _check_integer("n_steps", self.n_steps, 0)
        _check_integer("record_every", self.record_every, 1)
        _check_integer("checkpoint_every", self.checkpoint_every, 0)
        _check_seed(self.seed)

    def lattice(self) -> Lattice:
        parity = PARITY_MODES.get(self.parity_mode)
        if parity is None:
            raise ValueError(
                f"parity_mode must be odd_standard|even_naive (got {self.parity_mode!r})"
            )
        if parity == ODD and self.n_sites % 2 == 0:
            raise ValueError(
                "even n_sites is rejected by the standard model; "
                "pass parity_mode = even_naive to run the demonstration mode"
            )
        return _build(self.n_sites, self.lattice_constant, parity)

    def state_spec(self) -> StateSpec:
        return StateSpec(
            shape=self.shape,
            center=self.center,
            width=self.width,
            velocity_index=self.velocity_index,
            seed=self.seed,
        )

    def evolution(self) -> EvolutionConfig:
        return EvolutionConfig(tau=self.tau, scheme=self.scheme)


def parse_config_text(text: str) -> RunConfig:
    """Parse the flat format; a key it does not set keeps its default."""
    values = {}
    known = {spec.name: spec for spec in fields(RunConfig)}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in known:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        kind = known[key].type
        try:
            if kind == "int":
                values[key] = int(value)
            elif kind == "float":
                values[key] = float(value)
            else:
                values[key] = value
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value for {key}: {value!r}") from exc
    return RunConfig(**values)


def read_config(path: str) -> RunConfig:
    with open(path) as handle:
        return parse_config_text(handle.read())
