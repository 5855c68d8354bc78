"""The two-field state and its constructors.

A state assigns two real numbers to every site: ``a`` counts particles
of the first kind and ``b`` of the second, negative values meaning
antiparticles.  The pair is equivalent to one complex amplitude per
site, ``c_s = a_s + i b_s``, and the conserved quantity

    M = sum_s (a_s^2 + b_s^2)

plays the role of total probability; constructors normalise to M = 1.

States are values: every operation returns a new state and the arrays
are marked read-only, so instances can be shared freely across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .ioutil import atomic_write_text
from .lattice import EVEN, Lattice, make_even_lattice, make_lattice, wrap_index


class DegenerateStateError(ValueError):
    """Raised when an operation needs a state with M > 0."""


@dataclass(frozen=True)
class FieldState:
    """Immutable pair of per-site particle counts on a lattice."""

    lattice: Lattice
    a: np.ndarray
    b: np.ndarray

    def amplitudes(self) -> np.ndarray:
        """Complex per-site amplitudes a + i b (fresh writable array)."""
        return self.a + 1j * self.b


@dataclass(frozen=True)
class StateSpec:
    """Declarative description of an initial state.

    ``width`` is the gaussian amplitude width sigma (sites) for the
    gaussian shape and the window half-width W (sites) for the uniform
    one; ``velocity_index`` m selects the quantised drift v = 2 g m;
    ``seed`` only matters for the random shape.
    """

    shape: str = "gaussian"
    center: int = 0
    width: float = 10.0
    velocity_index: int = 0
    seed: int = 0


def _new_state(lattice: Lattice, a: np.ndarray, b: np.ndarray) -> FieldState:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != (lattice.n_sites,) or b.shape != (lattice.n_sites,):
        raise ValueError("field arrays must have one entry per site")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("field values must be finite")
    a = a.copy()
    b = b.copy()
    a.setflags(write=False)
    b.setflags(write=False)
    return FieldState(lattice=lattice, a=a, b=b)


def state_from_amplitudes(lattice: Lattice, amplitudes: np.ndarray) -> FieldState:
    """Build a state from complex amplitudes c = a + i b."""
    amplitudes = np.asarray(amplitudes, dtype=complex)
    return _new_state(lattice, amplitudes.real, amplitudes.imag)


@dataclass(frozen=True)
class FieldBlock:
    """Several states on one lattice, one per row.

    ``c`` holds the complex amplitudes a + i b with the sites on the
    last axis: shape (R, N) for R states, or (N,) for one.
    ``block_from_amplitudes`` builds a checked, read-only block.
    """

    lattice: Lattice
    c: np.ndarray

    def amplitudes(self) -> np.ndarray:
        """The amplitudes a + i b, rows stacked (read-only array)."""
        return self.c

    def state(self, row: int) -> FieldState:
        """One row as a ``FieldState``."""
        return _new_state(self.lattice, self.c[row].real, self.c[row].imag)


def block_from_amplitudes(lattice: Lattice, amplitudes: np.ndarray) -> FieldBlock:
    """A block from complex amplitudes with the sites on the last axis.

    Checks what ``_new_state`` checks: one entry per site and finite
    values, raising ``ValueError`` otherwise.
    """
    c = np.array(amplitudes, dtype=complex)
    if c.shape[-1:] != (lattice.n_sites,):
        raise ValueError("field arrays must have one entry per site")
    if not np.all(np.isfinite(c)):
        raise ValueError("field values must be finite")
    c.setflags(write=False)
    return FieldBlock(lattice=lattice, c=c)


def norm_m(state: FieldState) -> float:
    """Total M = sum(a^2 + b^2)."""
    return float(np.sum(state.a**2) + np.sum(state.b**2))


def combined_distribution(state: FieldState) -> np.ndarray:
    """Per-site conserved density a^2 + b^2."""
    return state.a**2 + state.b**2


def normalize(state: FieldState) -> FieldState:
    """Rescale both fields so that M = 1."""
    total = norm_m(state)
    if total <= 0.0:
        raise DegenerateStateError("cannot normalise a state with M = 0")
    scale = 1.0 / np.sqrt(total)
    return _new_state(state.lattice, state.a * scale, state.b * scale)


def boost(state: FieldState, velocity: float) -> FieldState:
    """Site-local rotation adding drift velocity v.

        a'_s = a_s cos(v a s / 2) - b_s sin(v a s / 2)
        b'_s = a_s sin(v a s / 2) + b_s cos(v a s / 2)

    The per-site combined distribution is unchanged exactly.  Any real
    v is accepted; only the quantised values v = 2 g m (integer m) give
    a phase that is single-valued around the circle, which is what the
    shape constructors use.
    """
    angles = 0.5 * velocity * state.lattice.lattice_constant * state.lattice.sites()
    cos_t = np.cos(angles)
    sin_t = np.sin(angles)
    return _new_state(
        state.lattice,
        state.a * cos_t - state.b * sin_t,
        state.a * sin_t + state.b * cos_t,
    )


def _cyclic_offsets(lattice: Lattice, center: int) -> np.ndarray:
    return wrap_index(lattice.sites() - center, lattice)


def _check_center(lattice: Lattice, center: int) -> None:
    if not (lattice.site_min <= center <= lattice.site_max):
        raise ValueError(
            f"center {center} outside site range [{lattice.site_min}, {lattice.site_max}]"
        )


def gaussian_state(
    lattice: Lattice, center: int, sigma: float, velocity_index: int = 0
) -> FieldState:
    """Normalised gaussian packet with quantised drift.

    Amplitude profile a_s = exp(-d^2 / (4 sigma^2)) with d the minimal
    cyclic distance to ``center``, so the combined distribution has
    standard deviation sigma.  Boosted by v = 2 g * velocity_index.
    """
    _check_center(lattice, center)
    if not (0.0 < sigma <= lattice.half_width):
        raise ValueError(f"sigma must lie in (0, {lattice.half_width}] (got {sigma})")
    offsets = _cyclic_offsets(lattice, center)
    profile = np.exp(-(offsets.astype(float) ** 2) / (4.0 * sigma * sigma))
    base = normalize(_new_state(lattice, profile, np.zeros_like(profile)))
    velocity = 2.0 * lattice.reciprocal_constant * velocity_index
    return boost(base, velocity)


def uniform_state(
    lattice: Lattice, center: int, half_width: int, velocity_index: int = 0
) -> FieldState:
    """Normalised flat window of 2 W + 1 sites with quantised drift."""
    _check_center(lattice, center)
    if not (1 <= half_width <= lattice.half_width):
        raise ValueError(
            f"half_width must lie in [1, {lattice.half_width}] (got {half_width})"
        )
    offsets = _cyclic_offsets(lattice, center)
    profile = (np.abs(offsets) <= half_width).astype(float)
    base = normalize(_new_state(lattice, profile, np.zeros_like(profile)))
    velocity = 2.0 * lattice.reciprocal_constant * velocity_index
    return boost(base, velocity)


def random_state(lattice: Lattice, seed: int) -> FieldState:
    """Normalised state with both fields i.i.d. uniform on [-1, 1].

    Draws come from numpy's PCG64 generator (``np.random.default_rng``),
    whose stream for a given seed is stable across platforms, so equal
    seeds give bit-identical states.
    """
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, lattice.n_sites)
    b = rng.uniform(-1.0, 1.0, lattice.n_sites)
    return normalize(_new_state(lattice, a, b))


def build_state(lattice: Lattice, spec: StateSpec) -> FieldState:
    """Construct the state described by a StateSpec."""
    if spec.shape == "gaussian":
        return gaussian_state(lattice, spec.center, spec.width, spec.velocity_index)
    if spec.shape == "uniform":
        return uniform_state(lattice, spec.center, int(spec.width), spec.velocity_index)
    if spec.shape == "random":
        return random_state(lattice, spec.seed)
    raise ValueError(f"unknown shape {spec.shape!r} (expected gaussian|uniform|random)")


# ---------------------------------------------------------------------------
# checkpoint formats: CSV columns (site, a, b) and a JSON equivalent

STATE_CSV_HEADER = "site,a,b"


def state_to_csv_text(state: FieldState) -> str:
    rows = map(
        "{},{!r},{!r}".format,
        state.lattice.sites().tolist(), state.a.tolist(), state.b.tolist(),
    )
    return STATE_CSV_HEADER + "\n" + "\n".join(rows) + "\n"


def write_state_csv(state: FieldState, path: str) -> None:
    atomic_write_text(path, state_to_csv_text(state))


def _csv_row_error(path: str, rows: list[tuple[int, str]]) -> ValueError:
    """The error for the first malformed (line number, text) data row."""
    for lineno, line in rows:
        fields = line.split(",")
        if len(fields) != 3:
            return ValueError(f"{path}: line {lineno}: expected site,a,b, got {line!r}")
        try:
            int(fields[0]), float(fields[1]), float(fields[2])
        except ValueError as exc:
            return ValueError(f"{path}: line {lineno}: {exc}")
    return ValueError(f"{path}: unreadable site,a,b rows")


def read_state_csv(path: str, lattice_constant: float = 1.0) -> FieldState:
    """Load a (site, a, b) checkpoint; lattice parity is inferred from
    the site labels."""
    with open(path) as handle:
        rows = [(lineno, line.strip())
                for lineno, line in enumerate(handle.read().splitlines(), start=1)
                if line.strip()]
    if not rows or rows[0][1] != STATE_CSV_HEADER:
        raise ValueError(f"{path}: expected header {STATE_CSV_HEADER!r}")
    rows = rows[1:]
    if not rows:
        raise ValueError(f"{path}: no site,a,b rows")
    try:
        table = np.loadtxt([line for _lineno, line in rows], delimiter=",",
                           comments=None, ndmin=2)
    except ValueError:
        table = None
    if table is None or table.shape[1] != 3:
        raise _csv_row_error(path, rows)
    sites, a, b = table.T
    n = len(sites)
    lattice = (
        make_lattice(n, lattice_constant)
        if n % 2 == 1
        else make_even_lattice(n, lattice_constant)
    )
    if not np.array_equal(sites, lattice.sites()):
        raise ValueError(f"{path}: site column is not the canonical label order")
    return _new_state(lattice, a, b)


def state_to_json_obj(state: FieldState) -> dict:
    return {
        "n_sites": state.lattice.n_sites,
        "lattice_constant": state.lattice.lattice_constant,
        "parity": state.lattice.parity,
        "a": [float(x) for x in state.a],
        "b": [float(x) for x in state.b],
    }


def write_state_json(state: FieldState, path: str) -> None:
    atomic_write_text(path, json.dumps(state_to_json_obj(state), indent=1) + "\n")


def read_state_json(path: str) -> FieldState:
    """Load a checkpoint written by ``write_state_json``; a malformed
    file raises ``ValueError`` naming the path."""
    with open(path) as handle:
        try:
            obj = json.load(handle)
            maker = make_lattice if obj["parity"] != EVEN else make_even_lattice
            lattice = maker(obj["n_sites"], obj["lattice_constant"])
            return _new_state(lattice, np.array(obj["a"]), np.array(obj["b"]))
        except KeyError as exc:
            raise ValueError(f"{path}: missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: {exc}") from exc
