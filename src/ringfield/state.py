"""The two-field state and its constructors.

A state assigns two real numbers to every site: ``a`` counts particles
of the first kind and ``b`` of the second, negative values meaning
antiparticles.  The pair is equivalent to one complex amplitude per
site, ``c_s = a_s + i b_s``, and the conserved quantity

    M = sum_s (a_s^2 + b_s^2)

plays the role of total probability; constructors normalise to M = 1.

``FieldState`` holds c with the sites on the last axis: shape (N,) for
one state, (R, N) for a block of R states, one per row.  States are
values: every operation returns a new state and the arrays are
read-only, so instances can be shared freely across threads.
A caller's array is copied (``state_from_amplitudes``); an array the
package has just built and holds no other reference to is taken over,
not copied (``_frozen``), so a block is held once.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .ioutil import atomic_write_text, csv_blocks, read_csv_table
from .lattice import EVEN, ODD, Lattice, _build, wrap_index


class DegenerateStateError(ValueError):
    """Raised when an operation needs a state with M > 0."""


@dataclass(frozen=True)
class FieldState:
    """Immutable complex amplitudes c = a + i b of one state, shape (N,),
    or of a block of states, shape (R, N), on a lattice."""

    lattice: Lattice
    c: np.ndarray

    @property
    def a(self) -> np.ndarray:
        """First field, the real part of c (read-only)."""
        return self.c.real

    @property
    def b(self) -> np.ndarray:
        """Second field, the imaginary part of c (read-only)."""
        return self.c.imag

    def amplitudes(self) -> np.ndarray:
        """The amplitudes c (fresh writable copy)."""
        return self.c.copy()

    def row(self, i) -> FieldState:
        """Row ``i`` of a block (or the rows a list ``i`` selects) as a
        state that owns a read-only copy of its values, so it does not
        keep the block alive."""
        return _frozen(self.lattice, self.c[i].copy())


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


def _frozen(lattice: Lattice, c: np.ndarray) -> FieldState:
    """A state that takes ``c`` over, read-only, once it is checked."""
    if c.shape[-1:] != (lattice.n_sites,):
        raise ValueError("field arrays must have one entry per site")
    if not np.all(np.isfinite(c)):
        raise ValueError("field values must be finite")
    c.setflags(write=False)
    return FieldState(lattice=lattice, c=c)


def _new_state(lattice: Lattice, a: np.ndarray, b: np.ndarray) -> FieldState:
    """One state from its two real fields.  The parts are assigned, not
    summed as a + 1j b, which would turn a -0.0 into +0.0."""
    if np.shape(a) != (lattice.n_sites,) or np.shape(b) != (lattice.n_sites,):
        raise ValueError("field arrays must have one entry per site")
    c = np.empty(lattice.n_sites, dtype=complex)
    c.real = a
    c.imag = b
    return _frozen(lattice, c)


def _require_one_state(state: FieldState, op: str) -> None:
    """``ValueError`` unless ``state`` is one state rather than a block."""
    if state.c.ndim != 1:
        raise ValueError(f"{op} takes one state, not a block of rows")


def state_from_amplitudes(lattice: Lattice, amplitudes: np.ndarray) -> FieldState:
    """A state, or a block with any leading axes, from complex amplitudes
    c = a + i b with the sites on the last axis (copied).  Raises
    ``ValueError`` unless the last axis has one entry per site and every
    value is finite."""
    return _frozen(lattice, np.array(amplitudes, dtype=complex))


def norm_m(state: FieldState) -> float | np.ndarray:
    """Total M = sum(a^2 + b^2): a float for one state, one M per row
    of a block."""
    m_total = np.sum(state.a**2, axis=-1) + np.sum(state.b**2, axis=-1)
    return float(m_total) if m_total.ndim == 0 else m_total


def combined_distribution(state: FieldState) -> np.ndarray:
    """Per-site conserved density a^2 + b^2 (of every row of a block)."""
    return state.a**2 + state.b**2


def _normalize(state: FieldState) -> FieldState:
    """Rescale both fields so that M = 1."""
    _require_one_state(state, "normalize")
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


def _check_integer(name: str, value, minimum: int | None = None) -> None:
    """``ValueError`` naming ``name`` unless ``value`` is an integer (a
    Python or numpy one, not a bool), and >= ``minimum`` if one is given."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or (minimum is not None and value < minimum)):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{name} must be an integer{bound} (got {value!r})")


def _check_in_band(lattice: Lattice, center: int, velocity_index: int) -> None:
    """Both must be integer site labels (not bools): for m, the
    representatives of m mod N (a larger |m| only aliases, and its boost
    phase loses digits)."""
    for name, value in (("center", center), ("velocity_index", velocity_index)):
        _check_integer(name, value)
        if not (lattice.site_min <= value <= lattice.site_max):
            bounds = f"[{lattice.site_min}, {lattice.site_max}]"
            raise ValueError(f"{name} {value} outside site range {bounds}")


def gaussian_state(
    lattice: Lattice, center: int, sigma: float, velocity_index: int = 0
) -> FieldState:
    """Normalised gaussian packet with quantised drift.

    Amplitude profile a_s = exp(-d^2 / (4 sigma^2)) with d the minimal
    cyclic distance to ``center``, so the combined distribution has
    standard deviation sigma.  Boosted by v = 2 g * velocity_index.
    The center's exponent is 0 without a division, and an off-center
    quotient that overflows, or divides by a 4 sigma^2 that underflowed
    to 0, is -inf: as sigma -> 0 the packet tends to one site.
    ``ValueError`` unless the center and the velocity index are sites.
    """
    _check_in_band(lattice, center, velocity_index)
    if not (0.0 < sigma <= lattice.half_width):
        raise ValueError(f"sigma must lie in (0, {lattice.half_width}] (got {sigma})")
    offsets = _cyclic_offsets(lattice, center)
    exponent = np.zeros(lattice.n_sites)
    with np.errstate(over="ignore", divide="ignore"):
        np.divide(-(offsets.astype(float) ** 2), 4.0 * sigma * sigma,
                  out=exponent, where=offsets != 0)
    profile = np.exp(exponent)
    base = _normalize(_new_state(lattice, profile, np.zeros_like(profile)))
    velocity = 2.0 * lattice.reciprocal_constant * velocity_index
    return boost(base, velocity)


def uniform_state(
    lattice: Lattice, center: int, half_width: int, velocity_index: int = 0
) -> FieldState:
    """Normalised flat window of 2 W + 1 sites with quantised drift.
    ``ValueError`` unless the center and the velocity index are sites
    and the half-width W is an integer in [1, L]."""
    _check_in_band(lattice, center, velocity_index)
    _check_integer("half_width", half_width)
    if not (1 <= half_width <= lattice.half_width):
        raise ValueError(
            f"half_width must lie in [1, {lattice.half_width}] (got {half_width})"
        )
    offsets = _cyclic_offsets(lattice, center)
    profile = (np.abs(offsets) <= half_width).astype(float)
    base = _normalize(_new_state(lattice, profile, np.zeros_like(profile)))
    velocity = 2.0 * lattice.reciprocal_constant * velocity_index
    return boost(base, velocity)


def _check_seed(seed: int) -> None:
    """``ValueError`` unless ``seed`` is an integer (``_check_integer``)
    >= 0."""
    _check_integer("seed", seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0 (got {seed})")


def random_state(lattice: Lattice, seed: int) -> FieldState:
    """Normalised state with both fields i.i.d. uniform on [-1, 1].

    Draws come from numpy's PCG64 generator (``np.random.default_rng``),
    whose stream for a given seed is stable across platforms, so equal
    seeds give bit-identical states.  Raises ``ValueError`` for a seed
    that is not an integer >= 0.
    """
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, lattice.n_sites)
    b = rng.uniform(-1.0, 1.0, lattice.n_sites)
    return _normalize(_new_state(lattice, a, b))


def build_state(lattice: Lattice, spec: StateSpec) -> FieldState:
    """Construct the state described by a StateSpec."""
    if spec.shape == "gaussian":
        return gaussian_state(lattice, spec.center, spec.width, spec.velocity_index)
    if spec.shape == "uniform":
        if not float(spec.width).is_integer():
            raise ValueError(f"uniform width must be a whole number of sites (got {spec.width})")
        return uniform_state(lattice, spec.center, int(spec.width), spec.velocity_index)
    if spec.shape == "random":
        return random_state(lattice, spec.seed)
    raise ValueError(f"unknown shape {spec.shape!r} (expected gaussian|uniform|random)")


# ---------------------------------------------------------------------------
# checkpoint format: CSV columns (site, a, b)

STATE_CSV_HEADER = "site,a,b"


def _state_csv_blocks(state: FieldState):
    _require_one_state(state, "a state checkpoint")
    return csv_blocks(STATE_CSV_HEADER, state.lattice.sites(), [state.a, state.b])


def state_to_csv_text(state: FieldState) -> str:
    return "".join(_state_csv_blocks(state))


def write_state_csv(state: FieldState, path: str) -> None:
    atomic_write_text(path, _state_csv_blocks(state))


def read_state_csv(path: str, lattice_constant: float = 1.0) -> FieldState:
    """Load a (site, a, b) checkpoint, inferring the lattice parity from
    the site labels; a malformed file raises ``ValueError`` naming it
    (``ioutil.read_csv_table``)."""
    sites, values = read_csv_table(path, STATE_CSV_HEADER)
    try:
        lattice = _build(len(sites), lattice_constant, ODD if len(sites) % 2 else EVEN)
        if not np.array_equal(sites, lattice.sites()):
            raise ValueError("site column is not the canonical label order")
        return _new_state(lattice, *values.T)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
