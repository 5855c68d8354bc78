"""Property tests: the config text and state CSV round trips are exact
for any representable input, and a boost never changes the combined
distribution."""

import dataclasses
import os
import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ringfield import (
    RunConfig,
    boost,
    combined_distribution,
    make_even_lattice,
    make_lattice,
    parse_config_text,
    read_state_csv,
    write_state_csv,
)
from ringfield.state import _new_state

from oracles import config_text

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


def _readable(text: str) -> bool:
    """No surrounding blanks and no word that opens with ``#``, which
    the parser would strip."""
    return text == text.strip() and not any(word.startswith("#") for word in text.split())


# one config line per field: any printable text that reads back
config_str = st.text(
    st.characters(min_codepoint=32, max_codepoint=126), max_size=20
).filter(_readable)
config_int = st.integers(-(10**18), 10**18)
config_float = st.floats(allow_nan=False)
FIELD_STRATEGIES = {
    "int": config_int,
    "float": config_float,
    "str": config_str,
}
BOUNDED_INTS = {
    "n_steps": st.integers(0, 10**18),
    "record_every": st.integers(1, 10**18),
    "checkpoint_every": st.integers(0, 10**18),
    "seed": st.integers(0, 10**18),
}
run_configs = st.builds(
    RunConfig,
    **{
        spec.name: BOUNDED_INTS.get(spec.name, FIELD_STRATEGIES[spec.type])
        for spec in dataclasses.fields(RunConfig)
    },
)


def _field_texts(config):
    """Each field as text, so -0.0 and 0.0 differ."""
    return [repr(v) for v in dataclasses.astuple(config)]


@PROPERTY_SETTINGS
@given(run_configs)
def test_config_text_round_trip(config):
    parsed = parse_config_text(config_text(config))
    assert parsed == config
    assert _field_texts(parsed) == _field_texts(config)


@st.composite
def field_states(draw, elements=st.floats(allow_nan=False, allow_infinity=False)):
    """States on odd and even lattices with any finite field values,
    including -0.0, subnormals and values near the float maximum."""
    odd = draw(st.booleans())
    half = draw(st.integers(1 if odd else 2, 20))
    spacing = draw(st.floats(1e-3, 1e3))
    if odd:
        lattice = make_lattice(2 * half + 1, spacing)
    else:
        lattice = make_even_lattice(2 * half, spacing)
    n_sites = lattice.n_sites
    a = draw(arrays(np.float64, n_sites, elements=elements))
    b = draw(arrays(np.float64, n_sites, elements=elements))
    return _new_state(lattice, a, b)


EDGE_VALUES = np.array([-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, -1e300])
EDGE_STATE = _new_state(make_lattice(5), EDGE_VALUES, EDGE_VALUES[::-1].copy())
EDGE_EVEN_STATE = _new_state(make_even_lattice(4), EDGE_VALUES[:4], EDGE_VALUES[1:].copy())


def _same_bits(x, y):
    return x.dtype == y.dtype and x.tobytes() == y.tobytes()


@PROPERTY_SETTINGS
@given(field_states())
@example(EDGE_STATE)
@example(EDGE_EVEN_STATE)
def test_state_csv_round_trip(state):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "state.csv")
        write_state_csv(state, path)
        back = read_state_csv(path, state.lattice.lattice_constant)
    assert back.lattice == state.lattice
    assert _same_bits(back.a, state.a) and _same_bits(back.b, state.b)


@PROPERTY_SETTINGS
@given(
    field_states(elements=st.floats(-1e150, 1e150)),
    st.floats(-1e3, 1e3),
)
def test_boost_keeps_the_combined_distribution(state, velocity):
    before = combined_distribution(state)
    after = combined_distribution(boost(state, velocity))
    # a^2 + b^2 against (a c - b s)^2 + (a s + b c)^2: a few roundings
    np.testing.assert_allclose(after, before, rtol=1e-14, atol=1e-300)
