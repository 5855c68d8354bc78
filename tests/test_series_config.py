import math

import pytest

from ringfield import (
    EvolutionConfig,
    RunConfig,
    gaussian_state,
    make_lattice,
    read_timeseries_csv,
    run,
)
from ringfield.config import parse_config_text, read_config
from ringfield.observables import ObservableSnapshot
from ringfield.series import TIMESERIES_CSV_HEADER, TimeSeries

from oracles import config_text


def _snap(step, value=1.0):
    return ObservableSnapshot(
        step=step, m_total=value, drift_velocity=0.1, momentum_expectation=0.05,
        position_mean=0.0, position_spread=10.0, shape_residual=1e-4,
    )


class TestTimeSeries:
    def test_header_is_the_documented_one(self):
        assert TIMESERIES_CSV_HEADER == (
            "step,m_total,drift_velocity,momentum_expectation,"
            "position_mean,position_spread,shape_residual"
        )

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError):
            TimeSeries(snapshots=(_snap(5),))

    def test_steps_strictly_increasing(self):
        with pytest.raises(ValueError):
            TimeSeries(snapshots=(_snap(0), _snap(10), _snap(10)))

    def test_csv_round_trip(self, tmp_path):
        lattice = make_lattice(101)
        state = gaussian_state(lattice, 0, 5.0, 2)
        series = run(state, EvolutionConfig(), 20, record_every=10)
        path = tmp_path / "series.csv"
        series.write_csv(str(path))
        back = read_timeseries_csv(str(path))
        assert [s.step for s in back] == [0, 10, 20]
        for ours, theirs in zip(series.snapshots, back):
            assert theirs.m_total == ours.m_total  # repr round trip is exact
            assert theirs.drift_velocity == ours.drift_velocity

    def test_byte_stable(self, tmp_path):
        lattice = make_lattice(101)
        state = gaussian_state(lattice, 0, 5.0, 2)
        texts = []
        for _ in range(2):
            series = run(state, EvolutionConfig(), 10, record_every=5)
            texts.append("".join(series.csv_blocks()))
        assert texts[0] == texts[1]

    def test_json_shape(self, tmp_path):
        series = TimeSeries(snapshots=(_snap(0), _snap(10)))
        obj = series.to_json_obj()
        assert obj["columns"][0] == "step"
        assert len(obj["rows"]) == 2


# value -> what the line ``csv_path = <value>`` reads as: the reader
# strips blanks and a ``#`` after a blank, and a line break leaves a
# second line without ``=`` (``None``)
UNREAD_VALUES = {"out #1.csv": "out", "#out.csv": "", " out.csv": "out.csv",
                 "out.csv\t": "out.csv", "a\nb": None}


class TestRunConfig:
    def test_round_trip(self):
        config = RunConfig(tau=0.005, shape="uniform", width=25.0, seed=7)
        assert parse_config_text(config_text(config)) == config

    def test_round_trip_all_defaults(self):
        assert parse_config_text(config_text(RunConfig())) == RunConfig()
        assert parse_config_text("") == RunConfig()

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config_text("banana = 3\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ValueError, match="bad value"):
            parse_config_text("tau = fast\n")

    def test_comments_and_blanks(self):
        config = parse_config_text("# comment\n\ntau = 0.002  # inline\n")
        assert config.tau == 0.002

    def test_hash_inside_a_value_reads_back(self):
        config = parse_config_text("csv_path = out#1.csv\ncheckpoint_dir = ck#\n")
        assert config == RunConfig(csv_path="out#1.csv", checkpoint_dir="ck#")
        assert parse_config_text("csv_path = a#b.csv # out\n").csv_path == "a#b.csv"

    @pytest.mark.parametrize("value", UNREAD_VALUES)
    def test_a_value_that_does_not_read_back(self, value):
        text = f"csv_path = {value}\n"
        if UNREAD_VALUES[value] is None:
            with pytest.raises(ValueError, match="^line 2: expected 'key = value'"):
                parse_config_text(text)
        else:
            assert parse_config_text(text).csv_path == UNREAD_VALUES[value]

    def test_file_read_with_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n_steps = 50\n")
        config = read_config(str(path))
        assert config.n_steps == 50

    def test_even_requires_parity_mode(self):
        with pytest.raises(ValueError, match="even_naive"):
            RunConfig(n_sites=800).lattice()
        lattice = RunConfig(n_sites=800, parity_mode="even_naive").lattice()
        assert lattice.parity == "even"

    def test_odd_rejected_in_even_mode(self):
        with pytest.raises(ValueError):
            RunConfig(n_sites=801, parity_mode="even_naive").lattice()

    def test_float_fields_round_trip_exactly(self):
        parsed = parse_config_text(
            "tau = 1.0000000000000002e-3\nlattice_constant = -0.0\nwidth = inf\n")
        assert parsed.tau == 1.0000000000000002e-3 != 1e-3
        assert math.copysign(1.0, parsed.lattice_constant) == -1.0 and parsed.lattice_constant == 0.0
        assert parsed.width == math.inf
