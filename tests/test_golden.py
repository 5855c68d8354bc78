"""The text reports of ``verify``, ``paper-table`` and ``even-odd``, the
``run`` and ``compare`` CSV files and the odd and even checkpoints are
byte-stable: they match the committed fixtures in ``tests/data``."""

from pathlib import Path

import pytest

from ringfield import TimeSeries, read_state_csv, read_timeseries_csv
from ringfield.cli import main
from ringfield.state import state_to_csv_text

DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.filterwarnings("ignore:tau \\* g\\^2 \\* N\\^2")
@pytest.mark.parametrize("argv, fixture", [
    (["paper-table"], "paper_table.txt"),
    (["even-odd"], "even_odd.txt"),
    (["verify"], "verify.txt"),
    (["verify", "--max-n", "21"], "verify_max_n_21.txt"),
])
def test_stdout_matches_fixture(argv, fixture, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == (DATA / fixture).read_text()


# the numeric CSV files, written by one writer whether to a file or to stdout
CSV_SMALL = ["--n-sites", "101", "--width", "5", "--velocity-index", "3",
             "--n-steps", "20", "--record-every", "5"]


@pytest.mark.parametrize("command, fixture", [
    ("run", "run_n101.csv"),
    ("compare", "compare_n101.csv"),
])
def test_csv_file_and_stdout_match_fixture(command, fixture, tmp_path, capsys):
    out = tmp_path / fixture
    assert main([command, *CSV_SMALL, "--csv", str(out)]) == 0
    assert main([command, *CSV_SMALL]) == 0
    expected = (DATA / fixture).read_text()
    assert out.read_text() == expected
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("parity, fixture", [
    (["--n-sites", "21"], "state_odd_n21.csv"),
    (["--parity-mode", "even_naive", "--n-sites", "20"], "state_even_n20.csv"),
], ids=["odd", "even"])
def test_checkpoint_matches_fixture_and_reads_back(parity, fixture, tmp_path):
    assert main(["run", *parity, "--width", "2", "--velocity-index", "2", "--n-steps", "10",
                 "--record-every", "10", "--checkpoint-every", "10",
                 "--checkpoint-dir", str(tmp_path)]) == 0
    expected = (DATA / fixture).read_text()
    assert (tmp_path / "state_000010.csv").read_text() == expected
    assert state_to_csv_text(read_state_csv(str(DATA / fixture))) == expected


def test_series_fixture_reads_back_to_its_text():
    snapshots = read_timeseries_csv(str(DATA / "run_n101.csv"))
    assert TimeSeries(tuple(snapshots)).to_csv_text() == (DATA / "run_n101.csv").read_text()
