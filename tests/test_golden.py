"""The text and JSON reports of ``verify``, ``paper-table`` and
``even-odd``, the ``run`` and ``compare`` CSV files and the odd and even
checkpoints are byte-stable: they match the committed fixtures in
``tests/data``, or, for the large files of the N = 4001 run, their
committed sha256."""

import hashlib
from pathlib import Path

import pytest

from ringfield import TimeSeries, read_state_csv, read_timeseries_csv
from ringfield.cli import main
from ringfield.state import _state_csv_blocks

DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.filterwarnings("ignore:tau \\* g\\^2 \\* N\\^2")
@pytest.mark.parametrize("argv, fixture", [
    (["paper-table"], "paper_table.txt"),
    (["even-odd"], "even_odd.txt"),
    (["verify"], "verify.txt"),
    (["verify", "--max-n", "21"], "verify_max_n_21.txt"),
    # tau g^2 N^2 = 0.395 over 1000 steps carries a one-ulp change of either
    # part of the Euler multiplier into printed digits
    (["run", "--shape", "random", "--tau", "0.01", "--n-steps", "1000", "--record-every", "100"],
     "run_random_tau_0.01.csv"),
])
def test_stdout_matches_fixture(argv, fixture, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == (DATA / fixture).read_text()


@pytest.mark.parametrize("command", ["paper-table", "even-odd"])
def test_json_report_matches_fixture(command, tmp_path):
    out = tmp_path / "report.json"
    assert main([command, "--json", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"{command.replace('-', '_')}.json").read_bytes()


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
    assert "".join(_state_csv_blocks(read_state_csv(str(DATA / fixture)))) == expected


def test_series_fixture_reads_back_to_its_text():
    snapshots = read_timeseries_csv(str(DATA / "run_n101.csv"))
    text = "".join(TimeSeries(tuple(snapshots)).csv_blocks())
    assert text == (DATA / "run_n101.csv").read_text()


# the argv of the benchmark's wide run (N = 4001, 21 records, 5 checkpoints),
# under both schemes and on its even twin; wide_dense.sha256 holds the
# sha256 of every file each one writes, in ``sha256sum -c`` form, by path
# relative to the directory the files are written to
WIDE = ["--n-sites", "4001", "--width", "50", "--center", "123", "--velocity-index", "17",
        "--n-steps", "100", "--record-every", "5", "--checkpoint-every", "25"]
WIDE_TWINS = {
    "euler": ["--scheme", "euler"],
    "exact": ["--scheme", "exact"],
    "even-euler": ["--scheme", "euler", "--parity-mode", "even_naive", "--n-sites", "4000"],
    "even-exact": ["--scheme", "exact", "--parity-mode", "even_naive", "--n-sites", "4000"],
}


def _manifest(name: str) -> dict[str, str]:
    lines = (DATA / name).read_text().splitlines()
    return {path: digest for digest, path in (line.split("  ", 1) for line in lines)}


@pytest.mark.parametrize("twin", WIDE_TWINS)
def test_wide_run_outputs_match_manifest(twin, tmp_path):
    out = tmp_path / twin
    out.mkdir()
    assert main(["run", *WIDE, *WIDE_TWINS[twin], "--csv", str(out / "series.csv"),
                 "--json", str(out / "series.json"), "--checkpoint-dir", str(out)]) == 0
    written = {f"{twin}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
               for path in out.iterdir()}
    expected = {path: digest for path, digest in _manifest("wide_dense.sha256").items()
                if path.startswith(f"{twin}/")}
    assert len(expected) == 7
    assert written == expected
