"""The byte-pinned calls of the CLI and their fixtures in ``tests/data``.

The tables of this module are the one list of these calls.  The tests
run each call in process and compare what it prints or writes with its
fixture: the stdout of ``verify``, ``paper-table``, ``even-odd``, ``run``
and ``compare`` (with their exit code and stderr), the two JSON reports,
the ``run`` and ``compare`` CSV files, the odd and even checkpoints, and,
for the large files of the N = 4001 run, the sha256 of each.
``tests/regenerate_goldens.py`` rewrites every fixture from the same
tables, each call in a fresh ``python -m ringfield.cli`` process."""

import hashlib
from pathlib import Path

import pytest

from ringfield import TimeSeries, read_state_csv, read_timeseries_csv
from ringfield.cli import main
from ringfield.state import _state_csv_blocks

DATA = Path(__file__).resolve().parent / "data"

TAU_WARNING = "warning: tau * g^2 * N^2 = {} > 0.1; conservation will degrade visibly\n"

# argv, the fixture of its stdout, its exit code and its stderr; new
# entries go at the end, so that no test id moves
STDOUT = [
    (["paper-table"], "paper_table.txt", 0,
     TAU_WARNING.format("0.197") + TAU_WARNING.format("0.395")),
    (["even-odd"], "even_odd.txt", 0, ""),
    (["verify"], "verify.txt", 0, ""),
    (["verify", "--max-n", "21"], "verify_max_n_21.txt", 0, ""),
    # tau g^2 N^2 = 0.395 over 1000 steps carries a one-ulp change of either
    # part of the Euler multiplier into printed digits
    (["run", "--shape", "random", "--tau", "0.01", "--n-steps", "1000", "--record-every", "100"],
     "run_random_tau_0.01.csv", 0, TAU_WARNING.format("0.395")),
    # the default run, and one change of each of its parts
    (["run"], "run.csv", 0, ""),
    (["run", "--scheme", "exact"], "run_exact.csv", 0, ""),
    (["run", "--shape", "uniform"], "run_uniform.csv", 0, ""),
    (["run", "--shape", "random", "--seed", "3"], "run_random_seed_3.csv", 0, ""),
    (["run", "--width", "300"], "run_width_300.csv", 0, ""),
    (["run", "--parity-mode", "even_naive", "--n-sites", "800"], "run_even_n800.csv", 0, ""),
    (["run", "--n-steps", "0"], "run_n_steps_0.csv", 0, ""),
    (["compare"], "compare.csv", 0, ""),
    (["compare", "--n-steps", "0"], "compare_n_steps_0.csv", 0, ""),
    # the self-test of the kernel check fails it, and verify says so last
    (["verify", "--inject-kernel-error", "1e-6"], "verify_inject_1e-6.txt", 1, ""),
]


@pytest.mark.parametrize("argv, fixture, code, err", STDOUT,
                         ids=[f"argv{i}-{entry[1]}" for i, entry in enumerate(STDOUT)])
def test_stdout_matches_fixture(argv, fixture, code, err, capsys):
    assert main(argv) == code
    assert capsys.readouterr() == ((DATA / fixture).read_text(), err)


@pytest.mark.parametrize("fixture", ["run.csv", "compare.csv", "run_even_n800.csv"])
def test_zero_steps_print_the_first_row_of_the_run(fixture, capsys):
    (argv,) = [argv for argv, name, *_ in STDOUT if name == fixture]
    assert main([*argv, "--n-steps", "0"]) == 0
    assert capsys.readouterr().out.splitlines() == (DATA / fixture).read_text().splitlines()[:2]


JSON_REPORTS = {"paper-table": "paper_table.json", "even-odd": "even_odd.json"}


def json_argv(command: str, path: Path) -> list[str]:
    return [command, "--json", str(path)]


@pytest.mark.parametrize("command", JSON_REPORTS)
def test_json_report_matches_fixture(command, tmp_path):
    out = tmp_path / "report.json"
    assert main(json_argv(command, out)) == 0
    assert out.read_bytes() == (DATA / JSON_REPORTS[command]).read_bytes()


# the numeric CSV files, written by one writer whether to a file or to stdout
CSV_SMALL = ["--n-sites", "101", "--width", "5", "--velocity-index", "3",
             "--n-steps", "20", "--record-every", "5"]
CSV_FILES = [
    ("run", "run_n101.csv"),
    ("compare", "compare_n101.csv"),
]


@pytest.mark.parametrize("command, fixture", CSV_FILES)
def test_csv_file_and_stdout_match_fixture(command, fixture, tmp_path, capsys):
    out = tmp_path / fixture
    assert main([command, *CSV_SMALL, "--csv", str(out)]) == 0
    assert main([command, *CSV_SMALL]) == 0
    expected = (DATA / fixture).read_text()
    assert out.read_text() == expected
    assert capsys.readouterr().out == expected


# the lattice of a short run, and the fixture of its checkpoint at step 10
CHECKPOINTS = [
    (["--n-sites", "21"], "state_odd_n21.csv"),
    (["--parity-mode", "even_naive", "--n-sites", "20"], "state_even_n20.csv"),
]
CHECKPOINT_FILE = "state_000010.csv"


def checkpoint_argv(lattice: list[str], directory: Path) -> list[str]:
    return ["run", *lattice, "--width", "2", "--velocity-index", "2", "--n-steps", "10",
            "--record-every", "10", "--checkpoint-every", "10", "--checkpoint-dir", str(directory)]


@pytest.mark.parametrize("lattice, fixture", CHECKPOINTS, ids=["odd", "even"])
def test_checkpoint_matches_fixture_and_reads_back(lattice, fixture, tmp_path):
    assert main(checkpoint_argv(lattice, tmp_path)) == 0
    expected = (DATA / fixture).read_text()
    assert (tmp_path / CHECKPOINT_FILE).read_text() == expected
    assert "".join(_state_csv_blocks(read_state_csv(str(DATA / fixture)))) == expected


def test_series_fixture_reads_back_to_its_text():
    snapshots = read_timeseries_csv(str(DATA / "run_n101.csv"))
    text = "".join(TimeSeries(tuple(snapshots)).csv_blocks())
    assert text == (DATA / "run_n101.csv").read_text()


# the argv of the benchmark's wide run (N = 4001, 21 records, 5 checkpoints),
# under both schemes and on its even twin; WIDE_MANIFEST holds the sha256
# of every file each one writes, in ``sha256sum -c`` form, by path relative
# to the directory the files are written to, in sorted order
WIDE = ["--n-sites", "4001", "--width", "50", "--center", "123", "--velocity-index", "17",
        "--n-steps", "100", "--record-every", "5", "--checkpoint-every", "25"]
WIDE_TWINS = {
    "euler": ["--scheme", "euler"],
    "exact": ["--scheme", "exact"],
    "even-euler": ["--scheme", "euler", "--parity-mode", "even_naive", "--n-sites", "4000"],
    "even-exact": ["--scheme", "exact", "--parity-mode", "even_naive", "--n-sites", "4000"],
}
WIDE_MANIFEST = "wide_dense.sha256"


def wide_argv(twin: str, directory: Path) -> list[str]:
    return ["run", *WIDE, *WIDE_TWINS[twin], "--csv", str(directory / "series.csv"),
            "--json", str(directory / "series.json"), "--checkpoint-dir", str(directory)]


def digests(twin: str, directory: Path) -> dict[str, str]:
    """The sha256 of each file of ``twin``'s run in ``directory``, by its
    path in the manifest."""
    return {f"{twin}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
            for path in directory.iterdir()}


def _manifest() -> dict[str, str]:
    lines = (DATA / WIDE_MANIFEST).read_text().splitlines()
    return {path: digest for digest, path in (line.split("  ", 1) for line in lines)}


@pytest.mark.parametrize("twin", WIDE_TWINS)
def test_wide_run_outputs_match_manifest(twin, tmp_path):
    assert main(wide_argv(twin, tmp_path)) == 0
    expected = {path: digest for path, digest in _manifest().items()
                if path.startswith(f"{twin}/")}
    assert len(expected) == 7
    assert digests(twin, tmp_path) == expected


def test_each_fixture_is_made_by_one_entry():
    """No fixture is left that no entry reads, and no entry lacks one."""
    names = [*(entry[1] for entry in STDOUT), *JSON_REPORTS.values(),
             *(fixture for _, fixture in CSV_FILES), *(fixture for _, fixture in CHECKPOINTS),
             WIDE_MANIFEST]
    assert len(set(names)) == len(names)
    assert sorted(path.name for path in DATA.iterdir()) == sorted(names)
