"""Invalid input reaches its documented exit code with a one-line
message, and malformed checkpoints name the offending line."""

import errno
import os
import re
import resource
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ringfield.cli
from ringfield import (
    DegenerateStateError,
    EvolutionConfig,
    RunConfig,
    advance,
    gaussian_state,
    make_even_lattice,
    make_lattice,
    paper_table_grid,
    parse_config_text,
    random_state,
    read_state_csv,
    read_timeseries_csv,
    run,
    snapshot,
    state_from_amplitudes,
    uniform_state,
)
from ringfield.cli import main
from ringfield.evolve import MAX_RECORDS
from ringfield.experiments import even_odd_comparison
from ringfield.ioutil import atomic_write_text, check_writable
from ringfield.observables import snapshots
from ringfield.series import TIMESERIES_CSV_HEADER, TimeSeries
from ringfield.state import _state_csv_blocks

SRC = str(Path(__file__).resolve().parents[1] / "src")
DATA = Path(__file__).resolve().parent / "data"

SMALL = ["--n-sites", "101", "--width", "5"]

# argv -> exit code (0 success, 2 invalid configuration, 3 numerical guard)
EXIT_CODES = [
    (["run", *SMALL, "--n-steps", "2", "--record-every", "1"], 0),
    (["run", *SMALL, "--record-every", "0"], 2),
    (["run", *SMALL, "--n-steps", "-1"], 2),
    (["run", *SMALL, "--n-steps", "2", "--checkpoint-every", "-3"], 2),
    (["run", *SMALL, "--config", "no/such/run.cfg"], 2),
    (["run", *SMALL, "--n-steps", "1", "--lattice-constant", "1e-300"], 3),
    (["run", *SMALL, "--n-steps", "1", "--lattice-constant", "1e-300",
      "--scheme", "exact"], 2),
    (["run", *SMALL, "--lattice-constant", "inf"], 2),
    (["run", *SMALL, "--lattice-constant", "inf", "--parity-mode", "even_naive",
      "--n-sites", "100"], 2),
    (["run", "--n-sites", "101", "--shape", "uniform", "--width", "inf"], 2),
    (["run", "--n-sites", "101", "--shape", "uniform", "--width", "2.5"], 2),
    (["run", "--velocity-index", "100000000000000000000", "--n-steps", "0"], 2),
    (["run", "--velocity-index", "801020", "--n-steps", "0"], 2),
    (["run", *SMALL, "--velocity-index", "51", "--n-steps", "0"], 2),
    (["run", *SMALL, "--velocity-index", "-50", "--n-steps", "0"], 0),
    (["run", "--shape", "uniform", "--width", "5", "--parity-mode", "even_naive",
      "--n-sites", "100", "--velocity-index", "50", "--n-steps", "0"], 2),
    (["verify", "--max-n", "2"], 2),
    (["compare", *SMALL, "--record-every", "0"], 2),
    (["compare", *SMALL, "--n-steps", "1", "--lattice-constant", "1e-300"], 3),
    (["compare", *SMALL, "--lattice-constant", "inf"], 2),
    (["compare", "--n-sites", "101", "--shape", "uniform", "--width", "inf"], 2),
    (["compare", *SMALL, "--tau", "0"], 2),
    (["compare", *SMALL, "--velocity-index", "-51"], 2),
    (["compare", *SMALL, "--tau", "-1"], 2),
    (["compare", *SMALL, "--tau", "nan"], 2),
    (["run", *SMALL, "--shape", "random", "--seed", "-1"], 2),
    (["compare", *SMALL, "--shape", "random", "--seed", "-1"], 2),
    (["paper-table", "--steps", "-1"], 2),
    (["paper-table", "--seed", "-1"], 2),
    (["even-odd", "--tau", "0"], 2),
    (["even-odd", "--tau", "1e-300"], 2),
    (["even-odd", "--sigma", "0"], 2),
    (["even-odd", "--n-even", "801"], 2),
    (["even-odd", "--n-odd", "800"], 2),
    (["even-odd", "--steps", "-1"], 2),
    (["even-odd", "--tau", "1"], 3),
]


@pytest.mark.parametrize("argv, expected", EXIT_CODES, ids=[" ".join(a) for a, _ in EXIT_CODES])
def test_exit_code(argv, expected, capsys):
    # an exception escaping main() is what prints a traceback
    assert main(argv) == expected
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == (0 if expected == 0 else 1)


@pytest.mark.parametrize("command", ["run", "compare"])
def test_infinite_lattice_constant_is_named(command, capsys):
    assert main([command, *SMALL, "--lattice-constant", "inf"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: lattice_constant must be positive and finite")


def test_config_file_values_are_validated(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_sites = 101\nwidth = 5.0\nrecord_every = 0\n")
    assert main(["run", "--config", str(cfg)]) == 2
    assert "record_every" in capsys.readouterr().err


def test_compare_validates_the_config_scheme(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scheme = bogus\n")
    assert main(["compare", *SMALL, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: scheme must be euler|exact (got 'bogus')\n"


def test_unknown_parity_mode_names_the_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_sites = 101\nwidth = 5.0\nparity_mode = even\n")
    assert main(["run", "--config", str(cfg)]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "parity_mode" in errors[0]


def test_config_line_without_equals_names_the_line(tmp_path, capsys):
    message = "line 1: expected 'key = value', got 'n_sites 5'"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_config_text("n_sites 5\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_sites 5\n")
    assert main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_retired_config_key_names_the_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_sites = 101\neuler_method = reference\n")
    assert main(["run", "--config", str(cfg)]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "euler_method" in errors[0]


# flags that select behaviour the subcommand does not have
UNKNOWN_FLAGS = [
    ["run", *SMALL, "--euler-method", "reference"],
    ["compare", *SMALL, "--scheme", "exact"],
    ["compare", *SMALL, "--parity-mode", "even_naive"],
]


@pytest.mark.parametrize("argv", UNKNOWN_FLAGS, ids=[" ".join(a) for a in UNKNOWN_FLAGS])
def test_unknown_flag_is_an_argparse_error(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


USAGE_ERRORS = {
    "bad choice": ["run", "--shape", "blob"],
    "bad int": ["run", "--n-steps", "1.5"],
    "unknown flag": ["compare", "--scheme", "exact"],
    "missing subcommand": [],
    "retired paper-table text file": ["paper-table", "--text", "x"],
}


@pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
def test_usage_error_prints_one_line(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


# each records MAX_RECORDS + 1 steps
RECORD_BOUND_ARGV = {
    "run": ["run", *SMALL, "--n-steps", str(MAX_RECORDS), "--record-every", "1"],
    "run checkpoints": ["run", *SMALL, "--n-steps", str(MAX_RECORDS),
                        "--record-every", str(MAX_RECORDS), "--checkpoint-every", "1"],
    "compare": ["compare", *SMALL, "--n-steps", str(MAX_RECORDS), "--record-every", "1"],
    "paper-table": ["paper-table", "--steps", str(10 * MAX_RECORDS)],
}


@pytest.mark.parametrize("argv", RECORD_BOUND_ARGV.values(), ids=RECORD_BOUND_ARGV)
def test_record_count_bound_exits_2_with_one_line(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert err[0].endswith(f"records, more than {MAX_RECORDS}")


@pytest.mark.parametrize("field, value", [
    ("n_steps", -1), ("record_every", 0), ("checkpoint_every", -3),
    ("n_steps", 2.5), ("record_every", 2.0), ("checkpoint_every", 0.5),
])
def test_run_config_rejects(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer >= .* [(]got {value}[)]"):
        RunConfig(**{field: value})


BOOL_COUNTS = {
    "advance": (lambda: advance(gaussian_state(make_lattice(21), 0, 2.0), "euler", 1e-3, True),
                "n_steps"),
    "RunConfig": (lambda: RunConfig(record_every=True), "record_every"),
    "even_odd_comparison": (lambda: even_odd_comparison(n_steps=True), "n_steps"),
    "snapshot": (lambda: snapshot(gaussian_state(make_lattice(21), 0, 2.0), True), "step"),
}


@pytest.mark.parametrize("name", BOOL_COUNTS)
def test_a_bool_is_not_a_count(name):
    """``True`` is an ``int`` to Python, but no count: it fails the
    count check with the one-line message, not a step or a traceback."""
    call, field = BOOL_COUNTS[name]
    with pytest.raises(ValueError, match=f"^{field} must be an integer >= [01] [(]got True[)]$"):
        call()


@pytest.mark.parametrize("step", [2.5, "7", -1])
def test_snapshot_step_is_a_whole_number_at_least_0(step):
    """A step label is kept as given or refused, never truncated: one
    state's, and every label of a block's."""
    state = gaussian_state(make_lattice(21), 0, 2.0)
    message = f"^step must be an integer >= 0 [(]got {step!r}[)]$"
    with pytest.raises(ValueError, match=message):
        snapshot(state, step)
    with pytest.raises(ValueError, match=message):
        snapshots(state, [step])
    block = state_from_amplitudes(state.lattice, np.stack([state.c, state.c]))
    with pytest.raises(ValueError, match=message):
        snapshots(block, [0, step])


BAD_SEEDS = {
    "random_state": (lambda: random_state(make_lattice(21), 1.5),
                     "seed must be an integer (got 1.5)"),
    "paper_table_grid": (lambda: paper_table_grid(10, seed=1.5),
                         "seed must be an integer (got 1.5)"),
    "paper_table_grid, bool": (lambda: paper_table_grid(10, seed=True),
                               "seed must be an integer (got True)"),
    "RunConfig": (lambda: RunConfig(seed=2.5), "seed must be an integer (got 2.5)"),
}


@pytest.mark.parametrize("name", BAD_SEEDS)
def test_a_seed_is_a_whole_number_at_least_0(name):
    """Every seed passes one check before any work: a fraction or a
    bool is no seed, and numpy never sees a negative one."""
    call, message = BAD_SEEDS[name]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_a_numpy_integer_is_a_seed():
    lattice = make_lattice(21)
    assert random_state(lattice, np.int64(3)).c.tobytes() == random_state(lattice, 3).c.tobytes()


def test_checkpoint_sites_out_of_label_order_name_path(tmp_path):
    path = tmp_path / "state.csv"
    path.write_text("site,a,b\n0,0.5,0.0\n-1,0.5,0.0\n1,0.0,0.0\n")
    message = f"{path}: site column is not the canonical label order"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_state_csv(str(path))


@pytest.mark.parametrize("measure", [
    lambda state: snapshot(state, 0),
    lambda state: run(state, EvolutionConfig(), 2, 1),
], ids=["snapshot", "run"])
def test_a_state_without_weight_has_no_position_moments(measure):
    lattice = make_lattice(21)
    empty = state_from_amplitudes(lattice, np.zeros(lattice.n_sites, dtype=complex))
    with pytest.raises(DegenerateStateError, match=r"^position moments need a state with M > 0$"):
        measure(empty)


@pytest.mark.parametrize("text, lattice_constant", [
    ("site,a,b\n0,1.0,0.0\n", 1.0),
    ("site,a,b\n-1,1.0,0.0\n0,0.0,0.0\n", 1.0),
    ("site,a,b\n-1,0.5,0.0\n0,0.5,0.0\n1,0.0,0.0\n", 0.0),
], ids=["one row", "two rows", "zero lattice constant"])
def test_checkpoint_lattice_error_names_path(tmp_path, text, lattice_constant):
    path = tmp_path / "state.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=r"^.*state\.csv: (n_sites|even-mode|lattice_constant)"):
        read_state_csv(str(path), lattice_constant=lattice_constant)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", ["a", "b"])
def test_non_finite_checkpoint_value_names_path(tmp_path, column, value):
    path = tmp_path / "state.csv"
    row = f"0,{value},0.0" if column == "a" else f"0,0.5,{value}"
    path.write_text(f"site,a,b\n-1,0.5,0.0\n{row}\n1,0.5,0.0\n")
    with pytest.raises(ValueError, match=r"state\.csv: field values must be finite$"):
        read_state_csv(str(path))


@pytest.mark.parametrize("lattice", [make_lattice(101), make_even_lattice(100)],
                         ids=["odd", "even"])
@pytest.mark.parametrize("build", [
    lambda lattice, m: gaussian_state(lattice, 0, 5.0, m),
    lambda lattice, m: uniform_state(lattice, 0, 5, m),
], ids=["gaussian", "uniform"])
def test_velocity_index_must_be_a_site_label(lattice, build):
    """m and m + N give the same state in exact arithmetic, so only the
    representatives of m mod N, the site labels, are accepted."""
    for m in (lattice.site_min, lattice.site_max):
        build(lattice, m)
    for m in (lattice.site_min - 1, lattice.site_max + 1, 20 + 1000 * lattice.n_sites, 10**20):
        with pytest.raises(ValueError, match=f"^velocity_index {m} outside site range"):
            build(lattice, m)


@pytest.mark.parametrize("row", ["10,1.0,0.0", "10,1.0,0.0,0.0,0.0,1.0,0.0,9"])
def test_bad_series_row_names_path_and_line(tmp_path, row):
    path = tmp_path / "series.csv"
    path.write_text(f"{TIMESERIES_CSV_HEADER}\n0,1.0,0.0,0.0,0.0,1.0,0.0\n\n{row}\n")
    expected = re.escape(f"series.csv: line 4: expected {TIMESERIES_CSV_HEADER}, got {row!r}")
    with pytest.raises(ValueError, match=expected):
        read_timeseries_csv(str(path))


@pytest.mark.parametrize("row", ["1.5,1.0,0.0,0.0,0.0,1.0,0.0"])
def test_bad_series_value_names_path_and_line(tmp_path, row):
    path = tmp_path / "series.csv"
    path.write_text(f"{TIMESERIES_CSV_HEADER}\n0,1.0,0.0,0.0,0.0,1.0,0.0\n{row}\n")
    with pytest.raises(ValueError, match=r"series\.csv: line 3: "):
        read_timeseries_csv(str(path))


# both numeric CSV readers share one format:
# (reader, its inverse writer, header, three good rows)
CSV_FORMATS = {
    "state": (read_state_csv, lambda state: "".join(_state_csv_blocks(state)), "site,a,b",
              ["-1,0.6,0.0", "0,0.0,0.8", "1,0.0,0.0"]),
    "series": (read_timeseries_csv, lambda rows: "".join(TimeSeries(tuple(rows)).csv_blocks()),
               TIMESERIES_CSV_HEADER,
               ["0,1.0,0.0,0.0,0.0,1.0,0.0", "5,1.0,0.1,0.05,0.0,1.0,0.0",
                "10,1.0,0.2,0.1,0.0,1.0,0.0"]),
}
# case -> (file text from header and rows, the message it must raise)
MALFORMED_CSV = {
    "wrong field count": (
        lambda header, rows: f"{header}\n{rows[0]}\n\n{rows[1]},7\n{rows[2]}\n",
        lambda header, rows: f"line 4: expected {header}, got {rows[1] + ',7'!r}"),
    "too few fields": (
        lambda header, rows: f"{header}\n{rows[0]}\n\n0,1.0\n{rows[2]}\n",
        lambda header, rows: f"line 4: expected {header}, got '0,1.0'"),
    "value that does not parse": (
        lambda header, rows: f"{header}\n{rows[0]}\n{rows[1][:-3]}one\n{rows[2]}\n",
        lambda header, rows: "line 3: could not convert string to float: 'one'"),
    "first value that does not parse": (
        lambda header, rows: f"{header}\n{rows[0]}\n{rows[1].split(',')[0]},one,"
                             f"{rows[1].split(',', 2)[2]}\n{rows[2]}\n",
        lambda header, rows: "line 3: could not convert string to float: 'one'"),
    "label that is not an integer": (
        lambda header, rows: f"{header}\n{rows[0]}\n0.0{rows[1][rows[1].index(','):]}\n",
        lambda header, rows: "line 3: invalid literal for int() with base 10: '0.0'"),
    "fractional label": (
        lambda header, rows: f"{header}\n{rows[0]}\n1.5{rows[1][rows[1].index(','):]}\n",
        lambda header, rows: "line 3: invalid literal for int() with base 10: '1.5'"),
    "digit separator in a label": (
        lambda header, rows: f"{header}\n{rows[0]}\n1_0{rows[1][rows[1].index(','):]}\n",
        lambda header, rows: "line 3: cannot parse '1_0'"),
    "digit separator in a value": (
        lambda header, rows: f"{header}\n{rows[0]}\n{rows[1].split(',')[0]},1_0,"
                             f"{rows[1].split(',', 2)[2]}\n",
        lambda header, rows: "line 3: cannot parse '1_0'"),
    "label outside the int64 range": (
        lambda header, rows: f"{header}\n99999999999999999999{rows[0][rows[0].index(','):]}\n",
        lambda header, rows: "line 2: label 99999999999999999999 is outside the int64 range"),
    "no rows": (
        lambda header, rows: f"\n{header}\n\n   \n",
        lambda header, rows: f"no {header} rows"),
    "header only": (
        lambda header, rows: f"{header}\n",
        lambda header, rows: f"no {header} rows"),
    "wrong header": (
        lambda header, rows: header.replace(",", ";", 1) + "\n" + "\n".join(rows) + "\n",
        lambda header, rows: f"expected header {header!r}"),
    "x,y header": (
        lambda header, rows: "x,y\n1,2\n",
        lambda header, rows: f"expected header {header!r}"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", MALFORMED_CSV)
@pytest.mark.parametrize("form", CSV_FORMATS)
def test_malformed_csv_names_path_and_line(tmp_path, form, case):
    """Both readers refuse the same malformed files with the same
    message, which names the file and the first bad line."""
    reader, _writer, header, rows = CSV_FORMATS[form]
    text, message = MALFORMED_CSV[case]
    path = tmp_path / "bad.csv"
    path.write_text(text(header, rows))
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message(header, rows)}')}$"):
        reader(str(path))


@pytest.mark.parametrize("form", CSV_FORMATS)
def test_csv_blank_and_whitespace_lines_are_skipped(tmp_path, form):
    reader, writer, header, rows = CSV_FORMATS[form]
    path = tmp_path / "spaced.csv"
    path.write_text(f"\n{header}\n{rows[0]}\n   \n{rows[1]}\n\t\n\n{rows[2]}\n\n")
    assert writer(reader(str(path))) == "\n".join([header, *rows]) + "\n"


def _cli(argv, preexec_fn=None, **streams):
    """``ringfield`` in a fresh interpreter, ``preexec_fn`` run in the child."""
    env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-m", "ringfield.cli", *argv], text=True, env=env,
                          preexec_fn=preexec_fn, **streams)


def test_exact_scheme_overflow_prints_one_line():
    # a fresh interpreter, so numpy warnings reach stderr as a user sees them
    argv = ["run", *SMALL, "--n-steps", "1", "--lattice-constant", "1e-300",
            "--scheme", "exact"]
    proc = _cli(argv, capture_output=True)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr


@pytest.mark.parametrize("argv, code", [
    (["run", "--n-sites", "21", "--velocity-index", "1", "--width", "1e-160"], 0),
    (["run", "--n-sites", "21", "--velocity-index", "1", "--width", "1e-170"], 0),
    # a one-site packet wraps at once: the wrapped-packet gate fails
    (["even-odd", "--sigma", "1e-300"], 1),
], ids=["overflowing quotient", "vanishing 4 sigma^2", "even-odd"])
def test_vanishing_gaussian_width_runs_without_warnings(argv, code):
    # a fresh interpreter, so numpy warnings reach stderr as a user sees them
    proc = _cli(argv, capture_output=True)
    assert proc.returncode == code
    assert proc.stderr == ""


# the argv of a command whose stdout closes before it writes -> its exit code
CLOSED_STDOUT = {
    "run": (["run", "--n-sites", "21", "--width", "2", "--velocity-index", "1",
             "--n-steps", "2000", "--record-every", "1"], 0),
    "compare": (["compare", "--n-sites", "21", "--width", "2", "--velocity-index", "1",
                 "--n-steps", "2000", "--record-every", "1"], 0),
    # a small text, which meets the closed pipe only when ``main`` flushes it
    "verify": (["verify", "--max-n", "21", "--inject-kernel-error", "1e-6"], 1),
}


@pytest.mark.parametrize("command", CLOSED_STDOUT)
def test_closed_stdout_exits_quietly_with_the_verdict(command):
    """A reader that has gone (``| head``) is not a bad configuration:
    no ``error:`` line, no traceback, and the command's own exit code."""
    argv, code = CLOSED_STDOUT[command]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _cli(argv, stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (code, "")


def test_closed_pipe_at_a_csv_path_exits_2(monkeypatch, tmp_path, capsys):
    """A ``--csv`` path whose reader has gone (a FIFO) is an output error."""
    path = str(tmp_path / "series.csv")

    def closed(series, target):
        raise OSError(errno.EPIPE, os.strerror(errno.EPIPE), target)

    monkeypatch.setattr(TimeSeries, "write_csv", closed)
    assert main(["run", *SMALL, "--n-steps", "2", "--csv", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}: {path!r}\n"


def _close_stderr():
    os.close(2)


def _read_only_stderr():
    # descriptor 2 open, but on a file that refuses every write (EBADF)
    os.dup2(os.open(os.devnull, os.O_RDONLY), 2)


# argv -> exit code and stdout of commands that write stderr: two
# tau-bound warnings, a warning and then a guard error, a usage error
STDERR_WRITERS = {
    "paper-table": (["paper-table"], 0, (DATA / "paper_table.txt").read_text()),
    "guard": (["run", *SMALL, "--tau", "0.03", "--n-steps", "10"], 3, ""),
    "usage": (["run", "--shape", "blob"], 2, ""),
}


@pytest.mark.parametrize("fault", [_close_stderr, _read_only_stderr], ids=["closed", "read-only"])
@pytest.mark.parametrize("command", STDERR_WRITERS)
def test_failing_stderr_keeps_the_exit_code_and_stdout(command, fault):
    """A stderr that is closed or refuses its lines drops them: the
    command exits with its own code and writes the stdout it writes
    with stderr open."""
    argv, code, out = STDERR_WRITERS[command]
    proc = _cli(argv, fault, stdout=subprocess.PIPE)
    assert (proc.returncode, proc.stdout) == (code, out)


@pytest.mark.parametrize("command", CLOSED_STDOUT)
def test_closed_stdout_descriptor_exits_quietly_with_the_verdict(command):
    """A command started with descriptor 1 closed has no stdout: its
    output ends before it starts, without a word on stderr."""
    argv, code = CLOSED_STDOUT[command]
    proc = _cli(argv, lambda: os.close(1), stderr=subprocess.PIPE)
    assert (proc.returncode, proc.stderr) == (code, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_exits_2_with_one_line():
    """A stdout that refuses its text (a full disk) is an output error,
    as an unwritable ``--csv`` path is."""
    with open("/dev/full", "w") as full:
        proc = _cli(["run", *SMALL, "--n-steps", "10"], stdout=full, stderr=subprocess.PIPE)
    message = f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: '<stdout>'\n"
    assert (proc.returncode, proc.stderr) == (2, message)


def test_refused_allocation_exits_2_with_one_line():
    """An array the address-space limit refuses is a configuration too
    large for the machine.  Its first array, 763 MiB of sites, is past
    the 512 MiB limit alone, so the command touches little memory."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (512 * 2**20, 512 * 2**20))

    proc = _cli(["run", "--n-sites", "100000001", "--n-steps", "0"], limit,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert re.fullmatch(r"error: Unable to allocate 763\. MiB [^\n]*\n", proc.stderr), proc.stderr


def _assert_negative_seed_is_named(argv):
    # a fresh interpreter, so warnings of any work done would reach stderr
    proc = _cli(argv, capture_output=True)
    assert proc.returncode == 2
    assert proc.stderr == "error: seed must be >= 0 (got -1)\n"
    assert proc.stdout == ""


def test_negative_seed_prints_one_line():
    _assert_negative_seed_is_named(["paper-table", "--seed", "-1"])


@pytest.mark.parametrize("command", ["run", "compare"])
def test_negative_random_seed_prints_one_line(command):
    _assert_negative_seed_is_named([command, *SMALL, "--shape", "random", "--seed", "-1"])


@pytest.mark.parametrize("command", ["run", "compare"])
def test_negative_seed_of_a_gaussian_prints_one_line(command):
    # the default shape never reads the seed, and still rejects a negative one
    _assert_negative_seed_is_named([command, *SMALL, "--seed", "-1"])


def test_negative_seed_in_a_config_file_prints_one_line(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = -1\n")
    _assert_negative_seed_is_named(["run", "--config", str(cfg)])


def test_compare_on_an_even_lattice_prints_one_line(tmp_path, capsys):
    cfg = tmp_path / "even.cfg"
    cfg.write_text("parity_mode = even_naive\nn_sites = 100\n")
    assert main(["compare", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: the closed forms take an odd lattice\n"
    assert captured.out == ""


@pytest.mark.parametrize("tau", ["0", "-1", "nan"])
def test_compare_checks_tau_before_any_work(monkeypatch, capsys, tau):
    def forbidden(*args, **kwargs):
        raise AssertionError("compare built a state before checking tau")

    monkeypatch.setattr(ringfield.cli, "build_state", forbidden)
    assert main(["compare", *SMALL, "--tau", tau]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: tau must be positive (got {float(tau)})\n"
    assert captured.out == ""


UNWRITABLE = [
    ["paper-table", "--json", "{missing}"],
    ["paper-table", "--json", "{directory}"],
    ["even-odd", "--json", "{missing}"],
    ["run", "--csv", "{missing}"],
    ["run", "--json", "{missing}"],
    ["compare", "--csv", "{missing}"],
]


@pytest.mark.parametrize("argv", UNWRITABLE, ids=[" ".join(a) for a in UNWRITABLE])
def test_unwritable_output_fails_before_any_work(monkeypatch, tmp_path, capsys, argv):
    def forbidden(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(ringfield.cli, "paper_table_grid", forbidden)
    monkeypatch.setattr(ringfield.cli, "even_odd_comparison", forbidden)
    monkeypatch.setattr(ringfield.cli, "run", forbidden)
    monkeypatch.setattr(ringfield.cli, "compare_rows", forbidden)
    paths = {"missing": str(tmp_path / "no" / "out.json"), "directory": str(tmp_path)}
    argv = [arg.format(**paths) for arg in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert repr(argv[-1]) in lines[0]
    assert list(tmp_path.iterdir()) == []


def test_bad_checkpoint_dir_fails_before_any_work(monkeypatch, tmp_path, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(ringfield.cli, "run", forbidden)
    plain_file = tmp_path / "afile"
    plain_file.write_text("")
    checkpoint_dir = str(plain_file / "ck")
    out = tmp_path / "out.csv"
    argv = ["run", *SMALL, "--n-steps", "20", "--checkpoint-every", "10",
            "--checkpoint-dir", checkpoint_dir, "--csv", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert repr(checkpoint_dir) in lines[0]
    assert not out.exists()


# a run that fails validation or a guard leaves no checkpoint directory
FAILED_CHECKPOINT_RUNS = [
    (["run", "--n-sites", "4", "--checkpoint-every", "5", "--checkpoint-dir", "ck"], 2),
    (["run", *SMALL, "--tau", "-1", "--checkpoint-every", "5", "--checkpoint-dir", "ck"], 2),
    (["run", *SMALL, "--tau", "1", "--checkpoint-every", "5", "--checkpoint-dir", "ck"], 3),
]


@pytest.mark.parametrize("argv, expected", FAILED_CHECKPOINT_RUNS,
                         ids=[" ".join(a) for a, _ in FAILED_CHECKPOINT_RUNS])
def test_failed_run_leaves_no_checkpoint_dir(monkeypatch, tmp_path, capsys, argv, expected):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == expected
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_checkpoint_dir_is_created_for_a_run_that_succeeds(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    argv = ["run", *SMALL, "--n-steps", "10", "--checkpoint-every", "5",
            "--checkpoint-dir", "new/ck", "--csv", "out.csv"]
    assert main(argv) == 0
    assert sorted(os.listdir(tmp_path / "new" / "ck")) == [
        "state_000000.csv", "state_000005.csv", "state_000010.csv"]


def test_atomic_write_error_names_the_given_path(tmp_path):
    missing = str(tmp_path / "no" / "out.txt")
    with pytest.raises(FileNotFoundError) as info:
        atomic_write_text(missing, "x\n")
    assert info.value.filename == missing and ".tmp-" not in str(info.value)
    # the rename fails: the temporary file is removed, the target named
    with pytest.raises(OSError) as info:
        atomic_write_text(str(tmp_path), "x\n")
    assert info.value.filename == str(tmp_path) and ".tmp-" not in str(info.value)
    assert list(tmp_path.iterdir()) == []


def test_new_output_file_gets_the_umask_mode(tmp_path):
    path = tmp_path / "out.txt"
    old = os.umask(0o022)
    try:
        atomic_write_text(str(path), "x\n")
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == 0o644


def test_overwritten_output_file_keeps_its_mode(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    path.chmod(0o640)
    atomic_write_text(str(path), "new\n")
    assert path.read_text() == "new\n"
    assert stat.S_IMODE(path.stat().st_mode) == 0o640


def test_symlinked_output_writes_the_file_it_names(tmp_path):
    real = tmp_path / "real.csv"
    real.write_text("old\n")
    link = tmp_path / "link.csv"
    link.symlink_to(real)
    check_writable(str(link))
    atomic_write_text(str(link), "new\n")
    assert link.is_symlink() and real.read_text() == "new\n"
    dangling = tmp_path / "dangling.csv"
    dangling.symlink_to(tmp_path / "target.csv")
    atomic_write_text(str(dangling), "x\n")
    assert dangling.is_symlink() and (tmp_path / "target.csv").read_text() == "x\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "dangling.csv", "link.csv", "real.csv", "target.csv"]


def test_run_csv_through_a_symlink_keeps_the_link(tmp_path):
    real = tmp_path / "series.csv"
    real.write_text("stale\n")
    link = tmp_path / "link.csv"
    link.symlink_to(real)
    assert main(["run", *SMALL, "--n-steps", "2", "--record-every", "1",
                 "--csv", str(link)]) == 0
    assert link.is_symlink()
    assert real.read_text().splitlines()[0] == TIMESERIES_CSV_HEADER


def test_fifo_output_is_written_in_place(tmp_path):
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        check_writable(str(fifo))
        atomic_write_text(str(fifo), "step\n1\n")
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert os.read(reader, 100) == b"step\n1\n"
    finally:
        os.close(reader)
    assert [p.name for p in tmp_path.iterdir()] == ["out.fifo"]
