import json
import sys
import warnings

import pytest

import ringfield.experiments
import ringfield.cli
from ringfield import norm_m, read_state_csv, read_timeseries_csv
from ringfield.cli import build_parser, main
from ringfield.ioutil import _FIELD_BYTES
from ringfield.observables import RECORD_BLOCK_BYTES
from ringfield.series import TIMESERIES_CSV_HEADER


class TestRunCommand:
    def test_small_run_writes_csv(self, tmp_path):
        out = tmp_path / "series.csv"
        code = main([
            "run", "--n-sites", "101", "--width", "5", "--n-steps", "20",
            "--record-every", "10", "--csv", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == TIMESERIES_CSV_HEADER
        assert len(lines) == 4  # header + steps 0, 10, 20

    def test_default_run_row_count(self, tmp_path):
        out = tmp_path / "series.csv"
        code = main(["run", "--csv", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 102  # header + step 0 + every 10th of 1000

    def test_schemes_share_step_zero(self, tmp_path):
        a = tmp_path / "euler.csv"
        b = tmp_path / "exact.csv"
        common = ["--n-sites", "101", "--width", "5", "--shape", "random",
                  "--seed", "9", "--n-steps", "10", "--record-every", "5"]
        assert main(["run", *common, "--scheme", "euler", "--csv", str(a)]) == 0
        assert main(["run", *common, "--scheme", "exact", "--csv", str(b)]) == 0
        row_a = a.read_text().splitlines()[1]
        row_b = b.read_text().splitlines()[1]
        assert row_a == row_b

    def test_even_sites_need_parity_flag(self, capsys):
        assert main(["run", "--n-sites", "800"]) == 2
        assert "even" in capsys.readouterr().err

    def test_even_mode_runs(self, tmp_path):
        out = tmp_path / "even.csv"
        code = main([
            "run", "--n-sites", "100", "--parity-mode", "even_naive",
            "--width", "4", "--n-steps", "5", "--record-every", "5",
            "--csv", str(out),
        ])
        assert code == 0

    def test_guard_violation_exit_code(self, capsys):
        code = main(["run", "--n-sites", "101", "--width", "5", "--tau", "0.02",
                     "--n-steps", "1"])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: tau * g^2 * N^2 = 0.790 >= 0.5; the linearised step is meaningless"
            " at this size\n")

    def test_tau_warning_is_one_line(self, capsys):
        code = main(["run", "--n-sites", "101", "--width", "5", "--tau", "0.01",
                     "--n-steps", "10", "--record-every", "5"])
        assert code == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: tau * g^2 * N^2 = 0.395 > 0.1; conservation will degrade visibly"
        ]

    @pytest.mark.parametrize("argv, lines", [
        (["run", "--n-sites", "101", "--width", "5", "--tau", "0.01"], 1),
        (["paper-table", "--steps", "10"], 2),
    ], ids=["run", "paper-table"])
    def test_tau_warning_is_one_line_under_an_error_filter(self, argv, lines, capsys):
        """A filter that turns warnings into errors (``-W error``) changes
        neither the exit code nor the one ``warning:`` line per message."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == lines
        assert all(line.startswith("warning: tau * g^2 * N^2 = ") for line in err)

    def test_bad_shape_exit_code(self):
        assert main(["run", "--n-sites", "101", "--width", "900"]) == 2

    def test_stdout_when_no_path(self, capsys):
        code = main(["run", "--n-sites", "101", "--width", "5",
                     "--n-steps", "0", "--record-every", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith(TIMESERIES_CSV_HEADER)

    def test_stdout_is_written_a_block_of_rows_at_a_time(self, tmp_path, monkeypatch):
        """The series goes to stdout as ``--csv`` writes it, in blocks
        of rows, so the whole text is never one string."""
        argv = ["run", "--n-sites", "21", "--width", "2", "--velocity-index", "1",
                "--n-steps", "5000", "--record-every", "1"]
        out = tmp_path / "series.csv"
        assert main([*argv, "--csv", str(out)]) == 0
        chunks = []

        class Recorder:
            def write(self, text):
                chunks.append(text)

            def writelines(self, texts):
                chunks.extend(texts)

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", Recorder())
        assert main(argv) == 0
        assert "".join(chunks) == out.read_text()
        row_bytes = _FIELD_BYTES * len(TIMESERIES_CSV_HEADER.split(","))
        rows_per_block = RECORD_BLOCK_BYTES // row_bytes
        assert len(chunks) > 1
        assert max(chunk.count("\n") for chunk in chunks) < rows_per_block < 5001

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_sites = 101\nwidth = 5.0\nn_steps = 4\nrecord_every = 2\n")
        out = tmp_path / "series.csv"
        code = main(["run", "--config", str(cfg), "--n-steps", "2", "--csv", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3  # header + steps 0, 2

    def test_config_csv_path_keeps_its_hash(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"n_sites = 101\nn_steps = 2\ncsv_path = {tmp_path}/a#b.csv  # out\n")
        assert main(["run", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a#b.csv", "run.cfg"]

    def test_checkpoints_written(self, tmp_path):
        out = tmp_path / "series.csv"
        ckdir = tmp_path / "ck"
        code = main([
            "run", "--n-sites", "101", "--width", "5", "--n-steps", "10",
            "--record-every", "5", "--csv", str(out),
            "--checkpoint-every", "5", "--checkpoint-dir", str(ckdir),
        ])
        assert code == 0
        names = sorted(p.name for p in ckdir.iterdir())
        assert names == ["state_000000.csv", "state_000005.csv", "state_000010.csv"]

    @pytest.mark.parametrize("lattice, parity", [
        (["--n-sites", "101"], "odd"),
        (["--parity-mode", "even_naive", "--n-sites", "100"], "even"),
    ], ids=["odd", "even"])
    def test_checkpoints_read_back_to_their_rows(self, tmp_path, lattice, parity):
        """Checkpoints fall every 7 steps and on the last, apart from the
        records; each recorded one reads back to its row's M."""
        series, ckdir = tmp_path / "series.csv", tmp_path / "ck"
        assert main(["run", *lattice, "--width", "5", "--n-steps", "20", "--record-every", "5",
                     "--checkpoint-every", "7", "--checkpoint-dir", str(ckdir),
                     "--csv", str(series)]) == 0
        assert sorted(p.name for p in ckdir.iterdir()) == [
            "state_000000.csv", "state_000007.csv", "state_000014.csv", "state_000020.csv"]
        rows = {row.step: row for row in read_timeseries_csv(str(series))}
        assert list(rows) == [0, 5, 10, 15, 20]
        for step in (0, 20):
            state = read_state_csv(str(ckdir / f"state_{step:06d}.csv"))
            assert state.lattice.parity == parity
            assert abs(norm_m(state) - rows[step].m_total) <= 1e-12 * rows[step].m_total


class TestVerifyCommand:
    def test_small_verify_passes(self, capsys):
        assert main(["verify", "--max-n", "9"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out

    def test_injected_error_names_kernel_check(self, capsys):
        code = main(["verify", "--max-n", "5", "--inject-kernel-error", "1e-6"])
        assert code == 1
        out = capsys.readouterr().out
        assert "kernel F closed form vs spectral sum" in out

    def test_nan_kernel_error_fails_the_f_check(self, capsys):
        # Python's max(0.0, nan) is 0.0: a NaN residual must not be dropped
        code = main(["verify", "--max-n", "21", "--inject-kernel-error", "nan"])
        assert code == 1
        out = capsys.readouterr().out
        assert "[FAIL] kernel F closed form vs spectral sum" in out
        assert "verify: FAILED -> kernel F closed form vs spectral sum" in out


class TestPaperTableCommand:
    def test_zero_steps_all_zero(self, tmp_path, capsys):
        report_path = tmp_path / "table.json"
        code = main(["paper-table", "--steps", "0", "--json", str(report_path)])
        assert code == 0
        payload = json.loads(report_path.read_text())
        for key, value in payload["metrics"].items():
            assert value == 0.0

    def test_seeded_reports_identical(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["paper-table", "--steps", "10", "--seed", "42", "--json", str(p1)]) == 0
        assert main(["paper-table", "--steps", "10", "--seed", "42", "--json", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()


class TestCompareCommand:
    def test_compare_columns_and_step_zero(self, tmp_path):
        out = tmp_path / "cmp.csv"
        code = main([
            "compare", "--n-sites", "101", "--width", "5", "--n-steps", "10",
            "--record-every", "5", "--csv", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "step,deviation,m_euler,m_exact,drift_euler,drift_exact"
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == 0.0  # identical at step 0

    def test_config_file_csv_path_is_written(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        cfg = tmp_path / "compare.cfg"
        cfg.write_text(
            f"n_sites = 101\nwidth = 5.0\nn_steps = 10\nrecord_every = 5\ncsv_path = {out}\n"
        )
        assert main(["compare", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == ""
        lines = out.read_text().splitlines()
        assert lines[0] == "step,deviation,m_euler,m_exact,drift_euler,drift_exact"
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "5", "10"]

    def test_deviation_grows(self, tmp_path):
        out = tmp_path / "cmp.csv"
        main([
            "compare", "--n-sites", "101", "--width", "5", "--n-steps", "40",
            "--record-every", "20", "--csv", str(out),
        ])
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        devs = [float(r[1]) for r in rows]
        assert devs[0] == 0.0
        assert devs[-1] > devs[1] > 0.0

    def test_zero_steps_give_one_row_and_build_no_propagator(self, monkeypatch, capsys):
        def forbidden(*args, **kwargs):
            raise AssertionError("a propagator was built")

        monkeypatch.setattr(ringfield.experiments, "propagator", forbidden)
        assert main(["compare", "--n-sites", "101", "--width", "5", "--n-steps", "0"]) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert header == "step,deviation,m_euler,m_exact,drift_euler,drift_exact"
        assert row.split(",")[:2] == ["0", "0.0"]

    def test_a_row_does_not_depend_on_the_rows_recorded_with_it(self, capsys):
        def rows(*argv):
            assert main(["compare", "--n-sites", "4001", "--width", "50", *argv]) == 0
            return capsys.readouterr().out.splitlines()

        every = rows("--n-steps", "100", "--record-every", "1")
        assert every[101] == rows("--n-steps", "100", "--record-every", "100")[-1]
        assert every[51] == rows("--n-steps", "50", "--record-every", "50")[-1]

    @pytest.mark.parametrize("n_steps", ["0", "20"])
    def test_state_without_momentum_has_exactly_zero_drift(self, capsys, n_steps):
        assert main([
            "compare", "--shape", "uniform", "--width", "5", "--velocity-index", "0",
            "--n-sites", "101", "--n-steps", n_steps, "--record-every", "5",
        ]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == int(n_steps) // 5 + 1
        assert rows[0][1] == "0.0"
        assert all(row[4:] == ["0.0", "0.0"] for row in rows)


ONE_DRIFT_CONFIGS = [
    [],
    ["--shape", "random", "--seed", "2"],
    ["--n-sites", "4001", "--width", "50"],
]


@pytest.mark.parametrize("config", ONE_DRIFT_CONFIGS, ids=lambda c: " ".join(c) or "default")
def test_run_and_compare_print_one_drift(tmp_path, config):
    """``run`` and ``compare`` reduce the drift of the same Euler
    evolution by the same spectral series, so every row prints the same
    digits, and <P> is half of it."""
    series, rows = tmp_path / "series.csv", tmp_path / "compare.csv"
    assert main(["run", *config, "--csv", str(series)]) == 0
    assert main(["compare", *config, "--csv", str(rows)]) == 0
    ran = [line.split(",") for line in series.read_text().splitlines()]
    compared = [line.split(",") for line in rows.read_text().splitlines()]
    assert (ran[0][:4], compared[0][4]) == (
        ["step", "m_total", "drift_velocity", "momentum_expectation"], "drift_euler")
    assert [row[0] for row in ran] == [row[0] for row in compared]
    assert len(ran) == 102
    for run_row, compare_row in zip(ran[1:], compared[1:]):
        assert run_row[2] == compare_row[4], run_row[0]
        assert float(run_row[3]) == float(compare_row[4]) / 2.0, run_row[0]


class TestEvenOddCommand:
    def test_report_written(self, tmp_path, capsys):
        # canonical lattice sizes; shortened run (the deviation ratio is
        # per-step, so it shows at any length)
        report_path = tmp_path / "eo.json"
        code = main(["even-odd", "--steps", "10", "--json", str(report_path)])
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["passed"] is True
        out = capsys.readouterr().out
        assert "wrapped packet breaks even mode" in out


RUN_OVERRIDES = [
    "--config", "run.cfg", "--n-sites", "21", "--lattice-constant", "0.5",
    "--shape", "uniform", "--center", "3", "--width", "4", "--velocity-index", "2",
    "--seed", "5", "--tau", "1e-4", "--n-steps", "7", "--record-every", "2",
]
PARSER_CORPUS = [
    [], ["-h"], ["-h", "run"], ["--bogus"], ["bogus"], ["ru"],
    # every option of each subcommand
    ["run", *RUN_OVERRIDES, "--scheme", "exact", "--parity-mode", "even_naive",
     "--csv", "a.csv", "--json", "a.json", "--checkpoint-every", "3", "--checkpoint-dir", "ck"],
    ["run", "--sch", "exact"],
    ["verify"],
    ["verify", "--max-n", "21", "--inject-kernel-error", "1e-6"],
    ["paper-table", "--steps", "3", "--seed", "1", "--json", "t.json"],
    ["compare", *RUN_OVERRIDES, "--csv", "c.csv"],
    ["even-odd", "--n-even", "100", "--n-odd", "101", "--sigma", "4", "--steps", "3",
     "--tau", "1e-4", "--json", "e.json"],
    # bad values, missing values and unknown options
    ["run", "--shape", "blob"], ["run", "--n-sites", "x"], ["verify", "--max-n", "2.5"],
    ["paper-table", "--steps"], ["even-odd", "--tau", "abc"], ["compare", "--scheme", "exact"],
    ["run", "--bogus"], ["verify", "extra"], ["run", "run"],
] + [[name, "-h"] for name in ("run", "verify", "paper-table", "compare", "even-odd")]


def _parsed(parser, argv, capsys):
    """The parsed namespace, or the exit code and what was printed."""
    try:
        return vars(parser.parse_args(argv))
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err


@pytest.mark.parametrize("argv", PARSER_CORPUS, ids=lambda argv: ",".join(argv) or "no-command")
def test_subcommand_parser_reads_as_the_full_parser(argv, monkeypatch, capsys):
    """``main`` builds the parser of the subcommand its first argument
    names; that parser gives the full parser's namespace, or its exit
    code, help text and one-line usage error."""
    monkeypatch.setenv("COLUMNS", "80")
    full = _parsed(build_parser(), argv, capsys)
    assert _parsed(build_parser(argv[0] if argv else None), argv, capsys) == full
    if isinstance(full, tuple) and full[0] != 0:
        assert full[0] == 2 and full[2].count("\n") == 1, full


def test_a_subcommand_builds_no_other_subcommand(monkeypatch, capsys):
    def refuse(parser):
        raise AssertionError("the run overrides were built")

    monkeypatch.setattr(ringfield.cli, "_add_run_overrides", refuse)
    assert main(["verify", "--max-n", "21"]) == 0
    assert capsys.readouterr().out.endswith("verify: all checks passed\n")
    with pytest.raises(AssertionError, match="run overrides"):
        build_parser()
