"""Command line interface.

Subcommands:

    run          evolve one configured state, write the observable CSV
    verify       kernel-oracle and identity suites, exit 0 iff green
    paper-table  the 3 shapes x 3 time steps conservation grid
    compare      reaction step vs exact unitary from the same state, in
                 closed form (``experiments.compare_rows``)
    even-odd     parity demonstration report

``main`` builds the parser of only the subcommand that its first
argument names (``build_parser``), so a call pays for the options it
can read; with no first argument, ``-h`` or an unknown name it builds
them all, for the top-level help and usage errors.

Exit codes: 0 success, 1 failed checks, 2 invalid configuration,
3 numerical guard violation.  ``main`` maps the errors of every
subcommand: ``TimestepBoundError`` and ``ConsistencyError`` to 3, any
other ``ValueError`` or an ``OSError`` to 2, each with one ``error:``
line on stderr, as a usage error of the parser is.  A ``UserWarning`` (the tau bound's) prints as one
``warning:`` line on stderr under any filter and keeps the exit code.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import warnings

from .config import RunConfig, read_config
from .evolve import TimestepBoundError, run
from .experiments import (
    IDENTITY_N_LIST,
    KERNEL_ORACLE_N_LIST,
    compare_rows,
    even_odd_comparison,
    identity_suite,
    kernel_oracle_check,
    paper_table_grid,
    paper_table_text,
)
from .ioutil import atomic_write_text, check_directory, check_writable, csv_blocks
from .kernels import ConsistencyError
from .state import build_state, write_state_csv

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_GUARD = 3


def _add_run_overrides(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--n-sites", type=int, dest="n_sites")
    parser.add_argument("--lattice-constant", type=float, dest="lattice_constant")
    parser.add_argument("--shape", choices=["gaussian", "uniform", "random"])
    parser.add_argument("--center", type=int)
    parser.add_argument("--width", type=float,
                        help="gaussian sigma or uniform half-width, in sites")
    parser.add_argument("--velocity-index", type=int, dest="velocity_index")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--tau", type=float)
    parser.add_argument("--n-steps", type=int, dest="n_steps")
    parser.add_argument("--record-every", type=int, dest="record_every")


def _config_from_args(args) -> RunConfig:
    """The config file's values (or the defaults), overridden by every
    flag that the subcommand has and the command line sets."""
    flags = {
        field.name: getattr(args, field.name)
        for field in dataclasses.fields(RunConfig)
        if getattr(args, field.name, None) is not None
    }
    return dataclasses.replace(read_config(args.config) if args.config else RunConfig(), **flags)


def _fail(exc: Exception, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


def _warn(message, category, filename, lineno, file=None, line=None) -> None:
    """``warnings.showwarning`` that prints one line, without the source."""
    print(f"warning: {message}", file=sys.stderr)


def _cmd_run(args) -> int:
    config = _config_from_args(args)
    _check_outputs(config.csv_path, config.json_path)
    directory = config.checkpoint_dir or "."
    if config.checkpoint_every > 0:
        check_directory(directory)
    state = build_state(config.lattice(), config.state_spec())
    series = run(
        state,
        config.evolution(),
        config.n_steps,
        config.record_every,
        checkpoint_every=config.checkpoint_every,
    )
    if config.checkpoint_every > 0:  # only now: a run that fails leaves no directory
        os.makedirs(directory, exist_ok=True)
    if config.csv_path:
        series.write_csv(config.csv_path)
    else:
        sys.stdout.writelines(series.csv_blocks())
    if config.json_path:
        series.write_json(config.json_path)
    for step, checkpoint in sorted(series.checkpoints.items()):
        write_state_csv(checkpoint, os.path.join(directory, f"state_{step:06d}.csv"))
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.max_n < 3:
        raise ValueError(f"--max-n must be >= 3, the smallest lattice (got {args.max_n})")
    kernel_ns = [n for n in KERNEL_ORACLE_N_LIST if n <= args.max_n]
    identity_ns = [n for n in IDENTITY_N_LIST if n <= args.max_n]
    reports = [
        kernel_oracle_check(kernel_ns, perturbation=args.inject_kernel_error),
        identity_suite(identity_ns),
    ]
    for report in reports:
        sys.stdout.write(report.to_text())
    if all(report.passed for report in reports):
        print("verify: all checks passed")
        return EXIT_OK
    failing = [
        check.name for report in reports for check in report.checks
        if check.gated and not check.passed
    ]
    print("verify: FAILED -> " + "; ".join(failing))
    return EXIT_CHECK_FAILED


def _check_outputs(*paths) -> None:
    """Fail on an unwritable output path before any work starts."""
    for path in paths:
        if path:
            check_writable(path)


def _report(report, text: str, json_path: str | None) -> int:
    """Print a report's text, write its JSON when asked; 1 on a failed check."""
    sys.stdout.write(text)
    if json_path:
        report.write_json(json_path)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_paper_table(args) -> int:
    _check_outputs(args.json)
    report = paper_table_grid(n_steps=args.steps, seed=args.seed)
    return _report(report, paper_table_text(report), args.json)


def _cmd_compare(args) -> int:
    config = _config_from_args(args)
    config.evolution()  # checks tau before any work
    _check_outputs(config.csv_path)
    state = build_state(config.lattice(), config.state_spec())
    rows = compare_rows(state, config.tau, config.n_steps, config.record_every)
    steps, *columns = zip(*rows)
    blocks = csv_blocks("step,deviation,m_euler,m_exact,drift_euler,drift_exact", steps, columns)
    if config.csv_path:
        atomic_write_text(config.csv_path, blocks)
    else:
        sys.stdout.writelines(blocks)
    return EXIT_OK


def _cmd_even_odd(args) -> int:
    _check_outputs(args.json)
    report = even_odd_comparison(
        n_even=args.n_even, n_odd=args.n_odd, sigma=args.sigma,
        n_steps=args.steps, tau=args.tau,
    )
    return _report(report, report.to_text(), args.json)


class _Parser(argparse.ArgumentParser):
    """Usage errors (subparsers share the class) print one line, exit 2."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_BAD_CONFIG)


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    _add_run_overrides(parser)
    parser.add_argument("--scheme", choices=["euler", "exact"])
    parser.add_argument("--parity-mode", choices=["odd_standard", "even_naive"],
                        dest="parity_mode")
    parser.add_argument("--csv", dest="csv_path", help="observable CSV path (default stdout)")
    parser.add_argument("--json", dest="json_path", help="also write the series as JSON")
    parser.add_argument("--checkpoint-every", type=int, dest="checkpoint_every")
    parser.add_argument("--checkpoint-dir", dest="checkpoint_dir")


def _add_verify_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-n", type=int, default=801,
                        help="largest lattice to include (default 801)")
    parser.add_argument("--inject-kernel-error", type=float, default=0.0,
                        help="self-test hook: offset added to the closed-form "
                             "kernel so the equivalence check must fail")


def _add_paper_table_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--steps", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", help="write the report as JSON")


def _add_compare_options(parser: argparse.ArgumentParser) -> None:
    _add_run_overrides(parser)
    parser.add_argument("--csv", dest="csv_path", help="comparison CSV path (default stdout)")


def _add_even_odd_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n-even", type=int, default=800, dest="n_even")
    parser.add_argument("--n-odd", type=int, default=801, dest="n_odd")
    parser.add_argument("--sigma", type=float, default=5.0)
    parser.add_argument("--steps", type=int, default=100)
    parser.add_argument("--tau", type=float, default=1e-3)
    parser.add_argument("--json", help="write the report as JSON")


# (name, help, add-options function, handler) of each subcommand, in help order
_SUBCOMMANDS = (
    ("run", "evolve a state and write the observable series", _add_run_options, _cmd_run),
    ("verify", "kernel oracle and identity suites", _add_verify_options, _cmd_verify),
    ("paper-table", "conservation grid with pass/fail bands", _add_paper_table_options,
     _cmd_paper_table),
    ("compare", "reaction step vs exact unitary", _add_compare_options, _cmd_compare),
    ("even-odd", "even vs odd parity demonstration", _add_even_odd_options, _cmd_even_odd),
)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """A new parser of every subcommand or, when ``command`` names one,
    of that subcommand alone, which reads that subcommand's command
    lines as the full parser does.  Any other ``command`` (``None``,
    ``-h``, an unknown name) gives the full parser, which reports a
    missing or unknown subcommand and prints the top-level help."""
    parser = _Parser(
        prog="ringfield",
        description="two-field reaction process on a cyclic lattice",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    named = [entry for entry in _SUBCOMMANDS if entry[0] == command]
    for name, help_text, add_options, handler in named or _SUBCOMMANDS:
        subparser = sub.add_parser(name, help=help_text)
        add_options(subparser)
        subparser.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _warn
        warnings.simplefilter("default", UserWarning)  # also under -W error
        try:
            return args.func(args)
        except (TimestepBoundError, ConsistencyError) as exc:
            return _fail(exc, EXIT_GUARD)
        except (ValueError, OSError) as exc:  # e.g. a step that leaves the finite floats
            return _fail(exc, EXIT_BAD_CONFIG)


if __name__ == "__main__":
    raise SystemExit(main())
