"""Rewrite every fixture under ``tests/data`` from the tables of
``tests/test_golden.py``, running each call in a fresh
``python -m ringfield.cli`` process with ``src`` on its path.

    python tests/regenerate_goldens.py

It takes no options.  It prints the name of each fixture whose bytes it
changed, and removes any file in ``tests/data`` that no entry makes, so
on an unchanged tree ``git status --porcelain -- tests/data`` stays
empty.  The exit code and stderr of a stdout golden are written in its
table entry, not in a fixture: a call that differs from them stops the
script with exit 1 before any file is written.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
sys.path.insert(0, SRC)

import test_golden as golden  # noqa: E402  (the tables need ringfield importable)

ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    path for path in (SRC, os.environ.get("PYTHONPATH")) if path)}


def call(argv: list[str], code: int = 0, err: str | None = None) -> bytes:
    """The stdout of one call, which must exit ``code`` and, unless
    ``err`` is None, print exactly ``err`` on stderr."""
    proc = subprocess.run([sys.executable, "-m", "ringfield.cli", *argv],
                          capture_output=True, env=ENV)
    got = proc.stderr.decode()
    if proc.returncode != code or (err is not None and got != err):
        raise SystemExit(f"ringfield {' '.join(argv)}: exit {proc.returncode}, stderr {got!r};"
                         f" its entry says exit {code}, stderr {err!r}")
    return proc.stdout


def made(tmp: Path) -> dict[str, bytes]:
    """The bytes of every fixture, by name, from calls that write their
    files under ``tmp``."""
    out = {fixture: call(argv, code, err) for argv, fixture, code, err in golden.STDOUT}
    out.update((fixture, call([command, *golden.CSV_SMALL]))
               for command, fixture in golden.CSV_FILES)
    for command, fixture in golden.JSON_REPORTS.items():
        call(golden.json_argv(command, tmp / fixture))
        out[fixture] = (tmp / fixture).read_bytes()
    for lattice, fixture in golden.CHECKPOINTS:
        call(golden.checkpoint_argv(lattice, tmp / fixture))
        out[fixture] = (tmp / fixture / golden.CHECKPOINT_FILE).read_bytes()
    digests = {}
    for twin in golden.WIDE_TWINS:
        (tmp / twin).mkdir()
        call(golden.wide_argv(twin, tmp / twin))
        digests.update(golden.digests(twin, tmp / twin))
    out[golden.WIDE_MANIFEST] = "".join(
        f"{digest}  {path}\n" for path, digest in sorted(digests.items())).encode()
    return out


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        fixtures = made(Path(tmp))
    for path in sorted(golden.DATA.iterdir()):
        if path.name not in fixtures:
            path.unlink()
            print(f"removed {path.name}")
    for name, data in sorted(fixtures.items()):
        path = golden.DATA / name
        if not path.exists() or path.read_bytes() != data:
            path.write_bytes(data)
            print(f"wrote {name}")


if __name__ == "__main__":
    main()
