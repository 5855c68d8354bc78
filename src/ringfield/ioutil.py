"""Shared file helpers: exact float text, atomic writes and numbered
CSV rows."""

from __future__ import annotations

import contextlib
import errno
import os
import stat
import tempfile


def fmt(x) -> str:
    """Shortest decimal string that round-trips to the same float64."""
    return repr(float(x))


def _temp_file(path: str) -> tuple[int, str]:
    """An open temporary file next to ``path``: (descriptor, name)."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    return tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")


def _target_mode(path: str) -> int:
    """The permission bits ``open(path, "w")`` would leave ``path``
    with: its own when it exists, otherwise 0o666 less the umask."""
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        return 0o666 & ~umask


def _naming(exc: OSError, path: str) -> OSError:
    """The same error, naming ``path`` in place of a temporary file."""
    return OSError(exc.errno, exc.strerror, path)


def check_writable(path: str) -> None:
    """Raise the ``OSError`` that ``atomic_write_text`` would raise for
    ``path`` when its directory cannot take a new file or ``path`` is a
    directory.  Creates and removes one temporary file."""
    try:
        if os.path.isdir(path):
            raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        fd, tmp = _temp_file(path)
        os.close(fd)
        os.unlink(tmp)
    except OSError as exc:
        raise _naming(exc, path) from exc


def check_directory(path: str) -> None:
    """Raise the ``OSError`` that creating directory ``path`` and a file
    in it would meet, without creating ``path``: the first of ``path``
    and its parents that exists must be a directory that takes entries."""
    try:
        parent = os.path.abspath(path)
        while not os.path.exists(parent):
            parent = os.path.dirname(parent)
        if not os.path.isdir(parent):
            raise OSError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), path)
        os.rmdir(tempfile.mkdtemp(dir=parent, prefix=".tmp-"))
    except OSError as exc:
        raise _naming(exc, path) from exc


def atomic_write_text(path: str, text: str) -> None:
    """Write whole-file via a temp file and rename, so readers never
    observe a partial file.  The file gets the mode ``open(path, "w")``
    would give it.  An ``OSError`` names ``path``, not the temporary
    file."""
    try:
        mode = _target_mode(path)
        fd, tmp = _temp_file(path)
        try:
            with os.fdopen(fd, "w") as handle:
                os.fchmod(handle.fileno(), mode)
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise _naming(exc, path) from exc


def read_csv_rows(path: str, header: str) -> list[tuple[int, str]]:
    """The (line number, stripped text) of every non-blank line of a CSV
    after its header line; ``ValueError`` naming ``path`` when the first
    non-blank line is not ``header``."""
    with open(path) as handle:
        rows = [(lineno, line.strip())
                for lineno, line in enumerate(handle.read().splitlines(), start=1)
                if line.strip()]
    if not rows or rows[0][1] != header:
        raise ValueError(f"{path}: expected header {header!r}")
    return rows[1:]
