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


def _target(path: str) -> tuple[str, int | None]:
    """The file that ``path`` names, symbolic links followed, and the
    permission bits ``open(path, "w")`` would leave it with: its own
    when it exists, otherwise 0o666 less the umask.  The bits are
    ``None`` for a file that is neither regular nor a directory (a
    device, a FIFO), which is written in place rather than replaced."""
    target = os.path.realpath(path)
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        return target, 0o666 & ~umask
    special = not (stat.S_ISREG(mode) or stat.S_ISDIR(mode))
    return target, None if special else stat.S_IMODE(mode)


def _naming(exc: OSError, path: str) -> OSError:
    """The same error, naming ``path`` in place of a temporary file."""
    return OSError(exc.errno, exc.strerror, path)


def check_writable(path: str) -> None:
    """Raise the ``OSError`` that ``atomic_write_text`` would raise for
    ``path`` when its directory cannot take a new file, ``path`` is a
    directory, or ``path`` is a file it writes in place and may not
    write.  Creates and removes one temporary file next to the regular
    file that ``path`` names or links to."""
    try:
        target, mode = _target(path)
        if os.path.isdir(target):
            raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        if mode is None:
            if not os.access(target, os.W_OK):
                raise OSError(errno.EACCES, os.strerror(errno.EACCES), path)
            return
        fd, tmp = _temp_file(target)
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
    would give it.  A symbolic link is followed: the file it names is
    replaced and the link stays.  A target that exists and is not a
    regular file (a device, a FIFO) is written in place, as
    ``open(path, "w")`` would.  An ``OSError`` names ``path``, not the
    temporary file."""
    try:
        target, mode = _target(path)
        if mode is None:
            with open(target, "w") as handle:
                handle.write(text)
            return
        fd, tmp = _temp_file(target)
        try:
            with os.fdopen(fd, "w") as handle:
                os.fchmod(handle.fileno(), mode)
                handle.write(text)
            os.replace(tmp, target)
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
