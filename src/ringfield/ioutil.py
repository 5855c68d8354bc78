"""Shared file helpers: exact float text, atomic writes and the numeric
CSV format (a header line, an integer label column, float columns)."""

from __future__ import annotations

import contextlib
import errno
import os
import stat
import tempfile
import warnings
from collections.abc import Iterable, Iterator

import numpy as np

# bytes that one field of a CSV row holds while its block of rows is
# built: its number as a Python object, its text in the row strings and
# their list slots (about 78 measured, on rows of a label and two floats)
_FIELD_BYTES = 80


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


def atomic_write_text(path: str, text: str | Iterable[str]) -> None:
    """Write whole-file via a temp file and rename, so readers never
    observe a partial file.  ``text`` is one string or an iterable of
    blocks of it, written as they come (``csv_blocks``); a block that
    raises leaves no file.  The file gets the mode ``open(path, "w")``
    would give it.  A symbolic link is followed: the file it names is
    replaced and the link stays.  A target that exists and is not a
    regular file (a device, a FIFO) is written in place, as
    ``open(path, "w")`` would.  An ``OSError`` names ``path``, not the
    temporary file."""
    blocks = (text,) if isinstance(text, str) else text
    try:
        target, mode = _target(path)
        if mode is None:
            with open(target, "w") as handle:
                handle.writelines(blocks)
            return
        fd, tmp = _temp_file(target)
        try:
            with os.fdopen(fd, "w") as handle:
                os.fchmod(handle.fileno(), mode)
                handle.writelines(blocks)
            os.replace(tmp, target)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise _naming(exc, path) from exc


def csv_blocks(header: str, labels, columns) -> Iterator[str]:
    """A numeric CSV as blocks of text: ``header``, then per label a row
    of the integer label (``str``) and its value from each column
    (``fmt``).  The rows come a block at a time (``row_blocks``), each
    from one ``tolist`` of every column's slice, so the whole text is
    never built; ``"".join`` gives it."""
    # imported here: observables imports this module (through state)
    from .observables import row_blocks

    labels = np.asarray(labels)
    columns = [np.asarray(column, dtype=float) for column in columns]
    yield header
    for rows in row_blocks(len(labels), _FIELD_BYTES * (1 + len(columns))):
        lines = labels[rows].tolist()
        for column in columns:
            lines = [f"{line},{value!r}" for line, value in zip(lines, column[rows].tolist())]
        yield "\n"
        yield "\n".join(lines)
    yield "\n"


def read_csv_table(path: str, header: str) -> tuple[np.ndarray, np.ndarray]:
    """The integer labels, shape (R,), and float values, shape (R, K - 1),
    of a numeric CSV whose first non-blank line is ``header`` (K fields).

    One ``np.loadtxt`` parses the body from the open file.  Only when it
    fails (a bad row, a whitespace-only line, no rows) is the body read
    line by line, to skip blank lines and to name the first bad line in
    the ``ValueError``.
    """
    dtype = np.dtype([("label", np.int64), ("values", np.float64, (header.count(","),))])
    with open(path) as handle:
        if next((line.strip() for line in handle if line.strip()), None) != header:
            raise ValueError(f"{path}: expected header {header!r}")
        table = _load(handle, dtype)
        if table is None:
            handle.seek(0)
            rows = [(n, line.strip()) for n, line in enumerate(handle, 1) if line.strip()][1:]
            if not rows:
                raise ValueError(f"{path}: no {header} rows")
            table = _load([line for _n, line in rows], dtype)
            if table is None:
                raise _row_error(path, header, dtype, rows)
    return table["label"], table["values"]


def _load(lines, dtype: np.dtype) -> np.ndarray | None:
    """The rows of ``dtype`` in ``lines``, or ``None`` when one does not
    parse or there are none (which ``np.loadtxt`` only warns about)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)
        except (ValueError, UserWarning):
            return None


def _row_error(path: str, header: str, dtype: np.dtype, rows) -> ValueError:
    """The error for the first (line number, text) row that does not
    parse alone: a field's ``int`` or ``float`` error, a label outside
    the int64 range, a field that only ``int`` and ``float`` read (a
    digit separator: ``1_0``), or else the header the row should match."""
    lineno, line = next(row for row in rows if _load([row[1]], dtype) is None)
    label, *values = line.split(",")
    if len(values) == header.count(","):
        try:
            number, _floats = int(label), [float(value) for value in values]
        except ValueError as exc:
            return ValueError(f"{path}: line {lineno}: {exc}")
        bounds = np.iinfo(np.int64)
        if not bounds.min <= number <= bounds.max:
            return ValueError(f"{path}: line {lineno}: label {number} is outside the int64 range")
        refused = next(text for text in (label, *values) if _load([text], np.dtype(float)) is None)
        return ValueError(f"{path}: line {lineno}: cannot parse {refused!r}")
    return ValueError(f"{path}: line {lineno}: expected {header}, got {line!r}")
