"""Array-at-a-time text I/O behind the path CSV, edge list and rank CSV.

Writers format ``BLOCK_ROWS`` lines with one ``%`` operation and write each
file through :func:`atomic_write`.  Readers parse chunks of whole lines,
about ``CHUNK_CHARS`` characters each.  A chunk whose every line is
``columns`` fields apart by single spaces, each ``-?digits`` (for floats
also ``-?digits.digits``) of 1 to 18 digits, is checked as a vector of bytes
and parsed by one ``np.fromstring`` of its digits as int64 significands
``m``.  Any other chunk (blank or ``#`` lines, exponents, ``inf``, ``nan``,
``+``, tabs, CR, 19 digits, no final newline, ...) takes one ``np.loadtxt``
call, and is searched for its offending line only after that call failed.

A float is ``m / 10**f`` for its ``f`` fraction digits, in a long double:
``|m| < 2**63`` and ``10**f`` are exact in its 64-bit significand, so this
rounds the decimal once, and rounding again to float64 is correct (as in
``float()``) except from the exact midpoint of two doubles (the one half a
gap below a power of two included), which ``float()`` then reads.  Where
the long double is narrower, float chunks take ``np.loadtxt``.
"""

from __future__ import annotations

import contextlib
import os
import secrets
import warnings

import numpy as np

from .errors import DataError

# Rows formatted per write: bounds the transient row strings to a few MB
# whatever the length of the columns.
BLOCK_ROWS = 1 << 16

# Characters per chunk that a reader parses at once: bounds the transient
# text and arrays of a read to a few MB whatever the length of the file.
CHUNK_CHARS = 1 << 16

# The fast route's floats need a long double of at least a 64-bit significand.
_EXACT_LONG_DOUBLE = np.finfo(np.longdouble).nmant >= 63
_POW10 = (10 ** np.arange(19)).astype(np.longdouble)  # each exact


@contextlib.contextmanager
def atomic_write(path: str):
    """A text file to write in place of ``path``: it is written under a
    temporary name in the same directory and renamed over ``path`` once the
    block completes, so a failure leaves no partial file and keeps any
    previous one."""
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{secrets.token_hex(4)}.tmp")
    fh = open(tmp, "x")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_rows(fileobj, row_format: str, *columns) -> None:
    """Write ``row_format % row`` for each row of the equal-length ``columns``."""
    width = len(columns)
    for start in range(0, len(columns[0]), BLOCK_ROWS):
        block = [col[start : start + BLOCK_ROWS].tolist() for col in columns]
        rows = len(block[0])
        flat = [None] * (width * rows)
        for j, values in enumerate(block):
            flat[j::width] = values
        fileobj.write((row_format * rows) % tuple(flat))


def _load(lines: list[str], columns: int, dtype):
    """``lines`` as a ``(rows, columns)`` array, or ``None`` if they do not parse."""
    with warnings.catch_warnings():
        # loadtxt warns when every line is blank or a comment
        warnings.simplefilter("ignore", UserWarning)
        try:
            rows = np.loadtxt(lines, dtype=dtype, comments="#", ndmin=2)
        except ValueError:
            return None
    if rows.size == 0:
        return np.empty((0, columns), dtype=dtype)
    return rows if rows.shape[1] == columns else None


def _exact(text: str, columns: int, dtype):
    """The fast route: ``text`` as a ``(rows, columns)`` array of ``dtype``
    (int64 or float64), or ``None`` if it does not fit the route."""
    floats = np.dtype(dtype) == np.float64
    fits = _EXACT_LONG_DOUBLE if floats else np.dtype(dtype) == np.int64
    if not (fits and text.endswith("\n") and text.isascii()):
        return None
    b = np.frombuffer(raw := text.encode("ascii"), np.uint8)
    digit = (b - np.uint8(48)) < 10
    sep = ~digit & (b != 45) & (b != 46)  # all that is not digit, "-" or "."
    ends = np.flatnonzero(sep)
    if len(ends) % columns or (b[ends].reshape(-1, columns) != [32] * (columns - 1) + [10]).any():
        return None
    minus, dot = np.flatnonzero(b == 45), np.flatnonzero(b == 46)
    starts = np.concatenate(([0], ends[:-1] + 1))
    negative = b[starts] == 45
    field = np.searchsorted(ends, dot)  # the field of each "."
    digits = ends - starts - negative
    digits[field] -= 1
    # a "-" opens its field, a "." stands between digits (b[-1] is "\n"), and
    # no field holds two
    if not (sep[minus - 1].all() and digit[minus + 1].all() and digit[dot - 1].all()
            and digit[dot + 1].all() and (floats or not len(dot)) and (np.diff(field) > 0).all()
            and 1 <= digits.min() and digits.max() <= 18):
        return None
    m = np.fromstring(raw.replace(b".", b""), np.int64, sep=" ")
    if not floats:
        return m.reshape(-1, columns)
    scale = np.zeros(len(m), np.intp)
    scale[field] = ends[field] - dot - 1
    exact = m.astype(np.longdouble) / _POW10[scale]
    values = exact.astype(np.float64)
    # twice the rounding error reaches the next double only from a midpoint
    error = (exact - values).astype(np.float64)
    for i in np.flatnonzero((error != 0) & ((values + 2 * error) - values == 2 * error)):
        values[i] = float(text[starts[i] : ends[i]])
    np.copysign(values, -1.0, out=values, where=negative)  # "-0" reads as -0.0
    return values.reshape(-1, columns)


def _chunks(fileobj, head: str = ""):
    """``head`` and the rest of ``fileobj``, in chunks of whole lines of
    about ``CHUNK_CHARS`` characters (or one longer line); only the last
    may lack its newline."""
    pieces = [head]
    while more := fileobj.read(CHUNK_CHARS):
        cut = more.rfind("\n") + 1
        if cut:
            yield "".join(pieces) + more[:cut]
            pieces = []
        pieces.append(more[cut:])
    if rest := "".join(pieces):
        yield rest


def read_rows(fileobj, columns: int, dtype, title: str | None = None) -> np.ndarray:
    """Parse the lines of ``fileobj`` into a ``(rows, columns)`` array of ``dtype``.

    Blank lines and ``#`` comments are skipped, and so is a line starting
    with ``title`` among the leading blank and ``#`` lines.  Any other line
    must hold exactly ``columns`` whitespace-separated numbers; the first
    one that does not raises :class:`DataError` naming its line number.
    """
    head, before = "", 0  # before: file lines ahead of the current chunk
    if title is not None:
        for line in iter(fileobj.readline, ""):
            if line.strip() and not line.startswith(("#", title)):
                head = line
                break
            before += 1
    parts = []
    for text in _chunks(fileobj, head):
        rows, block = _exact(text, columns, dtype), None
        if rows is None:  # any other chunk takes np.loadtxt
            block = text.split("\n")
            rows = _load(block, columns, dtype)
            if rows is None:
                # a block that fails holds a line that fails on its own
                bad = next(i for i, line in enumerate(block)
                           if _load([line], columns, dtype) is None)
                name = getattr(fileobj, "name", "<input>")
                raise DataError(
                    f"{name}:{before + bad + 1}: expected {columns} "
                    f"{np.dtype(dtype).name} value(s), got {block[bad].strip()!r}"
                )
        parts.append(rows)
        before += len(rows) if block is None else len(block) - 1
    return np.concatenate(parts) if parts else np.empty((0, columns), dtype=dtype)
