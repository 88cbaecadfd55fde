"""Array-at-a-time text I/O behind the path CSV, edge list and rank CSV.

Both directions work in blocks of ``BLOCK_ROWS`` lines.  Writers format a
block with one ``%`` operation; readers parse a block with one
``np.loadtxt`` call and look for the offending line only after that call
has failed.  Every output file is written through :func:`atomic_write`.
"""

from __future__ import annotations

import contextlib
import os
import secrets
import warnings
from itertools import islice

import numpy as np

from .errors import DataError

# Rows formatted per write: bounds the transient row strings to a few MB
# whatever the length of the columns.
BLOCK_ROWS = 1 << 16


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


def read_rows(fileobj, columns: int, dtype, title: str | None = None) -> np.ndarray:
    """Parse the lines of ``fileobj`` into a ``(rows, columns)`` array of ``dtype``.

    Blank lines and ``#`` comments are skipped, and so is a line starting
    with ``title`` among the leading blank and ``#`` lines.  Any other line
    must hold exactly ``columns`` whitespace-separated numbers; the first
    one that does not raises :class:`DataError` naming its line number.
    """
    lines = iter(fileobj)
    block = []
    before = 0  # file lines ahead of the current block
    if title is not None:
        for line in lines:
            if line.strip() and not line.startswith(("#", title)):
                block = [line]
                break
            before += 1
    block += islice(lines, BLOCK_ROWS)
    parts = []
    while block:
        rows = _load(block, columns, dtype)
        if rows is None:
            # a block that fails holds a line that fails on its own
            bad = next(i for i, line in enumerate(block) if _load([line], columns, dtype) is None)
            name = getattr(fileobj, "name", "<input>")
            raise DataError(
                f"{name}:{before + bad + 1}: expected {columns} "
                f"{np.dtype(dtype).name} value(s), got {block[bad].strip()!r}"
            )
        parts.append(rows)
        before += len(block)
        block = list(islice(lines, BLOCK_ROWS))
    return np.concatenate(parts) if parts else np.empty((0, columns), dtype=dtype)

