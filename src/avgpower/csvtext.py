"""The one CSV layout every artifact uses.

A header line, comma-separated fields, LF line endings and a trailing
newline. Grid points and thetas carry six decimals; computed values carry
twelve significant digits.

Writers produce their text as chunks: the header line, then blocks of
whole lines, every chunk ending with a newline. ``template_chunks`` builds
them from a flat list of fields, formatting each block with one
``%``-template. The CLI writes a file's chunks one at a time, so no file is
ever held whole; a ``*_csv`` function joins the same chunks into one string.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

# Lines per chunk: a block of the long-form decision matrix, about 28 bytes a
# line, then makes a chunk of about 230 KB whatever the grid.
CHUNK_LINES = 1 << 13


def point(v: float) -> str:
    """A grid point or theta, six decimals."""
    return format(v, ".6f")


def value(v: float) -> str:
    """A computed value, twelve significant digits."""
    return format(v, ".12g")


def template_chunks(header: str, template: str, fields: list) -> Iterator[str]:
    """The header, then the lines that the one-line ``%``-template makes of consecutive ``fields``.

    ``template`` holds one conversion per field and ends with a newline.
    Each chunk of ``CHUNK_LINES`` lines is formatted with one ``%``. ``%`` and
    ``format`` render a float through the same routine, so ``%.6f`` and
    ``%.12g`` give what ``point`` and ``value`` give.
    """
    width = template.count("%")
    step = CHUNK_LINES * width
    yield header + "\n"
    for start in range(0, len(fields), step):
        block = fields[start : start + step]
        yield template * (len(block) // width) % tuple(block)


def grid_chunks(header: str, points: np.ndarray, *columns: np.ndarray) -> Iterator[str]:
    """The header, then one line per grid point: the point, then its entry in each column as a value.

    Columns of another length than the points raise ValueError here, when it is called.
    """
    fields = np.column_stack([points, *columns]).ravel().tolist()
    return template_chunks(header, "%.6f" + ",%.12g" * len(columns) + "\n", fields)
