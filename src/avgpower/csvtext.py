"""The one CSV layout every artifact uses.

A header line, comma-separated fields, LF line endings and a trailing
newline. Grid points and thetas carry six decimals; computed values carry
twelve significant digits.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np


def point(v: float) -> str:
    """A grid point or theta, six decimals."""
    return format(v, ".6f")


def value(v: float) -> str:
    """A computed value, twelve significant digits."""
    return format(v, ".12g")


def csv_text(header: str, rows: Iterable[Iterable[str]]) -> str:
    """The header, then one line per row of already formatted fields."""
    return "\n".join([header, *map(",".join, rows)]) + "\n"


def grid_csv(header: str, points: np.ndarray, *columns: np.ndarray) -> str:
    """The header, then one line per grid point: the point, then its entry in each column as a value."""
    cells = [map(value, column.tolist()) for column in columns]
    return csv_text(header, zip(map(point, points.tolist()), *cells, strict=True))
