"""The private chunk writers behind every CLI file.

Each writer checks its inputs when called, before any chunk is read; it then
yields the header line as a chunk of its own and whole lines in every later
chunk, and the public ``*_csv`` text is the join of its chunks.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avgpower import BetaPrior, BinomialModel, ParameterGrid, TestConfig, build_decision_matrix
from avgpower.clopper_pearson import LengthComparison, _comparison_chunks, compare_lengths, comparison_csv
from avgpower.csvtext import grid_chunks, point, value
from avgpower.decisions import (
    ThresholdOverflowError,
    _decision_matrix_chunks,
    _region_chunks,
    _rows_summary_chunks,
    confidence_region,
    decision_matrix_to_csv,
    rows_summary_csv,
)
from avgpower.monte_carlo import AgreementReport, _agreement_chunks, agreement_csv
from avgpower.power import (
    TABLE_COLUMNS,
    TABLE_CORNER,
    TABLE_ROWS,
    _avg_power_chunks,
    _mixed_power_chunks,
    _power_curves_chunks,
    _power_table_chunks,
    avg_power_csv,
    mixed_power_csv,
    power_curves_csv,
    power_table_csv,
)


@functools.cache
def build(n: int, prior: BetaPrior, points: int):
    return build_decision_matrix(TestConfig(0.05, BinomialModel(n), prior, ParameterGrid.regular(points)))


def line_counts(chunks) -> list:
    """Lines in each chunk after the header."""
    return [chunk.count("\n") for chunk in list(chunks)[1:]]


def region_text(matrix, x: int) -> str:
    """The ci file written from the confidence region: every grid null, 1 where the region accepts it."""
    accepted = set(confidence_region(matrix, x).accepted.tolist())
    points = matrix.config.grid.points.tolist()
    return "".join(["eta,included\n", *(f"{eta:.6f},{int(eta in accepted)}\n" for eta in points)])


@pytest.fixture(scope="module")
def writers(matrix_non):
    """Each writer's chunk factory beside the text its file must hold, for the n=100, G=499 matrix."""
    comparison = compare_lengths(matrix_non)
    points = matrix_non.config.grid.points
    report = AgreementReport(points, np.linspace(0.5, 1.0, points.size), 0.75)
    table = np.array([[0.185, 0.154], [0.664, 0.798]])
    thetas = [0.3, 0.5]
    return {
        "decision_matrix": (lambda: _decision_matrix_chunks(matrix_non), decision_matrix_to_csv(matrix_non)),
        "rows_summary": (lambda: _rows_summary_chunks(matrix_non), rows_summary_csv(matrix_non)),
        "region": (lambda: _region_chunks(matrix_non, 37), region_text(matrix_non, 37)),
        "power_curves": (lambda: _power_curves_chunks(matrix_non, thetas), power_curves_csv(matrix_non, thetas)),
        "mixed_power": (lambda: _mixed_power_chunks(matrix_non), mixed_power_csv(matrix_non)),
        "avg_power": (lambda: _avg_power_chunks(matrix_non), avg_power_csv(matrix_non)),
        "power_table": (lambda: _power_table_chunks(table), power_table_csv(table)),
        "comparison": (lambda: _comparison_chunks(comparison), comparison_csv(comparison)),
        "agreement": (lambda: _agreement_chunks(report), agreement_csv(report)),
    }


NAMES = [
    "decision_matrix",
    "rows_summary",
    "region",
    "power_curves",
    "mixed_power",
    "avg_power",
    "power_table",
    "comparison",
    "agreement",
]


@pytest.mark.parametrize("name", NAMES)
def test_header_then_whole_lines_joining_to_the_public_text(writers, name):
    make, text = writers[name]
    chunks = list(make())
    assert chunks[0] == text[: text.index("\n") + 1]
    assert len(chunks) > 1
    assert all(chunk.endswith("\n") for chunk in chunks)
    assert "".join(chunks) == text


# Beta(1000, 1) at n=1000 puts row thresholds past the double range.
OVERFLOWING = (1000, BetaPrior(1000.0, 1.0), 49)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: _decision_matrix_chunks(build(*OVERFLOWING)), ThresholdOverflowError, r"threshold at eta 0\.\d{6}"),
        (lambda: _rows_summary_chunks(build(*OVERFLOWING)), ThresholdOverflowError, r"threshold at eta 0\.\d{6}"),
        (lambda: _power_curves_chunks(build(20, BetaPrior(0.5, 0.5), 49), [0.5, 1.5]), ValueError, r"got 1\.5$"),
        (
            lambda: _avg_power_chunks(build(2, BetaPrior(1e300, 1e300), 3)),
            ValueError,
            r"the grid measure of the prior Beta\(1e\+300, 1e\+300\) totals 0\.0 on the 3-point grid",
        ),
        (lambda: _power_table_chunks(np.zeros((3, 2))), ValueError, r"table shape \(3, 2\) is not 2x2"),
    ],
    ids=["decision_matrix", "rows_summary", "power_curves", "avg_power", "power_table"],
)
def test_errors_are_raised_by_the_call_before_any_chunk(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("n, points, rows_per_chunk", [(100, 499, 81), (1000, 49, 8), (9000, 3, 1)])
def test_matrix_chunks_hold_whole_grid_rows(n, points, rows_per_chunk):
    matrix = build(n, BetaPrior(0.5, 0.5), points)
    full, rest = divmod(points, rows_per_chunk)
    expected = [rows_per_chunk * (n + 1)] * full + ([rest * (n + 1)] if rest else [])
    assert line_counts(_decision_matrix_chunks(matrix)) == expected


def test_grid_point_chunks_hold_8192_lines():
    points = ParameterGrid.regular(10000).points
    report = AgreementReport(points, np.ones(points.size), 1.0)
    assert line_counts(_agreement_chunks(report)) == [8192, 1808]


def test_power_curve_chunks_hold_8192_lines_across_curves():
    assert line_counts(_power_curves_chunks(build(20, BetaPrior(0.5, 0.5), 49), [0.5] * 200)) == [8192, 1608]


# Floats the templates must render as point() and value() do: signed zeros, subnormals, the
# ends of the double range, and the non-finite values.
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308]
EDGE_FLOATS += [-1.7976931348623157e308, 0.1, 0.5, 1.0, 1 / 3, float("inf"), float("-inf"), float("nan")]
floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=True, allow_infinity=True))


def joined(header: str, points: list, *columns: list) -> str:
    """One line per point: the point, then its entry in each column as a value, each field formatted alone."""
    lines = (",".join([point(p), *map(value, row)]) + "\n" for p, *row in zip(points, *columns))
    return "".join([header + "\n", *lines])


@given(rows=st.lists(st.tuples(floats, floats, floats, st.integers(0, 1)), max_size=40), floats_in=st.integers(0, 2))
@settings(max_examples=200, deadline=None)
def test_grid_template_matches_a_per_field_join(rows, floats_in):
    # The points, up to two float columns, then a 0/1 integer column like a ci file's flags.
    columns = [[row[i] for row in rows] for i in (0, *range(1, 1 + floats_in), 3)]
    chunks = grid_chunks("h", *(np.array(column) for column in columns))
    assert "".join(chunks) == joined("h", *columns)


@given(rows=st.lists(st.tuples(floats, floats, floats, floats), max_size=40))
@settings(max_examples=200, deadline=None)
def test_comparison_lines_match_a_per_field_join(rows):
    # Four endpoint columns; NaN, an empty proposed region's endpoint, writes an empty field.
    ends = np.array(rows, dtype=float).reshape(-1, 4).T
    comparison = LengthComparison(*ends, mean_cp_length=0.0, mean_proposed_length=0.0, grid_step=0.0)
    lines = (",".join([str(x), *("" if math.isnan(v) else value(v) for v in row)]) + "\n" for x, row in enumerate(rows))
    assert "".join(_comparison_chunks(comparison)) == "".join(["x,cp_lower,cp_upper,prop_lower,prop_upper\n", *lines])


@given(cells=st.lists(floats, min_size=4, max_size=4))
@settings(max_examples=200, deadline=None)
def test_power_table_lines_match_a_per_field_join(cells):
    values = np.array(cells).reshape(2, 2)
    lines = (",".join([label, value(a), value(b)]) + "\n" for label, (a, b) in zip(TABLE_ROWS, values.tolist()))
    assert "".join(_power_table_chunks(values)) == "".join([",".join([TABLE_CORNER, *TABLE_COLUMNS]) + "\n", *lines])


def test_grid_columns_are_checked_when_called():
    with pytest.raises(ValueError):
        grid_chunks("h", np.zeros(3), np.zeros(3), np.zeros(2))
