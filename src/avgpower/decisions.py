"""Decision matrices built by posterior-density ordering, and the confidence
regions obtained by inverting them.

Each row fixes a null value eta and greedily admits outcomes in order of
decreasing posterior density relative to the prior, stopping once the
binomial mass of the admitted set reaches the required coverage. Outcomes
whose posterior densities coincide within a relative tolerance form a tie
group and are admitted or withheld as a unit, which keeps symmetric
configurations symmetric.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .csvtext import CHUNK_LINES, csv_chunks, grid_chunks, point, value
from .distributions import (
    BetaPrior,
    BinomialModel,
    _log_f_and_g,
    binom_pmf_support,
    check_count,
    check_open_unit,
    check_outcome,
)

__all__ = [
    "TIE_RTOL",
    "ParameterGrid",
    "TestConfig",
    "DecisionMatrix",
    "ConfidenceRegion",
    "ThresholdOverflowError",
    "build_decision_row",
    "build_decision_matrix",
    "coverage",
    "type1_error",
    "confidence_region",
    "decision_matrix_to_csv",
    "decision_matrix_from_csv",
    "rows_summary_csv",
]

# Posterior densities within this relative distance of each other count as tied.
TIE_RTOL = 1e-12
# The same tolerance as a gap between log densities.
_LOG_TIE_TOL = -math.log1p(-TIE_RTOL)
# Outcomes per block of rows that one _rank pass takes, exact and Monte Carlo
# rows alike: a block's temporaries then stay in cache. One pass over the
# whole grid took about twice as long at n=1000 and G=499.
_RANK_BLOCK = 1 << 13


@dataclass(frozen=True)
class ParameterGrid:
    """Ordered evaluation points in (0, 1).

    A grid is its points, copied from the caller and made read-only. Grid
    averages weight each point by its cell width (``cell_widths``, from
    neighbour spacing) times a prior density.
    """

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 1 or pts.size == 0:
            raise ValueError("grid needs at least one point")
        if not (np.all(pts > 0.0) and np.all(pts < 1.0)):
            raise ValueError("grid points must lie strictly inside (0, 1)")
        if pts.size > 1 and not np.all(np.diff(pts) > 0.0):
            raise ValueError("grid points must be strictly increasing")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @classmethod
    def regular(cls, count: int = 499, low: float = 0.002, high: float = 0.998) -> "ParameterGrid":
        """Equally spaced grid over [low, high].

        Points are assembled as an exact mirror image about the midpoint so
        that symmetric priors see a symmetric grid down to the last bit.
        """
        count = check_count(count, "count")
        if not (0.0 < low <= high < 1.0):
            raise ValueError("grid range must satisfy 0 < low <= high < 1")
        if count > 1 and low == high:
            raise ValueError("low < high required for more than one point")
        half = np.linspace(low, high, count)[: count // 2]
        upper = (low + high) - half[::-1]
        middle = [np.array([(low + high) / 2.0])] if count % 2 else []
        return cls(points=np.concatenate([half, *middle, upper]))

    @property
    def cell_widths(self) -> np.ndarray:
        """Piecewise-constant cell width per point, from neighbour spacing."""
        pts = self.points
        if pts.size == 1:
            return np.array([1.0])
        w = np.empty(pts.size)
        w[0] = pts[1] - pts[0]
        w[-1] = pts[-1] - pts[-2]
        w[1:-1] = (pts[2:] - pts[:-2]) / 2.0
        return w

    def nearest_index(self, value: float) -> int:
        """Index of the grid point closest to value; errors beyond 1e-9."""
        idx = int(np.argmin(np.abs(self.points - value)))
        # Written so that a NaN value fails it too.
        if not abs(self.points[idx] - value) <= 1e-9:
            raise ValueError(f"{value!r} is not a grid point (nearest is {self.points[idx]!r})")
        return idx

    def __len__(self) -> int:
        return int(self.points.size)


@dataclass(frozen=True)
class TestConfig:
    """Test level plus the model, prior, and grid that define the procedure."""

    level: float
    model: BinomialModel
    prior: BetaPrior
    grid: ParameterGrid

    def __post_init__(self) -> None:
        object.__setattr__(self, "level", check_open_unit(self.level, "level"))


@dataclass(eq=False)
class DecisionMatrix:
    """Every grid null's decision row, stored as arrays in grid order.

    With G grid points and n trials: ``included`` is bool (G, n+1),
    ``log_threshold`` and ``achieved_coverage`` are finite float (G,). Row j
    is the acceptance indicator over outcomes for the null eta =
    ``config.grid.points[j]``. Its ``log_threshold`` is the smallest ln g(x)
    = ln f_eta(x) - ln P_mix(x) among admitted outcomes, so the row equals
    {x : ln g(x) >= log_threshold} up to tie tolerance; only the CSV writers
    exponentiate it. Its ``achieved_coverage`` is the exact binomial mass of
    the admitted set under eta and always reaches at least 1 - level. The
    arrays are made read-only, since consumers share them uncopied.
    """

    config: TestConfig
    included: np.ndarray
    log_threshold: np.ndarray
    achieved_coverage: np.ndarray

    def __post_init__(self) -> None:
        rows = len(self.config.grid)
        for name, dtype, shape in (
            ("included", np.dtype(bool), (rows, self.config.model.n + 1)),
            ("log_threshold", np.dtype(float), (rows,)),
            ("achieved_coverage", np.dtype(float), (rows,)),
        ):
            arr = getattr(self, name)
            if not (isinstance(arr, np.ndarray) and arr.dtype == dtype and arr.shape == shape):
                got = f"{arr.dtype} of shape {arr.shape}" if isinstance(arr, np.ndarray) else type(arr).__name__
                raise ValueError(f"{name} must be a {dtype} array of shape {shape}, got {got}")
            if dtype == float and not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite, got {float(arr[~np.isfinite(arr)][0])!r}")
            arr.flags.writeable = False

    def inclusion_matrix(self) -> np.ndarray:
        """Boolean (grid x outcomes) array of the acceptance indicators."""
        return self.included


class ThresholdOverflowError(ValueError):
    """A row threshold is too large for a double and cannot be written."""


@dataclass(frozen=True)
class ConfidenceRegion:
    """Grid values accepted for one observed outcome.

    An empty region is representable: ``accepted`` has length zero, the
    bounds are NaN, and ``contiguous`` is vacuously true.
    """

    x_observed: int
    accepted: np.ndarray
    lower: float
    upper: float
    contiguous: bool

    @property
    def is_empty(self) -> bool:
        return self.accepted.size == 0


def _rank(log_g: np.ndarray, mass: np.ndarray, target: float | np.ndarray) -> tuple:
    """Rank and admit every row of a 2-d stack against a scalar target or a (rows, 1) column of them.

    Returns every row finished, as ``_walk`` admits it alone: the inclusion
    flags (rows, width), the smallest admitted log g (rows,) and the
    admitted mass summed in outcome order (rows,).

    A stable argsort, a gather and a cumulative sum along axis 1 give each
    row of a stack exactly the values they give that row alone, so rows
    ranked together admit what they would admit alone.

    Most rows are admitted in array passes: those whose outcomes ranked up
    to and including the first whose rank-order running sum reaches the
    target all stand alone, outside any tie group, and, summed in outcome
    order, also reach it. ``_walk`` would then admit exactly them. They are
    the outcomes at or above the last one's log g, and their masses are
    summed by one row-wise reduction per run of rows admitting the same
    count: a C-ordered (rows, k) reduction along its last axis sums each row
    as numpy sums that row alone, where ``np.add.reduceat`` would sum it in
    sequence. Every other row, one with a tie at or above its cut or one
    whose outcome-order sum falls short, is walked by ``_walk``.
    """
    order = (-log_g).argsort(axis=1, kind="stable")
    # One flat take gathers the whole stack; take_along_axis costs more to
    # set up than the gather itself on rows of a hundred outcomes.
    rows, width = order.shape
    firsts = np.arange(0, order.size, width)
    at = order + firsts[:, None]
    ranked = log_g.take(at)
    # ends[:, i]: whether ranked outcome i ends its tie group. A False past each row's end makes
    # argmin count the outcomes that stand alone before the first tie: all of a tie-free row.
    ends = np.zeros((rows, width + 1), dtype=bool)
    np.less(ranked[:, 1:], ranked[:, :-1] - _LOG_TIE_TOL, out=ends[:, :-2])
    ends[:, -2] = True
    alone = ends.argmin(axis=1)
    # The running sums never decrease, so the first that reaches the target counts those short of
    # it; a row that never reaches it is short by its width.
    reaches = mass.take(at).cumsum(axis=1) >= target
    short = np.where(reaches[:, -1], reaches.argmax(axis=1), width)
    reached = alone > short
    # No value reaches a NaN threshold, so the other rows admit nothing here.
    log_threshold = np.where(reached, ranked.take(firsts + np.minimum(short, width - 1)), np.nan)
    included = log_g >= log_threshold[:, None]
    # The admitted masses, row after row, each in outcome order; a run of rows admitting k outcomes
    # each is summed as one (rows, k) array.
    admitted = mass[included]
    covered = np.zeros(rows)
    row = done = 0
    for k, run in itertools.groupby(np.where(reached, short + 1, 0).tolist()):
        count = len(list(run))
        if k:
            covered[row : row + count] = np.add.reduce(admitted[done : done + count * k].reshape(count, k), axis=1)
            done += count * k
        row += count
    targets = np.broadcast_to(np.ravel(target), rows)
    for j in np.flatnonzero(~(reached & (covered >= targets))).tolist():
        included[j], log_threshold[j], covered[j] = _walk(log_g[j], mass[j], targets[j])
    return included, log_threshold, covered


def _walk(log_g: np.ndarray, mass: np.ndarray, target: float) -> tuple:
    """Admit one row's outcomes by descending log g, a tie group at a time, until its mass reaches ``target``.

    Adjacent ranked values chain into one tie group while their densities
    stay within TIE_RTOL of each other (equal infinities tie), and a tie
    group is admitted or withheld as a unit.

    Returns (inclusion flags, smallest admitted log g, admitted mass), the
    mass summed in outcome order as a row rebuilt from its flags sums it.
    A row that even its whole support leaves short of ``target`` returns
    every outcome admitted and the whole row's mass; the caller decides
    whether that is an error. A Monte Carlo row never is short: its target
    is at most the sum of its whole row.
    """
    order = (-log_g).argsort(kind="stable")
    ranked = log_g[order]
    splits = ranked[1:] < ranked[:-1] - _LOG_TIE_TOL
    starts = np.concatenate(([0], np.flatnonzero(splits) + 1))
    reached = np.add.reduceat(mass[order], starts).cumsum()
    # Groups enter up to and including the first that brings the rank-order
    # sum to target, then one more at a time while the outcome-order sum,
    # rounded differently, is still short of it. The masses are nonnegative,
    # so the running totals never decrease and a search counts those short.
    taken = int(reached.searchsorted(target)) + 1
    included = np.zeros(order.size, dtype=bool)
    while True:
        stop = int(starts[taken]) if taken < starts.size else order.size
        included[order[:stop]] = True
        covered = float(mass[included].sum())
        if covered >= target or stop == order.size:
            return included, log_g[order[stop - 1]], covered
        taken += 1


def build_decision_row(eta: float, config: TestConfig, *, ranking: tuple | None = None) -> tuple:
    """Construct the acceptance set for one null value.

    Parameters
    ----------
    eta : float
        Null parameter, strictly inside (0, 1).
    config : TestConfig
        Level, model, and prior. The grid is not consulted here.
    ranking : optional
        This row's (included, log_threshold, covered) from the block pass of
        ``build_decision_matrix``, which ranks and admits many rows at once
        against 1 - level. A row built alone is a block of one.

    Returns
    -------
    (included, log_threshold, achieved_coverage)
        One row of a DecisionMatrix, with the meanings given there: outcomes
        admitted in order of decreasing posterior density until the exact
        binomial mass under eta reaches 1 - level. Outcomes are ranked by
        log density, which stays finite where the density itself would
        overflow. Tie groups enter atomically; the log threshold records the
        smallest admitted log density.

    Raises ValueError, naming the target, the mass and the null, when even
    the whole support holds less than 1 - level.
    """
    eta = check_open_unit(eta, "eta")
    target = 1.0 - config.level
    if ranking is None:
        (ranking,) = _rankings(config, np.array([eta]))
    included, log_threshold, covered = ranking
    if covered < target:
        raise ValueError(
            f"no set of outcomes reaches the coverage target {target!r}: "
            f"the whole support holds {float(covered)!r} at eta {point(eta)}"
        )
    return included, log_threshold, float(covered)


def _rankings(config: TestConfig, etas: np.ndarray):
    """Yield each null's (included, log_threshold, covered), ranked and admitted a block of ``etas`` per pass.

    ln f and ln g are evaluated for one block at a time, against the
    beta-binomial mixture that ``_log_f_and_g`` evaluates once.
    """
    log_f_and_g = _log_f_and_g(config.model, config.prior)
    step = max(1, _RANK_BLOCK // (config.model.n + 1))
    for i in range(0, len(etas), step):
        log_f, log_g = log_f_and_g(etas[i : i + step])
        yield from zip(*_rank(log_g, np.exp(log_f), 1.0 - config.level))


def build_decision_matrix(config: TestConfig) -> DecisionMatrix:
    """Build one decision row per grid point. Deterministic in config.

    Rows are ranked and admitted a block at a time (``_rankings``); each row
    then goes through ``build_decision_row``, which checks it against
    1 - level. A block is admitted whole before its rows are checked, and
    the first row in grid order that its whole support leaves short raises.
    """
    points = config.grid.points
    included = np.zeros((points.size, config.model.n + 1), dtype=bool)
    log_threshold, achieved = np.empty(points.size), np.empty(points.size)
    for j, (eta, r) in enumerate(zip(points, _rankings(config, points))):
        included[j], log_threshold[j], achieved[j] = build_decision_row(eta, config, ranking=r)
    return DecisionMatrix(config, included, log_threshold, achieved)


def _check_index(matrix: DecisionMatrix, eta_index: int) -> int:
    if isinstance(eta_index, bool) or not isinstance(eta_index, (int, np.integer)):
        raise IndexError(f"eta_index must be an integer, got {eta_index!r}")
    rows = len(matrix.included)
    if not 0 <= eta_index < rows:
        raise IndexError(f"eta_index {eta_index} outside 0..{rows - 1}")
    return int(eta_index)


def coverage(matrix: DecisionMatrix, theta: float, eta_index: int) -> float:
    """Probability under theta that the row at eta_index accepts the draw."""
    eta_index = _check_index(matrix, eta_index)
    pmf = binom_pmf_support(matrix.config.model, theta)
    return float(pmf[matrix.included[eta_index]].sum())


def type1_error(matrix: DecisionMatrix, eta_index: int) -> float:
    """The exact rejection rate under the row's own null: 1 - its achieved coverage."""
    return 1.0 - float(matrix.achieved_coverage[_check_index(matrix, eta_index)])


def confidence_region(matrix: DecisionMatrix, x_observed: int) -> ConfidenceRegion:
    """Invert the matrix at one observed outcome (grid values accepting it)."""
    x_observed = check_outcome(x_observed, matrix.config.model)
    idx = np.flatnonzero(matrix.included[:, x_observed])
    accepted = matrix.config.grid.points[idx]
    if idx.size == 0:
        return ConfidenceRegion(x_observed, accepted, math.nan, math.nan, True)
    contiguous = bool(idx[-1] - idx[0] + 1 == idx.size)
    return ConfidenceRegion(
        x_observed=x_observed,
        accepted=accepted,
        lower=float(accepted[0]),
        upper=float(accepted[-1]),
        contiguous=contiguous,
    )


def _thresholds(matrix: DecisionMatrix) -> np.ndarray:
    """Every row's threshold, exponentiated for the writers; raises ThresholdOverflowError past a double."""
    with np.errstate(over="ignore"):
        threshold = np.exp(matrix.log_threshold)
    bad = np.flatnonzero(~np.isfinite(threshold))
    if bad.size:
        eta = point(matrix.config.grid.points[bad[0]])
        raise ThresholdOverflowError(f"threshold at eta {eta} does not fit in a double ({bad.size} rows overflow)")
    return threshold


def _decision_matrix_chunks(matrix: DecisionMatrix):
    """The chunks of ``decision_matrix_to_csv``: a block of rows each, formatted as they are written.

    The thresholds are checked here, before the first chunk is asked for.
    """
    threshold = _thresholds(matrix).tolist()
    points = matrix.config.grid.points.tolist()
    x = matrix.config.model.outcomes()
    step = max(1, CHUNK_LINES // x.size)
    # "x,0" and "x,1" for every outcome, then a block of rows' cells in one index.
    cells = np.array([[f"{i},{flag}" for i in x.tolist()] for flag in "01"], dtype=object)

    def rows():
        for i in range(0, len(points), step):
            block = cells[matrix.included[i : i + step].view(np.uint8), x].tolist()
            for eta, thr, row in zip(points[i : i + step], threshold[i : i + step], block):
                # One row's lines in one join: the separator closes a line and opens the next.
                eta_s, thr_s = point(eta), value(thr)
                yield (f"{eta_s}," + f",{thr_s}\n{eta_s},".join(row) + f",{thr_s}",)

    return csv_chunks("eta,x,included,threshold", rows(), step)


def decision_matrix_to_csv(matrix: DecisionMatrix) -> str:
    """Long-form serialization: one line per (eta, x) pair.

    eta carries 6 decimal places and the row threshold 12 significant digits,
    repeated on every line of the row. Raises ThresholdOverflowError when a
    threshold does not fit in a double.
    """
    return "".join(_decision_matrix_chunks(matrix))


def _rows_summary_chunks(matrix: DecisionMatrix):
    """The chunks of ``rows_summary_csv``; the thresholds are checked here."""
    return grid_chunks(
        "eta,threshold,achieved_coverage", matrix.config.grid.points, _thresholds(matrix), matrix.achieved_coverage
    )


def rows_summary_csv(matrix: DecisionMatrix) -> str:
    """Per-row summary: eta, threshold, achieved coverage.

    Raises ThresholdOverflowError when a threshold does not fit in a double.
    """
    return "".join(_rows_summary_chunks(matrix))


def _region_chunks(matrix: DecisionMatrix, x_observed: int):
    """Whether each grid null accepts the observed outcome: eta,included."""
    return grid_chunks("eta,included", matrix.config.grid.points, matrix.included[:, x_observed].astype(int))


def decision_matrix_from_csv(text: str, config: TestConfig) -> DecisionMatrix:
    """Read back exactly what ``decision_matrix_to_csv`` writes for ``config``.

    Line 2 + j*(n+1) + x (the header is line 1) holds grid point j and
    outcome x; only its flag is parsed. Log thresholds and coverages are
    recomputed from the flags, which restores the built matrix bit for bit.
    Raises ValueError for a wrong header or line count, a flag other than 0
    or 1, a row covering less than 1 - level (an empty row covers 0), or a
    text that differs from what the rebuilt matrix writes (compared with the
    writer's chunks one at a time, so no second text is built), naming the first
    differing line with its expected text; line ends other than ``\n`` and
    a missing final newline differ too. An overflowing threshold raises
    ThresholdOverflowError, as the writer does.
    """
    lines = text.splitlines()
    if not lines or lines[0] != "eta,x,included,threshold":
        raise ValueError("not a decision-matrix CSV: bad header")
    grid, width = config.grid, config.model.n + 1
    if len(lines) != 1 + len(grid) * width:
        raise ValueError(
            f"{len(lines)} lines, but {len(grid)} grid points of {width} outcomes take {1 + len(grid) * width}"
        )
    flags = [line.split(",")[2:3] for line in lines[1:]]
    bad = next((i for i, flag in enumerate(flags) if flag not in (["0"], ["1"])), None)
    if bad is not None:
        raise ValueError(f"line {bad + 2}: included flag must be 0 or 1 in {lines[bad + 1]!r}")
    included = np.array([flag == ["1"] for flag in flags]).reshape(len(grid), width)

    log_kernel, log_g = _log_f_and_g(config.model, config.prior)(grid.points)
    pmf = np.exp(log_kernel)
    achieved = np.empty(len(grid))
    target = 1.0 - config.level
    for j, (eta, pmf_row, row) in enumerate(zip(grid.points, pmf, included)):
        achieved[j] = pmf_row[row].sum()
        if not achieved[j] >= target:
            raise ValueError(f"eta {point(eta)} covers {float(achieved[j])!r}, short of 1 - level = {target!r}")
    log_threshold = np.where(included, log_g, np.inf).min(axis=1)
    matrix = DecisionMatrix(config=config, included=included, log_threshold=log_threshold, achieved_coverage=achieved)
    # The text against what the matrix writes, a chunk at a time. The line counts
    # match, so a text whose start matches every chunk holds nothing more.
    chunks = _decision_matrix_chunks(matrix)
    start = 0
    for chunk in chunks:
        if not text.startswith(chunk, start):
            break
        start += len(chunk)
    else:
        return matrix
    if len(text) - start == len(chunk) - 1 and text.startswith(chunk[:-1], start):
        raise ValueError("the text lacks the final newline that the writer ends it with")
    # The lines before this chunk match, ends and all; look for the first line after them that reads otherwise.
    done = text.count("\n", 0, start)
    wanted = (line for written in itertools.chain([chunk], chunks) for line in written.splitlines())
    for i, want in enumerate(wanted, start=done):
        if want != lines[i]:
            raise ValueError(f"line {i + 1} is {lines[i]!r}, but the matrix it encodes writes {want!r}")
    # Every line reads alike, so the line ends differ: compare and show them too.
    got = text.splitlines(keepends=True)
    i = next(i for i, line in enumerate(got) if line != lines[i] + "\n")
    want = lines[i] + "\n"
    raise ValueError(f"line {i + 1} is {got[i]!r}, but the matrix it encodes writes {want!r}")
