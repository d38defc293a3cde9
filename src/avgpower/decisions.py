"""Decision matrices built by posterior-density ordering, and the confidence
regions obtained by inverting them.

Each row fixes a null value eta and rejects outcomes in order of increasing
posterior density relative to the prior for as long as their binomial mass
stays within the level; it admits the rest. Outcomes whose posterior
densities coincide within a relative tolerance form a tie group and are
admitted or rejected as a unit, which keeps symmetric configurations
symmetric.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .csvtext import CHUNK_LINES, grid_chunks, point, value
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
    exponentiate it. Its ``achieved_coverage`` is 1 minus the exact binomial
    mass of the rejected set under eta; that mass, summed over the rejected
    outcomes in outcome order, is at most level. The arrays are made
    read-only, since consumers share them uncopied.
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


def _rank(log_g: np.ndarray, mass: np.ndarray, allowance: float | np.ndarray) -> tuple:
    """Rank every row of a 2-d stack and reject, from the bottom of each ranking, the mass ``allowance`` allows.

    ``allowance`` is a scalar or a (rows, 1) column of them. Returns the
    inclusion flags (rows, width), the smallest admitted log g (rows,) and
    the rejected mass summed in outcome order (rows,), which is at most the
    row's allowance. A row whose whole mass fits in its allowance still
    admits its top tie group, so that every row has a finite threshold;
    rejecting less never breaks the bound.

    Each row is ranked ascending in log g by one stable argsort, and its
    masses are summed up from the bottom of the ranking. The cut is the
    first outcome whose running sum passes the allowance, walked down to the
    start of its tie group (``_whole_groups``); the outcomes at or above the
    cut's log g are admitted. The rejected masses are summed by one row-wise
    reduction per run of rows rejecting the same count: a C-ordered (rows, k)
    reduction along its last axis sums each row as numpy sums that row
    alone, so rows ranked together reject what they would alone. A row whose
    sum in outcome order, rounded differently, passes its allowance steps
    its cut back one more tie group. Rejecting nothing always fits, so every
    row finishes.
    """
    rows, width = log_g.shape
    # One flat take gathers the whole stack; take_along_axis costs more to
    # set up than the gather itself on rows of a hundred outcomes.
    firsts = np.arange(0, log_g.size, width)
    at = log_g.argsort(axis=1, kind="stable") + firsts[:, None]
    ranked = log_g.take(at)
    # The running sums never decrease, so the first past the allowance counts those within it; a
    # row whose whole mass fits cuts at its top outcome.
    over = mass.take(at).cumsum(axis=1) > allowance
    over[:, -1] = True
    cut = over.argmax(axis=1)
    while True:
        cut = _whole_groups(ranked, firsts, cut)
        log_threshold = ranked.take(firsts + cut)
        included = log_g >= log_threshold[:, None]
        # The rejected masses, row after row, each in outcome order; a run of rows rejecting k
        # outcomes each is summed as one (rows, k) array.
        masses = mass[~included]
        rejected = np.zeros(rows)
        row = done = 0
        for k, run in itertools.groupby(cut.tolist()):
            count = len(list(run))
            if k:
                rejected[row : row + count] = np.add.reduce(masses[done : done + count * k].reshape(count, k), axis=1)
                done += count * k
            row += count
        back = rejected > np.ravel(allowance)
        if not back.any():
            return included, log_threshold, rejected
        cut = cut - back


def _whole_groups(ranked: np.ndarray, firsts: np.ndarray, cut: np.ndarray) -> np.ndarray:
    """Walk each row's cut down to the start of the tie group it falls in.

    ``ranked`` holds each row's log g ascending, ``firsts`` the flat index of
    each row's first outcome, and ``cut`` how many of each row's outcomes lie
    below its cut. Adjacent ranked values chain into one tie group while
    their densities stay within TIE_RTOL of each other (equal infinities
    tie). A cut at a row's first outcome stays.
    """
    while True:
        # A cut at 0 reads the outcome before its row, clipped into the stack; the mask drops it.
        below = ranked.take(firsts + cut - 1, mode="clip")
        tied = (cut > 0) & (below >= ranked.take(firsts + cut) - _LOG_TIE_TOL)
        if not tied.any():
            return cut
        cut = cut - tied


def build_decision_row(eta: float, config: TestConfig, *, ranking: tuple | None = None) -> tuple:
    """Construct the acceptance set for one null value.

    Parameters
    ----------
    eta : float
        Null parameter, strictly inside (0, 1).
    config : TestConfig
        Level, model, and prior. The grid is not consulted here.
    ranking : optional
        This row's (included, log_threshold, rejected) from the block pass of
        ``build_decision_matrix``, which ranks many rows at once and rejects
        at most ``level`` of each. A row built alone is a block of one.

    Returns
    -------
    (included, log_threshold, achieved_coverage)
        One row of a DecisionMatrix, with the meanings given there: outcomes
        rejected in order of increasing posterior density while the exact
        binomial mass they hold under eta stays within level, and the rest
        admitted. Outcomes are ranked by log density, which stays finite
        where the density itself would overflow. Tie groups are rejected or
        admitted whole; the log threshold records the smallest admitted log
        density, and the achieved coverage is 1 minus the rejected mass.
    """
    eta = check_open_unit(eta, "eta")
    if ranking is None:
        (ranking,) = _rankings(config, np.array([eta]))
    included, log_threshold, rejected = ranking
    return included, log_threshold, 1.0 - float(rejected)


def _rankings(config: TestConfig, etas: np.ndarray):
    """Yield each null's (included, log_threshold, rejected), ranked a block of ``etas`` per pass.

    ln f and ln g are evaluated for one block at a time, against the
    beta-binomial mixture that ``_log_f_and_g`` evaluates once, and each row
    may reject ``level`` of its pmf.
    """
    log_f_and_g = _log_f_and_g(config.model, config.prior)
    step = max(1, _RANK_BLOCK // (config.model.n + 1))
    for i in range(0, len(etas), step):
        log_f, log_g = log_f_and_g(etas[i : i + step])
        yield from zip(*_rank(log_g, np.exp(log_f), config.level))


def build_decision_matrix(config: TestConfig) -> DecisionMatrix:
    """Build one decision row per grid point. Deterministic in config.

    Rows are ranked a block at a time (``_rankings``); each row then goes
    through ``build_decision_row``, which returns it with its coverage.
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
    """The exact rejection rate under the row's own null: its rejected pmf mass, summed as the build sums it."""
    eta_index = _check_index(matrix, eta_index)
    pmf = binom_pmf_support(matrix.config.model, matrix.config.grid.points[eta_index])
    return float(pmf[~matrix.included[eta_index]].sum())


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
    """The chunks of ``decision_matrix_to_csv``: the header, then a block of whole grid rows each.

    The thresholds are checked here, before the first chunk is asked for.
    """
    thresholds = [value(thr) for thr in _thresholds(matrix).tolist()]
    etas = [point(eta) for eta in matrix.config.grid.points.tolist()]
    x = matrix.config.model.outcomes()
    step = max(1, CHUNK_LINES // x.size)
    # "x,0" and "x,1" for every outcome, then a block of rows' cells in one index.
    cells = np.array([[f"{i},{flag}" for i in x.tolist()] for flag in "01"], dtype=object)

    def chunks():
        yield "eta,x,included,threshold\n"
        for i in range(0, len(etas), step):
            block = cells[matrix.included[i : i + step].view(np.uint8), x].tolist()
            # One row's lines in one join: the separator closes a line and opens the next.
            yield "".join(
                f"{eta}," + f",{thr}\n{eta},".join(row) + f",{thr}\n"
                for eta, thr, row in zip(etas[i : i + step], thresholds[i : i + step], block)
            )

    return chunks()


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
    recomputed from the flags, each coverage as 1 minus the row's rejected
    mass, which restores the built matrix bit for bit. Raises ValueError for
    a wrong header or line count, a flag other than 0 or 1, a row rejecting
    more than level of its null's mass (naming the mass it admits, 0 for an
    empty row, and the mass it rejects), or a text that differs from what
    the rebuilt matrix writes (compared with the writer's chunks one at a
    time, so no second text is built). That last error names the first line
    that differs, line ends included, beside its expected text, and shows
    the ends only when nothing else on that line differs; a missing final
    newline gets its own message. An overflowing threshold raises
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
    for j, (eta, pmf_row, row) in enumerate(zip(grid.points, pmf, included)):
        rejected = float(pmf_row[~row].sum())
        if not rejected <= config.level:
            covers = float(pmf_row[row].sum())
            raise ValueError(f"eta {point(eta)} covers {covers!r}: it rejects {rejected!r} > level {config.level!r}")
        achieved[j] = 1.0 - rejected
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
    # The lines before this chunk match, ends and all. Walk the rest, ends included, to the first
    # line that differs; it shows its ends only when nothing else on it differs.
    done = text.count("\n", 0, start)
    wanted = (line for written in itertools.chain([chunk], chunks) for line in written.splitlines(keepends=True))
    got = text[start:].splitlines(keepends=True)
    i, have, want = next((i, have, want) for i, have, want in zip(itertools.count(done), got, wanted) if have != want)
    if lines[i] != want[:-1]:
        have, want = lines[i], want[:-1]
    raise ValueError(f"line {i + 1} is {have!r}, but the matrix it encodes writes {want!r}")
