"""Checks of the avgpower CLI output files, computed apart from the program.

Every quantity is recomputed from the written files with ``scipy.stats``
(installed, but not a dependency of the package) and numpy, on a grid built
here with ``numpy.linspace``. The program's own modules are never imported.

Two kinds of check run:

* recomputation: row coverage, the power files, ``table1.csv`` and the
  Clopper-Pearson endpoints equal what the matrix's inclusion flags and the
  closed-form distributions give;
* properties of the method: every row is an interval in x and a superlevel
  set of g = f_eta / P_mix (in log space), dropping its lowest-g tie group
  leaves coverage below 1 - level, ``ci_x*.csv`` is a column of the matrix,
  each test wins on its own prior's row of ``table1.csv``, and the Monte Carlo
  rows agree with the exact matrix on at least 95% of the cells.

``check_outputs`` runs them all and returns the failures as messages. The
``inputs`` argument of every check is the ``Inputs`` of ``run.py``: the flags
the files were written with.
"""

from __future__ import annotations

import csv
import os
import re

import numpy as np
from scipy import stats

COVERAGE_TOL = 1e-9  # coverage may fall short of 1 - level by at most this
LOG_G_TOL = 1e-9  # log g values this close count as tied
CP_TOL = 1e-8  # absolute tolerance on Clopper-Pearson endpoints
VALUE_RTOL = 1e-9  # files print 12 significant digits
MIN_AGREEMENT = 0.95
TABLE_HEADER = ["Average power", "Informative test", "Non-informative test"]
TABLE_ROWS = ["Informative distribution of hypotheses", "Non-informative distribution of hypotheses"]


class CheckFailed(Exception):
    """An output file disagrees with its independent recomputation."""


def null_grid(inputs) -> np.ndarray:
    """The null grid, equally spaced over [grid_min, grid_max]."""
    return np.linspace(inputs.grid_min, inputs.grid_max, inputs.grid_points)


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _read_table(path: str, header: str, columns: int) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        _require(first == header, f"{os.path.basename(path)}: header {first!r}, expected {header!r}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    _require(data.shape[1] == columns, f"{os.path.basename(path)}: {data.shape[1]} columns, expected {columns}")
    return data


def _close(actual, expected, what: str, rtol: float = VALUE_RTOL, atol: float = 1e-12) -> None:
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    _require(actual.shape == expected.shape, f"{what}: shape {actual.shape}, expected {expected.shape}")
    bad = ~np.isclose(actual, expected, rtol=rtol, atol=atol, equal_nan=True)
    if bad.any():
        i = tuple(int(k) for k in np.argwhere(bad)[0])
        raise CheckFailed(f"{what}: {int(bad.sum())} values differ, first at {i}: {actual[i]!r} vs {expected[i]!r}")


def _cell_widths(points: np.ndarray) -> np.ndarray:
    if points.size == 1:
        return np.ones(1)
    w = np.empty(points.size)
    w[0], w[-1] = points[1] - points[0], points[-1] - points[-2]
    w[1:-1] = (points[2:] - points[:-2]) / 2.0
    return w


def _binom_pmf(n: int, thetas: np.ndarray) -> np.ndarray:
    return stats.binom.pmf(np.arange(n + 1)[None, :], n, np.asarray(thetas, dtype=float)[:, None])


def read_matrix(path: str, inputs) -> np.ndarray:
    """Boolean (grid x outcomes) inclusion flags of ``decision_matrix.csv``.

    Also checks the layout and that every threshold is finite.
    """
    n, grid = inputs.n, null_grid(inputs)
    data = _read_table(path, "eta,x,included,threshold", 4)
    _require(data.shape[0] == grid.size * (n + 1), f"decision_matrix.csv: {data.shape[0]} lines")
    cells = data.reshape(grid.size, n + 1, 4)
    _close(cells[:, :, 0], np.repeat(grid[:, None], n + 1, axis=1), "decision_matrix.csv eta", 0.0, 5.1e-7)
    _require(np.array_equal(cells[:, :, 1], np.tile(np.arange(n + 1), (grid.size, 1))), "decision_matrix.csv x column")
    flags = cells[:, :, 2]
    _require(np.isin(flags, (0.0, 1.0)).all(), "decision_matrix.csv: inclusion flags must be 0 or 1")
    _require(np.isfinite(cells[:, :, 3]).all(), "decision_matrix.csv: non-finite threshold")
    _require((cells[:, :, 3] == cells[:, :1, 3]).all(), "decision_matrix.csv: threshold varies within a row")
    return flags.astype(bool)


def check_matrix(included: np.ndarray, inputs, prior: tuple, rows_path: str | None = None) -> None:
    """The method's properties on every row, and the summary file if given."""
    n, level, grid = inputs.n, inputs.level, null_grid(inputs)
    x = np.arange(n + 1)
    _require(included.any(axis=1).all(), "a decision row accepts no outcome")

    first = included.argmax(axis=1)
    last = n - included[:, ::-1].argmax(axis=1)
    holes = np.flatnonzero(included.sum(axis=1) != last - first + 1)
    _require(holes.size == 0, f"row {holes[:1]} is not an interval in x")

    log_f = stats.binom.logpmf(x[None, :], n, grid[:, None])
    log_g = log_f - stats.betabinom.logpmf(x, n, *prior)[None, :]
    low = np.where(included, log_g, np.inf).min(axis=1)
    high_out = np.where(included, -np.inf, log_g).max(axis=1)
    bad = np.flatnonzero(high_out > low + LOG_G_TOL)
    _require(bad.size == 0, f"row {bad[:1]} is not a superlevel set of g: excluded log g {high_out[bad[:1]]} > {low[bad[:1]]}")

    pmf = np.exp(log_f)
    cover = (pmf * included).sum(axis=1)
    short = np.flatnonzero(cover < 1.0 - level - COVERAGE_TOL)
    _require(short.size == 0, f"row {short[:1]} covers {cover[short[:1]]} < {1.0 - level}")

    lowest = included & (log_g <= low[:, None] + LOG_G_TOL)
    without = cover - (pmf * lowest).sum(axis=1)
    slack = np.flatnonzero(without >= 1.0 - level)
    _require(slack.size == 0, f"row {slack[:1]} still covers {without[slack[:1]]} without its lowest-g tie group")

    if rows_path is not None:
        rows = _read_table(rows_path, "eta,threshold,achieved_coverage", 3)
        _require(rows.shape[0] == grid.size, f"decision_rows.csv: {rows.shape[0]} rows")
        _close(rows[:, 0], grid, "decision_rows.csv eta", 0.0, 5.1e-7)
        _require(np.isfinite(rows[:, 1]).all(), "decision_rows.csv: non-finite threshold")
        _close(rows[:, 1], np.exp(low), "decision_rows.csv threshold", rtol=1e-8)
        _close(rows[:, 2], cover, "decision_rows.csv achieved_coverage", rtol=0.0, atol=COVERAGE_TOL)


def check_ci(path: str, included: np.ndarray, inputs) -> None:
    data = _read_table(path, "eta,included", 2)
    _close(data[:, 0], null_grid(inputs), "ci eta", 0.0, 5.1e-7)
    _require(np.array_equal(data[:, 1], included[:, inputs.x]), f"ci_x{inputs.x}.csv differs from matrix column {inputs.x}")


def _power_curves(included: np.ndarray, n: int, thetas) -> np.ndarray:
    """Rejection probability, (theta x null)."""
    return np.clip(1.0 - _binom_pmf(n, thetas) @ included.T.astype(float), 0.0, 1.0)


def check_power(out_dir: str, included: np.ndarray, inputs) -> None:
    n, grid = inputs.n, null_grid(inputs)
    curves = _read_table(os.path.join(out_dir, "power_curves.csv"), "theta,eta,power", 3)
    expected = _power_curves(included, n, inputs.thetas)
    _close(curves[:, 0], np.repeat(inputs.thetas, grid.size), "power_curves.csv theta", 0.0, 5.1e-7)
    _close(curves[:, 1], np.tile(grid, len(inputs.thetas)), "power_curves.csv eta", 0.0, 5.1e-7)
    _close(curves[:, 2], expected.ravel(), "power_curves.csv power")

    mixed = _read_table(os.path.join(out_dir, "mixed_power.csv"), "eta,mixed_power", 2)
    bb = stats.betabinom.pmf(np.arange(n + 1), n, *inputs.prior)
    _close(mixed[:, 0], grid, "mixed_power.csv eta", 0.0, 5.1e-7)
    _close(mixed[:, 1], np.clip(1.0 - included @ bb, 0.0, 1.0), "mixed_power.csv mixed_power")

    avg = _read_table(os.path.join(out_dir, "avg_power.csv"), "theta,avg_power", 2)
    w = stats.beta.pdf(grid, *inputs.prior) * _cell_widths(grid)
    _close(avg[:, 0], grid, "avg_power.csv theta", 0.0, 5.1e-7)
    _close(avg[:, 1], _power_curves(included, n, grid) @ w / w.sum(), "avg_power.csv avg_power")


def overall_power(included: np.ndarray, inputs, prior: tuple) -> float:
    """Double grid average of power under ``prior`` (unnormalized measure)."""
    grid = null_grid(inputs)
    w = stats.beta.pdf(grid, *prior) * _cell_widths(grid)
    data_mix = w @ _binom_pmf(inputs.n, grid)
    return float(w.sum() ** 2 - data_mix @ (included.T.astype(float) @ w))


def check_table1(path: str, informative: np.ndarray, non_informative: np.ndarray, inputs) -> None:
    with open(path, encoding="utf-8", newline="") as fh:
        lines = list(csv.reader(fh))
    _require(len(lines) == 3 and lines[0] == TABLE_HEADER, f"table1.csv header {lines[:1]}")
    _require([row[0] for row in lines[1:]] == TABLE_ROWS, "table1.csv row labels")
    values = np.array([[float(v) for v in row[1:]] for row in lines[1:]])
    matrices = (informative, non_informative)
    expected = np.array([[overall_power(m, inputs, p) for m in matrices] for p in (inputs.prior2, inputs.prior)])
    _close(values, expected, "table1.csv")
    _require(values[0, 0] > values[0, 1], "table1.csv: the informative test loses under its own prior")
    _require(values[1, 1] > values[1, 0], "table1.csv: the non-informative test loses under its own prior")


def check_compare_cp(path: str, included: np.ndarray, inputs) -> None:
    n, grid, half = inputs.n, null_grid(inputs), inputs.level / 2.0
    data = _read_table(path, "x,cp_lower,cp_upper,prop_lower,prop_upper", 5)
    x = np.arange(n + 1)
    _require(np.array_equal(data[:, 0], x), "cp_comparison.csv x column")
    with np.errstate(invalid="ignore"):
        lower = np.where(x == 0, 0.0, stats.beta.ppf(half, x, n - x + 1))
        upper = np.where(x == n, 1.0, stats.beta.ppf(1.0 - half, x + 1, n - x))
    _close(data[:, 1], lower, "cp_comparison.csv cp_lower", rtol=0.0, atol=CP_TOL)
    _close(data[:, 2], upper, "cp_comparison.csv cp_upper", rtol=0.0, atol=CP_TOL)
    accepted = included.any(axis=0)
    first = np.where(accepted, grid[included.argmax(axis=0)], np.nan)
    last = np.where(accepted, grid[grid.size - 1 - included[::-1].argmax(axis=0)], np.nan)
    _close(data[:, 3], first, "cp_comparison.csv prop_lower")
    _close(data[:, 4], last, "cp_comparison.csv prop_upper")


_AGREEMENT_LINE = re.compile(r"overall agreement ([0-9.]+)")


def check_mc(path: str, exit_code, stdout: str, inputs) -> None:
    _require(exit_code == 0, f"mc-validate exited with {exit_code!r}")
    data = _read_table(path, "eta,agreement", 2)
    _close(data[:, 0], null_grid(inputs), "mc_agreement.csv eta", 0.0, 5.1e-7)
    _require(((data[:, 1] >= 0.0) & (data[:, 1] <= 1.0)).all(), "mc_agreement.csv: agreement outside [0, 1]")
    overall = float(data[:, 1].mean())
    _require(overall >= MIN_AGREEMENT, f"mc_agreement.csv: overall agreement {overall} < {MIN_AGREEMENT}")
    printed = _AGREEMENT_LINE.search(stdout)
    _require(printed is not None, "mc-validate printed no overall agreement")
    _require(abs(float(printed.group(1)) - overall) <= 5.1e-7, f"printed agreement {printed.group(1)} vs file {overall}")


def check_outputs(dirs: dict, inputs, mc_exit_code, mc_stdout: str) -> list:
    """Run every check; return one message per failed check.

    ``dirs`` maps each subcommand, and ``"construct-informative"`` (the
    matrix built with ``inputs.prior2``), to the directory it wrote to.
    """
    failures = []

    def run(name, check, *args):
        try:
            return check(*args)
        except (CheckFailed, OSError, ValueError) as exc:
            failures.append(f"{name}: {exc}")
            return None

    construct = dirs["construct"]
    matrix = run("construct", read_matrix, os.path.join(construct, "decision_matrix.csv"), inputs)
    informative = run(
        "construct-informative", read_matrix, os.path.join(dirs["construct-informative"], "decision_matrix.csv"), inputs
    )
    if informative is not None:
        run("construct-informative", check_matrix, informative, inputs, inputs.prior2)
    if matrix is None:
        return failures
    run("construct", check_matrix, matrix, inputs, inputs.prior, os.path.join(construct, "decision_rows.csv"))
    run("ci", check_ci, os.path.join(dirs["ci"], f"ci_x{inputs.x}.csv"), matrix, inputs)
    run("power", check_power, dirs["power"], matrix, inputs)
    if informative is not None:
        run("table1", check_table1, os.path.join(dirs["table1"], "table1.csv"), informative, matrix, inputs)
    run("compare-cp", check_compare_cp, os.path.join(dirs["compare-cp"], "cp_comparison.csv"), matrix, inputs)
    run("mc-validate", check_mc, os.path.join(dirs["mc-validate"], "mc_agreement.csv"), mc_exit_code, mc_stdout, inputs)
    return failures

