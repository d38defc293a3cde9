"""Command-line front end emitting CSV artifacts.

Subcommands: construct, ci, power, table1, compare-cp, mc-validate. Every
run is a pure function of its flags (including the seed), so repeated runs
produce byte-identical files. Output is data only; plotting is left to
external tools.

Configuration can also come from a plain key=value file via --config; flags
override file values, which override the built-in defaults.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import os
import sys
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .clopper_pearson import _comparison_chunks, compare_lengths
from .decisions import (
    ParameterGrid,
    TestConfig,
    _decision_matrix_chunks,
    _region_chunks,
    _rows_summary_chunks,
    build_decision_matrix,
    confidence_region,
)
from .distributions import BetaPrior, BinomialModel, check_probability
from .monte_carlo import (
    DegenerateWeightsError,
    LowEffectiveSampleError,
    McConfig,
    _agreement_chunks,
    agreement_with_matrix,
    make_binomial_plugin,
    mc_decision_rows,
)
from .power import (
    _avg_power_chunks,
    _mixed_power_chunks,
    _power_curves_chunks,
    _power_table_chunks,
    overall_power_grid,
)

__all__ = [
    "RunConfig",
    "read_config_file",
    "cmd_construct",
    "cmd_ci",
    "cmd_power",
    "cmd_table1",
    "cmd_compare_cp",
    "cmd_mc_validate",
    "main",
]

DEFAULT_THETAS = (0.5, 0.55, 0.6)

# One entry per shared setting: (flag, RunConfig field, parser, help). The
# config-file key is the flag without its dashes, "-" becoming "_".
_SETTINGS = (
    ("--n", "n", int, "number of trials"),
    ("--alpha", "level", float, "test level"),
    ("--prior-a", "prior_a", float, "prior shape a"),
    ("--prior-b", "prior_b", float, "prior shape b"),
    ("--grid-points", "grid_points", int, "grid size"),
    ("--grid-min", "grid_min", float, "smallest grid value"),
    ("--grid-max", "grid_max", float, "largest grid value"),
    ("--seed", "seed", int, "random seed"),
    ("--out", "output_dir", str, "output directory"),
)
_CONFIG_KEYS = {flag[2:].replace("-", "_"): (field, parse) for flag, field, parse, _help in _SETTINGS}


@dataclass(frozen=True)
class RunConfig:
    """Resolved run parameters shared by all subcommands."""

    n: int = 100
    level: float = 0.05
    prior_a: float = 0.5
    prior_b: float = 0.5
    grid_points: int = 499
    grid_min: float = 0.002
    grid_max: float = 0.998
    seed: int = 1729
    output_dir: str = "."

    def test_config(self) -> TestConfig:
        return TestConfig(
            level=self.level,
            model=BinomialModel(n=self.n),
            prior=BetaPrior(a=self.prior_a, b=self.prior_b),
            grid=ParameterGrid.regular(self.grid_points, self.grid_min, self.grid_max),
        )


def read_config_file(path: str) -> dict:
    """Parse a key=value file; blank lines and #-comments are skipped."""
    values: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            field, parse = _CONFIG_KEYS[key]
            try:
                values[field] = parse(value.strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {value.strip()!r}") from exc
    return values


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge flag values over file values over defaults."""
    merged: dict = {}
    if args.config is not None:
        merged.update(read_config_file(args.config))
    for field, _parse in _CONFIG_KEYS.values():
        flag_value = getattr(args, field)
        if flag_value is not None:
            merged[field] = flag_value
    return RunConfig(**merged)


def _emit(config: RunConfig, files: Sequence[tuple[str, Iterable[str], str]]) -> None:
    """Create the output directory, then write every (name, chunks, note) file and report it.

    Each file comes as the chunks of its text, written one at a time as they
    are made. Callers compute everything that can raise before they call
    (the chunk writers check their inputs when called, not when iterated),
    so a command that fails before this call creates nothing. Each file goes
    to a temporary name in the output directory; the temporaries take their
    final names only once all of them are written and no final name is a
    directory, and are removed otherwise.
    """
    os.makedirs(config.output_dir, exist_ok=True)
    paths = [os.path.join(config.output_dir, name) for name, _chunks, _note in files]
    temps: list = []
    try:
        for name, chunks, _note in files:
            temp = os.path.join(config.output_dir, f".{name}.{os.getpid()}.tmp")
            with open(temp, "w", encoding="utf-8", newline="") as fh:
                temps.append(temp)
                fh.writelines(chunks)
        for path in paths:
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        for temp, path in zip(temps, paths):
            os.replace(temp, path)
    except BaseException:
        for temp in temps:
            with contextlib.suppress(OSError):
                os.remove(temp)
        raise
    for path, (_name, _chunks, note) in zip(paths, files):
        print(f"wrote {path}{note}")


def cmd_construct(config: RunConfig) -> int:
    """Write the full decision matrix and the per-row summary."""
    matrix = build_decision_matrix(config.test_config())
    n_rows, n_outcomes = matrix.included.shape
    _emit(
        config,
        [
            ("decision_matrix.csv", _decision_matrix_chunks(matrix), f" ({n_rows} nulls x {n_outcomes} outcomes)"),
            ("decision_rows.csv", _rows_summary_chunks(matrix), ""),
        ],
    )
    return 0


def cmd_ci(config: RunConfig, x: int) -> int:
    """Write the acceptance indicator over the grid for one outcome."""
    test = config.test_config()
    matrix = build_decision_matrix(test)
    region = confidence_region(matrix, x)
    if region.is_empty:
        print(f"x={x}: empty region")
    else:
        shape = "contiguous" if region.contiguous else "with gaps"
        print(
            f"x={x}: [{region.lower:.6f}, {region.upper:.6f}], "
            f"{region.accepted.size} of {len(test.grid)} grid values accepted, {shape}"
        )
    _emit(config, [(f"ci_x{x}.csv", _region_chunks(matrix, x), "")])
    return 0


def cmd_power(config: RunConfig, thetas: Sequence[float]) -> int:
    """Write power curves for the given thetas plus both averaged powers."""
    if len(thetas) == 0:
        raise ValueError("at least one theta is required")
    matrix = build_decision_matrix(config.test_config())
    _emit(
        config,
        [
            ("power_curves.csv", _power_curves_chunks(matrix, thetas), f" ({len(thetas)} curves)"),
            ("mixed_power.csv", _mixed_power_chunks(matrix), ""),
            ("avg_power.csv", _avg_power_chunks(matrix), ""),
        ],
    )
    return 0


def cmd_table1(config: RunConfig, informative_prior: BetaPrior) -> int:
    """Write the 2x2 overall-average-power table crossing two priors.

    The first test averages over config's (non-informative) prior, the
    second over ``informative_prior``; everything else they share.
    """
    non_informative = config.test_config()
    informative = replace(non_informative, prior=informative_prior)
    m_non = build_decision_matrix(non_informative)
    m_inf = build_decision_matrix(informative)
    values = overall_power_grid([m_inf, m_non], [informative.prior, non_informative.prior])
    _emit(config, [("table1.csv", _power_table_chunks(values), "")])
    return 0


def cmd_compare_cp(config: RunConfig) -> int:
    """Write per-outcome endpoints of the proposed and baseline intervals."""
    matrix = build_decision_matrix(config.test_config())
    comparison = compare_lengths(matrix)
    print(
        f"mean length proposed {comparison.mean_proposed_length:.6f} "
        f"vs baseline {comparison.mean_cp_length:.6f} "
        f"(grid step {comparison.grid_step:.6f})"
    )
    _emit(config, [("cp_comparison.csv", _comparison_chunks(comparison), "")])
    return 0


def cmd_mc_validate(config: RunConfig, mc: McConfig, min_agreement: float) -> int:
    """Compare Monte Carlo rows against the exact matrix on the same grid.

    The agreement file is written even when agreement falls below
    ``min_agreement``; the exit status then is 1.
    """
    min_agreement = check_probability(min_agreement, "min_agreement")
    test = config.test_config()
    plugin = make_binomial_plugin(test.model, test.prior)
    try:
        rows = mc_decision_rows(plugin, mc, [float(eta) for eta in test.grid.points])
    except (DegenerateWeightsError, LowEffectiveSampleError) as exc:
        print(f"monte carlo failure: {exc}", file=sys.stderr)
        return 1
    matrix = build_decision_matrix(test)
    report = agreement_with_matrix(rows, matrix)
    print(f"overall agreement {report.overall:.6f} (threshold {min_agreement:.6f})")
    lowest = int(rows.ess.argmin())
    print(f"minimum effective sample size {rows.ess[lowest]:.1f} at eta {rows.etas[lowest]:.6f}")
    _emit(config, [("mc_agreement.csv", _agreement_chunks(report), "")])
    if report.overall < min_agreement:
        print("agreement below threshold", file=sys.stderr)
        return 1
    return 0


def _run_mc_validate(config: RunConfig, args: argparse.Namespace) -> int:
    mc = McConfig(
        seed=config.seed,
        n_params=args.mc_params,
        n_data_per_param=args.mc_data_per_param,
        level=config.level,
        ess_floor=args.ess_floor,
    )
    return cmd_mc_validate(config, mc, args.min_agreement)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avgpower",
        description="Binomial confidence regions with maximal prior-averaged power.",
    )
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="key=value file; flags override its entries")
    defaults = RunConfig()
    for flag, field, parse, text in _SETTINGS:
        shared.add_argument(flag, dest=field, type=parse, help=f"{text} (default {getattr(defaults, field)})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", parents=[shared], help="build and write the decision matrix")
    p.set_defaults(run=lambda config, args: cmd_construct(config))

    p = sub.add_parser("ci", parents=[shared], help="confidence region for one observed outcome")
    p.add_argument("--x", type=int, required=True, help="observed number of successes")
    p.set_defaults(run=lambda config, args: cmd_ci(config, args.x))

    p = sub.add_parser("power", parents=[shared], help="power curves and averaged powers")
    p.add_argument(
        "--theta",
        type=float,
        action="append",
        help="data-generating value; repeatable (default: 0.5 0.55 0.6)",
    )
    p.set_defaults(run=lambda config, args: cmd_power(config, args.theta or DEFAULT_THETAS))

    p = sub.add_parser("table1", parents=[shared], help="2x2 overall average power across two priors")
    p.add_argument("--prior-a2", type=float, default=100.0, help="informative prior shape a (default 100)")
    p.add_argument("--prior-b2", type=float, default=100.0, help="informative prior shape b (default 100)")
    p.set_defaults(run=lambda config, args: cmd_table1(config, BetaPrior(a=args.prior_a2, b=args.prior_b2)))

    p = sub.add_parser("compare-cp", parents=[shared], help="interval endpoints versus the equal-tail baseline")
    p.set_defaults(run=lambda config, args: cmd_compare_cp(config))

    p = sub.add_parser("mc-validate", parents=[shared], help="Monte Carlo construction versus the exact matrix")
    p.add_argument("--mc-params", type=int, default=1000, help="parameter draws (default 1000)")
    p.add_argument(
        "--mc-data-per-param",
        type=int,
        default=100,
        help="data draws per parameter (default 100)",
    )
    p.add_argument(
        "--min-agreement",
        type=float,
        default=0.95,
        help="fail when overall agreement drops below this, in [0, 1] (default 0.95)",
    )
    p.add_argument(
        "--ess-floor",
        type=float,
        default=McConfig.ess_floor,
        help=f"minimum effective sample size per null (default {McConfig.ess_floor:g})",
    )
    p.set_defaults(run=_run_mc_validate)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(_resolve_config(args), args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
