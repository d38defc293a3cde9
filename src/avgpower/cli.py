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
import os
import sys
from dataclasses import dataclass, replace
from typing import Sequence

from .clopper_pearson import compare_lengths, comparison_csv
from .csvtext import csv_text, point
from .decisions import (
    ParameterGrid,
    TestConfig,
    build_decision_matrix,
    confidence_region,
    decision_matrix_to_csv,
    rows_summary_csv,
)
from .distributions import BetaPrior, BinomialModel, check_probability
from .monte_carlo import (
    DegenerateWeightsError,
    LowEffectiveSampleError,
    McConfig,
    agreement_csv,
    agreement_with_matrix,
    make_binomial_plugin,
    mc_decision_rows,
)
from .power import (
    avg_power_csv,
    mixed_power_csv,
    overall_power_grid,
    power_curve,
    power_curves_csv,
    power_table_csv,
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

TABLE_COLUMNS = ("Informative test", "Non-informative test")
TABLE_ROWS = (
    "Informative distribution of hypotheses",
    "Non-informative distribution of hypotheses",
)

# Config-file keys, their parsers, and the RunConfig fields they feed.
_CONFIG_KEYS = {
    "n": ("n", int),
    "alpha": ("level", float),
    "prior_a": ("prior_a", float),
    "prior_b": ("prior_b", float),
    "grid_points": ("grid_points", int),
    "grid_min": ("grid_min", float),
    "grid_max": ("grid_max", float),
    "seed": ("seed", int),
    "out": ("output_dir", str),
}


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
    for key, (field, _parse) in _CONFIG_KEYS.items():
        flag_value = getattr(args, field, None)
        if flag_value is not None:
            merged[field] = flag_value
    return RunConfig(**merged)


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _out_path(config: RunConfig, name: str) -> str:
    os.makedirs(config.output_dir, exist_ok=True)
    return os.path.join(config.output_dir, name)


def cmd_construct(config: RunConfig) -> int:
    """Write the full decision matrix and the per-row summary."""
    matrix = build_decision_matrix(config.test_config())
    matrix_path = _out_path(config, "decision_matrix.csv")
    rows_path = _out_path(config, "decision_rows.csv")
    _write(matrix_path, decision_matrix_to_csv(matrix))
    _write(rows_path, rows_summary_csv(matrix))
    n_rows, n_outcomes = matrix.included.shape
    print(f"wrote {matrix_path} ({n_rows} nulls x {n_outcomes} outcomes)")
    print(f"wrote {rows_path}")
    return 0


def cmd_ci(config: RunConfig, x: int) -> int:
    """Write the acceptance indicator over the grid for one outcome."""
    test = config.test_config()
    matrix = build_decision_matrix(test)
    region = confidence_region(matrix, x)
    flags = matrix.included[:, x].astype(int)
    path = _out_path(config, f"ci_x{x}.csv")
    _write(path, csv_text("eta,included", ((point(eta), str(flag)) for eta, flag in zip(test.grid.points, flags))))
    if region.is_empty:
        print(f"x={x}: empty region")
    else:
        shape = "contiguous" if region.contiguous else "with gaps"
        print(
            f"x={x}: [{region.lower:.6f}, {region.upper:.6f}], "
            f"{region.accepted.size} of {len(test.grid)} grid values accepted, {shape}"
        )
    print(f"wrote {path}")
    return 0


def cmd_power(config: RunConfig, thetas: Sequence[float]) -> int:
    """Write power curves for the given thetas plus both averaged powers."""
    if len(thetas) == 0:
        raise ValueError("at least one theta is required")
    for theta in thetas:
        check_probability(theta)
    test = config.test_config()
    matrix = build_decision_matrix(test)
    curves = [power_curve(matrix, theta) for theta in thetas]
    curves_path = _out_path(config, "power_curves.csv")
    mixed_path = _out_path(config, "mixed_power.csv")
    avg_path = _out_path(config, "avg_power.csv")
    _write(curves_path, power_curves_csv(curves, test.grid.points))
    _write(mixed_path, mixed_power_csv(matrix))
    _write(avg_path, avg_power_csv(matrix))
    print(f"wrote {curves_path} ({len(curves)} curves)")
    print(f"wrote {mixed_path}")
    print(f"wrote {avg_path}")
    return 0


def cmd_table1(non_informative: RunConfig, informative: RunConfig) -> int:
    """Write the 2x2 overall-average-power table crossing the two priors.

    Row and column labels assume the conventional prior roles: the second
    config carries the informative (concentrated) prior, the first the
    non-informative one.
    """
    for field in ("n", "level", "grid_points", "grid_min", "grid_max"):
        if getattr(non_informative, field) != getattr(informative, field):
            raise ValueError(f"the two configs must agree on {field}")
    m_non = build_decision_matrix(non_informative.test_config())
    m_inf = build_decision_matrix(informative.test_config())
    p_non = BetaPrior(a=non_informative.prior_a, b=non_informative.prior_b)
    p_inf = BetaPrior(a=informative.prior_a, b=informative.prior_b)
    values = overall_power_grid([m_inf, m_non], [p_inf, p_non])
    path = _out_path(non_informative, "table1.csv")
    _write(path, power_table_csv(values, list(TABLE_ROWS), list(TABLE_COLUMNS)))
    print(f"wrote {path}")
    return 0


def cmd_compare_cp(config: RunConfig) -> int:
    """Write per-outcome endpoints of the proposed and baseline intervals."""
    matrix = build_decision_matrix(config.test_config())
    comparison = compare_lengths(matrix)
    path = _out_path(config, "cp_comparison.csv")
    _write(path, comparison_csv(comparison))
    print(
        f"mean length proposed {comparison.mean_proposed_length:.6f} "
        f"vs baseline {comparison.mean_cp_length:.6f} "
        f"(grid step {comparison.grid_step:.6f})"
    )
    print(f"wrote {path}")
    return 0


def cmd_mc_validate(config: RunConfig, mc: McConfig, min_agreement: float) -> int:
    """Compare Monte Carlo rows against the exact matrix on the same grid."""
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
    path = _out_path(config, "mc_agreement.csv")
    _write(path, agreement_csv(report, test.grid.points))
    print(f"overall agreement {report.overall:.6f} (threshold {min_agreement:.6f})")
    lowest = min(rows, key=lambda row: row.ess)
    print(f"minimum effective sample size {lowest.ess:.1f} at eta {lowest.eta:.6f}")
    print(f"wrote {path}")
    if report.overall < min_agreement:
        print("agreement below threshold", file=sys.stderr)
        return 1
    return 0


def _add_shared_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value file; flags override its entries")
    parser.add_argument("--n", type=int, help="number of trials (default 100)")
    parser.add_argument("--alpha", dest="level", type=float, help="test level (default 0.05)")
    parser.add_argument("--prior-a", dest="prior_a", type=float, help="prior shape a (default 0.5)")
    parser.add_argument("--prior-b", dest="prior_b", type=float, help="prior shape b (default 0.5)")
    parser.add_argument("--grid-points", dest="grid_points", type=int, help="grid size (default 499)")
    parser.add_argument("--grid-min", dest="grid_min", type=float, help="smallest grid value (default 0.002)")
    parser.add_argument("--grid-max", dest="grid_max", type=float, help="largest grid value (default 0.998)")
    parser.add_argument("--seed", type=int, help="random seed (default 1729)")
    parser.add_argument("--out", dest="output_dir", help="output directory (default current)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avgpower",
        description="Binomial confidence regions with maximal prior-averaged power.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build and write the decision matrix")
    _add_shared_flags(p)

    p = sub.add_parser("ci", help="confidence region for one observed outcome")
    _add_shared_flags(p)
    p.add_argument("--x", type=int, required=True, help="observed number of successes")

    p = sub.add_parser("power", help="power curves and averaged powers")
    _add_shared_flags(p)
    p.add_argument(
        "--theta",
        type=float,
        action="append",
        help="data-generating value; repeatable (default: 0.5 0.55 0.6)",
    )

    p = sub.add_parser("table1", help="2x2 overall average power across two priors")
    _add_shared_flags(p)
    p.add_argument("--prior-a2", dest="prior_a2", type=float, help="informative prior shape a (default 100)")
    p.add_argument("--prior-b2", dest="prior_b2", type=float, help="informative prior shape b (default 100)")

    p = sub.add_parser("compare-cp", help="interval endpoints versus the equal-tail baseline")
    _add_shared_flags(p)

    p = sub.add_parser("mc-validate", help="Monte Carlo construction versus the exact matrix")
    _add_shared_flags(p)
    p.add_argument("--mc-params", dest="mc_params", type=int, default=1000, help="parameter draws (default 1000)")
    p.add_argument(
        "--mc-data-per-param",
        dest="mc_data_per_param",
        type=int,
        default=100,
        help="data draws per parameter (default 100)",
    )
    p.add_argument(
        "--min-agreement",
        dest="min_agreement",
        type=float,
        default=0.95,
        help="fail when overall agreement drops below this, in [0, 1] (default 0.95)",
    )
    p.add_argument(
        "--ess-floor",
        dest="ess_floor",
        type=float,
        default=100.0,
        help="minimum effective sample size per null (default 100)",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _resolve_config(args)
        if args.command == "construct":
            return cmd_construct(config)
        if args.command == "ci":
            return cmd_ci(config, args.x)
        if args.command == "power":
            thetas = args.theta if args.theta is not None else list(DEFAULT_THETAS)
            return cmd_power(config, thetas)
        if args.command == "table1":
            informative = replace(
                config,
                prior_a=args.prior_a2 if args.prior_a2 is not None else 100.0,
                prior_b=args.prior_b2 if args.prior_b2 is not None else 100.0,
            )
            return cmd_table1(config, informative)
        if args.command == "compare-cp":
            return cmd_compare_cp(config)
        if args.command == "mc-validate":
            mc = McConfig(
                seed=config.seed,
                n_params=args.mc_params,
                n_data_per_param=args.mc_data_per_param,
                level=config.level,
                ess_floor=args.ess_floor,
            )
            return cmd_mc_validate(config, mc, args.min_agreement)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
