"""Command line behaviour: files written, reruns, config handling, exits."""

from __future__ import annotations

import os
import re
import tracemalloc

import pytest

from avgpower import BinomialModel, ParameterGrid, cli
from avgpower.distributions import binom_pmf_support


def run(argv: list[str]) -> int:
    return cli.main(argv)


def read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def small(out: str, extra: list[str] | None = None) -> list[str]:
    # n=20 on a coarse grid keeps each invocation fast.
    argv = ["--n", "20", "--grid-points", "49", "--grid-min", "0.02", "--grid-max", "0.98", "--out", out]
    return argv + (extra or [])


class TestConstruct:
    def test_writes_matrix_and_rows(self, tmp_path):
        out = str(tmp_path / "a")
        assert run(["construct", *small(out)]) == 0
        matrix = read(os.path.join(out, "decision_matrix.csv")).splitlines()
        rows = read(os.path.join(out, "decision_rows.csv")).splitlines()
        assert matrix[0] == "eta,x,included,threshold"
        assert len(matrix) == 1 + 49 * 21
        assert rows[0] == "eta,threshold,achieved_coverage"
        assert len(rows) == 1 + 49

    def test_rerun_is_byte_identical(self, tmp_path):
        first = str(tmp_path / "a")
        second = str(tmp_path / "b")
        run(["construct", *small(first)])
        run(["construct", *small(second)])
        for name in ("decision_matrix.csv", "decision_rows.csv"):
            assert read(os.path.join(first, name)) == read(os.path.join(second, name))

    def test_prior_changes_inclusions(self, tmp_path):
        flat = str(tmp_path / "flat")
        peaked = str(tmp_path / "peaked")
        run(["construct", *small(flat)])
        run(["construct", *small(peaked, ["--prior-a", "100", "--prior-b", "100"])])
        assert read(os.path.join(flat, "decision_matrix.csv")) != read(
            os.path.join(peaked, "decision_matrix.csv")
        )

    def test_overflowing_threshold_fails(self, tmp_path, capsys):
        # Under these priors the posterior density of low nulls exceeds the
        # double range: the command refuses to write inf instead of a number.
        # In the last case the first such null is row 371, past the first
        # chunks of 8 rows that a file is written in, and still nothing is created.
        cases = [
            (["--n", "1000", "--prior-a", "1000", "--prior-b", "1"], "0.002000", ""),
            (["--n", "2000", "--prior-a", "1e4", "--prior-b", "1e4", "--grid-points", "49"], "0.002000", " (8 rows overflow)"),
            (["--n", "3000", "--prior-a", "1e4", "--prior-b", "0.01", "--grid-points", "49"], "0.002000", " (41 rows overflow)"),
            (["--n", "1000", "--prior-a", "1", "--prior-b", "1000"], "0.744000", " (128 rows overflow)"),
        ]
        for k, (flags, eta, rows) in enumerate(cases):
            out = str(tmp_path / f"extreme{k}")
            assert run(["construct", *flags, "--out", out]) == 1
            assert f"error: threshold at eta {eta} does not fit in a double{rows}" in capsys.readouterr().err
            assert not os.path.exists(out)

    def test_level_below_the_pmf_rounding_succeeds(self, tmp_path):
        # At n=1000 the pmf sums to about 1 - 3e-13, so no set of outcomes holds 1 - 1e-13 of it;
        # every row still rejects at most 1e-13.
        out = str(tmp_path / "tight")
        assert run(["construct", "--n", "1000", "--alpha", "1e-13", "--grid-points", "49", "--out", out]) == 0
        assert sorted(os.listdir(out)) == ["decision_matrix.csv", "decision_rows.csv"]
        lines = read(os.path.join(out, "decision_matrix.csv")).splitlines()[1:]
        assert len(lines) == 49 * 1001
        for j, eta in enumerate(ParameterGrid.regular(49).points):
            row = [line.split(",") for line in lines[j * 1001 : (j + 1) * 1001]]
            assert row[0][0] == f"{eta:.6f}"
            excluded = [int(x) for _, x, flag, _ in row if flag == "0"]
            assert binom_pmf_support(BinomialModel(1000), eta)[excluded].sum() <= 1e-13, eta

    def test_write_error_leaves_no_file_behind(self, tmp_path, capsys):
        # decision_rows.csv is a directory, so the second file cannot be
        # written: neither file may appear, and no temporary may remain.
        out = tmp_path / "a"
        (out / "decision_rows.csv").mkdir(parents=True)
        assert run(["construct", *small(str(out))]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: [Errno 21] Is a directory" in captured.err
        assert sorted(os.listdir(out)) == ["decision_rows.csv"]
        assert os.listdir(out / "decision_rows.csv") == []


class TestCi:
    def test_region_file_and_summary(self, tmp_path, capsys):
        out = str(tmp_path / "ci")
        assert run(["ci", "--x", "10", *small(out)]) == 0
        lines = read(os.path.join(out, "ci_x10.csv")).splitlines()
        assert lines[0] == "eta,included"
        assert len(lines) == 50
        stdout = capsys.readouterr().out
        assert "x=10:" in stdout and "contiguous" in stdout

    def test_zero_successes_reaches_grid_minimum(self, tmp_path, capsys):
        out = str(tmp_path / "ci0")
        run(["ci", "--x", "0", *small(out)])
        assert "[0.020000," in capsys.readouterr().out

    def test_empty_region(self, tmp_path, capsys):
        out = str(tmp_path / "empty")
        assert run(["ci", "--x", "0", "--grid-points", "1", "--out", out]) == 0
        assert "x=0: empty region" in capsys.readouterr().out
        assert read(os.path.join(out, "ci_x0.csv")) == "eta,included\n0.500000,0\n"

    def test_outcome_off_support_fails(self, tmp_path, capsys):
        out = str(tmp_path / "bad")
        assert run(["ci", "--x", "21", *small(out)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not os.path.exists(out)


class TestPower:
    def test_default_thetas(self, tmp_path):
        out = str(tmp_path / "p")
        assert run(["power", *small(out)]) == 0
        curves = read(os.path.join(out, "power_curves.csv")).splitlines()
        assert curves[0] == "theta,eta,power"
        assert len(curves) == 1 + 3 * 49
        assert read(os.path.join(out, "mixed_power.csv")).splitlines()[0] == "eta,mixed_power"
        assert read(os.path.join(out, "avg_power.csv")).splitlines()[0] == "theta,avg_power"

    def test_repeated_theta_flag(self, tmp_path):
        out = str(tmp_path / "p1")
        run(["power", "--theta", "0.7", *small(out)])
        curves = read(os.path.join(out, "power_curves.csv")).splitlines()
        assert len(curves) == 1 + 49
        assert curves[1].startswith("0.700000,")

    def test_no_theta_fails(self, tmp_path):
        with pytest.raises(ValueError, match="at least one theta is required"):
            cli.cmd_power(cli.RunConfig(output_dir=str(tmp_path / "p0")), [])

    def test_theta_outside_unit_interval_fails(self, tmp_path, capsys):
        # The file is written a chunk at a time, yet a bad theta after a good one still creates nothing.
        for k, thetas in enumerate((["1.5"], ["0.3", "1.5"])):
            out = str(tmp_path / f"p2{k}")
            assert run(["power", *(f"--theta={t}" for t in thetas), *small(out)]) == 1
            assert capsys.readouterr().err == "error: theta must lie in [0, 1], got 1.5\n"
            assert not os.path.exists(out)


    @pytest.mark.parametrize(
        "flags, prior, total",
        [
            (["--prior-a", "1e6", "--prior-b", "0.01"], "Beta(1000000.0, 0.01)", "0.0"),
            (["--grid-min", "5e-324", "--prior-a", "0.01"], "Beta(0.01, 0.5)", "inf"),
        ],
        ids=["mass-missed", "density-overflows"],
    )
    def test_measure_without_finite_positive_total_fails(self, tmp_path, capsys, flags, prior, total):
        # Before, the first wrote NaN to every avg_power.csv line and exited 0.
        out = str(tmp_path / "p3")
        assert run(["power", *small(out), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: the grid measure of the prior {prior} totals {total} on the 49-point grid")
        assert not os.path.exists(out)


class TestTable:
    def test_measure_without_finite_positive_total_fails(self, tmp_path, capsys):
        # Before, this wrote 0 to both cells of the second prior's row and exited 0.
        out = str(tmp_path / "t3")
        assert run(["table1", *small(out), "--prior-a2", "1e6", "--prior-b2", "0.01"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the grid measure of the prior Beta(1000000.0, 0.01) totals 0.0")
        assert not os.path.exists(out)

    def test_labels_and_shape(self, tmp_path):
        out = str(tmp_path / "t")
        assert run(["table1", *small(out)]) == 0
        lines = read(os.path.join(out, "table1.csv")).splitlines()
        assert lines[0] == "Average power,Informative test,Non-informative test"
        assert lines[1].startswith("Informative distribution of hypotheses,")
        assert lines[2].startswith("Non-informative distribution of hypotheses,")

    def test_swapping_priors_transposes_values(self, tmp_path):
        base = str(tmp_path / "t1")
        swapped = str(tmp_path / "t2")
        run(["table1", *small(base)])
        run(
            [
                "table1",
                *small(
                    swapped,
                    ["--prior-a", "100", "--prior-b", "100", "--prior-a2", "0.5", "--prior-b2", "0.5"],
                ),
            ]
        )

        def cells(path: str) -> list[list[str]]:
            rows = read(os.path.join(path, "table1.csv")).splitlines()[1:]
            return [r.split(",")[1:] for r in rows]

        a = cells(base)
        b = cells(swapped)
        assert a[0][0] == b[1][1] and a[0][1] == b[1][0]
        assert a[1][0] == b[0][1] and a[1][1] == b[0][0]


class TestHugePriorShape:
    @pytest.mark.parametrize(
        "argv, shapes",
        [
            (["table1", "--prior-a2", "1e306"], "a=1e+306, b=100.0"),
            (["construct", "--prior-a", "1e306"], "a=1e+306, b=0.5"),
            (["mc-validate", "--prior-a", "1e306"], "a=1e+306, b=0.5"),
        ],
        ids=["table1", "construct", "mc-validate"],
    )
    def test_log_beta_overflow_fails(self, tmp_path, capsys, argv, shapes):
        # Before, math.lgamma's OverflowError escaped as a traceback.
        out = str(tmp_path / "huge")
        assert run([*argv, *small(out)]) == 1
        assert capsys.readouterr().err == f"error: log_beta overflows the double range at {shapes}\n"
        assert not os.path.exists(out)


class TestTinyPriorShape:
    @pytest.mark.parametrize("command", ["construct", "power"])
    def test_shapes_far_below_n_succeed(self, tmp_path, capsys, command):
        # Before, b + n - x lost b = 1e-300 at x = n, and the command failed naming b=0.0.
        out = str(tmp_path / "tiny")
        assert run([command, "--n", "5", "--prior-a", "1e-300", "--prior-b", "1e-300", "--out", out]) == 0
        assert capsys.readouterr().err == ""


class TestCompareCp:
    def test_endpoints_and_means(self, tmp_path, capsys):
        out = str(tmp_path / "cp")
        assert run(["compare-cp", *small(out)]) == 0
        lines = read(os.path.join(out, "cp_comparison.csv")).splitlines()
        assert lines[0] == "x,cp_lower,cp_upper,prop_lower,prop_upper"
        assert len(lines) == 22
        assert "mean length proposed" in capsys.readouterr().out

    def test_level_whose_half_underflows(self, tmp_path):
        # level/2 rounds to zero: the baseline is its limit [0, 1] for every x.
        out = str(tmp_path / "cp")
        assert run(["compare-cp", "--n", "1", "--alpha", "5e-324", "--grid-points", "5", "--out", out]) == 0
        lines = read(os.path.join(out, "cp_comparison.csv")).splitlines()
        assert [line.split(",")[1:3] for line in lines[1:]] == [["0", "1"], ["0", "1"]]

    def test_empty_regions_write_empty_fields(self, tmp_path):
        # On a two-point grid no row accepts x = 1..9, so those regions are empty.
        out = str(tmp_path / "cp")
        assert run(["compare-cp", "--n", "10", "--grid-points", "2", "--out", out]) == 0
        lines = read(os.path.join(out, "cp_comparison.csv")).splitlines()
        assert not any(re.search(r"(^|,)(nan|-?inf)(,|$)", line) for line in lines)
        assert [x for x, line in enumerate(lines[1:]) if line.endswith(",,")] == list(range(1, 10))


class TestMcValidate:
    def mc_args(self, out: str) -> list[str]:
        return [
            "mc-validate",
            *small(out, ["--seed", "11", "--mc-params", "400", "--mc-data-per-param", "40"]),
        ]

    def test_passes_loose_threshold(self, tmp_path, capsys):
        out = str(tmp_path / "mc")
        assert run([*self.mc_args(out), "--min-agreement", "0.8"]) == 0
        lines = read(os.path.join(out, "mc_agreement.csv")).splitlines()
        assert lines[0] == "eta,agreement"
        assert len(lines) == 50
        printed = capsys.readouterr().out
        assert "overall agreement" in printed
        assert re.search(r"^minimum effective sample size \d+\.\d at eta 0\.\d{6}$", printed, re.MULTILINE)

    def test_impossible_threshold_fails(self, tmp_path):
        out = str(tmp_path / "mc1")
        assert run([*self.mc_args(out), "--min-agreement", "1.01"]) == 1

    def test_agreement_below_threshold_fails(self, tmp_path, capsys):
        out = str(tmp_path / "mc3")
        assert run([*self.mc_args(out), "--min-agreement", "1.0"]) == 1
        assert "agreement below threshold" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "-0.1", "1.5"])
    def test_min_agreement_outside_unit_interval_fails(self, tmp_path, capsys, value):
        out = str(tmp_path / "mc4")
        assert run([*self.mc_args(out), "--min-agreement", value]) == 1
        assert "error: min_agreement must lie in [0, 1]" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_parameter_count_past_32_bits_fails(self, tmp_path, capsys):
        out = str(tmp_path / "mc5")
        assert run([*self.mc_args(out), "--mc-params", str(2**32)]) == 1
        assert capsys.readouterr().err == "error: n_params must be below 2**32, got 4294967296\n"
        assert not os.path.exists(out)

    def test_unreachable_ess_floor_fails(self, tmp_path, capsys):
        out = str(tmp_path / "mc2")
        assert run([*self.mc_args(out), "--ess-floor", "1e18"]) == 1
        assert "monte carlo failure" in capsys.readouterr().err
        assert not os.path.exists(out)


class TestConfigFile:
    def test_file_values_apply_and_flags_override(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("n = 20\ngrid_points = 49\ngrid_min = 0.02\n# comment\ngrid_max = 0.98\nalpha = 0.1\n")
        out = str(tmp_path / "c")
        assert run(["construct", "--config", str(conf), "--alpha", "0.05", "--out", out]) == 0
        rows = read(os.path.join(out, "decision_rows.csv")).splitlines()
        assert len(rows) == 50
        # The flag wins over alpha=0.1: every row must cover at least 0.95.
        coverages = [float(r.split(",")[2]) for r in rows[1:]]
        assert min(coverages) >= 0.95

    def test_every_key_matches_its_flag(self, tmp_path):
        # Every value differs from its default, so a key that fed the wrong field would show.
        out = str(tmp_path / "o")
        conf = tmp_path / "all.conf"
        conf.write_text(
            "n = 30\nalpha = 0.1\nprior_a = 2\nprior_b = 3\ngrid_points = 21\n"
            f"grid_min = 0.05\ngrid_max = 0.95\nseed = 7\nout = {out}\n"
        )
        flags = [
            "--n", "30", "--alpha", "0.1", "--prior-a", "2", "--prior-b", "3", "--grid-points", "21",
            "--grid-min", "0.05", "--grid-max", "0.95", "--seed", "7", "--out", out,
        ]  # fmt: skip
        from_file = cli.RunConfig(**cli.read_config_file(str(conf)))
        from_flags = cli._resolve_config(cli._build_parser().parse_args(["construct", *flags]))
        expected = cli.RunConfig(
            n=30, level=0.1, prior_a=2.0, prior_b=3.0, grid_points=21,
            grid_min=0.05, grid_max=0.95, seed=7, output_dir=out,
        )  # fmt: skip
        assert from_file == from_flags == expected

    def test_unknown_key_fails(self, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text("gamma = 3\n")
        assert run(["construct", "--config", str(conf), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "gamma" in err

    def test_malformed_line_fails(self, tmp_path, capsys):
        conf = tmp_path / "bad2.conf"
        conf.write_text("n 20\n")
        assert run(["construct", "--config", str(conf), "--out", str(tmp_path / "x")]) == 1
        assert "bad2.conf:1" in capsys.readouterr().err

    def test_unparsable_value_fails(self, tmp_path, capsys):
        conf = tmp_path / "bad3.conf"
        conf.write_text("n=abc\n")
        out = str(tmp_path / "x")
        assert run(["construct", "--config", str(conf), "--out", out]) == 1
        assert capsys.readouterr().err == f"error: {conf}:1: bad value for 'n': 'abc'\n"
        assert not os.path.exists(out)

    def test_missing_file_fails(self, tmp_path, capsys):
        assert run(["construct", "--config", str(tmp_path / "nope.conf"), "--out", str(tmp_path / "x")]) == 1
        assert "error:" in capsys.readouterr().err


class TestWorkingMemory:
    """Peak traced allocation of one warm ``cli.main`` call, bounded well below what a whole-text writer or a
    whole-grid temporary takes.

    Measured with numpy 2.4 on Python 3.11: ``construct`` at n=100, G=1001
    peaks at 1.1 MiB (6.4 MiB while it held its 2.8 MB matrix text whole and
    built every row's temporaries at once), and ``mc-validate`` at the paper
    settings at 1.9 MiB (3.3 MiB while it pooled all 1000 parameters'
    likelihoods in one array).
    """

    @staticmethod
    def peak_mib(argv: list[str], capsys) -> float:
        assert run(argv) == 0  # warms the caches, so only the call's own working memory is traced
        tracemalloc.start()
        try:
            assert run(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        return peak / 2**20

    def test_construct_on_a_fine_grid(self, tmp_path, capsys):
        argv = ["construct", "--n", "100", "--grid-points", "1001", "--out", str(tmp_path / "m")]
        assert self.peak_mib(argv, capsys) < 1.5

    def test_mc_validate_at_the_paper_settings(self, tmp_path, capsys):
        assert self.peak_mib(["mc-validate", "--out", str(tmp_path / "v")], capsys) < 2.5
