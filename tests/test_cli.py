"""Command line behaviour: files written, reruns, config handling, exits."""

from __future__ import annotations

import os

import pytest

from avgpower import cli


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
        # Under Beta(1000, 1) the posterior density of low nulls exceeds the
        # double range: the command refuses to write inf instead of a number.
        out = str(tmp_path / "extreme")
        assert run(["construct", "--n", "1000", "--prior-a", "1000", "--prior-b", "1", "--out", out]) == 1
        assert "error: threshold at eta 0.002000 does not fit in a double" in capsys.readouterr().err
        assert os.listdir(out) == []


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

    def test_outcome_off_support_fails(self, tmp_path, capsys):
        out = str(tmp_path / "bad")
        assert run(["ci", "--x", "21", *small(out)]) == 1
        assert capsys.readouterr().err.startswith("error:")


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

    def test_theta_outside_unit_interval_fails(self, tmp_path, capsys):
        out = str(tmp_path / "p2")
        assert run(["power", "--theta", "1.5", *small(out)]) == 1
        assert "error:" in capsys.readouterr().err


class TestTable:
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


class TestCompareCp:
    def test_endpoints_and_means(self, tmp_path, capsys):
        out = str(tmp_path / "cp")
        assert run(["compare-cp", *small(out)]) == 0
        lines = read(os.path.join(out, "cp_comparison.csv")).splitlines()
        assert lines[0] == "x,cp_lower,cp_upper,prop_lower,prop_upper"
        assert len(lines) == 22
        assert "mean length proposed" in capsys.readouterr().out


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
        assert "overall agreement" in capsys.readouterr().out

    def test_impossible_threshold_fails(self, tmp_path):
        out = str(tmp_path / "mc1")
        assert run([*self.mc_args(out), "--min-agreement", "1.01"]) == 1

    def test_unreachable_ess_floor_fails(self, tmp_path, capsys):
        out = str(tmp_path / "mc2")
        assert run([*self.mc_args(out), "--ess-floor", "1e18"]) == 1
        assert "monte carlo failure" in capsys.readouterr().err


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

    def test_missing_file_fails(self, tmp_path, capsys):
        assert run(["construct", "--config", str(tmp_path / "nope.conf"), "--out", str(tmp_path / "x")]) == 1
        assert "error:" in capsys.readouterr().err
