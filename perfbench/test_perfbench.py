"""Tests of the benchmark's own output checks and layer tracer.

    python3 -m pytest perfbench/test_perfbench.py

Each check must pass on the files the CLI writes and reject a deliberately
corrupted copy; two traced rounds must count the same calls.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
from avgpower import cli  # noqa: E402

SMALL = run.Workload(n=20, grid_points=49, mc_params=400, mc_data_per_param=50)
SEED = 7


def write_outputs(root: str):
    inputs = run.make_inputs(SMALL, SEED)
    calls = run.run_round(cli, SMALL, inputs, SEED, root)
    informative = os.path.join(root, "construct-informative")
    run.run_call(cli, run.command_line("construct", SMALL, inputs, SEED, informative, inputs.prior2), informative)
    return inputs, calls


def failures(root: str, inputs, mc_exit_code, mc_stdout: str) -> list:
    dirs = {name: os.path.join(root, name) for name in (*run.SUBCOMMANDS, "construct-informative")}
    return checks.check_outputs(dirs, inputs, mc_exit_code, mc_stdout)


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("clean"))
    inputs, calls = write_outputs(root)
    return root, inputs, calls


@pytest.fixture
def copy(clean, tmp_path):
    root, inputs, calls = clean
    target = str(tmp_path / "out")
    shutil.copytree(root, target)
    return target, inputs, calls


def edit_lines(path: str, edit) -> None:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    edit(lines)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def matrix_row(root: str, inputs, i: int) -> tuple:
    """(first line index, accepted outcomes) of null i in decision_matrix.csv."""
    with open(os.path.join(root, "construct", "decision_matrix.csv"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    start = 1 + i * (inputs.n + 1)
    accepted = [x for x in range(inputs.n + 1) if lines[start + x].split(",")[2] == "1"]
    return start, accepted


def set_flag(root: str, line: int, flag: str) -> None:
    def edit(lines):
        fields = lines[line].split(",")
        fields[2] = flag
        lines[line] = ",".join(fields)

    edit_lines(os.path.join(root, "construct", "decision_matrix.csv"), edit)


def drop_accepted_outcome(root, inputs):
    start, accepted = matrix_row(root, inputs, SMALL.grid_points // 2)
    set_flag(root, start + accepted[-1], "0")


def add_rejected_outcome(root, inputs):
    start, accepted = matrix_row(root, inputs, SMALL.grid_points // 2)
    set_flag(root, start + accepted[-1] + 1, "1")


def infinite_threshold(root, inputs):
    def edit(lines):
        fields = lines[10].split(",")
        fields[1] = "inf"
        lines[10] = ",".join(fields)

    edit_lines(os.path.join(root, "construct", "decision_rows.csv"), edit)


def flip_ci_flag(root, inputs):
    def edit(lines):
        eta, flag = lines[1].split(",")
        lines[1] = f"{eta},{1 - int(flag)}"

    edit_lines(os.path.join(root, "ci", f"ci_x{inputs.x}.csv"), edit)


def nudge_avg_power(root, inputs):
    def edit(lines):
        theta, value = lines[5].split(",")
        lines[5] = f"{theta},{float(value) * (1 + 1e-6):.12g}"

    edit_lines(os.path.join(root, "power", "avg_power.csv"), edit)


def swap_table1_columns(root, inputs):
    def edit(lines):
        for i in (1, 2):
            label, a, b = lines[i].split(",")
            lines[i] = f"{label},{b},{a}"

    edit_lines(os.path.join(root, "table1", "table1.csv"), edit)


def move_cp_endpoint(root, inputs):
    def edit(lines):
        fields = lines[6].split(",")
        fields[1] = format(float(fields[1]) + 1e-6, ".12g")
        lines[6] = ",".join(fields)

    edit_lines(os.path.join(root, "compare-cp", "cp_comparison.csv"), edit)


def low_agreement(root, inputs):
    def edit(lines):
        for i in range(1, len(lines)):
            lines[i] = lines[i].split(",")[0] + ",0.9"

    edit_lines(os.path.join(root, "mc-validate", "mc_agreement.csv"), edit)


@pytest.mark.parametrize(
    "corrupt, check",
    [
        (drop_accepted_outcome, "construct"),
        (add_rejected_outcome, "construct"),
        (infinite_threshold, "construct"),
        (flip_ci_flag, "ci"),
        (nudge_avg_power, "power"),
        (swap_table1_columns, "table1"),
        (move_cp_endpoint, "compare-cp"),
        (low_agreement, "mc-validate"),
    ],
)
def test_check_rejects_corrupted_output(copy, corrupt, check):
    root, inputs, calls = copy
    corrupt(root, inputs)
    mc = calls["mc-validate"]
    found = failures(root, inputs, mc.exit_code, mc.stdout)
    assert any(message.startswith(check + ":") for message in found), found


def test_clean_outputs_pass(clean):
    root, inputs, calls = clean
    assert all(call.ok for call in calls.values())
    mc = calls["mc-validate"]
    assert failures(root, inputs, mc.exit_code, mc.stdout) == []


def test_failed_mc_validate_is_rejected(clean):
    root, inputs, calls = clean
    mc = calls["mc-validate"]
    assert any(m.startswith("mc-validate:") for m in failures(root, inputs, 1, mc.stdout))


def test_traced_rounds_repeat_counts(tmp_path):
    inputs = run.make_inputs(SMALL, SEED)
    main = cli.main
    seen = []
    for k in range(2):
        with layertrace.Tracer() as tracer:
            run.run_round(cli, SMALL, inputs, SEED, str(tmp_path / str(k)))
        metrics = run.layer_metrics(tracer, bytes_written=1)
        seen.append({name: m["value"] for name, m in metrics.items() if m["unit"] == "count"})
        assert cli.main is main, "the tracer must restore the original bindings"
    assert seen[0] == seen[1]
    # One matrix per subcommand, two for table1.
    assert seen[0]["decisions.build_decision_matrix_calls"] == 7
    assert seen[0]["decisions.build_decision_row_calls"] == 7 * SMALL.grid_points
    assert seen[0]["monte_carlo.draws"] == SMALL.mc_params * SMALL.mc_data_per_param
    assert seen[0]["clopper_pearson.clopper_pearson_calls"] == SMALL.n + 1
    assert all(value > 0 for value in seen[0].values()), seen[0]


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
