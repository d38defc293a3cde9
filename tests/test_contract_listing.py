"""The contract listing of tools/cli_hashes.py: its files, its help texts, its Monte Carlo array lines, its cleanup,
its refusal of a used directory.

The listing is how a change shows that it leaves the CLI's output alone, so
it is run here at its smallest configuration, n = 20 on G = 49.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from avgpower import BetaPrior, BinomialModel, McConfig, ParameterGrid, cli, make_binomial_plugin, mc_decision_rows

CLI_HASHES = Path(__file__).resolve().parents[1] / "tools" / "cli_hashes.py"


def _cli_hashes():
    spec = importlib.util.spec_from_file_location("cli_hashes", CLI_HASHES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


cli_hashes = _cli_hashes()


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(cli_hashes, "CONFIGS", {"n20_g49": cli_hashes.CONFIGS["n20_g49"]})
    return cli_hashes


def test_listing_holds_every_file_and_every_array(small, tmp_path):
    entries = small.write_all(str(tmp_path))
    paths = [path for path, _sha in entries]
    assert paths == sorted(paths)
    arrays = {path: sha for path, sha in entries if not (tmp_path / path).is_file()}
    assert len(entries) - len(arrays) == 35
    assert sorted(arrays) == sorted(f"n20_g49/mc_validate/{name}" for name in small.ARRAYS)
    assert cli.mc_decision_rows is mc_decision_rows

    rows = mc_decision_rows(
        make_binomial_plugin(BinomialModel(20), BetaPrior(0.5, 0.5)),
        McConfig(seed=1729, n_params=1000, n_data_per_param=100, level=0.05),
        ParameterGrid.regular(49, 0.02, 0.98).points.tolist(),
    )
    for name in small.ARRAYS:
        assert arrays[f"n20_g49/mc_validate/{name}"] == small.digest(getattr(rows, name)), name


def test_help_files_are_what_the_command_line_prints_at_any_terminal_width(small, monkeypatch, tmp_path):
    entries = small.write_all(str(tmp_path / "first"))
    assert [path for path, _sha in entries if path.startswith("help/")] == sorted(f"help/{n}.txt" for n in small.HELP)
    # Printed into a pipe, argparse wraps at 80 columns unless COLUMNS says otherwise.
    monkeypatch.delenv("COLUMNS", raising=False)
    env = {**os.environ, "PYTHONPATH": str(CLI_HASHES.parents[1] / "src")}
    for name in ("avgpower", "mc-validate"):
        argv = [sys.executable, "-m", "avgpower.cli", *small.HELP[name], "--help"]
        shown = subprocess.run(argv, env=env, capture_output=True, check=True).stdout
        assert (tmp_path / "first" / "help" / f"{name}.txt").read_bytes() == shown, name

    monkeypatch.setenv("COLUMNS", "200")
    assert small.write_all(str(tmp_path / "second")) == entries
    assert os.environ["COLUMNS"] == "200"


def test_failed_invocation_restores_the_monte_carlo_entry_point(small, monkeypatch, tmp_path):
    # The rows are built, then their 0.994 agreement falls short of 1 and the command exits 1.
    monkeypatch.setattr(small, "commands", lambda n: [("mc_validate", ["mc-validate", "--min-agreement", "1"])])
    with pytest.raises(SystemExit, match=r"^n20_g49/mc_validate: exit 1$"):
        small.write_all(str(tmp_path))
    assert cli.mc_decision_rows is mc_decision_rows


def test_refuses_an_out_directory_that_holds_files(small, tmp_path, capsys):
    # A file left there from an earlier run would be hashed as if the CLI had written it.
    (tmp_path / "n20_g49").mkdir()
    (tmp_path / "n20_g49" / "stale.csv").write_text("left over\n")
    with pytest.raises(SystemExit) as exit_:
        small.main_hashes(["--out", str(tmp_path)])
    assert exit_.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: --out {tmp_path} is not empty\n")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["n20_g49", "stale.csv"]
