"""The project's pytest warning filters let a failing property test report normally."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PAIR = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@given(st.integers())
@settings(database=None)
def test_fails(k):
    assert k < 10


def test_passes():
    pass
'''


def test_failing_property_test_is_reported(tmp_path):
    # Every warning is an error, and hypothesis's teardown after a failure can warn that
    # mypy_extensions.TypedDict is deprecated: unfiltered, pytest stops with INTERNALERROR,
    # the falsifying example is never printed and the later tests never run.
    (tmp_path / "test_pair.py").write_text(PAIR)
    argv = [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path)]
    argv += ["-p", "no:cacheprovider", "-q", "test_pair.py"]
    run = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "Falsifying example: test_fails(" in out
    assert "1 failed, 1 passed" in out.splitlines()[-1], out
