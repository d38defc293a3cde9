"""Print a SHA-256 digest of every Monte Carlo decision array that ``mc-validate`` builds.

The contract files of ``tools/cli_hashes.py`` carry only the agreement of the
Monte Carlo rows with the exact matrix, so a change to a row's
``log_threshold``, ``estimated_coverage`` or ``ess`` leaves them unchanged.
This runs ``mc-validate`` with its default settings at the four
configurations of ``tools/cli_hashes.py``, in one process through
``avgpower.cli.main``, and keeps the ``McDecisionMatrix`` the command builds.
It prints one ``sha256  <config>/<array>`` line per array, in a fixed order;
each digest covers the array's dtype, shape and bytes.

Compare two checkouts by running it in each and diffing the listings:

    python3 tools/mc_digests.py > before.txt
    python3 tools/mc_digests.py > after.txt
    diff before.txt after.txt

The package is imported from the ``src/`` next to this script, so each
checkout digests its own code.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from avgpower import cli  # noqa: E402
from cli_hashes import CONFIGS  # noqa: E402

ARRAYS = ("outcomes", "included", "log_threshold", "estimated_coverage", "ess")


def digest(array: np.ndarray) -> str:
    array = np.ascontiguousarray(array)
    h = hashlib.sha256(f"{array.dtype.str} {array.shape}\n".encode())
    h.update(array.tobytes())
    return h.hexdigest()


def mc_rows(argv: list):
    """The McDecisionMatrix that ``avgpower.cli.main(argv)`` builds; its files go to a temporary directory."""
    built = []
    build = cli.mc_decision_rows

    def keep(*args):
        built.append(build(*args))
        return built[-1]

    cli.mc_decision_rows = keep
    try:
        with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*argv, "--out", out])
    finally:
        cli.mc_decision_rows = build
    if code != 0 or len(built) != 1:
        raise SystemExit(f"{' '.join(argv)}: exit {code}, {len(built)} Monte Carlo matrices built")
    return built[0]


def main_digests(argv: list | None = None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    for name, (n, grid) in CONFIGS.items():
        rows = mc_rows(["mc-validate", "--n", str(n), *grid])
        for array in ARRAYS:
            print(f"{digest(getattr(rows, array))}  {name}/{array}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main_digests())
