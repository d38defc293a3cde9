"""Write the CLI's contract files and print their SHA-256 digests.

Runs eleven subcommand invocations (``construct`` with both priors, ``ci`` at
x = 0, n/2 and n, ``power`` at its default thetas and at 0.3 and 0.7,
``table1`` at its default second prior and at Beta(2, 8), ``compare-cp`` and
``mc-validate``) at four configurations, in one process through
``avgpower.cli.main``. That gives 17 files per configuration and 68 in all,
written under ``--out DIR``, which must be empty or missing. Each
invocation's stdout goes next to its files as ``stdout.txt``, with the
invocation's ``--out`` path replaced by ``<out>`` so that listings made in
different directories compare.

No file carries the rows that ``mc-validate`` builds, only their agreement
with the exact matrix. So each ``mc-validate`` invocation also adds one line
for each of the five arrays of its ``McDecisionMatrix`` (``outcomes``,
``included``, ``log_threshold``, ``estimated_coverage`` and ``ess``), at the
path ``<config>/mc_validate/<array>``; that digest covers the array's dtype,
shape and bytes. The ``--help`` of ``avgpower`` and of each subcommand goes
to ``help/<name>.txt``, wrapped at 80 columns whatever the terminal. The 119
files and 20 arrays are listed on stdout as 139 ``sha256  path`` lines
sorted by path, paths relative to DIR.

Compare two checkouts by running it in each and diffing the listings:

    python3 tools/cli_hashes.py --out /tmp/before > before.txt
    python3 tools/cli_hashes.py --out /tmp/after > after.txt
    diff before.txt after.txt

The package is imported from the ``src/`` next to this script, so each
checkout hashes its own code.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
from unittest import mock

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from avgpower import cli  # noqa: E402

ARRAYS = ("outcomes", "included", "log_threshold", "estimated_coverage", "ess")

HELP = {"avgpower": [], **{c: [c] for c in ("construct", "ci", "power", "table1", "compare-cp", "mc-validate")}}

# name -> (n, grid flags)
CONFIGS = {
    "n100_g499": (100, ["--grid-points", "499"]),
    "n100_g1001": (100, ["--grid-points", "1001"]),
    "n1000_g499": (1000, ["--grid-points", "499"]),
    "n20_g49": (20, ["--grid-points", "49", "--grid-min", "0.02", "--grid-max", "0.98"]),
}


def commands(n: int) -> list:
    """(subdirectory, argv) for every invocation at n trials."""
    return [
        ("construct_non", ["construct"]),
        ("construct_inf", ["construct", "--prior-a", "100", "--prior-b", "100"]),
        *((f"ci_x{x}", ["ci", "--x", str(x)]) for x in (0, n // 2, n)),
        ("power", ["power"]),
        ("power_thetas", ["power", "--theta", "0.3", "--theta", "0.7"]),
        ("table1", ["table1"]),
        ("table1_prior2", ["table1", "--prior-a2", "2", "--prior-b2", "8"]),
        ("compare_cp", ["compare-cp"]),
        ("mc_validate", ["mc-validate"]),
    ]


def write_all(out: str) -> list:
    """Run every invocation into ``out`` and return its (path, sha256) entries, sorted by path.

    There is one entry per written file, stdout captures included, and one per
    ``McDecisionMatrix`` array that an invocation builds.
    """
    os.makedirs(os.path.join(out, "help"), exist_ok=True)
    with mock.patch.dict(os.environ, COLUMNS="80"):  # argparse wraps help to the terminal's width
        for name, argv in HELP.items():
            with open(os.path.join(out, "help", f"{name}.txt"), "w", encoding="utf-8") as fh:
                fh.write(run([*argv, "--help"], f"help/{name}"))
    built, arrays = [], []
    build = cli.mc_decision_rows

    def keep(*args):
        built.append(build(*args))
        return built[-1]

    cli.mc_decision_rows = keep
    try:
        for name, (n, grid) in CONFIGS.items():
            for sub, argv in commands(n):
                target = os.path.join(out, name, sub)
                stdout = run([*argv, "--n", str(n), *grid, "--out", target], f"{name}/{sub}")
                with open(os.path.join(target, "stdout.txt"), "w", encoding="utf-8") as fh:
                    fh.write(stdout.replace(target, "<out>"))
                arrays += [(os.path.join(name, sub, a), digest(getattr(r, a))) for r in built for a in ARRAYS]
                built.clear()
    finally:
        cli.mc_decision_rows = build
    files = [os.path.relpath(os.path.join(root, f), out) for root, _dirs, names in os.walk(out) for f in names]
    return sorted([(rel, sha256(os.path.join(out, rel))) for rel in files] + arrays)


def run(argv: list, label: str) -> str:
    """The stdout of ``cli.main(argv)``; an exit status other than 0 stops the listing."""
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse exits after printing help
            code = exc.code
    if code != 0:
        raise SystemExit(f"{label}: exit {code}")
    return stdout.getvalue()


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def digest(array: np.ndarray) -> str:
    """SHA-256 of an array's dtype, shape and bytes."""
    array = np.ascontiguousarray(array)
    h = hashlib.sha256(f"{array.dtype.str} {array.shape}\n".encode())
    h.update(array.tobytes())
    return h.hexdigest()


def main_hashes(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="empty directory for the CLI files (created if missing)")
    args = parser.parse_args(argv)
    # Every file under DIR is listed, so one left from an earlier run would read as a CLI file.
    if os.path.isdir(args.out) and os.listdir(args.out):
        parser.error(f"--out {args.out} is not empty")
    for path, sha in write_all(args.out):
        print(f"{sha}  {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main_hashes())
