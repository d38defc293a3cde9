"""End-to-end benchmark of the avgpower CLI, run in a single process.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``. One
run times a fresh interpreter's import of ``avgpower.cli`` a few times, makes
one untimed warm-up round of the six subcommands, then makes timed rounds
until ``--seconds`` have passed. A round calls each subcommand once, in the
same order, through ``avgpower.cli.main``, so a slow phase of the machine
reaches every metric alike. ``gc.collect()`` runs between calls, outside the
timed region. With ``--trace 1`` one more round runs under the layer tracer
and the run reports per-layer metrics instead of the end-to-end ones.

Every call's files must hash the same as the warm-up call's; the warm-up
files then pass the independent checks in ``checks.py``. The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (each ``{"value", "unit"}``).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".bench_out")

# One BLAS thread: with two on a 2-vCPU machine, matrix products contend with
# the interpreter thread and widen the spread of every timing.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# probe()'s median time on the machine the bounds were set on (2-vCPU KVM
# guest, Intel Xeon, Python 3.11.7, numpy 2.4.6). Times are reported at this
# reference speed: see probe().
PROBE_REF_S = 0.030

SUBCOMMANDS = ("construct", "ci", "power", "table1", "compare-cp", "mc-validate")
SETUP_LAUNCHES = 7
LEVEL = 0.05
PRIOR = (0.5, 0.5)
INFORMATIVE_PRIOR = (100.0, 100.0)


@dataclass(frozen=True)
class Workload:
    """CLI flags that differ between workloads; the rest are shared."""

    n: int
    grid_points: int
    mc_params: int = 1000
    mc_data_per_param: int = 100


WORKLOADS = {
    # The paper's configuration: MC data sampling dominates, exact layers are light.
    "paper": Workload(n=100, grid_points=499),
    # Per-null work dominates: avg_power_csv is O(G^2), and the row builds and
    # MC rows grow with G; CP stays as light as on paper.
    "fine-grid": Workload(n=100, grid_points=1001),
    # Per-outcome work dominates: CP bisection, the 500k-line matrix CSV, MC
    # pooling. A round takes about 12 s, so no run that fits the time budget
    # holds enough rounds to be steady; it is not in BENCHMARK.json and serves
    # traced runs and manual comparisons.
    "large-n": Workload(n=1000, grid_points=499),
}

END_TO_END = (
    ("setup_s", "s"),
    ("construct_s", "s"),
    ("ci_s", "s"),
    ("power_s", "s"),
    ("table1_s", "s"),
    ("compare_cp_s", "s"),
    ("mc_validate_s", "s"),
    ("peak_rss_mb", "MiB"),
)

PER_LAYER = (
    ("distributions.binom_log_pmf_support_calls", "count"),
    ("distributions.binom_log_pmf_support_s", "s"),
    ("distributions.beta_log_pdf_calls", "count"),
    ("distributions.beta_log_pdf_s", "s"),
    ("distributions.beta_binom_log_pmf_support_calls", "count"),
    ("distributions.binom_pmf_calls", "count"),
    ("distributions.binom_pmf_s", "s"),
    ("decisions.build_decision_matrix_calls", "count"),
    ("decisions.build_decision_matrix_s", "s"),
    ("decisions.build_decision_row_calls", "count"),
    ("decisions.inclusion_matrix_calls", "count"),
    ("decisions.inclusion_matrix_s", "s"),
    ("decisions.confidence_region_calls", "count"),
    ("decisions.confidence_region_s", "s"),
    ("decisions.decision_matrix_to_csv_s", "s"),
    ("decisions.rows_summary_csv_s", "s"),
    ("power.power_curve_calls", "count"),
    ("power.avg_power_csv_s", "s"),
    ("power.mixed_power_csv_s", "s"),
    ("power.power_curves_csv_s", "s"),
    ("power.average_power_report_s", "s"),
    ("clopper_pearson.clopper_pearson_calls", "count"),
    ("clopper_pearson.clopper_pearson_s", "s"),
    ("clopper_pearson.tail_evals", "count"),
    ("clopper_pearson.compare_lengths_s", "s"),
    ("clopper_pearson.comparison_csv_s", "s"),
    ("monte_carlo.mc_sample_data_s", "s"),
    ("monte_carlo.mc_sample_params_s", "s"),
    ("monte_carlo.pool_samples_s", "s"),
    ("monte_carlo.distinct_outcomes", "count"),
    ("monte_carlo.mc_build_decision_row_calls", "count"),
    ("monte_carlo.mc_build_decision_row_s", "s"),
    ("monte_carlo.agreement_with_matrix_s", "s"),
    ("monte_carlo.agreement_csv_s", "s"),
    ("monte_carlo.draws", "count"),
    ("cli.self_s", "s"),
    ("cli.bytes_written", "bytes"),
)


@dataclass(frozen=True)
class Inputs:
    """The flags one set of output files is written with."""

    n: int
    grid_points: int
    level: float
    prior: tuple
    prior2: tuple
    x: int
    thetas: tuple
    # The CLI's default grid range: the calls do not pass --grid-min/--grid-max.
    grid_min: float = 0.002
    grid_max: float = 0.998


@dataclass
class Call:
    """One subcommand call: exit code, wall time, stdout and file hashes."""

    exit_code: object
    seconds: float
    scaled: float
    stdout: str
    hashes: dict

    @property
    def ok(self) -> bool:
        return self.exit_code == 0


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """The flags of one run. The observed x and the power thetas come from the seed."""
    rng = random.Random(seed)
    x = rng.randint(0, workload.n)
    thetas = tuple(sorted(round(rng.uniform(0.05, 0.95), 6) for _ in range(3)))
    return Inputs(
        n=workload.n,
        grid_points=workload.grid_points,
        level=LEVEL,
        prior=PRIOR,
        prior2=INFORMATIVE_PRIOR,
        x=x,
        thetas=thetas,
    )


def command_line(sub: str, workload: Workload, inputs, seed: int, out: str, prior: tuple = PRIOR) -> list:
    """argv for ``avgpower.cli.main``."""
    args = [
        sub,
        "--n", str(inputs.n),
        "--alpha", repr(inputs.level),
        "--prior-a", repr(prior[0]),
        "--prior-b", repr(prior[1]),
        "--grid-points", str(inputs.grid_points),
        "--seed", str(seed),
        "--out", out,
    ]  # fmt: skip
    if sub == "ci":
        args += ["--x", str(inputs.x)]
    elif sub == "power":
        for theta in inputs.thetas:
            args += ["--theta", repr(theta)]
    elif sub == "table1":
        args += ["--prior-a2", repr(inputs.prior2[0]), "--prior-b2", repr(inputs.prior2[1])]
    elif sub == "mc-validate":
        args += ["--mc-params", str(workload.mc_params), "--mc-data-per-param", str(workload.mc_data_per_param)]
    return args


def file_hashes(directory: str) -> dict:
    hashes = {}
    if os.path.isdir(directory):
        for name in sorted(os.listdir(directory)):
            digest = hashlib.sha256()
            with open(os.path.join(directory, name), "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(block)
            hashes[name] = digest.hexdigest()
    return hashes


def probe() -> float:
    """Wall time of a fixed calibration job, about 30 ms.

    The job mixes what the program spends its time on: interpreter work,
    small numpy calls, and building numpy random generators. The machine is
    shared, and its speed drifts by a fifth or more over tens of seconds,
    which no run length that fits the time budget averages out. The probe is
    timed right before and right after each measured operation, and the
    operation's time is scaled by ``PROBE_REF_S`` over their mean: seconds at
    the reference speed. A change in the program moves the scaled time as it
    moves the wall time; a change in the machine's speed mostly does not.
    """
    import numpy as np

    values = np.linspace(0.0, 1.0, 256)
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    for _ in range(2000):
        np.exp(values).sum()
    for j in range(600):
        np.random.Generator(np.random.Philox(np.random.SeedSequence((7, 1, j)))).binomial(100, 0.3)
    return time.perf_counter() - start


def scale(seconds: float, before: float, after: float) -> float:
    return seconds * 2.0 * PROBE_REF_S / (before + after)


def run_call(cli, argv: list, out_dir: str) -> Call:
    """Call the CLI in process; only ``cli.main`` itself is timed."""
    shutil.rmtree(out_dir, ignore_errors=True)
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    before = probe()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = "exception"
            traceback.print_exc()
        seconds = time.perf_counter() - start
    after = probe()
    if code != 0:
        print(f"perfbench: {argv[0]} exited with {code!r}: {err.getvalue().strip()}", file=sys.stderr)
    return Call(code, seconds, scale(seconds, before, after), out.getvalue(), file_hashes(out_dir))


def run_round(cli, workload: Workload, inputs, seed: int, out_root: str) -> dict:
    return {
        sub: run_call(cli, command_line(sub, workload, inputs, seed, os.path.join(out_root, sub)), os.path.join(out_root, sub))
        for sub in SUBCOMMANDS
    }


def time_setup() -> float:
    """Time for a fresh interpreter to import avgpower.cli (numpy included), scaled."""
    env = dict(os.environ, PYTHONPATH=SRC)
    before = probe()
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", "import avgpower.cli"], env=env, cwd=ROOT, capture_output=True)
    seconds = time.perf_counter() - start
    after = probe()
    if done.returncode != 0:
        raise RuntimeError(f"importing avgpower.cli failed: {done.stderr.decode(errors='replace').strip()}")
    return scale(seconds, before, after)


def layer_metrics(tracer, bytes_written: int) -> dict:
    """Per-layer values named ``<module>.<function>_calls`` or ``_s``, plus the counters."""
    special = {
        "clopper_pearson.tail_evals": tracer.binding_calls[("clopper_pearson", "distributions.binom_pmf_support")],
        "monte_carlo.distinct_outcomes": tracer.distinct_outcomes,
        "monte_carlo.draws": tracer.draws,
        "cli.self_s": tracer.self_s["cli.main"],
        "cli.bytes_written": bytes_written,
    }
    values = {}
    for name, unit in PER_LAYER:
        if name in special:
            value = special[name]
        elif name.endswith("_calls"):
            value = tracer.calls[name[: -len("_calls")]]
        else:
            value = tracer.self_s[name[: -len("_s")]]
        values[name] = {"value": value, "unit": unit}
    return values


def benchmark(workload_name: str, seed: int, seconds: int, trace: bool, work_dir: str) -> dict:
    from avgpower import cli

    import layertrace

    workload = WORKLOADS[workload_name]
    inputs = make_inputs(workload, seed)
    failures = []

    setup = [] if trace else [time_setup() for _ in range(SETUP_LAUNCHES)]
    ref_root = os.path.join(work_dir, "ref")
    ref = run_round(cli, workload, inputs, seed, ref_root)
    rounds = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        rounds.append(run_round(cli, workload, inputs, seed, os.path.join(work_dir, "run")))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    traced = None
    if trace:
        traced_root = os.path.join(work_dir, "traced")
        with layertrace.Tracer() as tracer:
            traced = run_round(cli, workload, inputs, seed, traced_root)
        bytes_written = sum(
            os.path.getsize(os.path.join(d, f)) for d in (os.path.join(traced_root, s) for s in SUBCOMMANDS) for f in os.listdir(d)
        )

    all_rounds = [ref, *rounds] + ([traced] if traced else [])
    calls = [call for rnd in all_rounds for call in rnd.values()]
    for sub in SUBCOMMANDS:
        for rnd in all_rounds[1:]:
            if rnd[sub].ok and (not ref[sub].ok or rnd[sub].hashes != ref[sub].hashes):
                failures.append(f"{sub}: files differ from the first call's")
                break

    # Outside every timed region and after peak RSS is read (scipy is large):
    # the informative matrix that table1 uses, then the checks.
    import checks

    dirs = {sub: os.path.join(ref_root, sub) for sub in SUBCOMMANDS}
    dirs["construct-informative"] = os.path.join(ref_root, "construct-informative")
    informative = run_call(
        cli, command_line("construct", workload, inputs, seed, dirs["construct-informative"], inputs.prior2), dirs["construct-informative"]
    )
    if not informative.ok:
        failures.append("construct with the informative prior failed")
    mc = ref["mc-validate"]
    failures += checks.check_outputs(dirs, inputs, mc.exit_code, mc.stdout)

    print(f"workload {workload_name}: n={inputs.n} G={inputs.grid_points} x={inputs.x} thetas={list(inputs.thetas)} seed={seed}")
    print(f"{len(rounds)} timed rounds; seconds as measured, then scaled to the probe's reference speed")
    for sub in SUBCOMMANDS:
        times = [rnd[sub].seconds for rnd in rounds]
        scaled = [rnd[sub].scaled for rnd in rounds]
        line = (
            f"  {sub:12s} median {statistics.median(times):.4f} s (min {min(times):.4f}, max {max(times):.4f})"
            f"  scaled {statistics.median(scaled):.4f} s (min {min(scaled):.4f}, max {max(scaled):.4f})"
        )
        if traced:
            line += f"  traced {traced[sub].seconds:.4f} s (overhead {traced[sub].seconds - statistics.median(times):+.4f} s)"
        print(line)
        for name, digest in ref[sub].hashes.items():
            print(f"    sha256 {digest}  {name}")
    for message in failures:
        print(f"CHECK FAILED {message}", file=sys.stderr)

    if trace:
        metrics = layer_metrics(tracer, bytes_written)
    else:
        metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"}}
        for sub in SUBCOMMANDS:
            metrics[f"{sub.replace('-', '_')}_s"] = {"value": statistics.median(r[sub].scaled for r in rounds), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MiB"}
    return {
        "correct": not failures,
        "attempted": len(calls),
        "failed": sum(not call.ok for call in calls),
        "metrics": metrics,
    }


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int, help="passed to the CLI as --seed; also picks x and the thetas")
    parser.add_argument("--seconds", required=True, type=int, help="length of the timed rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: report per-layer metrics")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(SRC, "avgpower", "cli.py")):
        print(f"perfbench: {SRC}/avgpower not found; run from the root of a checkout", file=sys.stderr)
        return 2

    os.environ.update(BLAS_ENV)  # before numpy is first imported
    sys.path.insert(0, SRC)
    os.makedirs(OUT_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_ROOT)
    try:
        result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(OUT_ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
