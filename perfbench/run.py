"""Run one benchmark workload against ctxformer and print its metrics.

    python3 perfbench/run.py --workload train-toy --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`. BLAS is pinned to one thread. The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`; a
readable table and any check failures go to standard error.

--trace 0 reports the end-to-end metrics. --trace 1 sets up once more
under the span tracer, then alternates untraced and traced rounds, and
reports the per-layer metrics of the traced rounds plus the tracing
overhead: their median operation time against that of the untraced
rounds. Alternating keeps drifts in machine speed out of the overhead.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
# The keys of workloads.WORKLOADS, which cannot be imported before BLAS is pinned.
WORKLOAD_NAMES = ("train-toy", "train-paper-heads", "decode-beam5")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed work per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(workload, state, seconds: float, tracer=None) -> tuple[list, list]:
    """Run whole rounds until about `seconds` of timed work is done.

    With a tracer, odd rounds run traced. Returns (untraced, traced) rounds.
    """
    plain, traced, work, index = [], [], 0.0, 0
    deadline = time.perf_counter() + 3 * seconds + 60
    while True:
        if tracer is not None and index % 2:
            result = workload.round(state, index, tracer)
            traced.append(result)
        else:
            result = workload.round(state, index)
            plain.append(result)
        index += 1
        work += result.work_seconds
        if work + result.work_seconds / 2 >= seconds or time.perf_counter() > deadline:
            return plain, traced


def op_seconds(rounds) -> list:
    return [s for r in rounds for s in r.op_seconds]


def end_to_end(rounds, setup_s: float) -> dict:
    ops = op_seconds(rounds)
    return {
        "setup_s": (setup_s, "s"),
        "op_ms": (1000.0 * statistics.median(ops), "ms"),
        "op_ms_p90": (1000.0 * statistics.quantiles(ops, n=10, method="inclusive")[-1], "ms"),
        "tokens_per_s": (sum(r.tokens for r in rounds) / sum(r.work_seconds for r in rounds), "tokens/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, plain, traced) -> dict:
    n_ops = len(op_seconds(traced))
    metrics = tracer.layer_metrics(n_ops)
    for name in ("inference.tokens_generated", "inference.budget_exhausted"):
        metrics[name] = (sum(r.counts.get(name, 0) for r in traced) / n_ops, "count")
    base = statistics.median(op_seconds(plain))
    metrics["trace.overhead_pct"] = (
        100.0 * (statistics.median(op_seconds(traced)) - base) / base,
        "%",
    )
    return metrics


def benchmark(args, run_dir: Path) -> dict:
    for var in BLAS_THREAD_VARS:  # before numpy loads
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from tracer import Tracer

    imports_s = time.perf_counter() - START
    workload = workloads.WORKLOADS[args.workload]
    setups = []
    for k in range(SETUP_REPEATS):
        began = time.perf_counter()
        state = workload.setup(args.seed, run_dir / f"setup-{k}")
        setups.append(time.perf_counter() - began)
    setup_s = imports_s + statistics.median(setups)
    if args.trace:
        tracer = Tracer()
        with tracer.installed():
            state = workload.setup(args.seed, run_dir / "setup-traced")
        plain, traced = measure(workload, state, args.seconds, tracer)
        metrics = per_layer(tracer, plain, traced)
    else:
        plain, traced = measure(workload, state, args.seconds)
        metrics = end_to_end(plain, setup_s)
    rounds = plain + traced
    failures = [f for r in rounds for f in r.failures]
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.4f} {unit}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "ctxformer" / "__init__.py").is_file():
        print(f"no ctxformer sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    runs = ROOT / ".perfbench_runs"
    run_dir = runs / f"{args.workload}-{os.getpid()}"
    try:
        result = benchmark(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            runs.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
