#!/usr/bin/env python3
"""distreg benchmark: one workload per process, single-threaded.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads: kk-gauss-1d, adaptive-epan-1d, kk-epan-2d, theory-mc
(see ``workloads.py``).  Every workload runs through the package's runner,
``run_experiment``.  ``--seconds`` sets the amount of work, sized so that
a run's units take roughly that long at the baseline in ``baseline.json``;
adaptive-epan-1d's calibration comes on top.

``--trace 0`` times the runner, with unit latencies stamped at its own call
sites, and prints the end-to-end metrics.  ``--trace 1`` runs the same
inputs at half the size twice, untraced and then traced, checks that both
give the same rows, prints the per-layer metrics and writes the spans to
``.bench_out/``.  The line before the last holds the environment, the row
digest and the checks; the last line is the result object.
"""

import os

# Pinned before numpy is imported, here and in every setup probe.
PINNED_THREADS = {
    "DISTREG_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
# Setup is timed in this process and in this many fresh ones; the median is
# reported.  On a shared 2-core machine, importing scipy alone varied by a
# third from one process to the next.
SETUP_PROBES = 4


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def set_up(name: str, seed: int):
    """Import distreg, then run the workload once at a tiny shape as a warm-up."""
    start = time.perf_counter()
    # Imported here so that set-up time includes loading numpy, scipy and distreg.
    import workloads

    if name not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {name!r}; choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[name]
    workload.warm_up(seed, OUT_DIR)
    return workload, time.perf_counter() - start


def probe_setup(args) -> float:
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--seconds", str(args.seconds), "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or "unknown"


def cache_sizes() -> dict:
    try:
        done = subprocess.run(["getconf", "-a"], capture_output=True, text=True, timeout=30)
    except OSError:
        return {}
    sizes = {}
    for line in done.stdout.splitlines():
        key, _, value = line.partition(" ")
        if key.endswith("CACHE_SIZE") and value.strip():
            sizes[key] = int(value)
    return sizes


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "caches_bytes": cache_sizes(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": PINNED_THREADS,
        "seed": seed,
    }


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
    )


def measure(workload, seed: int, size: int):
    """Run the workload through the runner untraced; return its checked Block and wall time."""
    import workloads
    from tracer import UnitClock

    clock = UnitClock(workload.unit_start, workload.unit_end)
    with clock.installed():
        start = time.perf_counter()
        reports = workloads.run_runner(workload.configs(seed, size), OUT_DIR)
        wall_s = time.perf_counter() - start
    block = workload.check(reports, clock.unit_s)
    block.notes["outside_units_s"] = wall_s - sum(clock.unit_s)
    return block, wall_s


def untraced(args, workload, setup_s: float) -> int:
    import workloads
    from tracer import tail

    setup_samples = [setup_s] + [probe_setup(args) for _ in range(SETUP_PROBES)]
    size = workload.size_for(args.seconds)
    block, wall_s = measure(workload, args.seed, size)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    units = len(block.unit_s)
    tail_s, tail_pct = tail(block.unit_s)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (wall_s, "s"),
        "units_per_s": (units / sum(block.unit_s), "1/s"),
        "unit_p50_ms": (statistics.median(block.unit_s) * 1e3, "ms"),
        "unit_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    report = {
        "workload": workload.name,
        "size": size,
        "units": units,
        "unit_tail_percentile": tail_pct,
        "failed_frac": block.failed / block.attempted,
        "abs_err_mean": statistics.fmean(block.abs_err) if block.abs_err else None,
        "assert_ok": block.ok,
        "rows_sha256": workloads.rows_digest(block.rows),
        "setup_samples_s": setup_samples,
        **block.notes,
        "env": environment(args.seed),
    }
    print(json.dumps(report))
    print(result_line(block.ok, block.attempted, block.failed, metrics))
    return 0


def traced(args, workload) -> int:
    import workloads
    from tracer import Tracer, layer_metrics

    size = max(1, workload.size_for(args.seconds) // 2)
    block, untraced_s = measure(workload, args.seed, size)

    tracer = Tracer(workload.unit_start)
    with tracer.installed():
        start = time.perf_counter()
        reports = workloads.run_runner(workload.configs(args.seed, size), OUT_DIR)
        traced_s = time.perf_counter() - start

    digest = workloads.rows_digest(block.rows)
    digests_match = workloads.rows_digest(workload.first_pass(reports)) == digest
    traced_ok = all(r.assert_ok for r in reports)
    correct = block.ok and digests_match and traced_ok

    metrics = layer_metrics(tracer.spans)
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    report = {
        "workload": workload.name,
        "size": size,
        "units": len(block.unit_s),
        "untraced_wall_s": untraced_s,
        "traced_wall_s": traced_s,
        "rows_sha256": digest,
        "traced_rows_match": digests_match,
        "assert_ok": block.ok,
        "traced_assert_ok": traced_ok,
        "spans": len(tracer.spans),
        "spans_path": str(spans_path.relative_to(ROOT)),
        **block.notes,
        "env": environment(args.seed),
    }
    print(json.dumps(report))
    print(result_line(correct, block.attempted, block.failed, metrics))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "distreg" / "__init__.py").is_file():
        print(f"error: no distreg package at {SRC / 'distreg'}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload, setup_s = set_up(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.trace:
        return traced(args, workload)
    return untraced(args, workload, setup_s)


if __name__ == "__main__":
    sys.exit(main())
