"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train-ptd --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` re-runs the same inputs with every layer wrapped and prints
the per-layer metrics plus the tracing overhead, and writes the spans to
``.perfbench/``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is non-zero when a correctness gate failed.
"""

from __future__ import annotations

import os
import sys
import time

# BLAS must see these before numpy is imported, in this process and in
# the worker processes it forks.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("train-ptd", "train-dp-mp", "serve-chat", "serve-summarize")
IMPORT_PROBE = ("import sys, time; t0 = time.perf_counter(); "
                "sys.path[:0] = sys.argv[1:]; import numpy, workloads; "
                "print(time.perf_counter() - t0)")


def import_seconds(first: float, repeats: int) -> float:
    """Median import time over this process (``first``) and fresh
    interpreters run one after another, ``repeats`` in all, so a single
    slow start does not decide ``setup_s``."""
    times = [first]
    for _ in range(repeats - 1):
        child = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(HERE), str(ROOT / "src")],
            capture_output=True, text=True, check=True, timeout=120)
        times.append(float(child.stdout))
    return sorted(times)[len(times) // 2]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import workloads
    import_s = time.perf_counter() - t0
    if not args.trace:  # a traced run reports no setup_s
        import_s = import_seconds(import_s, workloads.SETUP_REPEATS)

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("nproc=%d affinity=%d %s" % (
        os.cpu_count() or 0, len(os.sched_getaffinity(0)),
        " ".join(f"{v}={os.environ[v]}" for v in THREAD_ENV)))
    out = workloads.WORKLOADS[args.workload](
        args.seed, args.seconds, bool(args.trace), import_s)
    workloads.stop_resource_tracker()
    for line in out.lines:
        print(line)
    for name, ok, detail in out.gates:
        print(f"gate {name}: {'ok' if ok else 'FAILED'} {detail}".rstrip())
    if out.tracer is not None:
        spans_dir = ROOT / ".perfbench"
        spans_dir.mkdir(exist_ok=True)
        path = spans_dir / f"spans-{args.workload}-seed{args.seed}.json"
        out.tracer.save(path)
        print(f"spans: {len(out.tracer.span_start)} written to "
              f"{path.relative_to(ROOT)} (bytes are computed from tensor sizes)")
    print(json.dumps({
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out.metrics.items()},
    }))
    return 0 if out.correct else 1


if __name__ == "__main__":
    sys.exit(main())
