#!/usr/bin/env python3
"""The ylab benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; `src/ylab` is imported from there.  The
seed draws the workload's inputs (see workloads.py).  The run repeats whole
rounds of the workload's operations for at least S seconds, keeps each
operation's best latency over the rounds, checks every output (see
checks.py), and prints one JSON object as its last line:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1 (a
separate run with recording wrappers installed, see tracing.py).  Result
and trace files go to perfbench/out/.
"""

from __future__ import annotations

import os

# One thread for any numeric library, before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("rtt-sample", "image-closure", "cli-cold", "cli-replay")

# Tail percentile of the operations' best latencies, fixed per workload so
# that it falls inside the round's most expensive cost class (see README).
TAIL_PERCENTILE = {"rtt-sample": 95, "image-closure": 90, "cli-cold": 93,
                   "cli-replay": 95}

SETUP_REPEATS = 5

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
              "op_tail_ms": "ms", "peak_rss_mb": "MB"}

def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ------------------------------------------------------------------ context

def source_digest() -> str:
    """sha256 over src/ylab, which identifies the code a checkout runs."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "ylab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def environment() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "cpus": os.cpu_count(), "git_sha": git_sha(),
            "src_sha256": source_digest()}


# ---------------------------------------------------------------- measuring

def measure_setup(args) -> float:
    """Median wall time of fresh interpreters that only set the run up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def tail(latencies: list[float], percentile: int) -> tuple[float, int]:
    """Nearest-rank percentile, and how many samples lie beyond it."""
    ordered = sorted(latencies)
    k = max(math.ceil(percentile / 100 * len(ordered)) - 1, 0)
    return ordered[k], len(ordered) - k - 1


def timed_rounds(workload, memo, seconds: float) -> dict:
    """Whole rounds until `seconds` have passed.

    Keeps each operation's first result, its best (lowest) latency over the
    rounds, and the first error of each operation that raised.
    """
    first: dict[int, object] = {}
    best: dict[int, float] = {}
    errors: dict[int, str] = {}
    unstable: list[str] = []
    attempted = failed = rounds = 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        workload.next_round()
        for index, op in enumerate(workload.ops):
            memo.reset_tables()
            attempted += 1
            began = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # counted as a failed operation
                failed += 1
                errors.setdefault(index, f"{op.label}: {type(exc).__name__}"
                                         f": {exc}")
                continue
            latency = time.perf_counter() - began
            best[index] = min(latency, best.get(index, latency))
            if index not in first:
                first[index] = result
            elif result != first[index]:
                unstable.append(op.label)
        rounds += 1
    elapsed = time.perf_counter() - start
    return {"first": first, "best": best, "errors": errors,
            "unstable": unstable, "attempted": attempted, "failed": failed,
            "rounds": rounds, "elapsed": elapsed}


def check_outputs(workload, run: dict) -> list[str]:
    """Every problem found; an error counts unless the op may fail."""
    problems = [f"{label}: result changed between rounds"
                for label in dict.fromkeys(run["unstable"])]
    problems += [f"raised: {message}" for index, message in
                 run["errors"].items() if not workload.ops[index].may_fail]
    for index, result in run["first"].items():
        op = workload.ops[index]
        try:
            op.check(result)
        except Exception as exc:  # every problem is reported, none stops
            problems.append(f"{op.label}: {type(exc).__name__}: {exc}")
    try:
        workload.final_check()
    except Exception as exc:
        problems.append(f"{type(exc).__name__}: {exc}")
    return problems


# --------------------------------------------------------------------- main

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ylab" / "__init__.py").is_file():
        print(f"run.py: no ylab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        rng = random.Random(f"{args.workload}:{args.seed}")
        if args.setup_only:
            workloads.WORKLOADS[args.workload](rng, workdir,
                                               workloads.MemoStats())
            return 0
        env = environment()
        print(json.dumps({"workload": args.workload, "seed": args.seed,
                          **env}), flush=True)
        setup_s = measure_setup(args) if args.trace == 0 else None
        workload = workloads.WORKLOADS[args.workload](rng, workdir,
                                                      workloads.MemoStats())
        # Empty the tables and leave set-up's lookups out of the counts.
        workloads.MemoStats().reset_tables()
        memo = workloads.MemoStats()
        rec = instrumentation = None
        if args.trace:
            rec = tracing.Recorder()
            instrumentation = tracing.Instrumentation(rec)
            instrumentation.install()
        try:
            run = timed_rounds(workload, memo, args.seconds)
        finally:
            if instrumentation is not None:
                instrumentation.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems = check_outputs(workload, run)
        known = [message for index, message in run["errors"].items()
                 if workload.ops[index].may_fail]
        for line in known + problems:
            print(line, file=sys.stderr)

        best = sorted(run["best"].values())
        if not best:
            print("no operation completed", file=sys.stderr)
            return 1
        pct = TAIL_PERCENTILE[args.workload]
        tail_s, beyond = tail(best, pct)
        summary = {"rounds": run["rounds"], "ops_per_round":
                   len(workload.ops), "completed_per_round": len(best),
                   "tail_percentile": pct, "ops_beyond_tail": beyond,
                   "elapsed_s": run["elapsed"]}
        if args.trace:
            metrics = tracing.layer_metrics(rec, memo.hits,
                                            memo.hits + memo.misses,
                                            run["rounds"])
            trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
            trace_file.write_text(json.dumps(
                {"workload": args.workload, "seed": args.seed, **summary,
                 **rec.dump()}))
        else:
            values = {"setup_s": setup_s,
                      "ops_per_s": len(best) / sum(best),
                      "op_p50_ms": statistics.median(best) * 1e3,
                      "op_tail_ms": tail_s * 1e3,
                      "peak_rss_mb": peak_rss_mb}
            metrics = {k: {"value": v, "unit": END_TO_END[k]}
                       for k, v in values.items()}
        result = {"correct": not problems, "attempted": run["attempted"],
                  "failed": run["failed"], "metrics": metrics}
        print(json.dumps(summary), flush=True)
        (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
         ).write_text(json.dumps({**env, **summary, **result}, indent=1))
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
