#!/usr/bin/env python3
"""Measure this checkout end to end and write BENCH_<LABEL>.json at its root.

    python3 scripts/bench.py LABEL

Run from anywhere; the checkout is the one holding this script, and its
`src/ylab` is what gets measured.  The file records, in this order:

- the Tier-1 suite (ROADMAP's command): wall time, exit code and the
  counts pytest reports;
- each acceptance criterion, run in a child process as
  `scripts/run_acceptance.py` runs them: verdict line and wall time;
- for each benchmark workload, one unmodified
  `perfbench/run.py --seconds 25 --trace 0` run per seed in SEEDS: every
  run's end-to-end metrics, `correct` and failed/attempted counts, and the
  median of each metric over the runs;
- net `src` LOC (the line count of src/ylab/*.py), the Python version, the
  CPU count, the git SHA of HEAD, whether `src` differs from it, and a
  digest of src/ylab.

A full run takes about ten minutes on a 2-core machine; run nothing else
beside it.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("rtt-sample", "image-closure", "cli-cold", "cli-replay")
SEEDS = (1, 2, 3)
SECONDS = 25
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]


def _git(*args) -> str:
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True)
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def environment() -> dict:
    digest = hashlib.sha256()
    loc = 0
    for path in sorted((SRC / "ylab").glob("*.py")):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        loc += data.count(b"\n")
    return {"python": platform.python_version(), "cpus": os.cpu_count(),
            "git_sha": _git("rev-parse", "HEAD"),
            "src_differs_from_head": _git("status", "--porcelain",
                                          "--", "src") != "",
            "src_sha256": digest.hexdigest()[:16], "src_loc": loc}


def tier1() -> dict:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    began = time.perf_counter()
    done = subprocess.run([sys.executable, *TIER1], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    wall = time.perf_counter() - began
    summary = done.stdout.strip().splitlines()[-1] if done.stdout else ""
    counts = {kind: int(count) for count, kind
              in re.findall(r"(\d+) ([a-z]+)", summary.split(" in ")[0])}
    return {"command": TIER1, "wall_s": wall, "exit_code": done.returncode,
            "counts": counts, "summary": summary}


def _criteria_rows() -> list[dict]:
    sys.path.insert(0, str(SRC))
    from run_acceptance import run_criteria  # this script's own directory
    return [{"number": number, "passed": passed, "line": line,
             "wall_s": wall}
            for number, passed, line, wall in run_criteria()]


def criteria() -> list[dict]:
    """The criteria's results, computed in a fresh child process.

    A process inherits its launcher's peak RSS, so a workload run started
    from here would report this process's peak as its own `peak_rss_mb`
    if the criteria had run here.
    """
    with ProcessPoolExecutor(1, mp_context=get_context("spawn")) as pool:
        return pool.submit(_criteria_rows).result()


def workload(name: str) -> dict:
    runs, units = [], {}
    for seed in SEEDS:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", name,
             "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            runs.append({"seed": seed, "exit_code": done.returncode,
                         "stderr": done.stderr[-2000:]})
            continue
        result = json.loads(lines[-1])
        runs.append({"seed": seed, "exit_code": 0,
                     "correct": result["correct"],
                     "attempted": result["attempted"],
                     "failed": result["failed"],
                     "metrics": {k: v["value"]
                                 for k, v in result["metrics"].items()}})
        units = {k: v["unit"] for k, v in result["metrics"].items()}
    measured = [run for run in runs if "metrics" in run]
    median = {k: {"value": statistics.median(run["metrics"][k]
                                             for run in measured),
                  "unit": unit} for k, unit in units.items()}
    return {"seeds": list(SEEDS), "seconds": SECONDS,
            "correct": len(measured) == len(runs)
            and all(run["correct"] for run in measured),
            "failed": sum(run["failed"] for run in measured),
            "attempted": sum(run["attempted"] for run in measured),
            "median": median, "runs": runs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label", help="names the file BENCH_<LABEL>.json")
    label = parser.parse_args(argv).label
    if not re.fullmatch(r"[A-Za-z0-9_.-]+", label):
        parser.error("LABEL may hold only letters, digits, '_', '.', '-'")
    out = {"label": label, **environment(), "tier1": tier1(),
           "criteria": criteria(),
           "workloads": {name: workload(name) for name in WORKLOADS}}
    path = ROOT / f"BENCH_{label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
