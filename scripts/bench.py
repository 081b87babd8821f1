#!/usr/bin/env python3
"""Measure this checkout end to end and write BENCH_<LABEL>.json at its root.

    python3 scripts/bench.py LABEL
    python3 scripts/bench.py LABEL --against REV

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

With `--against REV` the workloads are measured as an A/B within this one
run instead, since medians taken at different times drift by more than
some gains.  REV's `src/` is exported with `git archive`, and this checkout's
`src/` is copied, each into a temporary directory beside a copy of this
checkout's unmodified `perfbench/`; `run.py` imports the `src` beside it,
and PYTHONPATH names the same tree.  Each workload then runs in ten pairs
of 25 s runs (seeds 1, 2, 3 in turn), parent and child one after the
other, the order swapped every pair.  The file records every run, each
side's median and quartiles, the child/parent ratio of each metric per
pair and, per metric, how many pairs the child won (the direction is
BENCHMARK.json's `better`).

A full run takes about ten minutes on a 2-core machine, and about 45 with
`--against`; run nothing else beside it.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("rtt-sample", "image-closure", "cli-cold", "cli-replay")
SEEDS = (1, 2, 3)
SECONDS = 25
PAIRS = 10
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


def perfbench_run(root: Path, name: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py --trace 0` run in the checkout at root."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"seed": seed, "exit_code": done.returncode,
                "stderr": done.stderr[-2000:]}
    result = json.loads(lines[-1])
    return {"seed": seed, "exit_code": 0, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def end_to_end() -> dict:
    """BENCHMARK.json's end-to-end metrics: name -> (unit, better)."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["unit"], m["better"])
            for m in declared["end_to_end"]}


def summary(runs: list[dict]) -> dict:
    """Correctness, failure counts, and the median and quartiles of each
    metric over the runs."""
    measured = [run for run in runs if "metrics" in run]
    units = {k: unit for k, (unit, _) in end_to_end().items()}
    values = {k: [run["metrics"][k] for run in measured]
              for k in units} if measured else {}
    return {"correct": len(measured) == len(runs)
            and all(run["correct"] for run in measured),
            "failed": sum(run["failed"] for run in measured),
            "attempted": sum(run["attempted"] for run in measured),
            "median": {k: {"value": statistics.median(v), "unit": units[k]}
                       for k, v in values.items()},
            "quartiles": {k: statistics.quantiles(v, method="inclusive")[::2]
                          for k, v in values.items() if len(v) > 1}}


def workload(name: str) -> dict:
    runs = [perfbench_run(ROOT, name, seed, SECONDS) for seed in SEEDS]
    return {"seeds": list(SEEDS), "seconds": SECONDS, **summary(runs),
            "runs": runs}


def _checkout(root: Path, rev) -> Path:
    """A tree at root holding the src/ of git revision rev (of the working
    tree when rev is None) and a copy of this checkout's perfbench/."""
    root.mkdir()
    if rev is None:
        shutil.copytree(SRC, root / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    else:
        tar = subprocess.run(["git", "archive", "--format=tar", rev, "src"],
                             cwd=ROOT, capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(root)], input=tar, check=True)
    shutil.copytree(ROOT / "perfbench", root / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    return root


def ab_workloads(rev: str, pairs: int = PAIRS,
                 seconds: float = SECONDS) -> dict:
    """Every workload in alternating parent/child pairs, back to back."""
    better = {k: direction for k, (_, direction) in end_to_end().items()}
    out = {}
    with tempfile.TemporaryDirectory(prefix="ylab-ab-") as tmp:
        roots = {"parent": _checkout(Path(tmp, "parent"), rev),
                 "child": _checkout(Path(tmp, "child"), None)}
        for name in WORKLOADS:
            runs = {"parent": [], "child": []}
            for k in range(pairs):
                order = ("parent", "child") if k % 2 == 0 else ("child",
                                                                "parent")
                for side in order:
                    runs[side].append(perfbench_run(roots[side], name,
                                                    SEEDS[k % len(SEEDS)],
                                                    seconds))
            ratios, won = [], dict.fromkeys(better, 0)
            for a, b in zip(runs["parent"], runs["child"]):
                if "metrics" not in a or "metrics" not in b:
                    ratios.append(None)
                    continue
                ratio = {k: b["metrics"][k] / a["metrics"][k]
                         if a["metrics"][k] else None for k in better}
                ratios.append(ratio)
                for k, r in ratio.items():
                    if r is not None and (r > 1 if better[k] == "higher"
                                          else r < 1):
                        won[k] += 1
            out[name] = {"pairs": pairs, "seconds": seconds,
                         "parent": {**summary(runs["parent"]),
                                    "runs": runs["parent"]},
                         "child": {**summary(runs["child"]),
                                   "runs": runs["child"]},
                         "ratio_per_pair": ratios, "child_won": won}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label", help="names the file BENCH_<LABEL>.json")
    parser.add_argument("--against", metavar="REV",
                        help="measure the workloads as an A/B against REV")
    args = parser.parse_args(argv)
    label = args.label
    if not re.fullmatch(r"[A-Za-z0-9_.-]+", label):
        parser.error("LABEL may hold only letters, digits, '_', '.', '-'")
    if args.against is None:
        measured = {"workloads": {name: workload(name)
                                  for name in WORKLOADS}}
    else:
        rev = _git("rev-parse", "--verify", f"{args.against}^{{commit}}")
        if rev == "unavailable":
            parser.error(f"no git revision {args.against!r}")
        measured = {"against": {"rev": args.against, "sha": rev},
                    "ab_workloads": ab_workloads(rev)}
    out = {"label": label, **environment(), "tier1": tier1(),
           "criteria": criteria(), **measured}
    path = ROOT / f"BENCH_{label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
