#!/usr/bin/env python3
"""Check that this checkout's `ylab` prints what REV's prints, byte for byte.

    python3 scripts/parity.py REV

REV's `src/` is exported with `git archive` into a temporary directory.
Over every spec of the dominant battery (which holds the mixed battery),
the jobs are `build`, `intertwine`, `drinfeld` and `verify --suite S` for
every suite S the CLI accepts for that spec (`words` needs m <= 4,
`lemma41` dim <= 16, `iso` n <= 4).  One child process per tree runs them
all through `cli.main`, without a cache.  Each job's exit code, or the
exception that escaped `cli.main`, its stdout and its stderr are compared.
The first difference is printed and the exit code is 1; with none it
prints the job count and exits 0.  A REV git cannot export, or a tree
whose run fails, exits 2.  It takes about 15 s on a 2-core machine.
"""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def jobs() -> list[list[str]]:
    """The argv of every job, built from this checkout's battery."""
    sys.path.insert(0, str(ROOT / "src"))
    from ylab.battery import dominant_battery
    from ylab.cli import SUITES
    from ylab.exact import q_str

    out = []
    for spec in dominant_battery():
        flags = [f"--n={spec.n}", "--mu=" + ",".join(map(q_str, spec.mu)),
                 "--nu=" + ",".join(map(str, spec.nu))]
        out += [[command] + flags
                for command in ("build", "intertwine", "drinfeld")]
        capped = {"words": spec.m > 4, "lemma41": spec.dim > 16,
                  "iso": spec.n > 4}
        out += [["verify", "--suite", suite] + flags
                for suite in SUITES if not capped.get(suite)]
    return out


def child() -> None:
    """Run the argv list on stdin through cli.main; print the results."""
    from ylab import cli

    results = []
    for argv in json.load(sys.stdin):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception as exc:  # a crash is a result to compare too
                code = f"uncaught {type(exc).__name__}: {exc}"
        results.append([code, out.getvalue(), err.getvalue()])
    json.dump(results, sys.stdout)


def run_tree(src: Path, argvs: list[list[str]]) -> list:
    env = {k: v for k, v in os.environ.items() if k != "YLAB_CACHE"}
    env["PYTHONPATH"] = str(src)
    done = subprocess.run([sys.executable, __file__, "--child"], env=env,
                          input=json.dumps(argvs), capture_output=True,
                          text=True)
    if done.returncode:
        sys.stderr.write(f"the run of {src} failed:\n{done.stderr}")
        raise SystemExit(2)
    return json.loads(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", help="the revision to compare with")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child()
        return 0
    if args.rev is None:
        parser.error("REV is required")
    argvs = jobs()
    with tempfile.TemporaryDirectory(prefix="ylab-parity-") as tmp:
        tar = subprocess.run(["git", "archive", "--format=tar", args.rev,
                              "src"], cwd=ROOT, capture_output=True)
        if tar.returncode:
            sys.stderr.write(tar.stderr.decode(errors="replace"))
            return 2
        subprocess.run(["tar", "-x", "-C", tmp], input=tar.stdout, check=True)
        theirs = run_tree(Path(tmp) / "src", argvs)
    ours = run_tree(ROOT / "src", argvs)
    for job, old, new in zip(argvs, theirs, ours):
        for name, a, b in zip(("exit code", "stdout", "stderr"), old, new):
            if a != b:
                print(f"{name} differs on: ylab {' '.join(job)}\n"
                      f"  {args.rev}: {a!r}\n  this checkout: {b!r}")
                return 1
    print(f"{len(argvs)} jobs: exit codes, stdout and stderr identical"
          f" to {args.rev}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
