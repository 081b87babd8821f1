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
No CLI command calls `image_analysis`, so the same child also reports it,
for every spec of dim <= 64, on `build_I(spec)` and on the identity
operator: the rank, the image basis and the verdict, or the exception
raised.  These are compared like the jobs.  The first difference is
printed and the exit code is 1; with none it prints the counts and exits
0.  A REV git cannot export, or a tree whose run fails, exits 2.  It takes
about 10 s on a 2-core machine.
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


def jobs() -> tuple[list[list[str]], list]:
    """The argv of every job, and the [n, mu, nu] of every image spec, built
    from this checkout's battery."""
    sys.path.insert(0, str(ROOT / "src"))
    from ylab.battery import dominant_battery
    from ylab.cli import SUITES
    from ylab.exact import q_str

    out, images = [], []
    for spec in dominant_battery():
        if spec.dim <= 64:
            images.append([spec.n, list(map(q_str, spec.mu)), list(spec.nu)])
        flags = [f"--n={spec.n}", "--mu=" + ",".join(map(q_str, spec.mu)),
                 "--nu=" + ",".join(map(str, spec.nu))]
        out += [[command] + flags
                for command in ("build", "intertwine", "drinfeld")]
        capped = {"words": spec.m > 4, "lemma41": spec.dim > 16,
                  "iso": spec.n > 4}
        out += [["verify", "--suite", suite] + flags
                for suite in SUITES if not capped.get(suite)]
    return out, images


def image_report(spec, inter) -> list:
    """image_analysis's rank, basis and verdict, or the exception raised."""
    from ylab.intertwiner import image_analysis

    try:
        report = image_analysis(spec, inter)
    except Exception as exc:
        return [f"raised {type(exc).__name__}: {exc}"]
    return [report.rank, [list(map(str, v)) for v in report.image_basis],
            report.irreducible]


def child() -> None:
    """Run the argv list on stdin through cli.main, and image_analysis on
    the listed specs; print the results."""
    from fractions import Fraction

    from ylab import cli
    from ylab.intertwiner import Intertwiner, build_I
    from ylab.yangian import ModuleSpec

    argvs, images = json.load(sys.stdin)
    results = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception as exc:  # a crash is a result to compare too
                code = f"uncaught {type(exc).__name__}: {exc}"
        results.append([code, out.getvalue(), err.getvalue()])
    reports = []
    for n, mu, nu in images:
        spec = ModuleSpec.make(n, tuple(map(Fraction, mu)), tuple(nu))
        identity = tuple(tuple(Fraction(int(r == c)) for c in range(spec.dim))
                         for r in range(spec.dim))
        reports.append([image_report(spec, build_I(spec)),
                        image_report(spec, Intertwiner(spec, spec, identity))])
    json.dump([results, reports], sys.stdout)


def run_tree(src: Path, argvs: list[list[str]], images: list) -> list:
    env = {k: v for k, v in os.environ.items() if k != "YLAB_CACHE"}
    env["PYTHONPATH"] = str(src)
    done = subprocess.run([sys.executable, __file__, "--child"], env=env,
                          input=json.dumps([argvs, images]),
                          capture_output=True, text=True)
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
    argvs, images = jobs()
    with tempfile.TemporaryDirectory(prefix="ylab-parity-") as tmp:
        tar = subprocess.run(["git", "archive", "--format=tar", args.rev,
                              "src"], cwd=ROOT, capture_output=True)
        if tar.returncode:
            sys.stderr.write(tar.stderr.decode(errors="replace"))
            return 2
        subprocess.run(["tar", "-x", "-C", tmp], input=tar.stdout, check=True)
        theirs = run_tree(Path(tmp) / "src", argvs, images)
    ours = run_tree(ROOT / "src", argvs, images)
    for job, old, new in zip(argvs, theirs[0], ours[0]):
        for name, a, b in zip(("exit code", "stdout", "stderr"), old, new):
            if a != b:
                print(f"{name} differs on: ylab {' '.join(job)}\n"
                      f"  {args.rev}: {a!r}\n  this checkout: {b!r}")
                return 1
    for (n, mu, nu), old, new in zip(images, theirs[1], ours[1]):
        for name, a, b in zip(("build_I", "identity"), old, new):
            if a != b:
                print(f"image_analysis differs on the {name} operator of"
                      f" n={n} mu={','.join(mu)} nu={','.join(map(str, nu))}"
                      f"\n  {args.rev}: {a!r}\n  this checkout: {b!r}")
                return 1
    print(f"{len(argvs)} jobs: exit codes, stdout and stderr identical"
          f" to {args.rev}; {2 * len(images)} image_analysis reports on"
          f" {len(images)} specs identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
