#!/usr/bin/env python3
"""Check that this checkout's `ylab` prints what REV's prints, byte for byte.

    python3 scripts/parity.py REV

REV's `src/` is exported with `git archive` into a temporary directory.
Over every spec of the dominant battery (which holds the mixed battery)
and of the word battery (whose four-row specs hold two rows beside each
root pair's), the jobs are `build`, `intertwine`, `drinfeld` and `verify --suite S` for
every suite S the CLI accepts for that spec (`words` needs m <= 4,
`lemma41` dim <= 16, `iso` n <= 4).  On the WIDE_GAPS specs, whose row
shifts lie up to 10^3 apart on one integer chain, they are `drinfeld`
and `verify --suite drinfeld`.  USAGE adds a fixed set of help
requests and usage errors: each command with `-h`, a missing flag or
flag value, an unknown flag, a bad integer, an abbreviation and a stray
token, a bad or ambiguous `--suite`, and argv with no command or an
unknown one.  One child process per tree runs them all through
`cli.main`, without a cache.  Each job's exit code (argparse's
`SystemExit` code, for help and usage errors), or the exception that
escaped `cli.main`, its stdout and its stderr are compared.
No CLI command calls `image_analysis`, so the same child also reports it,
for every spec of dim <= 64, on `build_I(spec)` and on the identity
operator: the rank, the image basis and the verdict, or the exception
raised.  With the closure primes emptied (`intertwiner._CLOSURE_PRIMES =
()`) no verdict is proved mod p, so it reports both again for every spec
of dim <= 16, decided by the exact elimination alone.  For those specs of
dim <= 16 it also gives `laurent_tail_matrices(spec)`, the Laurent tails
at the default depth: each matrix's shape, the types of its entries and
its nonzero entries.  The CLI prints no matrix of the elementary
operators or the complementation either, so the child also gives the
`elementary` `I_a`, `J_a` and `J_a_prime` matrices, or the exception
raised, for every a on the dominant specs whose degrees are all
nonnegative, and the `R_eps` and `dual_iso` matrices (with the latter's
target spec) on the mixed battery.  These are compared like the jobs.
The first difference is printed and the exit code is 1; with none it
prints the counts and exits 0.  A REV git cannot export, or a tree whose
run fails, exits 2.  It takes about 30 s on a 2-core machine.
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

# [n, mu, nu] with row shifts far apart on one integer chain, so that the
# classification data telescopes across wide gaps; the gaps stay within
# 10^3, where a solver stepping through every integer still finishes.
WIDE_GAPS = (
    (3, ("777", "1"), (1, 1)),
    (2, ("1000", "0"), (2, -1)),
    (1, ("0", "-999", "500"), (1, -1, 1)),
    (3, ("1/2", "-997/2", "3/2"), (3, -2, 1)),
    (2, ("-400", "600", "-400"), (2, 1, -1)),
)

SPEC = ["--n", "2", "--mu", "0,0", "--nu", "2,1"]
COMMANDS = ("build", "intertwine", "drinfeld", "realize", "reduce",
            "verify")
# Help requests and usage errors, which argparse answers with SystemExit,
# and valid jobs that spell their flags by abbreviation.
USAGE = (
    [[command, "-h"] for command in COMMANDS]
    + [[command, "--zzz"] for command in COMMANDS]
    + [[command, "stray"] for command in COMMANDS]
    + [[command, "--out"] for command in COMMANDS]
    + [[command, "--n", "x"] for command in COMMANDS]
    + [
        [], ["-h"], ["--help"], ["bogus"], ["bogus", "-h"], ["-x", "build"],
        ["--", "build"], ["--n", "2", "build"], ["build", "--m", "x"] + SPEC,
        ["verify"] + SPEC, ["reduce"], ["verify", "--suite"] + SPEC,
        ["verify", "--suite", "nope"] + SPEC,
        ["verify", "--s", "rtt"] + SPEC,
        ["verify", "--suite", "rtt", "--samples", "x"] + SPEC,
        ["verify", "--su", "rtt", "--sa", "169"] + SPEC,
        ["verify", "--suite", "rtt"] + SPEC + ["extra"],
        ["intertwine", "--wo", "1", "--n", "2", "--mu", "0,-2",
         "--nu", "1,1"],
        ["drinfeld", "--n=2", "--mu=0,0", "--nu=2,1"],
        ["build", "--n", "2", "--m", "2", "--mu", "0,0", "--nu", "2,1"],
        ["build", "--he"], ["build", "--", "--n"], ["build", "-h", "--zzz"],
        ["reduce", "--n", "2", "--word", "1"],
        ["realize", "--n", "2"], ["intertwine", "--word"] + SPEC,
    ])


def jobs() -> tuple[list[list[str]], dict]:
    """The argv of every job, and the [n, mu, nu] of the specs of each
    report of the child ("images", "elementary", "flips"), built from this
    checkout's batteries."""
    sys.path.insert(0, str(ROOT / "src"))
    from ylab.battery import dominant_battery, mixed_battery, word_battery
    from ylab.cli import SUITES
    from ylab.exact import q_str

    def encode(spec):
        return [spec.n, list(map(q_str, spec.mu)), list(spec.nu)]

    specs = dominant_battery()
    specs += [spec for row in word_battery().values() for spec in row]
    out, images = [], []
    for spec in dict.fromkeys(specs):
        if spec.dim <= 64:
            images.append(encode(spec))
        flags = [f"--n={spec.n}", "--mu=" + ",".join(map(q_str, spec.mu)),
                 "--nu=" + ",".join(map(str, spec.nu))]
        out += [[command] + flags
                for command in ("build", "intertwine", "drinfeld")]
        capped = {"words": spec.m > 4, "lemma41": spec.dim > 16,
                  "iso": spec.n > 4}
        out += [["verify", "--suite", suite] + flags
                for suite in SUITES if not capped.get(suite)]
    for n, mu, nu in WIDE_GAPS:
        flags = [f"--n={n}", "--mu=" + ",".join(mu),
                 "--nu=" + ",".join(map(str, nu))]
        out += [["drinfeld"] + flags,
                ["verify", "--suite", "drinfeld"] + flags]
    return out + USAGE, {"images": images,
                 "elementary": [encode(spec) for spec in dominant_battery()
                                if min(spec.nu) >= 0],
                 "flips": list(map(encode, mixed_battery()))}


def image_report(spec, inter) -> list:
    """image_analysis's rank, basis and verdict, or the exception raised."""
    from ylab.intertwiner import image_analysis

    try:
        report = image_analysis(spec, inter)
    except Exception as exc:
        return [f"raised {type(exc).__name__}: {exc}"]
    return [report.rank, [list(map(str, v)) for v in report.image_basis],
            report.irreducible]


def tails_report(spec) -> list:
    """laurent_tail_matrices(spec): per matrix its row count, row lengths,
    entry types and nonzero entries [r, c, value], or the exception
    raised."""
    from ylab.intertwiner import laurent_tail_matrices

    try:
        mats = laurent_tail_matrices(spec)
    except Exception as exc:
        return [f"raised {type(exc).__name__}: {exc}"]
    return [[len(mat), sorted({len(row) for row in mat}),
             sorted({type(x).__name__ for row in mat for x in row}),
             [[r, c, str(x)] for r, row in enumerate(mat)
              for c, x in enumerate(row) if x]] for mat in mats]


def matrix_report(build, *args) -> list:
    """The target (a spec, or a map's weights) and the matrix of
    build(*args) as strings, or the exception raised."""
    try:
        out = build(*args)
    except Exception as exc:
        return [f"raised {type(exc).__name__}: {exc}"]
    target = getattr(out, "target_spec", None) or (out.domain, out.codomain)
    return [str(target), [list(map(str, row)) for row in out.matrix]]


def child() -> None:
    """Run the argv list on stdin through cli.main, and image_analysis,
    laurent_tail_matrices, elementary, R_eps and dual_iso on the listed
    specs; print the results, the reports as {name: [[label, report],
    ...]}."""
    from fractions import Fraction

    from ylab import cli, intertwiner
    from ylab.duality import R_eps, dual_iso
    from ylab.intertwiner import Intertwiner, build_I, elementary
    from ylab.yangian import ModuleSpec

    argvs, specs = json.load(sys.stdin)
    results = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as stop:  # help or a usage error
                code = ["SystemExit", stop.code]
            except Exception as exc:  # a crash is a result to compare too
                code = f"uncaught {type(exc).__name__}: {exc}"
        results.append([code, out.getvalue(), err.getvalue()])
    spec_lists = {key: [ModuleSpec.make(n, tuple(map(Fraction, mu)),
                                        tuple(nu)) for n, mu, nu in codes]
                  for key, codes in specs.items()}

    def images(spec):
        identity = tuple(tuple(Fraction(int(r == c)) for c in range(spec.dim))
                         for r in range(spec.dim))
        return [[f"the build_I operator of {spec}",
                 image_report(spec, build_I(spec))],
                [f"the identity operator of {spec}",
                 image_report(spec, Intertwiner(spec, spec, identity))]]

    reports = {
        "image_analysis": [row for spec in spec_lists["images"]
                           for row in images(spec)],
        "elementary": [[f"{kind} a={a} on {spec}",
                        matrix_report(elementary, kind, spec, a)]
                       for spec in spec_lists["elementary"]
                       for a in range(1, spec.m)
                       for kind in ("I_a", "J_a", "J_a_prime")],
        "flips": [[f"{build.__name__} on {spec}", matrix_report(build, spec)]
                  for spec in spec_lists["flips"]
                  for build in (R_eps, dual_iso)],
        "laurent_tail_matrices": [[f"the tails of {spec}", tails_report(spec)]
                                  for spec in spec_lists["images"]
                                  if spec.dim <= 16],
    }
    # no verdict is proved mod p: the exact elimination decides every one
    intertwiner._CLOSURE_PRIMES = ()
    reports["exact-only image_analysis"] = [
        row for spec in spec_lists["images"] if spec.dim <= 16
        for row in images(spec)]
    json.dump([results, reports], sys.stdout)


def run_tree(src: Path, argvs: list[list[str]], specs: dict) -> list:
    env = {k: v for k, v in os.environ.items() if k != "YLAB_CACHE"}
    env["PYTHONPATH"] = str(src)
    done = subprocess.run([sys.executable, __file__, "--child"], env=env,
                          input=json.dumps([argvs, specs]),
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
    argvs, specs = jobs()
    with tempfile.TemporaryDirectory(prefix="ylab-parity-") as tmp:
        tar = subprocess.run(["git", "archive", "--format=tar", args.rev,
                              "src"], cwd=ROOT, capture_output=True)
        if tar.returncode:
            sys.stderr.write(tar.stderr.decode(errors="replace"))
            return 2
        subprocess.run(["tar", "-x", "-C", tmp], input=tar.stdout, check=True)
        theirs = run_tree(Path(tmp) / "src", argvs, specs)
    ours = run_tree(ROOT / "src", argvs, specs)
    for job, old, new in zip(argvs, theirs[0], ours[0]):
        for name, a, b in zip(("exit code", "stdout", "stderr"), old, new):
            if a != b:
                print(f"{name} differs on: ylab {' '.join(job)}\n"
                      f"  {args.rev}: {a!r}\n  this checkout: {b!r}")
                return 1
    for key, rows in ours[1].items():
        if len(rows) != len(theirs[1].get(key, ())):
            print(f"{key}: {len(theirs[1].get(key, ()))} reports at"
                  f" {args.rev}, {len(rows)} in this checkout")
            return 1
        for (label, a), (_, b) in zip(theirs[1][key], rows):
            if a != b:
                print(f"{key} differs on {label}\n  {args.rev}: {a!r}\n"
                      f"  this checkout: {b!r}")
                return 1
    counts = ", ".join(f"{len(rows)} {key}" for key, rows in ours[1].items())
    print(f"{len(argvs) - len(USAGE)} jobs and {len(USAGE)} help and usage"
          f" argv: exit codes, stdout and stderr identical to {args.rev};"
          f" reports identical: {counts}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
