"""Seeded inputs and operations of the four workloads.

A workload is a fixed list of operations, one *round*; a run repeats whole
rounds.  Each operation comes from a *slot* that fixes what sets its cost:
the column count n, the row degree sizes |nu_a|, the shift denominator and
whether the gaps between row shifts are integers or carry a fraction.  The
seed draws the rest: the sign of each row degree (polynomial or rational
row), the shifts' numerators and integer gaps, and the check points.  So
the spec space varies n, m, the sign mix, denominators and gaps across the
slots of a round, while every seed gives a round of the same make-up and
nearly the same cost.  A round is kept short (about a second), since a
run reports each operation's best latency over all the rounds it holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from ylab import cli, intertwiner, yangian
from ylab.battery import KERNEL_SPEC
from ylab.yangian import ModuleSpec

import checks

# The package's memo tables, held here before any tracing wrapper goes in.
# Clearing them before each operation gives it the empty tables a fresh
# `ylab` invocation starts with.
_ACTION_TABLE = yangian.action_table
_MEMO_TABLES = (yangian.action_table, yangian._factor_table,
                intertwiner._reduced_words_of)

# A `realize` input whose P_1 = u^2 + 1 has no rational root.  The correct
# answer is a one-line rejection with exit 2.
IRRATIONAL_REALIZE = '{"P":[["1","0","1"]],"Qn":{"num":["1"],"den":["1"]}}'


@dataclass
class MemoStats:
    """action_table hits and misses, summed across the per-op clears."""

    hits: int = 0
    misses: int = 0

    def reset_tables(self) -> None:
        info = _ACTION_TABLE.cache_info()
        self.hits += info.hits
        self.misses += info.misses
        for table in _MEMO_TABLES:
            table.cache_clear()


# ------------------------------------------------------------- spec drawing

class Slot(NamedTuple):
    """The cost-setting shape of one operation's module."""

    n: int
    sizes: tuple[int, ...]
    den: int = 1          # shift denominator
    frac: bool = False    # gaps between row shifts carry a fraction


S = Slot


def draw_mu(rng: random.Random, m: int, den: int, frac: bool
            ) -> tuple[Fraction, ...]:
    def part() -> Fraction:
        return Fraction(rng.randint(1, den - 1), den) if den > 1 else 0

    mu = [rng.randint(-1, 1) + part()]
    for _ in range(m - 1):
        mu.append(mu[-1] + rng.randint(-1, 1) + (part() if frac else 0))
    return tuple(Fraction(z) for z in mu)


def draw_spec(rng: random.Random, slot: Slot, *, buildable=False,
              negative_row=False) -> tuple[int, tuple, tuple]:
    """(n, mu, nu) for the slot, with seeded signs and shifts.

    buildable: the canonical operator exists (dominant weight, no vanishing
    series denominator).  negative_row: at least one row is rational.
    """
    n, sizes = slot.n, slot.sizes
    while True:
        nu = tuple(-d if d and rng.random() < 0.5 else d for d in sizes)
        if negative_row and not any(d < 0 for d in nu):
            a = rng.choice([a for a, d in enumerate(sizes) if d])
            nu = nu[:a] + (-nu[a],) + nu[a + 1:]
        mu = draw_mu(rng, len(sizes), slot.den, slot.frac)
        if not buildable or (checks.is_dominant(n, mu, nu)
                             and checks.series_defined(n, mu, nu)):
            return n, mu, nu


def draw_point(rng: random.Random) -> Fraction:
    """A rational off every integer sampling grid and every pole: its
    denominator is 7, 11 or 13, and shifts have denominator 1, 2 or 3."""
    den = rng.choice((7, 11, 13))
    return Fraction(rng.randint(-5, 5) * den + rng.randint(1, den - 1), den)


def make_spec(t) -> ModuleSpec:
    n, mu, nu = t
    return ModuleSpec.make(n, mu, nu)


def spec_label(t) -> str:
    n, mu, nu = t
    return (f"n={n} mu={','.join(map(checks.rational_str, mu))} "
            f"nu={','.join(map(str, nu))}")


# --------------------------------------------------------------- operations

@dataclass
class Op:
    """One operation: `call` is timed, `check` verifies its result.

    may_fail: the call raises today because of a known fault in ylab; the
    run counts it as failed instead of as a wrong result.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], None]
    may_fail: bool = False


@dataclass
class Workload:
    """One round of operations plus the hooks a run calls around rounds."""

    ops: list[Op]
    next_round: Callable[[], None] = lambda: None
    final_check: Callable[[], None] = lambda: None


# ------------------------------------------------------------- rtt-sample

# Cost classes, cheapest first: three small modules (m = 1 to 3), five of
# dimension 6 to 9 (the median falls among them) and one of dimension 16
# (the tail).
RTT_SLOTS = (
    S(1, (1, 1, 1)), S(3, (1,), 3), S(2, (2, 1), 2, True),
    S(3, (1, 1)), S(3, (1, 1), 2, True), S(3, (2, 1), 3, True),
    S(3, (1, 2), 2, True), S(4, (2,), 3),
    S(4, (1, 1), 3, True))


def rtt_ops(rng: random.Random) -> list[Op]:
    ops = []
    for slot in RTT_SLOTS:
        t = draw_spec(rng, slot)
        spec = make_spec(t)
        u, v = draw_point(rng), draw_point(rng)
        while v == u:
            v = draw_point(rng)
        x = [rng.randint(-9, 9) for _ in range(spec.dim)]

        def check(report, spec=spec, u=u, v=v, x=x):
            checks.check_rtt(report, spec, yangian.factor_action, u, v, x)

        ops.append(Op(f"rtt {spec_label(t)}",
                      lambda spec=spec: yangian.rtt_check(spec), check))
    return ops


# ---------------------------------------------------------- image-closure

# Three small images, and ten of dimension at most 4 with the kernel
# witness (the median falls here).  Rank-deficient images come from the
# integer-gap slots and the kernel witness.
IMAGE_SLOTS = (
    S(1, (1, 1)), S(2, (2, 2), 2), S(3, (1,), 3),
    S(2, (1, 1)), S(2, (1, 1)), S(2, (1, 1), 2), S(2, (1, 1), 3),
    S(2, (1, 1), 2, True), S(2, (1, 1), 3, True), S(2, (2, 1, 1), 2, True),
    S(2, (1, 2, 1)), S(3, (3, 1), 3, True))

# Two specs of dimension 9 with fractional gaps, whose images are the whole
# module: the tail, and most of the time.  They are fixed: drawn from the
# seed, such a spec's closure cost 0.40-0.68 s with the shifts, which moved
# the tail and ops_per_s with it.
CLOSURE_TAIL = ((3, (Fraction(-1, 2), Fraction(-1)), (-2, 1)),
                (3, (Fraction(4, 3), Fraction(3)), (-1, -1)))


def _image_call(spec: ModuleSpec):
    inter = intertwiner.build_I(spec)
    checked = intertwiner.intertwine_check(spec, inter)
    return inter, checked, intertwiner.image_analysis(spec, inter)


def _image_op(label: str, spec: ModuleSpec, u: Fraction,
              want_rank: Optional[int] = None) -> Op:
    def check(result):
        inter, checked, image = result
        checks.check_image(spec, inter, checked, image,
                           yangian.module_action, u)
        if want_rank is not None:
            checks.require(image.rank == want_rank,
                           f"kernel witness has rank {image.rank}, "
                           f"want {want_rank}")

    return Op(label, lambda: _image_call(spec), check)


def image_ops(rng: random.Random) -> list[Op]:
    ops = []
    for slot in IMAGE_SLOTS:
        t = draw_spec(rng, slot, buildable=True)
        ops.append(_image_op(f"image {spec_label(t)}", make_spec(t),
                             draw_point(rng)))
    ops.append(_image_op("image kernel witness", KERNEL_SPEC,
                         draw_point(rng), want_rank=3))
    for t in CLOSURE_TAIL:
        ops.append(_image_op(f"image {spec_label(t)}", make_spec(t),
                             draw_point(rng)))
    return ops


# ------------------------------------------------------------------ CLI jobs

@dataclass
class CliJob:
    """One `ylab` invocation: argv, stdin, and what the checks need."""

    label: str
    kind: str
    argv: list[str]
    stdin: Optional[str] = None
    expect: int = 0
    spec: Optional[tuple] = None
    pairs: Optional[tuple] = None
    may_fail: bool = False


@dataclass
class CliResult:
    code: int
    out: str
    err: str


def spec_flags(t) -> list[str]:
    n, mu, nu = t
    return [f"--n={n}", "--mu=" + ",".join(map(checks.rational_str, mu)),
            "--nu=" + ",".join(map(str, nu))]


def run_cli(job: CliJob, cache_dir: str) -> CliResult:
    """Run `ylab` in this process, with its stdin, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(job.stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(job.argv + ["--cache-dir", cache_dir])
    finally:
        sys.stdin = saved
    return CliResult(code, out.getvalue(), err.getvalue())


def verify_job(rng, suite: str, slot: Slot, **kw) -> CliJob:
    t = draw_spec(rng, slot, **kw)
    return CliJob(f"verify {suite} {spec_label(t)}", "verify",
                  ["verify", "--suite", suite] + spec_flags(t), spec=t)


def drinfeld_realize_jobs(rng, slot: Slot) -> list[CliJob]:
    """`drinfeld` on a module, and `realize` on the data it must report."""
    t = draw_spec(rng, slot)
    n, mu, nu = t
    data = checks.closed_data(n, list(zip(nu, mu)))
    return [CliJob(f"drinfeld {spec_label(t)}", "drinfeld",
                   ["drinfeld"] + spec_flags(t), spec=t),
            CliJob(f"realize {spec_label(t)}", "realize", ["realize"],
                   stdin=json.dumps(data))]


def reduce_job(rng, n: int) -> CliJob:
    """Pairs at three parameters; the first always admits a fusion."""
    params = [draw_mu(rng, 1, den, False)[0] for den in (1, 2, 3)]
    pairs = [(rng.randint(1, n), params[0]), (-n, params[0])]
    labels = list(range(-n, n + 1))
    for z in params:
        pairs += [(rng.choice(labels), z) for _ in range(2)]
    rng.shuffle(pairs)
    doc = [[d, checks.rational_str(z)] for d, z in pairs]
    return CliJob(f"reduce n={n} {json.dumps(doc)}", "reduce",
                  ["reduce", "--n", str(n)], stdin=json.dumps(doc),
                  pairs=(n, pairs))


def build_job(rng, slot: Slot) -> CliJob:
    t = draw_spec(rng, slot)
    return CliJob(f"build {spec_label(t)}", "build", ["build"] + spec_flags(t),
                  spec=t)


WORDS_TAIL = tuple(
    (2, tuple(Fraction(z) for z in mu.split(",")), nu) for mu, nu in (
        ("-1/2,0,-1/2,-1", (-1, -1, -1, 2)),
        ("-1/3,1/3,-1/3,-2/3", (-1, -1, -2, 1)),
        ("3/2,1,1/2,0", (1, 2, -1, 1))))


def cold_jobs(rng: random.Random) -> list[CliJob]:
    """Eleven jobs under 15 ms; nine two-row spectra of about 20 ms (the
    median); four of 20-100 ms; three four-row word checks of dim 8 (the
    tail falls on the middle one); and the `realize` job that fails today.
    All but the nine spectra of the median and the three word checks of
    the tail are drawn from the seed."""
    mixed = {"buildable": True, "negative_row": True}
    jobs = [build_job(rng, S(3, (1, 2, 3), 2)), build_job(rng, S(2, (1, 1))),
            build_job(rng, S(4, (2, 1), 3, True)),
            reduce_job(rng, 2), reduce_job(rng, 3)]
    jobs += drinfeld_realize_jobs(rng, S(3, (1, 2, 3), 2, True))
    jobs += drinfeld_realize_jobs(rng, S(2, (1, 2), 3, True))
    jobs += [verify_job(rng, "composite", S(2, (1, 1)), **mixed),
             verify_job(rng, "intertwine", S(2, (2, 1, 1)), buildable=True)]
    # The median falls in the middle of the nine spectra of one whole
    # family, n = 2, nu = (1, 1), mu_1 in {-1/2, 1/2, 3/2}, gap in -1..1.
    # Drawn from the seed, nine such spectra moved the median by a third
    # from seed to seed; the whole family costs the same for every seed.
    jobs += [CliJob(f"verify lemma41 {spec_label(t)}", "verify",
                    ["verify", "--suite", "lemma41"] + spec_flags(t), spec=t)
             for t in ((2, (Fraction(2 * a + 1, 2),
                            Fraction(2 * a + 1, 2) + gap), (1, 1))
                       for a in (-1, 0, 1) for gap in (-1, 0, 1))]
    jobs += [verify_job(rng, "composite", S(2, (1, 1, 1), 3, True), **mixed),
             verify_job(rng, "intertwine", S(2, (1, 1, 1), 2, True),
                        buildable=True),
             verify_job(rng, "words", S(2, (2, 1, 1, 2), 3, True),
                        buildable=True),
             verify_job(rng, "lemma41", S(4, (2,), 3))]
    # The tail falls on the middle one of three four-row word checks of
    # dim 8, fixed for the same reason: drawn from the seed, one such check
    # cost 190-350 ms depending on the shifts, and moved the tail with it.
    jobs += [CliJob(f"verify words {spec_label(t)}", "verify",
                    ["verify", "--suite", "words"] + spec_flags(t), spec=t)
             for t in WORDS_TAIL]
    jobs.append(CliJob("realize u^2+1", "realize", ["realize"],
                       stdin=IRRATIONAL_REALIZE, expect=2, may_fail=True))
    return jobs


def replay_jobs(rng: random.Random) -> list[CliJob]:
    """Cheap jobs of every command, one set per shift denominator."""
    jobs = []
    for den in (1, 2, 3, 2):
        jobs += [build_job(rng, S(3, (1, 2, 3), den)),
                 build_job(rng, S(2, (1, 1), den)),
                 build_job(rng, S(4, (2, 1), den))]
        jobs += drinfeld_realize_jobs(rng, S(3, (1, 2, 3), den))
        jobs += drinfeld_realize_jobs(rng, S(2, (1, 2), den))
        jobs += [reduce_job(rng, 2), reduce_job(rng, 3),
                 verify_job(rng, "composite", S(2, (1, 1), den),
                            buildable=True, negative_row=True),
                 verify_job(rng, "lemma41", S(2, (1, 1), den))]
    return jobs


def _cli_op(job: CliJob, cache_dir: Callable[[], str]) -> Op:
    def check(result: CliResult):
        checks.check_cli(job, result.code, result.out, result.err)

    return Op(job.label, lambda: run_cli(job, cache_dir()), check,
              job.may_fail)


def cold_workload(rng: random.Random, workdir: str, _memo) -> Workload:
    """Every round writes into a fresh, empty cache directory."""
    rounds = [0]

    def cache_dir() -> str:
        return os.path.join(workdir, f"round{rounds[0]}")

    def next_round() -> None:
        rounds[0] += 1

    return Workload([_cli_op(job, cache_dir) for job in cold_jobs(rng)],
                    next_round=next_round)


def cache_listing(directory: str) -> dict:
    """File name -> (inode, mtime); a rewrite by cache_put changes both."""
    return {e.name: (e.stat().st_ino, e.stat().st_mtime_ns)
            for e in os.scandir(directory)}


def replay_workload(rng: random.Random, workdir: str,
                    memo: MemoStats) -> Workload:
    """Fill the cache cold in set-up, then replay the jobs in seeded order."""
    jobs = replay_jobs(rng)
    cold = {}
    for job in jobs:
        memo.reset_tables()
        result = run_cli(job, workdir)
        checks.check_cli(job, result.code, result.out, result.err)
        cold[job.label] = result.out
    filled = cache_listing(workdir)
    rng.shuffle(jobs)

    def replay_op(job: CliJob) -> Op:
        def check(result: CliResult):
            checks.require(result.code == 0 and result.out == cold[job.label],
                           f"{job.label}: replay differs from the cold result")
        return Op(job.label, lambda: run_cli(job, workdir), check)

    def every_replay_hit() -> None:
        checks.require(cache_listing(workdir) == filled,
                       "a replayed job missed the cache and rewrote it")

    return Workload([replay_op(job) for job in jobs],
                    final_check=every_replay_hit)


def rtt_workload(rng: random.Random, _workdir: str, _memo) -> Workload:
    return Workload(rtt_ops(rng))


def image_workload(rng: random.Random, _workdir: str, _memo) -> Workload:
    return Workload(image_ops(rng))


WORKLOADS = {"rtt-sample": rtt_workload, "image-closure": image_workload,
             "cli-cold": cold_workload, "cli-replay": replay_workload}
