"""The benchmark's own tests: seeding, checks that can fail, runs, tracing.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import run
import tracing
import workloads
from ylab import cli, intertwiner, jsonio, yangian
from ylab.battery import KERNEL_SPEC
from ylab.yangian import ModuleSpec

BENCH = Path(run.__file__).resolve().parent
ROOT = BENCH.parent


def job_fields(jobs):
    return [(j.label, j.argv, j.stdin, j.expect) for j in jobs]


# ------------------------------------------------------------------ seeding

def test_same_seed_same_inputs():
    for draw in (workloads.cold_jobs, workloads.replay_jobs):
        assert job_fields(draw(random.Random("w:7"))) == \
            job_fields(draw(random.Random("w:7")))
        assert job_fields(draw(random.Random("w:7"))) != \
            job_fields(draw(random.Random("w:8")))
    for draw in (workloads.rtt_ops, workloads.image_ops):
        labels = [op.label for op in draw(random.Random("w:7"))]
        assert labels == [op.label for op in draw(random.Random("w:7"))]
        assert labels != [op.label for op in draw(random.Random("w:8"))]


def test_round_make_up_does_not_depend_on_the_seed():
    def shape(ops):
        return [op.label.split(" mu=")[0] for op in ops]
    for draw in (workloads.rtt_ops, workloads.image_ops):
        assert shape(draw(random.Random(1))) == shape(draw(random.Random(2)))
    kinds = [[j.kind for j in workloads.cold_jobs(random.Random(s))]
             for s in (1, 2)]
    assert kinds[0] == kinds[1]


def test_buildable_specs_are_dominant():
    rng = random.Random(5)
    for _ in range(50):
        n, mu, nu = workloads.draw_spec(rng, workloads.Slot(3, (1, 2, 1), 2),
                                         buildable=True)
        spec = ModuleSpec.make(n, mu, nu)
        intertwiner.check_dominant(spec)


# --------------------------------------------- every check is able to fail

def perturbed_factor_action(n, d, z, i, j):
    mat = yangian.factor_action(n, d, z, i, j)
    if (i, j) != (1, 2):
        return mat
    rows = [list(r) for r in mat]
    rows[0][0] = rows[0][0] + 1
    return tuple(tuple(r) for r in rows)


def rtt_case():
    spec = ModuleSpec.make(2, (0, Fraction(1, 2)), (1, -1))
    u, v = Fraction(3, 7), Fraction(-5, 11)
    x = [Fraction(k + 1, 3) for k in range(spec.dim)]
    return spec, yangian.rtt_check(spec), u, v, x


def test_rtt_check_accepts_the_program():
    spec, report, u, v, x = rtt_case()
    checks.check_rtt(report, spec, yangian.factor_action, u, v, x)


def test_rtt_check_rejects_a_wrong_matrix_entry():
    spec, report, u, v, x = rtt_case()
    with pytest.raises(checks.CheckFailed, match="defining relation"):
        checks.check_rtt(report, spec, perturbed_factor_action, u, v, x)


def test_rtt_check_rejects_a_wrong_report():
    spec, report, u, v, x = rtt_case()
    for change in ({"passed": False}, {"pairs": report.pairs - 1},
                   {"degree_bound": report.degree_bound + 1}):
        with pytest.raises(checks.CheckFailed):
            checks.check_rtt(dataclasses.replace(report, **change), spec,
                             yangian.factor_action, u, v, x)


def test_eigenvalue_check_rejects_a_wrong_eigenvalue():
    spec, _, u, _, _ = rtt_case()
    T = checks.module_at(yangian.factor_action, spec.n, spec.mu, spec.nu, u)
    checks.check_eigenvalues(T, spec.n, spec.mu, spec.nu, u)
    hv = checks.distinguished_index(spec.n, spec.nu)
    T[1][1][hv][hv] += Fraction(1, 5)
    with pytest.raises(checks.CheckFailed, match="distinguished"):
        checks.check_eigenvalues(T, spec.n, spec.mu, spec.nu, u)


def image_case(spec=ModuleSpec.make(2, (0, Fraction(1, 2)), (1, 1))):
    inter = intertwiner.build_I(spec)
    return (spec, inter, intertwiner.intertwine_check(spec, inter),
            intertwiner.image_analysis(spec, inter), Fraction(2, 7))


def test_image_check_accepts_the_program():
    spec, inter, checked, image, u = image_case()
    checks.check_image(spec, inter, checked, image, yangian.module_action, u)
    spec, inter, checked, image, u = image_case(KERNEL_SPEC)
    checks.check_image(spec, inter, checked, image, yangian.module_action, u)
    assert image.rank == 3 and inter.dim == 4


def test_image_check_rejects_a_wrong_matrix_entry():
    spec, inter, checked, image, u = image_case()
    rows = [list(r) for r in inter.matrix]
    rows[1][2] += 1
    wrong = dataclasses.replace(inter, matrix=tuple(map(tuple, rows)))
    with pytest.raises(checks.CheckFailed):
        checks.check_image(spec, wrong, checked, image,
                           yangian.module_action, u)


def test_image_check_rejects_a_wrong_verdict():
    spec, inter, checked, image, u = image_case()
    for change in ({"rank": image.rank - 1}, {"irreducible": None}):
        with pytest.raises(checks.CheckFailed):
            checks.check_image(spec, inter, checked,
                               dataclasses.replace(image, **change),
                               yangian.module_action, u)


def cli_case(kind):
    jobs = workloads.cold_jobs(random.Random(11)) + \
        workloads.replay_jobs(random.Random(11))
    return next(j for j in jobs if j.kind == kind
                or j.label.startswith(kind))


def run_job(job, tmp_path):
    result = workloads.run_cli(job, str(tmp_path))
    checks.check_cli(job, result.code, result.out, result.err)
    return result


@pytest.mark.parametrize("kind", ["build", "drinfeld", "realize", "reduce",
                                  "verify composite", "verify lemma41",
                                  "verify words"])
def test_cli_check_accepts_the_program(kind, tmp_path):
    run_job(cli_case(kind), tmp_path)


def edit_report(text, edit):
    doc = json.loads(text)
    edit(doc)
    return jsonio.dumps(doc)


def shift_first_root(doc):
    poly = doc["data"]["P"][-1]
    poly[0] = checks.rational_str(Fraction(poly[0]) + 1)


def unfuse(doc):
    doc["reduced"].append([1, doc["reduced"][0][1]])
    doc["reduced"].append([-doc["n"], doc["reduced"][0][1]])
    doc["size"] = len(doc["reduced"])


@pytest.mark.parametrize("kind, edit", [
    ("build", lambda d: d.update(dim=d["dim"] + 1)),
    ("build", lambda d: d["lambar"].reverse() or d["lambar"].append("9")),
    ("drinfeld", shift_first_root),
    ("realize", lambda d: d["spec"].update(mu=[checks.rational_str(
        Fraction(z) + Fraction(1, 7)) for z in d["spec"]["mu"]])),
    ("reduce", unfuse),
    ("verify composite", lambda d: d.update(sign=-d["sign"], K=d["K"] + 1)),
    ("verify words", lambda d: d.update(words=d["words"] + 1)),
    ("verify lemma41", lambda d: d.update(passed=False)),
])
def test_cli_check_rejects_a_wrong_report(kind, edit, tmp_path):
    job = cli_case(kind)
    good = run_job(job, tmp_path)
    bad = edit_report(good.out, edit)
    assert bad != good.out
    with pytest.raises(checks.CheckFailed):
        checks.check_cli(job, 0, bad, "")


def test_cli_check_rejects_non_canonical_json_and_wrong_exit(tmp_path):
    job = cli_case("build")
    good = run_job(job, tmp_path)
    with pytest.raises(checks.CheckFailed, match="canonical"):
        checks.check_cli(job, 0, json.dumps(json.loads(good.out)) + "\n", "")
    with pytest.raises(checks.CheckFailed, match="exit"):
        checks.check_cli(job, 1, good.out, "")


def test_irrational_realize_rejection_shape():
    job = next(j for j in workloads.cold_jobs(random.Random(1))
               if j.expect == 2)
    checks.check_cli(job, 2, "", "invalid input: no rational roots\n")
    with pytest.raises(checks.CheckFailed):
        checks.check_cli(job, 2, "", "Traceback\n  line\nError\n")


def test_replay_checks_reject_a_changed_byte_and_a_rewrite(tmp_path):
    memo = workloads.MemoStats()
    workload = workloads.replay_workload(random.Random(3), str(tmp_path),
                                         memo)
    op = workload.ops[0]
    result = op.call()
    op.check(result)
    workload.final_check()
    with pytest.raises(checks.CheckFailed):
        op.check(dataclasses.replace(result, out=result.out[:-2] + "\n"))
    victim = next(tmp_path.iterdir())   # rewritten as a cache miss would
    cli.cache_put(str(tmp_path), victim.stem, victim.read_text())
    with pytest.raises(checks.CheckFailed, match="rewrote"):
        workload.final_check()


def test_an_op_that_raises_is_wrong_unless_it_may_fail():
    def boom():
        raise ValueError("boom")
    ops = [workloads.Op("fine", lambda: 1, lambda result: None),
           workloads.Op("known", boom, lambda result: None, may_fail=True)]
    workload = workloads.Workload(ops)
    done = run.timed_rounds(workload, workloads.MemoStats(), 0)
    assert done["failed"] == 1 and set(done["best"]) == {0}
    assert run.check_outputs(workload, done) == []
    ops.append(workloads.Op("new", boom, lambda result: None))
    done = run.timed_rounds(workload, workloads.MemoStats(), 0)
    assert run.check_outputs(workload, done) == [
        "raised: new: ValueError: boom"]


# ---------------------------------------------------------------- tracing

def test_self_times_of_a_synthetic_span_tree():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    rec = tracing.Recorder(clock=lambda: next(ticks))
    rec.begin("a")          # a: [0, 10]
    rec.begin("b")          # b: [1, 4]
    rec.begin("c")          # c: [2, 3]
    rec.end()
    rec.end()
    rec.begin("d")          # d: [5, 9]
    rec.end()
    rec.end()
    assert rec.self_s == {"a": 3.0, "b": 2.0, "c": 1.0, "d": 4.0}
    assert rec.total_s == {"a": 10.0, "b": 3.0, "c": 1.0, "d": 4.0}
    parents = {name: parent for _, parent, name, _, _ in rec.spans}
    ids = {name: sid for sid, _, name, _, _ in rec.spans}
    assert parents == {"a": -1, "b": ids["a"], "c": ids["b"], "d": ids["a"]}


def test_instrumentation_sees_calls_and_comes_off(tmp_path):
    original = intertwiner.build_I
    rec = tracing.Recorder()
    inst = tracing.Instrumentation(rec)
    inst.install()
    try:
        assert cli.build_I is not original
        job = workloads.CliJob("i", "verify", ["verify", "--suite",
                                               "intertwine", "--n=2",
                                               "--mu=0,1/2", "--nu=1,1"])
        assert workloads.run_cli(job, str(tmp_path)).code == 0
        assert workloads.run_cli(job, str(tmp_path)).code == 0
    finally:
        inst.uninstall()
    assert cli.build_I is original and intertwiner.build_I is original
    assert rec.calls["cli.main"] == 2 and rec.calls["intertwiner.build_I"] == 1
    assert rec.calls["glmops.XY_op"] >= 1 and rec.calls["glmops.E_op"] >= 1
    assert rec.counts["cli.cache_get.hits"] == 1
    assert rec.self_s["cli.main"] < rec.total_s["cli.main"]


def test_tail_percentile():
    lat = [float(k) for k in range(1, 101)]
    assert run.tail(lat, 90) == (90.0, 10)
    assert run.tail(lat, 99) == (99.0, 1)


# --------------------------------------------------------- whole runs

def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" /
                                               "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_runs_end_to_end(workload, trace):
    done = bench("--workload", workload, "--seed", "5", "--seconds", "0",
                 "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    assert result["failed"] == (1 if workload == "cli-cold" else 0)
    want = run.END_TO_END if trace == "0" else tracing.PER_LAYER
    assert set(result["metrics"]) == set(want)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    names = [m["name"] for m in spec["per_layer"]]
    assert names == list(tracing.PER_LAYER)
    for m in spec["per_layer"]:
        assert m["unit"] == tracing.UNITS[m["name"].rsplit(".", 1)[1]]


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench("--workload", "cli-replay", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
