"""Runner-level exercises of the command-line front end."""

import argparse
import contextlib
import errno
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ylab import cli


def run(capsys, monkeypatch, argv, stdin=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SPEC21 = ["--n", "2", "--mu", "0,0", "--nu", "2,1"]


# -------------------------------------------------------------------- build

def test_build_report(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["build"] + SPEC21)
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 2
    assert doc["lambar"] == ["2", "1"]
    assert doc["dominant"] is True
    assert out.endswith("\n")


def test_build_rejects_wide_degree(capsys, monkeypatch):
    code, out, err = run(capsys, monkeypatch,
                         ["build", "--n", "2", "--mu", "0", "--nu", "3"])
    assert code == 2
    assert out == ""
    assert "exceeds" in err


def test_build_negative_degree_sign(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch,
                       ["build", "--n", "2", "--mu", "0", "--nu", "-2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 1
    assert doc["eps"] == [-1]


@pytest.mark.parametrize("argv,flag", [
    (["build", "--n", "2", "--mu", "-1,0", "--nu", "1,1"], "--mu"),
    (["verify", "--suite", "composite", "--n", "2", "--mu", "0,0",
      "--nu", "-1,1"], "--nu"),
    (["intertwine", "--n", "2", "--mu", "0,-2", "--nu", "1,1",
      "--word", "-1,1"], "--word"),
])
def test_list_value_with_leading_minus(capsys, monkeypatch, argv, flag):
    at = argv.index(flag)
    joined = argv[:at] + [f"{flag}={argv[at + 1]}"] + argv[at + 2:]
    assert run(capsys, monkeypatch, argv) == run(capsys, monkeypatch, joined)


@pytest.mark.parametrize("prefix", ["--w", "--wo", "--wor"])
@pytest.mark.parametrize("word", ["-1,1", "1"])
def test_list_flag_prefix_binds_its_value(capsys, monkeypatch, prefix, word):
    base = ["intertwine", "--n", "2", "--mu", "0,-2", "--nu", "1,1"]
    assert (run(capsys, monkeypatch, base + [prefix, word])
            == run(capsys, monkeypatch, base + [f"--word={word}"]))


def test_long_flags_are_the_parsers_options():
    """The abbreviation rule sees every long option argparse knows."""
    parser = cli._parser()
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    options = {flag for sub in subparsers.choices.values()
               for flag in sub._option_string_actions if flag[:2] == "--"}
    assert options == set(cli.LONG_FLAGS)


# One job of each command, with the stdin it reads.
ONE_JOB_EACH = [
    (["build"] + SPEC21, None),
    (["intertwine", "--n", "2", "--mu", "0,-2", "--nu", "1,1"], None),
    (["drinfeld"] + SPEC21, None),
    (["realize"], '{"P":[["0","1"]],"Qn":{"num":["1"],"den":["1"]}}'),
    (["reduce", "--n", "2"], '[[1,"0"],[-2,"0"]]'),
    (["verify", "--suite", "eigen"] + SPEC21, None),
]


def test_parser_is_built_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: built.append(1)
                        or init(self, *a, **k))
    for argv, stdin in ONE_JOB_EACH:
        assert run(capsys, monkeypatch, argv, stdin)[0] == 0
    assert built == []


# Valid jobs and usage errors; argparse writes the latter and exits.
PARSER_PROBES = [
    ["build"] + SPEC21,
    ["drinfeld"] + SPEC21,
    ["intertwine", "--n", "2", "--mu", "0,-2", "--nu", "1,1", "--wor", "-1,1"],
    ["verify", "--suite", "rtt", "--sam", "169", "--n", "2", "--mu", "0,0",
     "--nu", "1,-1"],
    ["verify", "--suite", "nope"] + SPEC21,
    ["verify"] + SPEC21,
    ["build", "--n", "x", "--mu", "0", "--nu", "1"],
    ["bogus"],
    [],
    ["--help"],
    ["verify", "-h"],
    ["intertwine", "--n", "2", "--mu", "0,-2", "--nu", "1,1", "--wor"],
    ["build", "--cache-dir"],
]


def _outcome(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as stop:
        code = ("SystemExit", stop.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_shared_parser_keeps_no_state(capsys, monkeypatch):
    """The process-wide parser answers every argv, in any order, as a
    parser built afresh for that call does."""
    shared = cli._PARSER
    fresh = {}
    for argv in PARSER_PROBES:
        monkeypatch.setattr(cli, "_PARSER", cli._parser())
        fresh[tuple(argv)] = _outcome(capsys, argv)
    monkeypatch.setattr(cli, "_PARSER", shared)
    assert sum(code == 0 for code, _, _ in fresh.values()) == 3
    for order in (PARSER_PROBES, PARSER_PROBES[::-1], PARSER_PROBES * 2):
        for argv in order:
            assert _outcome(capsys, argv) == fresh[tuple(argv)], argv


def _parsed(parse, argv):
    """parse(argv)'s namespace as a dict, or its SystemExit code, with what
    it wrote to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as stop:
            result = ("SystemExit", stop.code)
    return result, out.getvalue(), err.getvalue()


COMMANDS = ("build", "intertwine", "drinfeld", "realize", "reduce", "verify")
# Tokens left over after each command's own flags, which its parser hands
# back and the whole parser reports.
LEFTOVER_PROBES = [[command, "--zzz"] for command in COMMANDS] + [
    ["verify", "--suite", "rtt"] + SPEC21 + ["extra"],
    ["realize", "stray", "--out", "x"],
    ["reduce", "--n", "2", "--", "--n"],
    ["build", "--zzz", "-h"],
    ["drinfeld", "-x"] + SPEC21,
    ["intertwine", "--word", "1", "1", "--mu=0"],
]


@pytest.mark.parametrize("argv", PARSER_PROBES + LEFTOVER_PROBES)
def test_command_parser_answers_as_the_whole_parser(argv):
    argv = cli._bind_list_values(argv)
    assert (_parsed(cli._args_of, argv)
            == _parsed(cli._PARSER.parse_args, argv))


# Commands, each command's flags and abbreviations of them, help, the
# separator, unknown flags and values, valid and not.
ARGV_TOKENS = list(COMMANDS) + list(cli.LONG_FLAGS) + [
    "--su", "--sa", "--w", "--c", "--o", "--he", "--s", "--m=2", "--n=2",
    "--suite=rtt", "--mu=-1,0", "-h", "--", "--zzz", "-x", "2", "-2", "x",
    "0,0", "1,-1", "-1,1", "rtt", "lemma41", "nope", "", "extra"]


@settings(max_examples=400)
@given(head=st.sampled_from(list(COMMANDS) * 4 + ["bogus", "-h", "--",
                                                  "--n"]),
       tail=st.lists(st.sampled_from(ARGV_TOKENS), max_size=8))
def test_property_command_parser_answers_as_the_whole_parser(head, tail):
    argv = cli._bind_list_values([head] + tail)
    assert (_parsed(cli._args_of, argv)
            == _parsed(cli._PARSER.parse_args, argv))


def test_each_job_is_parsed_once(capsys, monkeypatch):
    calls = []
    parse = argparse.ArgumentParser.parse_known_args
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args",
                        lambda self, *a, **k: calls.append(self.prog)
                        or parse(self, *a, **k))
    for argv, stdin in ONE_JOB_EACH:
        calls.clear()
        assert run(capsys, monkeypatch, argv, stdin)[0] == 0
        assert calls == [f"ylab {argv[0]}"], argv


def test_build_reads_spec_from_stdin(capsys, monkeypatch):
    payload = '{"n":2,"m":2,"mu":["0","0"],"nu":[2,1]}'
    code, out, _ = run(capsys, monkeypatch, ["build"], stdin=payload)
    assert code == 0
    assert json.loads(out)["dim"] == 2


def test_build_rejects_partial_flags(capsys, monkeypatch):
    code, _, err = run(capsys, monkeypatch, ["build", "--n", "2"])
    assert code == 2
    assert "together" in err


# --------------------------------------------------------------- intertwine

def test_intertwine_single_row_is_identity(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch,
                       ["intertwine", "--n", "2", "--mu", "0", "--nu", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["matrix"] == [["1", "0"], ["0", "1"]]
    assert doc["hv_check"] is True
    assert doc["rank"] == 2 == doc["image_dim"]


def test_intertwine_not_dominant_exit(capsys, monkeypatch):
    code, out, err = run(capsys, monkeypatch,
                         ["intertwine", "--n", "2", "--mu", "0,1",
                          "--nu", "1,1"])
    assert code == 3
    assert out == ""
    assert "(1, 2)" in err


def test_intertwine_word_flag(capsys, monkeypatch):
    base = ["intertwine", "--n", "2", "--mu", "0,-2", "--nu", "1,1"]
    code_a, out_a, _ = run(capsys, monkeypatch, base)
    code_b, out_b, _ = run(capsys, monkeypatch, base + ["--word", "1"])
    assert code_a == code_b == 0
    assert (json.loads(out_a)["matrix"] == json.loads(out_b)["matrix"])


def test_intertwine_bad_word(capsys, monkeypatch):
    code, _, err = run(capsys, monkeypatch,
                       ["intertwine", "--n", "2", "--mu", "0,-2",
                        "--nu", "1,1", "--word", "1,1"])
    assert code == 2
    assert "word" in err


# ------------------------------------------------- drinfeld/realize/reduce

def test_drinfeld_realize_round_trip(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch,
                       ["drinfeld", "--n", "2", "--mu", "0,3",
                        "--nu", "1,-2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "rational"
    code, out, _ = run(capsys, monkeypatch, ["realize"],
                       stdin=json.dumps(doc["data"]))
    assert code == 0
    realized = json.loads(out)
    assert realized["spec"]["nu"] == [-2, 1]
    assert realized["kind"] == "rational"


def test_drinfeld_on_a_wide_gap(capsys, monkeypatch):
    # the two row shifts are 77,777,776 apart: the solver steps over the
    # roots of a chain, not through every integer between them
    start = time.perf_counter()
    code, out, err = run(capsys, monkeypatch,
                         ["drinfeld", "--n", "3", "--mu", "77777777,1",
                          "--nu", "1,1"])
    assert time.perf_counter() - start < 10
    assert (code, err) == (0, "")
    assert out == (
        '{"command":"drinfeld","data":{"P":[["77777777","-77777778","1"],'
        '["1"]],"Qn":{"den":["1"],"num":["1"]}},"kind":"polynomial",'
        '"pairs":[[1,"1"],[1,"77777777"]]}\n')


def test_realize_rejects_junk(capsys, monkeypatch):
    code, _, err = run(capsys, monkeypatch, ["realize"], stdin='{"P":')
    assert code == 2
    assert "JSON" in err


def test_realize_irrational_roots_is_invalid(capsys, monkeypatch):
    # P = u^2 + 1 has no rational roots: rejected as input, not a traceback
    data = {"P": [["1", "0", "1"]], "Qn": {"num": ["1"], "den": ["1"]}}
    code, out, err = run(capsys, monkeypatch, ["realize"],
                         stdin=json.dumps(data))
    assert code == 2 and out == ""
    assert err.startswith("invalid input:") and err.count("\n") == 1


@pytest.mark.parametrize("argv,stdin", [
    (["build", "--n", "2", "--mu", "1e5000,0", "--nu", "1,1"], None),
    (["realize"], '{"P":[["1e20000","1"]],"Qn":{"num":["1"],"den":["1"]}}'),
    (["realize"],
     '{"P":[[' + "1" * 5000 + ',1]],"Qn":{"num":["1"],"den":["1"]}}'),
], ids=["exponent-flag", "exponent-json", "json-integer"])
def test_oversized_rational_is_invalid(capsys, monkeypatch, argv, stdin):
    # Fraction would expand an exponent form, whose digits overflow the
    # report; json refuses an integer of over 4300 digits
    code, out, err = run(capsys, monkeypatch, argv, stdin)
    assert code == 2 and out == ""
    assert err.startswith("invalid input:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_realize_hard_constant_is_invalid_promptly():
    # a 90-byte input whose constant has no small prime factor; run in a
    # child process so that a regression to integer factoring fails on the
    # timeout instead of stalling the suite
    data = ('{"P":[["300000000000000001940000000000000002091","0","1"]],'
            '"Qn":{"num":["1"],"den":["1"]}}')
    env = dict(os.environ, YLAB_CACHE="")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (os.path.dirname(os.path.dirname(cli.__file__)),
                      env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-m", "ylab.cli", "realize"],
                          input=data, capture_output=True, text=True,
                          env=env, timeout=30)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("invalid input:")
    assert done.stderr.count("\n") == 1


def test_reduce_fuses_pairs(capsys, monkeypatch):
    pairs = '[[1,"0"],[-2,"0"],[2,"3"],[-2,"3"]]'
    code, out, _ = run(capsys, monkeypatch, ["reduce", "--n", "2"],
                       stdin=pairs)
    assert code == 0
    doc = json.loads(out)
    assert doc["source_size"] == 4
    assert doc["size"] == len(doc["reduced"]) == 2


@pytest.mark.parametrize("n,pairs", [
    ("2", '[[7,"0"]]'), ("2", '[[-3,"0"],[1,"0"]]'),
    ("0", '[[0,"0"]]'), ("-2", '[[1,"0"]]'),
])
def test_reduce_rejects_labels_no_module_has(capsys, monkeypatch, tmp_path,
                                             n, pairs):
    code, out, err = run(capsys, monkeypatch,
                         ["reduce", "--n", n, "--cache-dir", str(tmp_path)],
                         stdin=pairs)
    assert (code, out) == (2, "")
    assert err.startswith("invalid input:") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


# ------------------------------------------------------------------- verify

@pytest.mark.parametrize("suite", cli.SUITES)
def test_verify_suites_pass(capsys, monkeypatch, suite):
    code, out, _ = run(capsys, monkeypatch,
                       ["verify", "--suite", suite, "--n", "2",
                        "--mu", "0,0", "--nu", "1,-1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["suite"] == suite


def test_verify_composite_reports_counters(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch,
                       ["verify", "--suite", "composite", "--n", "2",
                        "--mu", "0,0", "--nu", "1,-1"])
    assert code == 0
    doc = json.loads(out)
    assert {"K", "L", "M"} <= doc.keys()
    assert doc["sign"] in (1, -1)


def test_verify_rtt_samples_floor(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch,
                       ["verify", "--suite", "rtt", "--samples", "169",
                        "--n", "2", "--mu", "0,0", "--nu", "1,-1"])
    assert code == 0
    assert json.loads(out)["pairs"] == 169


def test_verify_rtt_huge_grid_costs_nothing(capsys, monkeypatch):
    # a passing module is proved by its residual's coefficients, so the
    # grid that --samples names is counted and never built
    code, out, _ = run(capsys, monkeypatch,
                       ["verify", "--suite", "rtt", "--samples", "100000000",
                        "--n", "2", "--mu", "0,0", "--nu", "1,-1"])
    assert code == 0
    assert '"pairs":100000000' in out


def test_verify_rtt_too_few_samples(capsys, monkeypatch):
    code, _, err = run(capsys, monkeypatch,
                       ["verify", "--suite", "rtt", "--samples", "4",
                        "--n", "2", "--mu", "0,0", "--nu", "1,-1"])
    assert code == 2
    assert "samples" in err


def run_child(script):
    """Run script in a fresh Python with this ylab importable and no cache;
    returns the CompletedProcess."""
    env = dict(os.environ, YLAB_CACHE="")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (os.path.dirname(os.path.dirname(cli.__file__)),
                      env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)


def test_verify_rtt_does_not_import_numpy_ma():
    # np.unique and np.union1d can import numpy.ma, which costs a fresh
    # process 13-20 ms; run in a child process, where nothing else has
    # imported it yet
    script = ("import sys\n"
              "from ylab import cli\n"
              "code = cli.main(['verify', '--suite', 'rtt', '--n', '2',"
              " '--mu', '0,0', '--nu', '1,-1'])\n"
              "print(code, 'numpy.ma' in sys.modules)\n")
    done = run_child(script)
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout.splitlines()[-1] == "0 False"


def test_only_the_rtt_suite_imports_numpy():
    # numpy is imported inside the defining-relation check alone, so a
    # fresh process that runs every other command never loads it
    script = (
        "import io, sys\n"
        "from ylab import cli\n"
        "spec = ['--n', '2', '--mu', '0,0', '--nu', '1,-1']\n"
        "jobs = [['build', *spec], ['intertwine', *spec],"
        " ['drinfeld', *spec]]\n"
        "jobs += [['verify', '--suite', s, *spec] for s in ('intertwine',"
        " 'words', 'eigen', 'lemma41', 'iso', 'composite', 'drinfeld')]\n"
        "codes = [cli.main(job) for job in jobs]\n"
        "sys.stdin = io.StringIO("
        "'{\"P\":[[\"0\",\"1\"]],\"Qn\":{\"den\":[\"-3\",\"1\"],"
        "\"num\":[\"1\"]}}')\n"
        "codes.append(cli.main(['realize']))\n"
        "sys.stdin = io.StringIO('[[1,\"0\"],[-2,\"0\"],[2,\"3\"]]')\n"
        "codes.append(cli.main(['reduce', '--n', '2']))\n"
        "print(codes, 'numpy' in sys.modules, file=sys.stderr)\n")
    done = run_child(script)
    assert done.returncode == 0
    assert done.stderr.splitlines()[-1] == f"{[0] * 12} False"


def test_verify_desk_bounds(capsys, monkeypatch):
    code, _, _ = run(capsys, monkeypatch,
                     ["verify", "--suite", "lemma41", "--n", "3",
                      "--mu", "0,0,0", "--nu", "1,1,1"])
    assert code == 2  # dim 27 exceeds the brute-force bound
    code, _, _ = run(capsys, monkeypatch,
                     ["verify", "--suite", "iso", "--n", "5",
                      "--mu", "0", "--nu", "1"])
    assert code == 2


def test_verify_unknown_suite_is_usage_error(capsys, monkeypatch):
    with pytest.raises(SystemExit) as info:
        run(capsys, monkeypatch, ["verify", "--suite", "nope"] + SPEC21)
    assert info.value.code == 2


# -------------------------------------------------------------------- cache

def test_cache_round_trip_and_env_override(capsys, monkeypatch, tmp_path):
    argv = ["verify", "--suite", "eigen", "--n", "2", "--mu", "0,0",
            "--nu", "2,1", "--cache-dir", str(tmp_path)]
    code_a, out_a, _ = run(capsys, monkeypatch, argv)
    entries = os.listdir(tmp_path)
    assert len(entries) == 1 and entries[0].endswith(".json")
    code_b, out_b, _ = run(capsys, monkeypatch, argv)
    assert (code_a, out_a) == (code_b, out_b) == (0, out_a)

    # env var wins over a bogus --cache-dir and still hits the same entry
    monkeypatch.setenv("YLAB_CACHE", str(tmp_path))
    code_c, out_c, _ = run(capsys, monkeypatch,
                           argv[:-1] + ["/nonexistent/nowhere"])
    assert (code_c, out_c) == (0, out_a)
    assert os.listdir(tmp_path) == entries


def test_cache_ignores_out_flag_in_key(capsys, monkeypatch, tmp_path):
    target = tmp_path / "report.json"
    argv = ["build", "--cache-dir", str(tmp_path / "cache"),
            "--out", str(target)] + SPEC21
    code, out, _ = run(capsys, monkeypatch, argv)
    assert code == 0 and out == ""
    first = target.read_text(encoding="utf-8")
    argv2 = ["build", "--cache-dir", str(tmp_path / "cache")] + SPEC21
    code, out, _ = run(capsys, monkeypatch, argv2)
    assert code == 0
    assert out == first  # cache hit: byte-identical despite --out change


def test_cache_entry_from_another_format_is_a_miss(capsys, monkeypatch,
                                                   tmp_path):
    argv = ["build", "--cache-dir", str(tmp_path)] + SPEC21
    code, fresh, _ = run(capsys, monkeypatch, argv)
    assert code == 0
    (old,) = tmp_path.iterdir()
    monkeypatch.setattr(cli, "CACHE_FORMAT", 2)
    computed = []
    monkeypatch.setattr(cli, "cmd_build",
                        lambda spec, build=cli.cmd_build:
                        computed.append(spec) or build(spec))
    assert run(capsys, monkeypatch, argv)[:2] == (0, fresh)
    assert len(computed) == 1  # recomputed, not served from the old entry
    (new,) = set(tmp_path.iterdir()) - {old}  # written under a new key
    assert new.read_text(encoding="utf-8") == fresh


def test_cache_truncated_entry_is_a_miss(capsys, monkeypatch, tmp_path):
    argv = ["build", "--cache-dir", str(tmp_path)] + SPEC21
    code, fresh, _ = run(capsys, monkeypatch, argv)
    assert code == 0
    (entry,) = tmp_path.iterdir()
    entry.write_bytes(entry.read_bytes()[:20])
    code, out, _ = run(capsys, monkeypatch, argv)
    assert (code, out) == (0, fresh)  # recomputed, not the 20 bytes
    assert entry.read_text(encoding="utf-8") == fresh  # and overwritten
    entry.write_bytes(b"\xff" + fresh.encode("utf-8"))  # not UTF-8 at all
    assert run(capsys, monkeypatch, argv)[:2] == (0, fresh)
    monkeypatch.setattr(cli, "cmd_build", lambda spec: pytest.fail("a miss"))
    assert run(capsys, monkeypatch, argv)[:2] == (0, fresh)  # a hit again


def assert_rejected(outcome):
    code, out, err = outcome
    assert (code, out) == (2, "")
    assert err.startswith("invalid input:") and err.count("\n") == 1


def test_cache_dir_naming_a_file_is_invalid(capsys, monkeypatch, tmp_path):
    plain = tmp_path / "plain"
    plain.write_text("not a directory", encoding="utf-8")
    assert_rejected(run(capsys, monkeypatch,
                        ["build", "--cache-dir", str(plain)] + SPEC21))
    assert plain.read_text(encoding="utf-8") == "not a directory"


def test_cache_env_naming_a_file_is_invalid(capsys, monkeypatch, tmp_path):
    plain = tmp_path / "plain"
    plain.write_text("not a directory", encoding="utf-8")
    monkeypatch.setenv("YLAB_CACHE", str(plain))
    assert_rejected(run(capsys, monkeypatch, ["build"] + SPEC21))


def test_cache_entry_that_is_a_directory(capsys, monkeypatch, tmp_path):
    argv = ["build", "--cache-dir", str(tmp_path)] + SPEC21
    assert run(capsys, monkeypatch, argv)[0] == 0
    (entry,) = tmp_path.iterdir()
    entry.unlink()
    entry.mkdir()
    computed = []
    monkeypatch.setattr(cli, "cmd_build",
                        lambda spec, build=cli.cmd_build:
                        computed.append(spec) or build(spec))
    assert_rejected(run(capsys, monkeypatch, argv))
    assert len(computed) == 1  # a miss that recomputes, then cannot store
    assert list(tmp_path.iterdir()) == [entry] and entry.is_dir()


def test_cache_write_failure_only_warns(capsys, monkeypatch, tmp_path):
    """A full (or read-only, or forbidden) cache disk is not invalid input:
    the report is still written, with the job's own exit code."""
    code, fresh, _ = run(capsys, monkeypatch, ["build"] + SPEC21)
    assert code == 0

    def full(directory, key, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli, "cache_put", full)
    argv = ["build", "--cache-dir", str(tmp_path)] + SPEC21
    code, out, err = run(capsys, monkeypatch, argv)
    assert (code, out) == (0, fresh)
    assert err.startswith("warning: cannot write the cache entry:")
    assert err.count("\n") == 1 and os.strerror(errno.ENOSPC) in err
    target = tmp_path / "report.json"
    code, out, err = run(capsys, monkeypatch, argv + ["--out", str(target)])
    assert (code, out) == (0, "") and err.count("\n") == 1
    assert target.read_text(encoding="utf-8") == fresh
    assert list(tmp_path.iterdir()) == [target]


def test_out_in_a_missing_directory_is_invalid(capsys, monkeypatch,
                                               tmp_path):
    out = ["--out", str(tmp_path / "missing" / "report.json")]
    assert_rejected(run(capsys, monkeypatch, ["build"] + SPEC21 + out))
    cache = ["--cache-dir", str(tmp_path / "cache")]
    assert run(capsys, monkeypatch, ["build"] + SPEC21 + cache)[0] == 0
    # a cache hit writes through the same --out
    assert_rejected(run(capsys, monkeypatch, ["build"] + SPEC21 + cache + out))
    assert not (tmp_path / "missing").exists()


def test_nul_byte_in_a_path_is_invalid(capsys, monkeypatch, tmp_path):
    monkeypatch.delenv("YLAB_CACHE", raising=False)
    monkeypatch.chdir(tmp_path)
    for flag in ("--cache-dir", "--out"):
        assert_rejected(run(capsys, monkeypatch,
                            ["build", flag, "a\x00b"] + SPEC21))
    assert list(tmp_path.iterdir()) == []
    cache = ["--cache-dir", str(tmp_path / "cache")]
    assert run(capsys, monkeypatch, ["build"] + SPEC21 + cache)[0] == 0
    # a cache hit writes through the same --out
    assert_rejected(run(capsys, monkeypatch,
                        ["build", "--out", "a\x00b"] + SPEC21 + cache))


def test_empty_cache_dir_is_invalid(capsys, monkeypatch, tmp_path):
    monkeypatch.delenv("YLAB_CACHE", raising=False)
    monkeypatch.chdir(tmp_path)
    assert_rejected(run(capsys, monkeypatch,
                        ["build", "--cache-dir", ""] + SPEC21))
    assert list(tmp_path.iterdir()) == []


def test_cache_env_overrides_an_empty_cache_dir(capsys, monkeypatch,
                                                tmp_path):
    cache = tmp_path / "cache"
    monkeypatch.setenv("YLAB_CACHE", str(cache))
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, monkeypatch,
                         ["build", "--cache-dir", ""] + SPEC21)
    assert (code, err) == (0, "") and out
    assert [p.parent for p in tmp_path.rglob("*.json")] == [cache]


# ------------------------------------------------------------------- stdout

def run_to(stdout, unbuffered):
    """Run a build job in a child process whose stdout is the given file,
    unbuffered or not ("1" or ""); returns the CompletedProcess, its stderr
    as text."""
    env = dict(os.environ, YLAB_CACHE="", PYTHONUNBUFFERED=unbuffered)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (os.path.dirname(os.path.dirname(cli.__file__)),
                      env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "ylab.cli", "build"]
                          + SPEC21, stdout=stdout, stderr=subprocess.PIPE,
                          text=True, env=env, timeout=60)


def assert_stdout_refused(done):
    assert done.returncode == 2
    assert done.stderr.startswith("invalid input: cannot write stdout:")
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr


# Buffered, the report fails only when flushed; unbuffered, when written.
UNBUFFERED = pytest.mark.parametrize("unbuffered", ["", "1"],
                                     ids=["buffered", "unbuffered"])


@UNBUFFERED
def test_closed_stdout_pipe_is_invalid(unbuffered):
    read, write = os.pipe()
    os.close(read)  # no reader: every write fails with EPIPE
    try:
        assert_stdout_refused(run_to(write, unbuffered))
    finally:
        os.close(write)


@UNBUFFERED
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_full_stdout_device_is_invalid(unbuffered):
    with open("/dev/full", "w") as full:
        assert_stdout_refused(run_to(full, unbuffered))
