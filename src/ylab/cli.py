"""Command-line front end over the library.

Commands: build, intertwine, drinfeld, realize, reduce, verify.  Input is a
module description given by flags (--n/--mu/--nu) or, for realize and reduce,
a JSON document on stdin.  Output is one canonical JSON report, newline
terminated, either on stdout or at --out.

Exit codes sort failures by class so pipelines can dispatch on them:
0 all checks pass, 1 an identity fails, 2 invalid input, 3 dominance
violation, 4 forbidden weight difference.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from typing import Optional, Sequence

from . import jsonio
from .drinfeld import (CommonZeroes, NoSolution, PairSet, classify_kind,
                       data_of_module, pairs_of_module, realize,
                       reduce_minimal)
from .duality import composite_check, iso_covector
from .exact import IrrationalRoots, q_str
from .glmops import ForbiddenWeightDifference
from .intertwiner import (NotDominant, NotReduced, ReducedWord,
                          _column_echelon, build_I, intertwine_check,
                          is_dominant, word_independence_check)
from .jsonio import MalformedInput
from .yangian import ModuleSpec, eigen_series, eigenform_check, rtt_check

EXIT_OK = 0
EXIT_IDENTITY = 1
EXIT_INVALID = 2
EXIT_DOMINANCE = 3
EXIT_WEIGHT = 4

LIST_FLAGS = ("--mu", "--nu", "--word")
# Every long option of every subcommand, to resolve abbreviations as
# argparse does: a prefix of exactly one of them stands for that option.
LONG_FLAGS = LIST_FLAGS + ("--cache-dir", "--out", "--n", "--m", "--suite",
                           "--samples", "--help")
# The tokens argparse reads as a list flag: the flag itself, or a prefix of
# it that no other long option shares (--wor for --word).
LIST_TOKENS = frozenset(
    flag[:end] for flag in LIST_FLAGS for end in range(3, len(flag) + 1)
    if flag[:end] == flag
    or [f for f in LONG_FLAGS if f.startswith(flag[:end])] == [flag])
SUITES = ("rtt", "intertwine", "words", "eigen", "lemma41", "iso",
          "composite", "drinfeld")
# Part of every cache key: raise it when a report of the same job may
# differ from one an older ylab wrote, so those entries read as misses.
CACHE_FORMAT = 1


@dataclass(frozen=True)
class JobConfig:
    """Everything that determines a command's output, for cache keying."""

    command: str
    payload: object
    suite: Optional[str] = None
    samples: Optional[int] = None
    word: Optional[tuple[int, ...]] = None
    n: Optional[int] = None

    def canonical(self) -> str:
        doc = {"command": self.command, "format": CACHE_FORMAT,
               "payload": self.payload}
        for field in ("suite", "samples", "n"):
            value = getattr(self, field)
            if value is not None:
                doc[field] = value
        if self.word is not None:
            doc["word"] = list(self.word)
        return jsonio.dumps(doc)

    def key(self) -> str:
        import hashlib  # only a cached job pays for it at start-up

        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()


# ------------------------------------------------------------------- cache

def _cache_dir(args) -> Optional[str]:
    directory = os.environ.get("YLAB_CACHE") or args.cache_dir
    if directory == "":  # would read entries from the working directory
        raise MalformedInput("--cache-dir must name a directory")
    return directory


def cache_get(directory: str, key: str) -> Optional[str]:
    """The cached report, or None on a miss; a damaged or unreadable file
    (a directory, say) is a miss."""
    path = os.path.join(directory, key + ".json")
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        if jsonio.dumps(json.loads(text)) == text:  # not truncated, say
            return text
    except (OSError, ValueError):  # ValueError: not (UTF-8) JSON
        pass
    return None


def cache_put(directory: str, key: str, text: str) -> None:
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, os.path.join(directory, key + ".json"))
    except BaseException:
        os.unlink(tmp)
        raise


# ------------------------------------------------------------------- input

def _read_stdin_json() -> object:
    raw = sys.stdin.read()
    try:
        return json.loads(raw)
    except ValueError as exc:  # a decode error, or an integer over 4300 digits
        raise MalformedInput(f"stdin is not JSON: {exc}") from exc


def _spec_of_args(args) -> ModuleSpec:
    if args.n is None and args.mu is None and args.nu is None:
        return jsonio.parse_spec(_read_stdin_json())
    if args.n is None or args.mu is None or args.nu is None:
        raise MalformedInput("--n, --mu, and --nu must be given together")
    mu = [jsonio.parse_rational(tok) for tok in args.mu.split(",")]
    try:
        nu = [int(tok) for tok in args.nu.split(",")]
    except ValueError as exc:
        raise MalformedInput(f"--nu entries must be integers: {exc}") from exc
    if args.m is not None and args.m != len(nu):
        raise MalformedInput(f"--m {args.m} does not match {len(nu)} rows")
    if len(mu) != len(nu):
        raise MalformedInput("--mu and --nu must have the same length")
    try:
        return ModuleSpec.make(args.n, mu, nu)
    except ValueError as exc:
        raise MalformedInput(str(exc)) from exc


def _word_of_args(args, m: int) -> Optional[ReducedWord]:
    if args.word is None:
        return None
    try:
        letters = tuple(int(tok) for tok in args.word.split(","))
    except ValueError as exc:
        raise MalformedInput(f"--word entries must be integers: {exc}") from exc
    try:
        return ReducedWord(m, letters)
    except NotReduced as exc:
        raise MalformedInput(str(exc)) from exc


# ---------------------------------------------------------------- commands

def cmd_build(spec: ModuleSpec) -> tuple[int, dict]:
    lb = spec.lambar
    pair_flags = []
    for a in range(spec.m - 1):
        d = lb[a] - lb[a + 1]
        pair_flags.append(not (d.denominator == 1 and d < 0))
    doc = {
        "command": "build",
        "dim": spec.dim,
        "dominant": is_dominant(spec),
        "dominant_pairs": pair_flags,
        "eps": list(spec.eps),
        "factor_dims": list(spec.factor_dims),
        "lam": [q_str(x) for x in spec.lam],
        "lambar": [q_str(x) for x in spec.lambar],
        "nubar": list(spec.nubar),
        "spec": jsonio.spec_obj(spec),
    }
    return EXIT_OK, doc


def cmd_intertwine(spec: ModuleSpec,
                   word: Optional[ReducedWord]) -> tuple[int, dict]:
    inter = build_I(spec, word)
    rank = len(_column_echelon(inter.matrix)[1])
    hv_ok = inter.hv_scale() == 1
    doc = jsonio.intertwiner_obj(inter, rank)
    doc.update({
        "command": "intertwine",
        "hv_check": hv_ok,
        "image_dim": rank,
        "word": list(word.letters) if word is not None else None,
    })
    return EXIT_OK if hv_ok else EXIT_IDENTITY, doc


def cmd_drinfeld(spec: ModuleSpec) -> tuple[int, dict]:
    data = data_of_module(spec)
    doc = {
        "command": "drinfeld",
        "data": jsonio.drinfeld_obj(data),
        "kind": classify_kind(data),
        "pairs": jsonio.pairset_obj(pairs_of_module(spec)),
    }
    return EXIT_OK, doc


def cmd_realize(data) -> tuple[int, dict]:
    spec = realize(data)
    doc = {
        "command": "realize",
        "dim": spec.dim,
        "kind": classify_kind(data),
        "spec": jsonio.spec_obj(spec),
    }
    return EXIT_OK, doc


def cmd_reduce(pairs: PairSet, n: int) -> tuple[int, dict]:
    reduced = reduce_minimal(pairs, n)
    doc = {
        "command": "reduce",
        "n": n,
        "reduced": jsonio.pairset_obj(reduced),
        "size": len(reduced),
        "source_size": len(pairs),
    }
    return EXIT_OK, doc


def _suite_detail(spec: ModuleSpec, suite: str,
                  samples: Optional[int]) -> dict:
    """Run one verification suite; raises on any failed identity."""
    if suite == "rtt":
        try:
            report = rtt_check(spec, samples)
        except ValueError as exc:
            raise MalformedInput(str(exc)) from exc
        return {"degree_bound": report.degree_bound, "pairs": report.pairs}
    if suite == "intertwine":
        inter = build_I(spec)
        intertwine_check(spec, inter)
        return {"dim": spec.dim, "series": spec.n * spec.n}
    if suite == "words":
        if spec.m > 4:
            raise MalformedInput("words suite is bounded to m <= 4")
        report = word_independence_check(spec)
        return {"words": report.words}
    if suite == "eigen":
        for i in range(1, spec.n + 1):
            eigen_series(spec, i)  # raises unless it equals eigen_closed
        return {"values": spec.n}
    if suite == "lemma41":
        if spec.dim > 16:
            raise MalformedInput("lemma41 suite is bounded to dim <= 16")
        eigenform_check(spec)
        return {"dim": spec.dim}
    if suite == "iso":
        if spec.n > 4:
            raise MalformedInput("iso suite is bounded to n <= 4")
        count = 0
        for d in range(spec.n + 1):
            for z in dict.fromkeys(spec.mu):
                iso = iso_covector(spec.n, d, z)
                intertwine_check(iso.spec, iso)
                count += 1
        return {"isomorphisms": count}
    if suite == "composite":
        report = composite_check(spec)
        c = report.counters
        return {"K": c.K, "L": c.L, "M": c.M,
                "hv_signs": [report.forward_hv_sign, report.reversed_hv_sign],
                "sign": report.composite_sign}
    if suite == "drinfeld":
        data = data_of_module(spec)
        again = data_of_module(realize(data))
        if again != data:
            raise ArithmeticError("classification data fails to round trip")
        reduced = reduce_minimal(PairSet.of_spec(spec), spec.n)
        return {"kind": classify_kind(data), "reduced_size": len(reduced)}
    raise MalformedInput(f"unknown suite {suite!r}")


def cmd_verify(spec: ModuleSpec, suite: str,
               samples: Optional[int]) -> tuple[int, dict]:
    doc = {"command": "verify", "suite": suite,
           "spec": jsonio.spec_obj(spec)}
    try:
        detail = _suite_detail(spec, suite, samples)
    except ArithmeticError as exc:
        doc.update({"counterexample": str(exc), "passed": False})
        return EXIT_IDENTITY, doc
    doc.update(detail)
    doc["passed"] = True
    return EXIT_OK, doc


# ------------------------------------------------------------------ driver

def _invalid(reason: object) -> int:
    sys.stderr.write(f"invalid input: {reason}\n")
    return EXIT_INVALID


def _emit(text: str, out: Optional[str], code: int) -> int:
    """Write the report; returns code, or 2 if it cannot be written."""
    if out is None:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:  # a closed pipe, a full device
            # the flush at exit would fail again: send it nowhere
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return _invalid(f"cannot write stdout: {exc}")
        return code
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        return _invalid(f"cannot write --out: {exc}")
    return code


def _parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--cache-dir", default=None)
    shared.add_argument("--out", default=None)
    spec_flags = argparse.ArgumentParser(add_help=False)
    spec_flags.add_argument("--n", type=int, default=None)
    spec_flags.add_argument("--m", type=int, default=None)
    spec_flags.add_argument("--mu", default=None)
    spec_flags.add_argument("--nu", default=None)

    parser = argparse.ArgumentParser(
        prog="ylab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # each command's parser, by name
    sub.add_parser("build", parents=[shared, spec_flags])
    inter = sub.add_parser("intertwine", parents=[shared, spec_flags])
    inter.add_argument("--word", default=None)
    sub.add_parser("drinfeld", parents=[shared, spec_flags])
    sub.add_parser("realize", parents=[shared])
    reduce_p = sub.add_parser("reduce", parents=[shared])
    reduce_p.add_argument("--n", type=int, required=True)
    verify = sub.add_parser("verify", parents=[shared, spec_flags])
    verify.add_argument("--suite", required=True, choices=SUITES)
    verify.add_argument("--samples", type=int, default=None)
    return parser


def _bind_list_values(argv: Sequence[str]) -> list[str]:
    """Join each list flag, or an abbreviation of it, to the value after it
    (--mu -1,0 becomes --mu=-1,0), so argparse never reads a list value as
    an option."""
    out, tokens = [], iter(argv)
    for token in tokens:
        value = next(tokens, None) if token in LIST_TOKENS else None
        out.append(token if value is None else f"{token}={value}")
    return out


def _job_of_args(args) -> tuple[JobConfig, object]:
    """Parse all input up front; returns the cache config and the payload."""
    if args.command in ("build", "intertwine", "drinfeld", "verify"):
        spec = _spec_of_args(args)
        word = None
        if args.command == "intertwine":
            word = _word_of_args(args, spec.m)
        config = JobConfig(
            command=args.command, payload=jsonio.spec_obj(spec),
            suite=getattr(args, "suite", None),
            samples=getattr(args, "samples", None),
            word=word.letters if word is not None else None)
        return config, (spec, word)
    if args.command == "realize":
        data = jsonio.parse_drinfeld(_read_stdin_json())
        return JobConfig("realize", jsonio.drinfeld_obj(data)), data
    if args.command == "reduce":
        pairs = jsonio.parse_pairset(_read_stdin_json())
        if args.n < 1 or any(abs(d) > args.n for d, _ in pairs.pairs):
            raise MalformedInput(
                f"pair labels must lie in -n..n with n >= 1 (--n {args.n})")
        return (JobConfig("reduce", jsonio.pairset_obj(pairs), n=args.n),
                pairs)
    raise MalformedInput(f"unknown command {args.command!r}")


# Built once per process: parsing keeps no state between calls.
_PARSER = _parser()


def _args_of(argv: list[str]) -> argparse.Namespace:
    """_PARSER.parse_args(argv), with a job handed straight to its command's
    parser: the whole parser would scan every token for its own options
    and then run that parser on them anyway.  Any other argv, and all
    top-level help and usage, is the whole parser's."""
    command = _PARSER.commands.get(argv[0]) if argv else None
    if command is None:
        return _PARSER.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:  # the message and exit parse_args gives
        _PARSER.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _args_of(_bind_list_values(sys.argv[1:] if argv is None else argv))
    try:
        config, payload = _job_of_args(args)
        directory = _cache_dir(args)
    except MalformedInput as exc:
        return _invalid(exc)

    if directory is not None:
        key = config.key()
        cached = cache_get(directory, key)
        if cached is not None:
            return _emit(cached, args.out, EXIT_OK)

    try:
        if args.command == "build":
            code, doc = cmd_build(payload[0])
        elif args.command == "intertwine":
            code, doc = cmd_intertwine(*payload)
        elif args.command == "drinfeld":
            code, doc = cmd_drinfeld(payload[0])
        elif args.command == "realize":
            code, doc = cmd_realize(payload)
        elif args.command == "reduce":
            code, doc = cmd_reduce(payload, args.n)
        else:
            code, doc = cmd_verify(payload[0], args.suite, args.samples)
    except (MalformedInput, NoSolution, CommonZeroes, IrrationalRoots) as exc:
        return _invalid(exc)
    except NotDominant as exc:
        sys.stderr.write(f"not dominant: {exc}\n")
        return EXIT_DOMINANCE
    except ForbiddenWeightDifference as exc:
        sys.stderr.write(f"weight singularity: {exc}\n")
        return EXIT_WEIGHT

    text = jsonio.dumps(doc)
    if directory is not None and code == EXIT_OK:
        try:
            cache_put(directory, key, text)
        except (FileExistsError, NotADirectoryError, IsADirectoryError,
                ValueError) as exc:  # not a directory, or a NUL in the path
            return _invalid(f"cannot write the cache entry: {exc}")
        except OSError as exc:  # a full or read-only disk: report anyway
            sys.stderr.write(f"warning: cannot write the cache entry: {exc}\n")
    return _emit(text, args.out, code)


if __name__ == "__main__":
    raise SystemExit(main())
