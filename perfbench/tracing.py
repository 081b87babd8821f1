"""Span and count recording around ylab's public functions, from outside.

The traced run replaces selected functions with recording wrappers at every
name under which a ylab module binds them (``cli.build_I`` and
``intertwiner.build_I`` are the same function bound twice), so calls made
between modules and calls made inside one module are both seen.  Nothing
under ``src/`` changes.  Spans live in memory and are written out when the
run ends.  A span's self time is its duration minus the part of it covered
by its child spans; in one thread children are nested and sequential, so
that part is the sum of the children's durations, which the recorder adds
up as each child closes.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# Functions that get a span, and which of their totals are reported.
SPANS = (
    ("yangian.rtt_check", ("self_s",)),
    ("yangian.action_table", ("calls", "self_s")),
    ("yangian.eigenform_check", ("calls", "self_s")),
    ("glmops.XY_op", ("calls", "self_s")),
    ("glmops.operator_matrix", ("calls", "self_s")),
    ("glmops.LinearMap.compose", ("calls", "self_s")),
    ("intertwiner.build_I", ("calls", "self_s")),
    ("intertwiner.intertwine_check", ("calls", "self_s")),
    ("intertwiner.word_independence_check", ("calls", "self_s")),
    ("intertwiner.image_analysis", ("calls", "self_s")),
    ("intertwiner.laurent_tail_matrices", ("calls", "self_s")),
    ("exact.poly_gcd", ("calls", "self_s")),
    ("exact.factor_linear", ("calls", "self_s")),
    ("drinfeld.data_of_module", ("self_s",)),
    ("drinfeld.realize", ("self_s",)),
    ("drinfeld.reduce_minimal", ("self_s",)),
    ("duality.composite_check", ("self_s",)),
    ("jsonio.dumps", ("self_s",)),
    ("cli.main", ("self_s",)),
    ("cli.cache_get", ("calls",)),
    ("cli.cache_put", ("calls", "self_s")),
)

# Functions too fine-grained for a span: their calls are only counted.
COUNTED = ("glmops.E_op", "glmops.EE_op")

# Counters read off a spanned call's arguments and result.
OBSERVED = {
    "yangian.rtt_check": ("yangian.rtt_check.pairs",
                          lambda args, out: out.pairs),
    "intertwiner.image_analysis": ("intertwiner.image_analysis.rank_sum",
                                   lambda args, out: out.rank),
    "jsonio.dumps": ("jsonio.dumps.bytes", lambda args, out: len(out.encode())),
    "cli.cache_get": ("cli.cache_get.hits", lambda args, out: out is not None),
    "cli.cache_put": ("cli.cache_put.bytes",
                      lambda args, out: len(args[2].encode())),
}

RATIOS = ("yangian.action_table.hit_ratio", "cli.cache_get.hit_ratio")

UNITS = {"self_s": "s/round", "calls": "calls/round", "pairs": "pairs/round",
         "rank_sum": "rank/round", "bytes": "B/round", "hit_ratio": "ratio"}

PER_LAYER = (tuple(f"{name}.{kind}" for name, kinds in SPANS for kind in kinds)
             + tuple(f"{name}.calls" for name in COUNTED)
             + tuple(counter for counter, _ in OBSERVED.values()
                     if not counter.endswith(".hits"))
             + RATIOS)

# Spans kept for the trace file; totals keep counting past this cap.
SPAN_LOG_CAP = 20_000


class Recorder:
    """Nested spans with running self times, plus named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.dropped = 0
        self._stack: list[list] = []  # [id, name, start, covered]
        self._next_id = 0

    def begin(self, name: str) -> None:
        self._stack.append([self._next_id, name, self.clock(), 0.0])
        self._next_id += 1

    def end(self) -> None:
        stop = self.clock()
        span_id, name, start, covered = self._stack.pop()
        duration = stop - start
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - covered
        parent = -1
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        if len(self.spans) < SPAN_LOG_CAP:
            self.spans.append((span_id, parent, name, start, stop))
        else:
            self.dropped += 1

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def dump(self) -> dict:
        return {"spans": [list(s) for s in self.spans],
                "dropped_spans": self.dropped,
                "calls": dict(self.calls),
                "self_s": dict(self.self_s),
                "total_s": dict(self.total_s),
                "counts": dict(self.counts)}


def layer_metrics(rec: Recorder, table_hits: int, table_lookups: int,
                  rounds: int) -> dict:
    """Every PER_LAYER metric, per round, with its unit."""
    values = {}
    for name, kinds in SPANS:
        for kind in kinds:
            source = rec.calls if kind == "calls" else rec.self_s
            values[f"{name}.{kind}"] = source.get(name, 0) / rounds
    for name in COUNTED:
        values[f"{name}.calls"] = rec.calls.get(name, 0) / rounds
    for counter, _ in OBSERVED.values():
        values[counter] = rec.counts.get(counter, 0) / rounds
    values["yangian.action_table.hit_ratio"] = (
        table_hits / table_lookups if table_lookups else 0.0)
    gets = rec.calls.get("cli.cache_get", 0)
    values["cli.cache_get.hit_ratio"] = (
        rec.counts.get("cli.cache_get.hits", 0) / gets if gets else 0.0)
    return {name: {"value": values[name],
                   "unit": UNITS[name.rsplit(".", 1)[1]]}
            for name in PER_LAYER}


def _spanned(rec: Recorder, name: str, fn):
    counter, observe = OBSERVED.get(name, (None, None))

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.end()
        if observe is not None:
            rec.count(counter, observe(args, out))
        return out
    return wrapper


def _counted(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


class Instrumentation:
    """Installs wrappers on ylab and takes them off again."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._undo: list[tuple[object, str, object]] = []

    def _replace_everywhere(self, original, replacement) -> None:
        loaded = [mod for name, mod in list(sys.modules.items())
                  if name == "ylab" or name.startswith("ylab.")]
        for mod in loaded:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def _wrap(self, name: str, make) -> None:
        mod_name, path = name.split(".", 1)
        mod = importlib.import_module(f"ylab.{mod_name}")
        if "." in path:  # a method: patch the class it is defined on
            cls_name, meth = path.split(".")
            cls = getattr(mod, cls_name)
            original = vars(cls)[meth]
            self._undo.append((cls, meth, original))
            setattr(cls, meth, make(self.rec, name, original))
        else:
            original = getattr(mod, path)
            self._replace_everywhere(original,
                                     make(self.rec, name, original))

    def install(self) -> None:
        for name, _ in SPANS:
            self._wrap(name, _spanned)
        for name in COUNTED:
            self._wrap(name, _counted)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
