"""The benchmark wraps and clears ylab functions by name; every name it
holds must resolve, or only the traced benchmark run would notice a rename.
It counts the row operators' calls through their module names, so the
series factors must reach them there.  Its own tests also rebuild an
`Intertwiner` with `dataclasses.replace`.

The names are read from the benchmark's source with ``ast``, without
importing it."""

import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

import ylab.glmops as glmops
from ylab.battery import KERNEL_SPEC
from ylab.grassmann import Grassmann
from ylab.intertwiner import build_I

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _module_ast(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def _assigned(tree: ast.Module, target: str) -> ast.expr:
    (value,) = [node.value for node in tree.body
                if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == target
                        for t in node.targets)]
    return value


def _traced_names() -> list[str]:
    tree = _module_ast("tracing.py")
    spans = ast.literal_eval(_assigned(tree, "SPANS"))
    counted = ast.literal_eval(_assigned(tree, "COUNTED"))
    return [name for name, _ in spans] + list(counted)


def _memo_names() -> list[str]:
    """`module.attr` for each entry of workloads._MEMO_TABLES, with the
    module named as ylab names it."""
    tree = _module_ast("workloads.py")
    aliases = {alias.asname or alias.name: alias.name
               for node in tree.body if isinstance(node, ast.ImportFrom)
               and node.module == "ylab" for alias in node.names}
    names = []
    for entry in _assigned(tree, "_MEMO_TABLES").elts:
        assert isinstance(entry, ast.Attribute)
        assert isinstance(entry.value, ast.Name)
        names.append(f"{aliases[entry.value.id]}.{entry.attr}")
    return names


def test_names_are_read():
    assert "cli.main" in _traced_names()
    assert "cli.cache_get" in _traced_names()
    assert "yangian.action_table" in _memo_names()


def _resolve(name: str):
    module, *path = name.split(".")
    owner = importlib.import_module(f"ylab.{module}")
    if len(path) == 2:  # Class.method: wrapped on the class defining it
        owner = getattr(owner, path[0])
        assert path[1] in vars(owner), name
    return getattr(owner, path[-1])


@pytest.mark.parametrize("name", _traced_names())
def test_traced_name_resolves(name):
    assert callable(_resolve(name))


@pytest.mark.parametrize("name", _memo_names())
def test_memo_table_name_resolves(name):
    assert callable(_resolve(name).cache_clear)


def test_intertwiner_is_rebuilt_by_dataclasses_replace():
    inter = build_I(KERNEL_SPEC)
    rows = [list(row) for row in inter.matrix]
    rows[1][2] += 1
    rows = tuple(map(tuple, rows))
    wrong = dataclasses.replace(inter, matrix=rows)
    assert wrong.matrix == rows and wrong.matrix != inter.matrix
    assert wrong.spec == inter.spec == KERNEL_SPEC
    assert wrong.target_spec == inter.target_spec
    assert wrong.dim == inter.dim == 4


def test_series_factors_call_the_row_operators_by_name(monkeypatch):
    """An unsigned factor calls glmops.E_op and a signed one glmops.EE_op,
    each looked up on the module when the factor is built."""
    counts = {"E_op": 0, "EE_op": 0}
    for name in counts:
        def counted(*args, name=name, real=getattr(glmops, name)):
            counts[name] += 1
            return real(*args)
        monkeypatch.setattr(glmops, name, counted)
    G = Grassmann(2, 2)
    glmops.XY_op(G, "X", (1, 0), 1, 2, (1, 1))
    assert counts["E_op"] >= 1
    unsigned = counts["EE_op"]
    glmops.XY_op(G, "Y", (1, 0), 1, 2, (1, 1), eps=(1, -1))
    assert counts["EE_op"] >= unsigned + 1
