"""Wire-format round trips and canonical output."""

from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ylab.drinfeld import DrinfeldData, PairSet, data_of_module, pair_set
from ylab.exact import Poly, q_str
from ylab.intertwiner import build_I
from ylab.jsonio import (MalformedInput, drinfeld_obj, dumps, intertwiner_obj,
                         pairset_obj, parse_drinfeld, parse_pairset,
                         parse_poly, parse_rational, parse_spec, poly_obj,
                         spec_obj)
from ylab.yangian import ModuleSpec

rationals = st.fractions(min_value=-10**6, max_value=10**6,
                         max_denominator=10**4)


def test_rational_strings():
    assert q_str(F(3)) == "3"
    assert q_str(F(-1, 2)) == "-1/2"
    assert q_str(0) == "0"
    assert parse_rational("-1/2") == F(-1, 2)
    assert parse_rational("7") == 7
    assert parse_rational(7) == 7


@given(rationals)
def test_rational_round_trip(x):
    assert parse_rational(q_str(x)) == x


def test_rational_rejects_junk():
    for bad in ("", "1/0", "a", 1.5, None, True, [1]):
        with pytest.raises(MalformedInput):
            parse_rational(bad)


def test_poly_wire_is_low_to_high():
    p = Poly([F(1), F(0), F(-1, 3)])
    assert poly_obj(p) == ["1", "0", "-1/3"]
    assert parse_poly(["1", "0", "-1/3"]) == p
    assert poly_obj(Poly()) == []
    assert parse_poly([]).is_zero()


@given(st.lists(rationals, max_size=6))
def test_poly_round_trip(coeffs):
    p = Poly(coeffs)
    assert parse_poly(poly_obj(p)) == p


def test_spec_wire_frozen():
    spec = ModuleSpec.make(2, (0, F(1, 2)), (2, -1))
    assert spec_obj(spec) == \
        {"n": 2, "m": 2, "mu": ["0", "1/2"], "nu": [2, -1]}
    assert parse_spec({"n": 2, "m": 2, "mu": ["0", "1/2"],
                       "nu": [2, -1]}) == spec


def test_spec_parse_validates():
    with pytest.raises(MalformedInput):
        parse_spec({"n": 2, "m": 1, "mu": ["0"], "nu": [3]})   # |nu| > n
    with pytest.raises(MalformedInput):
        parse_spec({"n": 2, "m": 2, "mu": ["0"], "nu": [1, 1]})
    with pytest.raises(MalformedInput):
        parse_spec({"n": 2, "m": 1, "mu": ["x"], "nu": [1]})
    with pytest.raises(MalformedInput):
        parse_spec({"n": 2, "m": 1, "mu": ["0"], "nu": [1.0]})
    with pytest.raises(MalformedInput):
        parse_spec([])
    with pytest.raises(MalformedInput):
        parse_spec({"n": 2, "mu": ["0"], "nu": [1]})


def test_intertwiner_wire():
    spec = ModuleSpec.make(1, (0, 0), (1, 1))
    obj = intertwiner_obj(build_I(spec), rank=1)
    assert obj["source"] == spec_obj(spec)
    assert obj["target"] == spec_obj(spec)  # reversal fixes equal factors
    assert obj["rank"] == 1
    assert obj["matrix"] == [["1"]]


def test_drinfeld_wire_round_trip():
    data = data_of_module(ModuleSpec.make(3, (0, F(1, 2)), (2, -1)))
    assert parse_drinfeld(drinfeld_obj(data)) == data
    with pytest.raises(MalformedInput):
        parse_drinfeld({"P": []})
    # non-monic P_i: layout fine, value invalid
    with pytest.raises(MalformedInput):
        parse_drinfeld({"P": [["1", "2"]],
                        "Qn": {"num": ["1"], "den": ["1"]}})


def test_pairset_wire():
    pairs = PairSet(((2, F(1, 2)), (1, F(0))))
    assert pairset_obj(pairs) == [[1, "0"], [2, "1/2"]]  # canonical sort
    assert parse_pairset([[2, "1/2"], [1, "0"]]) == pairs
    with pytest.raises(MalformedInput):
        parse_pairset([[1]])
    with pytest.raises(MalformedInput):
        parse_pairset([["1", "0"]])


def test_pairset_round_trip_from_module():
    spec = ModuleSpec.make(2, (0, -3), (1, -1))
    pairs = pair_set(data_of_module(spec))
    assert parse_pairset(pairset_obj(pairs)) == pairs


def test_dumps_canonical():
    text = dumps({"b": 1, "a": [F(1, 2).__str__()]})
    assert text == '{"a":["1/2"],"b":1}\n'
    assert text.endswith("\n")
