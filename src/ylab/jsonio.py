"""Wire formats: canonical JSON for every value the CLI reads or writes.

Every rational travels as a "p/q" string (bare "p" for integers) so no
consumer is tempted to round.  Writers always emit canonical key order and
a trailing newline; `dumps` is the single choke point for that, which is
what makes cached and fresh CLI output byte-comparable.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .drinfeld import DrinfeldData, PairSet
from .exact import Poly, q_str
from .intertwiner import Intertwiner
from .yangian import ModuleSpec


class MalformedInput(ValueError):
    """Input JSON does not match the declared wire layout."""


def dumps(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":")) + "\n"


def _need_mapping(data, what: str) -> dict:
    if not isinstance(data, dict):
        raise MalformedInput(f"{what} must be a JSON object, got "
                             f"{type(data).__name__}")
    return data


def _need_array(data, what: str) -> list:
    if not isinstance(data, list):
        raise MalformedInput(f"{what} must be a JSON array, got "
                             f"{type(data).__name__}")
    return data


def _need_key(data: dict, key: str, what: str):
    if key not in data:
        raise MalformedInput(f"{what} is missing the key {key!r}")
    return data[key]


def _need_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise MalformedInput(f"{what} must be an integer, got {value!r}")
    return value


# ------------------------------------------------------------------ rationals

def parse_rational(data) -> Fraction:
    if isinstance(data, bool) or not isinstance(data, (str, int)):
        raise MalformedInput(f"rational must be a 'p/q' string, got {data!r}")
    try:
        return Fraction(str(data))
    except (ValueError, ZeroDivisionError) as err:
        raise MalformedInput(f"bad rational {data!r}") from err


# ---------------------------------------------------------------- polynomials

def poly_obj(p: Poly) -> list:
    # low-to-high coefficients; the zero polynomial is the empty array
    return [q_str(c) for c in p.coeffs]


def parse_poly(data) -> Poly:
    return Poly(parse_rational(c) for c in _need_array(data, "polynomial"))


# -------------------------------------------------------------- module specs

def spec_obj(spec: ModuleSpec) -> dict:
    return {"n": spec.n, "m": spec.m,
            "mu": [q_str(z) for z in spec.mu],
            "nu": list(spec.nu)}


def parse_spec(data) -> ModuleSpec:
    data = _need_mapping(data, "module spec")
    n = _need_int(_need_key(data, "n", "module spec"), "n")
    m = _need_int(_need_key(data, "m", "module spec"), "m")
    mu = [parse_rational(z)
          for z in _need_array(_need_key(data, "mu", "module spec"), "mu")]
    nu = [_need_int(d, "nu entry")
          for d in _need_array(_need_key(data, "nu", "module spec"), "nu")]
    if len(mu) != m or len(nu) != m:
        raise MalformedInput(f"mu and nu must each have m = {m} entries")
    try:
        return ModuleSpec(n=n, m=m, mu=tuple(mu), nu=tuple(nu))
    except ValueError as err:
        raise MalformedInput(str(err)) from err


# ----------------------------------------------------------- operator values

def intertwiner_obj(inter: Intertwiner, rank: int) -> dict:
    return {"source": spec_obj(inter.spec),
            "target": spec_obj(inter.target_spec),
            "matrix": [[q_str(v) for v in row]
                       for row in inter.matrix],
            "rank": int(rank)}


# -------------------------------------------------------- classification data

def drinfeld_obj(data: DrinfeldData) -> dict:
    return {"P": [poly_obj(p) for p in data.P],
            "Qn": {"num": poly_obj(data.Qn_num),
                   "den": poly_obj(data.Qn_den)}}


def parse_drinfeld(data) -> DrinfeldData:
    data = _need_mapping(data, "classification data")
    quot = _need_mapping(_need_key(data, "Qn", "classification data"),
                         "shift quotient")
    try:
        return DrinfeldData(
            P=tuple(parse_poly(p) for p in
                    _need_array(_need_key(data, "P", "classification data"),
                                "P")),
            Qn_num=parse_poly(_need_key(quot, "num", "shift quotient")),
            Qn_den=parse_poly(_need_key(quot, "den", "shift quotient")))
    except ValueError as err:
        raise MalformedInput(str(err)) from err


def pairset_obj(pairs: PairSet) -> list:
    return [[i, q_str(z)] for i, z in pairs.pairs]


def parse_pairset(data) -> PairSet:
    rows = []
    for row in _need_array(data, "pair list"):
        row = _need_array(row, "pair")
        if len(row) != 2:
            raise MalformedInput(f"pair must be [label, rational]: {row!r}")
        rows.append((_need_int(row[0], "pair label"), parse_rational(row[1])))
    return PairSet(tuple(rows))
