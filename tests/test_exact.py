"""Scalar/polynomial/rational-function layer: axioms and frozen values."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from reference_factors import pochhammer
from ylab.exact import (
    NEG_INF, ONE, U, ZERO, IrrationalRoots, PoleEvaluation, Poly, RatFun,
    factor_linear, linear, poly_gcd, q, q_str,
)

rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=50)
small_rationals = st.fractions(min_value=-40, max_value=40, max_denominator=8)
big_rationals = st.builds(F, st.integers(-10**30, 10**30),
                          st.integers(1, 10**30))
polys = st.lists(small_rationals, max_size=6).map(Poly)
nonzero_polys = polys.filter(lambda p: not p.is_zero())


# -- pochhammer -------------------------------------------------------------

def test_pochhammer_frozen_values():
    assert pochhammer(2, 3) == 24
    assert pochhammer(F(7, 3), 0) == 1
    assert pochhammer(-1, 3) == 0
    assert pochhammer(F(1, 2), 3) == F(15, 8)


@given(small_rationals, st.integers(0, 8), st.integers(0, 8))
def test_pochhammer_splits(x, r, s):
    assert pochhammer(x, r + s) == pochhammer(x, r) * pochhammer(x + r, s)


# -- Poly -------------------------------------------------------------------

def test_zero_poly_degree_sentinel():
    assert ZERO.degree == NEG_INF
    assert ZERO.degree < 0
    assert Poly((0, 0, 0)).is_zero()
    assert Poly((1, 2, 0)).degree == 1


def test_poly_shift_frozen_values():
    assert U.shift(1) == Poly((1, 1))
    assert (U * U).shift(-1) == Poly((1, -2, 1))
    # expand (u + 1/2)^2 + (u + 1/2) by hand, then cross-check by evaluation
    shifted = (U * U + U).shift(F(1, 2))
    assert shifted == Poly((F(3, 4), 2, 1))
    for x in (0, 1, 2):
        assert shifted(x) == (U * U + U)(x + F(1, 2))


@given(polys, small_rationals)
def test_poly_shift_inverts(p, c):
    assert p.shift(c).shift(-c) == p


@given(polys, polys, polys)
def test_poly_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(polys, nonzero_polys)
def test_poly_divmod(a, b):
    quot, rem = divmod(a, b)
    assert quot * b + rem == a
    assert rem.degree < b.degree


@given(nonzero_polys, nonzero_polys)
def test_poly_gcd_divides(a, b):
    g = poly_gcd(a, b)
    assert g.is_monic()
    assert (a % g).is_zero() and (b % g).is_zero()


@given(polys, small_rationals)
def test_poly_eval_shift_consistency(p, x):
    assert p.shift(F(1, 3))(x) == p(x + F(1, 3))


# -- factor_linear ----------------------------------------------------------

def test_factor_linear_frozen_values():
    assert factor_linear(Poly((-1, 0, 1))) == [F(-1), F(1)]
    assert factor_linear(Poly.from_roots([F(1, 2), F(1, 2)])) == [F(1, 2)] * 2
    with pytest.raises(IrrationalRoots):
        factor_linear(Poly((1, 0, 1)))  # u^2 + 1
    with pytest.raises(IrrationalRoots):
        factor_linear(Poly((-2, 0, 1)))  # u^2 - 2
    assert factor_linear(ONE) == []
    with pytest.raises(ValueError):
        factor_linear(ZERO)
    with pytest.raises(ValueError):
        factor_linear(Poly((1, 2)))  # not monic


@settings(max_examples=60, deadline=None)
@given(st.lists(small_rationals | big_rationals, max_size=5))
def test_factor_linear_roundtrip(roots):
    assert factor_linear(Poly.from_roots(roots)) == sorted(roots)


@settings(max_examples=60, deadline=None)
@given(st.lists(small_rationals | big_rationals, max_size=4),
       st.fractions(min_value=F(1, 10**6), max_value=10**30,
                    max_denominator=10**6))
def test_factor_linear_rejects_positive_quadratic(roots, c):
    # u^2 + c with c > 0 has no real root, so no product with it splits
    with pytest.raises(IrrationalRoots):
        factor_linear(Poly.from_roots(roots) * Poly((c, 0, 1)))


def test_factor_linear_hard_constants():
    # no integer is factored: (10^19 + 51)(3 10^19 + 41), a product of two
    # 20-digit numbers, and the product of the first 18 primes, which has
    # 2^18 divisors, are answered at once
    primorial = math.prod((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41,
                           43, 47, 53, 59, 61))
    for c in (300000000000000001940000000000000002091, primorial):
        with pytest.raises(IrrationalRoots):
            factor_linear(Poly((c, 0, 1)))


def test_factor_linear_mixed_irreducible():
    # (u^2 + 1)(u - 1) has exactly one rational root but does not split
    with pytest.raises(IrrationalRoots):
        factor_linear(Poly((1, 0, 1)) * linear(1))


# -- RatFun -----------------------------------------------------------------

def test_ratfun_canonical_frozen():
    f = RatFun(Poly((-1, 0, 1)), linear(1))  # (u^2-1)/(u-1)
    assert f == RatFun(Poly((1, 1)))
    assert f.den == ONE
    g = RatFun(Poly((1, 1)), U) * RatFun(U, Poly((1, 1)))
    assert g.num == g.den == ONE
    assert RatFun(U * 2, U * 4) == RatFun(Poly((F(1, 2),)))  # monic denominator


def test_ratfun_eval_and_poles():
    f = RatFun(Poly((1, 1)), U)
    assert f(2) == F(3, 2)
    with pytest.raises(PoleEvaluation):
        f(0)
    with pytest.raises(ZeroDivisionError):
        RatFun(ONE, ZERO)


@given(polys, nonzero_polys, polys, nonzero_polys)
def test_ratfun_field_axioms(an, ad, bn, bd):
    a, b = RatFun(an, ad), RatFun(bn, bd)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (a + b) == a * a + a * b
    if not b.is_zero():
        assert (a / b) * b == a


@given(polys, nonzero_polys)
def test_ratfun_canonical_idempotent(n, d):
    f = RatFun(n, d)
    again = RatFun(f.num, f.den)
    assert again.num == f.num and again.den == f.den
    assert poly_gcd(f.num, f.den) in (ONE, ZERO)
    if not f.is_zero():
        assert f.den.is_monic()


@given(polys, nonzero_polys, small_rationals)
def test_ratfun_shift(n, d, c):
    f = RatFun(n, d)
    g = f.shift(c)
    for x in range(5):
        try:
            expect = f(F(x) + c)
        except PoleEvaluation:
            continue
        assert g(x) == expect


# -- serialization helpers ---------------------------------------------------

def test_rational_strings():
    assert q_str(F(3)) == "3"
    assert q_str(F(-7, 2)) == "-7/2"
    assert q_str(0) == "0"
    assert q("3") == 3
    assert q("-7/2") == F(-7, 2)
    with pytest.raises(TypeError):
        q(1.5)
