"""Anticommuting-variable layer: signs, derivations, row permutations, bases."""

from fractions import Fraction as F
from itertools import permutations

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from reference_basis import NonIncreasingTuple, alpha_encode
from reference_factors import derive, sym_act
from ylab.grassmann import (
    DimensionMismatch, Grassmann, GrassmannElt, perm_apply, perm_compose,
    perm_identity, perm_inverse, perm_longest, perm_transposition,
)


def all_monomials(G):
    return [GrassmannElt(G, {mask: F(1)}) for mask in range(1 << (G.m * G.n))]


# -- multiplication ----------------------------------------------------------

def test_mul_frozen_examples():
    G = Grassmann(1, 2)
    x11, x12 = G.var(1, 1), G.var(1, 2)
    assert (x11 * x11).is_zero()
    assert x12 * x11 == -(x11 * x12)
    G2 = Grassmann(2, 1)
    a, b = G2.var(1, 1), G2.var(2, 1)
    assert (a + b) * b == a * b == G2.monomial([(1, 1), (2, 1)])


def test_mul_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        Grassmann(1, 2).var(1, 1) * Grassmann(2, 2).var(1, 1)


@pytest.mark.parametrize("m,n", [(1, 2), (2, 2), (3, 2), (2, 3)])
def test_anticommutativity_all_variable_pairs(m, n):
    G = Grassmann(m, n)
    vars_ = [G.var(a, i) for a in range(1, m + 1) for i in range(1, n + 1)]
    for x in vars_:
        for y in vars_:
            if x == y:
                assert (x * y).is_zero()
            else:
                assert x * y == -(y * x)


def test_associativity_exhaustive_small():
    # all monomial triples in G_{2,3} (mn = 6)
    G = Grassmann(2, 3)
    monos = all_monomials(G)
    for x in monos:
        for y in monos:
            xy = x * y
            for z in monos:
                assert (xy) * z == x * (y * z)


# -- derivations ---------------------------------------------------------------

def test_derive_frozen_examples():
    G = Grassmann(1, 2)
    m = G.monomial([(1, 1), (1, 2)])
    assert derive(G, 1, 1, m) == G.var(1, 2)
    assert derive(G, 1, 2, m) == -G.var(1, 1)
    G2 = Grassmann(2, 1)
    assert derive(G2, 2, 1, G2.var(1, 1)).is_zero()


@pytest.mark.parametrize("m,n", [(2, 3), (3, 2)])
def test_signed_leibniz_exhaustive(m, n):
    G = Grassmann(m, n)
    monos = all_monomials(G)
    for a in range(1, m + 1):
        for i in range(1, n + 1):
            for x in monos:
                degx = next(iter(x.terms)).bit_count()
                sign = -1 if degx & 1 else 1
                for y in monos:
                    lhs = derive(G, a, i, x * y)
                    rhs = (derive(G, a, i, x) * y
                           + (x * derive(G, a, i, y)).scale(sign))
                    assert lhs == rhs


@pytest.mark.parametrize("m,n", [(2, 3), (3, 2)])
def test_derive_var_anticommutator_is_identity(m, n):
    G = Grassmann(m, n)
    monos = all_monomials(G)
    for a in range(1, m + 1):
        for i in range(1, n + 1):
            x_ai = G.var(a, i)
            for w in monos:
                dd = derive(G, a, i, derive(G, a, i, w))
                assert dd.is_zero()
                anti = derive(G, a, i, x_ai * w) + x_ai * derive(G, a, i, w)
                assert anti == w


# -- symmetric-group action -----------------------------------------------------

def test_sym_act_frozen_examples():
    G = Grassmann(2, 1)
    both = G.monomial([(1, 1), (2, 1)])
    assert sym_act(G, (2, 1), both) == -both
    assert sym_act(G, (1, 2), both) == both
    assert sym_act(G, (2, 1), G.var(1, 1)) == G.var(2, 1)


def test_sym_act_multiplicative_and_functorial():
    G = Grassmann(3, 2)
    monos = all_monomials(G)[: 40]
    perms = list(permutations(range(1, 4)))
    for s in perms:
        for x in monos:
            for y in monos[:12]:
                assert sym_act(G, s, x * y) == \
                    sym_act(G, s, x) * sym_act(G, s, y)
        for t in perms:
            st_ = perm_compose(s, t)
            for x in monos[:16]:
                assert sym_act(G, st_, x) == sym_act(G, s, sym_act(G, t, x))


@pytest.mark.parametrize("m,n", [(1, 2), (2, 1), (2, 2), (3, 1), (3, 2)])
def test_sym_act_is_the_relabeled_product(m, n):
    # sigma(x_{t1}...x_{tk}) = x_{sigma(t1)} ... x_{sigma(tk)}, each factor
    # multiplied through the general product
    G = Grassmann(m, n)
    for s in permutations(range(1, m + 1)):
        for mask in range(1 << (m * n)):
            want = G.unit()
            for a, i in G.slots_of(mask):
                want = want * G.var(s[a - 1], i)
            assert sym_act(G, s, GrassmannElt(G, {mask: F(1)})) == want


def test_perm_helpers():
    assert perm_identity(3) == (1, 2, 3)
    assert perm_longest(4) == (4, 3, 2, 1)
    s = perm_transposition(3, 2)
    assert s == (1, 3, 2)
    assert perm_compose(s, perm_inverse(s)) == perm_identity(3)
    # applying the longest element reverses a coordinate tuple
    assert perm_apply(perm_longest(3), ("a", "b", "c")) == ("c", "b", "a")


@given(st.integers(2, 5), st.data())
def test_perm_apply_composes(m, data):
    perms = st.permutations(list(range(1, m + 1))).map(tuple)
    s, t = data.draw(perms), data.draw(perms)
    vals = tuple(range(10, 10 + m))
    assert perm_apply(perm_compose(s, t), vals) == perm_apply(
        s, perm_apply(t, vals))


# -- weights, bases, tensor-basis correspondence ---------------------------------

def test_weight_bookkeeping():
    G = Grassmann(2, 3)
    x = G.monomial([(1, 1), (1, 3), (2, 2)])
    mask = next(iter(x.terms))
    assert G.weight_of(mask) == (2, 1)
    y = G.monomial([(2, 1)])
    prod_mask = next(iter((x * y).terms))
    assert G.weight_of(prod_mask) == (2, 2)
    d = derive(G, 1, 3, x)
    assert G.weight_of(next(iter(d.terms))) == (1, 1)


def test_basis_of_weight_shapes():
    G = Grassmann(1, 2)
    assert G.basis_of_weight((1,)) == [
        next(iter(G.var(1, 1).terms)), next(iter(G.var(1, 2).terms))]
    G2 = Grassmann(2, 2)
    assert len(G2.basis_of_weight((1, 2))) == 2
    assert G2.basis_of_weight((0, 0)) == [0]
    G3 = Grassmann(3, 3)
    assert len(G3.basis_of_weight((2, 1, 2))) == 3 * 3 * 3
    # lexicographic in slots and duplicate-free
    b = G3.basis_of_weight((2, 1, 2))
    assert len(set(b)) == len(b)
    key = [tuple(s for s, _ in sorted(
        (G3.slot(a, i), i) for a, i in G3.slots_of(mask))) for mask in b]
    assert key == sorted(key)


def test_alpha_encode_frozen_example():
    G = Grassmann(2, 2)
    mono = alpha_encode(G, [(1, 2), (1,)])
    assert mono == next(iter(G.monomial([(1, 1), (1, 2), (2, 1)]).terms))
    assert alpha_encode(G, [(), ()]) == 0


def test_alpha_encode_validation():
    G = Grassmann(2, 3)
    with pytest.raises(NonIncreasingTuple):
        alpha_encode(G, [(2, 1), ()])
    with pytest.raises(NonIncreasingTuple):
        alpha_encode(G, [(1, 1), ()])
    with pytest.raises(DimensionMismatch):
        alpha_encode(G, [(1,)])


def test_alpha_roundtrip_exhaustive():
    G = Grassmann(3, 3)
    nu = (2, 1, 2)
    basis = G.basis_of_weight(nu)
    assert len(basis) == 27
    for mask in basis:
        tuples = tuple(tuple(i for a, i in G.slots_of(mask) if a == row)
                       for row in range(1, G.m + 1))
        assert alpha_encode(G, tuples) == mask
        assert tuple(len(t) for t in tuples) == nu
