"""Row operators: frozen examples, gl_m relations, series operator behavior."""

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_factors import derive
from ylab.exact import Poly
from ylab.glmops import (E_op, EE_op, ForbiddenWeightDifference, LinearMap,
                         XY_op, mat_mul, operator_matrix)
from ylab.grassmann import Grassmann, GrassmannElt


def elt(G, *slots):
    return G.monomial(slots)


def scaled(matrix, c):
    return [[c * v for v in row] for row in matrix]


# ---------------------------------------------------------------- E_op basics

def test_E_raising_moves_row():
    G = Grassmann(2, 1)
    assert E_op(1, 2, elt(G, (2, 1))) == elt(G, (1, 1))


def test_E_diagonal_counts_row_degree():
    G = Grassmann(1, 2)
    x = elt(G, (1, 1), (1, 2))
    assert E_op(1, 1, x) == x.scale(2)


def test_E_raising_kills_full_row():
    G = Grassmann(2, 1)
    assert E_op(1, 2, elt(G, (1, 1), (2, 1))).is_zero()


def test_E_commutators_exhaustive():
    # [E_ab, E_cd] = delta_bc E_ad - delta_da E_cb on every monomial
    for m, n in itertools.product((1, 2, 3), repeat=2):
        G = Grassmann(m, n)
        monos = [GrassmannElt(G, {mask: F(1)}) for mask in range(1 << (m * n))]
        for a, b, c, d in itertools.product(range(1, m + 1), repeat=4):
            for x in monos:
                lhs = E_op(a, b, E_op(c, d, x)) - E_op(c, d, E_op(a, b, x))
                rhs = G.zero()
                if b == c:
                    rhs = rhs + E_op(a, d, x)
                if d == a:
                    rhs = rhs - E_op(c, b, x)
                assert lhs == rhs, (m, n, a, b, c, d, x)


def test_E_nilpotent_off_diagonal():
    G = Grassmann(2, 3)
    for mask in range(1 << 6):
        x = GrassmannElt(G, {mask: F(1)})
        for _ in range(G.n + 1):
            x = E_op(1, 2, x)
        assert x.is_zero()


# ------------------------------------------------------------------ signed EE

def test_EE_all_plus_is_E():
    G = Grassmann(2, 2)
    for mask in range(1 << 4):
        x = GrassmannElt(G, {mask: F(1)})
        for a, b in itertools.product((1, 2), repeat=2):
            assert EE_op((1, 1), a, b, x) == E_op(a, b, x)


def test_E_and_EE_match_textbook_definitions():
    # E_ab = sum_k x_ak d_bk and EE_ab = sum_i q_ai p_bi, with every
    # multiplication through the general product, on every monomial, every
    # (a, b) and every sign vector
    for m, n in itertools.product((1, 2, 3), repeat=2):
        G = Grassmann(m, n)
        rows, cols = range(1, m + 1), range(1, n + 1)
        for mask in range(1 << (m * n)):
            x = GrassmannElt(G, {mask: F(1)})
            p = {(b, i, e): derive(G, b, i, x) if e == 1 else G.var(b, i) * x
                 for b in rows for i in cols for e in (1, -1)}
            qp = {(a, e, b, i, f): G.var(a, i) * y if e == 1
                  else derive(G, a, i, y)
                  for (b, i, f), y in p.items() for a in rows for e in (1, -1)}
            for a, b in itertools.product(rows, repeat=2):
                want = {(e, f): sum((qp[a, e, b, i, f] for i in cols),
                                    G.zero())
                        for e in (1, -1) for f in (1, -1)}
                assert E_op(a, b, x) == want[1, 1], (a, b, x)
                for eps in itertools.product((1, -1), repeat=m):
                    assert EE_op(eps, a, b, x) == want[eps[a - 1], eps[b - 1]]


def test_EE_double_derivation_example():
    G = Grassmann(2, 1)
    assert EE_op((-1, 1), 1, 2, elt(G, (1, 1), (2, 1))) == G.unit().scale(-1)


def test_EE_double_multiplication_example():
    G = Grassmann(2, 1)
    assert EE_op((1, -1), 1, 2, G.unit()) == elt(G, (1, 1), (2, 1))


def test_EE_rejects_bad_sign_vector():
    G = Grassmann(2, 1)
    with pytest.raises(ValueError):
        EE_op((1, 0), 1, 2, G.unit())
    with pytest.raises(ValueError):
        EE_op((1,), 1, 2, G.unit())


def test_EE_commutators_all_sign_vectors():
    for m, n in itertools.product((1, 2), repeat=2):
        G = Grassmann(m, n)
        monos = [GrassmannElt(G, {mask: F(1)}) for mask in range(1 << (m * n))]
        for eps in itertools.product((1, -1), repeat=m):
            for a, b, c, d in itertools.product(range(1, m + 1), repeat=4):
                for x in monos:
                    lhs = (EE_op(eps, a, b, EE_op(eps, c, d, x))
                           - EE_op(eps, c, d, EE_op(eps, a, b, x)))
                    rhs = G.zero()
                    if b == c:
                        rhs = rhs + EE_op(eps, a, d, x)
                    if d == a:
                        rhs = rhs - EE_op(eps, c, b, x)
                    assert lhs == rhs, (m, n, eps, a, b, c, d, x)


# ------------------------------------------------------------------ LinearMap

def identity_map(nu, size):
    rows = tuple(tuple(F(int(r == c)) for c in range(size))
                 for r in range(size))
    return LinearMap(tuple(nu), tuple(nu), rows)


def test_linear_map_identity_and_compose():
    ident = identity_map((1, 0), 3)
    assert ident.compose(ident) == ident


def test_mat_mul_keeps_integers_and_takes_polys():
    prod = mat_mul(((1, 0), (2, 3)), ((4, 5), (0, 6)))
    assert prod == ((4, 5), (8, 28))
    assert all(type(x) is int for row in prod for x in row)
    u = Poly((0, 1))
    assert mat_mul(((F(1, 2), 0), (0, 0)), ((u, u), (u, 0))) == \
        ((u * F(1, 2), u * F(1, 2)), (0, 0))


def test_linear_map_compose_checks_weights():
    a = identity_map((1, 0), 2)
    b = identity_map((0, 1), 2)
    with pytest.raises(ValueError):
        a.compose(b)


def test_operator_matrix_detects_weight_escape():
    G = Grassmann(2, 1)
    with pytest.raises(ValueError):
        operator_matrix(G, lambda x: E_op(1, 2, x), (0, 1))


def test_operator_matrix_cross_weight():
    G = Grassmann(2, 1)
    lm = operator_matrix(G, lambda x: E_op(1, 2, x), (0, 1), (1, 0))
    assert lm.matrix == ((F(1),),)


# ------------------------------------------------------------- series X and Y

def test_X_frozen_example():
    G = Grassmann(2, 1)
    lm = XY_op(G, "X", (1, 0), 1, 2, (0, 1))
    assert lm.matrix == ((F(1, 2),),)


def test_X_identity_when_lowering_kills():
    G = Grassmann(2, 1)
    lm = XY_op(G, "X", (5, 0), 1, 2, (1, 1))
    assert lm == identity_map((1, 1), 1)


def test_forbidden_weight_difference():
    G = Grassmann(2, 1)
    with pytest.raises(ForbiddenWeightDifference):
        XY_op(G, "X", (0, 1), 1, 2, (0, 1))
    with pytest.raises(ForbiddenWeightDifference):
        XY_op(G, "Y", (0, 5), 1, 2, (0, 1))
    # non-integer differences are fine even when negative
    XY_op(G, "X", (0, F(1, 2)), 1, 2, (0, 1))


def test_XY_requires_ordered_rows():
    G = Grassmann(2, 1)
    with pytest.raises(ValueError):
        XY_op(G, "X", (1, 0), 2, 1, (0, 1))


@given(st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2),
       st.integers(min_value=-3, max_value=3))
@settings(max_examples=40, deadline=None)
def test_proportionality_X_vs_Y(d1, d2, mu1):
    """(mu_a - mu_b) X^lam = (lam_a - lam_b) Y^mu when lam = mu + nu."""
    G = Grassmann(2, 2)
    nu = (d1, d2)
    # keep lam_1 - lam_2 nonnegative so neither series denominator vanishes
    mu = (mu1, mu1 - 4 - abs(d1 - d2))
    lam = (mu[0] + nu[0], mu[1] + nu[1])
    x = XY_op(G, "X", lam, 1, 2, nu)
    y = XY_op(G, "Y", mu, 1, 2, nu)
    assert scaled(x.matrix, mu[0] - mu[1]) == scaled(y.matrix, lam[0] - lam[1])


def test_proportionality_signed_variant():
    G = Grassmann(2, 2)
    nu, eps = (1, 1), (-1, 1)
    mu = (0, -3)
    lam = (mu[0] + nu[0], mu[1] + nu[1])
    x = XY_op(G, "X", lam, 1, 2, nu, eps=eps)
    y = XY_op(G, "Y", mu, 1, 2, nu, eps=eps)
    assert scaled(x.matrix, mu[0] - mu[1]) == scaled(y.matrix, lam[0] - lam[1])


def test_XY_preserves_weight_spaces():
    # construction itself asserts containment; also check shapes line up
    G = Grassmann(3, 2)
    for nu in ((1, 1, 0), (2, 1, 1), (0, 2, 1)):
        dim = len(G.basis_of_weight(nu))
        for a, b in ((1, 2), (1, 3), (2, 3)):
            lm = XY_op(G, "X", (8, 4, 0), a, b, nu)
            assert lm.shape == (dim, dim)
            assert lm.domain == lm.codomain == nu
