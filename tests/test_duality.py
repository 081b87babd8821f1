"""Complementation maps: single row, signed multi-row, operator conjugation."""

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

import ylab.duality as dual
from reference_factors import derive, signed_permutation_rows, sym_act
from ylab.battery import mixed_battery
from ylab.duality import (CompositeMismatch, R_eps, R_eps_apply, R_map,
                          SignCounters, composite_check, dual_iso,
                          hv_flip_exponent, iso_covector, sign_counters)
from ylab.glmops import E_op, EE_op, operator_matrix
from ylab.grassmann import DimensionMismatch, Grassmann, perm_longest
from ylab.intertwiner import NotDominant, intertwine_check
from ylab.yangian import ModuleSpec, highest_vector


def spec_of(n, mu, nu):
    return ModuleSpec.make(n, mu, nu)


def all_monomials(G):
    m, n = G.shape
    return [G.monomial(G.slots_of(mono)) for mono in range(1 << (m * n))]


def half_turn(n):
    return -1 if (n * (n - 1) // 2) % 2 else 1


# ------------------------------------------------------- single-row complement

def test_r_map_frozen_two_columns():
    G = Grassmann(1, 2)
    x1, x2 = G.var(1, 1), G.var(1, 2)
    top = x1 * x2
    assert R_map(2, G.unit()).terms == top.terms
    assert R_map(2, x1).terms == x2.terms
    assert R_map(2, x2).terms == x1.scale(F(-1)).terms
    assert R_map(2, top).terms == G.unit().scale(F(-1)).terms


def test_r_map_linear():
    G = Grassmann(1, 3)
    x = G.var(1, 1).scale(F(2)) + G.var(1, 2).scale(F(1, 3))
    want = R_map(3, G.var(1, 1)).scale(F(2)) + \
        R_map(3, G.var(1, 2)).scale(F(1, 3))
    assert R_map(3, x).terms == want.terms


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_r_map_double_application(n):
    G = Grassmann(1, n)
    for v in all_monomials(G):
        twice = R_map(n, R_map(n, v))
        assert twice.terms == v.scale(F(half_turn(n))).terms


def test_r_map_lands_on_complementary_columns():
    G = Grassmann(1, 4)
    for v in all_monomials(G):
        cols = {i for _, i in G.slots_of(next(iter(v.terms)))}
        img = R_map(4, v)
        assert len(img.terms) == 1
        mono, coeff = next(iter(img.terms.items()))
        assert {i for _, i in G.slots_of(mono)} == set(range(1, 5)) - cols
        assert abs(coeff) == 1


def test_r_map_rejects_wrong_shape():
    with pytest.raises(DimensionMismatch):
        R_map(2, Grassmann(2, 2).unit())
    with pytest.raises(DimensionMismatch):
        R_map(2, Grassmann(1, 3).var(1, 1))


# ------------------------------------------------------------- covector iso

@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_iso_covector_degree_edges(n):
    assert iso_covector(n, 0, 0).matrix == ((F(1),),)
    # the full-row monomial complements to the unit with the half-turn sign
    assert iso_covector(n, n, 0).matrix == ((F(half_turn(n)),),)


def test_iso_covector_specs():
    iso = iso_covector(3, 2, F(1, 2))
    assert iso.spec == spec_of(3, (F(1, 2),), (-2,))
    assert iso.target_spec == spec_of(3, (F(1, 2), F(1, 2)), (1, -3))
    assert iso.dim == 3


def test_iso_covector_rejects_bad_degree():
    with pytest.raises(ValueError):
        iso_covector(3, -1, 0)
    with pytest.raises(ValueError):
        iso_covector(3, 4, 0)


@pytest.mark.parametrize("z", [0, 1, F(1, 2)])
@pytest.mark.parametrize("n,d", [(n, d) for n in (1, 2, 3)
                                 for d in range(n + 1)])
def test_iso_covector_intertwines(n, d, z):
    iso = iso_covector(n, d, z)
    assert intertwine_check(iso.spec, iso).passed


def test_iso_covector_agrees_with_multirow_flip():
    for n in (1, 2, 3):
        for d in range(1, n + 1):
            one = iso_covector(n, d, F(1, 2))
            two = dual_iso(spec_of(n, (F(1, 2),), (-d,)))
            assert one.matrix == two.matrix
            assert one.target_spec == two.target_spec


# ------------------------------------------------------ signed complementation

def test_signed_flip_is_identity_without_negative_rows():
    spec = spec_of(2, (0, F(1, 2)), (2, 1))
    G = Grassmann(2, 2)
    for v in all_monomials(G):
        assert R_eps_apply(spec, v).terms == v.terms
    lm = R_eps(spec)
    assert all(lm.matrix[r][c] == (1 if r == c else 0)
               for r in range(len(lm.matrix)) for c in range(len(lm.matrix)))


def test_signed_flip_single_negative_row_frozen():
    spec = spec_of(2, (0,), (-1,))
    G = Grassmann(1, 2)
    assert R_eps_apply(spec, G.var(1, 1)).terms == G.var(1, 2).terms
    assert R_eps_apply(spec, G.var(1, 2)).terms == \
        G.var(1, 1).scale(F(-1)).terms


@pytest.mark.parametrize("n,d", [(2, 1), (2, 2), (3, 1), (3, 3)])
def test_signed_flip_reduces_to_row_complement(n, d):
    spec = spec_of(n, (0,), (-d,))
    G = Grassmann(1, n)
    for v in all_monomials(G):
        assert R_eps_apply(spec, v).terms == R_map(n, v).terms


def element_chain(spec, v):
    # the definition as a chain of whole elements: multiply by x_ai on a
    # nonnegative row, derive by it on a negative one, largest slot first,
    # starting from the product of the full negative rows
    G, eps = v.algebra, spec.eps
    out = G.zero()
    for mono, coeff in v.terms.items():
        img = G.monomial((a, i) for a in range(1, spec.m + 1) if eps[a - 1] < 0
                         for i in range(1, spec.n + 1))
        for a, i in reversed(G.slots_of(mono)):
            img = G.var(a, i) * img if eps[a - 1] > 0 else derive(G, a, i, img)
        out = out + img.scale(coeff)
    return out


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_signed_flip_matches_element_chain(m, n):
    G = Grassmann(m, n)
    mixed = (G.var(1, 1).scale(F(3, 2))
             - G.monomial((a, 1) for a in range(1, m + 1)))
    for nu in itertools.product((-1, 1), repeat=m):
        spec = spec_of(n, (0,) * m, nu)
        for v in all_monomials(G) + [mixed]:
            assert R_eps_apply(spec, v) == element_chain(spec, v), (nu, v)


CONJUGATION_SPECS = [
    spec_of(2, (0, 0), (1, -1)),
    spec_of(3, (0, -2), (1, -1)),
    spec_of(2, (0, -1, -4), (1, -1, -2)),
]


@pytest.mark.parametrize("spec", CONJUGATION_SPECS, ids=str)
def test_signed_flip_conjugates_generators(spec):
    # multiplication by x_ai and the derivation d_ai trade places across the
    # flip exactly on the negative rows, and commute with it on the others
    G = Grassmann(spec.m, spec.n)
    eps = spec.eps
    for v in all_monomials(G):
        rv = R_eps_apply(spec, v)
        for a in range(1, spec.m + 1):
            for i in range(1, spec.n + 1):
                mul = R_eps_apply(spec, G.var(a, i) * v)
                der = R_eps_apply(spec, derive(G, a, i, v))
                if eps[a - 1] > 0:
                    assert mul.terms == (G.var(a, i) * rv).terms
                    assert der.terms == derive(G, a, i, rv).terms
                else:
                    assert mul.terms == derive(G, a, i, rv).terms
                    assert der.terms == (G.var(a, i) * rv).terms


@pytest.mark.parametrize("spec", CONJUGATION_SPECS[:2], ids=str)
def test_signed_flip_straightens_row_transfer(spec):
    # the signed row-transfer operator becomes the plain one on the far side
    G = Grassmann(spec.m, spec.n)
    eps = spec.eps
    for v in all_monomials(G):
        rv = R_eps_apply(spec, v)
        for a in range(1, spec.m + 1):
            for b in range(1, spec.m + 1):
                lhs = R_eps_apply(spec, EE_op(eps, a, b, v))
                assert lhs.terms == E_op(a, b, rv).terms


def test_signed_flip_matrix_is_signed_permutation():
    for spec in CONJUGATION_SPECS:
        mat = R_eps(spec).matrix
        dim = len(mat)
        for r in range(dim):
            assert sum(1 for c in range(dim) if mat[r][c]) == 1
        for c in range(dim):
            hits = [mat[r][c] for r in range(dim) if mat[r][c]]
            assert len(hits) == 1 and abs(hits[0]) == 1


def test_signed_flip_index_form_is_the_operator_matrix():
    # the flip read once per basis monomial, as (image index, sign), against
    # R_eps_apply materialized on every basis monomial
    for spec in mixed_battery():
        G = Grassmann(spec.m, spec.n)
        want = operator_matrix(G, lambda v: R_eps_apply(spec, v),
                               spec.abs_nu, spec.nubar)
        assert (1, signed_permutation_rows(dual._flip(spec))) == \
            want.cleared, spec
        assert R_eps(spec) == want


@pytest.mark.parametrize("spec,want", [
    (spec_of(2, (0, 0), (1, -1)), 1),
    (spec_of(3, (0, -2), (1, -1)), 1),
    (spec_of(3, (0, -4, -8), (-1, 2, -2)), -1),
], ids=str)
def test_row_reversal_conjugation_is_scalar(spec, want):
    # reversing the rows before or after the flip differs by one global sign
    G = Grassmann(spec.m, spec.n)
    s0 = perm_longest(spec.m)
    rev = spec.permuted(s0)
    for v in all_monomials(G):
        lhs = R_eps_apply(rev, sym_act(G, s0, v))
        rhs = sym_act(G, s0, R_eps_apply(spec, v)).scale(F(want))
        assert lhs.terms == rhs.terms


# ------------------------------------------------------------------ sign data

def test_sign_counters_frozen():
    assert sign_counters(spec_of(2, (0, 0), (1, -1))) == \
        SignCounters(N=-1, Nbar=1, K=0, L=-1, M=1)
    assert sign_counters(spec_of(2, (0,), (-2,))) == \
        SignCounters(N=0, Nbar=0, K=0, L=0, M=3)
    assert sign_counters(spec_of(3, (0, 0, -1), (2, 1, -1))) == \
        SignCounters(N=-1, Nbar=8, K=0, L=-3, M=1)


def test_crossing_exponent_frozen():
    assert hv_flip_exponent(spec_of(2, (0, F(1, 2)), (2, 1))) == 0
    assert hv_flip_exponent(spec_of(3, (0,), (-1,))) == 2
    assert hv_flip_exponent(spec_of(2, (0,), (-2,))) == 1
    assert hv_flip_exponent(spec_of(2, (0, 0), (1, -1))) == 1
    assert hv_flip_exponent(spec_of(3, (0, -2), (1, -1))) == 2


def test_crossing_exponent_not_a_pairwise_statistic():
    # one negative row of width one inside three columns: every pairwise
    # counter vanishes or misses the even crossing count 2
    spec = spec_of(3, (0,), (-1,))
    cnt = sign_counters(spec)
    assert (cnt.N, cnt.Nbar, cnt.K, cnt.L) == (0, 0, 0, 0)
    assert cnt.M % 2 == 1
    assert hv_flip_exponent(spec) % 2 == 0


@st.composite
def mixed_specs(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    nu = tuple(draw(st.lists(st.integers(-n, n), min_size=m, max_size=m)))
    mu = tuple(F(-3 * a) for a in range(m))
    return ModuleSpec.make(n, mu, nu)


@given(mixed_specs())
def test_distinguished_vector_sign_matches_crossing_count(spec):
    iso = dual_iso(spec)
    col = iso.column(highest_vector(spec).index)
    want = highest_vector(iso.target_spec).index
    sign = F(-1 if hv_flip_exponent(spec) % 2 else 1)
    assert all(col[r] == (sign if r == want else 0) for r in range(iso.dim))


# -------------------------------------------------------------- multirow iso

def test_dual_iso_target_shape():
    iso = dual_iso(spec_of(2, (0, -3), (2, -1)))
    assert iso.target_spec == spec_of(2, (0, -3, -3), (2, 1, -2))
    assert iso.dim == iso.spec.dim == iso.target_spec.dim


def test_dual_iso_det_shift_override():
    spec = spec_of(2, (0, -1, -4), (1, -1, -2))
    iso = dual_iso(spec, det_mus=(-4, -1))
    assert iso.target_spec.mu[3:] == (F(-4), F(-1))
    with pytest.raises(ValueError):
        dual_iso(spec, det_mus=(-1, -1))


@pytest.mark.parametrize("spec", [
    spec_of(2, (0, 0), (1, -1)),
    spec_of(3, (0, -2), (1, -1)),
    spec_of(3, (0, F(1, 2)), (-2, 2)),
    spec_of(2, (0, -3, -6), (1, -1, -2)),
], ids=str)
def test_dual_iso_intertwines(spec):
    assert intertwine_check(spec, dual_iso(spec)).passed


# ---------------------------------------------------------------- conjugation

def test_composite_without_negative_rows():
    report = composite_check(spec_of(2, (0, F(1, 2)), (2, 1)))
    assert report.passed and report.composite_sign == 1
    assert report.forward_hv_sign == report.reversed_hv_sign == 1


def test_composite_two_rows_mixed():
    # regression: the conjugated operator equals plus one times the direct
    # one here, even though the rows carry opposite degrees
    report = composite_check(spec_of(2, (0, 0), (1, -1)))
    assert report.composite_sign == 1
    assert report.forward_hv_sign == -1
    assert report.reversed_hv_sign == -1
    assert report.counters == SignCounters(N=-1, Nbar=1, K=0, L=-1, M=1)


def test_composite_single_wide_negative_row():
    report = composite_check(spec_of(2, (0,), (-2,)))
    assert report.composite_sign == 1
    assert report.forward_hv_sign == report.reversed_hv_sign == -1


def test_composite_odd_column_count_flips():
    report = composite_check(spec_of(3, (0, -2), (1, -1)))
    assert report.composite_sign == -1
    assert (report.forward_hv_sign, report.reversed_hv_sign) == (1, -1)
    report = composite_check(spec_of(3, (0, -3), (-1, -2)))
    assert report.composite_sign == -1
    assert (report.forward_hv_sign, report.reversed_hv_sign) == (-1, 1)


def test_composite_three_rows():
    report = composite_check(spec_of(2, (0, -3, -6), (1, -1, -2)))
    assert report.passed and report.composite_sign == 1


def test_composite_always_plain_for_even_columns():
    # two complementations of the same row parity cancel when n is even
    for nu in ((1, -1), (2, -1), (-1, -2), (0, -1), (-2, 2)):
        report = composite_check(spec_of(2, (0, -3), nu))
        assert report.composite_sign == 1


def test_composite_rejects_nondominant():
    with pytest.raises(NotDominant):
        composite_check(spec_of(2, (0, 0), (1, 2)))


def test_composite_detects_sign_corruption(monkeypatch):
    monkeypatch.setattr(dual, "hv_flip_exponent", lambda spec: 0)
    # wrong composite sign trips the matrix comparison
    with pytest.raises(CompositeMismatch):
        composite_check(spec_of(3, (0, -2), (1, -1)))
    # composite sign accidentally right, but the flips themselves are not
    with pytest.raises(CompositeMismatch):
        composite_check(spec_of(2, (0, 0), (1, -1)))


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
def test_composite_detects_one_negated_flip_image(monkeypatch, reverse):
    # negating the image of any one basis monomial under either flip, the
    # distinguished one or another, must trip a check
    spec = spec_of(3, (0, -2), (1, -1))
    flipped = spec.permuted(perm_longest(2)) if reverse else spec
    G = Grassmann(2, 3)
    real = dual.R_eps_apply
    for mask in G.basis_of_weight(flipped.abs_nu):
        def negated(s, x, mask=mask):
            image = real(s, x)
            if s == flipped and x.terms == {mask: 1}:
                return image.scale(-1)
            return image
        monkeypatch.setattr(dual, "R_eps_apply", negated)
        with pytest.raises(CompositeMismatch):
            composite_check(spec)


@given(mixed_specs().filter(lambda s: s.m <= 2))
def test_composite_property(spec):
    report = composite_check(spec)
    assert report.passed
    assert report.composite_sign == \
        report.forward_hv_sign * report.reversed_hv_sign
