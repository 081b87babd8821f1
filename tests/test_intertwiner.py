"""Reduced words, canonical intertwiners, elementary swaps, image analysis."""

from fractions import Fraction as F
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ylab.intertwiner as itw
from ylab.battery import dominant_battery, word_battery
from ylab.duality import dual_iso
from ylab.exact import _cleared
from ylab.glmops import XY_op, mat_mul, operator_matrix
from ylab.grassmann import Grassmann, perm_apply, perm_longest
from ylab.intertwiner import (Intertwiner, IntertwiningViolated, NotDominant,
                              NotReduced, ReducedWord,
                              WordDependenceViolated, all_reduced_words,
                              build_I, check_dominant, compose_elementary,
                              default_word, elementary,
                              elementary_composition_check, image_analysis,
                              intertwine_check, laurent_tail_matrices,
                              root_order, word_independence_check)
from ylab.yangian import ModuleSpec, action_table, highest_vector


def spec_of(n, mu, nu):
    return ModuleSpec.make(n, mu, nu)


def identity_matrix(dim):
    return tuple(tuple(F(1 if r == c else 0) for c in range(dim))
                 for r in range(dim))


# ------------------------------------------------------------- reduced words

def test_default_words():
    assert default_word(1).letters == ()
    assert default_word(2).letters == (1,)
    assert default_word(3).letters == (1, 2, 1)
    assert default_word(4).letters == (1, 2, 1, 3, 2, 1)


def test_word_counts():
    assert len(all_reduced_words(2)) == 1
    assert len(all_reduced_words(3)) == 2
    assert len(all_reduced_words(4)) == 16


def test_word_validation():
    with pytest.raises(NotReduced):
        ReducedWord(3, (1, 2))                  # wrong length
    with pytest.raises(NotReduced):
        ReducedWord(3, (1, 3, 1))               # letter out of range
    with pytest.raises(NotReduced):
        ReducedWord(3, (1, 1, 1))               # not the longest element
    ReducedWord(3, (2, 1, 2))                   # fine


def test_root_order_examples():
    assert root_order(ReducedWord(2, (1,))).pairs == ((1, 2),)
    assert root_order(ReducedWord(3, (1, 2, 1))).pairs == \
        ((2, 3), (1, 3), (1, 2))
    assert root_order(ReducedWord(3, (2, 1, 2))).pairs == \
        ((1, 2), (1, 3), (2, 3))


def test_root_order_normal_for_all_words():
    for m in (2, 3, 4):
        for word in all_reduced_words(m):
            ordering = root_order(word)         # raises if not normal
            assert len(ordering.pairs) == m * (m - 1) // 2


def test_check_normal_rejects_bad_order():
    # (1,3) must sit between (1,2) and (2,3); here it comes after both
    with pytest.raises(NotReduced):
        itw._check_normal(3, ((1, 2), (2, 3), (1, 3)))
    with pytest.raises(NotReduced):
        itw._check_normal(3, ((1, 2), (1, 3), (1, 3)))  # not the full set


# ---------------------------------------------------------------- dominance

def test_check_dominant():
    check_dominant(spec_of(2, (0, 0), (1, 1)))          # difference 0
    check_dominant(spec_of(2, (0, F(1, 2)), (1, 1)))    # difference -1/2
    with pytest.raises(NotDominant):
        check_dominant(spec_of(2, (0, 0), (1, 2)))      # difference -1
    with pytest.raises(NotDominant):
        check_dominant(spec_of(2, (0, 2), (1, 1)))      # difference -2


# ------------------------------------------------------------ full operator

def test_build_single_factor_is_identity():
    spec = spec_of(3, (F(1, 2),), (2,))
    inter = build_I(spec)
    assert inter.matrix == identity_matrix(3)
    assert inter.target_spec == spec


def test_build_two_equal_vector_factors_dim_one():
    spec = spec_of(1, (0, 0), (1, 1))
    inter = build_I(spec)
    assert inter.matrix == ((F(1),),)


def test_build_two_vector_factors_frozen():
    # equal parameters: source and target are the same module and the
    # normalized canonical map is the identity
    spec = spec_of(2, (0, 0), (1, 1))
    inter = build_I(spec)
    assert inter.target_spec == spec
    assert inter.matrix == identity_matrix(4)


def test_build_normalizes_distinguished_vector():
    for spec in (spec_of(2, (0, -1), (1, 1)),
                 spec_of(2, (0, F(1, 2)), (2, 1)),
                 spec_of(2, (0, F(1, 2)), (1, -1)),
                 spec_of(3, (0, -2), (1, -1)),      # odd n, odd degree product
                 spec_of(3, (0, -2), (-1, 1)),
                 spec_of(2, (1, F(1, 2), 0), (1, -1, 1))):
        inter = build_I(spec)
        hv_s = highest_vector(spec)
        hv_t = highest_vector(inter.target_spec)
        col = inter.column(hv_s.index)
        assert col[hv_t.index] == 1
        assert sum(1 for v in col if v) == 1


def test_build_rejects_mismatched_word():
    spec = spec_of(2, (0, 0), (1, 1))
    with pytest.raises(ValueError):
        build_I(spec, default_word(3))


def test_build_rejects_nondominant():
    with pytest.raises(NotDominant):
        build_I(spec_of(2, (0, 0), (1, 2)))


# ------------------------------------------------------- elementary operators

def test_elementary_validation():
    spec = spec_of(2, (0, F(1, 2)), (2, 1))
    with pytest.raises(ValueError):
        elementary("K_a", spec, 1)
    with pytest.raises(ValueError):
        elementary("I_a", spec, 2)
    with pytest.raises(ValueError):
        elementary("I_a", spec_of(2, (0, F(1, 2)), (1, -1)), 1)


def test_elementary_preconditions():
    with pytest.raises(NotDominant):
        elementary("I_a", spec_of(2, (0, 0), (1, 2)), 1)     # lam diff -1
    with pytest.raises(NotDominant):
        elementary("J_a", spec_of(2, (0, 1), (2, 1)), 1)     # mu diff -1
    with pytest.raises(NotDominant):
        elementary("J_a_prime", spec_of(2, (0, -1), (2, 1)), 1)  # mu diff +1
    # non-integer differences are always allowed
    elementary("I_a", spec_of(2, (0, F(3, 2)), (1, 2)), 1)
    elementary("J_a_prime", spec_of(2, (0, -F(3, 2)), (2, 1)), 1)


def test_elementary_proportionality():
    # (mu_a - mu_{a+1}) I_a == (lam_a - lam_{a+1}) J_a
    spec = spec_of(2, (0, F(1, 2)), (2, 1))
    mu_d, lam_d = -F(1, 2), F(1, 2)
    i_op = elementary("I_a", spec, 1)
    j_op = elementary("J_a", spec, 1)
    assert i_op.target_spec == j_op.target_spec == spec.permuted((2, 1))
    for r in range(spec.dim):
        for c in range(spec.dim):
            assert mu_d * i_op.matrix[r][c] == lam_d * j_op.matrix[r][c]


def test_elementary_equal_degrees_make_i_equal_j():
    spec = spec_of(2, (0, F(1, 2)), (1, 1))
    assert elementary("I_a", spec, 1).matrix == \
        elementary("J_a", spec, 1).matrix


def test_elementary_inverse_pair():
    spec = spec_of(2, (0, F(1, 2)), (2, 1))
    i_op = elementary("I_a", spec, 1)
    j_prime = elementary("J_a_prime", spec, 1)
    assert j_prime.spec == i_op.target_spec and j_prime.target_spec == spec
    assert j_prime.compose(i_op).matrix == identity_matrix(spec.dim)
    assert i_op.compose(j_prime).matrix == identity_matrix(spec.dim)


def test_elementary_composition_sign():
    # one swap of two single-box factors: the chain is minus the canonical map
    spec = spec_of(1, (0, 0), (1, 1))
    assert compose_elementary(spec).matrix == ((F(-1),),)
    assert elementary_composition_check(spec)


@pytest.mark.parametrize("n,mu,nu", [
    (1, (0, 0), (1, 1)),
    (2, (0, F(1, 2)), (2, 1)),
    (2, (0, 0), (1, 1)),
    (2, (0, 0, 0), (1, 1, 1)),
    (2, (5, 0, -5), (1, 2, 1)),
    (3, (0, -1), (2, 3)),
])
def test_elementary_chain_matches_canonical(n, mu, nu):
    assert elementary_composition_check(spec_of(n, mu, nu))


def test_elementary_chain_nondefault_word():
    spec = spec_of(2, (0, 0, 0), (1, 1, 1))
    assert elementary_composition_check(spec, ReducedWord(3, (2, 1, 2)))


def test_elementary_chain_rejects_negative_degrees():
    with pytest.raises(ValueError):
        compose_elementary(spec_of(2, (0, F(1, 2)), (1, -1)))


def test_single_factor_chain_is_identity():
    spec = spec_of(2, (0,), (1,))
    assert compose_elementary(spec).matrix == identity_matrix(2)


# --------------------------------------------------------- word independence

def test_word_independence():
    for spec in (spec_of(2, (0, F(1, 2)), (2, 1)),
                 spec_of(2, (0, 0, 0), (2, 1, 1)),
                 spec_of(2, (1, F(1, 2), 0), (1, -1, 1))):
        report = word_independence_check(spec)
        assert report.passed
        assert report.words == len(all_reduced_words(spec.m))


def test_word_independence_four_factors():
    report = word_independence_check(spec_of(2, (0, 0, 0, 0), (1, 1, 1, 1)))
    assert report.passed and report.words == 16


def test_word_independence_caps_m():
    with pytest.raises(ValueError):
        word_independence_check(spec_of(1, (0,) * 5, (0,) * 5))


def test_word_independence_builds_each_factor_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[3:5])
        return XY_op(*args, **kwargs)

    monkeypatch.setattr(itw, "XY_op", counted)
    spec = spec_of(2, (0, -2, -4, -6), (2, 1, 1, 2))
    assert word_independence_check(spec).words == 16
    assert sorted(calls) == [(a, b) for a in range(1, 4)
                             for b in range(a + 1, 5)]


def reference_I(spec, word):
    """The canonical operator along the word, by textbook Fraction products."""
    G = Grassmann(spec.m, spec.n)
    weight = spec.abs_nu
    eps = spec.eps if any(d < 0 for d in spec.nu) else None
    sigma0 = perm_longest(spec.m)
    total = operator_matrix(G, lambda x: G.sym_act(sigma0, x), weight,
                            perm_apply(sigma0, weight)).matrix
    for a, b in root_order(word).pairs:
        if spec.nubar[a - 1] >= spec.nubar[b - 1]:
            factor = XY_op(G, "X", spec.lambar, a, b, weight, eps=eps)
        else:
            factor = XY_op(G, "Y", spec.mu, a, b, weight, eps=eps)
        total = [[sum(row[k] * factor.matrix[k][c] for k in range(len(row)))
                  for c in range(len(row))] for row in total]
    n_exp = sum(spec.nu[a] * spec.nu[b]
                for a in range(spec.m) for b in range(a + 1, spec.m))
    sign = -1 if n_exp % 2 else 1
    src = itw._module_positions(G, spec)
    tgt = itw._module_positions(G, spec.permuted(sigma0))
    return tuple(tuple(sign * total[tgt[r]][src[c]] for c in range(spec.dim))
                 for r in range(spec.dim))


def test_build_matches_fraction_reference_on_every_word():
    for m, specs in word_battery().items():
        for spec in specs:
            for word in all_reduced_words(m):
                assert build_I(spec, word).matrix == reference_I(spec, word)


@pytest.mark.parametrize("which", [0, -1])
def test_word_independence_detects_one_perturbed_word(monkeypatch, which):
    spec = word_battery()[4][1]
    odd = all_reduced_words(4)[which]
    assemble = itw._assemble

    def perturbed(factors, word):
        out = assemble(factors, word)
        if word != odd:
            return out
        rows = [list(row) for row in out.matrix]
        rows[-1][0] += F(1, 3)
        return Intertwiner(out.spec, out.target_spec,
                           tuple(map(tuple, rows)))

    monkeypatch.setattr(itw, "_assemble", perturbed)
    with pytest.raises(WordDependenceViolated):
        word_independence_check(spec)


# -------------------------------------------------------- intertwining check

@pytest.mark.parametrize("n,mu,nu", [
    (2, (F(1, 2),), (1,)),
    (2, (0, F(1, 2)), (2, 1)),
    (2, (0, 0), (1, 1)),
    (2, (0, -1), (1, 1)),
    (2, (0, F(1, 2)), (1, -2)),
    (2, (0, F(1, 2)), (-1, -1)),
    (3, (0, -2), (1, -1)),
    (3, (0, -2), (-1, 1)),
    (3, (2, 0, -2), (1, -1, -2)),
])
def test_intertwine_check_passes(n, mu, nu):
    spec = spec_of(n, mu, nu)
    report = intertwine_check(spec, build_I(spec))
    assert report.passed and report.pairs == n * n


def test_intertwine_check_catches_corruption():
    spec = spec_of(2, (0, 0), (1, 1))
    good = build_I(spec)
    bad_matrix = tuple(
        tuple(v + 1 if (r, c) == (1, 2) else v for c, v in enumerate(row))
        for r, row in enumerate(good.matrix))
    bad = Intertwiner(good.spec, good.target_spec, bad_matrix)
    with pytest.raises(IntertwiningViolated):
        intertwine_check(spec, bad)


def dense_intertwine_check(spec, inter):
    """intertwine_check's reference: every entry of I A and B I, over Poly."""
    src_grid, src_den = action_table(spec)
    tgt_grid, tgt_den = action_table(inter.target_spec)
    n = spec.n
    for i in range(n):
        for j in range(n):
            lhs = mat_mul(inter.matrix, src_grid[i][j])
            rhs = mat_mul(tgt_grid[i][j], inter.matrix)
            for r in range(len(lhs)):
                for c in range(len(lhs[0])):
                    if lhs[r][c] * tgt_den != rhs[r][c] * src_den:
                        raise IntertwiningViolated(
                            f"I does not intertwine T_{i + 1}{j + 1}"
                            f" at entry ({r}, {c}) on {spec}")
    return itw.IntertwineReport(spec, n * n, True)


def intertwine_outcome(check, spec, inter):
    try:
        return check(spec, inter)
    except IntertwiningViolated as exc:
        return str(exc)


def bumped(inter, r, c):
    rows = [list(row) for row in inter.matrix]
    rows[r][c] += 1
    return Intertwiner(inter.spec, inter.target_spec, tuple(map(tuple, rows)))


@pytest.mark.parametrize("which", ["canonical", "dual_iso"])
def test_intertwine_matches_dense_reference_on_every_bumped_entry(which):
    if which == "canonical":
        spec = spec_of(2, (0, 0), (1, 1))
        inter = build_I(spec)
    else:
        spec = spec_of(2, (1, F(1, 2)), (1, -1))
        inter = dual_iso(spec)
        assert action_table(spec)[1] != action_table(inter.target_spec)[1]
    outcomes = set()
    for r in range(spec.dim):
        for c in range(spec.dim):
            bad = bumped(inter, r, c)
            got = intertwine_outcome(intertwine_check, spec, bad)
            assert got == intertwine_outcome(dense_intertwine_check, spec, bad)
            outcomes.add(type(got))
    assert str in outcomes


# ------------------------------------------------------------- Laurent tails

def fraction_series_tails(spec, depth=None):
    """_series_tails' reference: the Laurent recurrence in Fractions, on
    every entry, yielding each tail as a dense Fraction matrix."""
    if depth is None:
        depth = 4 * spec.m + 2
    grid, den = action_table(spec)
    dim, n = spec.dim, spec.n
    dhat = list(reversed(den.coeffs))  # den monic => dhat[0] == 1
    k = len(dhat) - 1
    for i in range(n):
        for j in range(n):
            coeffs = [[[F(0)] * dim for _ in range(dim)]
                      for _ in range(depth)]
            nonzero = [False] * depth
            for r in range(dim):
                for c in range(dim):
                    p = grid[i][j][r][c]
                    if p.is_zero():
                        continue
                    phat = [F(0)] * (k + 1)
                    for e, v in enumerate(p.coeffs):
                        phat[k - e] = v
                    series = []
                    for t in range(depth + 1):
                        v = phat[t] if t <= k else F(0)
                        v -= sum(series[s] * dhat[t - s]
                                 for s in range(max(0, t - k), t))
                        series.append(v)
                    for t in range(1, depth + 1):
                        if series[t]:
                            coeffs[t - 1][r][c] = series[t]
                            nonzero[t - 1] = True
            yield i, j, [coeffs[t] for t in range(depth) if nonzero[t]]


# ------------------------------------------------------------- Laurent tails

def test_laurent_tails_at_origin():
    # single box at parameter 0: T_ij(u) = delta_ij + E_ij/u, one tail term
    spec = spec_of(2, (0,), (1,))
    tails = laurent_tail_matrices(spec)
    assert len(tails) == 4
    e = {(0, 0): [[F(1), F(0)], [F(0), F(0)]],
         (0, 1): [[F(0), F(1)], [F(0), F(0)]],
         (1, 0): [[F(0), F(0)], [F(1), F(0)]],
         (1, 1): [[F(0), F(0)], [F(0), F(1)]]}
    assert tails == [e[(0, 0)], e[(0, 1)], e[(1, 0)], e[(1, 1)]]


def test_laurent_tails_geometric():
    # parameter 1: 1/(u-1) = sum u^-r, all depths present, E_ij repeated
    spec = spec_of(2, (1,), (1,))
    tails = laurent_tail_matrices(spec, depth=3)
    assert len(tails) == 12
    assert tails[0] == tails[1] == tails[2]     # E_11 at every depth


def test_laurent_tails_trivial_factor():
    spec = spec_of(2, (0,), (0,))
    assert laurent_tail_matrices(spec) == []


def reference_scales(target, basis, pivots):
    """The scales d_O d_B of the nonzero restricted tails, from Fractions."""
    d_b, cols = _cleared(basis)
    scales = set()
    for _, _, tails in fraction_series_tails(target):
        for mat in tails:
            d_o, o = _cleared(mat)
            if any(sum(map(mul, o[pv], col)) for pv in pivots for col in cols):
                scales.add(d_o * d_b)
    return scales


def test_closure_primes_follow_the_fraction_scales():
    # the scales decide which of _CLOSURE_PRIMES the closure may run at
    checked = 0
    for spec in dominant_battery():
        if spec.dim > 9:
            continue
        inter = build_I(spec)
        basis, pivots = itw._column_echelon(inter.matrix)
        scales = itw._restricted_tails(inter.target_spec, basis, pivots)[2]
        assert scales == reference_scales(inter.target_spec, basis, pivots)
        checked += 1
    assert checked > 200


# -------------------------------------------------------------- image analysis

def test_image_full_rank_single_factor():
    spec = spec_of(2, (0,), (1,))
    report = image_analysis(spec, build_I(spec))
    assert report.rank == 2 and report.irreducible is True


def test_image_full_rank_two_factors():
    spec = spec_of(2, (0, 0), (1, 1))
    report = image_analysis(spec, build_I(spec))
    assert report.rank == 4 and report.irreducible is True


def test_image_proper_submodule():
    # adjacent parameters: the canonical map drops rank and its image is the
    # three-dimensional top constituent
    spec = spec_of(2, (0, -1), (1, 1))
    inter = build_I(spec)
    report = image_analysis(spec, inter)
    assert report.rank == 3 and report.irreducible is True
    assert len(report.image_basis) == 3


def test_image_zero_map():
    spec = spec_of(2, (F(1, 2),), (1,))
    zero = Intertwiner(spec, spec, ((F(0), F(0)), (F(0), F(0))))
    report = image_analysis(spec, zero)
    assert report.rank == 0 and report.irreducible is False


def test_image_rejects_noninvariant_subspace():
    spec = spec_of(2, (F(1, 2),), (1,))
    proj = Intertwiner(spec, spec, ((F(1), F(0)), (F(0), F(0))))
    with pytest.raises(IntertwiningViolated):
        image_analysis(spec, proj)


def test_image_exact_fallback_agrees(monkeypatch):
    spec = spec_of(2, (0, -1), (1, 1))
    inter = build_I(spec)
    monkeypatch.setattr(itw, "_CLOSURE_PRIMES", ())
    report = image_analysis(spec, inter)
    assert report.rank == 3 and report.irreducible is True


@pytest.mark.parametrize("mu", [(0, -1), (1, 0), (-1, 0)])
def test_image_of_reducible_module_is_not_irreducible(mu):
    # (0, -1) and (1, 0): the module holds the kernel of its canonical
    # operator.  (-1, 0), the factor-reversed kernel witness: its
    # distinguished vector is its only singular vector, yet generates just
    # a three-dimensional submodule.
    spec = spec_of(2, mu, (1, 1))
    report = image_analysis(spec, Intertwiner(spec, spec, identity_matrix(4)))
    assert report.rank == 4 and report.irreducible is False


def test_image_without_distinguished_vector():
    # the kernel of the canonical operator is a one-dimensional submodule
    # that misses the distinguished vector: irreducible all the same
    spec = spec_of(2, (0, -1), (1, 1))
    kernel = (F(0), F(1), F(-1), F(0))
    assert not any(sum(a * b for a, b in zip(row, kernel))
                   for row in build_I(spec).matrix)
    onto_kernel = tuple((x, F(0), F(0), F(0)) for x in kernel)
    report = image_analysis(spec, Intertwiner(spec, spec, onto_kernel))
    assert report.rank == 1 and report.irreducible is True


def test_image_large_dimension_not_checked():
    spec = spec_of(2, (0,) * 10, (1,) * 10)     # dim 1024
    ident = Intertwiner(spec, spec.permuted(tuple(range(10, 0, -1))),
                        identity_matrix(1024))
    report = image_analysis(spec, ident)
    assert report.rank == 1024 and report.irreducible is None


# ---------------------------------------------------------------- properties

@st.composite
def dominant_specs(draw):
    n = draw(st.integers(min_value=1, max_value=2))
    m = draw(st.integers(min_value=1, max_value=3))
    nu = [draw(st.integers(min_value=-n, max_value=n)) for _ in range(m)]
    base = [draw(st.sampled_from([F(0), F(1), F(-1), F(1, 2), F(3)]))
            for _ in range(m)]
    spec = ModuleSpec.make(n, tuple(base), tuple(nu))
    try:
        check_dominant(spec)
        return spec
    except NotDominant:
        # spread the parameters so every lambda-bar difference is positive
        spread = tuple(b + (n + 8) * (m - a) for a, b in enumerate(base))
        return ModuleSpec.make(n, spread, tuple(nu))


@given(dominant_specs())
@settings(max_examples=12, deadline=None)
def test_property_intertwine_and_normalize(spec):
    inter = build_I(spec)
    assert intertwine_check(spec, inter).passed
    hv_s, hv_t = highest_vector(spec), highest_vector(inter.target_spec)
    assert inter.matrix[hv_t.index][hv_s.index] == 1


@given(dominant_specs().filter(lambda s: s.dim <= 9))
@settings(max_examples=15, deadline=None)
def test_integer_certificates_match_fraction_references(spec):
    inter = build_I(spec)
    assert intertwine_check(spec, inter) == dense_intertwine_check(spec, inter)
    for depth in (None, 3):
        got = [(i, j, tails) for i, j, tails in itw._series_tails(spec, depth)]
        want = [(i, j, [_cleared(mat) for mat in tails])
                for i, j, tails in fraction_series_tails(spec, depth)]
        assert got == want


@given(dominant_specs().filter(lambda s: all(d >= 0 for d in s.nu)))
@settings(max_examples=10, deadline=None)
def test_property_elementary_chain_sign(spec):
    assert elementary_composition_check(spec)


@given(dominant_specs())
@example(spec_of(2, (0, -1), (1, 1)))
@example(spec_of(2, (0, -1, -2), (-1, -1, -1)))     # rank 4 of 8
@settings(max_examples=20, deadline=None)
def test_property_image_verdicts(spec):
    # the canonical image is irreducible; the module itself is irreducible
    # exactly when the canonical operator is injective
    report = image_analysis(spec, build_I(spec))
    assert report.irreducible is True
    whole = image_analysis(spec, Intertwiner(spec, spec,
                                             identity_matrix(spec.dim)))
    assert whole.irreducible is (report.rank == spec.dim)
