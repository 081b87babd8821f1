"""Reduced words, canonical intertwiners, elementary swaps, image analysis."""

from fractions import Fraction as F
from itertools import permutations, product
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ylab.intertwiner as itw
from reference_basis import module_positions
from reference_coproduct import reference_table
from reference_elementary import (compose_elementary,
                                  elementary_composition_check)
from reference_factors import reference_relabel, signed_permutation_rows
from ylab.battery import (KERNEL_SPEC, dominant_battery, mixed_battery,
                          rtt_battery, word_battery)
from ylab.duality import dual_iso, hv_flip_exponent
from ylab.exact import _cleared
from ylab.glmops import XY_op, mat_mul
from ylab.grassmann import (Grassmann, perm_compose,
                            perm_identity, perm_inverse, perm_longest,
                            perm_transposition)
from ylab.intertwiner import (Intertwiner, IntertwiningViolated, NotDominant,
                              NotReduced, ReducedWord,
                              WordDependenceViolated, WordReport,
                              build_I, check_dominant,
                              default_word, elementary, image_analysis,
                              intertwine_check, laurent_tail_matrices,
                              root_order, word_independence_check)
from ylab.yangian import ModuleSpec, action_table, highest_vector


def spec_of(n, mu, nu):
    return ModuleSpec.make(n, mu, nu)


def all_reduced_words(m):
    """Every reduced decomposition of the longest element (1 for m <= 2)."""
    return [ReducedWord(m, w) for w in itw._reduced_words_of(perm_longest(m))]


def identity_matrix(dim):
    return tuple(tuple(F(1 if r == c else 0) for c in range(dim))
                 for r in range(dim))


def dense_tail(dim, entries):
    """_series_tails' sparse tail {(r, c): value} as dense integer rows."""
    rows = [[0] * dim for _ in range(dim)]
    for (r, c), v in entries.items():
        rows[r][c] = v
    return rows


def dense_operator(size, triples):
    """A restricted operator's sorted (a, b, value) triples as the tuple of
    its dense rows."""
    rows = [[0] * size for _ in range(size)]
    for a, b, v in triples:
        rows[a][b] = v
    return tuple(map(tuple, rows))


def operator_triples(op):
    """The (a, b, value) triples of a dense operator's nonzero entries."""
    return tuple((a, b, v) for a, row in enumerate(op)
                 for b, v in enumerate(row) if v)


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


def textbook_pairs(word):
    """(sigma^-1(a_s), sigma^-1(a_s + 1)) per letter, sigma the product of
    the letters after it, by composing and inverting permutations."""
    m, suffix, pairs = word.m, perm_identity(word.m), []
    for a in reversed(word.letters):
        inv = perm_inverse(suffix)
        pairs.append((inv[a - 1], inv[a]))
        suffix = perm_compose(perm_transposition(m, a), suffix)
    return tuple(reversed(pairs))


def test_word_pairs_match_root_order_for_every_word():
    # word_independence_check takes _word_pairs of the generator's words
    # unchecked; root_order checks them; both are the textbook pairs
    for m in (1, 2, 3, 4, 5):
        words = all_reduced_words(m)
        assert [w.letters for w in words] == list(
            itw._reduced_words_of(perm_longest(m)))
        for word in words:
            pairs = itw._word_pairs(m, word.letters)
            assert pairs == root_order(word).pairs == textbook_pairs(word)
    assert len(words) == 768


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


def _zero_operator(spec):
    inter = build_I(spec)
    return Intertwiner(spec, inter.target_spec,
                       tuple((F(0),) * spec.dim for _ in range(spec.dim)))


def _off_line_operator(spec):
    # the operator with xi's column also reaching a row other than that of
    # the target's distinguished vector
    inter = build_I(spec)
    hv_s = highest_vector(spec).index
    hv_t = highest_vector(inter.target_spec).index
    rows = [list(row) for row in inter.matrix]
    rows[(hv_t + 1) % spec.dim][hv_s] = F(1, 3)
    return Intertwiner(spec, inter.target_spec, tuple(map(tuple, rows)))


MIXED_HV_SPEC = spec_of(3, (0, 0), (-1, 1))


@pytest.mark.parametrize("make,want", [
    (lambda: build_I(spec_of(2, (0, F(1, 2)), (2, 1))), 1),
    (lambda: build_I(spec_of(3, (0, -2), (1, -1))), 1),
    (lambda: build_I(spec_of(2, (1, F(1, 2), 0), (1, -1, 1))), 1),
    (lambda: build_I(KERNEL_SPEC), 1),
    (lambda: dual_iso(MIXED_HV_SPEC),
     (-1) ** hv_flip_exponent(MIXED_HV_SPEC)),
    (lambda: _zero_operator(spec_of(2, (0, 0), (1, 1))), 0),
    (lambda: _off_line_operator(spec_of(2, (0, 0), (1, 1))), None),
], ids=["dominant", "odd-n", "three-factor", "kernel-spec", "dual-iso",
        "zero", "off-line"])
def test_hv_scale(make, want):
    scale = make().hv_scale()
    assert scale == want and (scale is None) == (want is None)


def test_build_rejects_mismatched_word():
    spec = spec_of(2, (0, 0), (1, 1))
    with pytest.raises(ValueError):
        build_I(spec, default_word(3))


def test_build_rejects_nondominant():
    with pytest.raises(NotDominant):
        build_I(spec_of(2, (0, 0), (1, 2)))


# ------------------------------------------------------- elementary operators

def test_relabel_is_the_reference_signed_permutation():
    """The closed-form relabeling, expanded from its index form, equals
    the matrix of the algebra automorphism on every basis monomial, for
    every permutation of m <= 4 rows and every weight with n <= 3:
    sigma_0, which build_I reads, and the adjacent swaps of elementary
    among them."""
    for m, n in product((1, 2, 3, 4), (1, 2, 3)):
        G = Grassmann(m, n)
        for sigma in permutations(range(1, m + 1)):
            for nu in product(range(n + 1), repeat=m):
                d, rows = _cleared(reference_relabel(G, sigma, nu))
                sign, index = itw._relabel(sigma, n, nu)
                images = [(r, sign) for r in index]
                assert (1, signed_permutation_rows(images)) == \
                    (d, tuple(map(tuple, rows))), (sigma, nu)


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
    """The canonical operator along the word, by textbook Fraction products
    (row by row, over each factor row's nonzero entries)."""
    G = Grassmann(spec.m, spec.n)
    weight = spec.abs_nu
    eps = spec.eps if any(d < 0 for d in spec.nu) else None
    sigma0 = perm_longest(spec.m)
    total = reference_relabel(G, sigma0, weight)
    for a, b in root_order(word).pairs:
        if spec.nubar[a - 1] >= spec.nubar[b - 1]:
            factor = XY_op(G, "X", spec.lambar, a, b, weight, eps=eps)
        else:
            factor = XY_op(G, "Y", spec.mu, a, b, weight, eps=eps)
        columns = [[(c, y) for c, y in enumerate(row) if y]
                   for row in factor.matrix]
        product = []
        for row in total:
            out = [F(0)] * len(row)
            for x, entries in zip(row, columns):
                for c, y in entries if x else ():
                    out[c] += x * y
            product.append(out)
        total = product
    n_exp = sum(spec.nu[a] * spec.nu[b]
                for a in range(spec.m) for b in range(a + 1, spec.m))
    sign = -1 if n_exp % 2 else 1
    src = module_positions(G, spec)
    tgt = module_positions(G, spec.permuted(sigma0))
    return tuple(tuple(sign * total[tgt[r]][src[c]] for c in range(spec.dim))
                 for r in range(spec.dim))


def test_module_bases_are_the_weight_bases():
    # _module_matrix reads maps of weight bases on the module bases in place:
    # on every weight of the four batteries, of their factor-reversed targets
    # and of their complemented (barred) specs, the positions are 0, 1, ...
    specs = rtt_battery() + dominant_battery() + mixed_battery()
    specs += [spec for row in word_battery().values() for spec in row]
    weights = set()
    for spec in specs:
        weights |= {(spec.n, spec.abs_nu), (spec.n, spec.abs_nu[::-1]),
                    (spec.n, spec.nubar)}
    for n, nu in sorted(weights):
        spec = spec_of(n, (0,) * len(nu), nu)
        assert module_positions(Grassmann(spec.m, n), spec) == \
            list(range(spec.dim))
    assert len(weights) > 50


def test_build_matches_fraction_reference_on_every_word():
    for m, specs in word_battery().items():
        for spec in specs:
            for word in all_reduced_words(m):
                assert build_I(spec, word).matrix == reference_I(spec, word)


def perturb_products(monkeypatch, spec, odd):
    """Make the word walk add odd[s] to one entry of word s's product, in a
    column away from the distinguished vector's, so the first word's
    operator still normalizes and only the comparison can fail."""
    G = Grassmann(spec.m, spec.n)
    hv = module_positions(G, spec)[highest_vector(spec).index]
    products = itw._word_products

    def perturbed(factors, orders):
        for s, total in products(factors, orders):
            if s in odd:
                rows = [list(row) for row in total]
                rows[-1][(hv + 1) % len(rows)] += odd[s]
                total = tuple(map(tuple, rows))
            yield s, total

    monkeypatch.setattr(itw, "_word_products", perturbed)


@pytest.mark.parametrize("which", [0, -1])
def test_word_independence_detects_one_perturbed_word(monkeypatch, which):
    spec = word_battery()[4][1]
    perturb_products(monkeypatch, spec, {which % 16: 1})
    with pytest.raises(WordDependenceViolated):
        word_independence_check(spec)


@pytest.mark.parametrize("odd,named", [
    ({0: 1}, 1), ({0: 1, 1: 1}, 2), ({0: 1, 1: 2}, 1),
    ({12: 2, 7: 1, 3: 1}, 3), ({15: 2, 14: 1}, 14), ({15: 1}, 15)])
def test_word_independence_names_the_first_disagreeing_word(monkeypatch,
                                                            odd, named):
    spec = word_battery()[4][1]
    words = all_reduced_words(4)
    perturb_products(monkeypatch, spec, odd)
    with pytest.raises(WordDependenceViolated) as caught:
        word_independence_check(spec)
    assert str(caught.value) == (f"word {words[named].letters} disagrees"
                                 f" with {words[0].letters} on {spec}")


def test_word_independence_shares_prefix_products(monkeypatch):
    calls = {"terms_mul": 0, "row_terms": 0, "_module_matrix": 0}
    for name in calls:
        def counted(*args, name=name, real=getattr(itw, name)):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(itw, name, counted)
    spec = word_battery()[4][1]
    assert word_independence_check(spec).words == 16
    # 65 distinct nonempty prefixes of the 16 pair sequences, not 16 * 6:
    # the 3 of length one are their factors, and each of the other 62 is
    # one product, by a factor whose nonzero terms are listed once per
    # factor; the relabeling by sigma_0 is no product
    assert calls == {"terms_mul": 62, "row_terms": 6, "_module_matrix": 1}


# The three four-row dim-8 word checks of the cli-cold benchmark's tail.
WORDS_TAIL = (spec_of(2, (F(-1, 2), 0, F(-1, 2), -1), (-1, -1, -1, 2)),
              spec_of(2, (F(-1, 3), F(1, 3), F(-1, 3), F(-2, 3)),
                      (-1, -1, -2, 1)),
              spec_of(2, (F(3, 2), 1, F(1, 2), 0), (1, 2, -1, 1)))


@pytest.mark.parametrize("spec", [spec for specs in word_battery().values()
                                  for spec in specs] + list(WORDS_TAIL))
def test_word_independence_matches_fraction_reference(spec):
    words = all_reduced_words(spec.m)
    agree = len({reference_I(spec, word) for word in words}) == 1
    assert word_independence_check(spec) == WordReport(spec, len(words),
                                                       agree)


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
    """intertwine_check's reference: every entry of I A and B I, over Poly,
    on the Fraction coproduct's grids."""
    src_grid, src_den = reference_table(spec)
    tgt_grid, tgt_den = reference_table(inter.target_spec)
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
        assert action_table(spec)[0] == action_table(inter.target_spec)[0]
    else:
        spec = spec_of(2, (1, F(1, 2)), (1, -1))
        inter = dual_iso(spec)
        assert action_table(spec)[0] != action_table(inter.target_spec)[0]
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
    every entry of the Fraction coproduct's grid, yielding each tail as a
    dense Fraction matrix."""
    if depth is None:
        depth = 4 * spec.m + 2
    grid, den = reference_table(spec)
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


def depth_indexed_tails(spec, depth):
    """(dhat, [(i, j, {(r, c): [S_0, ..., S_depth]})]): den's coefficients,
    highest first, and every Laurent coefficient of every nonzero entry of
    every series, zero ones too.

    S_t is the coefficient of u^-t.  With x = 1/u the entry is
    phat(x) / dhat(x), phat its numerator's coefficients reversed, and S_t
    is read off phat times the power series of 1 / dhat(x), itself formed
    by the recurrence e_t = -sum_s dhat[s] e_(t-s): no numerator enters a
    recurrence, unlike in _series_tails and fraction_series_tails.
    """
    grid, den = reference_table(spec)
    dim, n = spec.dim, spec.n
    dhat = list(reversed(den.coeffs))  # den monic => dhat[0] == 1
    k = len(dhat) - 1
    inverse = [F(1)]
    for t in range(1, depth + 1):
        inverse.append(-sum(dhat[s] * inverse[t - s]
                            for s in range(1, min(t, k) + 1)))
    series = []
    for i in range(n):
        for j in range(n):
            entries = {}
            for r in range(dim):
                for c in range(dim):
                    p = grid[i][j][r][c]
                    if p.is_zero():
                        continue
                    phat = [F(0)] * (k + 1)
                    for e, v in enumerate(p.coeffs):
                        phat[k - e] = v
                    entries[r, c] = [sum(phat[s] * inverse[t - s]
                                         for s in range(min(t, k) + 1))
                                     for t in range(depth + 1)]
            series.append((i, j, entries))
    return dhat, series


def test_tails_past_the_denominator_degree_are_spanned():
    # image_analysis reads the tails to the degree k of the denominator: the
    # deeper ones follow from S_0, ..., S_k by den's own recurrence
    checked = 0
    for spec in dominant_battery():
        if spec.dim > 9:
            continue
        depth, dim = 4 * spec.m + 2, spec.dim
        dhat, series = depth_indexed_tails(spec, depth)
        k = len(dhat) - 1
        assert k == len(action_table(spec)[0]) - 1 <= spec.m
        nonzero = []
        for i, j, entries in series:
            tails = [[[F(0)] * dim for _ in range(dim)]
                     for _ in range(depth + 1)]
            for (r, c), seq in entries.items():
                for t in range(k + 1, depth + 1):
                    assert seq[t] == -sum(dhat[s] * seq[t - s]
                                          for s in range(1, k + 1))
                for t, v in enumerate(seq):
                    tails[t][r][c] = v
            assert tails[0] == [[F(i == j and r == c) for c in range(dim)]
                                for r in range(dim)]  # S_0 = delta_ij
            nonzero += [tail for tail in tails[1:] if any(map(any, tail))]
        assert nonzero == laurent_tail_matrices(spec)
        checked += 1
    assert checked > 200


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


def reference_scales(target, basis, pivots, depth=None):
    """The scales d_O d_B of the nonzero restricted tails to depth, from
    Fractions."""
    d_b, cols = _cleared(basis)
    scales = set()
    for _, _, tails in fraction_series_tails(target, depth):
        for mat in tails:
            d_o, o = _cleared(mat)
            if any(sum(map(mul, o[pv], col)) for pv in pivots for col in cols):
                scales.add(d_o * d_b)
    return scales


def test_closure_primes_follow_the_fraction_scales():
    # the scales decide which of _CLOSURE_PRIMES the closure may run at; the
    # closure reads the tails to the denominator's degree, and the deeper
    # ones only add scales, never a verdict
    checked = 0
    for spec in dominant_battery():
        if spec.dim > 9:
            continue
        inter = build_I(spec)
        target = inter.target_spec
        basis, pivots = itw._column_echelon(inter.matrix)
        scales = itw._restricted_tails(target, basis, pivots)[2]
        depth = len(action_table(target)[0]) - 1
        assert scales == reference_scales(target, basis, pivots, depth)
        assert scales <= reference_scales(target, basis, pivots)
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


def test_image_rejects_a_basis_vector_swapped_out_of_the_image():
    # the invariance equations off the pivots: on every reducible canonical
    # image, trading any one basis vector for a standard vector e_q, q off
    # the pivots (so outside the image), spans a subspace of the same rank
    # that no tail keeps
    images = swaps = 0
    for spec in dominant_battery():
        if spec.dim > 27:
            continue
        inter = build_I(spec)
        basis, pivots = itw._column_echelon(inter.matrix)
        if len(pivots) == spec.dim:
            continue
        q = next(q for q in range(spec.dim) if q not in pivots)
        outside = [F(int(row == q)) for row in range(spec.dim)]
        for s in range(len(basis)):
            cols = basis[:s] + [outside] + basis[s + 1:]
            matrix = tuple(tuple(col[row] for col in cols)
                           for row in range(spec.dim))
            with pytest.raises(IntertwiningViolated):
                image_analysis(spec, Intertwiner(spec, inter.target_spec,
                                                 matrix))
            swaps += 1
        images += 1
    assert images >= 20 and swaps > 150


def test_image_exact_fallback_agrees(monkeypatch):
    spec = spec_of(2, (0, -1), (1, 1))
    inter = build_I(spec)
    monkeypatch.setattr(itw, "_CLOSURE_PRIMES", ())
    report = image_analysis(spec, inter)
    assert report.rank == 3 and report.irreducible is True


def test_image_reports_equal_at_full_depth(monkeypatch):
    # the tails past the denominator's degree change no report, with the
    # closure primes or with exact arithmetic alone
    specs = [spec for spec in dominant_battery() if spec.dim <= 16]

    def reports():
        return [(image_analysis(spec, build_I(spec)),
                 image_analysis(spec, Intertwiner(
                     spec, spec, identity_matrix(spec.dim))))
                for spec in specs]

    spanning = reports()
    with monkeypatch.context() as patch:
        patch.setattr(itw, "_CLOSURE_PRIMES", ())
        spanning_exact = reports()
    assert spanning_exact == spanning
    spanning_depths, series_tails = [], itw._series_tails

    def full_depth(spec, depth=None, table=None):
        spanning_depths.append(depth is not None and depth <= spec.m)
        return series_tails(spec, table=table)

    monkeypatch.setattr(itw, "_series_tails", full_depth)
    assert reports() == spanning
    monkeypatch.setattr(itw, "_CLOSURE_PRIMES", ())
    assert reports() == spanning
    assert spanning_depths and all(spanning_depths)
    assert any(r.irreducible is False for _, r in spanning)


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


# ------------------------------------------- integer echelon and its shortcuts

def reference_column_echelon(matrix):
    """The Fraction column echelon that _column_echelon replaced: each
    column less its components along the basis so far joins the basis,
    scaled to 1 at its first nonzero row, then back-substitution."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    basis, pivots = [], []
    for c in range(cols):
        vec = [F(matrix[r][c]) for r in range(rows)]
        for pv, b in zip(pivots, basis):
            if vec[pv]:
                f = vec[pv]
                vec = [x - f * y for x, y in zip(vec, b)]
        lead = next((r for r in range(rows) if vec[r]), None)
        if lead is None:
            continue
        f = vec[lead]
        basis.append([x / f for x in vec])
        pivots.append(lead)
    for k in range(len(basis)):
        for kk in range(len(basis)):
            if kk != k and basis[kk][pivots[k]]:
                f = basis[kk][pivots[k]]
                basis[kk] = [x - f * y for x, y in zip(basis[kk], basis[k])]
    return basis, pivots


@st.composite
def rational_matrices(draw):
    """Small rational matrices, sparse enough for zero columns and unsorted
    pivots, and half of them of rank at most k as a rows x k by k x cols
    product."""
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 6))
    entry = st.sampled_from([F(0)] * 5 + [F(1), F(-1), F(2), F(1, 2),
                                          F(-3, 4), F(5, 3)])
    if draw(st.booleans()):
        return [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    k = draw(st.integers(0, 3))
    a = [[draw(entry) for _ in range(k)] for _ in range(rows)]
    b = [[draw(entry) for _ in range(cols)] for _ in range(k)]
    return [[sum((a[r][t] * b[t][c] for t in range(k)), F(0))
             for c in range(cols)] for r in range(rows)]


@given(rational_matrices())
@example([])
@example([[F(0)] * 3] * 2)                               # zero
@example([[F(0), F(1)], [F(1), F(0)]])                   # pivots [1, 0]
@example([[F(0), F(2), F(1, 3)], [F(0), F(4), F(2, 3)]])  # zero column, rank 1
@example([[F(1), F(0)], [F(0), F(1)], [F(2), F(3)]])     # full column rank
@settings(max_examples=300, deadline=None)
def test_integer_echelon_is_the_fraction_echelon(matrix):
    assert itw._column_echelon(matrix) == reference_column_echelon(matrix)


def test_integer_echelon_matches_on_the_canonical_operators():
    unsorted = 0
    for spec in dominant_battery():
        matrix = build_I(spec).matrix
        basis, pivots = itw._column_echelon(matrix)
        assert (basis, pivots) == reference_column_echelon(matrix)
        unsorted += pivots != sorted(pivots)
    assert unsorted


def general_restricted_tails(target, basis, pivots):
    """_restricted_tails without its whole-module shortcut: R = (O B)[pivots]
    and the invariance equations d_B O B = B R off the pivots, always."""
    d_b, cols = _cleared(basis)
    b_rows = list(zip(*cols))
    off_pivot = [q for q in range(len(b_rows)) if q not in pivots]
    ops, raising, scales = {}, {}, set()
    table = action_table(target)
    for i, j, tails in itw._series_tails(target, len(table[0]) - 1, table):
        for d_o, o in tails:
            ob = mat_mul(dense_tail(target.dim, o), b_rows)
            restricted = tuple(ob[pv] for pv in pivots)
            for q in off_pivot:
                assert [sum(map(mul, b_rows[q], col))
                        for col in zip(*restricted)] == [d_b * x
                                                         for x in ob[q]]
            if any(any(row) for row in restricted):
                ops[restricted] = None
                if i < j:
                    raising[restricted] = None
                scales.add(d_o * d_b)
    return list(ops), [row for op in raising for row in op], scales


def battery_images():
    """(spec, intertwiner) for the canonical operator and the identity of
    every dominant spec of dim <= 16."""
    for spec in dominant_battery():
        if spec.dim <= 16:
            yield spec, build_I(spec)
            yield spec, Intertwiner(spec, spec, identity_matrix(spec.dim))


def test_whole_module_restriction_is_the_general_one():
    whole = 0
    for spec, inter in battery_images():
        basis, pivots = itw._column_echelon(inter.matrix)
        if len(pivots) == spec.dim:
            whole += pivots != sorted(pivots)
            ops, raising, scales = itw._restricted_tails(
                inter.target_spec, basis, pivots)
            assert ([dense_operator(spec.dim, op) for op in ops],
                    list(map(tuple, raising)), scales) == \
                general_restricted_tails(inter.target_spec, basis, pivots)
    assert whole  # some with the pivots out of order


def test_sparse_restriction_of_a_reducible_image_is_the_dense_one():
    # O B formed from the nonzero entries of O and B, against the dense
    # product and its invariance equations
    reducible = 0
    for spec, inter in battery_images():
        basis, pivots = itw._column_echelon(inter.matrix)
        if len(pivots) < spec.dim:
            ops, raising, scales = itw._restricted_tails(
                inter.target_spec, basis, pivots)
            assert ([dense_operator(len(pivots), op) for op in ops],
                    list(map(tuple, raising)), scales) == \
                general_restricted_tails(inter.target_spec, basis, pivots)
            reducible += 1
    assert reducible >= 10


def test_capped_singular_rank_gives_the_same_verdicts():
    # test (c) runs only after (a) has shown column k of the raising rows is
    # zero, so their rank is at most r - 1 and the count may stop there
    checked = 0
    for spec, inter in battery_images():
        basis, pivots = itw._column_echelon(inter.matrix)
        r = len(basis)
        raising = itw._restricted_tails(inter.target_spec, basis, pivots)[1]
        h = highest_vector(inter.target_spec).coords
        if list(h) not in basis or any(row[basis.index(list(h))]
                                       for row in raising):
            continue
        for p in itw._CLOSURE_PRIMES + (None,):
            full = itw._span_dimension(raising, (), p)
            assert itw._span_dimension(raising, (), p, r - 1) == full
            assert full <= r - 1
        checked += 1
    assert checked > 200


def reference_span_dimension(vectors, ops=(), p=None, cap=None):
    """The _span_dimension whose exact path the integer one replaced: every
    echelon row scaled to 1 at its pivot, in Fractions when p is None."""
    if p:
        ops = [[[x % p for x in row] for row in op] for op in ops]
    rows = {}
    queue = [(None, vec) for vec in vectors]
    while queue:
        op, vec = queue.pop()
        if op is not None:
            vec = [sum(map(mul, row, vec)) for row in op]
        for pv, row in rows.items():
            f = vec[pv] % p if p else vec[pv]
            if f:
                vec = [x - f * y for x, y in zip(vec, row)]
        if p:
            vec = [x % p for x in vec]
        lead = next((i for i, x in enumerate(vec) if x), None)
        if lead is None:
            continue
        inv = pow(vec[lead], -1, p) if p else 1 / F(vec[lead])
        new = [x * inv % p if p else x * inv for x in vec]
        rows[lead] = new
        if len(rows) == (len(new) if cap is None else cap):
            break
        queue.extend((op, new) for op in ops)
    return len(rows)


@st.composite
def span_inputs(draw):
    """(vectors, ops, p, cap) on dimension d <= 6: half the vector lists of
    rank at most k as combinations of k vectors, and each operator dense,
    strictly upper triangular (nilpotent) or an outer product (rank 1)."""
    d = draw(st.integers(1, 6))
    entry = st.sampled_from([0] * 4 + [1, -1, 2, -3, 6])
    vector = st.lists(entry, min_size=d, max_size=d)
    vectors = draw(st.lists(vector, max_size=3))
    if vectors and draw(st.booleans()):
        vectors = [[sum(draw(entry) * v[q] for v in vectors)
                    for q in range(d)] for _ in range(draw(st.integers(1, 4)))]
    ops = []
    for kind in draw(st.lists(st.sampled_from("dnl"), max_size=3)):
        if kind == "l":
            a, b = draw(vector), draw(vector)
            ops.append([[x * y for y in b] for x in a])
        else:
            ops.append([[draw(entry) if kind == "d" or c > r else 0
                         for c in range(d)] for r in range(d)])
    p = draw(st.sampled_from([None, None, 7, 1_000_003]))
    cap = draw(st.none() | st.integers(1, d))
    return vectors, ops, p, cap


@given(span_inputs())
@example(([[0, 0, 1]], [[[0, 1, 0], [0, 0, 1], [0, 0, 0]]], None, None))
@example(([[2, 4, 6], [1, 2, 3], [0, 0, 0]], [], None, None))
@example(([[1, 0, 0]], [[[0, 0, 0], [3, 0, 0], [0, 2, 0]]], None, 2))
@settings(max_examples=300, deadline=None)
def test_span_dimension_is_the_fraction_closure(args):
    """The integer closure (exact) and the unchanged mod-p one against the
    Fraction reference, on rank-deficient vectors and on nilpotent and
    rank-one operators, each given to _span_dimension as its triples."""
    vectors, ops, p, cap = args
    assert (itw._span_dimension(vectors, list(map(operator_triples, ops)), p,
                                cap) == reference_span_dimension(*args))


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
        got = [(i, j, [(scale, dense_tail(spec.dim, entries))
                       for scale, entries in tails])
               for i, j, tails in itw._series_tails(spec, depth)]
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
