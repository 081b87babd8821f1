"""The canonical operator's factors and the eigenvalue candidates, built in
integers, against the Fraction constructions of reference_factors."""

import random
from fractions import Fraction as F
from itertools import product

import pytest

import ylab.yangian as ya
from reference_factors import (reference_candidates, reference_integer_samples,
                               reference_matrix, reference_relabel,
                               reference_XY, signed_permutation_rows, sym_act)
from ylab.battery import dominant_battery, rtt_battery, word_battery
from ylab.exact import _cleared
from ylab.glmops import E_op, ForbiddenWeightDifference, XY_op, operator_matrix
from ylab.grassmann import (DimensionMismatch, Grassmann, perm_apply,
                            perm_longest)
from ylab.intertwiner import _RootFactors, _relabel
from ylab.yangian import ModuleSpec


def cleared(matrix):
    d, rows = _cleared(matrix)
    return d, tuple(map(tuple, rows))


def outcome(build, *args, **kwargs):
    """What build gives, or the type and text of the ValueError it raises."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc)


def assert_same_factor(G, kind, w, a, b, nu, eps):
    got = outcome(XY_op, G, kind, w, a, b, nu, eps=eps)
    want = outcome(reference_XY, G, kind, w, a, b, nu, eps=eps)
    if isinstance(got, tuple):
        assert got == want
    else:
        assert got.cleared == cleared(want)
        assert got.matrix == want
        assert got.domain == got.codomain == tuple(nu)


@pytest.mark.parametrize("spec", dominant_battery(), ids=str)
def test_root_factors_match_reference_on_battery(spec):
    """sigma_0's relabeling, expanded from its index form, and every
    series factor _RootFactors clears, of the kind its branch rule picks,
    are _cleared of the reference; both kinds of every pair match the
    reference too, signed when a degree is negative."""
    G, weight = Grassmann(spec.m, spec.n), spec.abs_nu
    eps = spec.eps if any(d < 0 for d in spec.nu) else None
    factors = _RootFactors(spec)
    sigma0 = perm_longest(spec.m)
    sign, index = _relabel(sigma0, spec.n, weight)
    assert (1, signed_permutation_rows([(r, sign) for r in index])) == \
        cleared(reference_relabel(G, sigma0, weight))
    for a in range(1, spec.m):
        for b in range(a + 1, spec.m + 1):
            for kind, w in (("X", spec.lambar), ("Y", spec.mu)):
                assert_same_factor(G, kind, w, a, b, weight, eps)
            kind, w = (("X", spec.lambar)
                       if spec.nubar[a - 1] >= spec.nubar[b - 1]
                       else ("Y", spec.mu))
            assert factors[a, b] == cleared(reference_XY(
                G, kind, w, a, b, weight, eps=eps))


def test_factors_match_reference_on_random_inputs():
    """Seeded draws with m, n <= 4 (so series terms up to r = 4), both
    kinds, with and without signs, and rational weights, negative integer
    differences included."""
    rng = random.Random(15)
    for _ in range(1500):
        m, n = rng.randint(2, 4), rng.randint(1, 4)
        G = Grassmann(m, n)
        nu = tuple(rng.randint(0, n) for _ in range(m))
        while len(G.basis_of_weight(nu)) > 96:
            nu = tuple(rng.randint(0, n) for _ in range(m))
        w = tuple(F(rng.randint(-6, 6), rng.choice((1, 1, 2, 3)))
                  for _ in range(m))
        a = rng.randint(1, m - 1)
        b = rng.randint(a + 1, m)
        eps = rng.choice((None, tuple(rng.choice((1, -1)) for _ in range(m))))
        assert_same_factor(G, rng.choice("XY"), w, a, b, nu, eps)


def test_two_row_build_matches_reference_beside_a_spectator():
    """m = 3 with (a, b) = (1, 3): the factor is built on rows 1 and 3 and
    spread over row 2, whose degree is odd on a third of the weights; every
    weight with n <= 3, both kinds, without signs and with each of the
    eight sign vectors, at a rational and an integer difference."""
    spectators = set()
    for n in (1, 2, 3):
        G = Grassmann(3, n)
        for nu in product(range(n + 1), repeat=3):
            spectators.add(nu[1] % 2)
            for w in ((F(1, 2), 3, F(-4, 3)), (2, F(1, 2), 0)):
                for eps in (None, *product((1, -1), repeat=3)):
                    for kind in "XY":
                        assert_same_factor(G, kind, w, 1, 3, nu, eps)
    assert spectators == {0, 1}


def test_factor_error_paths_match_reference():
    G = Grassmann(2, 2)
    for kind, w in (("X", (0, 1)), ("Y", (0, 5))):
        assert outcome(XY_op, G, kind, w, 1, 2, (1, 1))[0] is \
            ForbiddenWeightDifference
        assert_same_factor(G, kind, w, 1, 2, (1, 1), None)
    for args in (("X", (1, 0), 2, 1, (1, 1), None),
                 ("Z", (1, 0), 1, 2, (1, 1), None),
                 ("X", (1, 0), 1, 2, (1, 1), (1, 0)),
                 ("Y", (0, -1), 1, 2, (1, 1), (1,)),
                 ("X", (1, 0), 1, 2, (1, 3), None)):
        assert_same_factor(G, *args)
    # three rows: the checks cover the row beside the pair too
    G = Grassmann(3, 2)
    for args in (("X", (1, 0, 0), 1, 3, (1, 3, 1), None),
                 ("Y", (1, 0, 0), 1, 3, (1, 1, 1), (1, -1)),
                 ("X", (1, 0, 0), 1, 3, (1, 1, 1), (1, 0, 1)),
                 ("X", (1, 0, 0), 1, 3, (1, 1), None)):
        got = outcome(XY_op, G, *args)
        assert isinstance(got, tuple) and got[0] in (ValueError,
                                                     DimensionMismatch)
        assert_same_factor(G, *args)


def test_operator_matrix_matches_reference_and_escape():
    """Integer and Fraction ops, within a weight space and across one, and
    the ValueError of an image that leaves the declared codomain."""
    G = Grassmann(3, 2)
    nu = (1, 1, 0)
    for op, cod in ((lambda x: E_op(1, 2, x), (2, 0, 0)),
                    (lambda x: E_op(3, 2, x).scale(F(2, 3)), (1, 0, 1)),
                    (lambda x: sym_act(G, (2, 3, 1), x),
                     perm_apply((2, 3, 1), nu))):
        got = outcome(operator_matrix, G, op, nu, cod)
        want = outcome(reference_matrix, G, op, nu, cod)
        assert got.cleared == cleared(want) and got.matrix == want
    got = outcome(operator_matrix, G, lambda x: E_op(1, 2, x), nu, nu)
    assert got[0] is ValueError and "escapes" in got[1]
    assert got == outcome(reference_matrix, G, lambda x: E_op(1, 2, x),
                          nu, nu)


def test_linear_map_builds_its_matrix_when_read():
    G = Grassmann(2, 1)
    lm = XY_op(G, "X", (1, 0), 1, 2, (0, 1))
    assert "matrix" not in vars(lm)
    assert lm.cleared == (2, ((1,),))
    assert lm.matrix == ((F(1, 2),),)
    assert all(type(x) is F for row in lm.matrix for x in row)


def candidate_specs():
    specs = rtt_battery() + dominant_battery()
    specs += [s for row in word_battery().values() for s in row]
    specs += [ModuleSpec.make(3, (F(1, 2), F(3, 2), F(1, 2), F(-1, 2)),
                              (1, -1, 2, -2)),
              ModuleSpec.make(2, (0, 1, 1, 0), (1, -1, 1, -1))]
    return list(dict.fromkeys(specs))


def test_eigen_candidates_match_ratfun_reference():
    """Same keys in the same order with the same first labels; the keys'
    str, which orders eigenform_check's deflations, follows."""
    for spec in candidate_specs():
        got = list(ya.eigen_candidates(spec).items())
        want = list(reference_candidates(spec).items())
        assert got == want, spec
        assert [str(k) for k, _ in got] == [str(k) for k, _ in want]


@pytest.mark.parametrize("mu", [(0, 3), (-2, 0, 5), (F(1, 2), F(-3, 2)),
                                (F(1, 3), 2, F(-5, 2)), (1, F(7, 2), -4)])
def test_integer_samples_match_fraction_reference(mu):
    poles = {F(z) for z in mu} | {F(z) - 1 for z in mu}
    for count, start, step in product((1, 7, 19), (1, -1, 0), (1, -1)):
        assert ya._integer_samples(count, poles, start, step) == \
            reference_integer_samples(count, poles, start, step)
