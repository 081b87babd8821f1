"""Shift-quotient solver, classification data, realization, pair reduction."""

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_eigen import reference_solve_shift_quotient
from ylab.battery import dominant_battery, mixed_battery, rtt_battery
from ylab.drinfeld import (CommonZeroes, DrinfeldData, NoSolution, PairSet,
                           _telescope, classify_kind, data_of_module,
                           dominant_spec_of_pairs, pair_set, pairs_of_module,
                           realize, reduce_minimal, solve_shift_quotient)
from ylab.exact import ONE, Poly, RatFun, linear
from ylab.yangian import ModuleSpec, eigen_closed


def rf(num, den=ONE):
    return RatFun(num, den)


def poly_roots(*roots):
    return Poly.from_roots([F(r) for r in roots])


# ------------------------------------------------------------------- solver

def test_solver_single_root():
    # (u+1)/u comes from Q = u
    assert solve_shift_quotient(rf(linear(-1), linear(0)), "polynomial") == \
        poly_roots(0)


def test_solver_gap_chain():
    # (u+2)/u needs the full chain Q = u(u+1)
    got = solve_shift_quotient(rf(linear(-2), linear(0)), "polynomial")
    assert got == poly_roots(0, -1)
    # verify the defining equation Q(u+1)/Q(u) = (u+2)/u
    assert got.shift(1) * linear(0) == got * linear(-2)


def test_solver_reciprocal_needs_denominator():
    ratio = rf(linear(0), linear(-1))       # u/(u+1)
    with pytest.raises(NoSolution):
        solve_shift_quotient(ratio, "polynomial")
    num, den = solve_shift_quotient(ratio, "rational")
    assert num == ONE and den == poly_roots(0)


def test_solver_trivial():
    assert solve_shift_quotient(rf(ONE), "polynomial") == ONE


def test_solver_multiplicity():
    # Q = u^2 gives ((u+1)/u)^2
    ratio = rf(linear(-1) * linear(-1), linear(0) * linear(0))
    assert solve_shift_quotient(ratio, "polynomial") == \
        Poly.from_roots([F(0), F(0)])


def test_solver_separate_cosets():
    # Q = u(u - 1/2): chains at cosets 0 and 1/2 solved independently
    target = poly_roots(0, F(1, 2))
    ratio = rf(target.shift(1), target)
    assert solve_shift_quotient(ratio, "polynomial") == target


def test_solver_mixed_rational():
    # Q = (u-3)/u
    target_num, target_den = poly_roots(3), poly_roots(0)
    ratio = rf(target_num.shift(1) * target_den,
               target_den.shift(1) * target_num)
    num, den = solve_shift_quotient(ratio, "rational")
    assert num == target_num and den == target_den


def test_solver_unbalanced_chain():
    # (u)(u-1) over (u-1/2)(u-3/2): each coset chain has nonzero residue
    ratio = rf(poly_roots(0, 1), poly_roots(F(1, 2), F(3, 2)))
    with pytest.raises(NoSolution):
        solve_shift_quotient(ratio, "rational")


def test_solver_rejects_bad_leading_behavior():
    with pytest.raises(ValueError):
        solve_shift_quotient(rf(linear(0)), "polynomial")  # degree mismatch
    with pytest.raises(ValueError):
        solve_shift_quotient(rf(ONE), "affine")


@given(st.lists(st.sampled_from([F(0), F(1), F(-2), F(1, 2), F(5, 2)]),
                min_size=0, max_size=4),
       st.lists(st.sampled_from([F(3), F(-1), F(7, 2)]),
                min_size=0, max_size=3))
@settings(max_examples=40)
def test_property_solver_round_trip(num_roots, den_roots):
    # build Q from arbitrary roots, form Q(u+1)/Q(u), and solve it back
    overlap = [z for z in num_roots if z in den_roots]
    num = Poly.from_roots([z for z in num_roots if z not in overlap])
    den = Poly.from_roots([z for z in den_roots if z not in overlap])
    ratio = rf(num.shift(1) * den, den.shift(1) * num)
    got_num, got_den = solve_shift_quotient(ratio, "rational")
    assert got_num == num and got_den == den


def outcome(solve, *args):
    """solve(*args), or the type and text of the ValueError it raised."""
    try:
        return solve(*args)
    except ValueError as exc:   # NoSolution is one
        return f"{type(exc).__name__}: {exc}"


CHAIN_ROOTS = st.sampled_from([F(k) for k in range(-4, 5)]
                              + [F(1, 2), F(-3, 2), F(5, 2), F(-1, 3)])


@given(st.lists(CHAIN_ROOTS, max_size=5), st.lists(CHAIN_ROOTS, max_size=5),
       st.sampled_from(["polynomial", "rational"]))
@settings(max_examples=300)
def test_property_key_walk_is_the_step_walk(zeros, poles, mode):
    # on chains with small gaps, stepping over the roots gives what stepping
    # through every integer position gives: the same Q, or the same error
    ratfun = RatFun.from_roots(zeros, poles)
    want = outcome(reference_solve_shift_quotient, ratfun, mode)
    assert outcome(solve_shift_quotient, ratfun, mode) == want
    if len(zeros) == len(poles):  # leading behavior 1
        got = outcome(_telescope, zeros, poles, mode)
        if not isinstance(got, str):
            got = tuple(map(Poly.from_roots, got))
            got = got[0] if mode == "polynomial" else got
        assert got == want


def test_key_walk_skips_a_wide_gap():
    # ((u - 77777776) u) / ((u - 77777777)(u - 1)) is Q(u+1)/Q(u) for
    # Q = (u - 1)(u - 77777777): the exponent is zero across the gap
    zeros, poles = [F(77777776), F(0)], [F(77777777), F(1)]
    assert _telescope(zeros, poles, "polynomial") == ([1, 77777777], [])
    with pytest.raises(NoSolution, match="residue -1"):
        _telescope(zeros, poles[:1], "rational")


# ---------------------------------------------------------------- data type

def test_data_validation():
    with pytest.raises(ValueError):
        DrinfeldData((Poly((F(2), F(2))),), ONE, ONE)       # not monic
    with pytest.raises(ValueError):
        DrinfeldData((ONE,), poly_roots(0), poly_roots(0))  # not coprime
    data = DrinfeldData((ONE,), ONE, ONE)
    assert data.n == 2
    assert data.P == (ONE,) and data.Qn_num == data.Qn_den == ONE


def test_classify_kind():
    assert classify_kind(DrinfeldData((ONE,), poly_roots(0), ONE)) == \
        "polynomial"
    assert classify_kind(DrinfeldData((ONE,), ONE, poly_roots(0))) == \
        "rational"
    assert classify_kind(
        DrinfeldData((ONE,), poly_roots(0, -1), ONE)) == "polynomial"


# ------------------------------------------------------------ module -> data

def test_data_of_two_factor_module():
    data = data_of_module(ModuleSpec.make(2, (0, -1), (2, 1)))
    assert data.P == (poly_roots(-1),)          # u + 1 from the second factor
    assert data.Qn_num == poly_roots(0) and data.Qn_den == ONE


def test_data_of_full_covector():
    data = data_of_module(ModuleSpec.make(2, (0,), (-2,)))
    assert data.P == (ONE,)
    assert data.Qn_num == ONE and data.Qn_den == poly_roots(0)


def test_data_of_trivial_degrees():
    data = data_of_module(ModuleSpec.make(3, (5, -7), (0, 0)))
    assert data.P == (ONE, ONE) and data.Qn_num == data.Qn_den == ONE


def test_data_cancels_determinantal_pair():
    # degrees n and -1 at the same parameter share the root in Q_n
    data = data_of_module(ModuleSpec.make(2, (0, 0), (2, -1)))
    assert data.Qn_num == ONE and data.Qn_den == ONE
    assert data.P == (poly_roots(0),)           # the -1 factor feeds P_1


def test_data_mixed_signs():
    data = data_of_module(ModuleSpec.make(2, (0, F(1, 2)), (1, -2)))
    assert data.P == (poly_roots(0),)
    assert data.Qn_num == ONE and data.Qn_den == poly_roots(F(1, 2))


def test_data_equals_shift_quotient_of_eigenvalues():
    # Q_i = P_i ... P_{n-1} Q_n reproduces every diagonal eigenvalue
    spec = ModuleSpec.make(3, (0, -2, F(1, 2)), (3, 1, -1))
    data = data_of_module(spec)
    n = spec.n
    for i in range(1, n + 1):
        qi_num, qi_den = data.Qn_num, data.Qn_den
        for j in range(i, n):
            qi_num = qi_num * data.P[j - 1]
        lhs = eigen_closed(spec, i) * rf(qi_num, qi_den)
        assert lhs == rf(qi_num.shift(1), qi_den.shift(1))


def test_pairs_of_module_are_the_pair_set_of_its_data():
    specs = dict.fromkeys(dominant_battery() + mixed_battery()
                          + rtt_battery())
    for spec in specs:
        assert pairs_of_module(spec) == pair_set(data_of_module(spec))
    assert len(specs) == 383


@given(st.integers(min_value=1, max_value=3).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(-n, n),
                                   st.sampled_from([F(0), F(1), F(1, 2)])),
                         min_size=1, max_size=3))))
@settings(max_examples=100)
@example((1, [(1, F(0)), (-1, F(0))]))
@example((2, [(2, F(1)), (-1, F(1)), (-2, F(1))]))
@example((3, [(3, F(0)), (-3, F(0)), (-1, F(0)), (1, F(1, 2))]))
def test_property_pairs_of_module(rows):
    # repeated shifts make rows of degree n cancel against negative ones in
    # Q_n, which the pairs must follow as pair_set does
    n, rows = rows
    spec = ModuleSpec.make(n, [z for _, z in rows], [d for d, _ in rows])
    assert pairs_of_module(spec) == pair_set(data_of_module(spec))


# -------------------------------------------------------------- realization

def test_realize_single_positive_pair():
    data = DrinfeldData((poly_roots(0),), ONE, ONE)
    spec = realize(data)
    assert spec.m == 1 and spec.nu == (1,) and spec.mu == (F(0),)
    assert data_of_module(spec) == data


def test_realize_full_covector():
    data = DrinfeldData((ONE,), ONE, poly_roots(0))
    spec = realize(data)
    assert spec.m == 1 and spec.nu == (-2,) and spec.mu == (F(0),)
    assert data_of_module(spec) == data


def test_realize_trivial_data():
    data = DrinfeldData((ONE, ONE), ONE, ONE)
    spec = realize(data)
    assert spec.n == 3 and spec.m == 1 and spec.nu == (0,)
    back = data_of_module(spec)
    assert back.P == (ONE, ONE) and back.Qn_num == back.Qn_den == ONE


def test_realize_orders_dominantly():
    # two pairs in the same integer coset must come out sorted by shifted
    # weight; (1, 0) and (2, 3) have shifted weights 1 and 5
    data = DrinfeldData((poly_roots(0), poly_roots(3)), ONE, ONE)
    spec = realize(data)
    assert spec.nu == (2, 1) and spec.mu == (F(3), F(0))
    assert data_of_module(spec) == data


def test_realize_common_zero_rejected():
    good = DrinfeldData((ONE,), poly_roots(0), ONE)
    forged = object.__new__(DrinfeldData)
    object.__setattr__(forged, "P", good.P)
    object.__setattr__(forged, "Qn_num", poly_roots(0))
    object.__setattr__(forged, "Qn_den", poly_roots(0))
    with pytest.raises(CommonZeroes):
        realize(forged)


@pytest.mark.parametrize("p_roots,qn_num_roots,qn_den_roots,n", [
    (((0,), ()), (), (), 3),
    (((0, 1),), (F(1, 2),), (), 2),
    (((),), (), (0, 5), 2),
    (((0,),), (3,), (F(1, 2),), 2),
    (((F(1, 2), 2), (0,)), (), (7,), 3),
])
def test_realize_round_trip(p_roots, qn_num_roots, qn_den_roots, n):
    data = DrinfeldData(tuple(poly_roots(*r) for r in p_roots),
                        poly_roots(*qn_num_roots), poly_roots(*qn_den_roots))
    assert data.n == n
    spec = realize(data)
    assert data_of_module(spec) == data


# ----------------------------------------------------------- pair reduction

def test_reduce_single_fusion():
    pairs = PairSet(((1, F(0)), (-2, F(0))))
    assert reduce_minimal(pairs, 2) == PairSet(((-1, F(0)),))


def test_reduce_no_fusion():
    pairs = PairSet(((1, F(0)), (-2, F(1))))
    assert reduce_minimal(pairs, 2) == pairs


def test_reduce_example_sizes():
    pairs = PairSet(((1, F(0)), (2, F(0)), (-2, F(0)), (-2, F(0))))
    reduced = reduce_minimal(pairs, 2)
    assert len(reduced) == 2
    assert set(reduced.pairs) == {(0, F(0)), (-1, F(0))}


def test_reduce_order_independent_size():
    # fuse by hand in every order; the surviving size never changes
    n = 2
    start = [(1, F(0)), (2, F(0)), (-2, F(0)), (-2, F(0))]

    def closures(items):
        items = tuple(sorted(items))
        pos = [p for p in items if p[0] > 0]
        neg = [p for p in items if p[0] == -n]
        options = set()
        for a, b in itertools.product(pos, neg):
            if a[1] == b[1]:
                rest = list(items)
                rest.remove(a)
                rest.remove(b)
                rest.append((a[0] - n, a[1]))
                options.add(tuple(sorted(rest)))
        if not options:
            return {items}
        out = set()
        for nxt in options:
            out |= closures(nxt)
        return out

    finals = closures(start)
    assert {len(f) for f in finals} == {2}
    assert len(reduce_minimal(PairSet(tuple(start)), n)) == 2


def test_reduce_preserves_data():
    # a reducible pair set and its reduction realize to the same data
    pairs = PairSet(((1, F(0)), (-2, F(0)), (2, F(3))))
    reduced = reduce_minimal(pairs, 2)
    assert len(reduced) == 2
    spec_big = dominant_spec_of_pairs(pairs, 2)
    spec_small = dominant_spec_of_pairs(reduced, 2)
    assert data_of_module(spec_big) == data_of_module(spec_small)


def test_pair_set_of_data_and_spec():
    data = DrinfeldData((poly_roots(0),), poly_roots(1), poly_roots(F(1, 2)))
    pairs = pair_set(data)
    assert pairs.pairs == ((-2, F(1, 2)), (1, F(0)), (2, F(1)))
    spec = dominant_spec_of_pairs(pairs, 2)
    assert PairSet.of_spec(spec) == pairs


# ----------------------------------------------------------------- property

@st.composite
def small_data(draw):
    n = draw(st.integers(min_value=2, max_value=3))
    pool = [F(0), F(1), F(-1), F(1, 2), F(4)]
    p_list = []
    for _ in range(n - 1):
        roots = draw(st.lists(st.sampled_from(pool), max_size=2))
        p_list.append(Poly.from_roots(sorted(roots)))
    num = draw(st.lists(st.sampled_from(pool), max_size=1))
    den = [z for z in draw(st.lists(st.sampled_from(pool), max_size=2))
           if z not in num]
    return DrinfeldData(tuple(p_list), Poly.from_roots(sorted(num)),
                        Poly.from_roots(sorted(den)))


@given(small_data())
@settings(max_examples=15, deadline=None)
def test_property_realize_round_trip(data):
    spec = realize(data)
    assert data_of_module(spec) == data
    # isomorphism invariance: any dominant reordering gives the same data
    assert data_of_module(spec) == data_of_module(
        dominant_spec_of_pairs(PairSet.of_spec(spec), spec.n))
