"""Canonical intertwining operators between standard modules.

The longest symmetric-group element sigma_0 reverses the factor order of a
standard module; a reduced decomposition of sigma_0 yields a normal ordering
of the root pairs (a, b), and each pair contributes one rational series
operator (an X factor on weight lambda-bar when the realization degrees
satisfy nubar_a >= nubar_b, a Y factor on weight mu otherwise).  Conjugating
the ordered product by the Grassmann realization maps and composing with the
row relabeling by sigma_0 produces a constant rational matrix I that
normalizes the distinguished vector and commutes with every generator series.
All of that is verified exactly, never numerically.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Optional, Sequence

from .exact import _cleared, _iu_addto, _iu_mul
from .glmops import XY_op, mat_mul, row_terms, terms_mul
from .grassmann import (Grassmann, perm_apply, perm_compose, perm_identity,
                        perm_longest, perm_transposition)
from .yangian import ModuleSpec, action_table, highest_index


class NotReduced(ValueError):
    """The letter sequence is not a reduced decomposition of sigma_0."""


class NotDominant(ValueError):
    """An ordering precondition on the weight fails (difference in -1, -2, ...)."""


class WordDependenceViolated(ArithmeticError):
    """Two reduced words produced different operators: implementation bug."""


class IntertwiningViolated(ArithmeticError):
    """I T_ij(u) != T'_ij(u) I for some generator series."""


# -------------------------------------------------------------- reduced words

@dataclass(frozen=True)
class ReducedWord:
    """A reduced decomposition of the order-reversing permutation."""

    m: int
    letters: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(int(a) for a in self.letters))
        expect = self.m * (self.m - 1) // 2
        if len(self.letters) != expect:
            raise NotReduced(
                f"word length {len(self.letters)} != m(m-1)/2 = {expect}")
        prod = perm_identity(self.m)
        for a in self.letters:
            if not 1 <= a <= self.m - 1:
                raise NotReduced(f"letter {a} out of range 1..{self.m - 1}")
            prod = perm_compose(prod, perm_transposition(self.m, a))
        if prod != perm_longest(self.m):
            raise NotReduced("letters do not multiply to the longest element")


def default_word(m: int) -> ReducedWord:
    """The staircase word (1)(2,1)(3,2,1)...(m-1,...,1)."""
    letters = tuple(a for k in range(1, m) for a in range(k, 0, -1))
    return ReducedWord(m, letters)


@lru_cache(maxsize=None)
def _reduced_words_of(perm: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    m = len(perm)
    if perm == perm_identity(m):
        return ((),)
    out = []
    for a in range(1, m):
        if perm[a - 1] > perm[a]:  # right descent
            shorter = perm_compose(perm, perm_transposition(m, a))
            out.extend(w + (a,) for w in _reduced_words_of(shorter))
    return tuple(out)


# ------------------------------------------------------------- root orderings

@dataclass(frozen=True)
class RootOrdering:
    """A sequence of root pairs (a, b), a < b, each exactly once, normal."""

    m: int
    pairs: tuple[tuple[int, int], ...]


def _check_normal(m: int, pairs: Sequence[tuple[int, int]]) -> None:
    expect = {(a, b) for a in range(1, m) for b in range(a + 1, m + 1)}
    if set(pairs) != expect or len(pairs) != len(expect):
        raise NotReduced("pair list is not the full set of roots")
    where = {p: s for s, p in enumerate(pairs)}
    for p, q in itertools.combinations(pairs, 2):
        merged = None
        if p[1] == q[0]:
            merged = (p[0], q[1])
        elif q[1] == p[0]:
            merged = (q[0], p[1])
        if merged is None:
            continue
        lo, hi = sorted((where[p], where[q]))
        if not lo < where[merged] < hi:
            raise NotReduced(
                f"ordering is not normal: {merged} outside {p}..{q}")


def _word_pairs(m: int, letters: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """The s-th pair is (sigma^-1(a_s), sigma^-1(a_s + 1)), sigma the product
    of the letters after position s: walking back, each letter a swaps the
    entries a and a + 1 of sigma^-1."""
    inv = list(range(1, m + 1))
    pairs = []
    for a in reversed(letters):
        pairs.append((inv[a - 1], inv[a]))
        inv[a - 1], inv[a] = inv[a], inv[a - 1]
    pairs.reverse()
    return tuple(pairs)


def root_order(word: ReducedWord) -> RootOrdering:
    """Positive roots in the normal order induced by the reduced word (see
    _word_pairs), checked to be increasing and normal."""
    pairs = _word_pairs(word.m, word.letters)
    for a, b in pairs:
        if not a < b:
            raise NotReduced(f"derived pair ({a}, {b}) is not increasing")
    _check_normal(word.m, pairs)
    return RootOrdering(word.m, pairs)


# -------------------------------------------------------- basis index support

def _module_matrix(rows, den: int = 1) -> tuple[tuple[Fraction, ...], ...]:
    """rows / den, a map of Grassmann weight bases, on the module bases,
    which basis_of_weight enumerates in the same order: the product of the
    wedge bases, factor 1 slowest, each lexicographic."""
    zero = Fraction(0)
    return tuple(tuple(Fraction(x, den) if x else zero for x in row)
                 for row in rows)


def _relabel(sigma: Sequence[int], n: int,
             nu: Sequence[int]) -> tuple[int, list[int]]:
    """The row relabeling x_{ai} -> x_{sigma(a) i} from weight nu, as (s,
    index): the product basis vector c = (t_1, ..., t_m) goes to s times
    the one with t_a in factor sigma(a), index[c].  Restoring row-major
    order moves row blocks a < b past each other where sigma inverts them,
    so s = (-1)^(sum of nu_a nu_b over those pairs) for every c."""
    sign = (-1) ** sum(nu[a] * nu[b] for a, b in itertools.combinations(
        range(len(nu)), 2) if sigma[a] > sigma[b])
    dims = [math.comb(n, d) for d in nu]
    cod = perm_apply(sigma, dims)
    stride = [math.prod(cod[s:]) for s in sigma]  # factor a's, at sigma(a)
    return sign, [sum(map(mul, ks, stride))
                  for ks in itertools.product(*map(range, dims))]


# ----------------------------------------------------------------- Intertwiner

@dataclass(frozen=True)
class Intertwiner:
    """A constant rational matrix intertwining source and reversed target."""

    spec: ModuleSpec
    target_spec: ModuleSpec
    matrix: tuple[tuple[Fraction, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def column(self, c: int) -> tuple[Fraction, ...]:
        return tuple(row[c] for row in self.matrix)

    def compose(self, other: "Intertwiner") -> "Intertwiner":
        """self after other; specs must chain."""
        if other.target_spec != self.spec:
            raise ValueError("intertwiners do not chain")
        mat = mat_mul(self.matrix, other.matrix)
        return Intertwiner(other.spec, self.target_spec, mat)

    def hv_scale(self) -> Optional[Fraction]:
        """v when the operator sends the distinguished vector xi of spec to
        v xi', xi' that of target_spec; None when xi's image is off C xi'."""
        col = self.column(highest_index(self.spec))
        hv = highest_index(self.target_spec)
        if any(x for r, x in enumerate(col) if r != hv):
            return None
        return col[hv]


def check_dominant(spec: ModuleSpec) -> None:
    """Raise NotDominant unless lambda-bar avoids differences in -1, -2, ..."""
    lb = spec.lambar
    for a in range(spec.m):
        for b in range(a + 1, spec.m):
            d = lb[a] - lb[b]
            if d.denominator == 1 and d < 0:
                raise NotDominant(
                    f"lambda-bar difference at ({a + 1}, {b + 1}) is {d}")


def is_dominant(spec: ModuleSpec) -> bool:
    """Whether check_dominant passes."""
    try:
        check_dominant(spec)
    except NotDominant:
        return False
    return True


class _RootFactors(dict):
    """A dominant spec's series factors of its canonical operator, lazily.

    Key (a, b) holds the factor of that root pair (X on weight lambda-bar
    when nubar_a >= nubar_b, else Y on weight mu; signed when any degree is
    negative), cleared as (d, d * rows).  No factor depends on the word.
    """

    def __init__(self, spec: ModuleSpec):
        check_dominant(spec)
        self.spec = spec
        self._terms = {}

    def __missing__(self, pair):
        spec = self.spec
        a, b = pair
        eps = spec.eps if any(d < 0 for d in spec.nu) else None
        x_kind = spec.nubar[a - 1] >= spec.nubar[b - 1]
        kind, w = ("X", spec.lambar) if x_kind else ("Y", spec.mu)
        op = XY_op(Grassmann(spec.m, spec.n), kind, w, a, b, spec.abs_nu,
                   eps=eps).cleared
        self[pair] = op
        return op

    def terms(self, pair):
        """row_terms of the factor of pair, formed once for every product."""
        if pair not in self._terms:
            self._terms[pair] = row_terms(self[pair][1])
        return self._terms[pair]


def _word_products(factors: _RootFactors, orders):
    """Yield (s, f_1 ... f_k) per pair sequence orders[s], in integers (the
    identity for the empty one), walking them in sorted order with a stack
    of prefix products."""
    stack, last = [], ()
    dim = factors.spec.dim
    for pairs, s in sorted(zip(orders, itertools.count())):
        k = next((t for t, (p, q) in enumerate(zip(last, pairs)) if p != q),
                 min(len(last), len(pairs)))
        del stack[k:]  # keep the products of the shared prefix
        for pair in pairs[k:]:
            stack.append(terms_mul(stack[-1], factors.terms(pair), dim)
                         if stack else factors[pair][1])
        last = pairs
        yield s, stack[-1] if stack else tuple(
            tuple(int(r == c) for c in range(dim)) for r in range(dim))


def _operator(factors: _RootFactors, total) -> Intertwiner:
    """The operator R f_1 ... f_k of a word whose product is total, R the
    relabeling by sigma_0; it must normalize the distinguished vector."""
    spec = factors.spec
    sign, index = _relabel(perm_longest(spec.m), spec.n, spec.abs_nu)
    den = sign * math.prod(d for d, _ in factors.values())
    # the sign uses the original signed degrees, not the shifted ones: that
    # is the only choice normalizing the distinguished vector for odd n
    n_exp = sum(spec.nu[a] * spec.nu[b]
                for a in range(spec.m) for b in range(a + 1, spec.m))
    target = spec.permuted(perm_longest(spec.m))
    order = sorted(range(spec.dim), key=index.__getitem__)  # R's sources
    out = Intertwiner(spec, target, _module_matrix(
        [total[c] for c in order], -den if n_exp % 2 else den))
    if out.hv_scale() != 1:
        raise ArithmeticError(
            "construction failed to normalize the distinguished vector")
    return out


def _assemble(factors: _RootFactors, orders) -> tuple[Intertwiner, int]:
    """The operator along orders[0]; the first s with another product, or
    0."""
    first = {}  # product -> the first s giving it
    for s, total in _word_products(factors, orders):
        first[total] = min(first.get(total, s), s)
    ranked = sorted(first, key=first.get)
    return (_operator(factors, ranked[0]),
            first[ranked[1]] if len(ranked) > 1 else 0)


def build_I(spec: ModuleSpec, word: Optional[ReducedWord] = None) -> Intertwiner:
    """The canonical operator onto the factor-reversed module.

    Composes one rational series factor per root pair of the normal ordering
    (see _RootFactors), conjugates by the realization maps, relabels rows by
    the reversing permutation, and fixes the global sign so the
    distinguished vector maps to its partner.
    """
    if word is None:
        word = default_word(spec.m)
    if word.m != spec.m:
        raise ValueError(f"word is for m={word.m}, spec has m={spec.m}")
    return _assemble(_RootFactors(spec), [root_order(word).pairs])[0]


# ------------------------------------------------------- elementary operators

def elementary(kind: str, spec: ModuleSpec, a: int) -> Intertwiner:
    """One adjacent-swap operator: kind 'I_a', 'J_a', or 'J_a_prime'.

    These exist in the all-nonnegative-degree case only.  I_a conjugates the
    X series on weight lambda, J_a the Y series on weight mu; J_a_prime is
    the J operator of the swapped module, mapping it back, and inverts I_a.
    """
    if kind not in ("I_a", "J_a", "J_a_prime"):
        raise ValueError(f"unknown elementary kind {kind!r}")
    if any(d < 0 for d in spec.nu):
        raise ValueError("elementary operators require all degrees >= 0")
    if not 1 <= a <= spec.m - 1:
        raise ValueError(f"need 1 <= a <= m-1, got {a}")
    sig = perm_transposition(spec.m, a)
    if kind == "J_a_prime":
        diff = spec.mu[a - 1] - spec.mu[a]
        if diff.denominator == 1 and diff > 0:
            raise NotDominant(
                f"mu difference at ({a}, {a + 1}) is {diff}, in 1, 2, ...")
        return elementary("J_a", spec.permuted(sig), a)
    w = spec.lam if kind == "I_a" else spec.mu
    diff = w[a - 1] - w[a]
    if diff.denominator == 1 and diff < 0:
        raise NotDominant(
            f"weight difference at ({a}, {a + 1}) is {diff}, in -1, -2, ...")
    d, factor = XY_op(Grassmann(spec.m, spec.n), "X" if kind == "I_a" else "Y",
                      w, a, a + 1, spec.abs_nu).cleared
    sign, index = _relabel(sig, spec.n, spec.abs_nu)
    rows = [factor[c] for c in sorted(range(spec.dim), key=index.__getitem__)]
    return Intertwiner(spec, spec.permuted(sig),
                       _module_matrix(rows, sign * d))


# ------------------------------------------------------------------- checking

@dataclass(frozen=True)
class WordReport:
    spec: ModuleSpec
    words: int
    passed: bool


def _yang_baxter_operator(factors: _RootFactors,
                          first) -> Optional[Intertwiner]:
    """The operator along the pair sequence first when F_ij F_ik F_jk =
    F_jk F_ik F_ij, in integers, on every row triple i < j < k; else None.
    One walk shares first's prefix products with the triples'."""
    rows = range(1, factors.spec.m + 1)
    sides = [side for i, j, k in itertools.combinations(rows, 3)
             for side in (((i, j), (i, k), (j, k)), ((j, k), (i, k), (i, j)))]
    products = dict(_word_products(factors, [first] + sides))
    if any(products[s] != products[s + 1]
           for s in range(1, len(products), 2)):
        return None
    return _operator(factors, products[0])


def word_independence_check(spec: ModuleSpec) -> WordReport:
    """Insist that every reduced word gives the same operator: each word's is
    its integer product R f_1 ... f_k over one denominator with one sign, read
    on the module bases in place, so words agree exactly when their products
    do.  The factor of a root pair acts on its two rows alone, so factors of
    disjoint pairs commute, and any two reduced words are joined by braid
    moves (Matsumoto's theorem), each commuting two such factors or trading
    F_ij F_ik F_jk for F_jk F_ik F_ij.  So once that Yang-Baxter identity
    holds on every row triple (_yang_baxter_operator: 4 identities for
    m = 4, 1 for m = 3), all the products are equal, and of the words' only
    the first's is formed, to become the operator.  When an identity fails,
    a sorted walk over every word's pair sequence (words from the
    generator, pairs from _word_pairs, unchecked), sharing each prefix
    product, names the first word whose product differs."""
    if spec.m > 4:
        raise ValueError("word enumeration is limited to m <= 4")
    words = _reduced_words_of(perm_longest(spec.m))
    factors = _RootFactors(spec)
    orders = [_word_pairs(spec.m, w) for w in words]
    if _yang_baxter_operator(factors, orders[0]) is None:
        odd = _assemble(factors, orders)[1]
        if odd:
            raise WordDependenceViolated(f"word {words[odd]} disagrees"
                                         f" with {words[0]} on {spec}")
    return WordReport(spec, len(words), True)


@dataclass(frozen=True)
class IntertwineReport:
    spec: ModuleSpec
    pairs: int
    passed: bool


def intertwine_check(spec: ModuleSpec, inter: Intertwiner) -> IntertwineReport:
    """Assert I T_ij(u) = T'_ij(u) I symbolically for all n^2 series.

    With T_ij = A / den_src and T'_ij = B / den_tgt the identity is
    (I A) den_tgt = (B I) den_src.  It is checked in integers on the
    tables' nonzero support: A, B and both denominators are action_table's
    integers, and I is cleared by one integer d_I, which both sides carry.
    The two denominators need not be equal (those of dual_iso are not).  Each
    supported entry of A is multiplied by den_tgt and each of B by den_src
    once, then spread along the nonzero entries of I, each term added in
    place to its position's one coefficient list; every position so
    reached is tested in C order, and no other can be nonzero.  Equal
    denominators (those of every build_I operator) are not multiplied in:
    the residual is den (I A - B I), nonzero at the same positions.
    """
    _, mat = _cleared(inter.matrix)
    i_rows = [[(c, x) for c, x in enumerate(row) if x] for row in mat]
    i_cols = [[(r, x) for r, x in enumerate(col) if x] for col in zip(*mat)]
    src_den, src = action_table(spec)
    tgt_den, tgt = action_table(inter.target_spec)
    cross = src_den != tgt_den
    n = spec.n
    for i in range(n):
        for j in range(n):
            residual: dict = {}  # (r, c) -> (I A) den_tgt - (B I) den_src
            for k, c, cs in src[i][j]:
                if cross:
                    cs = _iu_mul(cs, tgt_den)
                for r, x in i_cols[k]:
                    acc = residual.get((r, c))
                    if acc is None:
                        residual[r, c] = [x * y for y in cs]
                    else:
                        _iu_addto(acc, cs, x)
            for r, k, cs in tgt[i][j]:
                if cross:
                    cs = _iu_mul(cs, src_den)
                for c, x in i_rows[k]:
                    acc = residual.get((r, c))
                    if acc is None:
                        residual[r, c] = [-x * y for y in cs]
                    else:
                        _iu_addto(acc, cs, -x)
            for r, c in sorted(residual):
                if any(residual[r, c]):
                    raise IntertwiningViolated(
                        f"I does not intertwine T_{i + 1}{j + 1}"
                        f" at entry ({r}, {c}) on {spec}")
    return IntertwineReport(spec, n * n, True)


# -------------------------------------------------------------- image analysis

@dataclass(frozen=True)
class ImageReport:
    spec: ModuleSpec
    rank: int
    image_basis: tuple[tuple[Fraction, ...], ...]
    irreducible: Optional[bool]


def _column_echelon(matrix) -> tuple[list[list[Fraction]], list[int]]:
    """Basis of the column span with pivot rows, echelonized top-down, exact.

    Each column less its components along the basis so far vanishes or
    joins the basis, its first nonzero row the pivot; at the end each basis
    vector is 1 at its pivot and 0 at the others.  The elimination runs on
    the matrix cleared to integers, fraction-free as in Bareiss (Math. Comp.
    1968) but kept small by gcds: v is reduced by b, led by b_p at its pivot
    p, as (b_p v - v_p b) / gcd(b_p, v_p), and each new or back-substituted
    vector is made primitive.  Each integer vector is a nonzero multiple of
    the rational one, so pivots and basis (each vector over its pivot entry,
    the only Fractions formed) are the rational elimination's.  Once the
    pivots fill every row the columns left are not read.
    """
    _, cols = _cleared(list(zip(*matrix)))
    return _integer_echelon(cols)


def _integer_echelon(cols) -> tuple[list[list[Fraction]], list[int]]:
    """_column_echelon of the matrix with these integer columns, each a
    sequence of one length."""
    basis: list[list[int]] = []
    pivots: list[int] = []
    for vec in cols:
        if len(pivots) == len(vec):
            break
        for pv, b in zip(pivots, basis):
            if vec[pv]:
                vec = _eliminate(vec, pv, b)
        lead = next((r for r, x in enumerate(vec) if x), None)
        if lead is not None:
            basis.append(_primitive(vec))
            pivots.append(lead)
    # back-substitute so each pivot row is zero in the other basis vectors
    for k, pv in enumerate(pivots):
        for kk, other in enumerate(basis):
            if kk != k and other[pv]:
                basis[kk] = _primitive(_eliminate(other, pv, basis[k]))
    zero = Fraction(0)
    return [[Fraction(x, b[pv]) if x else zero for x in b]
            for pv, b in zip(pivots, basis)], pivots


def _eliminate(vec: list[int], pv: int, b: list[int]) -> list[int]:
    """The fraction-free step: vec less its component along b, which leads
    at pv, as (b_pv vec - vec_pv b) / gcd(b_pv, vec_pv), so zero at pv."""
    f, lead = vec[pv], b[pv]
    g = math.gcd(f, lead)
    f, lead = f // g, lead // g
    return [lead * x - f * y for x, y in zip(vec, b)]


def _primitive(vec: list[int]) -> list[int]:
    """vec over the gcd of its entries (vec nonzero)."""
    g = math.gcd(*vec)
    return vec if g == 1 else [x // g for x in vec]


def _series_tails(spec: ModuleSpec, depth: Optional[int] = None, table=None):
    """Yield (i, j, tails) per series T_ij(u), 0-based, nonzero terms only.

    The tails are the coefficients of u^-t, t = 1..depth, that are not
    zero, each as (L, {(r, c): L times the coefficient}) on its nonzero
    entries with L least, which is what _cleared gives for it.  They come
    from action_table's integers on its nonzero support: with an entry p,
    the denominator den = sum_s a_s u^(k-s), d = a_0 its leading
    coefficient, and N_t the coefficient of u^(k-t) in p,
      S_t = d^t N_t - sum_{s=1..k} a_s d^(s-1) S_(t-s)
    is an integer and the u^-t coefficient of p / den is S_t / d^(t+1).
    The recurrence runs once per distinct numerator p of the table, which
    its entries share.  Each tail is divided once by gcd(d^(t+1), all of
    its entries), so the pairs do not depend on the table's scale.  A
    caller that has read action_table(spec) passes it as table.
    """
    if depth is None:
        depth = 4 * spec.m + 2
    den, support = action_table(spec) if table is None else table
    k = len(den) - 1
    d = den[-1]
    power = [d ** t for t in range(depth + 2)]
    weights = [(s, den[k - s] * power[s - 1]) for s in range(1, k + 1)]
    terms = {}  # numerator -> [(t, S_t)] for t >= 1 and S_t nonzero
    for cs in {cs for row in support for entries in row for *_, cs in entries}:
        seq = []
        for t in range(depth + 1):
            v = power[t] * cs[k - t] if 0 <= k - t < len(cs) else 0
            v -= sum(w * seq[t - s] for s, w in weights[:t])
            seq.append(v)
        # S_0 is the u^0 term (d delta_ij); the tail starts at u^-1
        terms[cs] = [(t, v) for t, v in enumerate(seq) if t and v]
    for i in range(spec.n):
        for j in range(spec.n):
            sums = [{} for _ in range(depth + 1)]  # t -> {(r, c): S_t}
            for r, c, cs in support[i][j]:
                for t, v in terms[cs]:
                    sums[t][r, c] = v
            tails = []
            for t in range(1, depth + 1):
                if sums[t]:
                    g = math.gcd(power[t + 1], *sums[t].values())
                    tails.append((power[t + 1] // g, {
                        pos: v // g for pos, v in sums[t].items()}))
            yield i, j, tails


def laurent_tail_matrices(spec: ModuleSpec, depth: Optional[int] = None):
    """Coefficients of u^-r, r = 1..depth, of every T_ij(u), as matrices.

    Every entry is a proper rational function, so T_ij(u) = delta_ij plus a
    power series in 1/u.  The default depth 4m + 2 is at least the degree k
    of action_table's denominator, and the tails to depth k span all the
    others (see _restricted_tails), so the default holds every spanning
    tail and some that are redundant.  This is the dense Fraction view of
    _series_tails' sparse integer pairs; the library's certificates read
    the pairs, to depth k only, and it stays as the public entry point to
    the tails that the tests and perfbench/tracing.py name.
    """
    dim = spec.dim
    return [[[Fraction(entries.get((r, c), 0), scale) for c in range(dim)]
             for r in range(dim)]
            for _, _, tails in _series_tails(spec, depth)
            for scale, entries in tails]


_CLOSURE_PRIMES = (1_000_003, 1_000_033, 1_000_037)


def _restricted_tails(target: ModuleSpec, basis, pivots):
    """The spanning tail operators of the target restricted to the image.

    The tails are read to the depth k of the table's denominator, which
    span all the others: past k the numerator terms of _series_tails'
    recurrence vanish, so S_t = -sum_{s=1..k} a_s d^(s-1) S_(t-s) for every
    t > k, and every deeper tail is a fixed combination of S_0, ..., S_k
    with S_0 = d delta_ij times the identity.  Invariance, the closure of a
    vector and the common kernel of the raising tails are the same over
    the first k as over all of them.

    With the tail O = (d_O, d_O times the tail) from _series_tails and the
    basis B (as columns) cleared to integers, the restriction is
    R = (O B)[pivots], and d_B O B = B R certifies that the image is
    invariant.  R is the restricted operator times d_O d_B.  O B is formed
    from the nonzero entries of O and B.  When the pivots cover every row,
    the reduced basis is the identity with its columns permuted, so
    d_B = 1, R[a][b] = O[pivots[a]][pivots[b]] is read off O, and no row is
    left off the pivots to fail.  Returns the distinct nonzero restrictions
    as the sorted triples (a, b, R[a][b]) of their nonzero entries, the
    dense rows of those of the raising series (i < j) stacked, and the
    scales d_O d_B.
    """
    r = len(pivots)
    whole = r == len(basis[0])
    d_b, cols = (1, ()) if whole else _cleared(basis)
    at = {pv: a for a, pv in enumerate(pivots)}
    b_terms = [[(b, x) for b, x in enumerate(row) if x] for row in zip(*cols)]
    # B is d_B times the identity on the pivot rows: only the others can fail
    off_pivot = [q for q in range(len(basis[0])) if q not in at]
    ops, raising, scales = {}, {}, set()
    table = action_table(target)
    for i, j, tails in _series_tails(target, len(table[0]) - 1, table):
        for d_o, o in tails:
            if whole:
                restricted = tuple(sorted((at[q], at[c], x)
                                          for (q, c), x in o.items()))
            else:
                ob: dict = {}  # q -> {b: (O B)[q][b]}
                for (q, c), x in o.items():
                    row = ob.setdefault(q, {})
                    for b, y in b_terms[c]:
                        row[b] = row.get(b, 0) + x * y
                restricted = tuple(sorted(
                    (at[q], b, v) for q, row in ob.items() if q in at
                    for b, v in row.items() if v))
                for q in off_pivot:
                    residual = {b: -d_b * v for b, v in ob.get(q, {}).items()}
                    for a, x in b_terms[q]:
                        for b, v in ob.get(pivots[a], {}).items():
                            residual[b] = residual.get(b, 0) + x * v
                    if any(residual.values()):
                        raise IntertwiningViolated(
                            "image is not invariant under the target action")
            if restricted:
                ops[restricted] = None
                if i < j:
                    raising[restricted] = None
                scales.add(d_o * d_b)
    stacked = [[0] * r for _ in range(r * len(raising))]
    for s, op in enumerate(raising):
        for a, b, x in op:
            stacked[s * r + a][b] = x
    return list(ops), stacked, scales


def _span_dimension(vectors, ops=(), p: Optional[int] = None,
                    cap: Optional[int] = None) -> int:
    """Dimension of the smallest ops-invariant space holding the vectors.

    Each operator is the (a, b, value) triples of its nonzero entries.
    Integer input is reduced mod p; with p None the arithmetic is exact, in
    integers, each row reduced by _eliminate and made primitive.  With cap,
    a bound on the dimension known beforehand, the count stops there: the
    result is min(dimension, cap) when cap bounds it.
    """
    if p:
        ops = [[(a, b, x % p) for a, b, x in op if x % p] for op in ops]
    rows: dict[int, list[int]] = {}  # pivot -> echelon row
    # (op, vector) pairs whose product is still due: an image is formed only
    # when popped, so none is formed once the span is full
    queue = [(None, vec) for vec in vectors]
    while queue:
        op, vec = queue.pop()
        if op is not None:
            image = [0] * len(vec)
            for a, b, x in op:
                image[a] += x * vec[b]
            vec = image
        for pv, row in rows.items():
            f = vec[pv] % p if p else vec[pv]
            if f:
                vec = ([x - f * y for x, y in zip(vec, row)] if p
                       else _eliminate(vec, pv, row))
        if p:
            vec = [x % p for x in vec]
        lead = next((i for i, x in enumerate(vec) if x), None)
        if lead is None:
            continue
        if p:
            inv = pow(vec[lead], -1, p)
            vec = [x * inv % p for x in vec]
        else:
            vec = _primitive(vec)
        rows[lead] = vec
        if len(rows) == (len(vec) if cap is None else cap):
            break
        queue.extend((op, vec) for op in ops)
    return len(rows)


def _singular_line(stacked, r: int) -> Optional[list[Fraction]]:
    """A vector spanning the kernel of the r-column rows, if that is a line."""
    rows, pivots = _integer_echelon(stacked)  # reduced basis of the row space
    if len(pivots) != r - 1:
        return None
    free = next(c for c in range(r) if c not in pivots)
    vec = [Fraction(int(c == free)) for c in range(r)]
    for pv, row in zip(pivots, rows):
        vec[pv] = -row[free]
    return vec


def image_analysis(spec: ModuleSpec, inter: Intertwiner) -> ImageReport:
    """Rank, image basis, and the irreducibility verdict of the image.

    The image V (rank r) of an intertwining operator is a submodule of the
    target.  Its invariance under the Laurent-tail coefficients of all n^2
    series at depths 1..k, k the degree of the target table's denominator
    (one per factor of nonzero degree, so k <= m), is certified exactly, in
    integers, and gives the operators restricted to V.  Every deeper
    coefficient is a fixed combination of these and of the identity (see
    _restricted_tails), so the verdicts below hold for all of them.  The
    coefficients come from an integer recurrence on the target table's
    nonzero support (see _series_tails), each with its least scale, so the
    scales, and with them the primes below, are those of the rational
    coefficients.

    Every nonzero finite-dimensional Y(gl_n)-module holds a nonzero singular
    vector, one killed by all t_ij(u) with i < j, and the singular vectors
    of an irreducible one form a line (Molev, Yangians and Classical Lie
    Algebras, 2007, ch. 3).  With xi' the target's distinguished vector,
      (a) xi' lies in V and every raising tail (i < j) kills it,
      (b) the closure of xi' under all restricted operators fills V, and
      (c) the raising tails, stacked, have rank r - 1 on V, so the singular
          space is C xi'.
    Given (a), V is irreducible if and only if (b) and (c) hold: a nonzero
    submodule holds a singular vector, hence xi', hence V; an irreducible V
    has a one-dimensional singular space.  Where (a) fails, V misses xi'
    (no image of a normalized operator does) and the singular space is
    computed exactly: V is irreducible if and only if it is a line whose
    vector generates V.

    (b) and (c) run modulo the primes of _CLOSURE_PRIMES first, where a
    full closure, or rank r - 1, is proof (rank only drops mod p, and (a)
    caps it at r - 1, so the rank count stops there); otherwise exact
    integer elimination decides.  Dimensions above 512 are reported as not
    checked (irreducible=None).
    """
    basis, pivots = _column_echelon(inter.matrix)
    r = len(basis)
    image = tuple(tuple(v) for v in basis)
    if r == 0:
        return ImageReport(spec, 0, image, False)
    if len(inter.matrix) > 512:
        return ImageReport(spec, r, image, None)

    ops, raising, scales = _restricted_tails(inter.target_spec, basis, pivots)
    primes = [p for p in _CLOSURE_PRIMES if all(s % p for s in scales)]
    h = highest_index(inter.target_spec)
    xi = [int(q == h) for q in range(len(inter.matrix))]
    k = basis.index(xi) if xi in basis else None
    line = None
    if (k is not None and not any(row[k] for row in raising)
            and any(_span_dimension(raising, (), p, r - 1) == r - 1
                    for p in primes)):
        line = [int(q == k) for q in range(r)]  # (a), then (c) mod p
    if line is None:
        exact_line = _singular_line(raising, r)
        if exact_line is None:
            return ImageReport(spec, r, image, False)
        line = _cleared([exact_line])[1][0]
    irreducible = (any(_span_dimension([line], ops, p) == r for p in primes)
                   or _span_dimension([line], ops) == r)
    return ImageReport(spec, r, image, irreducible)
