"""Standard Yangian modules over gl_n in exact rational arithmetic.

A module is specified by an integer vector nu (one exterior-power degree per
tensor factor, negative degrees meaning the covector variant) and a rational
shift vector mu.  Factor a is the exterior power Lambda^{|nu_a|}(C^n) carrying
the generator matrices

    d >= 0:  T_ij(u) = delta_ij + E_ij / (u - z)
    d <  0:  T_ij(u) = delta_ij - E_ji / (u - z + 1)

with z = mu_a, and the full module multiplies these n x n operator grids
factor by factor (the coproduct sums over all intermediate indices), in
integers on the nonzero entries; rational functions in u are formed only
where the API returns them.  Verification routines stay symbolic: the
defining relation holds when the integer coefficients of its residual are
all zero.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb, gcd, isqrt, prod
from typing import Optional, Sequence

from .exact import (ONE, ZERO, Poly, RatFun, _cleared, _it_deflate, _it_div,
                    _it_mul, _it_sub, _iu_mul, linear, q)
from .grassmann import perm_apply


class NotEigenvector(ArithmeticError):
    """The distinguished vector failed an eigen identity: implementation bug."""


class RelationViolated(ArithmeticError):
    """A coefficient of the defining relation's residual is nonzero."""


class NoCandidateFactorization(ArithmeticError):
    """A characteristic polynomial resisted the product-form eigenvalue list."""


# ------------------------------------------------------------------ ModuleSpec

@dataclass(frozen=True)
class ModuleSpec:
    """Defining data of a standard module: degrees nu and shifts mu."""

    n: int
    m: int
    mu: tuple[Fraction, ...]
    nu: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("n and m must be positive")
        if len(self.mu) != self.m or len(self.nu) != self.m:
            raise ValueError("mu and nu must have length m")
        object.__setattr__(self, "mu", tuple(q(z) for z in self.mu))
        object.__setattr__(self, "nu", tuple(int(d) for d in self.nu))
        for d in self.nu:
            if abs(d) > self.n:
                raise ValueError(f"|nu_a| = {abs(d)} exceeds n = {self.n}")

    @classmethod
    def make(cls, n: int, mu: Sequence, nu: Sequence[int]) -> "ModuleSpec":
        return cls(n=n, m=len(tuple(nu)), mu=tuple(q(z) for z in mu),
                   nu=tuple(nu))

    @property
    def lam(self) -> tuple[Fraction, ...]:
        return tuple(z + d for z, d in zip(self.mu, self.nu))

    @property
    def eps(self) -> tuple[int, ...]:
        return tuple(1 if d >= 0 else -1 for d in self.nu)

    @property
    def nubar(self) -> tuple[int, ...]:
        """Row degrees of the realization: nu_a, or n + nu_a when negative."""
        return tuple(d if d >= 0 else self.n + d for d in self.nu)

    @property
    def lambar(self) -> tuple[Fraction, ...]:
        return tuple(z + d for z, d in zip(self.mu, self.nubar))

    @property
    def abs_nu(self) -> tuple[int, ...]:
        return tuple(abs(d) for d in self.nu)

    @property
    def factor_dims(self) -> tuple[int, ...]:
        return tuple(comb(self.n, abs(d)) for d in self.nu)

    @property
    def dim(self) -> int:
        out = 1
        for d in self.factor_dims:
            out *= d
        return out

    def permuted(self, sigma: Sequence[int]) -> "ModuleSpec":
        """The module with factors relabeled by sigma (entry a <- sigma^-1(a))."""
        return ModuleSpec(self.n, self.m, perm_apply(sigma, self.mu),
                          perm_apply(sigma, self.nu))

    def denominator_bound(self) -> Poly:
        """Polynomial every action-matrix denominator must divide."""
        out = ONE
        for z in self.mu:
            out = out * linear(z) * linear(z - 1)
        return out


# ------------------------------------------------- one exterior-power factor

def wedge_basis(n: int, k: int) -> list[tuple[int, ...]]:
    """Strictly increasing k-tuples from 1..n in lexicographic order."""
    return list(itertools.combinations(range(1, n + 1), k))


@lru_cache(maxsize=None)
def _factor_table(n: int, d: int, z: Fraction) -> tuple[tuple, tuple]:
    """One factor's generator matrices in integers, on their nonzero support.

    Returns (den, table).  With z = a/b in lowest terms, den is b*u - a
    (d > 0), b*u - a + b (d < 0) or 1 (d = 0), and table[i-1][j-1] lists
    (r, c, coefficients) for the nonzero entries of den * T_ij(u), in C
    order: den on the diagonal of T_ii, plus b times the moves of E_ij
    (d > 0) or of -E_ji (d < 0).  Lambda^0 has no moves, so d = 0 is the
    identity over 1.

    One pass over the wedge basis makes every move: E_ij (i != j) sends a
    column tup holding j at place p, and not i, to the row sorted(tup - j
    + i) with sign (-1)^(p + #{x in tup - j : x < i}); E_jj fixes tup.
    """
    a, b = z.numerator, z.denominator
    den = (1,) if d == 0 else (-a, b) if d > 0 else (b - a, b)
    basis = wedge_basis(n, abs(d))
    pos = {t: r for r, t in enumerate(basis)}
    step = b if d > 0 else -b
    grid = [[{} for _ in range(n)] for _ in range(n)]
    for c, tup in enumerate(basis):
        for i in range(n):
            grid[i][i][c, c] = den
        for p, j in enumerate(tup):
            grid[j - 1][j - 1][c, c] = (den[0] + step, den[1])
            rest = tup[:p] + tup[p + 1:]
            for i in range(1, n + 1):
                if i in tup:
                    continue
                r = pos[tuple(sorted(rest + (i,)))]
                s = -step if (p + sum(x < i for x in rest)) % 2 else step
                # E_ij's move lies in T_ij for d > 0, in T_ji for d < 0
                into = grid[i - 1][j - 1] if d > 0 else grid[j - 1][i - 1]
                into[r, c] = (s,)
    return den, tuple(tuple(tuple((r, c, cs) for (r, c), cs
                                  in sorted(entries.items()))
                            for entries in row) for row in grid)


def _ratfun_matrix(entries, den, dim: int) -> tuple[tuple[RatFun, ...], ...]:
    """The dim x dim RatFun matrix with the listed (r, c, coefficients)
    entries over den, and zero elsewhere."""
    zero, den = RatFun(ZERO), Poly(den)
    out = [[zero] * dim for _ in range(dim)]
    for r, c, cs in entries:
        out[r][c] = RatFun(Poly(cs), den)
    return tuple(map(tuple, out))


def factor_action(n: int, d: int, z, i: int, j: int
                  ) -> tuple[tuple[RatFun, ...], ...]:
    """T_ij(u) of a single exterior-power factor, as a RatFun matrix."""
    if abs(d) > n:
        raise ValueError(f"|d| = {abs(d)} exceeds n = {n}")
    den, table = _factor_table(n, d, q(z))
    return _ratfun_matrix(table[i - 1][j - 1], den, comb(n, abs(d)))


# -------------------------------------------------------- full module tables

def _coproduct(left, right, size: int) -> tuple:
    """The table of left (x) right, from the two tables' supports.

    Entry (i, j) is sum_k left[i][k] (x) right[k][j], with (x) the Kronecker
    product and size the dimension of right's matrices; entries multiply as
    integer polynomials.  Only products of two supported entries are formed.
    On tables built from _factor_table no two terms meet at one position,
    so each supported entry is one product, never zero: a position fixes
    each factor's change of gl_n weight, 0 on T_kk (diagonal) and
    +-(e_k - e_l) on T_kl, l != k, and so the chain of indices i, ..., k, j
    its term runs through.  A left entry's product with each distinct right
    polynomial (a factor's are den, den +- b and +-b) is made once and
    shared by the entries it fills.
    """
    n = len(left)
    table = []
    for i in range(n):
        row = [[] for _ in range(n)]  # j -> (r, c, coefficients)
        for k in range(n):
            for r1, c1, x in left[i][k]:
                r1, c1 = r1 * size, c1 * size
                products = {}
                for entries, out in zip(right[k], row):
                    for r2, c2, y in entries:
                        p = products.get(y)
                        if p is None:
                            p = products[y] = tuple(_iu_mul(x, y))
                        out.append((r1 + r2, c1 + c2, p))
        for out in row:
            out.sort()  # positions are distinct: C order, no tie
        table.append(tuple(map(tuple, row)))
    return tuple(table)


@lru_cache(maxsize=32)
def action_table(spec: ModuleSpec) -> tuple[tuple, tuple]:
    """All n^2 generator matrices of the module in integers, on their support.

    Returns (den, table): den is the product of the factors' denominators
    (see _factor_table), and table[i-1][j-1] lists (r, c, coefficients) for
    the nonzero entries of den * T_ij(u) in C order, coefficients lowest
    degree first.  The coproduct T_ij = sum_k T_ik (x) T_kj assembles it,
    leftmost factor slowest.  Its scale (den's leading coefficient, the
    product of the factors' b) moves no certificate that reads it.
    """
    n = spec.n
    den, table = _factor_table(n, spec.nu[0], spec.mu[0])
    for d, z in zip(spec.nu[1:], spec.mu[1:]):
        den2, table2 = _factor_table(n, d, z)
        den = tuple(_iu_mul(den, den2))
        table = _coproduct(table, table2, comb(n, abs(d)))
    return den, table


@dataclass(frozen=True)
class ActionMatrix:
    """One generator matrix T_ij(u) with canonical rational-function entries."""

    i: int
    j: int
    entries: tuple[tuple[RatFun, ...], ...]


def module_action(spec: ModuleSpec, i: int, j: int) -> ActionMatrix:
    """T_ij(u) on the full module; entries canonical, denominators checked."""
    if not (1 <= i <= spec.n and 1 <= j <= spec.n):
        raise ValueError(f"indices ({i}, {j}) out of range 1..{spec.n}")
    den, table = action_table(spec)
    support = table[i - 1][j - 1]
    entries = _ratfun_matrix(support, den, spec.dim)
    bound = spec.denominator_bound()
    for r, c, _ in support:
        f = entries[r][c]
        if not (bound % f.den).is_zero():
            raise ArithmeticError(
                f"denominator {f.den} of T_{i}{j} escapes the pole bound")
        if f.num.degree > f.den.degree:
            raise ArithmeticError(f"entry of T_{i}{j} not proper: {f}")
    return ActionMatrix(i, j, entries)


# ------------------------------------------------------------- highest vector

@dataclass(frozen=True)
class HighestVector:
    """Coordinates of the distinguished basis vector (single 1, rest 0)."""

    coords: tuple[Fraction, ...]
    index: int


def highest_index(spec: ModuleSpec) -> int:
    """Position of the distinguished vector in the module basis: in each
    factor's lexicographic wedge basis, the first label (1, ..., d) when
    d >= 0 and the last (n + d + 1, ..., n) when d < 0."""
    idx = 0
    for d in spec.nu:
        size = comb(spec.n, abs(d))
        idx = idx * size + (size - 1 if d < 0 else 0)
    return idx


def highest_vector(spec: ModuleSpec) -> HighestVector:
    idx = highest_index(spec)
    return HighestVector(tuple(Fraction(int(r == idx))
                               for r in range(spec.dim)), idx)


# ---------------------------------------------------------- eigenvalue series

def _closed_roots(spec: ModuleSpec, i: int) -> tuple[list, list]:
    """Zeros and poles of eigen_closed, shared roots not cancelled."""
    pos = [z for z, d in zip(spec.mu, spec.nu) if d >= i]
    neg = [z for z, d in zip(spec.mu, spec.nu) if d < i - spec.n]
    return [z - 1 for z in pos] + neg, pos + [z - 1 for z in neg]


def eigen_closed(spec: ModuleSpec, i: int) -> RatFun:
    """Closed product form of the i-th diagonal eigenvalue on the vector."""
    return RatFun.from_roots(*_closed_roots(spec, i))


def _cleared_roots(roots) -> tuple[list[int], int]:
    """(prod (b u - a), prod b) over the roots a/b: the product of their
    factors u - a/b is the first over the second."""
    return (reduce(_iu_mul, ((-z.numerator, z.denominator) for z in roots),
                   [1]), prod(z.denominator for z in roots))


def eigen_roots(spec: ModuleSpec, i: int) -> tuple[list, list]:
    """eigen_closed's zeros and poles, once the table agrees with them.

    Asserts the distinguished vector is annihilated by every strictly-upper
    T_ij(u), is an actual eigenvector of T_ii(u), and that the eigenvalue
    cs / den read off the table equals N / D, the closed form's products
    over its zeros and poles: with each root a/b cleared to b u - a, N' and
    D' the cleared products and c_N and c_D the products of the b, that is
    cs D' c_N = den N' c_D in Z[u].  Any mismatch raises NotEigenvector,
    and only its text forms the RatFuns.
    """
    den, table = action_table(spec)
    col = highest_index(spec)
    value = ()
    for r, c, cs in table[i - 1][i - 1]:
        if c == col and r != col:
            raise NotEigenvector(
                f"T_{i}{i} maps the distinguished vector off itself (row {r})")
        if (r, c) == (col, col):
            value = cs
    for j in range(i + 1, spec.n + 1):
        if any(c == col for _, c, _ in table[i - 1][j - 1]):
            raise NotEigenvector(
                f"T_{i}{j} does not annihilate the distinguished vector")
    zeros, poles = _closed_roots(spec, i)
    num, c_num = _cleared_roots(zeros)
    pole, c_pole = _cleared_roots(poles)
    if (_iu_mul(value, [c_num * x for x in pole])
            != _iu_mul(den, [c_pole * x for x in num])):
        raise NotEigenvector(
            f"eigenvalue {RatFun(Poly(value), Poly(den))} differs from"
            f" closed form {eigen_closed(spec, i)}")
    return zeros, poles


def eigen_series(spec: ModuleSpec, i: int) -> RatFun:
    """Eigenvalue of T_ii(u) on the distinguished vector, fully cross-checked
    against the table (see eigen_roots); any mismatch raises NotEigenvector."""
    return RatFun.from_roots(*eigen_roots(spec, i))


# -------------------------------------------------- defining-relation check

@dataclass(frozen=True)
class RttReport:
    spec: ModuleSpec
    pairs: int
    degree_bound: int
    passed: bool


def _sorted_unique(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct entries of a sorted array and where each first occurs
    as np.unique gives them, without the lazy import of numpy.ma that
    np.unique and np.union1d can make."""
    import numpy as np

    first = np.ones(len(values), dtype=bool)
    first[1:] = values[1:] != values[:-1]
    starts = np.flatnonzero(first)
    return values[starts], starts


def _support_products(support: np.ndarray, n: int, dim: int):
    """Index arrays for the products of two tables on one support.

    support lists, in C order, the flat positions (a, b, i, j) of the
    nonzero entries of the (n, n, dim, dim) table.  Returns (left, right,
    starts, out): product p multiplies entry left[p] of one table by entry
    right[p] of the other, the two meeting at the inner index j; the
    products are sorted by the flat position in (n, n, n, n, dim, dim) of
    the (a, b, c, d, i, k) they add into, out lists those positions once
    each, and starts marks where each begins.  Index len(support) is a zero
    slot, and one last product of two zero slots gives every reduction a
    trailing zero.
    """
    import numpy as np

    gen, row, col = np.unravel_index(support, (n * n, dim, dim))
    by_row = np.argsort(row, kind="stable")
    counts = np.bincount(row, minlength=dim)
    reach = counts[col]
    left = np.repeat(np.arange(len(support)), reach)
    offset = np.arange(len(left)) - np.repeat(np.cumsum(reach) - reach, reach)
    right = by_row[(np.cumsum(counts) - counts)[col[left]] + offset]
    code = np.ravel_multi_index(
        (gen[left], gen[right], row[left], col[right]),
        (n * n, n * n, dim, dim))
    order = np.argsort(code, kind="stable")
    out, starts = _sorted_unique(code[order])
    zero = len(support)
    return (np.append(left[order], zero), np.append(right[order], zero),
            np.append(starts, len(order)), out)


def _relation_slots(out: np.ndarray, n: int, dim: int):
    """Positions the relation can see, and where each reads its products.

    A position (a, b, c, d, i, k) is reachable when one of P[abcd],
    Q[cdab] and P/Q[cbad] is among the product positions out.  Returns
    the reachable positions in C order with three slot arrays into the
    reduced products, one per term; a term that no product reaches reads
    the trailing zero slot len(out).
    """
    import numpy as np

    shape = (n, n, n, n, dim, dim)

    def crossed(flat):
        a, b, c, d, i, k = np.unravel_index(flat, shape)
        return (np.ravel_multi_index((c, d, a, b, i, k), shape),
                np.ravel_multi_index((c, b, a, d, i, k), shape))

    def slot(want):
        at = np.searchsorted(out, want)
        return np.where(np.append(out, -1)[at] == want, at, len(out))

    codes, _ = _sorted_unique(np.sort(np.concatenate((out, *crossed(out)))))
    swap, cross = crossed(codes)
    return codes, slot(codes), slot(swap), slot(cross)


def _residual_coefficients(spec: ModuleSpec) -> tuple[np.ndarray, np.ndarray]:
    """(codes, R): the positions (a, b, c, d, i, k) the relation can see,
    in C order, and R[k, l, s], the coefficient of u^k v^l in the residual
    (u - v)(P[abcd] - Q[cdab]) - (P[cbad] - Q[cbad]) at codes[s], where
    P and Q are the products X(u) Y(v) and Y(v) X(u) of action_table.

    An entry is C[s](w) = sum_k C[k, s] w^k, so the products into one
    position add up to sum_{k,l} G[k, l] u^k v^l with G[k, l] = sum
    C[k, left] C[l, right], and with the factors swapped to G transposed.
    G and R run in int64 when 6 g c^2 < 2**63 (g the most products into
    one position, c the largest |coefficient|), which bounds every partial
    sum, and on Python integers otherwise.
    """
    import numpy as np

    n, dim = spec.n, spec.dim
    _, table = action_table(spec)
    support, rows = [], []
    for ab, entries in enumerate(itertools.chain.from_iterable(table)):
        for r, c, cs in entries:
            support.append((ab * dim + r) * dim + c)
            rows.append(cs)
    width = max(map(len, rows), default=1)
    # one row of coefficients per entry, padded, and the zero slot last
    rows = [(*cs, *(0,) * (width - len(cs))) for cs in rows]
    rows.append((0,) * width)
    left, right, starts, out = _support_products(
        np.array(support, dtype=np.intp), n, dim)
    codes, at_p, at_q, at_cross = _relation_slots(out, n, dim)

    big = max(map(abs, itertools.chain.from_iterable(rows)))
    group = int(np.diff(starts).max(initial=1))
    dtype = np.int64 if 6 * group * big * big < 2 ** 63 else object
    C = np.array(rows, dtype=dtype).T
    G = np.add.reduceat(np.take(C, left, axis=1)[:, None]
                        * np.take(C, right, axis=1)[None], starts, axis=2)
    Gt = G.transpose(1, 0, 2)
    lhs = np.take(G, at_p, axis=2) - np.take(Gt, at_q, axis=2)  # times u - v
    R = np.zeros((width + 1, width + 1, len(codes)), dtype=dtype)
    R[1:, :-1] += lhs
    R[:-1, 1:] -= lhs
    R[:-1, :-1] -= np.take(G, at_cross, axis=2)
    R[:-1, :-1] += np.take(Gt, at_cross, axis=2)
    return codes, R


def rtt_check(spec: ModuleSpec, samples: Optional[int] = None) -> RttReport:
    """Certify (u-v)[T_ij(u), T_kl(v)] = T_kj(u)T_il(v) - T_kj(v)T_il(u).

    The check reads action_table itself: its integer entries are
    den(w) * T(w), and both sides are linear in T(u) and in T(v), so that
    nonzero scale at each point leaves the relation unchanged.  Only the
    products of two supported entries can be nonzero, and each is bilinear
    in their coefficients, so they give the integer coefficient array R of
    the residual, (u - v) times the commutator minus the right side, at
    every position one of the four terms reaches (_residual_coefficients);
    at the others both sides are sums of zero products.  The relation holds
    exactly when R is zero, so a zero R proves it outright.

    samples sizes an integer grid, with more than 4m + 2 values per axis
    off the poles, on which agreement would also prove the relation (both
    sides have degree at most 4m + 2 in each variable); pairs counts that
    grid, which the identity covers, and no pair of it is evaluated.  A
    nonzero R raises RelationViolated at its first nonzero coefficient in
    C order, naming that coefficient's (i,j,k,l) and powers of u and v.
    """
    import numpy as np

    need = 4 * spec.m + 3
    if samples is None:
        samples = need * need
    if samples <= 2 * (4 * spec.m + 2):
        raise ValueError(f"need more than {2 * (4 * spec.m + 2)} samples")
    per_axis = max(need, isqrt(samples - 1) + 1)
    codes, R = _residual_coefficients(spec)
    if not R.any():
        return RttReport(spec, per_axis * per_axis, 4 * spec.m + 2, True)
    k, l, s = np.unravel_index(np.flatnonzero(R)[0], R.shape)
    bad = np.unravel_index(codes[s], (spec.n,) * 4 + (spec.dim,) * 2)
    a, b, c, d = (int(x) + 1 for x in bad[:4])
    raise RelationViolated(
        f"defining relation fails at (i,j,k,l)=({a},{b},{c},{d}),"
        f" coefficient of u^{k} v^{l} on {spec}")


# ----------------------------------------- product-form eigenvalue spectrum

# The characteristic polynomial and its split run on exact's Z[u][t] kernel:
# the table and the cleared candidate roots are integers, so elimination,
# root tests and deflation never touch Fraction or gcd reduction.

def _char_poly_in_t(entries: dict, den, dim: int) -> list[list[int]]:
    """det(t - A/den) up to a nonzero scalar, in Z[u][t], low t first.

    A is the dim x dim matrix over Z[u] whose nonzero entries are
    entries[r, c], and den is an integer polynomial, as in action_table.
    The matrix t*den - A has integer bivariate entries; fraction-free
    elimination divides exactly by the previous pivot at every step, and the
    final entry is the characteristic polynomial times den^dim.  The scalar
    moves no root in t, so it is kept.
    """
    dpoly = list(den)
    M = [[[[-x for x in entries.get((r, c), ())]]
          + ([dpoly] if r == c else []) for c in range(dim)]
         for r in range(dim)]
    prev = [[1]]
    for k in range(dim - 1):
        # no pivoting: M[k][k] is a leading minor of degree k+1 in t, never 0
        for r in range(k + 1, dim):
            for c in range(k + 1, dim):
                num = _it_sub(_it_mul(M[k][k], M[r][c]),
                              _it_mul(M[r][k], M[k][c]))
                M[r][c] = _it_div(num, prev)
        prev = M[k][k]
    return M[dim - 1][dim - 1]


def _primitive_pair(g: RatFun) -> tuple[list[int], list[int]]:
    """Integer (N, D) with g = N/D and no integer dividing all of N and D."""
    _, (num, den) = _cleared([g.num.coeffs, g.den.coeffs])
    content = gcd(*num, *den)
    return [x // content for x in num], [x // content for x in den]


@dataclass(frozen=True)
class EigenReport:
    spec: ModuleSpec
    dim: int
    spectrum: tuple  # ((subset_pos, subset_neg, multiplicity), ...)
    passed: bool


def eigen_candidates(spec: ModuleSpec) -> dict[RatFun, tuple]:
    """All product-form diagonal eigenvalue candidates, keyed by value."""
    pos = [a for a in range(spec.m) if spec.nu[a] >= 0]
    neg = [a for a in range(spec.m) if spec.nu[a] < 0]
    mu = spec.mu
    cands: dict[RatFun, tuple] = {}
    for ksub in range(len(pos) + 1):
        for I in itertools.combinations(pos, ksub):
            for lsub in range(len(neg) + 1):
                for J in itertools.combinations(neg, lsub):
                    zeros = [mu[a] - 1 for a in I] + [mu[a] for a in J]
                    poles = [mu[a] for a in I] + [mu[a] - 1 for a in J]
                    cands.setdefault(RatFun.from_roots(zeros, poles), (I, J))
    return cands


def _support_blocks(support, dim: int) -> list[list[int]]:
    """Connected components of a matrix's off-diagonal support, each sorted.

    support lists the (r, c, coefficients) of the nonzero entries of a
    dim x dim matrix; indices r != c are joined when (r, c) or (c, r) is
    among them.
    """
    link = [set() for _ in range(dim)]
    for r, c, _ in support:
        if r != c:
            link[r].add(c)
            link[c].add(r)
    seen, blocks = set(), []
    for start in range(dim):
        if start not in seen:
            block, todo = {start}, [start]
            while todo:
                for c in link[todo.pop()] - block:
                    block.add(c)
                    todo.append(c)
            seen |= block
            blocks.append(sorted(block))
    return blocks


def _split(char, pairs: list) -> tuple[list, int]:
    """Deflate char by each primitive candidate (N, D) of pairs in turn.

    Returns the (index in pairs, multiplicity) of every candidate that
    divides char, and the degree left when none divides it any more.
    """
    found = []
    for k, (N, D) in enumerate(pairs):
        mult = 0
        while len(char) > 1:
            quo = _it_deflate(char, N, D)
            if quo is None:
                break
            char, mult = quo, mult + 1
        if mult:
            found.append((k, mult))
    return found, len(char) - 1


def eigenform_check(spec: ModuleSpec) -> EigenReport:
    """Verify every T_ii(u) has spectrum drawn from the product-form list.

    Computes the characteristic polynomial of each diagonal generator matrix
    in Z[u][t] and deflates it by candidate roots
    g = prod_{a in I} (u-mu_a+1)/(u-mu_a) * prod_{a in J} (u-mu_a)/(u-mu_a+1);
    raises NoCandidateFactorization if any factor refuses to split.  With
    g = N/D cleared to integers and primitive, D*t - N is primitive in
    Z[u][t], so one synthetic division by it (exact._it_deflate) tells
    whether g is a root and, if so, gives the quotient: every step is exact
    integer arithmetic.

    The matrix is read in integers from action_table, over its
    denominator, and split first into the connected components of its
    off-diagonal support, read from the table itself.  Listing the basis
    block by block is a permutation similarity that makes the matrix block
    diagonal, so det(t - A) = prod_B det(t - A_B) exactly, each block's
    polynomial is taken of its principal submatrix, and by unique
    factorisation in Q(u)[t] a candidate's multiplicity in the whole is the
    sum of its multiplicities in the blocks.  The blocks are small because
    T_ii(u) keeps the gl_n weight, but the split does not rest on that.
    Blocks repeat, within one T_ii and across them, so within one call each
    distinct block (its size and entries) takes one elimination, and each
    distinct polynomial is split once and its multiplicities reused.
    """
    if spec.dim > 64:
        raise ValueError("spectrum check is limited to dimension <= 64")
    den, table = action_table(spec)
    cands = [(_primitive_pair(g), label) for g, label
             in sorted(eigen_candidates(spec).items(),
                       key=lambda kv: str(kv[0]))]
    pairs = [pair for pair, _ in cands]
    chars: dict = {}  # a block's size and entries -> its polynomial
    splits: dict = {}  # a block's polynomial -> _split of it
    spectra = []
    for i in range(spec.n):
        support = table[i][i]
        blocks = _support_blocks(support, spec.dim)
        home = {r: (b, k) for b, block in enumerate(blocks)
                for k, r in enumerate(block)}
        parts: list[dict] = [{} for _ in blocks]
        for r, c, cs in support:
            (b, k), (_, kc) = home[r], home[c]
            parts[b][k, kc] = cs
        mults, left = [0] * len(cands), 0
        for part, block in zip(parts, blocks):
            entries = (len(block), tuple(part.items()))
            char = chars.get(entries)
            if char is None:
                char = chars[entries] = tuple(map(tuple, _char_poly_in_t(
                    part, den, len(block))))
            split = splits.get(char)
            if split is None:
                split = splits[char] = _split(char, pairs)
            for k, mult in split[0]:
                mults[k] += mult
            left += split[1]
        if left:
            raise NoCandidateFactorization(
                f"T_{i + 1}{i + 1} spectrum does not split into product forms"
                f" (degree {left} left) on {spec}")
        spectra.append(tuple((I, J, mult) for (_, (I, J)), mult
                             in zip(cands, mults) if mult))
    if any(s != spectra[0] for s in spectra[1:]):
        raise NoCandidateFactorization(
            f"diagonal spectra differ between indices on {spec}")
    return EigenReport(spec, spec.dim, tuple(spectra), True)
