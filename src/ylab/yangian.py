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
where the API returns them.  Verification routines either stay symbolic or
sample on integer grids large enough that agreement is an exact
degree-bound certificate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, isqrt
from typing import Optional, Sequence

import numpy as np

from .exact import ONE, ZERO, Poly, RatFun, _cleared, linear, q
from .grassmann import perm_apply


class NotEigenvector(ArithmeticError):
    """The distinguished vector failed an eigen identity: implementation bug."""


class RelationViolated(ArithmeticError):
    """A defining-relation sample came out unequal."""


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


# ------------------------------------------------------ integer polynomials

# Polynomials in u with integer coefficients are plain int sequences, lowest
# degree first with no trailing zeros; the empty sequence is zero.

def _iu_trim(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def _iu_mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _iu_trim(out)


def _iu_add(a: list[int], b: list[int]) -> list[int]:
    pairs = itertools.zip_longest(a, b, fillvalue=0)
    return _iu_trim([x + y for x, y in pairs])


def _iu_sub(a: list[int], b: list[int]) -> list[int]:
    pairs = itertools.zip_longest(a, b, fillvalue=0)
    return _iu_trim([x - y for x, y in pairs])


# ------------------------------------------------- one exterior-power factor

def wedge_basis(n: int, k: int) -> list[tuple[int, ...]]:
    """Strictly increasing k-tuples from 1..n in lexicographic order."""
    return list(itertools.combinations(range(1, n + 1), k))


def _wedge_moves(n: int, k: int, i: int, j: int
                 ) -> list[tuple[int, int, int]]:
    """The nonzero entries (row, col, +-1) of the gl_n unit E_ij on the
    wedge basis of Lambda^k(C^n)."""
    basis = wedge_basis(n, k)
    if i == j:
        return [(c, c, 1) for c, tup in enumerate(basis) if i in tup]
    pos = {t: r for r, t in enumerate(basis)}
    moves = []
    for c, tup in enumerate(basis):
        if j not in tup or i in tup:
            continue
        p = tup.index(j)
        rest = tup[:p] + tup[p + 1:]
        p2 = sum(1 for x in rest if x < i)
        moves.append((pos[tuple(sorted(rest + (i,)))], c, (-1) ** (p + p2)))
    return moves


@lru_cache(maxsize=None)
def _factor_table(n: int, d: int, z: Fraction) -> tuple[tuple, tuple]:
    """One factor's generator matrices in integers, on their nonzero support.

    Returns (den, table).  With z = a/b in lowest terms, den is b*u - a
    (d > 0), b*u - a + b (d < 0) or 1 (d = 0), and table[i-1][j-1] lists
    (r, c, coefficients) for the nonzero entries of den * T_ij(u), in C
    order: den on the diagonal of T_ii, plus b times the moves of E_ij
    (d > 0) or of -E_ji (d < 0).  Lambda^0 has no moves, so d = 0 is the
    identity over 1.
    """
    a, b = z.numerator, z.denominator
    den = (1,) if d == 0 else (-a, b) if d > 0 else (b - a, b)
    size = comb(n, abs(d))
    table = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            entries = {(r, r): den for r in range(size)} if i == j else {}
            moves = (_wedge_moves(n, d, i, j) if d > 0
                     else [(r, c, -s) for r, c, s
                           in _wedge_moves(n, -d, j, i)])
            for r, c, s in moves:
                entries[r, c] = tuple(_iu_add(entries.get((r, c), ()),
                                              [s * b]))
            row.append(tuple((r, c, cs)
                             for (r, c), cs in sorted(entries.items())))
        table.append(tuple(row))
    return den, tuple(table)


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
    integer polynomials.  Only products of two supported entries are formed,
    and a sum that cancels leaves the support.
    """
    n = len(left)
    table = []
    for i in range(n):
        row = []
        for j in range(n):
            acc: dict = {}
            for k in range(n):
                for r1, c1, x in left[i][k]:
                    r1, c1 = r1 * size, c1 * size
                    for r2, c2, y in right[k][j]:
                        key = (r1 + r2, c1 + c2)
                        p = _iu_mul(x, y)
                        acc[key] = _iu_add(acc[key], p) if key in acc else p
            row.append(tuple((r, c, tuple(cs))
                             for (r, c), cs in sorted(acc.items()) if cs))
        table.append(tuple(row))
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

    @property
    def dim(self) -> int:
        return len(self.coords)


def highest_factor_tuple(n: int, d: int) -> tuple[int, ...]:
    """Wedge indices of the distinguished vector of one factor."""
    if d >= 0:
        return tuple(range(1, d + 1))
    return tuple(range(n + d + 1, n + 1))


def highest_vector(spec: ModuleSpec) -> HighestVector:
    idx = 0
    for a in range(spec.m):
        basis = wedge_basis(spec.n, abs(spec.nu[a]))
        pos = basis.index(highest_factor_tuple(spec.n, spec.nu[a]))
        idx = idx * len(basis) + pos
    coords = tuple(Fraction(1) if r == idx else Fraction(0)
                   for r in range(spec.dim))
    return HighestVector(coords, idx)


# ---------------------------------------------------------- eigenvalue series

def eigen_closed(spec: ModuleSpec, i: int) -> RatFun:
    """Closed product form of the i-th diagonal eigenvalue on the vector."""
    num, den = ONE, ONE
    for z, d in zip(spec.mu, spec.nu):
        if d >= i:
            num, den = num * linear(z - 1), den * linear(z)
        if d < i - spec.n:
            num, den = num * linear(z), den * linear(z - 1)
    return RatFun(num, den)


def eigen_series(spec: ModuleSpec, i: int) -> RatFun:
    """Eigenvalue of T_ii(u) on the distinguished vector, fully cross-checked.

    Asserts the vector is annihilated by every strictly-upper T_ij(u), is an
    actual eigenvector of T_ii(u), and that the eigenvalue agrees with the
    closed product form; any mismatch raises NotEigenvector.
    """
    den, table = action_table(spec)
    col = highest_vector(spec).index
    value = RatFun(ZERO)
    for r, c, cs in table[i - 1][i - 1]:
        if c == col and r != col:
            raise NotEigenvector(
                f"T_{i}{i} maps the distinguished vector off itself (row {r})")
        if (r, c) == (col, col):
            value = RatFun(Poly(cs), Poly(den))
    for j in range(i + 1, spec.n + 1):
        if any(c == col for _, c, _ in table[i - 1][j - 1]):
            raise NotEigenvector(
                f"T_{i}{j} does not annihilate the distinguished vector")
    closed = eigen_closed(spec, i)
    if value != closed:
        raise NotEigenvector(
            f"eigenvalue {value} differs from closed form {closed}")
    return value


# --------------------------------------------------- sampled relation check

def _integer_samples(count: int, forbidden: set[Fraction], start: int,
                     step: int) -> list[int]:
    out = []
    t = start
    while len(out) < count:
        if Fraction(t) not in forbidden:
            out.append(t)
        t += step
    return out


# Grid values, pairs times tested positions, that rtt_check evaluates at once.
_GRID_BLOCK = 1 << 15


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
    n, dim = spec.n, spec.dim
    _, table = action_table(spec)
    entries = [(((i * n + j) * dim + r) * dim + c, cs)
               for i in range(n) for j in range(n)
               for r, c, cs in table[i][j]]
    support = np.array([e[0] for e in entries], dtype=np.intp)
    width = max((len(e[1]) for e in entries), default=1)
    left, right, starts, out = _support_products(support, n, dim)
    codes, at_p, at_q, at_cross = _relation_slots(out, n, dim)

    big = max((abs(x) for _, cs in entries for x in cs), default=0)
    group = int(np.diff(starts).max(initial=1))
    dtype = np.int64 if 6 * group * big * big < 2 ** 63 else object
    C = np.array([list(cs) + [0] * (width - len(cs))
                  for _, cs in entries] + [[0] * width], dtype=dtype).T
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

    Both sides, cleared of all denominators, are bivariate polynomials of
    degree at most 4m + 2 in each variable, so agreement on an integer grid
    with more than 4m + 2 distinct values per axis (off the poles) is an
    exact proof.  The check reads action_table itself: its integer entries
    are den(w) * T(w), and both sides are linear in T(u) and in T(v), so
    that nonzero scale at each point leaves the relation unchanged.

    Only the products that can be nonzero are formed.  The support is read
    from the table: an entry outside it is the zero polynomial, and every
    product that leaves it out is zero.  Each product of two supported
    entries is bilinear in their coefficients, so the products give, once
    per call, the integer coefficient array R of the residual, (u - v)
    times the commutator minus the right side, at every position one of
    the four terms reaches (_residual_coefficients); at the others both
    sides are sums of zero products.  Vandermonde matrix products
    evaluate R at every grid pair, and every value is tested.  They take
    the grid in blocks of at most _GRID_BLOCK values, so the working set
    does not grow with samples, and run in int64 only when
    max|R| sum_k |u|^k sum_l |v|^l < 2**63, which bounds every partial
    sum.  The support is small because T_ab(u) moves the gl_n weight by
    e_a - e_b, but the check does not rest on that.
    Raises RelationViolated at the first failing (u, v) in row-major
    order, naming the first failing (i,j,k,l) in lexicographic order.
    """
    need = 4 * spec.m + 3
    if samples is None:
        samples = need * need
    if samples <= 2 * (4 * spec.m + 2):
        raise ValueError(f"need more than {2 * (4 * spec.m + 2)} samples")
    per_axis = max(need, isqrt(samples - 1) + 1)
    poles = {z for z in spec.mu} | {z - 1 for z in spec.mu}
    us = _integer_samples(per_axis, poles, 1, 1)
    vs = _integer_samples(per_axis, poles, -1, -1)

    codes, R = _residual_coefficients(spec)
    degrees = range(len(R))

    def reach(ws: list[int]) -> int:
        return sum(max(map(abs, ws)) ** k for k in degrees)

    peak = max(int(R.max(initial=0)), -int(R.min(initial=0)), 1)
    dtype = np.int64 if peak * reach(us) * reach(vs) < 2 ** 63 else object
    by_u = R.reshape(len(degrees), -1).astype(dtype, copy=False)

    # powers_u[i, k] = us[i] ** k, and likewise for vs
    powers_u, powers_v = (np.array([[w ** k for k in degrees] for w in ws],
                                   dtype=dtype) for ws in (us, vs))

    # Blocks are whole rows or, when a row is larger than _GRID_BLOCK
    # (then rows is 1), pieces of one row, taken in row-major order, so
    # the first failing block holds the first failing pair.  codes is
    # empty only for a table with no nonzero entry (a corrupted one).
    size = max(len(codes), 1)
    cols = min(len(vs), max(1, _GRID_BLOCK // size))
    rows = max(1, _GRID_BLOCK // (size * cols))
    for top in range(0, len(us), rows):
        block_u = us[top:top + rows]
        # partial[i, l, s]: the coefficient of v^l at (block_u[i], codes[s])
        partial = (powers_u[top:top + rows] @ by_u).reshape(
            len(block_u), len(degrees), len(codes))
        for first in range(0, len(vs), cols):
            block_v = vs[first:first + cols]
            # residual[i, j, s] at (block_u[i], block_v[j]) on codes[s]
            residual = powers_v[first:first + cols] @ partial
            failing = residual.any(axis=2)
            if failing.any():
                i, j = divmod(int(np.flatnonzero(failing)[0]), len(block_v))
                at = np.flatnonzero(residual[i, j])[0]
                bad = np.unravel_index(codes[at], (spec.n,) * 4
                                       + (spec.dim,) * 2)
                a, b, c, d = (int(x) + 1 for x in bad[:4])
                raise RelationViolated(
                    f"defining relation fails at (i,j,k,l)=({a},{b},{c},{d}),"
                    f" u={block_u[i]}, v={block_v[j]} on {spec}")
    return RttReport(spec, len(us) * len(vs), 4 * spec.m + 2, True)


# ----------------------------------------- product-form eigenvalue spectrum

# Bivariate polynomials for the characteristic polynomial and its split:
# u-polynomials are integer lists as above and t-polynomials are lists of
# those.  The table is in integers already and the candidate roots are
# cleared to integers up front, so elimination, root tests and deflation
# never touch Fraction or gcd reduction.

def _iu_div(a: list[int], b: list[int]) -> list[int]:
    """Exact division in Z[u]; the quotient is promised to be integral."""
    if not a:
        return []
    rem = list(a)
    out = [0] * (len(a) - len(b) + 1)
    lead = b[-1]
    for k in range(len(out) - 1, -1, -1):
        c, frac = divmod(rem[k + len(b) - 1], lead)
        if frac:
            raise ArithmeticError("inexact division in characteristic"
                                  " polynomial")
        out[k] = c
        if c:
            for i, y in enumerate(b):
                rem[k + i] -= c * y
    if any(rem[: len(b) - 1]):
        raise ArithmeticError("inexact division in characteristic polynomial")
    return _iu_trim(out)


def _it_mul(a, b):
    out = [[] for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = _iu_add(out[i + j], _iu_mul(x, y))
    return out


def _it_sub(a, b):
    size = max(len(a), len(b))
    out = [_iu_sub(a[i] if i < len(a) else [], b[i] if i < len(b) else [])
           for i in range(size)]
    while len(out) > 1 and not out[-1]:
        out.pop()
    return out


def _it_div(a, b):
    """Exact division of t-polynomials with Z[u] coefficients."""
    if not any(a):
        return [[]]
    if len(b) == 1:
        return [_iu_div(x, b[0]) if x else [] for x in a]
    a = list(a)
    out = [[] for _ in range(len(a) - len(b) + 1)]
    for k in range(len(out) - 1, -1, -1):
        c = _iu_div(a[k + len(b) - 1], b[-1])
        out[k] = c
        if c:
            for i, y in enumerate(b):
                a[k + i] = _iu_sub(a[k + i], _iu_mul(c, y))
    if any(a[i] for i in range(len(b) - 1)):
        raise ArithmeticError("inexact division in characteristic polynomial")
    return out


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
    cands: dict[RatFun, tuple] = {}
    for ksub in range(len(pos) + 1):
        for I in itertools.combinations(pos, ksub):
            gi_num, gi_den = ONE, ONE
            for a in I:
                gi_num, gi_den = gi_num * linear(spec.mu[a] - 1), gi_den * linear(spec.mu[a])
            for lsub in range(len(neg) + 1):
                for J in itertools.combinations(neg, lsub):
                    num, den = gi_num, gi_den
                    for a in J:
                        num, den = num * linear(spec.mu[a]), den * linear(spec.mu[a] - 1)
                    g = RatFun(num, den)
                    cands.setdefault(g, (I, J))
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


def eigenform_check(spec: ModuleSpec) -> EigenReport:
    """Verify every T_ii(u) has spectrum drawn from the product-form list.

    Computes the characteristic polynomial of each diagonal generator matrix
    in Z[u][t] and deflates it by candidate roots
    g = prod_{a in I} (u-mu_a+1)/(u-mu_a) * prod_{a in J} (u-mu_a)/(u-mu_a+1);
    raises NoCandidateFactorization if any factor refuses to split.  With
    g = N/D cleared to integers and primitive, g is a root of the degree-d
    polynomial sum c_k t^k exactly when sum c_k N^k D^(d-k) = 0 in Z[u], and
    D*t - N is then primitive in Z[u][t], so by Gauss's lemma it divides the
    polynomial there (von zur Gathen and Gerhard, Modern Computer Algebra,
    ch. 6): every step is exact integer arithmetic.

    The matrix is read in integers from action_table, over its
    denominator, and split first into the connected components of its
    off-diagonal support, read from the table itself.  Listing the basis
    block by block is a permutation similarity that makes the matrix block
    diagonal, so det(t - A) = prod_B det(t - A_B) exactly, each block's
    polynomial is taken of its principal submatrix, and by unique
    factorisation in Q(u)[t] a candidate's multiplicity in the whole is the
    sum of its multiplicities in the blocks.  The blocks are small because
    T_ii(u) keeps the gl_n weight, but the split does not rest on that.
    """
    if spec.dim > 64:
        raise ValueError("spectrum check is limited to dimension <= 64")
    den, table = action_table(spec)
    cands = [(_primitive_pair(g), label) for g, label
             in sorted(eigen_candidates(spec).items(),
                       key=lambda kv: str(kv[0]))]
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
        chars = [_char_poly_in_t(part, den, len(block))
                 for part, block in zip(parts, blocks)]
        counts = []
        for (N, D), label in cands:
            mult = 0
            for b, char in enumerate(chars):
                while len(char) > 1:
                    val, dpow = char[-1], [1]
                    for c in reversed(char[:-1]):
                        dpow = _iu_mul(dpow, D)
                        val = _iu_add(_iu_mul(val, N), _iu_mul(c, dpow))
                    if val:
                        break
                    char = _it_div(char, [[-x for x in N], D])
                    mult += 1
                chars[b] = char
            if mult:
                counts.append((label[0], label[1], mult))
        left = sum(len(char) - 1 for char in chars)
        if left:
            raise NoCandidateFactorization(
                f"T_{i + 1}{i + 1} spectrum does not split into product forms"
                f" (degree {left} left) on {spec}")
        spectra.append(tuple(counts))
    if any(s != spectra[0] for s in spectra[1:]):
        raise NoCandidateFactorization(
            f"diagonal spectra differ between indices on {spec}")
    return EigenReport(spec, spec.dim, tuple(spectra), True)
