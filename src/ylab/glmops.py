"""Row operators on the Grassmann algebra and the rational operator series.

E_ab = sum_k x_{ak} d/dx_{bk} realizes gl_m on G_{mn}; the signed variant
EE_ab swaps the roles of multiplication and derivation in every row carrying
sign -1 and realizes gl_m again.  On top of these sit the rational series

    1 + sum_{r>=1} (-1)^r B^r A^r / (r! (w_a - w_b + 1)_r)

with (A, B) = (E_ab, E_ba) for kind X and (E_ba, E_ab) for kind Y; the series
truncates exactly at r = n because row degrees live in 0..n.  These maps are
materialized on fixed-weight subspaces in integers, as (d, d * matrix) with d
least, which is the form the intertwiner assembly consumes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, partial
from typing import Callable, Optional, Sequence

from .exact import _cleared
from .grassmann import Grassmann, GrassmannElt


class ForbiddenWeightDifference(ValueError):
    """w_a - w_b hit {-1, -2, ...}: a series denominator vanishes."""


def E_op(a: int, b: int, x: GrassmannElt) -> GrassmannElt:
    """Apply E_ab = sum_k x_{ak} d_{bk} to x: EE_op with every sign +1."""
    return EE_op((1,) * x.algebra.m, a, b, x)


def _check_signs(eps: Sequence[int], m: int) -> None:
    if len(eps) != m or any(e not in (1, -1) for e in eps):
        raise ValueError(f"sign vector {eps} is not a length-{m} choice of +-1")


def EE_op(eps: Sequence[int], a: int, b: int, x: GrassmannElt) -> GrassmannElt:
    """Signed variant: rows with eps = -1 trade multiplication for derivation.

    The summand for column i is q_{ai} p_{bi} where q is multiplication by
    x_{ai} when eps_a = +1 and the derivation d_{ai} when eps_a = -1, while
    p is d_{bi} when eps_b = +1 and multiplication by x_{bi} when eps_b = -1.
    Each summand is one two-step chain of the Grassmann kernel.
    """
    G = x.algebra
    _check_signs(eps, G.m)
    p_mul, q_mul = eps[b - 1] == -1, eps[a - 1] == 1
    return G.act(tuple(((1 << G.slot(b, i), p_mul), (1 << G.slot(a, i), q_mul))
                       for i in range(1, G.n + 1)), x)


def row_terms(b) -> list[list[tuple]]:
    """Each row of b as the list of its nonzero (column, entry) pairs."""
    return [[(c, y) for c, y in enumerate(row) if y] for row in b]


def terms_mul(a, b_terms, width: int) -> tuple[tuple, ...]:
    """The product a b, with b given by row_terms(b) and its width."""
    out = []
    for row in a:
        acc = [0] * width
        for x, terms in zip(row, b_terms):
            if x:
                for c, y in terms:
                    acc[c] += x * y
        out.append(tuple(acc))
    return tuple(out)


def mat_mul(a, b) -> tuple[tuple, ...]:
    """The product a b of row-sequence matrices of ints, Fractions or Polys.
    Zero terms are skipped; sums start from 0, so integers stay integers."""
    return terms_mul(a, row_terms(b), len(b[0]) if b else 0)


class LinearMap:
    """Dense rational matrix between two enumerated weight bases.

    matrix[r][c] is the coefficient of codomain basis vector r in the image
    of domain basis vector c, so vectors multiply on the right.  A map made
    in integers holds cleared = (d, d * matrix) with d least and builds
    matrix from it when it is first read.  Immutable by convention.
    """

    def __init__(self, domain, codomain, matrix=None, cleared=None):
        self.domain, self.codomain = domain, codomain
        if cleared is None:
            self.matrix = matrix
        else:
            self.cleared = cleared

    @cached_property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        d, rows = self.cleared
        return tuple(tuple(Fraction(x, d) for x in row) for row in rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, LinearMap) and (
            (self.domain, self.codomain, self.matrix)
            == (other.domain, other.codomain, other.matrix))

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.matrix), len(self.matrix[0]) if self.matrix else 0)

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other (matrix product self @ other)."""
        if other.codomain != self.domain:
            raise ValueError(
                f"cannot compose: inner weights {other.codomain} != {self.domain}")
        if self.shape[1] != other.shape[0]:
            raise ValueError("inner matrix dimensions disagree")
        return LinearMap(other.domain, self.codomain,
                         mat_mul(self.matrix, other.matrix))


def operator_matrix(G: Grassmann,
                    op: Callable[[GrassmannElt], GrassmannElt],
                    domain_nu: Sequence[int],
                    codomain_nu: Optional[Sequence[int]] = None) -> LinearMap:
    """Materialize op as a matrix between weight bases, in integers.

    op runs on each basis monomial with the coefficient 1, so an op made of
    Grassmann kernel steps stays in integers.  The codomain weight defaults
    to the domain weight.  An image term outside the codomain weight space
    raises, so weight bookkeeping errors surface instead of being dropped.
    """
    domain_nu = tuple(domain_nu)
    codomain_nu = domain_nu if codomain_nu is None else tuple(codomain_nu)
    dom = G.basis_of_weight(domain_nu)
    cod = G.basis_of_weight(codomain_nu)
    index = {mask: r for r, mask in enumerate(cod)}
    cols = []
    for mask in dom:
        col = [0] * len(cod)
        for mono, c in op(GrassmannElt(G, {mask: 1})).terms.items():
            if mono not in index:
                raise ValueError(
                    f"image monomial of weight {G.weight_of(mono)} escapes the "
                    f"declared codomain weight {codomain_nu}")
            col[index[mono]] = c
        cols.append(col)
    d, rows = _cleared(list(zip(*cols)))
    return LinearMap(domain_nu, codomain_nu,
                     cleared=(d, tuple(map(tuple, rows))))


def _spread(block, dims: Sequence[int], a: int, b: int) -> tuple[tuple, ...]:
    """block, a map on the product basis of rows a and b, on the product
    basis of all the rows (row 1 slowest, as in basis_of_weight) as the
    identity on the others."""
    size, da, db = math.prod(dims), dims[a - 1], dims[b - 1]
    sa, sb = math.prod(dims[a:]), math.prod(dims[b:])  # rows a, b's strides
    terms = row_terms(block)
    rows = [[0] * size for _ in range(size)]
    for pos, row in enumerate(rows):
        ka, kb = pos // sa % da, pos // sb % db
        base = pos - ka * sa - kb * sb  # the other rows' part of pos
        for c, x in terms[ka * db + kb]:
            row[base + c // db * sa + c % db * sb] = x
    return tuple(map(tuple, rows))


def XY_op(G: Grassmann, kind: str, w: Sequence, a: int, b: int,
          nu: Sequence[int], eps: Optional[Sequence[int]] = None) -> LinearMap:
    """The rational series operator of kind 'X' or 'Y' on the weight-nu space.

    kind X uses (A, B) = (E_ab, E_ba): each term lowers then restores row
    degrees, so the map preserves the weight-nu subspace; kind Y swaps the
    roles.  The row operator is E_op, or EE_op with the signs eps when they
    are given.  Requires w_a - w_b not to be a negative integer (series
    denominators (w_a - w_b + 1)_r must not vanish).

    The series acts on rows a and b alone: it is built on G_{2n} at the
    weight (nu_a, nu_b) with the signs (eps_a, eps_b), then spread as the
    identity on the other m - 2 rows.  Their signs cancel: slots are
    row-major, a step negates once per occupied slot below it, and the
    other rows never change, so each step in row a (or b) meets the same
    count of their slots; B^r A^r makes 2r steps in each row.

    It is built in integers: with c = w_a - w_b = p / q, the coefficient of
    B^r A^r is c_r = (-q)^r / (r! prod_{k<=r} (p + k q)); den = |n!
    prod_{k<=n} (p + k q)| clears them all, k_r = den c_r, and den over its
    gcd with the entries of den + sum_r k_r B^r A^r is the least
    denominator.  The series runs once, in Horner form
    den x + B(k_1 A x + B(k_2 A^2 x + ...)), at most 2n row-operator calls,
    on x the sum of all the two-row basis monomials, each with its column
    index in the bits above the 2n slots: no step touches those bits, and a
    step's sign counts only the set bits below its own slot.
    """
    if not (1 <= a < b <= G.m):
        raise ValueError(f"need 1 <= a < b <= m, got ({a}, {b})")
    if kind not in ("X", "Y"):
        raise ValueError(f"kind must be 'X' or 'Y', got {kind!r}")
    c = Fraction(w[a - 1]) - Fraction(w[b - 1])
    if c.denominator == 1 and c < 0:
        raise ForbiddenWeightDifference(
            f"w_{a} - w_{b} = {c} is a negative integer")
    nu = tuple(nu)
    G.check_weight(nu)
    if eps is None:
        row = E_op
    else:
        _check_signs(eps, G.m)
        row = partial(EE_op, (eps[a - 1], eps[b - 1]))
    i, j = (1, 2) if kind == "X" else (2, 1)  # A = E_ij, B = E_ji on G_{2n}

    p, q = c.numerator, c.denominator
    dens = [r * (p + r * q) for r in range(1, G.n + 1)]
    den = abs(math.prod(dens))
    scaled = [(-q) ** r * den // math.prod(dens[:r])
              for r in range(1, G.n + 1)]

    G2, shift = Grassmann(2, G.n), 2 * G.n
    basis = G2.basis_of_weight((nu[a - 1], nu[b - 1]))
    powers = [GrassmannElt(G2, {mono | col << shift: 1
                                for col, mono in enumerate(basis)})]
    for _ in scaled:  # powers[r] = A^r x
        arx = row(i, j, powers[-1])
        if arx.is_zero():
            break
        powers.append(arx)
    acc: dict = {}  # B (k_r A^r x + B (...)), from the deepest term out
    for r in range(len(powers) - 1, 0, -1):
        for key, v in powers[r].terms.items():
            acc[key] = acc.get(key, 0) + scaled[r - 1] * v
        acc = row(j, i, GrassmannElt(G2, acc)).terms
    g = math.gcd(den, *acc.values())
    index = {mono: r for r, mono in enumerate(basis)}
    block = [[den // g * (r == col) for col in range(len(basis))]
             for r in range(len(basis))]
    low = (1 << shift) - 1
    for key, v in acc.items():
        block[index[key & low]][key >> shift] += v // g
    dims = [math.comb(G.n, k) for k in nu]
    return LinearMap(nu, nu, cleared=(den // g, _spread(block, dims, a, b)))
