"""Grassmann algebra on an m x n grid of anticommuting variables x_{ai}.

Rows a = 1..m index tensor factors, columns i = 1..n index the underlying
vector space.  A monomial is a subset of the m*n variables in a fixed
canonical order, stored as a bitset: variable x_{ai} sits at

    slot(a, i) = (a - 1) * n + (i - 1)

i.e. row-major, all of row 1 first.  With that order the basis
correspondence between a tensor product of exterior-power basis vectors and
a product of row blocks carries coefficient +1, so no sign bookkeeping leaks
into the encoding.  All signs reduce to popcounts of masked bit prefixes.

Elements are sparse maps {monomial bitset: rational coefficient}.  An int
coefficient stays an int, so work that starts from integer coefficients
stays in integers.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from typing import Iterable, Mapping, Sequence

from .exact import Scalar, q_str


class DimensionMismatch(ValueError):
    """Operands live in Grassmann algebras of different (m, n)."""


# -- permutations of row indices (1-based one-line notation) -----------------

def perm_identity(m: int) -> tuple[int, ...]:
    return tuple(range(1, m + 1))


def perm_compose(s: Sequence[int], t: Sequence[int]) -> tuple[int, ...]:
    """(s ∘ t)(a) = s(t(a))."""
    return tuple(s[t[a] - 1] for a in range(len(t)))


def perm_inverse(s: Sequence[int]) -> tuple[int, ...]:
    out = [0] * len(s)
    for a, b in enumerate(s, start=1):
        out[b - 1] = a
    return tuple(out)


def perm_longest(m: int) -> tuple[int, ...]:
    """The order-reversing permutation a |-> m + 1 - a."""
    return tuple(range(m, 0, -1))


def perm_transposition(m: int, a: int) -> tuple[int, ...]:
    """Adjacent transposition swapping a and a+1."""
    if not 1 <= a < m:
        raise ValueError(f"adjacent transposition index {a} out of range")
    out = list(range(1, m + 1))
    out[a - 1], out[a] = out[a], out[a - 1]
    return tuple(out)


def perm_apply(s: Sequence[int], values: Sequence) -> tuple:
    """Reindex values so entry a of the result is values[s^{-1}(a)].

    This is the usual action on coordinate tuples: the weight at position
    s(a) of the result equals the weight at position a of the input.
    """
    inv = perm_inverse(s)
    return tuple(values[inv[a] - 1] for a in range(len(s)))


# -- monomial-level sign kernels ---------------------------------------------

def _mul_sign_exp(x: int, y: int) -> int:
    """Number of inversions when concatenating slot sequences of x then y."""
    count = 0
    yy = y
    while yy:
        s = (yy & -yy).bit_length() - 1
        count += (x >> (s + 1)).bit_count()
        yy &= yy - 1
    return count


class GrassmannElt:
    """Sparse element of G_{mn}; immutable by convention."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: "Grassmann", terms: Mapping[int, Scalar]):
        self.algebra = algebra
        self.terms = {mono: c if type(c) in (int, Fraction) else Fraction(c)
                      for mono, c in terms.items() if c != 0}

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, GrassmannElt):
            return NotImplemented
        return self.algebra.shape == other.algebra.shape and self.terms == other.terms

    def __hash__(self):
        return hash((self.algebra.shape, tuple(sorted(self.terms.items()))))

    def __add__(self, other: "GrassmannElt") -> "GrassmannElt":
        self.algebra._check_same(other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = out.get(mono, Fraction(0)) + c
        return GrassmannElt(self.algebra, out)

    def __sub__(self, other: "GrassmannElt") -> "GrassmannElt":
        return self + (-other)

    def __neg__(self) -> "GrassmannElt":
        return GrassmannElt(self.algebra, {m: -c for m, c in self.terms.items()})

    def scale(self, c: Scalar) -> "GrassmannElt":
        c = Fraction(c)
        return GrassmannElt(self.algebra, {m: c * v for m, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if isinstance(other, GrassmannElt):
            return self.algebra.mul(self, other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __repr__(self) -> str:
        if not self.terms:
            return "GrassmannElt(0)"
        bits = []
        for mono in sorted(self.terms):
            vars_ = "".join(f"x{a}{i}" for a, i in self.algebra.slots_of(mono))
            bits.append(f"{q_str(self.terms[mono])}*{vars_ or '1'}")
        return "GrassmannElt(" + " + ".join(bits) + ")"


class Grassmann:
    """The algebra G_{mn} itself: a factory and operation table."""

    __slots__ = ("m", "n")

    def __init__(self, m: int, n: int):
        if m < 1 or n < 0:
            raise ValueError("need m >= 1 rows and n >= 0 columns")
        self.m = m
        self.n = n

    @property
    def shape(self) -> tuple[int, int]:
        return (self.m, self.n)

    def _check_same(self, other) -> None:
        alg = other.algebra if isinstance(other, GrassmannElt) else other
        if alg.shape != self.shape:
            raise DimensionMismatch(
                f"operands from G_{alg.shape} and G_{self.shape}")

    # -- monomial plumbing ----------------------------------------------------

    def slot(self, a: int, i: int) -> int:
        if not (1 <= a <= self.m and 1 <= i <= self.n):
            raise ValueError(f"variable x_{a}{i} outside the {self.m}x{self.n} grid")
        return (a - 1) * self.n + (i - 1)

    def slots_of(self, mono: int) -> list[tuple[int, int]]:
        out = []
        while mono:
            s = (mono & -mono).bit_length() - 1
            out.append((s // self.n + 1, s % self.n + 1))
            mono &= mono - 1
        return out

    def weight_of(self, mono: int) -> tuple[int, ...]:
        """Row degree vector of a monomial."""
        full = (1 << self.n) - 1
        return tuple(((mono >> ((a - 1) * self.n)) & full).bit_count()
                     for a in range(1, self.m + 1))

    # -- element constructors --------------------------------------------------

    def zero(self) -> GrassmannElt:
        return GrassmannElt(self, {})

    def unit(self) -> GrassmannElt:
        return GrassmannElt(self, {0: Fraction(1)})

    def var(self, a: int, i: int) -> GrassmannElt:
        return GrassmannElt(self, {1 << self.slot(a, i): Fraction(1)})

    def monomial(self, slots: Iterable[tuple[int, int]]) -> GrassmannElt:
        """The canonical monomial on a set of (a, i) variables, coefficient +1."""
        mask = 0
        for a, i in slots:
            bit = 1 << self.slot(a, i)
            if mask & bit:
                return self.zero()
            mask |= bit
        return GrassmannElt(self, {mask: Fraction(1)})

    # -- core operations --------------------------------------------------------

    def mul(self, x: GrassmannElt, y: GrassmannElt) -> GrassmannElt:
        self._check_same(x)
        self._check_same(y)
        out: dict[int, Fraction] = {}
        for mx, cx in x.terms.items():
            for my, cy in y.terms.items():
                if mx & my:
                    continue
                c = cx * cy
                if _mul_sign_exp(mx, my) & 1:
                    c = -c
                mono = mx | my
                acc = out.get(mono, Fraction(0)) + c
                if acc:
                    out[mono] = acc
                elif mono in out:
                    del out[mono]
        return GrassmannElt(self, out)

    def _run_chains(self, runs: Iterable[tuple]) -> GrassmannElt:
        """The sum of c * chain(mono) over the runs (mono, c, chain).

        A chain applies its steps first to last.  The step (bit, multiply)
        left-multiplies or left-derives by the variable at bit, which passes
        the set bits below it, so the step negates when they are odd in
        number.  A multiply by a present variable or a derive by an absent
        one kills the run.
        """
        out: dict[int, Fraction] = {}
        for mono, c, chain in runs:
            for bit, multiply in chain:
                if bool(mono & bit) == multiply:
                    break
                if (mono & (bit - 1)).bit_count() & 1:
                    c = -c
                mono ^= bit
            else:
                out[mono] = out.get(mono, 0) + c
        return GrassmannElt(self, out)

    def act(self, chains: Sequence[Sequence[tuple[int, bool]]],
            x: GrassmannElt) -> GrassmannElt:
        """The sum over the chains of each chain applied to x."""
        self._check_same(x)
        return self._run_chains((mono, c, chain) for mono, c in x.terms.items()
                                for chain in chains)

    def substitute(self, steps: Sequence[tuple[int, bool]], base: int,
                   x: GrassmannElt) -> GrassmannElt:
        """Send each monomial x_{t1}...x_{tk} of x to s_{t1}(...s_{tk}(base)),
        where s_t = steps[t] and base is a monomial bitset."""
        self._check_same(x)
        return self._run_chains(
            (base, c, [steps[t] for t in reversed(range(mono.bit_length()))
                       if mono >> t & 1]) for mono, c in x.terms.items())

    # -- weight bases and the tensor-basis correspondence -----------------------

    def check_weight(self, nu: Sequence[int]) -> None:
        """Raise unless nu is a row-degree vector of this algebra."""
        if len(nu) != self.m:
            raise DimensionMismatch(f"weight length {len(nu)} != m = {self.m}")
        if any(d < 0 or d > self.n for d in nu):
            raise ValueError(f"row degrees {nu} outside 0..{self.n}")

    def basis_of_weight(self, nu: Sequence[int]) -> list[int]:
        """All monomials with the given row degrees, lexicographic in slots."""
        self.check_weight(nu)
        row_choices = []
        for a, d in enumerate(nu, start=1):
            base = (a - 1) * self.n
            masks = []
            for cols in combinations(range(self.n), d):
                mask = 0
                for j in cols:
                    mask |= 1 << (base + j)
                masks.append(mask)
            row_choices.append(masks)
        out = []
        for pick in product(*row_choices):
            mono = 0
            for mask in pick:
                mono |= mask
            out.append(mono)
        return out
