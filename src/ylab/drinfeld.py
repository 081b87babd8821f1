"""Highest-weight classification data, its solver, and module realization.

Every irreducible finite-dimensional module is pinned down by n - 1 monic
polynomials together with the diagonal series A_n(u), and A_n itself is a
shift quotient Q_n(u+1)/Q_n(u) exactly when the module is polynomial (Q_n a
monic polynomial) or rational (Q_n a ratio of coprime monic polynomials).
This module solves the shift-quotient equation by telescoping along integer
root chains, extracts the data of a standard module two independent ways,
realizes data as a standard module with a dominant ordering, and performs
the minimal pair reduction.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .exact import ONE, Poly, RatFun, factor_linear, poly_gcd, q
from .intertwiner import check_dominant
from .yangian import ModuleSpec, eigen_roots


class NoSolution(ValueError):
    """No shift quotient of the requested kind produces the given function."""


class CommonZeroes(ValueError):
    """The numerator and denominator data share a root."""


# ----------------------------------------------------------------- data type

@dataclass(frozen=True)
class DrinfeldData:
    """Classification data: n-1 monic polynomials and a coprime monic ratio."""

    P: tuple[Poly, ...]
    Qn_num: Poly
    Qn_den: Poly

    def __post_init__(self):
        object.__setattr__(self, "P", tuple(self.P))
        for p in self.P:
            if not p.is_monic():
                raise ValueError("every classification polynomial is monic")
        if not (self.Qn_num.is_monic() and self.Qn_den.is_monic()):
            raise ValueError("the shift-quotient pair must be monic")
        if poly_gcd(self.Qn_num, self.Qn_den) != ONE:
            raise ValueError("the shift-quotient pair must be coprime")

    @property
    def n(self) -> int:
        return len(self.P) + 1


def classify_kind(data: DrinfeldData) -> str:
    """'polynomial' when the shift quotient needs no denominator."""
    return "polynomial" if data.Qn_den == ONE else "rational"


# -------------------------------------------------------- telescoping solver

def _telescope(zeros, poles, mode: str) -> tuple[list, list]:
    """Sorted zeros and poles of the unique monic Q, of the requested kind,
    with Q(u+1)/Q(u) = prod (u - z) over zeros / prod (u - p) over poles.

    Roots are grouped into chains by their integer-translation coset (first
    seen among the sorted net zeros, then poles).  Q's exponent at a chain
    position w is minus the sum of the chain's exponents at positions >= w,
    so it changes only at the chain's roots: the walk steps over them, top
    down, and emits a stretch of roots only where that exponent is nonzero.
    A chain whose exponents do not sum to zero, or a negative exponent in
    polynomial mode, means there is no Q of the requested kind.
    """
    expo = Counter(zeros)
    expo.subtract(poles)
    chains: dict[Fraction, dict[Fraction, int]] = {}
    for z in sorted(expo, key=lambda z: (expo[z] < 0, z)):
        if expo[z]:
            chains.setdefault(z - math.floor(z), {})[z] = expo[z]

    num_roots: list[Fraction] = []
    den_roots: list[Fraction] = []
    for chain in chains.values():
        keys = sorted(chain, reverse=True)
        exponent = 0
        for w, below in zip(keys, keys[1:]):
            exponent -= chain[w]
            if exponent:  # Q's exponent at w, w - 1, ..., below + 1
                roots = num_roots if exponent > 0 else den_roots
                for k in range(int(w - below)):
                    roots.extend([w - k] * abs(exponent))
        exponent -= chain[keys[-1]]
        if exponent != 0:
            raise NoSolution(
                f"chain through {keys[0]} does not telescope"
                f" (residue {exponent})")
    if mode == "polynomial" and den_roots:
        raise NoSolution(
            "a negative exponent forces a denominator; the function is "
            "not a polynomial shift quotient")
    return sorted(num_roots), sorted(den_roots)


def solve_shift_quotient(ratfun: RatFun, mode: str):
    """The unique monic Q with Q(u+1)/Q(u) equal to the given function.

    mode 'polynomial' returns Q as a Poly; mode 'rational' returns a coprime
    monic (numerator, denominator) pair.  The function's roots are found by
    factor_linear and telescoped along their integer chains (_telescope),
    which raises NoSolution when there is no Q of the requested kind.
    """
    if mode not in ("polynomial", "rational"):
        raise ValueError(f"unknown mode {mode!r}")
    if ratfun.num.degree != ratfun.den.degree or not ratfun.num.is_monic():
        raise ValueError("the function must have leading behavior 1")
    num, den = _telescope(factor_linear(ratfun.num.monic()),
                          factor_linear(ratfun.den), mode)
    if mode == "polynomial":
        return Poly.from_roots(num)
    return Poly.from_roots(num), Poly.from_roots(den)


# ------------------------------------------------------------ module -> data

def _data_roots(spec: ModuleSpec) -> tuple[list, list, list]:
    """The closed product forms' sorted roots: P_1 ... P_{n-1}'s, and Q_n's
    zeros and poles with their shared roots cancelled."""
    n, rows = spec.n, tuple(zip(spec.mu, spec.nu))
    p_roots = [sorted(z for z, d in rows if d == i or d == i - n)
               for i in range(1, n)]
    qn = Counter(z for z, d in rows if d == n)
    qn.subtract(z for z, d in rows if d < 0)
    return p_roots, sorted((+qn).elements()), sorted((-qn).elements())


def data_of_module(spec: ModuleSpec) -> DrinfeldData:
    """Classification data of the standard module, computed two ways.

    The closed product forms over the factor parameters must agree with the
    telescoping solver applied to the verified diagonal eigenvalue series;
    disagreement means an implementation bug and raises ArithmeticError.
    Each series is its root multisets (yangian.eigen_roots), so a ratio of
    two is a difference of multisets, and no polynomial is divided,
    reduced by a gcd or factored.
    """
    n = spec.n
    p_roots, qn_num, qn_den = _data_roots(spec)
    closed = DrinfeldData(tuple(map(Poly.from_roots, p_roots)),
                          Poly.from_roots(qn_num), Poly.from_roots(qn_den))

    series = [eigen_roots(spec, i) for i in range(1, n + 1)]
    for i in range(1, n):
        (z1, p1), (z2, p2) = series[i - 1], series[i]
        if _telescope(z1 + p2, p1 + z2, "polynomial")[0] != p_roots[i - 1]:
            raise ArithmeticError(
                f"eigenvalue route disagrees with the closed form at P_{i}")
    if _telescope(*series[n - 1], "rational") != (qn_num, qn_den):
        raise ArithmeticError(
            "eigenvalue route disagrees with the closed form at Q_n")
    return closed


# --------------------------------------------------------------- pair  sets

@dataclass(frozen=True)
class PairSet:
    """Multiset of (degree label, parameter) pairs, canonically sorted."""

    pairs: tuple[tuple[int, Fraction], ...]

    def __post_init__(self):
        canon = tuple(sorted((int(i), q(z)) for i, z in self.pairs))
        object.__setattr__(self, "pairs", canon)

    @classmethod
    def of_spec(cls, spec: ModuleSpec) -> "PairSet":
        return cls(tuple(zip(spec.nu, spec.mu)))

    def __len__(self) -> int:
        return len(self.pairs)


def pair_set(data: DrinfeldData) -> PairSet:
    """The defining pairs: one per root, labeled by which polynomial owns it."""
    if poly_gcd(data.Qn_num, data.Qn_den) != ONE:
        raise CommonZeroes("numerator and denominator share a root")
    n = data.n
    pairs: list[tuple[int, Fraction]] = []
    for i, p in enumerate(data.P, start=1):
        pairs.extend((i, z) for z in factor_linear(p))
    pairs.extend((n, z) for z in factor_linear(data.Qn_num))
    pairs.extend((-n, z) for z in factor_linear(data.Qn_den))
    return PairSet(tuple(pairs))


def pairs_of_module(spec: ModuleSpec) -> PairSet:
    """pair_set(data_of_module(spec)), from the closed forms' roots: (i, z)
    per root z of P_i, and (n, z) and (-n, z) per zero and pole of Q_n."""
    p_roots, qn_num, qn_den = _data_roots(spec)
    pairs = [(i, z) for i, roots in enumerate(p_roots, start=1)
             for z in roots]
    pairs += [(spec.n, z) for z in qn_num] + [(-spec.n, z) for z in qn_den]
    return PairSet(tuple(pairs))


def dominant_spec_of_pairs(pairs: PairSet, n: int) -> ModuleSpec:
    """Order the pairs so the shifted weight is dominant and build the spec.

    Coordinates whose shifted weights differ by a non-integer never
    constrain each other, so pairs are grouped by the integer-translation
    coset of the shifted weight; within a coset the shifted weight is sorted
    descending with ties broken by ascending parameter.
    """
    if not pairs.pairs:
        return ModuleSpec.make(n, (Fraction(0),), (0,))
    decorated = []
    for d, z in pairs.pairs:
        shifted = z + d if d >= 0 else z + n + d
        decorated.append((shifted - math.floor(shifted), -shifted, z, d))
    decorated.sort()
    mu = tuple(z for _, _, z, _ in decorated)
    nu = tuple(d for _, _, _, d in decorated)
    spec = ModuleSpec.make(n, mu, nu)
    check_dominant(spec)
    return spec


def realize(data: DrinfeldData) -> ModuleSpec:
    """A standard module whose irreducible quotient carries the given data."""
    return dominant_spec_of_pairs(pair_set(data), data.n)


def reduce_minimal(pairs: PairSet, n: int) -> PairSet:
    """Fuse a positive-label pair with a (-n)-label pair at the same parameter.

    Each fusion replaces (d, z) and (-n, z) by (d - n, z); the loop repeats
    until no parameter carries both kinds.  The surviving multiset is not
    unique but its size and classification data are.
    """
    by_param: dict[Fraction, list[int]] = {}
    for d, z in pairs.pairs:
        by_param.setdefault(z, []).append(d)
    out: list[tuple[int, Fraction]] = []
    for z in sorted(by_param):
        labels = sorted(by_param[z])
        positive = [d for d in labels if d > 0]
        rest = [d for d in labels if d <= 0 and d != -n]
        sinks = labels.count(-n)
        while positive and sinks:
            d = positive.pop()            # largest positive label first
            sinks -= 1
            rest.append(d - n)
        out.extend((d, z) for d in positive + rest + [-n] * sinks)
    return PairSet(tuple(out))
