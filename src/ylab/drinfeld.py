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
from dataclasses import dataclass
from fractions import Fraction

from .exact import ONE, Poly, RatFun, factor_linear, poly_gcd, q
from .intertwiner import check_dominant
from .yangian import ModuleSpec, eigen_series


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

def _exponents(ratfun: RatFun) -> dict[Fraction, int]:
    """Root -> signed multiplicity of the canonical num/den factorization."""
    expo: dict[Fraction, int] = {}
    for z in factor_linear(ratfun.num.monic()):
        expo[z] = expo.get(z, 0) + 1
    for z in factor_linear(ratfun.den):
        expo[z] = expo.get(z, 0) - 1
    return {z: e for z, e in expo.items() if e}


def solve_shift_quotient(ratfun: RatFun, mode: str):
    """The unique monic Q with Q(u+1)/Q(u) equal to the given function.

    mode 'polynomial' returns Q as a Poly; mode 'rational' returns a coprime
    monic (numerator, denominator) pair.  Roots are grouped into chains by
    their integer-translation coset and the exponent of Q at each chain
    position is the telescoped partial sum; a chain whose exponents do not
    sum to zero, or a negative exponent in polynomial mode, means there is
    no Q of the requested kind.
    """
    if mode not in ("polynomial", "rational"):
        raise ValueError(f"unknown mode {mode!r}")
    if ratfun.num.degree != ratfun.den.degree or not ratfun.num.is_monic():
        raise ValueError("the function must have leading behavior 1")

    chains: dict[Fraction, dict[Fraction, int]] = {}
    for z, e in _exponents(ratfun).items():
        coset = z - math.floor(z)
        chains.setdefault(coset, {})[z] = e

    num_roots: list[Fraction] = []
    den_roots: list[Fraction] = []
    for chain in chains.values():
        top = max(chain)
        bottom = min(chain)
        exponent = 0
        w = top
        while w >= bottom:
            # exponent of Q at w equals -(sum of chain exponents at >= w)
            exponent -= chain.get(w, 0)
            if exponent > 0:
                num_roots.extend([w] * exponent)
            elif exponent < 0:
                den_roots.extend([w] * (-exponent))
            w -= 1
        if exponent != 0:
            raise NoSolution(
                f"chain through {top} does not telescope (residue {exponent})")

    if mode == "polynomial":
        if den_roots:
            raise NoSolution(
                "a negative exponent forces a denominator; the function is "
                "not a polynomial shift quotient")
        return Poly.from_roots(sorted(num_roots))
    return (Poly.from_roots(sorted(num_roots)),
            Poly.from_roots(sorted(den_roots)))


# ------------------------------------------------------------ module -> data

def data_of_module(spec: ModuleSpec) -> DrinfeldData:
    """Classification data of the standard module, computed two ways.

    The closed product forms over the factor parameters must agree with the
    telescoping solver applied to the verified diagonal eigenvalue series;
    disagreement means an implementation bug and raises ArithmeticError.
    """
    n = spec.n
    p_list = []
    for i in range(1, n):
        roots = [z for z, d in zip(spec.mu, spec.nu) if d == i or d == i - n]
        p_list.append(Poly.from_roots(sorted(roots)))
    qn = RatFun.from_roots((z for z, d in zip(spec.mu, spec.nu) if d == n),
                           (z for z, d in zip(spec.mu, spec.nu) if d < 0))
    closed = DrinfeldData(tuple(p_list), qn.num, qn.den)

    series = [eigen_series(spec, i) for i in range(1, n + 1)]
    for i in range(1, n):
        solved = solve_shift_quotient(series[i - 1] / series[i], "polynomial")
        if solved != closed.P[i - 1]:
            raise ArithmeticError(
                f"eigenvalue route disagrees with the closed form at P_{i}")
    qn_num, qn_den = solve_shift_quotient(series[n - 1], "rational")
    if qn_num != closed.Qn_num or qn_den != closed.Qn_den:
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
