"""Fraction reference for the route from a module's table to its data.

The library checks each diagonal eigenvalue against its closed form's root
multisets by one integer cross-multiplication (yangian.eigen_roots), and
telescopes root multisets along their chains a stretch at a time
(drinfeld._telescope).  These are the constructions they replaced: the
eigenvalue read off the table as a RatFun, normalised by poly_gcd and
compared with the closed form, and the shift-quotient solver stepping
through every integer position of each chain of factor_linear's roots.
Tests compare the library against them.
"""

import math

import ylab.yangian as ya
from ylab.drinfeld import NoSolution
from ylab.exact import ZERO, Poly, RatFun, factor_linear


def reference_eigen_series(spec, i):
    """The eigenvalue of T_ii(u) on the distinguished vector, as a RatFun
    read off ya.action_table, or NotEigenvector."""
    den, table = ya.action_table(spec)
    col = ya.highest_index(spec)
    value = RatFun(ZERO)
    for r, c, cs in table[i - 1][i - 1]:
        if c == col and r != col:
            raise ya.NotEigenvector(
                f"T_{i}{i} maps the distinguished vector off itself (row {r})")
        if (r, c) == (col, col):
            value = RatFun(Poly(cs), Poly(den))
    for j in range(i + 1, spec.n + 1):
        if any(c == col for _, c, _ in table[i - 1][j - 1]):
            raise ya.NotEigenvector(
                f"T_{i}{j} does not annihilate the distinguished vector")
    closed = ya.eigen_closed(spec, i)
    if value != closed:
        raise ya.NotEigenvector(
            f"eigenvalue {value} differs from closed form {closed}")
    return value


def reference_solve_shift_quotient(ratfun, mode):
    """solve_shift_quotient, one chain position at a time."""
    if mode not in ("polynomial", "rational"):
        raise ValueError(f"unknown mode {mode!r}")
    if ratfun.num.degree != ratfun.den.degree or not ratfun.num.is_monic():
        raise ValueError("the function must have leading behavior 1")
    expo = {}
    for z in factor_linear(ratfun.num.monic()):
        expo[z] = expo.get(z, 0) + 1
    for z in factor_linear(ratfun.den):
        expo[z] = expo.get(z, 0) - 1
    chains = {}
    for z, e in expo.items():
        if e:
            chains.setdefault(z - math.floor(z), {})[z] = e

    num_roots, den_roots = [], []
    for chain in chains.values():
        top, bottom = max(chain), min(chain)
        exponent = 0
        w = top
        while w >= bottom:
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
