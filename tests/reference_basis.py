"""The tensor-basis correspondence, kept for the tests as the reference.

A module's basis is the product of its factors' wedge bases, factor 1
slowest; the Grassmann weight basis (Grassmann.basis_of_weight) is the
product of the rows' bases, row 1 slowest, each row's columns
lexicographic.  The library reads a matrix between weight bases as the
matrix on the module bases, position for position.  These are the basis
map and the position map that checked that reading, one label at a time,
and the label of each factor's distinguished vector.
"""

import itertools

from ylab.grassmann import DimensionMismatch
from ylab.yangian import wedge_basis


def highest_factor_tuple(n, d):
    """Wedge indices of the distinguished vector of one factor."""
    if d >= 0:
        return tuple(range(1, d + 1))
    return tuple(range(n + d + 1, n + 1))


class NonIncreasingTuple(ValueError):
    """An exterior-power basis label must be strictly increasing."""


def alpha_encode(G, index_tuples):
    """Monomial of the basis map: tensor factor a with exterior basis label
    (j_1 < ... < j_k) contributes the block x_{a j_1} ... x_{a j_k}."""
    if len(index_tuples) != G.m:
        raise DimensionMismatch(
            f"{len(index_tuples)} factor labels for m = {G.m} rows")
    mono = 0
    for a, tup in enumerate(index_tuples, start=1):
        prev = 0
        for j in tup:
            if j <= prev:
                raise NonIncreasingTuple(
                    f"factor {a} label {tuple(tup)} is not strictly increasing")
            if j > G.n:
                raise ValueError(f"index {j} exceeds n = {G.n}")
            mono |= 1 << G.slot(a, j)
            prev = j
    return mono


def module_positions(G, spec):
    """Module basis index -> position in the Grassmann weight basis."""
    bases = [wedge_basis(spec.n, k) for k in spec.abs_nu]
    order = {mask: r for r, mask in enumerate(G.basis_of_weight(spec.abs_nu))}
    out = [order[alpha_encode(G, combo)] for combo in itertools.product(*bases)]
    if sorted(out) != list(range(len(out))):
        raise AssertionError("module basis does not biject with weight basis")
    return out
