"""Dense Fraction reference for the module table, kept for the tests.

The library builds its module table in integers on the nonzero support
(yangian.action_table).  This is the construction it replaced: every factor
as a full grid of Poly matrices over its monic denominator, multiplied by
the coproduct as block matrices whose entrywise product is the Kronecker
product.  Tests compare the integer table, and the certificates that read
it, against this grid.
"""

from functools import lru_cache
from math import comb

from ylab.exact import ONE, ZERO, Poly, RatFun, _cleared, linear
from ylab.yangian import wedge_basis


def wedge_moves(n, k, i, j):
    """The nonzero entries (row, col, +-1) of the gl_n unit E_ij on the
    wedge basis of Lambda^k(C^n), one call per unit."""
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
def reference_factor(n, d, z):
    """(grid, den) for one factor: T_ij(u) = grid[i-1][j-1] / den, with den
    on the diagonal of T_ii, plus the moves of E_ij (d > 0) or -E_ji
    (d < 0), ZERO elsewhere, and den = u - z, u - z + 1 or 1 (d = 0)."""
    size = comb(n, abs(d))
    den = ONE if d == 0 else linear(z) if d > 0 else linear(z - 1)
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            mat = [[ZERO] * size for _ in range(size)]
            if i == j:
                for r in range(size):
                    mat[r][r] = den
            moves = (wedge_moves(n, d, i, j) if d > 0
                     else [(r, c, -s) for r, c, s
                           in wedge_moves(n, -d, j, i)])
            for r, c, s in moves:
                mat[r][c] = mat[r][c] + Poly.constant(s)
            row.append(tuple(map(tuple, mat)))
        rows.append(tuple(row))
    return tuple(rows), den


def block_entry(left, right, i, j):
    """Entry (i, j) of the block product of two grids of Poly matrices.

    It is sum_k left[i][k] (x) right[k][j], with (x) the Kronecker product.
    Zero is canonical (no coefficients), so only products of two nonzero
    entries are formed and every other entry stays ZERO.
    """
    rb, cb = len(right[0][0]), len(right[0][0][0])
    out = [[ZERO] * (len(left[0][0][0]) * cb)
           for _ in range(len(left[0][0]) * rb)]
    for k in range(len(right)):
        b = [(r2, c2, y) for r2, row in enumerate(right[k][j])
             for c2, y in enumerate(row) if y]
        for r1, row in enumerate(left[i][k]):
            for c1, x in enumerate(row):
                if x:
                    for r2, c2, y in b:
                        out[r1 * rb + r2][c1 * cb + c2] += x * y
    return tuple(map(tuple, out))


@lru_cache(maxsize=None)
def reference_table(spec):
    """(grid, den) of the whole module: T_ij(u) = grid[i-1][j-1] / den,
    assembled factor by factor from the left."""
    n = spec.n
    grid, den = reference_factor(n, spec.nu[0], spec.mu[0])
    for d, z in zip(spec.nu[1:], spec.mu[1:]):
        g2, d2 = reference_factor(n, d, z)
        grid = tuple(tuple(block_entry(grid, g2, i, j) for j in range(n))
                     for i in range(n))
        den = den * d2
    return grid, den


def cleared(spec):
    """reference_table in integers, in action_table's layout: one integer
    clears every coefficient of the grid and its denominator, and each
    T_ij lists (r, c, coefficients) for its nonzero entries in C order."""
    grid, den = reference_table(spec)
    n = spec.n
    entries = [(i, j, r, c, p.coeffs)
               for i in range(n) for j in range(n)
               for r, row in enumerate(grid[i][j])
               for c, p in enumerate(row) if p.coeffs]
    _, (den_ints, *nums) = _cleared([den.coeffs] + [e[4] for e in entries])
    table = [[[] for _ in range(n)] for _ in range(n)]
    for (i, j, r, c, _), cs in zip(entries, nums):
        table[i][j].append((r, c, tuple(cs)))
    return tuple(den_ints), tuple(tuple(map(tuple, row)) for row in table)


def reference_action(spec, i, j):
    """module_action's entries as the Poly grid gives them."""
    grid, den = reference_table(spec)
    return tuple(tuple(RatFun(p, den) for p in row)
                 for row in grid[i - 1][j - 1])
