"""Fraction reference for the canonical operator's factors, kept for the tests.

The library builds each rational series factor in integers (glmops.XY_op),
each row relabeling as a signed index map (intertwiner._relabel), and
reduces each product-form eigenvalue candidate by cancelling shared linear
factors (yangian.eigen_candidates).  These are the constructions they
replaced: every operator run on Fraction GrassmannElts and materialized as
a Fraction matrix, the series term by term on the whole weight space
through E_op/EE_op and Fraction Pochhammer symbols, every relabeling as the
algebra automorphism sym_act on each basis monomial, and every candidate
normalised by RatFun's poly_gcd.  Tests compare the library against them.
"""

import itertools
from fractions import Fraction
from functools import partial

from ylab.exact import ONE, RatFun, linear
from ylab.glmops import E_op, EE_op, ForbiddenWeightDifference
from ylab.grassmann import GrassmannElt, perm_apply


def pochhammer(x, r: int) -> Fraction:
    """Rising factorial x(x+1)...(x+r-1); the empty product 1 when r = 0."""
    if r < 0:
        raise ValueError("pochhammer needs a nonnegative length")
    x = Fraction(x)
    out = Fraction(1)
    for k in range(r):
        out *= x + k
    return out


def reference_matrix(G, op, domain_nu, codomain_nu):
    """The Fraction matrix of op between weight bases, codomain rows."""
    dom = G.basis_of_weight(domain_nu)
    cod = G.basis_of_weight(codomain_nu)
    index = {mask: r for r, mask in enumerate(cod)}
    cols = []
    for mask in dom:
        image = op(GrassmannElt(G, {mask: Fraction(1)}))
        col = [Fraction(0)] * len(cod)
        for mono, c in image.terms.items():
            if mono not in index:
                raise ValueError(
                    f"image monomial of weight {G.weight_of(mono)} escapes the "
                    f"declared codomain weight {tuple(codomain_nu)}")
            col[index[mono]] = c
        cols.append(col)
    return tuple(tuple(cols[c][r] for c in range(len(dom)))
                 for r in range(len(cod)))


def reference_XY(G, kind, w, a, b, nu, eps=None, scale=lambda r: 1):
    """XY_op's matrix, by a Fraction series on Grassmann elements; the
    term of B^r A^r is multiplied by scale(r), which mutation tests set."""
    if not (1 <= a < b <= G.m):
        raise ValueError(f"need 1 <= a < b <= m, got ({a}, {b})")
    if kind not in ("X", "Y"):
        raise ValueError(f"kind must be 'X' or 'Y', got {kind!r}")
    c = Fraction(w[a - 1]) - Fraction(w[b - 1])
    if c.denominator == 1 and c < 0:
        raise ForbiddenWeightDifference(
            f"w_{a} - w_{b} = {c} is a negative integer")

    row = E_op if eps is None else partial(EE_op, eps)
    i, j = (a, b) if kind == "X" else (b, a)  # A = E_ij, B = E_ji

    def series(x: GrassmannElt) -> GrassmannElt:
        out = x
        arx = x
        for r in range(1, G.n + 1):
            arx = row(i, j, arx)  # A^r x, built incrementally
            if arx.is_zero():
                break
            term = arx
            for _ in range(r):
                term = row(j, i, term)  # B^r A^r x
            if term.is_zero():
                continue
            coeff = Fraction((-1) ** r * scale(r), 1) / (
                pochhammer(1, r) * pochhammer(c + 1, r))
            out = out + term.scale(coeff)
        return out

    return reference_matrix(G, series, nu, nu)


def derive(G, a, i, x):
    """Left derivation of x by x_{ai}: the one-step chain of G's kernel."""
    return G.act((((1 << G.slot(a, i), False),),), x)


def sym_act(G, sigma, x):
    """The algebra automorphism x_{ai} |-> x_{sigma(a) i} of G: each monomial
    is rebuilt from 1 by left-multiplying the relabeled variables."""
    if len(sigma) != G.m or sorted(sigma) != list(range(1, G.m + 1)):
        raise ValueError(f"{sigma} is not a permutation of 1..{G.m}")
    n = G.n
    steps = [(1 << ((sigma[s // n] - 1) * n + s % n), True)
             for s in range(G.m * n)]
    return G.substitute(steps, 0, x)


def reference_relabel(G, sigma, nu):
    """The matrix of sym_act from weight nu, on Fraction elements."""
    return reference_matrix(G, lambda x: sym_act(G, sigma, x), nu,
                            perm_apply(sigma, nu))


def signed_permutation_rows(images):
    """The integer matrix with column c equal to s times basis vector r,
    for each image (r, s) of the signed permutation."""
    rows = [[0] * len(images) for _ in images]
    for c, (r, s) in enumerate(images):
        rows[r][c] = s
    return tuple(map(tuple, rows))


def reference_candidates(spec):
    """eigen_candidates with each candidate normalised by RatFun."""
    pos = [a for a in range(spec.m) if spec.nu[a] >= 0]
    neg = [a for a in range(spec.m) if spec.nu[a] < 0]
    cands = {}
    for ksub in range(len(pos) + 1):
        for I in itertools.combinations(pos, ksub):
            gi_num, gi_den = ONE, ONE
            for a in I:
                gi_num = gi_num * linear(spec.mu[a] - 1)
                gi_den = gi_den * linear(spec.mu[a])
            for lsub in range(len(neg) + 1):
                for J in itertools.combinations(neg, lsub):
                    num, den = gi_num, gi_den
                    for a in J:
                        num = num * linear(spec.mu[a])
                        den = den * linear(spec.mu[a] - 1)
                    cands.setdefault(RatFun(num, den), (I, J))
    return cands


def reference_integer_samples(count, forbidden, start, step):
    """_integer_samples testing each candidate as a Fraction."""
    out = []
    t = start
    while len(out) < count:
        if Fraction(t) not in forbidden:
            out.append(t)
        t += step
    return out
