"""Complementation duality between signed and plain realizations.

A Grassmann row of degree d complements to degree n - d against the full
row product.  Doing this on every negative row at once turns a module with
mixed-sign degrees into one with the shifted nonnegative degrees, at the
cost of one determinantal tensor factor per flipped row.  Conjugating the
all-nonnegative canonical operator through the two complementation
isomorphisms reproduces the mixed-sign one up to an explicit sign, which
is what `composite_check` verifies on a concrete module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .exact import q
from .glmops import LinearMap
from .grassmann import DimensionMismatch, Grassmann, GrassmannElt, perm_longest
from .intertwiner import Intertwiner, _module_matrix, build_I, check_dominant
from .yangian import ModuleSpec, highest_index


class CompositeMismatch(ArithmeticError):
    """Conjugated operator disagrees with the directly built one."""


# ---------------------------------------------------------------- sign ledger

@dataclass(frozen=True)
class SignCounters:
    """Integer exponents of the signs the complementation maps produce.

    N sums nu_a nu_b over pairs a < b of the degrees as given, Nbar does
    the same after shifting negative entries up by n.  K keeps only the
    pairs whose left member is negative, L those whose right member is;
    M adds nu_a(nu_a - 1)/2 over the negative entries alone.
    """

    N: int
    Nbar: int
    K: int
    L: int
    M: int


def sign_counters(spec: ModuleSpec) -> SignCounters:
    nu, nb, m = spec.nu, spec.nubar, spec.m
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    return SignCounters(
        N=sum(nu[a] * nu[b] for a, b in pairs),
        Nbar=sum(nb[a] * nb[b] for a, b in pairs),
        K=sum(nu[a] * nu[b] for a, b in pairs if nu[a] < 0),
        L=sum(nu[a] * nu[b] for a, b in pairs if nu[b] < 0),
        M=sum(d * (d - 1) // 2 for d in nu if d < 0),
    )


# ------------------------------------------------------- single-row complement

def _complement(eps: Sequence[int], x: GrassmannElt) -> GrassmannElt:
    """Complement the rows of x with sign -1; see R_eps_apply."""
    G = x.algebra
    n = G.n
    steps = [(1 << s, eps[s // n] > 0) for s in range(G.m * n)]
    base = sum(((1 << n) - 1) << (a * n) for a in range(G.m) if eps[a] < 0)
    return G.substitute(steps, base, x)


def R_map(n: int, x: GrassmannElt) -> GrassmannElt:
    """Complement a single-row element against the full product x_1...x_n.

    A monomial with column set A goes to plus or minus the monomial on the
    complementary columns; the sign comes from applying the derivations of
    the columns in A to x_1...x_n, largest column innermost (the one-row
    `_complement`).  Applying the map twice scales by (-1)^{n(n-1)/2}.
    """
    G = x.algebra
    if G.shape != (1, n):
        raise DimensionMismatch(
            f"expected a single row of width {n}, got shape {G.shape}")
    return _complement((-1,), x)


def iso_covector(n: int, d: int, z) -> Intertwiner:
    """Isomorphism from one degree -d factor onto its complement.

    Sends the negative factor of degree -d at shift z onto the tensor
    product of the degree n - d factor and the scalar determinantal factor
    at the same shift, by complementing each basis monomial: the matrix of
    `dual_iso` on the one-row module.
    """
    if not 0 <= d <= n:
        raise ValueError(f"need 0 <= d <= n, got d = {d}")
    source = ModuleSpec.make(n, (z,), (-d,))
    target = ModuleSpec.make(n, (z, z), (n - d, -n))
    return Intertwiner(source, target, dual_iso(source).matrix)


# ------------------------------------------------------ signed multi-row form

def R_eps_apply(spec: ModuleSpec, x: GrassmannElt) -> GrassmannElt:
    """Signed complementation on any element of the m-row algebra.

    Reading the variables of a monomial in slot order, each one in a
    nonnegative row multiplies and each one in a negative row derives; the
    operator chain so obtained (`_complement`) acts on the product of the
    full negative rows, taken by increasing row.  Nonnegative rows pass
    through untouched, negative rows are complemented.
    """
    G = x.algebra
    if G.shape != (spec.m, spec.n):
        raise DimensionMismatch(
            f"element lives in shape {G.shape}, spec has {(spec.m, spec.n)}")
    return _complement(spec.eps, x)


def _flip(spec: ModuleSpec) -> list[tuple[int, int]]:
    """The signed complementation as an index map, read from R_eps_apply:
    per basis vector c, the (r, s) with image s times basis vector r."""
    G = Grassmann(spec.m, spec.n)
    index = {mask: r for r, mask in enumerate(G.basis_of_weight(spec.nubar))}
    out = []
    for mask in G.basis_of_weight(spec.abs_nu):
        image = R_eps_apply(spec, GrassmannElt(G, {mask: 1}))
        (mono, sign), = image.terms.items()
        out.append((index[mono], sign))
    return out


def R_eps(spec: ModuleSpec) -> LinearMap:
    """Matrix of the signed complementation on the module weight space."""
    flip = _flip(spec)
    rows = [[0] * len(flip) for _ in flip]
    for c, (r, sign) in enumerate(flip):
        rows[r][c] = sign
    return LinearMap(spec.abs_nu, spec.nubar,
                     cleared=(1, tuple(map(tuple, rows))))


def dual_iso(spec: ModuleSpec,
             det_mus: Optional[Sequence] = None) -> Intertwiner:
    """Module isomorphism flipping every negative factor to its complement.

    The target keeps each factor's shift, replaces negative degrees by
    their shifted values, and appends one determinantal factor per flipped
    row, ordered by increasing row; `det_mus` overrides the order of the
    appended shifts (the factors are scalar, so any order acts alike).
    On the distinguished vector the map produces the crossing sign
    computed by `hv_flip_exponent`.
    """
    neg = [a for a in range(spec.m) if spec.nu[a] < 0]
    if det_mus is None:
        det_mus = tuple(spec.mu[a] for a in neg)
    else:
        det_mus = tuple(q(z) for z in det_mus)
        if sorted(det_mus) != sorted(spec.mu[a] for a in neg):
            raise ValueError(
                "determinantal shifts do not match the negative rows")
    target = ModuleSpec.make(spec.n, spec.mu + det_mus,
                             spec.nubar + (-spec.n,) * len(neg))
    return Intertwiner(spec, target, _module_matrix(R_eps(spec).cleared[1]))


# ------------------------------------------------------------- composite check

def hv_flip_exponent(spec: ModuleSpec) -> int:
    """Sign exponent of the signed complementation on the distinguished vector.

    The distinguished monomial fills the first nu_a columns of nonnegative
    rows and the last |nu_a| columns of negative rows.  Its image under the
    complementation picks up one crossing per variable pair that trades
    places: working through the rows from last to first, each derivation of
    a negative row a crosses the nonnegative blocks already multiplied in
    front and the still-complete negative rows before row a, then
    complements within its own row, and the surviving complement finally
    crosses back over those front blocks into row order.  The pairwise
    counters N, K, L, M do not reproduce this exponent (a single negative
    row of width one inside three columns already separates them); the
    crossing count is what the construction actually produces, and
    `composite_check` verifies it against the matrices.
    """
    n, nu = spec.n, spec.nu
    exponent = 0
    full_rows_before = 0
    for a in range(spec.m):
        if nu[a] >= 0:
            continue
        d = -nu[a]
        front = sum(nu[b] for b in range(a + 1, spec.m) if nu[b] >= 0)
        exponent += d * (front + n * full_rows_before)
        exponent += d * (n - d) + d * (d - 1) // 2
        exponent += (n - d) * front
        full_rows_before += 1
    return exponent


@dataclass(frozen=True)
class CompositeReport:
    spec: ModuleSpec
    counters: SignCounters
    composite_sign: int
    forward_hv_sign: int
    reversed_hv_sign: int
    passed: bool


def _parity_sign(exponent: int) -> int:
    return -1 if exponent % 2 else 1


def composite_check(spec: ModuleSpec) -> CompositeReport:
    """Rebuild the mixed-sign canonical operator from the plain one.

    Flips the module through the signed complementation, pushes the
    all-nonnegative canonical operator across (it extends over the
    determinantal factors unchanged), flips back on the factor-reversed
    module, and asserts the result equals the directly built operator
    times the product of the two flips' crossing signs — in particular
    the sign is always +1 when the column count n is even.  With the flips
    as index maps (see _flip), entry (r, c) is s_b(r) s_f(c) plain[pi_b(r)]
    [pi_f(c)].  Also asserts each flip's sign on the distinguished vector
    (whose image is basis vector 0): the crossing sign forward, the
    reversed crossing sign backward.
    """
    check_dominant(spec)
    cnt = sign_counters(spec)
    direct = build_I(spec)
    plain = build_I(ModuleSpec.make(spec.n, spec.mu, spec.nubar)).matrix
    reverse = spec.permuted(perm_longest(spec.m))
    forward, back = _flip(spec), _flip(reverse)

    fwd_sign = _parity_sign(hv_flip_exponent(spec))
    rev_sign = _parity_sign(hv_flip_exponent(reverse))
    sign = fwd_sign * rev_sign
    if any(sb * sf * plain[rb][cf] != sign * x
           for (rb, sb), row in zip(back, direct.matrix)
           for (cf, sf), x in zip(forward, row)):
        raise CompositeMismatch(
            f"conjugated operator is not {sign:+d} times the direct one "
            f"on {spec}")
    for flip, source, scale, label in (
            (forward, spec, fwd_sign, "forward complementation"),
            (back, reverse, rev_sign, "reversed complementation")):
        if flip[highest_index(source)] != (0, scale):
            raise CompositeMismatch(
                f"{label} does not scale the distinguished vector by {scale}")
    return CompositeReport(spec, cnt, sign, fwd_sign, rev_sign, True)
