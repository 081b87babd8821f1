"""Independent checks of ylab's outputs.

Everything here is recomputed apart from the program: dimensions, weights
and dominance from the spec, classification data from the closed product
formulas, matrix products and ranks by plain Fraction arithmetic, reduced
word counts by enumeration.  The only program values used are the ones
under test and the single-factor matrices ``yangian.factor_action`` and the
full-module ``yangian.module_action``, which are the objects the identities
speak about.  Each check raises CheckFailed with a reason.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from math import comb, lcm


class CheckFailed(AssertionError):
    """An output disagrees with what the benchmark computes on its own."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ------------------------------------------------------------ spec formulas

def rational_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else \
        f"{x.numerator}/{x.denominator}"


def nubar(n: int, nu) -> tuple[int, ...]:
    return tuple(d if d >= 0 else n + d for d in nu)


def lambar(n: int, mu, nu) -> tuple[Fraction, ...]:
    return tuple(z + d for z, d in zip(mu, nubar(n, nu)))


def dim_of(n: int, nu) -> int:
    out = 1
    for d in nu:
        out *= comb(n, abs(d))
    return out


def _neg_int(x: Fraction) -> bool:
    return x.denominator == 1 and x < 0


def is_dominant(n: int, mu, nu) -> bool:
    """lambda-bar_a - lambda-bar_b is no negative integer for a < b."""
    lb = lambar(n, mu, nu)
    return not any(_neg_int(lb[a] - lb[b])
                   for a in range(len(nu)) for b in range(a + 1, len(nu)))


def series_defined(n: int, mu, nu) -> bool:
    """The canonical operator's series denominators are all nonzero.

    A pair a < b takes its series on lambda-bar when nubar_a >= nubar_b
    (covered by dominance) and on mu otherwise.
    """
    nb = nubar(n, nu)
    return not any(nb[a] < nb[b] and _neg_int(mu[a] - mu[b])
                   for a in range(len(nu)) for b in range(a + 1, len(nu)))


# ------------------------------------------------ polynomials as Fraction lists

def poly_from_roots(roots) -> list[Fraction]:
    """Monic prod (u - z), low-to-high coefficients."""
    out = [Fraction(1)]
    for z in roots:
        nxt = [Fraction(0)] * (len(out) + 1)
        for k, c in enumerate(out):
            nxt[k + 1] += c
            nxt[k] -= z * c
        out = nxt
    return out


def poly_strs(coeffs) -> list[str]:
    return [rational_str(c) for c in coeffs]


def closed_data(n: int, pairs) -> dict:
    """Classification data of the rows (nu_a, mu_a), from the product forms.

    On the distinguished vector T_ii(u) acts by the product over the rows of
    (u-mu+1)/(u-mu) when nu >= i and (u-mu)/(u-mu+1) when nu < i - n.  The
    ratios of consecutive eigenvalues give P_i(u+1)/P_i(u) with P_i the
    product of (u - mu) over rows with nu = i or nu = i - n, and the last
    eigenvalue gives Q_n(u+1)/Q_n(u) with Q_n the product over nu = n
    divided by the product over nu < 0, common roots cancelled.
    """
    p_list = [poly_from_roots(sorted(z for d, z in pairs
                                     if d == i or d == i - n))
              for i in range(1, n)]
    num = sorted(z for d, z in pairs if d == n)
    den = []
    for z in sorted(z for d, z in pairs if d < 0):
        if z in num:
            num.remove(z)
        else:
            den.append(z)
    return {"P": [poly_strs(p) for p in p_list],
            "Qn": {"num": poly_strs(poly_from_roots(num)),
                   "den": poly_strs(poly_from_roots(den))}}


def count_reduced_words(m: int) -> int:
    """Reduced decompositions of the order-reversing permutation of m."""
    counts = {tuple(range(m)): 1}
    target = tuple(reversed(range(m)))
    for _ in range(m * (m - 1) // 2):
        nxt: dict[tuple, int] = {}
        for perm, c in counts.items():
            for a in range(m - 1):
                if perm[a] < perm[a + 1]:
                    p = list(perm)
                    p[a], p[a + 1] = p[a + 1], p[a]
                    nxt[tuple(p)] = nxt.get(tuple(p), 0) + c
        counts = nxt
    return counts.get(target, 0)


# ------------------------------------------------------------ dense matrices

def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0))
             for col in bt] for row in a]


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def rank(matrix) -> int:
    """Rank by Gaussian elimination over Q."""
    rows = [list(map(Fraction, r)) for r in matrix]
    r = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][c]:
                f = rows[i][c] / rows[r][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def eval_ratfun(f, u: Fraction) -> Fraction:
    """Evaluate a num/den rational function by Horner on its coefficients."""
    def horner(coeffs):
        out = Fraction(0)
        for c in reversed(coeffs):
            out = out * u + c
        return out
    return horner(f.num.coeffs) / horner(f.den.coeffs)


def distinguished_index(n: int, nu) -> int:
    """Basis position of the distinguished vector (leftmost factor slowest)."""
    idx = 0
    for d in nu:
        basis = list(itertools.combinations(range(1, n + 1), abs(d)))
        want = tuple(range(1, d + 1)) if d >= 0 else tuple(range(n + d + 1,
                                                                 n + 1))
        idx = idx * len(basis) + basis.index(want)
    return idx


# ------------------------------------------------------- the module at a point

def module_at(factor_action, n: int, mu, nu, u: Fraction):
    """All T_ij(u) of the module, assembled from single-factor matrices.

    The coproduct gives T_ij = sum_k T^(1)_ik (x) T^(2)_kj, taken factor by
    factor from the left; returns T[i][j] as Fraction matrices, 0-based.
    """
    def factor(d, z):
        return [[[[eval_ratfun(e, u) for e in row]
                  for row in factor_action(n, d, z, i, j)]
                 for j in range(1, n + 1)] for i in range(1, n + 1)]

    grid = factor(nu[0], mu[0])
    for d, z in zip(nu[1:], mu[1:]):
        right = factor(d, z)
        new = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = None
                for k in range(n):
                    term = kron(grid[i][k], right[k][j])
                    acc = term if acc is None else [
                        [x + y for x, y in zip(r1, r2)]
                        for r1, r2 in zip(acc, term)]
                row.append(acc)
            new.append(row)
        grid = new
    return grid


def cleared(T):
    """The T_ij scaled by one common denominator, as integer matrices.

    Every term of the defining relation is a product T(u) T(v), so scaling
    all of T(u) by one constant and all of T(v) by another scales both
    sides alike; the products then run in exact integer arithmetic.
    """
    den = 1
    for row in T:
        for mat in row:
            for line in mat:
                for e in line:
                    den = lcm(den, e.denominator)
    return [[[[int(e * den) for e in line] for line in mat] for mat in row]
            for row in T]


def check_relation(TU, TV, u: Fraction, v: Fraction, x) -> None:
    """(u-v)[T_ij(u), T_kl(v)] = T_kj(u)T_il(v) - T_kj(v)T_il(u), on x."""
    n = len(TU)
    TU, TV = cleared(TU), cleared(TV)
    tu_x = [[mat_vec(TU[i][j], x) for j in range(n)] for i in range(n)]
    tv_x = [[mat_vec(TV[i][j], x) for j in range(n)] for i in range(n)]
    for i, j, k, l in itertools.product(range(n), repeat=4):
        a = mat_vec(TU[i][j], tv_x[k][l])      # T_ij(u) T_kl(v) x
        b = mat_vec(TV[k][l], tu_x[i][j])      # T_kl(v) T_ij(u) x
        c = mat_vec(TU[k][j], tv_x[i][l])      # T_kj(u) T_il(v) x
        d = mat_vec(TV[k][j], tu_x[i][l])      # T_kj(v) T_il(u) x
        lhs = [(u - v) * (p - q) for p, q in zip(a, b)]
        rhs = [p - q for p, q in zip(c, d)]
        require(lhs == rhs, f"defining relation fails at (i,j,k,l)="
                f"({i + 1},{j + 1},{k + 1},{l + 1}), u={u}, v={v}")


def eigenvalue_at(n: int, mu, nu, i: int, u: Fraction) -> Fraction:
    """The i-th diagonal eigenvalue on the distinguished vector, at u."""
    out = Fraction(1)
    for z, d in zip(mu, nu):
        if d >= i:
            out *= (u - z + 1) / (u - z)
        if d < i - n:
            out *= (u - z) / (u - z + 1)
    return out


def check_eigenvalues(T, n: int, mu, nu, u: Fraction) -> None:
    """T_ii(u) fixes the distinguished line with the product-form value."""
    hv = distinguished_index(n, nu)
    for i in range(1, n + 1):
        col = [row[hv] for row in T[i - 1][i - 1]]
        want = eigenvalue_at(n, mu, nu, i, u)
        require(col[hv] == want and all(c == 0 for r, c in enumerate(col)
                                        if r != hv),
                f"T_{i}{i}(u) does not act on the distinguished vector by"
                f" {want}")


# ------------------------------------------------------------ per-workload

def check_rtt(report, spec, factor_action, u, v, x) -> None:
    n, m = spec.n, spec.m
    require(report.passed is True, "rtt_check did not pass")
    require(report.degree_bound == 4 * m + 2,
            f"degree bound {report.degree_bound} != 4m + 2")
    require(report.pairs == (4 * m + 3) ** 2,
            f"sample pairs {report.pairs} != (4m + 3)^2")
    TU = module_at(factor_action, n, spec.mu, spec.nu, u)
    TV = module_at(factor_action, n, spec.mu, spec.nu, v)
    check_relation(TU, TV, u, v, x)
    check_eigenvalues(TU, n, spec.mu, spec.nu, u)


def check_image(spec, inter, inter_report, image_report, module_action,
                u: Fraction) -> None:
    n = spec.n
    target = inter.target_spec
    require(target.nu == tuple(reversed(spec.nu))
            and target.mu == tuple(reversed(spec.mu)),
            "target is not the factor-reversed module")
    require(inter_report.passed is True and inter_report.pairs == n * n,
            "intertwine_check did not cover all n^2 series")
    I = [list(row) for row in inter.matrix]
    dim = dim_of(n, spec.nu)
    require(len(I) == dim, f"operator size {len(I)} != dim {dim}")
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            src = [[eval_ratfun(f, u) for f in row]
                   for row in module_action(spec, i, j).entries]
            tgt = [[eval_ratfun(f, u) for f in row]
                   for row in module_action(target, i, j).entries]
            require(mat_mul(I, src) == mat_mul(tgt, I),
                    f"I T_{i}{j}(u) != T'_{i}{j}(u) I at u = {u}")
    hv_s = distinguished_index(n, spec.nu)
    hv_t = distinguished_index(n, target.nu)
    require([row[hv_s] for row in I] ==
            [Fraction(int(r == hv_t)) for r in range(dim)],
            "I does not send the distinguished vector to its partner")
    require(image_report.rank == rank(I),
            f"rank {image_report.rank} != eliminated rank {rank(I)}")
    require(image_report.irreducible is True,
            "image not certified irreducible")


def canonical(text: str) -> dict:
    """Parse a report and insist it is in canonical form."""
    doc = json.loads(text)
    again = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    require(again == text, "report is not canonical JSON")
    return doc


def spec_doc(n: int, mu, nu) -> dict:
    return {"n": n, "m": len(nu), "mu": [rational_str(z) for z in mu],
            "nu": list(nu)}


def check_cli(job, code: int, out: str, err: str) -> None:
    """Exit code, canonical form and the mathematics of one CLI report."""
    require(code == job.expect, f"{job.label}: exit {code}, want {job.expect}"
            f" ({err.strip()[:200]})")
    if job.expect != 0:
        require(out == "" and len(err.strip().splitlines()) == 1,
                f"{job.label}: rejection must print one line on stderr")
        return
    doc = canonical(out)
    kind = job.kind
    if job.spec is not None:
        n, mu, nu = job.spec
        if "spec" in doc:
            require(doc["spec"] == spec_doc(n, mu, nu),
                    f"{job.label}: spec echo")
    if kind == "build":
        require(doc["dim"] == dim_of(n, nu), f"{job.label}: dim")
        require(doc["lambar"] == [rational_str(x)
                                  for x in lambar(n, mu, nu)],
                f"{job.label}: lambar")
        require(doc["nubar"] == list(nubar(n, nu)), f"{job.label}: nubar")
        require(doc["dominant"] == is_dominant(n, mu, nu),
                f"{job.label}: dominance flag")
    elif kind == "drinfeld":
        require(doc["data"] == closed_data(n, list(zip(nu, mu))),
                f"{job.label}: classification data")
    elif kind == "realize":
        data = json.loads(job.stdin)
        got = doc["spec"]
        r_n, r_nu = got["n"], got["nu"]
        r_mu = [Fraction(z) for z in got["mu"]]
        require(is_dominant(r_n, r_mu, r_nu),
                f"{job.label}: realized module is not dominant")
        require(closed_data(r_n, list(zip(r_nu, r_mu))) == data,
                f"{job.label}: realized module does not carry its data")
        require(doc["dim"] == dim_of(r_n, r_nu), f"{job.label}: dim")
    elif kind == "reduce":
        n, pairs = job.pairs
        reduced = [(d, Fraction(z)) for d, z in doc["reduced"]]
        require(doc["size"] == len(reduced) and
                doc["source_size"] == len(pairs), f"{job.label}: sizes")
        require(closed_data(n, reduced) == closed_data(n, pairs),
                f"{job.label}: reduction changed the classification data")
        fused = {z for d, z in reduced if d > 0} & \
            {z for d, z in reduced if d == -n}
        require(not fused, f"{job.label}: unfused pair left at {fused}")
    elif kind == "verify":
        require(doc["passed"] is True, f"{job.label}: not passed")
        suite = doc["suite"]
        if suite in ("lemma41", "intertwine"):
            require(doc["dim"] == dim_of(n, nu), f"{job.label}: dim")
        if suite == "intertwine":
            require(doc["series"] == n * n, f"{job.label}: series count")
        if suite == "words":
            require(doc["words"] == count_reduced_words(len(nu)),
                    f"{job.label}: word count")
        if suite == "composite":
            m = len(nu)
            ab = [(a, b) for a in range(m) for b in range(a + 1, m)]
            want_k = sum(nu[a] * nu[b] for a, b in ab if nu[a] < 0)
            want_l = sum(nu[a] * nu[b] for a, b in ab if nu[b] < 0)
            want_m = sum(d * (d - 1) // 2 for d in nu if d < 0)
            require((doc["K"], doc["L"], doc["M"]) == (want_k, want_l,
                                                       want_m),
                    f"{job.label}: flip statistics")
            s1, s2 = doc["hv_signs"]
            require(doc["sign"] == s1 * s2, f"{job.label}: composite sign")
            require(n % 2 or doc["sign"] == 1,
                    f"{job.label}: sign must be +1 for even n")
