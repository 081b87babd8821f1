"""The twelve acceptance criteria, one callable each, all exact.

Every criterion either returns a CriterionResult with passed=True or raises;
there are no tolerances anywhere — matrices, polynomials, and rational
functions are compared structurally.  Criteria with a wall-clock budget
enforce it themselves, so a pathological slowdown fails the run rather
than silently eating the suite's time.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .battery import (KERNEL_SPEC, dominant_battery, mixed_battery,
                      rtt_battery, word_battery)
from .drinfeld import (DrinfeldData, PairSet, classify_kind, data_of_module,
                       dominant_spec_of_pairs, realize, reduce_minimal)
from .duality import R_map, composite_check, iso_covector
from .exact import ONE, Poly
from .glmops import E_op, EE_op
from .grassmann import Grassmann
from .intertwiner import (Intertwiner, NotDominant, build_I, elementary,
                          image_analysis, intertwine_check,
                          word_independence_check)
from .yangian import (ModuleSpec, eigen_closed, eigen_series, eigenform_check,
                      rtt_check)


class CriterionFailed(AssertionError):
    """An acceptance criterion did not hold."""


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (f"criterion {self.number:2d} {self.name}: {verdict} "
                f"({self.detail}; {self.seconds:.1f}s)")


def _finish(number: int, name: str, budget: Optional[float], started: float,
            detail: str) -> CriterionResult:
    elapsed = time.perf_counter() - started
    if budget is not None and elapsed >= budget:
        raise CriterionFailed(
            f"criterion {number} blew its {budget:.0f}s budget: {elapsed:.1f}s")
    return CriterionResult(number, name, True, detail, elapsed)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CriterionFailed(message)


# ----------------------------------------------------------------- criteria

def criterion_1() -> CriterionResult:
    """Lie-algebra commutators of the row-transfer operators, exhaustively."""
    started = time.perf_counter()
    checked = 0
    for m, n in itertools.product((1, 2, 3), repeat=2):
        G = Grassmann(m, n)
        monos = [G.monomial(G.slots_of(k)) for k in range(1 << (m * n))]
        images = {(a, b): [E_op(a, b, v) for v in monos]
                  for a in range(1, m + 1) for b in range(1, m + 1)}
        for a, b, c, d in itertools.product(range(1, m + 1), repeat=4):
            for k, v in enumerate(monos):
                lhs = E_op(a, b, images[(c, d)][k]) \
                    - E_op(c, d, images[(a, b)][k])
                want = G.zero()
                if b == c:
                    want = want + images[(a, d)][k]
                if d == a:
                    want = want - images[(c, b)][k]
                _require(lhs.terms == want.terms,
                         f"[E_{a}{b}, E_{c}{d}] fails at m={m}, n={n}")
                checked += 1
    for m, n in itertools.product((1, 2), repeat=2):
        G = Grassmann(m, n)
        monos = [G.monomial(G.slots_of(k)) for k in range(1 << (m * n))]
        for eps in itertools.product((1, -1), repeat=m):
            for a, b, c, d in itertools.product(range(1, m + 1), repeat=4):
                for v in monos:
                    lhs = EE_op(eps, a, b, EE_op(eps, c, d, v)) \
                        - EE_op(eps, c, d, EE_op(eps, a, b, v))
                    want = G.zero()
                    if b == c:
                        want = want + EE_op(eps, a, d, v)
                    if d == a:
                        want = want - EE_op(eps, c, b, v)
                    _require(lhs.terms == want.terms,
                             f"signed commutator fails at eps={eps}")
                    checked += 1
    return _finish(1, "transfer-operator commutators", 60.0, started,
                   f"{checked} commutator identities")


def criterion_2() -> CriterionResult:
    """The defining relation over the battery, proved on each module by its
    residual's integer coefficients; the verdict counts the sample pairs of
    the grids that each proof covers."""
    started = time.perf_counter()
    battery = rtt_battery()
    pairs = 0
    for spec in battery:
        pairs += rtt_check(spec).pairs
    return _finish(2, "defining relations", 300.0, started,
                   f"{len(battery)} specs, {pairs} sample pairs")


def criterion_3() -> CriterionResult:
    """The canonical operator commutes with every generator series."""
    started = time.perf_counter()
    battery = dominant_battery()
    for spec in battery:
        intertwine_check(spec, build_I(spec))
    return _finish(3, "intertwining", 600.0, started,
                   f"{len(battery)} dominant specs, all n^2 series each")


def criterion_4() -> CriterionResult:
    """The canonical operator fixes the distinguished vector exactly."""
    started = time.perf_counter()
    battery = dominant_battery()
    for spec in battery:
        _require(build_I(spec).hv_scale() == 1,
                 f"distinguished vector moves under the operator on {spec}")
    return _finish(4, "distinguished-vector normalization", None, started,
                   f"{len(battery)} specs, operator nonzero on each")


def criterion_5() -> CriterionResult:
    """Diagonal eigenvalues on the distinguished vector match closed forms."""
    started = time.perf_counter()
    battery = rtt_battery()
    values = 0
    for spec in battery:
        for i in range(1, spec.n + 1):
            _require(eigen_series(spec, i) == eigen_closed(spec, i),
                     f"eigenvalue {i} disagrees on {spec}")
            values += 1
    return _finish(5, "eigenvalue product forms", None, started,
                   f"{values} eigenvalues over {len(battery)} specs")


def criterion_6() -> CriterionResult:
    """Every reduced word of the longest element builds the same operator."""
    started = time.perf_counter()
    want_words = {3: 2, 4: 16}
    total = 0
    for m, specs in word_battery().items():
        for spec in specs:
            report = word_independence_check(spec)
            _require(report.passed and report.words == want_words[m],
                     f"word count off on {spec}")
            total += report.words
    count = sum(map(len, word_battery().values()))
    return _finish(6, "word independence", None, started,
                   f"{total} reduced words compared across {count} specs")


def criterion_7() -> CriterionResult:
    """Adjacent-swap proportionality and the two-sided inverse pair."""
    started = time.perf_counter()
    proportional = inverses = 0
    for spec in dominant_battery():
        if spec.m < 2 or any(d < 0 for d in spec.nu):
            continue
        for a in range(1, spec.m):
            try:
                i_op = elementary("I_a", spec, a)
            except NotDominant:
                continue
            mu_d = spec.mu[a - 1] - spec.mu[a]
            lam_d = spec.lam[a - 1] - spec.lam[a]
            try:
                j_op = elementary("J_a", spec, a)
            except NotDominant:
                j_op = None
            if j_op is not None:
                _require(all(mu_d * i_op.matrix[r][c] ==
                             lam_d * j_op.matrix[r][c]
                             for r in range(spec.dim)
                             for c in range(spec.dim)),
                         f"swap proportionality fails at a={a} on {spec}")
                proportional += 1
            try:
                j_back = elementary("J_a_prime", spec, a)
            except NotDominant:
                continue
            left = j_back.compose(i_op).matrix
            right = i_op.compose(j_back).matrix
            _require(all(left[r][c] == right[r][c] ==
                         (1 if r == c else 0)
                         for r in range(spec.dim) for c in range(spec.dim)),
                     f"swap inverses fail at a={a} on {spec}")
            inverses += 1
    _require(proportional > 0 and inverses > 0,
             "battery offered no spec satisfying the preconditions")
    return _finish(7, "elementary swap relations", None, started,
                   f"{proportional} proportionality, {inverses} inverse pairs")


def criterion_8() -> CriterionResult:
    """Single-row complementation: intertwining and double application."""
    started = time.perf_counter()
    count = 0
    for n in (2, 3):
        for d in range(n + 1):
            for z in (Fraction(0), Fraction(1, 2)):
                iso = iso_covector(n, d, z)
                intertwine_check(iso.spec, iso)
                count += 1
    for n in range(1, 5):
        G = Grassmann(1, n)
        sign = -1 if (n * (n - 1) // 2) % 2 else 1
        for k in range(1 << n):
            v = G.monomial(G.slots_of(k))
            _require(R_map(n, R_map(n, v)).terms == v.scale(
                Fraction(sign)).terms,
                f"double complement misses the half-turn sign at n={n}")
    return _finish(8, "covector complement", None, started,
                   f"{count} isomorphisms, double application up to n=4")


def criterion_9() -> CriterionResult:
    """Brute-force spectra of the diagonal series split into product forms."""
    started = time.perf_counter()
    checked = 0
    for spec in rtt_battery():
        if spec.dim <= 16:
            eigenform_check(spec)
            checked += 1
    return _finish(9, "diagonal spectra", 300.0, started,
                   f"{checked} characteristic polynomials split")


def _generated_data() -> list[DrinfeldData]:
    roots = (Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2))
    out = []
    for n in (2, 3):
        for r1 in roots:
            for r2 in roots:
                p_polys = [Poly.from_roots([r1])] + [ONE] * (n - 2)
                out.append(DrinfeldData(tuple(p_polys),
                                        Poly.from_roots([r2]), ONE))
                if r2 != r1:  # distinct roots keep the quotient coprime
                    out.append(DrinfeldData(tuple(p_polys),
                                            Poly.from_roots([r1]),
                                            Poly.from_roots([r2])))
    return out


def criterion_10() -> CriterionResult:
    """Classification data round trips; reduction preserves it."""
    started = time.perf_counter()
    datas = _generated_data()
    _require(len(datas) >= 20, "generator produced too few instances")
    kinds = {classify_kind(d) for d in datas}
    _require(kinds == {"polynomial", "rational"},
             "generator must cover both data kinds")
    for data in datas:
        _require(data_of_module(realize(data)) == data,
                 f"round trip fails for {data}")
    # reduction: fuse in several orders, compare size and realized data
    pairs = PairSet(((1, Fraction(0)), (-2, Fraction(0)), (2, Fraction(3)),
                     (-2, Fraction(3))))
    reduced = reduce_minimal(pairs, 2)
    for perm in itertools.permutations(pairs.pairs):
        again = reduce_minimal(PairSet(tuple(perm)), 2)
        _require(len(again) == len(reduced),
                 "reduction size depends on the order")
    _require(data_of_module(dominant_spec_of_pairs(pairs, 2)) ==
             data_of_module(dominant_spec_of_pairs(reduced, 2)),
             "reduction changed the classification data")
    # the two realizations of one negative factor carry the same data
    dual_pairs = 0
    for n in (2, 3):
        for d in range(1, n + 1):
            for z in (Fraction(0), Fraction(1, 2)):
                one = data_of_module(ModuleSpec.make(n, (z,), (-d,)))
                two = data_of_module(
                    ModuleSpec.make(n, (z, z), (n - d, -n)))
                _require(one == two,
                         f"dual realizations disagree at n={n}, d={d}")
                dual_pairs += 1
    return _finish(10, "classification round trip", None, started,
                   f"{len(datas)} data instances, {dual_pairs} dual pairs")


def criterion_11() -> CriterionResult:
    """Mixed-sign operators rebuilt exactly by complementation conjugation."""
    started = time.perf_counter()
    battery = mixed_battery()
    flips = 0
    for spec in battery:
        report = composite_check(spec)
        _require(report.passed and report.composite_sign ==
                 report.forward_hv_sign * report.reversed_hv_sign,
                 f"composite sign bookkeeping off on {spec}")
        flips += 1
    return _finish(11, "complementation composite", None, started,
                   f"{flips} mixed-sign specs, exact matrix equality")


def criterion_12() -> CriterionResult:
    """Highest-weight verdicts: every battery image is irreducible."""
    started = time.perf_counter()
    battery = dominant_battery()
    kernel_seen = False
    for spec in battery:
        inter = build_I(spec)
        report = image_analysis(spec, inter)
        _require(report.irreducible is True,
                 f"image not certified irreducible on {spec}")
        if report.rank < inter.dim:
            kernel_seen = True
    _require(kernel_seen, "battery lacks a proper-kernel witness")
    _require(image_analysis(KERNEL_SPEC, build_I(KERNEL_SPEC)).rank == 3,
             "kernel witness no longer has rank 3")
    dim = KERNEL_SPEC.dim
    whole = Intertwiner(KERNEL_SPEC, KERNEL_SPEC, tuple(
        tuple(Fraction(int(r == c)) for c in range(dim)) for r in range(dim)))
    _require(image_analysis(KERNEL_SPEC, whole).irreducible is False,
             "reducible kernel-witness module certified irreducible")
    return _finish(12, "irreducibility oracle", 600.0, started,
                   f"{len(battery)} images generated by a singular line,"
                   " reducible kernel witness refuted")


ALL_CRITERIA: tuple[Callable[[], CriterionResult], ...] = (
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
    criterion_11, criterion_12)
