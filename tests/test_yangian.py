"""Standard modules: factor matrices, coproduct assembly, eigen data, RTT."""

import functools
import importlib
import pkgutil
from fractions import Fraction as F
from math import isqrt

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ylab
import ylab.intertwiner as itw
import ylab.yangian as ya
from reference_coproduct import (cleared, reference_action, reference_factor,
                                 reference_table)
from ylab.battery import dominant_battery, mixed_battery, rtt_battery
from ylab.exact import ONE, ZERO, Poly, RatFun, linear
from ylab.grassmann import Grassmann
from ylab.yangian import (ActionMatrix, ModuleSpec, NoCandidateFactorization,
                          RelationViolated, eigen_closed, eigen_series,
                          eigenform_check, factor_action, highest_vector,
                          module_action, rtt_check, wedge_basis)

RF1 = RatFun.of(ONE)


def rf(num, den=ONE):
    return RatFun(num, den)


# ------------------------------------------------------------- single factors

def test_vector_factor_raising_entry():
    mat = factor_action(2, 1, 5, 1, 2)
    assert mat[0][1] == rf(ONE, linear(5))          # e_2 -> e_1/(u-5)
    assert mat[1][0].is_zero() and mat[0][0].is_zero() and mat[1][1].is_zero()


def test_covector_factor_raising_entry():
    z = F(3)
    mat = factor_action(2, -1, z, 1, 2)
    assert mat[1][0] == rf(-ONE, linear(z - 1))     # e_1 -> -e_2/(u-z+1)
    assert mat[0][1].is_zero()


def test_determinantal_factors_are_scalar():
    top = factor_action(2, 2, 0, 1, 1)
    assert top == ((rf(linear(-1), linear(0)),),)   # (u+1)/u
    assert factor_action(2, 2, 0, 1, 2) == ((RatFun.of(0),),)
    bot = factor_action(2, -2, 0, 1, 1)
    assert bot == ((rf(linear(0), linear(-1)),),)   # u/(u+1)


def test_degree_zero_factor_is_identity():
    assert factor_action(3, 0, 7, 2, 2) == ((RF1,),)
    assert factor_action(3, 0, 7, 1, 2) == ((RatFun.of(0),),)


def test_factor_rejects_oversized_degree():
    with pytest.raises(ValueError):
        factor_action(2, 3, 0, 1, 1)


def test_diagonal_factor_entries_sum_pattern():
    # on Lambda^1(C^3), T_ii has (u-z+1)/(u-z) at e_i and 1 elsewhere
    mat = factor_action(3, 1, 2, 2, 2)
    assert mat[1][1] == rf(linear(1), linear(2))
    assert mat[0][0] == RF1 and mat[2][2] == RF1


def textbook_unit(n, k, i, j):
    """E_ij on Lambda^k(C^n) as {(row, col): coefficient}: E_ij acts on each
    wedge factor in turn, e_j -> e_i, and the wedge is put back in order
    with the sign of the sorting permutation."""
    basis = wedge_basis(n, k)
    out = {}
    for col, tup in enumerate(basis):
        for s, x in enumerate(tup):
            new = tup[:s] + (i,) + tup[s + 1:]
            if x != j or len(set(new)) < k:
                continue
            inversions = sum(a > b for p, a in enumerate(new)
                             for b in new[p + 1:])
            key = (basis.index(tuple(sorted(new))), col)
            out[key] = out.get(key, 0) + (-1) ** inversions
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_factor_table_matches_textbook_units(n):
    """The Poly grid is delta_ij den + E_ij (d > 0) or - E_ji (d < 0) over
    den = u - z or u - z + 1, and the identity over 1 when d = 0; the
    integer table is that grid and den times b, for z = a/b, on the nonzero
    entries in C order."""
    for d in range(-n, n + 1):
        size = len(wedge_basis(n, abs(d)))
        for z in (F(0), F(1), F(-1), F(1, 2), F(-2, 3), F(7, 5)):
            den = ONE if d == 0 else linear(z) if d > 0 else linear(z - 1)
            grid = []
            for i in range(1, n + 1):
                row = []
                for j in range(1, n + 1):
                    unit = (textbook_unit(n, d, i, j) if d >= 0 else
                            {rc: -x for rc, x
                             in textbook_unit(n, -d, j, i).items()})
                    row.append(tuple(tuple(
                        (den if i == j and r == c else ZERO)
                        + Poly.constant(unit.get((r, c), 0))
                        for c in range(size)) for r in range(size)))
                grid.append(tuple(row))
            assert reference_factor(n, d, z) == (tuple(grid), den)
            b = 1 if d == 0 else z.denominator

            def scaled(p):
                return tuple(int(b * x) for x in p.coeffs)

            table = tuple(tuple(
                tuple((r, c, scaled(p)) for r, row in enumerate(mat)
                      for c, p in enumerate(row) if p)
                for mat in row) for row in grid)
            assert ya._factor_table(n, d, z) == (scaled(den), table)


def test_module_tables_keep_their_memo_reset():
    """Callers that time cold work, such as the benchmark, reset both memo
    tables with cache_clear.  They are the only memos on the table path,
    and the package holds no other memo but the reduced-word one, so after
    the clears a module table is built again from the factors."""
    assert ya.action_table.cache_info().maxsize == 32
    assert ya._factor_table.cache_info().maxsize is None
    modules = [importlib.import_module(f"ylab.{info.name}")
               for info in pkgutil.iter_modules(ylab.__path__)]
    memos = {value for module in modules for value in vars(module).values()
             if hasattr(value, "cache_clear")}
    assert memos == {ya.action_table, ya._factor_table,
                     itw._reduced_words_of}
    spec = ModuleSpec.make(2, (F(1, 2), 3, F(1, 2)), (1, -2, 1))
    before = ya.action_table(spec)
    ya.action_table.cache_clear()
    ya._factor_table.cache_clear()
    assert ya.action_table(spec) == before
    assert ya.action_table.cache_info().misses == 1
    assert ya.action_table.cache_info().hits == 0
    assert ya._factor_table.cache_info().misses == 2
    assert ya._factor_table.cache_info().hits == 1


def test_module_table_is_the_reference_coproduct_up_to_scale():
    """On every battery spec the integer table is the Fraction coproduct
    cleared to integers times one positive rational, and the RatFun
    matrices and eigenvalues built from it are the Poly grid's."""
    specs = dict.fromkeys(rtt_battery() + dominant_battery()
                          + mixed_battery())
    for spec in specs:
        den, table = ya.action_table(spec)
        ref_den, ref_table = cleared(spec)
        scale = F(den[-1], ref_den[-1])
        assert scale > 0

        def scaled(cs):
            return tuple(scale * x for x in cs)

        assert den == scaled(ref_den)
        assert table == tuple(tuple(tuple((r, c, scaled(cs))
                                          for r, c, cs in entries)
                                    for entries in row) for row in ref_table)
        grid, poly_den = reference_table(spec)
        col = highest_vector(spec).index
        for i in range(1, spec.n + 1):
            for j in range(1, spec.n + 1):
                assert module_action(spec, i, j).entries == \
                    reference_action(spec, i, j)
            assert eigen_series(spec, i) == RatFun(
                grid[i - 1][i - 1][col][col], poly_den)


# ------------------------------------------------------------ module assembly

def test_single_factor_module_matches_factor():
    spec = ModuleSpec.make(3, (F(1, 2),), (2,))
    for i in range(1, 4):
        for j in range(1, 4):
            assert module_action(spec, i, j).entries == \
                factor_action(3, 2, F(1, 2), i, j)


def test_two_vector_factors_diagonal_action():
    z1, z2 = F(0), F(3)
    spec = ModuleSpec.make(2, (z1, z2), (1, 1))
    act = module_action(spec, 1, 1)
    # basis order: e1 x e1, e1 x e2, e2 x e1, e2 x e2
    col = [act.entries[r][1] for r in range(4)]
    assert col[1] == rf(linear(z1 - 1), linear(z1))
    assert col[0].is_zero() and col[2].is_zero() and col[3].is_zero()


def test_trivial_factor_insertion_changes_nothing():
    base = ModuleSpec.make(2, (F(1, 2),), (1,))
    padded = ModuleSpec.make(2, (F(1, 2), 9), (1, 0))
    for i in range(1, 3):
        for j in range(1, 3):
            assert module_action(base, i, j).entries == \
                module_action(padded, i, j).entries


@pytest.mark.parametrize("extra,scalar_num,scalar_den", [
    (-2, linear(4), linear(3)),   # bottom determinantal: (u-4)/(u-3)
    (2, linear(3), linear(4)),    # top determinantal: (u-4+1)/(u-4)
])
def test_determinantal_factor_is_central_scalar(extra, scalar_num, scalar_den):
    spec = ModuleSpec.make(2, (0, F(1, 2)), (1, -1))
    ext = ModuleSpec.make(2, (0, F(1, 2), 4), (1, -1, extra))
    scalar = rf(scalar_num, scalar_den)
    for i in range(1, 3):
        for j in range(1, 3):
            a = module_action(spec, i, j).entries
            b = module_action(ext, i, j).entries
            assert all(b[r][c] == a[r][c] * scalar
                       for r in range(spec.dim) for c in range(spec.dim))


def test_module_action_entries_are_proper():
    spec = ModuleSpec.make(3, (0, 2, F(-1, 2)), (1, -2, 3))
    bound = spec.denominator_bound()
    act = module_action(spec, 2, 3)
    assert isinstance(act, ActionMatrix)
    for row in act.entries:
        for f in row:
            assert (bound % f.den).is_zero()
            assert f.num.degree <= f.den.degree


def test_spec_validation_and_derived_data():
    with pytest.raises(ValueError):
        ModuleSpec.make(2, (0,), (3,))          # |nu| > n
    with pytest.raises(ValueError):
        ModuleSpec(2, 2, (F(0),), (1, 1))       # length mismatch
    spec = ModuleSpec.make(3, (0, F(1, 2), -2), (2, -1, 3))
    assert spec.lam == (2, F(-1, 2), 1)
    assert spec.eps == (1, -1, 1)
    assert spec.nubar == (2, 2, 3)
    assert spec.lambar == (2, F(5, 2), 1)
    assert spec.dim == 3 * 3 * 1
    assert spec.permuted((2, 3, 1)).mu == (-2, 0, F(1, 2))


# ------------------------------------------------------------ highest vectors

def test_highest_vector_examples():
    assert highest_vector(ModuleSpec.make(2, (0,), (2,))).index == 0
    hv = highest_vector(ModuleSpec.make(3, (0,), (-2,)))
    assert wedge_basis(3, 2)[hv.index] == (2, 3)
    hv2 = highest_vector(ModuleSpec.make(2, (0, 0), (1, -1)))
    assert hv2.index == 1 and hv2.coords[1] == 1
    assert sum(hv2.coords) == 1


def test_highest_vector_matches_grassmann_encoding():
    spec = ModuleSpec.make(3, (0, 1, 2), (2, -1, 3))
    G = Grassmann(spec.m, spec.n)
    tuples = tuple(ya.highest_factor_tuple(spec.n, d) for d in spec.nu)
    mask = G.alpha_encode(tuples)
    basis = G.basis_of_weight(spec.abs_nu)
    assert basis.index(mask) == highest_vector(spec).index


# ---------------------------------------------------------------- eigenvalues

def test_eigen_closed_all_vector_factors():
    z1, z2 = F(0), F(5)
    spec = ModuleSpec.make(2, (z1, z2), (2, 1))
    a1 = eigen_series(spec, 1)
    assert a1 == rf(linear(z1 - 1) * linear(z2 - 1), linear(z1) * linear(z2))
    a2 = eigen_series(spec, 2)
    assert a2 == rf(linear(z1 - 1), linear(z1))


def test_eigen_closed_full_covector():
    spec = ModuleSpec.make(2, (F(1, 2),), (-2,))
    for i in (1, 2):
        assert eigen_series(spec, i) == rf(linear(F(1, 2)), linear(F(-1, 2)))


def test_eigen_trivial_module():
    spec = ModuleSpec.make(3, (4, -1), (0, 0))
    assert all(eigen_series(spec, i) == RF1 for i in (1, 2, 3))


def test_eigen_series_mixed_spec_consistent():
    spec = ModuleSpec.make(3, (0, 5, F(1, 2)), (1, -1, 2))
    for i in (1, 2, 3):
        assert eigen_series(spec, i) == eigen_closed(spec, i)


# -------------------------------------------------------------- RTT sampling

@pytest.mark.parametrize("n,mu,nu", [
    (2, (0,), (1,)),
    (2, (F(1, 2),), (-1,)),
    (3, (2,), (3,)),
    (2, (0, 1), (1, 1)),
    (2, (0, 0), (1, -1)),
    (3, (0, F(1, 2)), (2, -1)),
])
def test_rtt_passes(n, mu, nu):
    spec = ModuleSpec.make(n, mu, nu)
    report = rtt_check(spec)
    assert report.passed and report.pairs > 2 * report.degree_bound


def test_rtt_rejects_undersampling():
    spec = ModuleSpec.make(2, (0,), (1,))
    with pytest.raises(ValueError):
        rtt_check(spec, samples=6)


def dense_rtt_check(spec, samples=None):
    """rtt_check's reference: every product of the dense tensors, by einsum.

    Same table, laid out densely, and the same integer samples as
    rtt_check, but all n^2 dim^2 entries take part, each grid pair is
    sampled and compared on its own on the full (n, n, n, n, dim, dim)
    tensors, and each pair picks int64 or object by its own bound.
    """
    need = 4 * spec.m + 3
    samples = need * need if samples is None else samples
    per_axis = max(need, isqrt(samples - 1) + 1)
    poles = set(spec.mu) | {z - 1 for z in spec.mu}
    us = ya._integer_samples(per_axis, poles, 1, 1)
    vs = ya._integer_samples(per_axis, poles, -1, -1)
    n, dim = spec.n, spec.dim
    _, table = ya.action_table(spec)
    width = max((len(cs) for row in table for entries in row
                 for _, _, cs in entries), default=0)
    coeffs = np.zeros((n, n, dim, dim, width), dtype=object)
    for i in range(n):
        for j in range(n):
            for r, c, cs in table[i][j]:
                coeffs[i, j, r, c, :len(cs)] = cs

    def sample(w):
        mats = coeffs.dot(np.array([w ** k for k in range(width)],
                                   dtype=object))
        return mats, np.abs(mats).max()

    for u0 in us:
        X, bx = sample(u0)
        for v0 in vs:
            Y, by = sample(v0)
            worst = 2 * abs(u0 - v0) * dim * bx * by
            dtype = np.int64 if worst < 2 ** 62 else object
            Xd, Yd = X.astype(dtype), Y.astype(dtype)
            P = np.einsum("abij,cdjk->abcdik", Xd, Yd)
            Q = np.einsum("abij,cdjk->abcdik", Yd, Xd)
            lhs = (u0 - v0) * (P - Q.transpose(2, 3, 0, 1, 4, 5))
            rhs = (P.transpose(2, 1, 0, 3, 4, 5)
                   - Q.transpose(2, 1, 0, 3, 4, 5))
            if not (lhs == rhs).all():
                bad = next(zip(*np.nonzero(lhs != rhs)))
                i, j, k, l = (int(b) + 1 for b in bad[:4])
                raise RelationViolated(
                    f"defining relation fails at (i,j,k,l)=({i},{j},{k},{l}),"
                    f" u={u0}, v={v0} on {spec}")
    return ya.RttReport(spec, len(us) * len(vs), 4 * spec.m + 2, True)


def rtt_outcome(check, spec, samples=None):
    """The report of check(spec, samples), or the text of the
    RelationViolated."""
    try:
        return check(spec, samples)
    except RelationViolated as exc:
        return str(exc)


def corrupt(monkeypatch, spec, a, b, r, c, change):
    """Make action_table serve spec's integer table with entry (r, c) of
    T_ab replaced by change(coefficients); an entry that changes to no
    coefficients leaves the support, and one that was absent joins it."""
    den, table = ya.action_table(spec)
    rows = [list(row) for row in table]
    entries = {(rr, cc): cs for rr, cc, cs in rows[a][b]}
    new = tuple(change(entries.pop((r, c), ())))
    if new:
        entries[r, c] = new
    rows[a][b] = tuple((rr, cc, cs)
                       for (rr, cc), cs in sorted(entries.items()))
    corrupted = tuple(map(tuple, rows))
    monkeypatch.setattr(ya, "action_table", lambda s: (den, corrupted))


def cells(spec, a, b, nonzero):
    """The (r, c) of T_ab's nonzero entries, or of its zero entries."""
    support = {(r, c) for r, c, _ in ya.action_table(spec)[1][a][b]}
    return [(r, c) for r in range(spec.dim) for c in range(spec.dim)
            if ((r, c) in support) == nonzero]


CORRUPTIONS = [
    (True, lambda cs: ya._iu_add(cs, [1])),   # a supported entry changes
    (True, lambda cs: ()),                    # a nonzero entry leaves
    (False, lambda cs: (2, 1)),               # a zero entry joins, as u + 2
]


def test_rtt_detects_corruption(monkeypatch):
    """rtt_check samples the shared action_table, so corrupting any entry
    of T_12 or T_21, on the support or off it, is seen, and named as the
    dense reference names it."""
    spec = ModuleSpec.make(2, (0, 1), (1, 1))
    for nonzero, change in CORRUPTIONS:
        for a, b in ((0, 1), (1, 0)):
            for r, c in cells(spec, a, b, nonzero):
                with monkeypatch.context() as patch:
                    corrupt(patch, spec, a, b, r, c, change)
                    with pytest.raises(RelationViolated) as exc:
                        rtt_check(spec)
                    assert str(exc.value) == rtt_outcome(dense_rtt_check,
                                                         spec)


@pytest.mark.parametrize("block", [1, 300, 2000, ya._GRID_BLOCK])
def test_rtt_grid_blocks(monkeypatch, block):
    """Grid blocks of one pair, of 4 pairs of a row, of 2 rows and of the
    whole grid (the module has 68 tested positions) give the dense
    reference's outcome, on the table and on corrupted copies.  Adding
    u^2 - 4 keeps the first pair (2, -2) clean, so the failure is named
    further along its row.  Adding a multiple of every grid value but the
    last v, -14, leaves only the pairs (u, -14) failing, and likewise for
    the last u, 14, so a block left out would pass them."""
    spec = ModuleSpec.make(2, (0, 1), (1, 1))
    samples = 12 * 12 + 5     # 13 values per axis
    assert len(ya._residual_coefficients(spec)[0]) == 68
    monkeypatch.setattr(ya, "_GRID_BLOCK", block)
    assert rtt_check(spec, samples) == dense_rtt_check(spec, samples)
    us, vs = range(2, 15), range(-2, -15, -1)

    def vanishing(roots):
        late = functools.reduce(ya._iu_mul, ([-z, 1] for z in roots))
        return lambda cs: ya._iu_add(cs, late)

    changes = [change for _, change in CORRUPTIONS[:2]]
    named = []
    for change in changes + [lambda cs: ya._iu_add(cs, [-4, 0, 1]),
                             vanishing([*us, *vs[:-1]]),
                             vanishing([*us[:-1], *vs])]:
        (r, c), *_ = cells(spec, 0, 1, True)
        with monkeypatch.context() as patch:
            corrupt(patch, spec, 0, 1, r, c, change)
            outcome = rtt_outcome(rtt_check, spec, samples)
            assert outcome == rtt_outcome(dense_rtt_check, spec, samples)
            named.append(outcome.split(", ", 1)[1])
    assert named[2:] == [f"u=2, v=-3 on {spec}", f"u=2, v=-14 on {spec}",
                         f"u=14, v=-2 on {spec}"]


def test_rtt_on_an_empty_table(monkeypatch):
    """A table corrupted to no nonzero entry leaves no position to test;
    the check still samples the whole grid and passes, as the dense
    reference does."""
    spec = ModuleSpec.make(1, (0,), (0,))
    corrupt(monkeypatch, spec, 0, 0, 0, 0, lambda cs: ())
    assert len(ya._residual_coefficients(spec)[0]) == 0
    assert rtt_check(spec) == dense_rtt_check(spec)


def test_rtt_object_dtype_path(monkeypatch):
    """Shift denominators near 10^9 push the sampled products past int64,
    so the check runs on Python integers; it still passes and still
    catches a corrupted table."""
    spec = ModuleSpec.make(2, (F(1, 10**9 + 7), F(3, 10**9 + 9)), (1, -1))
    _, table = ya.action_table(spec)
    rows = [cs for row in table for entries in row for _, _, cs in entries]

    def peak(w):
        return max(abs(sum(x * w ** k for k, x in enumerate(r))) for r in rows)

    assert peak(1) * peak(-1) >= 2 ** 62     # the first pair is past int64
    # so is the bound 6 g c^2 on the coefficient arrays, as g >= 1
    big = max(abs(x) for r in rows for x in r)
    assert 6 * big * big >= 2 ** 63
    assert ya._residual_coefficients(spec)[1].dtype == object
    assert rtt_check(spec).passed
    corrupt(monkeypatch, spec, 1, 0, *cells(spec, 1, 0, True)[0],
            lambda cs: (0, *cs))    # times u
    with pytest.raises(RelationViolated):
        rtt_check(spec)


# ------------------------------------------------------- eigenvalue spectrum

def test_spectrum_single_vector_factor():
    report = eigenform_check(ModuleSpec.make(2, (0,), (1,)))
    assert report.passed
    # multiset {1, (u+1)/u}: labels are (I, J, multiplicity)
    assert sorted(report.spectrum[0]) == [((), (), 1), ((0,), (), 1)]


def test_spectrum_single_covector_factor():
    report = eigenform_check(ModuleSpec.make(2, (F(1, 2),), (-1,)))
    assert sorted(report.spectrum[0]) == [((), (), 1), ((), (0,), 1)]


def test_spectrum_two_vector_factors():
    report = eigenform_check(ModuleSpec.make(2, (0, 5), (1, 1)))
    assert report.dim == 4
    assert sorted(report.spectrum[0]) == [
        ((), (), 1), ((0,), (), 1), ((0, 1), (), 1), ((1,), (), 1)]


def test_spectrum_mixed_signs():
    report = eigenform_check(ModuleSpec.make(2, (0, 5), (1, -1)))
    assert report.passed and report.dim == 4


def test_spectrum_multiplicity_two():
    # equal shifts make I = (0,) and I = (1,) one candidate, first label kept
    report = eigenform_check(ModuleSpec.make(2, (0, 0), (1, 1)))
    expected = (((), (), 1), ((0,), (), 2), ((0, 1), (), 1))
    assert report.spectrum == (expected, expected)


def test_spectrum_missing_candidate_raises(monkeypatch):
    orig = ya.eigen_candidates

    def one_short(spec):
        cands = orig(spec)
        del cands[next(iter(cands))]
        return cands

    monkeypatch.setattr(ya, "eigen_candidates", one_short)
    with pytest.raises(NoCandidateFactorization, match="degree 1 left"):
        eigenform_check(ModuleSpec.make(2, (0, 5), (1, 1)))


def test_spectrum_dimension_cap():
    with pytest.raises(ValueError):
        eigenform_check(ModuleSpec.make(3, (0, 1, 2, 3), (1, 1, 1, 1)))


def dense_eigenform_check(spec):
    """eigenform_check's reference: one characteristic polynomial of the
    whole dim x dim matrix, deflated by the same candidates in the same
    order."""
    den, table = ya.action_table(spec)
    cands = [(ya._primitive_pair(g), label) for g, label
             in sorted(ya.eigen_candidates(spec).items(),
                       key=lambda kv: str(kv[0]))]
    spectra = []
    for i in range(spec.n):
        char = ya._char_poly_in_t({(r, c): cs for r, c, cs in table[i][i]},
                                  den, spec.dim)
        counts = []
        for (N, D), label in cands:
            mult = 0
            while len(char) > 1:
                val, dpow = char[-1], [1]
                for c in reversed(char[:-1]):
                    dpow = ya._iu_mul(dpow, D)
                    val = ya._iu_add(ya._iu_mul(val, N), ya._iu_mul(c, dpow))
                if val:
                    break
                char = ya._it_div(char, [[-x for x in N], D])
                mult += 1
            if mult:
                counts.append((label[0], label[1], mult))
        if len(char) > 1:
            raise NoCandidateFactorization(
                f"T_{i + 1}{i + 1} spectrum does not split into product forms"
                f" (degree {len(char) - 1} left) on {spec}")
        spectra.append(tuple(counts))
    if any(s != spectra[0] for s in spectra[1:]):
        raise NoCandidateFactorization(
            f"diagonal spectra differ between indices on {spec}")
    return ya.EigenReport(spec, spec.dim, tuple(spectra), True)


def eigen_outcome(check, spec):
    """The report of check(spec), or the text of the
    NoCandidateFactorization."""
    try:
        return check(spec)
    except NoCandidateFactorization as exc:
        return str(exc)


def test_spectrum_removed_candidate_counts_every_block(monkeypatch):
    """Without the double eigenvalue (u+1)/u, the two-row weight block of
    T_ii keeps degree 2, and both paths say so."""
    spec = ModuleSpec.make(2, (0, 0), (1, 1))
    orig = ya.eigen_candidates

    def without_double(spec):
        return {g: label for g, label in orig(spec).items()
                if label != ((0,), ())}

    monkeypatch.setattr(ya, "eigen_candidates", without_double)
    for check in (eigenform_check, dense_eigenform_check):
        with pytest.raises(NoCandidateFactorization, match="degree 2 left"):
            check(spec)


def test_spectrum_split_follows_a_corrupted_support(monkeypatch):
    """An off-diagonal entry, or a symmetric pair, put between two weight
    blocks of T_ii joins them in the table's support; the split follows the
    table, so the report or failure text matches the whole-matrix path."""
    spec = ModuleSpec.make(2, (0, 3), (1, 1))
    outcomes = set()
    for i in range(spec.n):
        blocks = ya._support_blocks(ya.action_table(spec)[1][i][i],
                                    spec.dim)
        assert len(blocks) == 3
        home = {r: b for b, block in enumerate(blocks) for r in block}
        for r in range(spec.dim):
            for c in range(spec.dim):
                if home[r] == home[c]:
                    continue
                for pair in (False, True):
                    with monkeypatch.context() as patch:
                        corrupt(patch, spec, i, i, r, c, lambda cs: (2, 1))
                        if pair:
                            corrupt(patch, spec, i, i, c, r, lambda cs: (1,))
                        joined = ya.action_table(spec)[1][i][i]
                        assert len(ya._support_blocks(joined, spec.dim)) == 2
                        got = eigen_outcome(eigenform_check, spec)
                        assert got == eigen_outcome(dense_eigenform_check,
                                                    spec)
                        outcomes.add(type(got))
    assert outcomes == {ya.EigenReport, str}


def _det(rows):
    """Determinant by Gaussian elimination over Fractions."""
    rows = [list(r) for r in rows]
    out = F(1)
    for k in range(len(rows)):
        piv = next((r for r in range(k, len(rows)) if rows[r][k]), None)
        if piv is None:
            return F(0)
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            out = -out
        out *= rows[k][k]
        for r in range(k + 1, len(rows)):
            f = rows[r][k] / rows[k][k]
            for c in range(k, len(rows)):
                rows[r][c] -= f * rows[k][c]
    return out


small_spec = st.integers(min_value=1, max_value=2).flatmap(
    lambda n: st.lists(
        st.tuples(st.sampled_from([F(0), F(1), F(-1), F(1, 2), F(1, 3)]),
                  st.integers(min_value=-n, max_value=n)),
        min_size=1, max_size=3).map(
        lambda pairs: ModuleSpec.make(n, [p[0] for p in pairs],
                                      [p[1] for p in pairs])))
point = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@given(small_spec, point, point)
@settings(max_examples=25, deadline=None)
def test_spectrum_matches_determinant_at_a_point(spec, u0, t0):
    """det(t0 - T_ii(u0)) is the product of (t0 - g(u0)) over the spectrum."""
    assume(all(u0 != z and u0 != z - 1 for z in spec.mu))
    report = eigenform_check(spec)
    for i in range(1, spec.n + 1):
        entries = module_action(spec, i, i).entries
        lhs = _det([[(t0 if r == c else 0) - x(u0) for c, x in enumerate(row)]
                    for r, row in enumerate(entries)])
        rhs = F(1)
        for I, J, mult in report.spectrum[i - 1]:
            g = F(1)
            for a in I:
                g *= (u0 - spec.mu[a] + 1) / (u0 - spec.mu[a])
            for a in J:
                g *= (u0 - spec.mu[a]) / (u0 - spec.mu[a] + 1)
            rhs *= (t0 - g) ** mult
        assert lhs == rhs
        assert sum(mult for _, _, mult in report.spectrum[i - 1]) == spec.dim


# ------------------------------------------------------------------ property

spec_strategy = st.builds(
    lambda n, pairs: ModuleSpec.make(
        n, tuple(p[0] for p in pairs),
        tuple(min(max(p[1], -n), n) for p in pairs)),
    st.integers(min_value=1, max_value=2),
    st.lists(st.tuples(st.sampled_from([F(0), F(1), F(-1), F(1, 2), F(3)]),
                       st.integers(min_value=-2, max_value=2)),
             min_size=1, max_size=2))


small_spec_strategy = st.builds(
    lambda n, pairs: ModuleSpec.make(
        n, tuple(p[0] for p in pairs),
        tuple(min(max(p[1], -n), n) for p in pairs)),
    st.integers(min_value=1, max_value=3),
    st.lists(st.tuples(st.sampled_from([F(0), F(1), F(-1), F(1, 2), F(-2, 3),
                                        F(3)]),
                       st.integers(min_value=-3, max_value=3)),
             min_size=1, max_size=3)).filter(lambda spec: spec.dim <= 9)


@given(small_spec_strategy, st.data())
@settings(max_examples=25, deadline=None)
def test_rtt_matches_dense_reference(spec, data):
    """On the table and on one corrupted copy, rtt_check and the dense
    einsum reference give the same report or the same failure text, on
    the least grid and on two wider ones (need + 1 and need + 2 values per
    axis, the second from a count that is not a square)."""
    need = 4 * spec.m + 3
    wider = (need * need + 1, need * need + 3 * need)
    assert rtt_check(spec) == dense_rtt_check(spec)
    for samples in wider:
        assert rtt_check(spec, samples) == dense_rtt_check(spec, samples)
    n, dim = spec.n, spec.dim
    a, b = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    r, c = data.draw(st.integers(0, dim - 1)), data.draw(st.integers(0, dim - 1))
    new = data.draw(st.sampled_from([(), (1,), (0, 1), (1, 1)]))
    with pytest.MonkeyPatch.context() as monkeypatch:
        corrupt(monkeypatch, spec, a, b, r, c, lambda cs: new)
        assert rtt_outcome(rtt_check, spec) == rtt_outcome(dense_rtt_check,
                                                           spec)
        for samples in wider:
            assert (rtt_outcome(rtt_check, spec, samples)
                    == rtt_outcome(dense_rtt_check, spec, samples))


@given(small_spec_strategy)
@settings(max_examples=25, deadline=None)
def test_eigenform_matches_dense_reference(spec):
    """Split by blocks or taken whole, the characteristic polynomial gives
    the same report."""
    assert eigenform_check(spec) == dense_eigenform_check(spec)


@given(spec_strategy)
@settings(max_examples=20, deadline=None)
def test_rtt_and_eigen_on_random_specs(spec):
    assert rtt_check(spec).passed
    for i in range(1, spec.n + 1):
        assert eigen_series(spec, i) == eigen_closed(spec, i)
