"""Frozen spec batteries the verification suites and acceptance tests run on.

The degree shapes are a covering family, not a full product: per (n, m) the
family hits all-positive, all-negative, mixed signs in both orders, a zero
row, and the full-row degrees that degenerate to determinantal factors.
The shift grid is the full Cartesian product over {0, 1, -1, 1/2}.  Bigger
products only repeat the same branch combinations with worse runtimes.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .intertwiner import is_dominant
from .yangian import ModuleSpec

# Extent of the batteries: n up to MAX_N, the rtt battery's row counts, its
# shift grid, and the dimension cap of the dominant battery.
MAX_N = 3
RTT_MAX_M = 2
MU_VALUES = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2))
DIM_CAP = 512


def nu_family(n: int, m: int) -> tuple[tuple[int, ...], ...]:
    """Covering family of degree tuples for one row count."""
    if m == 1:
        raw = [(1,), (-1,), (0,), (n,), (-n,)]
    elif m == 2:
        raw = [(1, 1), (-1, -1), (1, -1), (-1, 1), (0, 1), (n, n), (n, -n)]
    else:
        raise ValueError("battery families are frozen for m <= 2")
    seen, out = set(), []
    for nu in raw:
        if nu not in seen:
            seen.add(nu)
            out.append(nu)
    return tuple(out)


def rtt_battery() -> list[ModuleSpec]:
    """Every covering spec with m <= 2: the defining-relation battery."""
    out = []
    for n in range(1, MAX_N + 1):
        for m in range(1, RTT_MAX_M + 1):
            for nu in nu_family(n, m):
                for mu in itertools.product(MU_VALUES, repeat=m):
                    out.append(ModuleSpec.make(n, mu, nu))
    return out


# Three-row extension: the two-row battery exercises every pair branch, so
# a covering handful of dominant three-row specs (and the four-row word
# specs below) is what the longer compositions add.
THREE_ROW_SPECS = (
    ModuleSpec.make(1, (0, 0, 0), (1, 1, 1)),
    ModuleSpec.make(1, (0, -2, -4), (1, 0, -1)),
    ModuleSpec.make(2, (0, 0, 0), (1, 1, 1)),
    ModuleSpec.make(2, (0, Fraction(1, 2), -3), (2, 1, 1)),
    ModuleSpec.make(2, (1, Fraction(1, 2), 0), (1, -1, 1)),
    ModuleSpec.make(2, (0, -3, -6), (1, -1, -2)),
    ModuleSpec.make(2, (5, 0, -5), (1, 2, 1)),
    ModuleSpec.make(3, (0, 0, -2), (1, 1, -1)),
    ModuleSpec.make(3, (0, -2, -4), (2, 1, -1)),
    ModuleSpec.make(3, (Fraction(1, 2), 0, -2), (3, 2, -2)),
)

# Four-column extension: up to n = 3 no factor of _RootFactors makes two
# moves; these dominant n = 4 specs reach the series terms with r >= 2.
FOUR_COLUMN_SPECS = tuple(
    spec for nu in ((2, 2), (2, -2), (3, 1), (1, 3), (2, 1))
    for mu in ((0, 0), (0, Fraction(1, 2)), (1, 0), (0, -1))
    for spec in [ModuleSpec.make(4, mu, nu)] if is_dominant(spec))

# Witness that a canonical operator can have a kernel: two single-box
# factors one unit apart give rank 3 out of dimension 4.
KERNEL_SPEC = ModuleSpec.make(2, (0, -1), (1, 1))


def dominant_battery() -> list[ModuleSpec]:
    """Dominant specs the intertwiner criteria run on (m <= 3, capped dim)."""
    out = [spec for spec in rtt_battery()
           if is_dominant(spec) and spec.dim <= DIM_CAP]
    out.extend(spec for spec in THREE_ROW_SPECS
               if spec.n <= MAX_N and spec.dim <= DIM_CAP)
    out.extend(FOUR_COLUMN_SPECS)
    if KERNEL_SPEC not in out:
        out.append(KERNEL_SPEC)
    return out


def mixed_battery() -> list[ModuleSpec]:
    """Dominant battery specs with at least one negative-degree row."""
    return [spec for spec in dominant_battery()
            if any(d < 0 for d in spec.nu)]


# Criterion inputs for word independence: every reduced word of the longest
# element must give the same operator (the n = 4 spec reaches r >= 2).
WORD_SPECS_M3 = (
    ModuleSpec.make(2, (0, 0, 0), (1, 1, 1)),
    ModuleSpec.make(2, (0, Fraction(1, 2), -3), (2, 1, 1)),
    ModuleSpec.make(2, (1, Fraction(1, 2), 0), (1, -1, 1)),
    ModuleSpec.make(4, (0, -2, -4), (2, 2, 1)),
)

WORD_SPECS_M4 = (
    ModuleSpec.make(2, (0, 0, 0, 0), (1, 1, 1, 1)),
    ModuleSpec.make(2, (0, -2, -4, -6), (2, 1, 1, 2)),
    ModuleSpec.make(2, (0, -2, -4, -6), (2, 1, -1, -2)),
)


def word_battery() -> dict[int, tuple[ModuleSpec, ...]]:
    return {3: WORD_SPECS_M3, 4: WORD_SPECS_M4}
