"""The elementary-swap chain, kept for the tests as the canonical operator's
reference.

build_I assembles the canonical operator in one shot from root-pair
factors.  The chain below composes one elementary swap operator
(intertwiner.elementary) per letter of the reduced word instead; the two
constructions must agree up to the global sign that normalizes the
distinguished vector.
"""

from fractions import Fraction
from typing import Optional

from ylab.grassmann import perm_compose, perm_identity, perm_transposition
from ylab.intertwiner import (Intertwiner, ReducedWord,
                              WordDependenceViolated, build_I, check_dominant,
                              default_word, elementary)
from ylab.yangian import ModuleSpec


def compose_elementary(spec: ModuleSpec,
                       word: Optional[ReducedWord] = None) -> Intertwiner:
    """The bare chain of elementary swaps along the word.

    At each stage the swap uses the I form when the degrees at the swapped
    positions are in weakly decreasing order and the J form otherwise,
    mirroring the branch rule of the one-shot construction.  The chain equals
    the canonical operator times (-1)^N where N is the sum of degree products
    over pairs; see elementary_composition_check.
    """
    if any(d < 0 for d in spec.nu):
        raise ValueError("elementary composition requires all degrees >= 0")
    if word is None:
        word = default_word(spec.m)
    check_dominant(spec)
    suffix = perm_identity(spec.m)
    stages = []
    for a in reversed(word.letters):
        stages.append((a, suffix))
        suffix = perm_compose(perm_transposition(spec.m, a), suffix)
    total: Optional[Intertwiner] = None
    for a, sig in stages:  # rightmost letter first
        current = spec.permuted(sig)
        kind = "I_a" if current.nu[a - 1] >= current.nu[a] else "J_a"
        step = elementary(kind, current, a)
        total = step if total is None else step.compose(total)
    if total is None:  # m == 1
        ident = tuple(tuple(Fraction(1 if r == c else 0)
                            for c in range(spec.dim)) for r in range(spec.dim))
        return Intertwiner(spec, spec, ident)
    return total


def elementary_composition_check(spec: ModuleSpec,
                                 word: Optional[ReducedWord] = None) -> bool:
    """Assert the one-shot operator is (-1)^N times the elementary chain.

    The canonical operator normalizes the distinguished vector, which costs
    the global sign relative to the unnormalized chain of swaps; everything
    else about the two constructions must agree exactly.
    """
    one_shot = build_I(spec, word)
    chain = compose_elementary(spec, word)
    n_exp = sum(spec.nu[a] * spec.nu[b]
                for a in range(spec.m) for b in range(a + 1, spec.m))
    sign = -1 if n_exp % 2 else 1
    expect = tuple(tuple(sign * v for v in row) for row in chain.matrix)
    if one_shot.matrix != expect:
        raise WordDependenceViolated(
            f"elementary chain disagrees with the one-shot operator on {spec}")
    return True
