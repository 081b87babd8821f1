"""Exact scalar arithmetic: rationals, univariate polynomials, rational functions.

Everything downstream (module actions, intertwiners, Drinfeld data) is built
over the field Q.  Scalars are `fractions.Fraction` (already canonical:
reduced, positive denominator, arbitrary precision).  This module adds:

  * `Poly`    -- univariate polynomials over Q in a formal variable u,
                 coefficients stored lowest degree first,
  * `RatFun`  -- reduced rational functions num/den with monic denominator,
  * `factor_linear` -- the scalar utility the representation-theoretic
                 layers need,
  * `_iu_*`, `_it_*` -- one kernel for Z[u] (int lists, lowest degree first,
                 no trailing zeros, [] is zero) and Z[u][t] (lists of those,
                 low t first), which the module table, the characteristic
                 polynomials, intertwine_check and Poly's +, -, * share;
                 _iu_addto sums in place and leaves the trim to its caller;
                 _iu_quo is the one exact division in Z[u], behind _iu_div
                 (which raises when it fails) and _it_deflate (one synthetic
                 division by D*t - N, the spectra's root test).

No floating point is used anywhere; equality is always structural equality of
canonical forms.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

Scalar = Union[int, Fraction]

#: degree of the zero polynomial (order-compatible with every int)
NEG_INF = float("-inf")


class IrrationalRoots(ArithmeticError):
    """A polynomial that was required to split over Q does not."""


class PoleEvaluation(ZeroDivisionError):
    """A rational function was evaluated at a root of its denominator."""


def q(value) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):  # bool is an int subclass; reject explicitly
        raise TypeError("boolean is not a rational scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def q_str(x: Fraction) -> str:
    """Canonical string form: 'p/q', or just 'p' when the denominator is 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# integer polynomials: Z[u] and Z[u][t]
# ---------------------------------------------------------------------------


def _iu_trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _iu_mul(a: Sequence, b: Sequence) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _iu_trim(out)


def _iu_add(a: Sequence, b: Sequence) -> list:
    out = list(a) + [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] += y
    return _iu_trim(out)


def _iu_sub(a: Sequence, b: Sequence) -> list:
    out = list(a) + [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] -= y
    return _iu_trim(out)


def _iu_addto(acc: list, b: Sequence, x: int) -> None:
    """acc += x * b in place, extending acc when b is longer; untrimmed."""
    if len(acc) < len(b):
        acc.extend([0] * (len(b) - len(acc)))
    for i, y in enumerate(b):
        acc[i] += x * y


def _iu_quo(a: Sequence, b: Sequence) -> Optional[list[int]]:
    """a / b in Z[u], or None when b does not divide a there."""
    if not a:
        return []
    rem = list(a)
    out = [0] * (len(a) - len(b) + 1)
    lead = b[-1]
    for k in range(len(out) - 1, -1, -1):
        c, frac = divmod(rem[k + len(b) - 1], lead)
        if frac:
            return None
        out[k] = c
        if c:
            for i, y in enumerate(b):
                rem[k + i] -= c * y
    if any(rem[: len(b) - 1]):
        return None
    return _iu_trim(out)


def _iu_div(a: list[int], b: list[int]) -> list[int]:
    """Exact division in Z[u]; the quotient is promised to be integral."""
    out = _iu_quo(a, b)
    if out is None:
        raise ArithmeticError("inexact division in characteristic polynomial")
    return out


def _it_mul(a, b):
    out = [[] for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = _iu_add(out[i + j], _iu_mul(x, y))
    return out


def _it_sub(a, b):
    size = max(len(a), len(b))
    out = [_iu_sub(a[i] if i < len(a) else [], b[i] if i < len(b) else [])
           for i in range(size)]
    while len(out) > 1 and not out[-1]:
        out.pop()
    return out


def _it_div(a, b):
    """Exact division of t-polynomials with Z[u] coefficients."""
    if not any(a):
        return [[]]
    if len(b) == 1:
        return [_iu_div(x, b[0]) if x else [] for x in a]
    a = list(a)
    out = [[] for _ in range(len(a) - len(b) + 1)]
    for k in range(len(out) - 1, -1, -1):
        c = _iu_div(a[k + len(b) - 1], b[-1])
        out[k] = c
        if c:
            for i, y in enumerate(b):
                a[k + i] = _iu_sub(a[k + i], _iu_mul(c, y))
    if any(a[i] for i in range(len(b) - 1)):
        raise ArithmeticError("inexact division in characteristic polynomial")
    return out


def _it_deflate(a, N: Sequence, D: Sequence) -> Optional[list]:
    """a / (D*t - N) in Z[u][t], or None when D*t - N does not divide a.

    One synthetic division from the top: for a = sum c_k t^k of degree d
    the quotient has q_(d-1) = c_d / D and q_(k-1) = (c_k + N q_k) / D,
    and the remainder is c_0 + N q_0.  When D*t - N is primitive (no
    nonconstant or integer factor divides both N and D), Gauss's lemma puts
    any quotient in Z[u][t] (von zur Gathen and Gerhard, Modern Computer
    Algebra, ch. 6), so a step that does not divide exactly by D proves
    that it is no factor, as a nonzero remainder does.
    """
    out, carry = [], []
    for c in reversed(a[1:]):
        q = _iu_quo(_iu_add(c, carry), D)
        if q is None:
            return None
        out.append(q)
        carry = _iu_mul(N, q)
    if _iu_add(a[0], carry):
        return None
    out.reverse()
    return out


class Poly:
    """Univariate polynomial over Q.

    Coefficients are stored lowest degree first with no trailing zeros, so
    two polynomials are equal iff their coefficient tuples are equal.  The
    zero polynomial has an empty tuple and degree NEG_INF.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- construction helpers ------------------------------------------------

    @classmethod
    def constant(cls, c: Scalar) -> "Poly":
        return cls((Fraction(c),))

    @classmethod
    def from_roots(cls, roots: Iterable[Scalar]) -> "Poly":
        """Monic product of (u - z) over the given multiset of roots."""
        cs = [Fraction(1)]
        for z in map(Fraction, roots):  # (u - z) sum c_k u^k
            cs = [-z * cs[0]] + [a - z * b for a, b in zip(cs, cs[1:])] + [1]
        return cls(cs)

    # -- structure -----------------------------------------------------------

    @property
    def degree(self):
        """Degree as an int, or NEG_INF for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def monic(self) -> "Poly":
        lead = self.leading()
        if lead == 1:
            return self
        return Poly(c / lead for c in self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly((other,))
        return NotImplemented

    def __hash__(self):
        return hash(("Poly", self.coeffs))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Poly(0)"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                mag = q_str(abs(c))
            else:
                var = "u" if k == 1 else f"u^{k}"
                mag = var if abs(c) == 1 else f"{q_str(abs(c))}*{var}"
            if not parts:
                parts.append(("-" if c < 0 else "") + mag)
            else:
                parts.append(("- " if c < 0 else "+ ") + mag)
        return "Poly(" + " ".join(parts) + ")"

    # -- ring operations -----------------------------------------------------

    def __add__(self, other) -> "Poly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return Poly(_iu_add(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(-c for c in self.coeffs)

    def __sub__(self, other) -> "Poly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return Poly(_iu_sub(self.coeffs, other.coeffs))

    def __rsub__(self, other) -> "Poly":
        return -(self - other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return ZERO
            return Poly(c * other for c in self.coeffs)
        if not isinstance(other, Poly):
            return NotImplemented
        return Poly(_iu_mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __divmod__(self, other: "Poly"):
        """Exact euclidean division over the field Q."""
        other = _as_poly(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        db, lead = other.degree, other.leading()
        if self.degree < db:
            return ZERO, self
        quot = [Fraction(0)] * (len(rem) - db)
        for k in range(len(rem) - 1, db - 1, -1):
            c = rem[k] / lead
            quot[k - db] = c
            if c:
                for j, cb in enumerate(other.coeffs):
                    rem[k - db + j] -= c * cb
        return Poly(quot), Poly(rem[:db])

    def __floordiv__(self, other):
        return divmod(self, _as_poly(other))[0]

    def __mod__(self, other):
        return divmod(self, _as_poly(other))[1]

    # -- analysis ------------------------------------------------------------

    def __call__(self, x: Scalar) -> Fraction:
        """Evaluate by Horner's rule."""
        x = Fraction(x)
        out = Fraction(0)
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def shift(self, c: Scalar) -> "Poly":
        """The polynomial u |-> p(u + c), computed by synthetic Taylor shift."""
        c = Fraction(c)
        if not self.coeffs or c == 0:
            return self
        # repeated synthetic division by (u - (-c)) accumulates p(u + c)
        work = list(self.coeffs)
        n = len(work)
        for i in range(n - 1):
            for k in range(n - 2, i - 1, -1):
                work[k] += c * work[k + 1]
        return Poly(work)


def _as_poly(x) -> Poly:
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly((x,))
    return NotImplemented


ZERO = Poly()
ONE = Poly((1,))
U = Poly((0, 1))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the euclidean algorithm (gcd(0, 0) = 0)."""
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return ZERO
    return a.monic()


# ---------------------------------------------------------------------------
# rational-root factoring
# ---------------------------------------------------------------------------


def _cleared(rows) -> tuple[int, list[list[int]]]:
    """(d, d * rows) for the least common denominator d of the entries."""
    d = math.lcm(*(x.denominator for row in rows for x in row))
    return d, [[x.numerator * (d // x.denominator) for x in row]
               for row in rows]


def _eval_mod(cs: Sequence[int], x: int, m: int) -> int:
    """cs(x) mod m, for integer coefficients cs lowest degree first."""
    out = 0
    for c in reversed(cs):
        out = (out * x + c) % m
    return out


def _root_candidates(g: Poly) -> list[Fraction]:
    """A list holding every rational root of a monic square-free g.

    With l the common denominator of g, h(v) = l^(n-1) g(v / l) is monic
    with integer coefficients, so its rational roots are integers bounded
    by the Cauchy bound B.  The roots of h modulo the first prime at which
    they are all simple are Newton-lifted until the modulus exceeds 2B, and
    the symmetric representatives are the candidates (von zur Gathen and
    Gerhard, Modern Computer Algebra, ch. 15).  A candidate is not yet
    confirmed: g may have irrational roots that have simple roots mod p.
    """
    lead, (ints,) = _cleared([g.coeffs])
    n = len(ints) - 1
    h = [c * lead ** (n - 1 - k) for k, c in enumerate(ints[:-1])] + [1]
    dh = [k * c for k, c in enumerate(h)][1:]
    bound = 1 + max(abs(c) for c in h[:-1])
    p = 1
    while True:
        p += 1
        if any(p % f == 0 for f in range(2, math.isqrt(p) + 1)):
            continue
        hp = [c % p for c in h]
        found = [r for r in range(p) if _eval_mod(hp, r, p) == 0]
        if all(_eval_mod(dh, r, p) for r in found):
            break
    out = []
    for r in found:
        m = p
        while m <= 2 * bound:
            m *= m
            r = (r - _eval_mod(h, r, m) * pow(_eval_mod(dh, r, m), -1, m)) % m
        out.append(Fraction(r if 2 * r <= m else r - m, lead))
    return out


def factor_linear(p: Poly) -> list[Fraction]:
    """All roots of a monic p with multiplicity, proving p = prod (u - z_s).

    Returns the sorted root multiset.  Raises IrrationalRoots if any
    irreducible factor over Q has degree > 1; raises ValueError on the zero
    polynomial or a non-monic input.  The time is polynomial in the bit size
    of p: no integer is factored.
    """
    if p.is_zero():
        raise ValueError("zero polynomial cannot be factored into linears")
    if not p.is_monic():
        raise ValueError("factor_linear expects a monic polynomial")
    roots: list[Fraction] = []
    # split off roots at 0 first so the constant term is nonzero below
    cs = list(p.coeffs)
    while cs and cs[0] == 0:
        roots.append(Fraction(0))
        cs = cs[1:]
    p = Poly(cs)
    if p.degree > 0:
        deriv = Poly(k * c for k, c in enumerate(p.coeffs) if k)
        # exact evaluation confirms each candidate and counts its multiplicity
        for z in sorted(_root_candidates(p // poly_gcd(p, deriv))):
            while p.degree > 0 and p(z) == 0:
                roots.append(z)
                p = p // Poly((-z, 1))
    if p.degree > 0:
        raise IrrationalRoots(
            f"polynomial has an irreducible factor of degree {p.degree} over Q")
    return sorted(roots)


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------


class RatFun:
    """Reduced rational function num/den over Q with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=ONE):
        num = _coerce_poly(num)
        den = _coerce_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            object.__setattr__(self, "num", ZERO)
            object.__setattr__(self, "den", ONE)
            return
        g = poly_gcd(num, den)
        if g.degree > 0:
            num = num // g
            den = den // g
        lead = den.leading()
        if lead != 1:
            num = num * (1 / lead)
            den = den.monic()
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def from_roots(cls, zeros: Iterable, poles: Iterable) -> "RatFun":
        """prod (u - z) / prod (u - p) over two multisets of roots, reduced
        by cancelling the shared roots (the gcd) without running poly_gcd."""
        num, den = [], list(poles)
        for z in zeros:
            if z in den:
                den.remove(z)
            else:
                num.append(z)
        out = object.__new__(cls)
        object.__setattr__(out, "num", Poly.from_roots(num))
        object.__setattr__(out, "den", Poly.from_roots(den))
        return out

    @classmethod
    def of(cls, value) -> "RatFun":
        if isinstance(value, RatFun):
            return value
        return cls(_coerce_poly(value))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, (Poly, int, Fraction)):
            other = RatFun.of(other)
        if not isinstance(other, RatFun):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash(("RatFun", self.num.coeffs, self.den.coeffs))

    def __repr__(self):
        if self.den == ONE:
            return f"RatFun({self.num!r})"
        return f"RatFun({self.num!r} / {self.den!r})"

    def __add__(self, other) -> "RatFun":
        other = RatFun.of(other)
        return RatFun(self.num * other.den + other.num * self.den,
                      self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFun":
        return RatFun(-self.num, self.den)

    def __sub__(self, other) -> "RatFun":
        return self + (-RatFun.of(other))

    def __rsub__(self, other) -> "RatFun":
        return RatFun.of(other) - self

    def __mul__(self, other) -> "RatFun":
        other = RatFun.of(other)
        return RatFun(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFun":
        other = RatFun.of(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFun(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RatFun":
        return RatFun.of(other) / self

    def __call__(self, x: Scalar) -> Fraction:
        x = Fraction(x)
        d = self.den(x)
        if d == 0:
            raise PoleEvaluation(f"evaluation at pole u = {q_str(x)}")
        return self.num(x) / d

    def shift(self, c: Scalar) -> "RatFun":
        """u |-> value at u + c."""
        return RatFun(self.num.shift(c), self.den.shift(c))


def _coerce_poly(x) -> Poly:
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly((x,))
    if isinstance(x, (list, tuple)):
        return Poly(x)
    raise TypeError(f"cannot interpret {x!r} as a polynomial")


def linear(z: Scalar) -> Poly:
    """The monic linear polynomial u - z."""
    return Poly((-Fraction(z), 1))
