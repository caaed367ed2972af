"""Exact univariate polynomials and rational functions over Q.

A Poly is a tuple of coefficients in ascending degree order with a nonzero
leading coefficient; the zero polynomial is the empty tuple.  deg(0) is the
-infinity sentinel so that deg(p*q) = deg(p) + deg(q) holds without special
cases.

A RatFunc is a reduced fraction num/den of Polys with den monic and
gcd(num, den) = 1, so equality is structural.  All operations are exact and
all values are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .scalars import Q

NEG_INF = float("-inf")


class PoleEvaluation(ArithmeticError):
    """Evaluation of a rational function at one of its poles."""


class NotSplitOverRationals(ValueError):
    """Denominator has an irreducible factor of degree >= 2 over Q."""


class Poly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [c if type(c) is type(_QZERO) else Q(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: Tuple = tuple(cs)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return _ZERO

    @staticmethod
    def one() -> "Poly":
        return _ONE

    @staticmethod
    def const(c) -> "Poly":
        return Poly((c,))

    @staticmethod
    def variable() -> "Poly":
        return _X

    @staticmethod
    def linear(root) -> "Poly":
        """The monic linear polynomial y - root."""
        return Poly((-Q(root), 1))

    # -- structure ---------------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Q(0)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _ZERO
        out = [Q(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                out[i + j] = out[i + j] + ai * bj
        return Poly(out)

    def scale(self, c) -> "Poly":
        if type(c) is not type(_QZERO):
            c = Q(c)
        if c == 0:
            return _ZERO
        return Poly([a * c for a in self.coeffs])

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "Poly") -> Tuple["Poly", "Poly"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        db = len(other.coeffs) - 1
        lead = other.coeffs[-1]
        if len(rem) <= db:
            return _ZERO, self
        quot = [Q(0)] * (len(rem) - db)
        for k in range(len(rem) - db - 1, -1, -1):
            c = rem[k + db] if lead == 1 else rem[k + db] / lead
            if c == 0:
                continue
            quot[k] = c
            for j, bj in enumerate(other.coeffs):
                rem[k + j] = rem[k + j] - c * bj
        return Poly(quot), Poly(rem[:db])

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        return Poly([c / lead for c in self.coeffs])

    def gcd(self, other: "Poly") -> "Poly":
        """Monic greatest common divisor (Euclid over the monic remainder
        sequence, which keeps the coefficient sizes small)."""
        a, b = self, other
        while not b.is_zero:
            a, b = b, (a % b).monic()
        return a.monic()

    # -- calculus and evaluation --------------------------------------------

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs) if i > 0])

    def __call__(self, x):
        cs = self.coeffs
        if not cs:
            return _QZERO
        acc = cs[-1]
        for c in cs[-2::-1]:
            acc = acc * x + c
        return acc

    def compose(self, inner: "RatFunc") -> "RatFunc":
        """self(inner) as a rational function (Horner over RatFunc)."""
        acc = RatFunc.zero()
        for c in reversed(self.coeffs):
            acc = acc * inner + RatFunc.const(c)
        return acc

    # -- display -------------------------------------------------------------

    def __str__(self) -> str:
        return render_poly(self, "y")

    def __repr__(self) -> str:
        return f"Poly({str(self)!r})"


_QZERO = Q(0)
_ZERO = Poly(())
_ONE = Poly((1,))
_X = Poly((0, 1))


def render_poly(p: Poly, var: str) -> str:
    if p.is_zero:
        return "0"
    parts = []
    for k in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = -c if c < 0 else c
        if k == 0:
            body = str(mag)
        else:
            head = "" if mag == 1 else f"{mag}*"
            body = f"{head}{var}" + (f"^{k}" if k > 1 else "")
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


class RatFunc:
    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = _ONE):
        if den.is_zero:
            raise ZeroDivisionError("division by zero RatFunc")
        if num.is_zero:
            self.num, self.den = _ZERO, _ONE
            return
        g = num.gcd(den)
        if g.degree > 0:
            num = num // g
            den = den // g
        lead = den.coeffs[-1]
        if lead != 1:
            num = num.scale(1 / lead)
            den = den.scale(1 / lead)
        self.num, self.den = num, den

    # -- constructors ------------------------------------------------------

    @classmethod
    def _raw(cls, num: Poly, den: Poly) -> "RatFunc":
        """Trusted constructor: num/den already reduced with den monic."""
        self = object.__new__(cls)
        self.num, self.den = num, den
        return self

    @staticmethod
    def zero() -> "RatFunc":
        return _RF_ZERO

    @staticmethod
    def one() -> "RatFunc":
        return _RF_ONE

    @staticmethod
    def const(c) -> "RatFunc":
        p = Poly.const(c)
        return _RF_ZERO if p.is_zero else RatFunc._raw(p, _ONE)

    @staticmethod
    def variable() -> "RatFunc":
        return _RF_X

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den.degree == 0

    @property
    def degree_at_infinity(self):
        """deg num - deg den; NEG_INF for the zero function."""
        if self.num.is_zero:
            return NEG_INF
        return self.num.degree - self.den.degree

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatFunc)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    # -- field operations ----------------------------------------------------
    #
    # Both operands are reduced with monic denominators, so each result is
    # assembled reduced, with only the gcds that can be nontrivial
    # (Henrici's cross-cancellation; Knuth, TAOCP vol. 2, 4.5.1).  The
    # results equal RatFunc(num, den) built from the unreduced formulas.

    def __add__(self, other: "RatFunc") -> "RatFunc":
        a, b = self.num, self.den
        c, d = other.num, other.den
        # only b = d gives a zero sum: 0/1 already when b = d = 1, else
        # caught in the common-factor case
        if d.degree == 0:
            # gcd(a + c*b, b) = gcd(a, b) = 1
            return RatFunc._raw(a + c * b, b)
        if b.degree == 0:
            return RatFunc._raw(a * d + c, d)
        g = b.gcd(d)
        if g.degree == 0:
            return RatFunc._raw(a * d + c * b, b * d)
        # b = g*b', d = g*d': t = a*d' + c*b' is prime to b'*d', so the
        # only factor t can share with g*b'*d' is gcd(t, g)
        bg, dg = b // g, d // g
        t = a * dg + c * bg
        if t.is_zero:
            return _RF_ZERO
        g2 = t.gcd(g)
        if g2.degree > 0:
            return RatFunc._raw(t // g2, bg * (d // g2))
        return RatFunc._raw(t, bg * d)

    def __neg__(self) -> "RatFunc":
        return RatFunc._raw(-self.num, self.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        a, b = self.num, self.den
        c, d = other.num, other.den
        if a.is_zero or c.is_zero:
            return _RF_ZERO
        # cancel gcd(a, d) and gcd(c, b); a/b and c/d are already reduced
        if a.degree > 0 and d.degree > 0:
            g = a.gcd(d)
            if g.degree > 0:
                a, d = a // g, d // g
        if c.degree > 0 and b.degree > 0:
            g = c.gcd(b)
            if g.degree > 0:
                c, b = c // g, b // g
        return RatFunc._raw(a * c, b * d)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if other.is_zero:
            raise ZeroDivisionError("division by zero RatFunc")
        num, den = other.den, other.num
        lead = den.coeffs[-1]
        if lead != 1:
            num, den = num.scale(1 / lead), den.scale(1 / lead)
        return self * RatFunc._raw(num, den)

    def scale(self, c) -> "RatFunc":
        if type(c) is not type(_QZERO):
            c = Q(c)
        if c == 0:
            return _RF_ZERO
        return RatFunc._raw(self.num.scale(c), self.den)

    def __pow__(self, n: int) -> "RatFunc":
        if n < 0:
            return (_RF_ONE / self) ** (-n)
        # gcd(num, den) = 1 gives gcd(num^n, den^n) = 1
        return RatFunc._raw(self.num**n, self.den**n)

    # -- calculus and evaluation ----------------------------------------------

    def derivative(self) -> "RatFunc":
        n, d = self.num, self.den
        if d.degree == 0:
            return RatFunc._raw(n.derivative(), _ONE)
        # with g = gcd(d, d'), s = d/g, t = d'/g:  (n/d)' = (n's - nt)/(ds).
        # A factor p^k of d leaves p exactly once in s and not at all in t
        # (characteristic 0), so p does not divide n's - nt: reduced.
        dp = d.derivative()
        g = d.gcd(dp)
        if g.degree > 0:
            s, t = d // g, dp // g
        else:
            s, t = d, dp
        return RatFunc._raw(n.derivative() * s - n * t, d * s)

    def evaluate(self, x):
        x = Q(x)
        d = self.den(x)
        if d == 0:
            raise PoleEvaluation(f"evaluation at pole {x}")
        return self.num(x) / d

    def compose(self, inner: "RatFunc") -> "RatFunc":
        """self(inner(y)).  inner must not be identically a pole of self."""
        return self.num.compose(inner) / self.den.compose(inner)

    # -- display ---------------------------------------------------------------

    def render(self, var: str = "y") -> str:
        if self.den.degree == 0:
            return render_poly(self.num, var)
        ntext = render_poly(self.num, var)
        dtext = render_poly(self.den, var)
        if self.num.degree > 0:
            ntext = f"({ntext})"
        return f"{ntext}/({dtext})"

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"RatFunc({str(self)!r})"


_RF_ZERO = RatFunc(_ZERO)
_RF_ONE = RatFunc(_ONE)
_RF_X = RatFunc(_X)


# -- factorization helpers ------------------------------------------------------


def _divisors(n: int) -> List[int]:
    n = abs(n)
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i * i != n:
                large.append(n // i)
        i += 1
    return small + large[::-1]


def rational_roots(p: Poly) -> List[Tuple]:
    """All rational roots of p with multiplicity, as (root, mult) pairs.

    Roots are returned in ascending order.
    """
    if p.is_zero:
        raise ValueError("zero polynomial has every root")
    coeffs = list(p.coeffs)
    roots: List[Tuple] = []
    # strip the root at 0 first
    k = 0
    while coeffs[k] == 0:
        k += 1
    if k:
        roots.append((Q(0), k))
        coeffs = coeffs[k:]
    if len(coeffs) <= 1:
        return roots
    # clear denominators to get integer coefficients
    denlcm = 1
    for c in coeffs:
        denlcm = denlcm * c.denominator // math.gcd(denlcm, int(c.denominator))
    ints = [int(c * denlcm) for c in coeffs]
    cand: List = []
    for pnum in _divisors(ints[0]):
        for qden in _divisors(ints[-1]):
            if math.gcd(pnum, qden) == 1:
                cand.append(Q(pnum, qden))
                cand.append(Q(-pnum, qden))
    cand.sort()
    work = Poly(coeffs)
    for r in cand:
        if work.degree < 1:
            break
        mult = 0
        while work(r) == 0:
            work = work // Poly.linear(r)
            mult += 1
        if mult:
            roots.append((r, mult))
    roots.sort(key=lambda t: t[0])
    return roots


def linear_factorization(p: Poly) -> List[Tuple]:
    """Factor monic-up-to-scale p into linear factors over Q, or raise.

    Returns (root, mult) pairs; raises NotSplitOverRationals when p has an
    irreducible factor of degree >= 2.
    """
    roots = rational_roots(p)
    total = sum(m for _, m in roots)
    if total != p.degree:
        raise NotSplitOverRationals(
            f"degree-{p.degree} polynomial has only {total} rational roots "
            f"(with multiplicity): {p}"
        )
    return roots


# -- partial fractions -------------------------------------------------------------


@dataclass(frozen=True)
class PartialFractions:
    """p(y) + sum of coeff/(y - pole)^order with rational poles only."""

    poly_part: Poly
    terms: Tuple[Tuple, ...]  # (pole, order, coeff), poles ascending, orders descending

    def recombine(self) -> RatFunc:
        total = RatFunc(self.poly_part)
        for pole, order, coeff in self.terms:
            total = total + RatFunc(Poly.const(coeff), Poly.linear(pole) ** order)
        return total

    def __str__(self) -> str:
        chunks = []
        if not self.poly_part.is_zero:
            chunks.append(str(self.poly_part))
        for pole, order, coeff in self.terms:
            base = f"(y - {pole})" if pole != 0 else "y"
            powtxt = f"{base}^{order}" if order > 1 else base
            chunks.append(f"({coeff})/{powtxt}")
        return " + ".join(chunks) if chunks else "0"


def partial_fractions(r: RatFunc) -> PartialFractions:
    """Exact partial-fraction decomposition over rational poles.

    Raises NotSplitOverRationals when the denominator does not split into
    linear factors over Q.
    """
    quot, rem = divmod(r.num, r.den)
    if rem.is_zero:
        return PartialFractions(quot, ())
    factors = linear_factorization(r.den)
    terms: List[Tuple] = []
    for pole, mult in factors:
        other = r.den // (Poly.linear(pole) ** mult)
        h = RatFunc(rem, other)
        fact = 1
        for i in range(mult):
            if i > 0:
                h = h.derivative()
                fact *= i
            coeff = h.evaluate(pole) / fact
            if coeff != 0:
                terms.append((pole, mult - i, coeff))
    terms.sort(key=lambda t: (t[0], -t[1]))
    return PartialFractions(quot, tuple(terms))
