"""Exact univariate polynomials and rational functions over Q.

A Poly stores integer numerators over one common denominator: coefficient k
is ints[k]/den, with ints a tuple of Python ints in ascending degree order
and den a positive int.  The form is canonical: gcd(den, *ints) = 1 and the
leading numerator is nonzero, so equality and hashing are structural.  The
zero polynomial is ints = (), den = 1, and deg(0) is the -infinity sentinel
so that deg(p*q) = deg(p) + deg(q) holds without special cases.  Every
kernel runs on the integers.

A RatFunc is a reduced fraction num/den of Polys with den monic and
gcd(num, den) = 1, so equality is structural.  All operations are exact and
all values are immutable.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Tuple

from .scalars import MAX_OUTPUT_BITS, Q, Refused

NEG_INF = float("-inf")


class NotSplitOverRationals(ValueError):
    """Denominator has an irreducible factor of degree >= 2 over Q."""


def int_poly(ints: List[int], den: int) -> "Poly":
    """The canonical Poly with coefficients ints[k]/den (den nonzero): strip
    trailing zeros, make den positive and divide out gcd(den, *ints).  The
    one constructor from integers; it may take ownership of the list."""
    while ints and not ints[-1]:
        ints.pop()
    if not ints:
        den = 1
    elif den < 0:
        den = -den
        ints = [-n for n in ints]
    if den != 1:
        g = math.gcd(den, *ints)
        if g != 1:
            den //= g
            ints = [n // g for n in ints]
    p = object.__new__(Poly)
    p.ints = tuple(ints)
    p.den = den
    return p


class Poly:
    __slots__ = ("ints", "den")

    def __new__(cls, coeffs: Iterable = ()):
        cs = [c if type(c) is int or type(c) is Q else Q(c) for c in coeffs]
        den = math.lcm(*[c.denominator for c in cs])
        return int_poly([c.numerator * (den // c.denominator) for c in cs], den)

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
        return len(self.ints) - 1 if self.ints else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.ints

    @property
    def leading(self):
        if not self.ints:
            raise ValueError("zero polynomial has no leading coefficient")
        return Q(self.ints[-1], self.den)

    def coeff(self, k: int):
        ints = self.ints
        return Q(ints[k], self.den) if 0 <= k < len(ints) else _QZERO

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.ints == other.ints and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.ints, self.den))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Poly", sign: int = 1) -> "Poly":
        """self + sign * other over the lcm of the two denominators."""
        a, b = self.ints, other.ints
        g = math.gcd(self.den, other.den)
        fa, fb = other.den // g, self.den // g * sign
        if len(a) < len(b):
            a, b, fa, fb = b, a, fb, fa
        out = [x * fa for x in a]
        for i, x in enumerate(b):
            out[i] += x * fb
        return int_poly(out, self.den * (other.den // g))

    def __sub__(self, other: "Poly") -> "Poly":
        return self.__add__(other, -1)

    def __neg__(self) -> "Poly":
        p = object.__new__(Poly)  # still canonical
        p.ints = tuple([-n for n in self.ints])
        p.den = self.den
        return p

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.ints, other.ints
        if not a or not b:
            return _ZERO
        if len(a) == 1 or len(b) == 1:  # a constant operand scales the other
            k, c = (a[0], b) if len(a) == 1 else (b[0], a)
            return int_poly([x * k for x in c], self.den * other.den)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return int_poly(out, self.den * other.den)

    def scale(self, c) -> "Poly":
        if type(c) is not int and type(c) is not Q:
            c = Q(c)
        if not c:
            return _ZERO
        n = c.numerator
        return int_poly([a * n for a in self.ints], self.den * c.denominator)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:  # no square past the top bit
                base = base * base
        return result

    def __divmod__(self, other: "Poly") -> Tuple["Poly", "Poly"]:
        """Pseudo-division on the numerators, s*a = q*b + r with s a power
        of lead(b) (Knuth, TAOCP vol. 2, 4.6.1).  The remainder is scaled by
        lead(b) only when a quotient digit would not be an integer, so s = 1
        when lead(b) = +-1."""
        b = other.ints
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        a = self.ints
        n = len(b) - 1
        if len(a) <= n:
            return _ZERO, self
        lead = b[-1]
        if n == 0:
            return int_poly([x * other.den for x in a], self.den * lead), _ZERO
        rem = list(a)
        quot = [0] * (len(a) - n)
        s = 1
        for k in range(len(a) - n - 1, -1, -1):
            c = rem[k + n]
            if not c:
                continue
            if c % lead:
                rem = [x * lead for x in rem]
                quot = [x * lead for x in quot]
                s *= lead
                c = rem[k + n]
            t = c // lead
            quot[k] = t
            for j, y in enumerate(b, k):
                rem[j] -= t * y
        # a/da = (q db / (s da)) * (b/db) + r / (s da)
        den = s * self.den
        return int_poly([x * other.den for x in quot], den), int_poly(rem[:n], den)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        ints = self.ints
        if not ints or ints[-1] == self.den:
            return self
        return int_poly(list(ints), ints[-1])

    def gcd(self, other: "Poly") -> "Poly":
        """Monic greatest common divisor: 1 when the images modulo the prime
        _P have a constant gcd, else Euclid over the monic remainder
        sequence, which keeps the coefficient sizes small."""
        a, b = self.ints, other.ints
        if a and b and a[-1] % _P and b[-1] % _P and _coprime_mod_p(a, b):
            return _ONE
        a, b = self, other
        while not b.is_zero:
            a, b = b, (a % b).monic()
        return a.monic()

    # -- calculus and evaluation --------------------------------------------

    def derivative(self) -> "Poly":
        return int_poly([k * n for k, n in enumerate(self.ints) if k], self.den)

    def at(self, p: int, q: int) -> Tuple[int, int]:
        """Value at the rational p/q (q > 0) as an integer pair (n, d), not
        reduced: Horner's rule on the homogenised numerator
        n = sum ints[k] p^k q^(deg - k), over d = den * q^deg."""
        ints = self.ints
        if not ints:
            return 0, 1
        acc = ints[-1]
        if q == 1:
            for c in ints[-2::-1]:
                acc = acc * p + c
            return acc, self.den
        qk = 1
        for c in ints[-2::-1]:
            qk *= q
            acc = acc * p + c * qk
        return acc, self.den * qk

    def __call__(self, x):
        """Value at a rational x."""
        return Q(*self.at(x.numerator, x.denominator))

    # -- display -------------------------------------------------------------

    def __str__(self) -> str:
        return render_poly(self, "y")

    def __repr__(self) -> str:
        return f"Poly({str(self)!r})"


# A Mersenne prime.  When _P divides neither leading integer, the gcd of
# the images mod _P has at least the degree of the true gcd, whose leading
# integer divides both (Brown 1971; Knuth, TAOCP vol. 2, 4.6.1); so a
# constant image gcd proves the polynomials coprime.
_P = 2**61 - 1


def _coprime_mod_p(a: Tuple[int, ...], b: Tuple[int, ...]) -> bool:
    """Is the gcd of the integer lists a and b, taken mod _P, constant?
    Euclid over GF(_P); a remainder step subtracts c/lead(b) times b from
    the top of a for each leading integer c."""
    a = [x % _P for x in a]
    b = [x % _P for x in b]
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        inv = pow(b[-1], -1, _P)
        n = len(b) - 1
        neg = [-x * inv % _P for x in b[:-1]]
        while len(a) > n:
            c = a.pop()
            if c:
                for j, y in enumerate(neg, len(a) - n):
                    a[j] = (a[j] + c * y) % _P
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    return len(b) == 1


_QZERO = Q(0)
_ZERO = Poly(())
_ONE = Poly((1,))
_X = Poly((0, 1))


def render_poly(p: Poly, var: str) -> str:
    """p with descending terms; each coefficient's magnitude is printed as
    str(Fraction) prints it, reduced from the integers n/den as m or m/d."""
    ints, den = p.ints, p.den
    if not ints:
        return "0"
    parts = []
    for k in range(len(ints) - 1, -1, -1):
        n = ints[k]
        if not n:
            continue
        m = -n if n < 0 else n
        g = math.gcd(m, den)
        mag = str(m // g) if g == den else f"{m // g}/{den // g}"
        if k == 0:
            body = mag
        else:
            head = "" if m == den else f"{mag}*"
            body = f"{head}{var}" + (f"^{k}" if k > 1 else "")
        parts.append(f" - {body}" if n < 0 else f" + {body}")
    text = "".join(parts)  # each part starts with " + " or " - "
    return ("-" if text[1] == "-" else "") + text[3:]


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
        lead = den.ints[-1]
        if lead != den.den:  # num * den.den / lead over den made monic
            num = int_poly([n * den.den for n in num.ints], num.den * lead)
            den = den.monic()
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
    def const(c) -> "RatFunc":
        p = Poly.const(c)
        return _RF_ZERO if p.is_zero else RatFunc._raw(p, _ONE)

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

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
        lead = den.ints[-1]
        if lead != den.den:  # num * den.den / lead over den made monic
            num = int_poly([n * den.den for n in num.ints], num.den * lead)
            den = den.monic()
        return self * RatFunc._raw(num, den)

    def scale(self, c) -> "RatFunc":
        if c == 0:
            return _RF_ZERO
        return RatFunc._raw(self.num.scale(c), self.den)

    def __pow__(self, n: int) -> "RatFunc":
        if n < 0:
            return (_RF_ONE / self) ** (-n)
        # gcd(num, den) = 1 gives gcd(num^n, den^n) = 1
        return RatFunc._raw(self.num**n, self.den**n)

    # -- calculus -------------------------------------------------------------

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


def height(f) -> int:
    """The largest integer of the Poly or RatFunc f, in absolute value."""
    polys = (f,) if isinstance(f, Poly) else (f.num, f.den)
    return max(max(map(abs, p.ints + (p.den,))) for p in polys)


class OutputTooLarge(Refused):
    """A result to print has an integer above scalars.MAX_OUTPUT_BITS bits."""


def check_output_size(what: str, *fs) -> None:
    """Raise OutputTooLarge when one of the Polys or RatFuncs fs, which the
    caller is about to render, has an integer above MAX_OUTPUT_BITS bits."""
    bits = max((height(f) for f in fs), default=0).bit_length()
    if bits > MAX_OUTPUT_BITS:
        raise OutputTooLarge(
            f"{what} has integers of {bits} bits, above the output limit {MAX_OUTPUT_BITS}"
        )


# -- factorization helpers ------------------------------------------------------


def rational_roots(p: Poly) -> List[Tuple]:
    """All rational roots of p with multiplicity, as (root, mult) pairs.

    Roots are returned in ascending order.  They are the roots of the
    square-free part f of p with y^k stripped: with a the leading numerator
    of f, g(x) = a^(n-1) f(x/a) is monic with integer coefficients, and its
    integer roots are a times the rational roots of f.  Those are found by
    Hensel lifting, so the cost is polynomial in the coefficients' bit size.
    """
    if p.is_zero:
        raise ValueError("zero polynomial has every root")
    roots: List[Tuple] = []
    ints = p.ints
    k = 0
    while not ints[k]:
        k += 1
    if k:
        roots.append((_QZERO, k))
        p = int_poly(list(ints[k:]), p.den)
    if p.degree < 1:
        return roots
    f = (p // p.gcd(p.derivative())).ints
    n, a = len(f) - 1, f[-1]
    g = [c * a ** (n - 1 - i) for i, c in enumerate(f[:-1])] + [1]
    for x in _integer_roots(g):
        r = Q(x, a)
        mult = 0
        while p(r) == 0:
            p = p // Poly.linear(r)
            mult += 1
        roots.append((r, mult))
    roots.sort(key=lambda t: t[0])
    return roots


def _integer_roots(g: List[int]) -> List[int]:
    """Integer roots of a monic square-free integer polynomial g with
    g(0) != 0 (coefficients ascending).

    Every integer root x has |x| <= max |g_i| (Cauchy).  Pick a prime p at
    which every root of g mod p is simple, lift each root to a root mod
    m = p^(2^j) > 2 max |g_i| by Newton's step, and test the symmetric
    representatives exactly."""
    bound = max(abs(c) for c in g)
    dg = [i * c for i, c in enumerate(g) if i]

    def at(h, x, m):
        acc = 0
        for c in reversed(h):
            acc = (acc * x + c) % m
        return acc

    p = 2
    while True:
        p += 1
        if any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
            continue
        cand = [r for r in range(p) if at(g, r, p) == 0]
        if all(at(dg, r, p) for r in cand):
            break
    m = p
    while m <= 2 * bound:
        m *= m
        cand = [(r - at(g, r, m) * pow(at(dg, r, m), -1, m)) % m for r in cand]
    found = []
    for r in cand:
        x = r if 2 * r <= m else r - m
        acc = 0
        for c in reversed(g):
            acc = acc * x + c
        if acc == 0:
            found.append(x)
    return found


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
