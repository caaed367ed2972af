"""The triangular coefficient family and Moebius changes of variable.

The third-order equation under study is

    S(y) + (y')^2 * R(y) = 0,      S(y) = (y''/y')' - (1/2)(y''/y')^2,

with S the Schwarzian derivative.  It is fully determined by the rational
coefficient function R, and this module works on R alone.  The triangular
family R_{alpha,beta,gamma} has double poles at 0 and 1 and is parametrized
by the inverse triangle angles; the recognizer inverts the construction up
to the intrinsic sign ambiguity of the parameters.  A Moebius change of
variable z = m(y) acts on R by pullback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from .polynomials import Poly, RatFunc, height, int_poly, monic_denominator
from .scalars import INF, ExtRational, Q, Refused, parse_q, rational_sqrt


class NotTriangular(ValueError):
    """R is not triangular with rational parameters: a verdict, not a refusal."""

    def __init__(self, message: str, inverse_squares: Optional[Tuple] = None):
        super().__init__(message)
        self.inverse_squares = inverse_squares


class SingularMoebius(Refused):
    """Moebius map with ad - bc = 0."""


@dataclass(frozen=True, init=False)
class TriangleParams:
    """Ordered parameter triple (alpha, beta, gamma); each slot is infinity or
    a nonzero rational.

    Its one stored form is pairs, the inverses (1/alpha, 1/beta, 1/gamma) as
    reduced pairs (n, d) with d > 0, and 1/inf = (0, 1).  As x -> 1/x is a
    bijection on the nonzero rationals and inf, the pairs give the same ==
    and hash as the slots, and alpha, beta and gamma are views of them."""

    pairs: Tuple[Tuple[int, int], ...]

    def __init__(self, alpha: ExtRational, beta: ExtRational, gamma: ExtRational):
        pairs = (alpha.inverse_pair(), beta.inverse_pair(), gamma.inverse_pair())
        object.__setattr__(self, "pairs", pairs)

    @classmethod
    def _from_pairs(cls, pairs) -> "TriangleParams":
        """Trusted constructor: pairs already in the stored form."""
        self = object.__new__(cls)
        self.__dict__["pairs"] = pairs
        return self

    @staticmethod
    def of(a, b, c) -> "TriangleParams":
        return TriangleParams(ExtRational.of(a), ExtRational.of(b), ExtRational.of(c))

    @staticmethod
    def parse(text: str) -> "TriangleParams":
        parts = text.split(",")
        if len(parts) != 3:
            raise Refused(f"expected three comma-separated parameters, got {text!r}")
        return TriangleParams(*(ExtRational.parse(p) for p in parts))

    alpha = property(lambda self: _slot(self.pairs[0]))
    beta = property(lambda self: _slot(self.pairs[1]))
    gamma = property(lambda self: _slot(self.pairs[2]))

    def inverses(self) -> Tuple:
        """(1/alpha, 1/beta, 1/gamma) as Q values, with 1/inf = 0."""
        return tuple(Q(n, d) for n, d in self.pairs)

    @property
    def is_hyperbolic(self) -> bool:
        (na, da), (nb, db), (nc, dc) = self.pairs
        # 1/alpha + 1/beta + 1/gamma < 1, over the denominator da * db * dc > 0
        return na * db * dc + nb * da * dc + nc * da * db < da * db * dc

    def __str__(self) -> str:
        return "({},{},{})".format(*map(_slot, self.pairs))


def _slot(pair: Tuple[int, int]) -> ExtRational:
    """The parameter whose inverse is the pair (n, d): inf for n = 0, else d/n."""
    n, d = pair
    return INF if n == 0 else ExtRational(Q(d, n))


_TRI_DEN = Poly((0, 0, 1, -2, 1))  # y^2 (y - 1)^2


def _build_from_inverse_squares(A: int, B: int, C: int, L: int) -> RatFunc:
    # With inverse squares (a2, b2, c2) = (A, B, C)/L:
    # R = (1/2)[(1-b2)/y^2 + (1-c2)/(y-1)^2 + (b2+c2-a2-1)/(y(y-1))]
    #   = [(L-A) y^2 + (A+B-C-L) y + (L-B)] / (2L y^2 (y-1)^2)
    num = int_poly([L - B, A + B - C - L, L - A], 2 * L)
    if B != L and C != L:
        # num(0) = (L-B)/2L and num(1) = (L-C)/2L are nonzero, and 0 and 1
        # are the only roots of the denominator: num/den is already reduced
        return RatFunc._raw(num, _TRI_DEN)
    return RatFunc(num, _TRI_DEN)


def build_triangular_R(p: TriangleParams) -> RatFunc:
    """The triangular coefficient function for parameter triple p."""
    (na, da), (nb, db), (nc, dc) = p.pairs
    m = math.lcm(da, db, dc)
    # each inverse squared over the common denominator m^2
    A, B, C = (na * (m // da)) ** 2, (nb * (m // db)) ** 2, (nc * (m // dc)) ** 2
    return _build_from_inverse_squares(A, B, C, m * m)


SYMBOLIC_INVERSE_SQUARE = "SymbolicInverseSquare"


@dataclass(frozen=True)
class TriangularRecognition:
    """Outcome of recognize_triangular.

    inverse_squares holds the exact values (alpha^-2, beta^-2, gamma^-2).
    params holds the nonnegative square-root representative of each slot
    (parameters are only determined up to sign), or the marker string
    SYMBOLIC_INVERSE_SQUARE when an inverse square is not a rational square.
    """

    inverse_squares: Tuple
    params: Tuple[Union[ExtRational, str], ...]

    @property
    def has_exact_params(self) -> bool:
        return all(isinstance(s, ExtRational) for s in self.params)

    def triangle_params(self) -> TriangleParams:
        if not self.has_exact_params:
            raise NotTriangular(
                f"inverse squares {tuple(map(str, self.inverse_squares))} are not "
                "rational squares",
                self.inverse_squares,
            )
        return TriangleParams(*self.params)  # type: ignore[arg-type]


def recognize_triangular(R: RatFunc) -> TriangularRecognition:
    """Invert build_triangular_R, recovering parameters up to sign.

    R has the triangular form N / (y^2 (y - 1)^2) with deg N <= 2 exactly
    when R.den divides y^2 (y - 1)^2 and R vanishes to order >= 2 at
    infinity.  With N = (n0 + n1 y + n2 y^2)/L, the limits of y^2 R at 0,
    (y - 1)^2 R at 1 and y^2 R at infinity are n0/L, (n0 + n1 + n2)/L and
    n2/L, and each inverse square is 1 - 2 * limit; building R from these
    gives back N / (y^2 (y - 1)^2) = R, so no rebuild needs checking.

    Raises NotTriangular when the poles are not contained in {0, 1} with
    order <= 2, when R does not vanish to order >= 2 at infinity, or when
    an inverse square is negative.
    """
    cofactor, rem = divmod(_TRI_DEN, R.den)
    if not rem.is_zero:
        raise NotTriangular(f"poles of {R} are not contained in {{0, 1}} with order <= 2")
    N = R.num * cofactor
    if N.degree > 2:
        raise NotTriangular(f"{R} does not vanish to order >= 2 at infinity")
    L = N.den
    n0, n1, n2 = N.ints + (0,) * (3 - len(N.ints))
    A, B, C = L - 2 * n2, L - 2 * n0, L - 2 * (n0 + n1 + n2)
    inverse_squares = (Q(A, L), Q(B, L), Q(C, L))

    params = []
    for inv2 in inverse_squares:
        if inv2 < 0:
            raise NotTriangular(
                f"negative inverse square among {tuple(map(str, inverse_squares))}",
                inverse_squares,
            )
        if inv2 == 0:
            params.append(INF)
            continue
        root = rational_sqrt(inv2)
        if root is None:
            params.append(SYMBOLIC_INVERSE_SQUARE)
        else:
            params.append(ExtRational(1 / root))
    return TriangularRecognition(inverse_squares, tuple(params))


@dataclass(frozen=True, init=False)
class Moebius:
    """z = (a*y + b)/(c*y + d) with ad - bc != 0.

    Its one stored form is the integer matrix: the constructor takes rational
    entries and stores them times the lcm of their denominators, the same
    map, so == and hash compare the cleared matrix."""

    a: int
    b: int
    c: int
    d: int

    def __init__(self, a, b, c, d):
        entries = a, b, c, d = Q(a), Q(b), Q(c), Q(d)
        if a * d == b * c:
            raise SingularMoebius(f"ad - bc = 0 in ({a}*y + {b})/({c}*y + {d})")
        scale = math.lcm(*(x.denominator for x in entries))
        for name, x in zip("abcd", entries):
            object.__setattr__(self, name, x.numerator * (scale // x.denominator))

    @staticmethod
    def parse(text: str) -> "Moebius":
        parts = text.split(",")
        if len(parts) != 4:
            raise Refused(f"expected four comma-separated entries, got {text!r}")
        return Moebius(*(parse_q(p) for p in parts))

    def inverse(self) -> "Moebius":
        return Moebius(self.d, -self.b, -self.c, self.a)


def pullback_bits(R: RatFunc, m: Moebius) -> int:
    """A bound, known before it runs, on the bits of moebius_pullback(R, m):
    with m's integer entries of size <= h, R gains 2x + 4 <= n + k + |4 + n - k|
    linear factors and det^2, four more, each factor of size <= 2h."""
    h = max(abs(m.a), abs(m.b), abs(m.c), abs(m.d))
    n, k = len(R.num.ints), len(R.den.ints)
    return height(R).bit_length() + (n + k + abs(4 + n - k) + 4) * (2 * h).bit_length()


def moebius_pullback(R: RatFunc, m: Moebius) -> RatFunc:
    """Coefficient function after the change of variable z = m(y).

    Returns Rt with Rt(z) = R(m^{-1}(z)) * (dm^{-1}/dz)^2, so z = m(y)
    solves the Schwarzian equation with Rt whenever y solves it with R.
    """
    if R.is_zero:
        return R
    # m^{-1}(z) = M/L for M = az + b, L = cz + d on integers (scaling them
    # leaves Rt unchanged) and (m^{-1})' = det/L^2.  For x = max(deg N, deg D - 4),
    # Rt = det^2 N(M/L) L^x / (D(M/L) L^(x+4)), Taylor shifts in L by
    # c(az + b) = a(cz + d) - det when c != 0.  m^{-1} is bijective on P^1 and
    # only one side has extra powers of L, so den only needs to be monic.
    a, b, c, d, det = inv = (m.d, -m.b, -m.c, m.a, m.a * m.d - m.b * m.c)
    N, D = R.num, R.den
    x = max(N.degree, D.degree - 4)
    num = _homogenize_ints(N.ints, x, inv)
    den = int_poly(_homogenize_ints(D.ints, x + 4, inv), 1)  # strips the zeros on top
    # R = N.ints D.den / (D.ints N.den), and num/den carries c^-4 when c != 0
    factor = det**2 * D.den * (c**4 or 1)
    return RatFunc._raw(*monic_denominator(int_poly([v * factor for v in num], N.den), den))


def _homogenize_ints(f, n: int, inv) -> List[int]:
    """sum f_k M^k L^(n-k) on integers; when c != 0, c^n times it, which is
    G(cz + d) for G(w) = w^n F(1/w) and F(t) = sum f_k c^(n-k) (a - det t)^k."""
    a, b, c, d, det = inv
    f = list(f) + [0] * (n + 1 - len(f))
    if not c:
        return _substitute(f, d, b, a)
    return _substitute(_substitute(f, c, a, -det)[::-1], 1, d, c)


def _substitute(f: List[int], u: int, s: int, v: int) -> List[int]:
    """sum f_k u^(n-k) (v z + s)^k for f = [f_0, ..., f_n]: a scaling, a
    Taylor shift by s in the Pascal scheme (Shaw and Traub 1974; von zur
    Gathen and Gerhard 1997) and a scaling."""
    n = len(f) - 1
    f = [x * u ** (n - k) for k, x in enumerate(f)] if u != 1 else f
    for i in range(n if s else 0):
        acc = f[n]
        for j in range(n - 1, i - 1, -1):
            acc = f[j] = f[j] + s * acc
    return [x * v**k for k, x in enumerate(f)] if v != 1 else f
