"""Independent checks the tests compare the library against.

These are written from the definitions, on RatFunc arithmetic alone, and
are not used by the library: the Schwarzian derivative, the Schwarzian
equation's solution test, composition and evaluation of rational functions,
Moebius maps as functions and as matrices, and the half-Riccati residual.
"""

from triform.polynomials import Poly, RatFunc
from triform.scalars import Q


def coeffs(p: Poly) -> tuple:
    """The coefficients of p as Q values, ascending degree."""
    return tuple(Q(n, p.den) for n in p.ints)


def value(r: RatFunc, x) -> Q:
    """r(x) for a rational x; ZeroDivisionError at a pole of r."""
    x = Q(x)
    return r.num(x) / r.den(x)


def compose(f: RatFunc, g: RatFunc) -> RatFunc:
    """f(g(y)), by Horner's rule over RatFunc on numerator and denominator."""

    def poly_at(p: Poly) -> RatFunc:
        acc = RatFunc.zero()
        for c in reversed(coeffs(p)):
            acc = acc * g + RatFunc.const(c)
        return acc

    return poly_at(f.num) / poly_at(f.den)


def schwarzian_of(g: RatFunc) -> RatFunc:
    """S(g) = (g''/g')' - (1/2)(g''/g')^2; zero iff g is Moebius."""
    gp = g.derivative()
    if gp.is_zero:
        raise ValueError("Schwarzian derivative of a constant")
    h = gp.derivative() / gp
    return h.derivative() - (h * h).scale(Q(1, 2))


def check_solution(g: RatFunc, R: RatFunc) -> bool:
    """Does g satisfy S(g) + (g')^2 * R(g) = 0 identically?"""
    gp = g.derivative()
    if gp.is_zero:
        raise ValueError("candidate solution is constant")
    return (schwarzian_of(g) + gp * gp * compose(R, g)).is_zero


def is_moebius(g: RatFunc) -> bool:
    """Non-constant and of the form (ay+b)/(cy+d); such g have S(g) = 0."""
    return g.num.degree <= 1 and g.den.degree <= 1 and not g.derivative().is_zero


def moebius_function(m) -> RatFunc:
    """(a*y + b)/(c*y + d) for a map m with entries m.a, m.b, m.c, m.d."""
    return RatFunc(Poly((m.b, m.a)), Poly((m.d, m.c)))


def moebius_apply(m, g: RatFunc) -> RatFunc:
    """(a*g + b)/(c*g + d)."""
    num = g.scale(m.a) + RatFunc.const(m.b)
    den = g.scale(m.c) + RatFunc.const(m.d)
    return num / den


def matrix_product(m, n) -> tuple:
    """The entries (a, b, c, d) of the matrix product m * n, the map m after n."""
    return (
        m.a * n.a + m.b * n.c,
        m.a * n.b + m.b * n.d,
        m.c * n.a + m.d * n.c,
        m.c * n.b + m.d * n.d,
    )


def half_riccati_residual(a: RatFunc, R: RatFunc) -> RatFunc:
    """Residual of da/dy + (1/2)a^2 + R = 0; a solves this iff a/2 solves
    the Riccati equation with coefficient (1/2)R."""
    return a.derivative() + (a * a).scale(Q(1, 2)) + R
