"""Exact-arithmetic substrate: polynomials and rational functions."""

import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import triform.polynomials as polynomials
from triform.polynomials import (
    NEG_INF,
    NotSplitOverRationals,
    Poly,
    RatFunc,
    int_poly,
    linear_factorization,
    rational_roots,
    render_poly,
)
from triform.scalars import Q

from conftest import random_poly, random_ratfunc
from reference import coeffs, reference_gcd, value

Y = RatFunc(Poly.variable())
ONE = RatFunc.const(1)


def rf(num, den=(1,)):
    return RatFunc(Poly(num), Poly(den))


class TestPoly:
    def test_zero_degree_sentinel(self):
        assert Poly(()).degree == NEG_INF
        assert Poly((0, 0)).degree == NEG_INF
        assert Poly((5,)).degree == 0

    def test_degree_additivity(self, rng):
        for _ in range(200):
            p = Poly([rng.randint(-5, 5) for _ in range(rng.randint(1, 5))])
            q = Poly([rng.randint(-5, 5) for _ in range(rng.randint(1, 5))])
            if p.is_zero or q.is_zero:
                assert (p * q).is_zero
            else:
                assert (p * q).degree == p.degree + q.degree

    def test_divmod_identity(self, rng):
        for _ in range(200):
            a = Poly([rng.randint(-5, 5) for _ in range(rng.randint(0, 6))])
            b = Poly([rng.randint(-5, 5) for _ in range(rng.randint(1, 4))])
            if b.is_zero:
                continue
            quot, rem = divmod(a, b)
            assert quot * b + rem == a
            assert rem.degree < b.degree or rem.is_zero

    def test_gcd_monic(self):
        p = Poly((0, 0, 2))  # 2y^2
        q = Poly((0, 4))  # 4y
        assert p.gcd(q) == Poly((0, 1))

    def test_rational_roots_with_multiplicity(self):
        # y^2 (y-1)^2 (y+3/2)
        p = (Poly((0, 1)) ** 2) * (Poly((-1, 1)) ** 2) * Poly((Q(3, 2), 1))
        assert rational_roots(p) == [(Q(-3, 2), 1), (Q(0), 2), (Q(1), 2)]


class TestRationalRoots:
    def test_products_of_known_factors(self, rng):
        # roots with large numerators and denominators, times irreducible
        # quadratics (y^2 - k, k not a square) that contribute no root
        for _ in range(150):
            roots = {}
            for _ in range(rng.randint(0, 4)):
                r = Q(rng.randint(-10**rng.randint(1, 25), 10**25), rng.randint(1, 10**rng.randint(1, 12)))
                roots[r] = roots.get(r, 0) + rng.randint(1, 3)
            p = Poly.const(Q(rng.choice((-7, -1, 3)), rng.choice((1, 5))))
            for r, m in roots.items():
                p = p * Poly.linear(r) ** m
            expected = sorted(roots.items())
            assert rational_roots(p) == expected
            if rng.random() < 0.5:
                p = p * Poly((-rng.choice((2, 3, 5, 6, 7)), 0, 1))
                assert rational_roots(p) == expected
                with pytest.raises(NotSplitOverRationals):
                    linear_factorization(p)
            else:
                assert linear_factorization(p) == expected
        # the degree-1000 denominator of the CLI's declared-limit inputs,
        # roots with denominators > 1, and multiple roots at 0
        for roots in (
            {Q(-1): 500, Q(-2): 500},
            {Q(0): 2, Q(2, 3): 3, Q(-5, 7): 1, Q(1, 10**20): 2},
            {Q(0): 7, Q(-3, 2): 4},
        ):
            p = math.prod((Poly.linear(r) ** m for r, m in roots.items()), start=Poly.const(3))
            assert rational_roots(p) == sorted(roots.items())

    def test_lift_reaches_twice_the_root_bound(self):
        # y - r lifts from 3 through 9, 81, 6561, ...; the residue mod m
        # names r only once m > 2|r|, so roots just past m/2 need one more lift
        for m in (9, 81, 6561, 43046721):
            for r in (m // 2, m // 2 + 1, m - 1, -(m // 2 + 1), 4 * m):
                assert rational_roots(Poly.linear(r)) == [(Q(r), 1)]

    def test_large_root_is_fast(self):
        # trial division over the divisors of the constant term would take
        # about sqrt(1.2e20) steps
        n = 123456789012345678901
        p = Poly((0, 0, 1)) * Poly.linear(1) ** 2 * Poly.linear(n) ** 2
        start = time.perf_counter()
        assert rational_roots(p) == [(Q(0), 2), (Q(1), 2), (Q(n), 2)]
        assert time.perf_counter() - start < 1.0


class TestRatFuncExamples:
    def test_common_denominator_sum(self):
        assert ONE / Y + ONE / (Y - ONE) == rf((-1, 2), (0, -1, 1))

    def test_self_division_is_one(self, rng):
        for _ in range(50):
            r = random_ratfunc(rng)
            if r.is_zero:
                continue
            assert r / r == ONE

    def test_half_square_difference(self):
        r = ((ONE / Y - ONE / (Y - ONE)) ** 2).scale(Q(1, 2))
        assert r == rf((Q(1, 2),), (0, 0, 1, -2, 1))

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ONE / RatFunc.zero()

    def test_canonical_structural_equality(self):
        a = rf((0, 2), (0, 0, 2))  # 2y / 2y^2
        b = rf((1,), (0, 1))  # 1/y
        assert a == b
        assert a.den.leading == 1


class TestDifferentiate:
    def test_examples(self):
        assert (Y * Y).derivative() == rf((0, 2))
        assert (ONE / Y).derivative() == rf((-1,), (0, 0, 1))
        assert RatFunc.const(7).derivative().is_zero

    def test_leibniz_random(self, rng):
        for _ in range(100):
            a = random_ratfunc(rng)
            b = random_ratfunc(rng)
            assert (a * b).derivative() == a.derivative() * b + a * b.derivative()


class TestReducedArithmetic:
    """The operators assemble reduced results without the full gcd of the
    unreduced formulas; RatFunc(num, den) on those formulas is the
    reference."""

    # linear and irreducible quadratic factors, so that random denominators
    # share factors (with multiplicity) often
    FACTORS = (
        Poly((0, 1)),
        Poly((-1, 1)),
        Poly((1, 1)),
        Poly((Q(-1, 2), 1)),
        Poly((1, 0, 1)),
    )

    def random_operand(self, rng, max_mult=2):
        den = Poly.const(Q(rng.randint(1, 5), rng.randint(1, 3)))
        for f in self.FACTORS:
            den = den * f ** rng.choice((0, 0, *range(1, max_mult + 1)))
        num = random_poly(rng)
        if rng.random() < 0.3:
            num = num * rng.choice(self.FACTORS)  # may cancel against den
        return RatFunc(num, den)

    def assert_reference(self, got, num, den):
        ref = RatFunc(num, den)
        assert (got.num, got.den) == (ref.num, ref.den)
        assert got.den.leading == 1

    def test_field_operations_match_reference(self, rng):
        shared = 0
        for _ in range(600):
            x, y = self.random_operand(rng), self.random_operand(rng)
            a, b, c, d = x.num, x.den, y.num, y.den
            shared += b.gcd(d).degree > 0
            self.assert_reference(x + y, a * d + c * b, b * d)
            self.assert_reference(x - y, a * d - c * b, b * d)
            self.assert_reference(x * y, a * c, b * d)
            if not y.is_zero:
                self.assert_reference(x / y, a * d, b * c)
        assert shared > 200  # the common-factor path really ran

    def test_cancellation_through_the_common_factor(self):
        # 1/(y(y-1)) + 1/(y(y+1)) = 2y/(y(y-1)(y+1)) = 2/(y^2 - 1)
        x = RatFunc(Poly.one(), Poly((0, -1, 1)))
        y = RatFunc(Poly.one(), Poly((0, 1, 1)))
        assert x + y == rf((2,), (-1, 0, 1))
        assert x - x == RatFunc.zero() and (x - x).den == Poly.one()

    def test_derivative_matches_reference(self, rng):
        for _ in range(400):
            x = self.random_operand(rng, max_mult=3)
            n, d = x.num, x.den
            got = x.derivative()
            self.assert_reference(got, n.derivative() * d - n * d.derivative(), d * d)

    def test_derivative_repeated_factors(self):
        # (1/(y^3 (y-1)^2))' = -(5y - 3)/(y^4 (y-1)^3)
        d = Poly((0, 1)) ** 3 * Poly((-1, 1)) ** 2
        got = RatFunc(Poly.one(), d).derivative()
        assert got == RatFunc(Poly((3, -5)), Poly((0, 1)) ** 4 * Poly((-1, 1)) ** 3)

    def test_power_matches_repeated_product(self, rng):
        for _ in range(100):
            x = self.random_operand(rng)
            n = rng.randint(-3, 4)
            if n < 0 and x.is_zero:
                continue
            ref = ONE
            for _ in range(abs(n)):
                ref = ref * x
            assert x**n == (ref if n >= 0 else ONE / ref)

    def test_gcd_matches_plain_euclid(self, rng):
        def euclid(a, b):
            while not b.is_zero:
                a, b = b, a % b
            return a.monic()

        for _ in range(300):
            common = random_poly(rng, 2, zero_ok=False)
            a, b = common * random_poly(rng), common * random_poly(rng)
            g = a.gcd(b)
            assert g == euclid(a, b)
            assert g.is_zero or g.leading == 1



class TestModularGcd:
    """Poly.gcd returns 1 when the images mod polynomials._P have a constant
    gcd, and runs Euclid otherwise; it must equal Euclid everywhere."""

    P = polynomials._P

    def operand(self, rng):
        """Zero, a constant, or up to degree 6 with small integers, with a
        leading integer that is a multiple of P one time in five."""
        deg = rng.choice((-1, 0, 0, *range(1, 7)))
        if deg < 0:
            return Poly(())
        ints = [rng.randint(-9, 9) for _ in range(deg)]
        lead = rng.choice((1, -1, 2, 7, -12))
        if rng.random() < 0.2:
            lead *= self.P
        return int_poly(ints + [lead], rng.choice((1, 1, 2, 3, 10)))

    def test_matches_euclid_on_seeded_pairs(self, monkeypatch):
        rng = random.Random(20261021)
        proved = []
        real = polynomials._coprime_mod_p

        def counting(a, b):
            proved.append(real(a, b))
            return proved[-1]

        monkeypatch.setattr(polynomials, "_coprime_mod_p", counting)
        for _ in range(3000):
            a, b = self.operand(rng), self.operand(rng)
            if rng.random() < 0.5:
                common = self.operand(rng)
                if not common.is_zero:
                    a, b = a * common, b * common
            assert a.gcd(b) == reference_gcd(a, b), (a, b)
        # both outcomes of the modular test, and pairs it is not run on
        assert proved.count(True) > 500 and proved.count(False) > 200
        assert len(proved) < 2000

    def test_common_factor_mod_p_alone(self):
        # y + 1 and y + 1 + P agree mod P but are coprime over Q: the
        # image gcd is not constant, so Euclid decides
        a = Poly((1, 1))
        b = Poly((1 + self.P, 1))
        assert not polynomials._coprime_mod_p(a.ints, b.ints)
        assert a.gcd(b) == reference_gcd(a, b) == Poly.one()

def _strip(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


class TestIntegerKernels:
    """Each kernel on integer numerators against the schoolbook algorithm
    on tuples of Fraction coefficients that it replaced."""

    DENS = (1, 2, 3, 6, 35, 2**31 - 1, 10**12 + 39)

    @staticmethod
    def ref_add(a, b):
        out = [Q(0)] * max(len(a), len(b))
        for i, c in enumerate(a):
            out[i] += c
        for i, c in enumerate(b):
            out[i] += c
        return _strip(out)

    @staticmethod
    def ref_mul(a, b):
        if not a or not b:
            return ()
        out = [Q(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return _strip(out)

    @staticmethod
    def ref_divmod(a, b):
        rem, db = list(a), len(b) - 1
        if len(rem) <= db:
            return (), _strip(a)
        quot = [Q(0)] * (len(rem) - db)
        for k in range(len(rem) - db - 1, -1, -1):
            c = rem[k + db] / b[-1]
            quot[k] = c
            for j, y in enumerate(b):
                rem[k + j] -= c * y
        return _strip(quot), _strip(rem[:db])

    @staticmethod
    def ref_eval(a, x):
        acc = Q(0)
        for c in reversed(a):
            acc = acc * x + c
        return acc

    @staticmethod
    def ref_monic(a):
        return tuple(c / a[-1] for c in a) if a else ()

    @classmethod
    def ref_gcd(cls, a, b):
        while b:
            a, b = b, cls.ref_divmod(a, b)[1]
        return cls.ref_monic(a)

    def operand(self, rng, den=None, max_deg=5):
        """Zero about one time in seven; a negative leading coefficient
        about half the time; coefficients over den, or mixed denominators."""
        deg = rng.randint(-1, max_deg)
        d = den or rng.choice(self.DENS)
        cs = [Q(rng.randint(-30, 30), d if rng.random() < 0.7 else rng.randint(1, 9))
              for _ in range(deg + 1)]
        if cs and rng.random() < 0.5:
            cs[-1] = -abs(cs[-1]) or Q(-1, d)
        return Poly(cs)

    @staticmethod
    def assert_canonical(p):
        assert p.den > 0
        assert p.ints == () and p.den == 1 or p.ints[-1] != 0
        assert math.gcd(p.den, *p.ints) == 1

    def pairs(self, rng, count):
        for i in range(count):
            den = rng.choice(self.DENS) if i % 2 else None  # equal, then mixed
            yield self.operand(rng, den), self.operand(rng, den)

    def test_ring_operations(self, rng):
        for p, q in self.pairs(rng, 600):
            a, b = coeffs(p), coeffs(q)
            for got, ref in (
                (p + q, self.ref_add(a, b)),
                (p - q, self.ref_add(a, tuple(-c for c in b))),
                (-p, tuple(-c for c in a)),
                (p * q, self.ref_mul(a, b)),
            ):
                self.assert_canonical(got)
                assert coeffs(got) == ref

    def test_scale_derivative_monic(self, rng):
        for p, _ in self.pairs(rng, 400):
            a = coeffs(p)
            c = Q(rng.randint(-9, 9), rng.choice(self.DENS))
            for got, ref in (
                (p.scale(c), _strip(x * c for x in a)),
                (p.scale(rng.randint(-3, 3)), None),
                (p.derivative(), tuple(k * x for k, x in enumerate(a) if k)),
                (p.monic(), self.ref_monic(a)),
            ):
                self.assert_canonical(got)
                if ref is not None:
                    assert coeffs(got) == ref

    def test_divmod(self, rng):
        constant_divisors = 0
        for p, q in self.pairs(rng, 600):
            if q.is_zero:
                with pytest.raises(ZeroDivisionError):
                    divmod(p, q)
                continue
            constant_divisors += q.degree == 0
            quot, rem = divmod(p, q)
            self.assert_canonical(quot)
            self.assert_canonical(rem)
            assert (coeffs(quot), coeffs(rem)) == self.ref_divmod(coeffs(p), coeffs(q))
        assert constant_divisors > 20

    def test_gcd(self, rng):
        for p, q in self.pairs(rng, 300):
            common = self.operand(rng, max_deg=2)
            p, q = p * common, q * common
            g = p.gcd(q)
            self.assert_canonical(g)
            assert coeffs(g) == self.ref_gcd(coeffs(p), coeffs(q))

    def test_evaluation_at_rationals(self, rng):
        for p, _ in self.pairs(rng, 400):
            for x in (
                Q(rng.randint(-10**15, 10**15), rng.randint(1, 10**15)),
                Q(rng.randint(-5, 5)),
                rng.randint(-5, 5),
            ):
                got = Q(*p.at(x.numerator, x.denominator))
                assert type(got) is Q
                assert got == self.ref_eval(coeffs(p), x)

    def test_canonical_form_is_route_independent(self, rng):
        for p, q in self.pairs(rng, 300):
            if q.is_zero:
                continue
            c = Q(rng.randint(1, 9), rng.choice(self.DENS))
            routes = [
                Poly(coeffs(p)),
                Poly(list(p.ints)).scale(Q(1, p.den)),
                (p * q) // q,
                (p + q) - q,
                -(-p),
                p.scale(c).scale(1 / c),
                p.monic().scale(p.leading) if not p.is_zero else p,
            ]
            for r in routes:
                assert (r.ints, r.den) == (p.ints, p.den)
                assert hash(r) == hash(p)

    def test_canonical_examples(self):
        assert (Poly((Q(1, 2), Q(-3, 4))).ints, Poly((Q(1, 2), Q(-3, 4))).den) == ((2, -3), 4)
        assert (Poly((Q(2, 6), Q(4, 6), 0)).ints, Poly((Q(2, 6), Q(4, 6))).den) == ((1, 2), 3)
        assert (Poly((2, 4)).ints, Poly((2, 4)).den) == ((2, 4), 1)
        assert (Poly(()).ints, Poly((0, 0)).den) == ((), 1)


class TestEvaluate:
    def test_examples(self):
        assert value(Y * Y, 3) == 9
        with pytest.raises(ZeroDivisionError):
            value(ONE / Y, 0)
        r = ONE / Y + ONE / (Y - ONE)
        assert value(r, 2) == Q(3, 2)

    def test_ring_homomorphism(self, rng):
        for _ in range(100):
            a = random_ratfunc(rng)
            b = random_ratfunc(rng)
            q = Q(rng.randint(-8, 8), rng.randint(1, 5))
            try:
                av, bv = value(a, q), value(b, q)
            except ZeroDivisionError:
                continue
            try:
                assert value(a + b, q) == av + bv
                assert value(a * b, q) == av * bv
            except ZeroDivisionError:
                # cancellation can move a pole; skip those points
                continue


def _thousand_triples():
    rng = random.Random(8675309)
    for _ in range(1000):
        yield (
            random_ratfunc(rng, 2),
            random_ratfunc(rng, 2),
            random_ratfunc(rng, 2),
        )


def test_field_identities_thousand_triples():
    for a, b, c in _thousand_triples():
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c


small_q = st.fractions(min_value=-10, max_value=10, max_denominator=6)


@st.composite
def ratfuncs(draw):
    num = Poly([Q(x) for x in draw(st.lists(small_q, min_size=0, max_size=4))])
    den = Poly([Q(x) for x in draw(st.lists(small_q, min_size=1, max_size=4))])
    if den.is_zero:
        den = Poly.one()
    return RatFunc(num, den)


@settings(max_examples=150, deadline=None)
@given(ratfuncs(), ratfuncs())
def test_hypothesis_commutativity_and_inverse(a, b):
    assert a + b == b + a
    assert a * b == b * a
    assert a - a == RatFunc.zero()
    if not b.is_zero:
        assert (a / b) * b == a


@settings(max_examples=150, deadline=None)
@given(ratfuncs(), ratfuncs())
def test_hypothesis_leibniz(a, b):
    assert (a * b).derivative() == a.derivative() * b + a * b.derivative()


def reference_render_poly(p: Poly, var: str) -> str:
    """render_poly as it was, one Fraction per coefficient."""
    if p.is_zero:
        return "0"
    parts = []
    cs = coeffs(p)
    for k in range(len(cs) - 1, -1, -1):
        c = cs[k]
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


def test_render_poly_matches_fraction_reference():
    """Coefficients 0, +-1, small and 40-digit values, over denominators 1,
    small and of up to 30 digits, so that zero gaps, a unit magnitude m/d
    with d > 1, and common factors of a numerator and den all occur."""
    rng = random.Random(8128)
    for _ in range(3000):
        den = rng.choice((1, 1, 2, 6, rng.randint(1, 10**30)))
        nums = [
            rng.choice((0, 0, 1, -1, den, -den, rng.randint(-99, 99), rng.randint(-10**40, 10**40)))
            for _ in range(rng.randint(0, 7))
        ]
        p = Poly([Q(n, den) for n in nums])
        for var in ("y", "t"):
            assert render_poly(p, var) == reference_render_poly(p, var)
