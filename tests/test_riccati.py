"""Riccati/linear correspondence and the rational-solution oracle."""

import random

import pytest

from triform.polynomials import Poly, RatFunc, partial_fractions
from triform.riccati import (
    CONSISTENT,
    CONTRADICTION,
    INCONCLUSIVE,
    NonRationalPoles,
    RiccatiEq,
    UnsupportedAtInfinity,
    associate_riccati,
    cross_check,
    half_riccati_residual,
    rational_solutions,
)
from triform.scalars import Q
from triform.schwarzian import TriangleParams, build_triangular_R

from conftest import random_ratfunc

Y = RatFunc.variable()


def rf(num, den=(1,)):
    return RatFunc(Poly(num), Poly(den))


def triangular_riccati(text: str) -> RiccatiEq:
    return associate_riccati(build_triangular_R(TriangleParams.parse(text)))


class TestCorrespondence:
    def test_log_derivative_transfer(self):
        # v = y solves v'' = 0, so u = v'/v = 1/y solves the R = 0 Riccati
        e = RiccatiEq(RatFunc.zero())
        assert (Y.derivative().derivative() + e.half_R * Y).is_zero
        assert e.is_solution(rf((1,), (0, 1)))

    def test_transfer_random_v(self, rng):
        # for any nonzero polynomial v, u = v'/v solves the Riccati equation
        # whose (1/2)R is -v''/v
        for _ in range(50):
            v = random_ratfunc(rng, 3)
            if v.is_zero or v.derivative().is_zero:
                continue
            half_R = -(v.derivative().derivative() / v)
            e = RiccatiEq(half_R.scale(Q(2)))
            assert e.half_R == half_R
            assert e.is_solution(v.derivative() / v)

    def test_residual_nonzero_for_nonsolution(self):
        e = triangular_riccati("2,3,7")
        assert not e.is_solution(rf((1,), (0, 1)))


class TestHalfRiccatiBridge:
    def test_both_directions(self, rng):
        # a solves a' + (1/2)a^2 + R = 0  iff  u = a/2 solves
        # u' + u^2 + (1/2)R = 0
        for _ in range(50):
            a = random_ratfunc(rng, 2)
            R = random_ratfunc(rng, 2)
            lhs = half_riccati_residual(a, R)
            rhs = RiccatiEq(R).residual(a.scale(Q(1, 2)))
            assert lhs.is_zero == rhs.is_zero
            # stronger: the residuals agree up to the factor 1/2
            assert rhs.scale(Q(2)) == lhs


class TestOracleSolutions:
    def test_one_inf_inf(self):
        res = rational_solutions(triangular_riccati("1,inf,inf"))
        # u = (1/2)(1/y + 1/(y-1)) = (y - 1/2)/(y^2 - y)
        assert res.solutions == (rf((Q(-1, 2), 1), (0, -1, 1)),)

    def test_one_one_one(self):
        res = rational_solutions(triangular_riccati("1,1,1"))
        assert res.solutions == (RatFunc.zero(),)

    def test_hyperbolic_triples_empty(self):
        for text in ("2,3,7", "2,3,inf", "inf,inf,inf"):
            res = rational_solutions(triangular_riccati(text))
            assert res.solutions == ()
            # every enumerated combo must be pruned by the degree count
            for entry in res.certificate.combos:
                assert entry["status"].startswith("pruned")

    def test_unique_with_polynomial_part(self):
        # (1/2)R = -2/y^2 has indicial roots 2, -1 at 0; u = 2/y solves
        e = RiccatiEq(rf((-4,), (0, 0, 1)))
        res = rational_solutions(e)
        assert rf((2,), (0, 1)) in res.solutions
        # companion check: v = y^2 solves v'' - (2/y^2) v = 0
        v = Y * Y
        assert (v.derivative().derivative() + e.half_R * v).is_zero

    def test_zero_coefficient_gives_family(self):
        # R = 0: u = 1/(y - c) for every c, a movable family plus u = 0
        res = rational_solutions(RiccatiEq(RatFunc.zero()))
        assert RatFunc.zero() in res.solutions
        assert res.certificate.families  # the 1/(y-c) family is recorded

    def test_soundness(self, rng):
        # every returned solution satisfies the equation exactly
        for text in ("1,inf,inf", "1,1,1", "1,2,2", "1/2,1/3,1"):
            e = triangular_riccati(text)
            for u in rational_solutions(e).solutions:
                assert e.is_solution(u)

    def test_degree_bound_prunes(self):
        # R = 0 admits the degree-1 family 1/(y-c); a bound of 0 prunes it
        res = rational_solutions(RiccatiEq(RatFunc.zero()), degree_bound=0)
        assert res.solutions == (RatFunc.zero(),)
        assert not res.certificate.families
        assert any(
            "exceeds bound" in entry["status"] for entry in res.certificate.combos
        )

    def test_completeness(self):
        # 1/3,inf,inf has a solution with deg P = 1; a bound of 0 cuts it
        e = triangular_riccati("1/3,inf,inf")
        cut = rational_solutions(e, degree_bound=0)
        assert cut.solutions == () and not cut.complete
        full = rational_solutions(e, degree_bound=1)
        assert len(full.solutions) == 1 and full.complete
        assert rational_solutions(triangular_riccati("2,3,7"), degree_bound=0).complete
        # a family is found and recorded: it does not make the search incomplete
        family = rational_solutions(RiccatiEq(RatFunc.zero()))
        assert family.certificate.families and family.complete
        assert not rational_solutions(RiccatiEq(RatFunc.zero()), degree_bound=0).complete

    def test_irrational_exponent_short_circuits(self):
        # kappa = 1 at the pole: e^2 - e + 1 has no rational root
        res = rational_solutions(RiccatiEq(rf((2,), (0, 0, 1))))
        assert res.solutions == ()
        assert any("IrrationalLocalExponent" in n for n in res.certificate.notes)

    def test_high_order_pole_short_circuits(self):
        res = rational_solutions(RiccatiEq(rf((1,), (0, 0, 0, 1))))
        assert res.solutions == ()
        assert any("order 3" in n for n in res.certificate.notes)

    def test_non_rational_poles_rejected(self):
        with pytest.raises(NonRationalPoles):
            rational_solutions(RiccatiEq(rf((1,), (1, 0, 1))))

    def test_growth_at_infinity_rejected(self):
        with pytest.raises(UnsupportedAtInfinity):
            rational_solutions(RiccatiEq(rf((1,), (0, 1))))


class TestCrossCheck:
    def test_consistent_examples(self):
        for text in ("2,3,7", "inf,inf,inf", "1,inf,inf", "1,1,1", "2,3,4"):
            report = cross_check(TriangleParams.parse(text))
            assert report.status == CONSISTENT

    def test_witness_with_rational_confirmation(self):
        report = cross_check(TriangleParams.parse("1,inf,inf"))
        assert not report.verdict.holds
        assert report.oracle.found
        assert "confirms" in report.note

    def test_holds_with_empty_oracle(self):
        report = cross_check(TriangleParams.parse("2,3,7"))
        assert report.verdict.holds
        assert not report.oracle.found

    def test_witness_without_rational_solution(self):
        # (2,3,4) matches row 4 but the algebraic solution has degree > 1
        report = cross_check(TriangleParams.parse("2,3,4"))
        assert not report.verdict.holds
        assert not report.oracle.found
        assert report.status == CONSISTENT

    def test_contradiction_constant_distinct(self):
        assert len({CONSISTENT, CONTRADICTION, INCONCLUSIVE}) == 3

    def test_cut_search_is_inconclusive(self):
        p = TriangleParams.parse("1/3,inf,inf")
        report = cross_check(p, degree_bound=0)
        assert report.status == INCONCLUSIVE
        assert "degree bound 0" in report.note
        assert "exhaustive" not in report.note
        assert cross_check(p, degree_bound=1).status == CONSISTENT
        # 1,inf,inf has its solution at deg P = 0: nothing is cut
        assert cross_check(TriangleParams.parse("1,inf,inf"), degree_bound=0).status == CONSISTENT


class TestLocalData:
    def test_taylor_kappa_matches_partial_fractions(self):
        # kappa at a double pole c is read as num(c) / (den''(c)/2); compare
        # it with the order-2 partial-fraction coefficient of (1/2)R
        rng = random.Random(6601)
        candidates = [Q(k, m) for k in range(-7, 8) for m in (1, 2, 3)]
        candidates = sorted({c for c in candidates if c not in (0, 1)})
        checked = 0
        for _ in range(300):
            poles = rng.sample(candidates, rng.randint(1, 3))
            orders = [rng.choice((1, 2)) for _ in poles]
            orders[0] = 2
            den = Poly.one()
            for c, m in zip(poles, orders):
                den = den * Poly.linear(c) ** m
            num = Poly([Q(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(den.degree - 1)])
            if num.is_zero:
                continue
            R = RatFunc(num, den)
            want = {
                pole: coeff
                for pole, order, coeff in partial_fractions(R.scale(Q(1, 2))).terms
                if order == 2
            }
            cert = rational_solutions(RiccatiEq(R)).certificate
            assert cert.poles
            for data in cert.poles:
                assert data.kappa == want.get(data.pole, Q(0)), (str(R), data)
                checked += data.order == 2
        assert checked > 200
