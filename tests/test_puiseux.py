"""The leading-exponent reduction, its closed form checked against the
reference truncated-series arithmetic, and that reference itself."""

import pytest

from triform.cli import render_w0
from triform.polynomials import Poly, RatFunc
from triform.puiseux import ZeroLeadingCoefficient, leading_constraints, residual
from triform.riccati import RiccatiEq
from triform.scalars import Q
from triform.schwarzian import TriangleParams, build_triangular_R

from conftest import random_ratfunc, rf
from reference import (
    EXACT,
    PuiseuxSeries,
    SeriesContext,
    derive,
    half_riccati_residual,
    series_residual,
)

Y = RatFunc(Poly.variable())
ONE = RatFunc.const(1)


def mono(coeff, exp, cutoff=EXACT):
    return PuiseuxSeries.monomial(coeff, exp, cutoff)


class TestSeriesBasics:
    def test_merge_and_sort(self):
        s = PuiseuxSeries([(Q(1), ONE), (Q(0), Y), (Q(1), ONE)])
        assert s.terms == ((Q(1), ONE + ONE), (Q(0), Y))

    def test_zero_coefficients_dropped(self):
        s = mono(ONE, 2) + mono(-ONE, 2)
        assert s.is_zero

    def test_exponent_denominator(self):
        s = mono(ONE, Q(1, 2)) + mono(Y, Q(-1, 3))
        assert s.terms == ((Q(1, 2), ONE), (Q(-1, 3), Y))

    def test_coefficient_lookup_and_cutoff_guard(self):
        s = PuiseuxSeries([(Q(0), Y)], cutoff=Q(-2))
        assert s.coefficient(0) == Y
        assert s.coefficient(-1).is_zero  # above the cutoff: genuinely zero
        with pytest.raises(ValueError):
            s.coefficient(-3)  # below the cutoff: unknown, not zero

    def test_terms_below_cutoff_discarded(self):
        s = PuiseuxSeries([(Q(0), Y), (Q(-5), ONE)], cutoff=Q(-2))
        assert s.terms == ((Q(0), Y),)


class TestSeriesArithmetic:
    def test_square_with_half_exponent(self):
        # (a0 + a1 w^{-1/2})^2 = a0^2 + 2 a0 a1 w^{-1/2} + a1^2 w^{-1}
        a0, a1 = Y, ONE + Y
        s = mono(a0, 0) + mono(a1, Q(-1, 2))
        sq = s * s
        assert sq.coefficient(0) == a0 * a0
        assert sq.coefficient(Q(-1, 2)) == (a0 * a1).scale(Q(2))
        assert sq.coefficient(-1) == a1 * a1
        assert sq.cutoff is EXACT

    def test_addition_cutoff_is_max(self):
        s = PuiseuxSeries([(Q(0), ONE)], cutoff=Q(-4))
        t = PuiseuxSeries([(Q(0), Y)], cutoff=Q(-2))
        assert (s + t).cutoff == Q(-2)

    def test_multiplication_cutoff(self):
        # leading exponents 1 and 0, cutoffs -4 and -2:
        # unknown tail enters at max(1 + (-2), 0 + (-4)) = -1
        s = PuiseuxSeries([(Q(1), ONE)], cutoff=Q(-4))
        t = PuiseuxSeries([(Q(0), Y)], cutoff=Q(-2))
        assert (s * t).cutoff == Q(-1)

    def test_shift(self):
        s = PuiseuxSeries([(Q(0), Y)], cutoff=Q(-3)).shift(Q(2))
        assert s.terms == ((Q(2), Y),)
        assert s.cutoff == Q(-1)

    def test_exact_cutoff_survives_arithmetic(self):
        s = mono(Y, 1)
        assert (s + s).cutoff is EXACT
        assert (s * s).cutoff is EXACT

    def test_unknown_op(self):
        # division is not a series operation
        with pytest.raises(TypeError):
            mono(ONE, 0) / mono(ONE, 0)


class TestDerivation:
    def test_constant_killed(self):
        ctx = SeriesContext(mono(ONE, 0))
        assert derive(PuiseuxSeries.from_ratfunc(RatFunc.const(5)), ctx).is_zero

    def test_w0_coefficient_rule(self):
        # D(a(y) w^0) = a'(y) w^1
        ctx = SeriesContext(mono(ONE, 0))
        a = Y * Y
        d = derive(PuiseuxSeries.from_ratfunc(a), ctx)
        assert d.terms == ((Q(1), a.derivative()),)

    def test_monomial_rule(self):
        # D(a w^l) = a' w^{l+1} + l a U w^{l+1} with U = u0 w^0
        u0 = Y
        ctx = SeriesContext(mono(u0, 0))
        a, lam = ONE + Y, Q(3)
        d = derive(mono(a, lam), ctx)
        assert d.terms == ((lam + 1, a.derivative() + a.scale(lam) * u0),)

    def test_leibniz(self, rng):
        ctx = SeriesContext(mono(Y, 0) + mono(ONE, -1))
        for _ in range(30):
            s = mono(random_ratfunc(rng, 2), rng.randint(-2, 2))
            t = mono(random_ratfunc(rng, 2), rng.randint(-2, 2))
            assert derive(s * t, ctx) == derive(s, ctx) * t + s * derive(t, ctx)


class TestResidual:
    def test_exact_riccati_solution_kills_w0(self):
        # U = a0 w^0 with a0 solving a0' + (1/2)a0^2 + R = 0 makes E(U) = 0
        R = build_triangular_R(TriangleParams.parse("1,inf,inf"))
        # Riccati solution u = (y - 1/2)/(y^2 - y); a0 = 2u
        a0 = rf((-1, 2), (0, -1, 1))
        assert half_riccati_residual(a0, R).is_zero
        E = series_residual(mono(a0, 0), R)
        assert E.is_zero

    def test_w0_coefficient_is_half_riccati_residual(self, rng):
        for _ in range(30):
            a0 = random_ratfunc(rng, 2, zero_ok=False)
            R = random_ratfunc(rng, 2)
            E = series_residual(mono(a0, 0), R)
            assert E.coefficient(0) == half_riccati_residual(a0, R)

    def test_positive_lambda_leading_balance(self):
        # U = a0 w^2: E(U) carries (2 + 1/2) a0^2 at w^4
        a0 = Y
        E = series_residual(mono(a0, 2), RatFunc.zero())
        assert E.coefficient(4) == (a0 * a0).scale(Q(5, 2))

    def test_truncated_residual_reports_cutoff(self):
        R = build_triangular_R(TriangleParams.parse("2,3,7"))
        U = PuiseuxSeries([(Q(0), Y)], cutoff=Q(-5))
        E = series_residual(U, R)
        assert E.cutoff == Q(-5)
        assert E.coefficient(0) == half_riccati_residual(Y, R)


class TestClosedForm:
    """What the library evaluates against the reference series."""

    def test_residual_is_the_w0_coefficient(self, rng):
        # U = a0 w^0 + random lower terms, cutoffs in [-8, -1/2]
        for _ in range(60):
            a0 = random_ratfunc(rng, 2, zero_ok=False)
            R = random_ratfunc(rng, 2)
            cutoff = Q(-rng.randint(1, 16), 2)
            terms = [(Q(0), a0)]
            for _ in range(rng.randint(0, 3)):
                exp = Q(-rng.randint(1, 16), rng.randint(1, 3))
                terms.append((exp, random_ratfunc(rng, 1)))
            E = series_residual(PuiseuxSeries(terms, cutoff=cutoff), R)
            want = E.coefficient(0)
            assert residual(a0, R) == want
            assert leading_constraints(Q(0), a0, R).constraint_residual == want

    def test_negative_lambda_leading_term(self, rng):
        # R = 0 and U = a0 w^lambda0 + O(w^lambda0): E(U)'s first known term
        for i in range(60):
            lam = -Q(rng.randint(1, 12), rng.randint(1, 4))
            if i % 4 == 0:
                a0 = RatFunc.const(Q(rng.choice((-3, 1, 2)), rng.randint(1, 3)))
            else:
                a0 = random_ratfunc(rng, 2, zero_ok=False)
            E = series_residual(mono(a0, lam, lam), RatFunc.zero())
            rep = leading_constraints(lam, a0, RatFunc.zero())
            want = E.terms[0] if E.terms else (None, None)
            assert (rep.obstruction_exponent, rep.obstruction_coefficient) == want
            assert (want == (None, None)) == a0.derivative().is_zero

    def test_render_w0_matches_series_render(self, rng):
        cs = [RatFunc.zero(), ONE, RatFunc.const(-3), RatFunc.const(Q(5, 6)),
              RatFunc.const(Q(-1, 2)), Y, -Y, Y + ONE, ONE / Y, rf((-1, 2), (0, -1, 1))]
        cs += [random_ratfunc(rng, 2) for _ in range(20)]
        for c in cs:
            for t in range(-8, 1):
                assert render_w0(c, t) == PuiseuxSeries.from_ratfunc(c, Q(t)).render()


class TestLeadingConstraints:
    def test_zero_a0_rejected(self):
        with pytest.raises(ZeroLeadingCoefficient):
            leading_constraints(0, RatFunc.zero(), RatFunc.zero())

    def test_positive_lambda_obstruction(self):
        rep = leading_constraints(Q(1), Y, RatFunc.zero())
        assert rep.obstruction_exponent == 2
        assert rep.obstruction_factor == Q(3, 2)
        assert rep.obstruction_coefficient == (Y * Y).scale(Q(3, 2))
        assert "obstructed" in rep.describe()

    def test_positive_lambda_symbolic(self):
        rep = leading_constraints(Q(1, 2), None, RatFunc.zero())
        assert rep.obstruction_exponent == 1
        assert rep.obstruction_factor == Q(1)
        assert rep.obstruction_coefficient is None

    def test_negative_lambda_obstruction(self):
        R = build_triangular_R(TriangleParams.parse("2,3,7"))
        rep = leading_constraints(Q(-1), Y, R)
        assert rep.obstruction_exponent == 0
        assert rep.obstruction_coefficient == R

    def test_lambda_zero_satisfied(self):
        R = build_triangular_R(TriangleParams.parse("1,inf,inf"))
        a0 = rf((-1, 2), (0, -1, 1))
        rep = leading_constraints(Q(0), a0, R)
        assert rep.satisfied
        assert rep.constraint_residual.is_zero
        # the bridge: a0/2 solves the Riccati equation
        u = rep.half_riccati_solution
        assert RiccatiEq(R).residual(u).is_zero
        assert "solves the Riccati equation" in rep.describe()

    def test_lambda_zero_violated(self):
        R = build_triangular_R(TriangleParams.parse("2,3,7"))
        rep = leading_constraints(Q(0), Y, R)
        assert rep.satisfied is False
        assert rep.half_riccati_solution is None
        assert not rep.constraint_residual.is_zero

    def test_lambda_zero_symbolic(self):
        rep = leading_constraints(Q(0), None, RatFunc.zero())
        assert rep.satisfied is None
        assert "must satisfy" in rep.describe()


def test_bridge_both_directions(rng):
    # a solves the half equation iff a/2 solves the Riccati equation; check
    # on exact solutions and on random non-solutions
    R = build_triangular_R(TriangleParams.parse("1,1,1"))  # R = 0
    a = RatFunc(Poly((2,)), Poly((0, 1)))  # a = 2/y: a' + a^2/2 = -2/y^2 + 2/y^2
    assert half_riccati_residual(a, R).is_zero
    assert RiccatiEq(R).residual(a.scale(Q(1, 2))).is_zero
    for _ in range(30):
        cand = random_ratfunc(rng, 2, zero_ok=False)
        Rr = random_ratfunc(rng, 2)
        assert (
            half_riccati_residual(cand, Rr).is_zero
            == RiccatiEq(Rr).residual(cand.scale(Q(1, 2))).is_zero
        )
