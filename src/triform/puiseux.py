"""Truncated Puiseux-series arithmetic in w = y' with coefficients in Q(y).

A series is a finite sum  sum_i a_i(y) * w^{lambda_i}  with strictly
descending rational exponents on a common denominator.  Exponents below the
series cutoff are UNKNOWN, not zero; every operation propagates the cutoff
so that no term is ever fabricated.  A cutoff of -inf means the series is
exact (all omitted terms are genuinely zero).

The derivation treats y' as the series variable w and closes the system
with y'' = U * w^2, where U is the designated series for u = y''/y'^2:

    D(sum a_i w^{l_i}) = sum (da_i/dy) w^{l_i + 1}
                         + (sum l_i a_i w^{l_i}) * U * w.

Scalars in Q are killed by D (the coefficient field is constants only and
the base derivation annihilates y itself).

Substituting u = y''/y'^2 into the Schwarzian equation reduces it to

    E(U) = D(U)/w + (1/2) U^2 + R(y) = 0,

whose leading-exponent analysis forces lambda_0 = 0 and the constraint
da_0/dy + (1/2) a_0^2 + R = 0 on the leading coefficient; a_0/2 is then a
solution of the associated Riccati equation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from .polynomials import RatFunc
from .scalars import Q, Refused

EXACT = float("-inf")  # cutoff sentinel: nothing is truncated


class ZeroLeadingCoefficient(Refused):
    """leading_constraints needs a nonzero leading coefficient."""


class PuiseuxSeries:
    __slots__ = ("terms", "cutoff")

    def __init__(self, terms: Iterable[Tuple[object, RatFunc]], cutoff=EXACT):
        # normalize any float -inf to the shared sentinel
        cutoff = EXACT if cutoff == EXACT else Q(cutoff)
        merged = {}
        for exp, coeff in terms:
            exp = exp if isinstance(exp, float) else Q(exp)
            if exp < cutoff:
                continue
            if exp in merged:
                merged[exp] = merged[exp] + coeff
            else:
                merged[exp] = coeff
        items = [(e, c) for e, c in merged.items() if not c.is_zero]
        items.sort(key=lambda t: t[0], reverse=True)
        self.terms: Tuple[Tuple[object, RatFunc], ...] = tuple(items)
        self.cutoff = cutoff

    # -- constructors --------------------------------------------------------

    @staticmethod
    def monomial(coeff: RatFunc, exp, cutoff=EXACT) -> "PuiseuxSeries":
        return PuiseuxSeries(((Q(exp), coeff),), cutoff)

    @staticmethod
    def from_ratfunc(r: RatFunc, cutoff=EXACT) -> "PuiseuxSeries":
        """r(y) as the w^0 term."""
        return PuiseuxSeries(((Q(0), r),), cutoff)

    # -- structure -------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exp) -> RatFunc:
        """Coefficient at the given exponent; raises below the cutoff."""
        exp = Q(exp)
        if exp < self.cutoff:
            raise ValueError(f"exponent {exp} is below the cutoff {self.cutoff}")
        for e, c in self.terms:
            if e == exp:
                return c
        return RatFunc.zero()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PuiseuxSeries)
            and self.terms == other.terms
            and self.cutoff == other.cutoff
        )

    def __hash__(self) -> int:
        return hash((self.terms, self.cutoff))

    # -- arithmetic ---------------------------------------------------------------

    def _effective_leading(self):
        """Leading exponent, or the cutoff when no term is known."""
        return self.terms[0][0] if self.terms else self.cutoff

    def __add__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        cutoff = max(self.cutoff, other.cutoff)
        return PuiseuxSeries(self.terms + other.terms, cutoff)

    def __neg__(self) -> "PuiseuxSeries":
        return PuiseuxSeries(((e, -c) for e, c in self.terms), self.cutoff)

    def __sub__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        return self + (-other)

    def __mul__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        lam = self._effective_leading()
        mu = other._effective_leading()
        if self.cutoff is EXACT and other.cutoff is EXACT:
            cutoff = EXACT
        else:
            cutoff = max(lam + other.cutoff, mu + self.cutoff)
        prods = [
            (e1 + e2, c1 * c2)
            for e1, c1 in self.terms
            for e2, c2 in other.terms
        ]
        return PuiseuxSeries(prods, cutoff)

    def scale(self, coeff: RatFunc) -> "PuiseuxSeries":
        return PuiseuxSeries(((e, c * coeff) for e, c in self.terms), self.cutoff)

    def shift(self, delta) -> "PuiseuxSeries":
        """Multiply by w^delta."""
        delta = Q(delta)
        cutoff = self.cutoff if self.cutoff is EXACT else self.cutoff + delta
        return PuiseuxSeries(((e + delta, c) for e, c in self.terms), cutoff)

    # -- display -------------------------------------------------------------------

    def render(self) -> str:
        if not self.terms:
            body = "0"
        else:
            chunks = []
            for e, c in self.terms:
                ctext = c.render("y")
                if "/" in ctext or " " in ctext:
                    ctext = f"({ctext})"
                if e == 0:
                    chunks.append(ctext)
                else:
                    chunks.append(f"{ctext}*w^({e})")
            body = " + ".join(chunks)
        if self.cutoff is EXACT:
            return body
        return f"{body} + O(w^({self.cutoff}))"

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"PuiseuxSeries({self.render()!r})"


@dataclass(frozen=True)
class SeriesContext:
    """Closure for the derivation: U stands for u = y''/y'^2, so y'' = U*w^2."""

    U: PuiseuxSeries

    def __post_init__(self):
        if self.U.is_zero and self.U.cutoff is not EXACT:
            raise ValueError("context series U has no known leading term")


def derive(s: PuiseuxSeries, ctx: SeriesContext) -> PuiseuxSeries:
    """D(s) = sum (da_i/dy) w^{l_i+1} + (sum l_i a_i w^{l_i}) * U * w."""
    part1 = PuiseuxSeries(
        ((e + 1, c.derivative()) for e, c in s.terms),
        s.cutoff if s.cutoff is EXACT else s.cutoff + 1,
    )
    lowered = PuiseuxSeries(
        ((e, c.scale(e)) for e, c in s.terms if e != 0), s.cutoff
    )
    part2 = lowered * ctx.U.shift(Q(1))
    return part1 + part2


def residual(U: PuiseuxSeries, R: RatFunc) -> PuiseuxSeries:
    """E(U) = D(U)/w + (1/2) U^2 + R(y) * w^0, truncated."""
    ctx = SeriesContext(U)
    du = derive(U, ctx).shift(Q(-1))
    usq = (U * U).scale(RatFunc.const(Q(1, 2)))
    rterm = PuiseuxSeries.from_ratfunc(R)
    return du + usq + rterm


@dataclass(frozen=True)
class ConstraintReport:
    """Leading-exponent analysis of E(U) for U = a0*w^{lambda0} + lower."""

    lambda0: object
    a0: Optional[RatFunc]  # None when symbolic
    obstruction_exponent: Optional[object]
    obstruction_coefficient: Optional[RatFunc]  # None when a0 is symbolic
    obstruction_factor: Optional[object]  # (lambda0 + 1/2) for lambda0 > 0
    constraint_residual: Optional[RatFunc]  # da0/dy + (1/2)a0^2 + R, lambda0 = 0
    satisfied: Optional[bool]
    half_riccati_solution: Optional[RatFunc]  # a0/2 when the constraint holds

    def describe(self) -> str:
        if self.lambda0 > 0:
            coeff = (
                self.obstruction_coefficient.render("y")
                if self.obstruction_coefficient is not None
                else f"({self.obstruction_factor})*a0^2"
            )
            return (
                f"lambda0 = {self.lambda0} > 0 is obstructed: E(U) has the "
                f"nonzero coefficient {coeff} at exponent {self.obstruction_exponent}"
            )
        if self.lambda0 < 0 and self.obstruction_exponent == 0:
            return (
                f"lambda0 = {self.lambda0} < 0 is obstructed: the w^0 "
                f"coefficient of E(U) is R(y) != 0"
            )
        if self.lambda0 < 0:  # R = 0: E(U) = da0/dy w^lambda0 + O(w^lambda0)
            if self.a0 is None:
                return (
                    f"lambda0 = {self.lambda0} < 0 with R = 0 is obstructed unless a0 "
                    f"is constant: the w^({self.lambda0}) coefficient of E(U) is da0/dy"
                )
            if self.obstruction_coefficient is None:
                return (
                    f"lambda0 = {self.lambda0} < 0 with R = 0: no obstruction found; "
                    f"E(U) vanishes at every exponent >= {self.lambda0}"
                )
            return (
                f"lambda0 = {self.lambda0} < 0 is obstructed: R = 0 and E(U) has the "
                f"nonzero coefficient {self.obstruction_coefficient.render('y')} "
                f"at exponent {self.obstruction_exponent}"
            )
        if self.a0 is None:
            return "lambda0 = 0: a0 must satisfy da0/dy + (1/2)a0^2 + R = 0"
        verdict = "satisfied" if self.satisfied else "NOT satisfied"
        return (
            f"lambda0 = 0: constraint da0/dy + (1/2)a0^2 + R = 0 is {verdict}"
            + (
                f"; a0/2 = {self.half_riccati_solution} solves the Riccati equation"
                if self.satisfied
                else f"; residual = {self.constraint_residual}"
            )
        )


def leading_constraints(
    lambda0, a0: Optional[RatFunc], R: RatFunc
) -> ConstraintReport:
    """What the leading term a0*w^{lambda0} of U forces in E(U) = 0.

    lambda0 > 0: the coefficient (lambda0 + 1/2)*a0^2 at exponent 2*lambda0
    is nonzero, so no solution has a positive leading exponent.
    lambda0 = 0: the w^0 coefficient is da0/dy + (1/2)a0^2 + R; it vanishes
    iff a0/2 solves the Riccati equation du/dy + u^2 + (1/2)R = 0.
    lambda0 < 0: the w^0 coefficient is bare R.  When R = 0 the obstruction
    is the leading coefficient of E(U) at the exponents >= lambda0, which
    the lower terms of U cannot reach: da0/dy at lambda0, or none.

    a0 may be None ("symbolic"): the report then carries the general
    obstruction factor instead of a concrete value.
    """
    lambda0 = Q(lambda0)
    if a0 is not None and a0.is_zero:
        raise ZeroLeadingCoefficient("leading coefficient a0 must be nonzero")
    if lambda0 > 0:
        factor = lambda0 + Q(1, 2)
        coeff = None if a0 is None else (a0 * a0).scale(factor)
        return ConstraintReport(
            lambda0, a0, 2 * lambda0, coeff, factor, None, None, None
        )
    if lambda0 < 0:
        if not R.is_zero:
            return ConstraintReport(lambda0, a0, Q(0), R, None, None, None, None)
        if a0 is None:
            return ConstraintReport(lambda0, None, None, None, None, None, None, None)
        # U = a0 w^lambda0 + O(w^lambda0): E(U) is known at exponents >= lambda0
        E = residual(PuiseuxSeries.monomial(a0, lambda0, lambda0), R)
        exponent, coeff = E.terms[0] if E.terms else (None, None)
        return ConstraintReport(lambda0, a0, exponent, coeff, None, None, None, None)
    if a0 is None:
        return ConstraintReport(lambda0, None, None, None, None, None, None, None)
    res = residual(PuiseuxSeries.monomial(a0, 0), R).coefficient(0)
    ok = res.is_zero
    half = a0.scale(Q(1, 2)) if ok else None
    return ConstraintReport(lambda0, a0, None, None, None, res, ok, half)
