"""Leading-exponent reduction of the Schwarzian equation in w = y'.

The reduction writes u = y''/y'^2 as a Puiseux series U in w = y' with
coefficients in Q(y), closes the system with y'' = U * w^2, and derives

    D(sum a_i w^{l_i}) = sum (da_i/dy) w^{l_i + 1}
                         + (sum l_i a_i w^{l_i}) * U * w.

Substituting u into the Schwarzian equation reduces it to

    E(U) = D(U)/w + (1/2) U^2 + R(y) = 0.

Only the leading term a0 * w^{lambda} of U is ever evaluated, and on that
monomial the derivation gives the closed form

    E(a0 w^lambda) = (da0/dy) w^lambda + (lambda + 1/2) a0^2 w^{2 lambda}
                     + R w^0.

Lower terms of U reach only exponents of E(U) below lambda (for lambda <= 0)
or below 2*lambda (for lambda > 0), so the leading-exponent analysis reads
this closed form: it forces lambda = 0 and the constraint
da0/dy + (1/2) a0^2 + R = 0 on the leading coefficient, and a0/2 is then a
solution of the associated Riccati equation.  The tests derive the same
coefficients from a general truncated-series reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .polynomials import RatFunc
from .scalars import Q, Refused


class ZeroLeadingCoefficient(Refused):
    """leading_constraints needs a nonzero leading coefficient."""


def residual(a0: RatFunc, R: RatFunc) -> RatFunc:
    """The w^0 coefficient of E(a0 * w^0): da0/dy + (1/2) a0^2 + R."""
    return a0.derivative() + (a0 * a0).scale(Q(1, 2)) + R


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
        # U = a0 w^lambda0 + O(w^lambda0): E(U) is known at exponents >= lambda0,
        # where only da0/dy w^lambda0 remains (2*lambda0 lies below the cutoff)
        da0 = a0.derivative()
        exponent, coeff = (None, None) if da0.is_zero else (lambda0, da0)
        return ConstraintReport(lambda0, a0, exponent, coeff, None, None, None, None)
    if a0 is None:
        return ConstraintReport(lambda0, None, None, None, None, None, None, None)
    res = residual(a0, R)
    ok = res.is_zero
    half = a0.scale(Q(1, 2)) if ok else None
    return ConstraintReport(lambda0, a0, None, None, None, res, ok, half)
