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
solution of the associated Riccati equation.  leading_constraints decides
which case of this analysis holds and writes the conclusion sentence that
series-check prints; a value that sentence would print with an integer
above MAX_OUTPUT_BITS bits raises OutputTooLarge before it is written.
The tests derive the same coefficients from a general truncated-series
reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .polynomials import RatFunc, check_output_size
from .scalars import Q, Refused


class ZeroLeadingCoefficient(Refused):
    """leading_constraints needs a nonzero leading coefficient."""


def residual(a0: RatFunc, R: RatFunc) -> RatFunc:
    """The w^0 coefficient of E(a0 * w^0): da0/dy + (1/2) a0^2 + R."""
    return a0.derivative() + (a0 * a0).scale(Q(1, 2)) + R


def _shown(f: RatFunc) -> str:
    """The text of f, which a conclusion prints; OutputTooLarge first when
    f has an integer above MAX_OUTPUT_BITS bits."""
    check_output_size("the series-check result", f)
    return f.render("y")


@dataclass(frozen=True)
class ConstraintReport:
    """Leading-exponent analysis of E(U) for U = a0*w^{lambda0} + lower, and
    the sentence that states what it forces."""

    lambda0: object
    a0: Optional[RatFunc]  # None when symbolic
    obstruction_exponent: Optional[object]
    obstruction_coefficient: Optional[RatFunc]  # None when a0 is symbolic
    constraint_residual: Optional[RatFunc]  # da0/dy + (1/2)a0^2 + R, lambda0 = 0
    satisfied: Optional[bool]
    conclusion: str


def leading_constraints(
    lambda0, a0: Optional[RatFunc], R: RatFunc
) -> ConstraintReport:
    """What the leading term a0*w^{lambda0} of U forces in E(U) = 0, with
    the conclusion sentence that says it.

    lambda0 > 0: the coefficient (lambda0 + 1/2)*a0^2 at exponent 2*lambda0
    is nonzero, so no solution has a positive leading exponent.
    lambda0 = 0: the w^0 coefficient is da0/dy + (1/2)a0^2 + R; it vanishes
    iff a0/2 solves the Riccati equation du/dy + u^2 + (1/2)R = 0.
    lambda0 < 0: the w^0 coefficient is bare R.  When R = 0 the obstruction
    is the leading coefficient of E(U) at the exponents >= lambda0, which
    the lower terms of U cannot reach: da0/dy at lambda0, or none.

    a0 may be None ("symbolic"): the conclusion then names the general
    obstruction instead of a concrete value.  A value the conclusion would
    print with an integer above MAX_OUTPUT_BITS bits raises OutputTooLarge
    before the sentence is written.
    """
    lambda0 = Q(lambda0)
    if a0 is not None and a0.is_zero:
        raise ZeroLeadingCoefficient("leading coefficient a0 must be nonzero")
    head, exponent, coeff, res = f"lambda0 = {lambda0}", None, None, None
    if lambda0 > 0:
        exponent, factor = 2 * lambda0, lambda0 + Q(1, 2)
        coeff = None if a0 is None else (a0 * a0).scale(factor)
        text = f"({factor})*a0^2" if coeff is None else _shown(coeff)
        sentence = (
            f"{head} > 0 is obstructed: E(U) has the nonzero coefficient {text} "
            f"at exponent {exponent}"
        )
    elif lambda0 < 0 and not R.is_zero:
        exponent, coeff = Q(0), R
        sentence = f"{head} < 0 is obstructed: the w^0 coefficient of E(U) is R(y) != 0"
    elif lambda0 < 0 and a0 is None:
        sentence = (
            f"{head} < 0 with R = 0 is obstructed unless a0 is constant: "
            f"the w^({lambda0}) coefficient of E(U) is da0/dy"
        )
    elif lambda0 < 0:
        # U = a0 w^lambda0 + O(w^lambda0): E(U) is known at exponents >= lambda0,
        # where only da0/dy w^lambda0 remains (2*lambda0 lies below the cutoff)
        da0 = a0.derivative()
        if da0.is_zero:
            sentence = (
                f"{head} < 0 with R = 0: no obstruction found; "
                f"E(U) vanishes at every exponent >= {lambda0}"
            )
        else:
            exponent, coeff = lambda0, da0
            sentence = (
                f"{head} < 0 is obstructed: R = 0 and E(U) has the nonzero coefficient "
                f"{_shown(da0)} at exponent {lambda0}"
            )
    elif a0 is None:
        sentence = f"{head}: a0 must satisfy da0/dy + (1/2)a0^2 + R = 0"
    else:
        res = residual(a0, R)
        sentence = f"{head}: constraint da0/dy + (1/2)a0^2 + R = 0 is " + (
            f"satisfied; a0/2 = {_shown(a0.scale(Q(1, 2)))} solves the Riccati equation"
            if res.is_zero
            else f"NOT satisfied; residual = {_shown(res)}"
        )
    satisfied = None if res is None else res.is_zero
    return ConstraintReport(lambda0, a0, exponent, coeff, res, satisfied, sentence)
