#!/usr/bin/env python3
"""End-to-end walkthrough on the j-function normalization.

The (inf, 3, 2) triangular equation is satisfied by the modular lambda-to-j
style uniformizers; rescaling by y -> 1728y puts the second singular point
at z = 1728, the classical normalization of the j-function.  This script
shows the pullback, the recognizer undoing it, and the final verdict.
"""

from triform.kimura import decide_condition_ric
from triform.riccati import RiccatiEq, rational_solutions
from triform.schwarzian import (
    Moebius,
    TriangleParams,
    build_triangular_R,
    moebius_pullback,
    recognize_triangular,
)


def main() -> None:
    p = TriangleParams.parse("inf,3,2")
    R = build_triangular_R(p)
    print(f"parameters      : {p}")
    print(f"R(y)            = {R.render('y')}")

    m = Moebius(1728, 0, 0, 1)  # z = 1728 y
    Rt = moebius_pullback(R, m)
    print(f"pullback z=1728y: {Rt.render('z')}")

    back = moebius_pullback(Rt, m.inverse())
    rec = recognize_triangular(back)
    print(f"recognized back : {rec.triangle_params()}")

    verdict = decide_condition_ric(p)
    print(f"table verdict   : {verdict.outcome}")

    oracle = rational_solutions(RiccatiEq(R))
    print(f"rational Riccati solutions: {len(oracle.solutions)} (expected 0)")
    print(
        "conclusion      : no algebraic Riccati solutions, hence no "
        "order-two differential subvarieties"
    )


if __name__ == "__main__":
    main()
