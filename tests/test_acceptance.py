"""Acceptance gate: the eight headline properties, exact tolerance.

Every check is symbolic; "tolerance" is exact zero throughout.  Each
criterion is one test function that ends by printing a single PASS line
(visible with -s; under plain -v the test's PASSED/FAILED line is the
per-criterion verdict).
"""

import pathlib
import random
import time

from triform.kimura import (
    _RESIDUE_MATCHES,
    _residue,
    condition_one,
    condition_two,
    decide_condition_ric,
    hyperbolic_integer_triples,
    verify_witness,
)
from triform.parser import ExprSyntaxError, parse_expr, print_expr
from triform.polynomials import Poly, RatFunc
from triform.puiseux import leading_constraints
from triform.riccati import (
    CONTRADICTION,
    RiccatiEq,
    cross_check,
    rational_solutions,
)
from triform.scalars import INF, ExtRational, Q
from triform.schwarzian import (
    Moebius,
    TriangleParams,
    build_triangular_R,
    moebius_pullback,
    recognize_triangular,
)

from conftest import random_nonconstant_ratfunc, random_ratfunc, rf
from reference import (
    PuiseuxSeries,
    check_solution,
    half_riccati_residual,
    is_moebius,
    moebius_apply,
    moebius_function,
    schwarzian_of,
    series_residual,
    value,
)
from test_schwarzian import random_moebius

BOUND = 100
DATA = pathlib.Path(__file__).parent / "data"


def test_criterion_1_hyperbolic_sweep_holds():
    start = time.monotonic()
    triples = list(hyperbolic_integer_triples(BOUND))
    failures = [p for p in triples if not decide_condition_ric(p).holds]
    elapsed = time.monotonic() - start
    assert failures == [], f"witness fired for {failures[:5]}"
    assert elapsed < 10.0, f"sweep took {elapsed:.1f}s (budget 10s)"
    print(
        f"PASS criterion 1: all {len(triples)} hyperbolic integer triples "
        f"(entries 2..{BOUND} and inf) give ConditionRicHolds in {elapsed:.2f}s"
    )


def test_criterion_2_row_exclusions():
    beta_frac = Q(2, 5)
    for p in hyperbolic_integer_triples(BOUND):
        # the exhaustive search hits no row, rows 1-2 and the parity rows
        # included
        assert condition_one(p) is None, f"a row hit {p}"
        # the 2/5 slot of rows 9 and 14 is unreachable from 1/n values
        for x in p.inverses():
            assert beta_frac not in _RESIDUE_MATCHES.get(_residue(x), ()), f"2/5 matched by {p}"
    # boundary behavior just outside the hyperbolic range
    w234 = condition_one(TriangleParams.parse("2,3,4"))
    assert w234 is not None and w234.row == 4
    w235 = condition_one(TriangleParams.parse("2,3,5"))
    assert w235 is not None and w235.row == 6
    w236 = condition_two(TriangleParams.parse("2,3,6"))  # parabolic: sum = 1
    assert w236 is not None and w236.value == 1
    print(
        "PASS criterion 2: rows 1-2 and all parity rows excluded over the "
        "sweep; rows 9/14 beta slot unreachable; (2,3,4)->row 4, "
        "(2,3,5)->row 6, (2,3,6)->odd sum 1"
    )


def test_criterion_3_witness_replay():
    corpus = [TriangleParams.of(2, 2, ExtRational.of(n)) for n in range(2, 51)]
    corpus += [
        TriangleParams.parse(t)
        for t in ("2,2,2", "2,3,4", "1,1,1", "1,inf,inf", "5/2,3,3")
    ]
    replayed = 0
    for p in corpus:
        verdict = decide_condition_ric(p)
        assert not verdict.holds, f"{p} unexpectedly passed"
        assert verify_witness(p, verdict.witness), f"witness replay failed for {p}"
        replayed += 1
    print(f"PASS criterion 3: {replayed} witnesses re-verified independently")


def test_criterion_4_oracle_agreement():
    # named solutions, residual exactly zero
    e1 = RiccatiEq(build_triangular_R(TriangleParams.parse("1,inf,inf")))
    want = rf((Q(-1, 2), 1), (0, -1, 1))  # (1/2)(1/y + 1/(y-1))
    assert rational_solutions(e1).solutions == (want,)
    assert e1.residual(want).is_zero

    e2 = RiccatiEq(build_triangular_R(TriangleParams.parse("1,1,1")))
    assert rational_solutions(e2).solutions == (RatFunc.zero(),)
    assert e2.residual(RatFunc.zero()).is_zero

    for text in ("2,3,7", "2,3,inf", "inf,inf,inf"):
        e = RiccatiEq(build_triangular_R(TriangleParams.parse(text)))
        assert rational_solutions(e).solutions == ()

    start = time.monotonic()
    contradictions = [
        p
        for p in hyperbolic_integer_triples(BOUND)
        if cross_check(p).status == CONTRADICTION
    ]
    elapsed = time.monotonic() - start
    assert contradictions == []
    assert elapsed < 60.0, f"cross-check sweep took {elapsed:.1f}s (budget 60s)"
    print(
        f"PASS criterion 4: named solutions exact, hyperbolic oracles empty, "
        f"no contradiction over the bound-{BOUND} sweep in {elapsed:.2f}s"
    )


def test_criterion_5_schwarzian_identities():
    rng = random.Random(55001)
    for _ in range(100):
        m = random_moebius(rng)
        g = random_nonconstant_ratfunc(rng, 2)
        assert schwarzian_of(moebius_apply(m, g)) == schwarzian_of(g)
    for _ in range(50):
        assert schwarzian_of(moebius_function(random_moebius(rng))).is_zero
    cases = 0
    while cases < 50:
        g = random_ratfunc(rng, 2)
        if g.derivative().is_zero:
            continue
        assert check_solution(g, RatFunc.zero()) == is_moebius(g)
        cases += 1
    print(
        "PASS criterion 5: Moebius invariance (100 pairs), Moebius kernel "
        "(50 maps), check_solution(g, 0) iff Moebius (50 cases)"
    )


def test_criterion_6_round_trip_and_j_function():
    rng = random.Random(66001)
    for _ in range(200):
        slots = []
        for _ in range(3):
            if rng.random() < 0.15:
                slots.append(INF)
            else:
                slots.append(ExtRational(Q(rng.randint(1, 20), rng.randint(1, 6))))
        p = TriangleParams(*slots)
        rec = recognize_triangular(build_triangular_R(p))
        want = tuple(x * x for x in p.inverses())
        assert rec.inverse_squares == want
        assert rec.triangle_params() == p

    # pullback of R_{inf,3,2} under y -> 1728y (the j-function normalization)
    R = build_triangular_R(TriangleParams.parse("inf,3,2"))
    scaled = moebius_pullback(R, Moebius(1728, 0, 0, 1))
    expected = RatFunc(
        Poly((2654208, -1968, 1)),
        Poly((0, 0, 2 * 1728 * 1728, -2 * 2 * 1728, 2)),
    )  # (z^2 - 1968 z + 2654208)/(2 z^2 (z - 1728)^2)
    assert scaled == expected
    # independent local checks on the frozen target
    z = RatFunc(Poly.variable())
    lim0 = value(expected * z * z, 0)
    assert lim0 == Q(4, 9)  # so beta^-2 = 1 - 2*(4/9) = 1/9, beta = 3
    shift = z - RatFunc.const(1728)
    lim1728 = value(expected * shift * shift, 1728)
    assert lim1728 == Q(3, 8)  # so gamma^-2 = 1 - 2*(3/8) = 1/4, gamma = 2
    # undoing the scaling recovers the triangular form and the verdict
    back = moebius_pullback(scaled, Moebius(1, 0, 0, 1728))
    params = recognize_triangular(back).triangle_params()
    assert params == TriangleParams.parse("inf,3,2")
    assert decide_condition_ric(params).holds
    import io
    import json

    from triform.cli import main

    out = io.StringIO()
    code = main(
        ["analyze", "--expr", "(y^2 - 1968*y + 2654208)/(2*y^2*(y - 1728)^2)",
         "--moebius", "1,0,0,1728", "--json"],
        out=out,
    )
    doc = json.loads(out.getvalue())
    assert code == 0
    assert doc["kimura"]["outcome"] == "ConditionRicHolds"
    assert doc["conclusion"] == "NoOrderTwoSubvarieties"
    print(
        "PASS criterion 6: 200 round-trips exact; scaled pullback matches "
        "(z^2 - 1968z + 2654208)/(2z^2(z-1728)^2) with both local limits; "
        "analysis concludes NoOrderTwoSubvarieties"
    )


def test_criterion_7_puiseux_reduction():
    """The closed form the library evaluates against E(U) derived from the
    general truncated series."""
    rng = random.Random(77001)
    # (a) lambda0 = 0: the w^0 coefficient under random lower terms and cutoffs
    for _ in range(100):
        a0 = random_ratfunc(rng, 2, zero_ok=False)
        R = random_ratfunc(rng, 2)
        cutoff = Q(-rng.randint(1, 16), 2)
        terms = [(Q(0), a0)]
        for _ in range(rng.randint(0, 3)):
            exp = Q(-rng.randint(1, 8), rng.randint(1, 2))
            if exp > cutoff:
                terms.append((exp, random_ratfunc(rng, 1)))
        E = series_residual(PuiseuxSeries(terms, cutoff=cutoff), R)
        assert E.cutoff < 0  # the w^0 coefficient is fully determined
        rep = leading_constraints(Q(0), a0, R)
        assert E.coefficient(0) == rep.constraint_residual == half_riccati_residual(a0, R)
    # (b) leading balance for positive leading exponents
    for _ in range(50):
        lam = Q(rng.randint(1, 9), rng.randint(1, 3))
        a0 = random_ratfunc(rng, 2, zero_ok=False)
        R = random_ratfunc(rng, 1)
        E = series_residual(PuiseuxSeries.monomial(a0, lam), R)
        rep = leading_constraints(lam, a0, R)
        assert E.coefficient(2 * lam) == rep.obstruction_coefficient == (a0 * a0).scale(lam + Q(1, 2))
    # (c) lambda0 < 0, R = 0: the leading term of E(U) known at exponents >= lambda0
    for i in range(50):
        lam = -Q(rng.randint(1, 9), rng.randint(1, 3))
        a0 = RatFunc.const(rng.randint(1, 5)) if i % 5 == 0 else random_ratfunc(rng, 2, zero_ok=False)
        E = series_residual(PuiseuxSeries.monomial(a0, lam, lam), RatFunc.zero())
        rep = leading_constraints(lam, a0, RatFunc.zero())
        assert (E.terms[0] if E.terms else (None, None)) == (
            rep.obstruction_exponent,
            rep.obstruction_coefficient,
        )
    # (d) the bridge on the (1, inf, inf) witness, both directions
    R = build_triangular_R(TriangleParams.parse("1,inf,inf"))
    u = rf((Q(-1, 2), 1), (0, -1, 1))
    a0 = u.scale(Q(2))
    assert RiccatiEq(R).residual(u).is_zero
    assert half_riccati_residual(a0, R).is_zero
    assert series_residual(PuiseuxSeries.monomial(a0, Q(0)), R).is_zero
    rep = leading_constraints(Q(0), a0, R)
    assert rep.satisfied and f"a0/2 = {u.render('y')} solves the Riccati equation" in rep.conclusion
    print(
        "PASS criterion 7: w^0 extraction (100 tails and cutoffs), leading balance "
        "(50 positive and 50 negative exponents), half-Riccati bridge both "
        "directions -- closed form equals the reference series, all exact"
    )


def test_criterion_8_parser():
    from test_parser import random_ast

    rng = random.Random(88001)
    for _ in range(500):
        ast = random_ast(rng)
        assert parse_expr(print_expr(ast)) == ast
    for text, pos in (("y^-1", 2), ("(y + 1", 6), ("", 0), ("1 + ", 4)):
        try:
            parse_expr(text)
            raise AssertionError(f"{text!r} parsed unexpectedly")
        except ExprSyntaxError as err:
            assert err.position == pos
    golden = (DATA / "parser_golden.txt").read_text().splitlines()
    checked = 0
    for line in golden:
        if not line or line.startswith("#"):
            continue
        source, expected = line.split("  =>  ")
        assert print_expr(parse_expr(source)) == expected
        checked += 1
    assert checked >= 20
    print(
        f"PASS criterion 8: 500 round-trips, positioned diagnostics, "
        f"{checked} golden renderings byte-stable"
    )
