"""Riccati/linear correspondence and the rational-solution oracle."""

import itertools
import random
from collections import Counter

import pytest

from triform import riccati
from triform.kimura import condition_two, hyperbolic_integer_triples
from triform.parser import parse_ratfunc
from triform.polynomials import Poly, RatFunc
from triform.riccati import (
    CONSISTENT,
    CONTRADICTION,
    INCONCLUSIVE,
    NonRationalPoles,
    RiccatiEq,
    UnsupportedAtInfinity,
    cross_check,
    rational_solutions,
)
from triform.scalars import Q
from triform.schwarzian import TriangleParams, build_triangular_R

from conftest import random_poly, random_ratfunc, rf
from reference import coeffs, half_riccati_residual, poly_value, riccati_residual, value

Y = RatFunc(Poly.variable())


def triangular_riccati(text: str) -> RiccatiEq:
    return RiccatiEq(build_triangular_R(TriangleParams.parse(text)))


class TestCorrespondence:
    def test_log_derivative_transfer(self):
        # v = y solves v'' = 0, so u = v'/v = 1/y solves the R = 0 Riccati
        e = RiccatiEq(RatFunc.zero())
        assert (Y.derivative().derivative() + e.half_R * Y).is_zero
        assert e.residual(rf((1,), (0, 1))).is_zero

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
            assert e.residual(v.derivative() / v).is_zero

    def test_residual_nonzero_for_nonsolution(self):
        e = triangular_riccati("2,3,7")
        assert not e.residual(rf((1,), (0, 1))).is_zero


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
                assert e.residual(u).is_zero

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

    def test_rational_solution_exactly_when_condition_two_fires(self):
        # a rational solution exists exactly when the monodromy is
        # reducible, which is condition 2 (Beukers and Heckman 1989): on
        # seeded inverses n/d, d <= 12, |n| <= 2d (inf for n = 0), and on
        # the bound-30 sweep, every search is complete and agrees with it
        rng = random.Random(2209)

        def slot():
            d = rng.randint(1, 12)
            n = rng.randint(-2 * d, 2 * d)
            return "inf" if n == 0 else str(Q(d, n))

        sample = [TriangleParams.parse(",".join(slot() for _ in range(3))) for _ in range(4000)]
        fired = Counter()
        for p in [*sample, *hyperbolic_integer_triples(30)]:
            report = cross_check(p, degree_bound=60)
            assert report.status == CONSISTENT and report.oracle.complete, (str(p), report.note)
            two = condition_two(p) is not None
            assert report.oracle.found == two, str(p)
            w = report.verdict.witness
            fired[two, w and w.condition] += 1
        # both conditions, each alone, and neither all occur
        assert min(fired[k] for k in ((True, 1), (True, 2), (False, 1), (False, None))) >= 20, fired


def random_big_q(rng, den_digits, num_digits=30):
    """A rational with up to num_digits digits over up to 10^k, k drawn
    from den_digits."""
    bound = 10**num_digits
    return Q(rng.randint(-bound, bound), rng.randint(1, 10 ** rng.choice(den_digits)))


class TestLocalData:
    def test_taylor_kappa_matches_partial_fractions(self):
        # kappa at a double pole c is read as num(c) / (den''(c)/2); compare
        # it with the order-2 partial-fraction coefficient of (1/2)R, the
        # value at c of (y - c)^2 (1/2)R (zero at a simple pole)
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
            cert = rational_solutions(RiccatiEq(R)).certificate
            assert cert.poles
            for data in cert.poles:
                square = RatFunc(Poly.linear(data.pole) ** 2)
                want = value(square * R.scale(Q(1, 2)), data.pole)
                assert data.kappa == want, (str(R), data)
                checked += data.order == 2
        assert checked > 200

    def test_integer_kappa_matches_fraction_value(self):
        # the poles, h and kappa come from integer pairs; compare each with
        # the Fraction values h = den''(pole)/2 and kappa = num(pole)/h of
        # (1/2)R, on poles of up to 30 digits
        rng = random.Random(6602)
        checked = 0
        for _ in range(200):
            poles = {random_big_q(rng, (0, 12, 30)) for _ in range(rng.randint(1, 3))}
            den = Poly.one()
            for c in poles:
                den = den * Poly.linear(c) ** rng.choice((1, 2, 2))
            num = Poly([random_big_q(rng, (6,), 20) for _ in range(den.degree - 1)])
            if num.is_zero:
                continue
            r = RatFunc(num, den).scale(Q(1, 2))
            second = r.den.derivative().derivative()
            data = riccati._denominator_poles_of(r.den.ints, r.den.den)
            assert [pole for pole, *_ in data] == sorted(poles)
            kappas = {}
            for pole, order, text, (p, q), h in data:
                assert (Q(p, q), text) == (pole, str(pole)) and q > 0
                if order == 2:
                    assert h[0] != 0 and Q(h[0], h[1]) == poly_value(second, pole) / 2
                    kappas[pole] = poly_value(r.num, pole) / Q(h[0], h[1])
                    checked += 1
                else:
                    assert h is None
                    kappas[pole] = Q(0)
            cert = rational_solutions(RiccatiEq(r.scale(Q(2)))).certificate
            for pd in cert.poles:
                assert pd.kappa == kappas[pd.pole], (str(r), pd)
        assert checked > 200

    def test_horner_pair_matches_fraction_value(self):
        rng = random.Random(6603)
        for _ in range(300):
            P = Poly([random_big_q(rng, (6,), 12) for _ in range(rng.randint(0, 6))])
            x = random_big_q(rng, (0, 30))
            n, d = P.at(x.numerator, x.denominator)
            want = sum((c * x**k for k, c in enumerate(coeffs(P))), Q(0))
            assert d > 0 and Q(n, d) == want

    @pytest.mark.parametrize(
        "expr, stop",
        [
            # kappa 1/2 at 1: e^2 - e + 1/2 has no rational root
            ("-4/y^2 + 1/(y-1)^2", (Q(1), 2, Q(1, 2), ())),
            ("-4/y^2 + 1/(y-1)^3", (Q(1), 3, Q(0), ())),
        ],
    )
    def test_early_stop_lists_every_pole_examined(self, expr, stop):
        # the pole 0 (kappa -2, exponents 2 and -1) comes before the pole 1
        # that stops the search
        result = rational_solutions(RiccatiEq(parse_ratfunc(expr)))
        cert = result.certificate
        assert result.solutions == () and len(cert.notes) == 1
        poles = [(d.pole, d.order, d.kappa, d.exponents) for d in cert.poles]
        assert poles == [(Q(0), 2, Q(-2), (Q(2), Q(-1))), stop]


# The per-combo degree d = e_inf - (sum of residues) as Fraction sums,
# rendered with str: the reference for riccati._exponent_combinations.
def reference_exponent_combinations(poles, exps_inf):
    out = []
    for picks in itertools.product(*[[(pole, e) for e in exps] for pole, exps in poles]):
        residues = tuple((str(pole), str(e)) for pole, e in picks)
        for e_inf in exps_inf:
            d = e_inf - sum((e for _, e in picks), Q(0))
            integer = int(d) if d.denominator == 1 else None
            out.append((picks, residues, str(e_inf), str(d), integer))
    return out


def random_exponent_pair(rng):
    """The indicial roots (e, 1 - e) of kappa = e(1 - e), descending: a
    double root at e = 1/2, and negative or 30-digit exponents."""
    kind = rng.random()
    if kind < 0.2:
        return (Q(1, 2),)
    if kind < 0.5:
        e = Q(rng.randint(-40, 40), rng.choice((1, 2, 3, 4, 6, 12)))
    else:
        e = random_big_q(rng, (0, 6, 30))
    return tuple(sorted({e, 1 - e}, reverse=True))


def test_exponent_combinations_match_fraction_reference():
    # the integer kernel against Fraction sums, on local data read through
    # the memo, so the roots, their texts and their integer pairs are checked
    rng = random.Random(6604)
    integer_degrees = 0
    for _ in range(400):
        poles = [
            (random_big_q(rng, (0, 30)), random_exponent_pair(rng))
            for _ in range(rng.randint(1, 4))
        ]
        exps_inf = random_exponent_pair(rng)
        if rng.random() < 0.5:
            # an e_inf that makes d an integer for the first combo
            shift = sum((exps[0] for _, exps in poles), Q(rng.randint(-3, 30)))
            exps_inf = tuple(sorted({shift, 1 - shift}, reverse=True))
        local = []
        for pole, exps in poles:
            kappa = exps[0] * (1 - exps[0])
            _, roots, options = riccati._indicial_roots_of(kappa.numerator, kappa.denominator)
            assert roots == exps
            local.append((pole, str(pole), options))
        kappa_inf = exps_inf[0] * (1 - exps_inf[0])
        _, roots_inf, options_inf = riccati._indicial_roots_of(
            kappa_inf.numerator, kappa_inf.denominator
        )
        assert roots_inf == exps_inf
        got = riccati._exponent_combinations(local, options_inf)
        assert got == reference_exponent_combinations(poles, exps_inf)
        integer_degrees += sum(row[4] is not None for row in got)
    assert integer_degrees > 200


# The auxiliary-polynomial solver that the triangular recurrence replaced:
# basis images, a dense matrix and Gauss-Jordan with free variables set to
# 0.  Kept as the reference for riccati._solve_monic_polynomial.
def reference_solve_monic_polynomial(d, A, B):
    g = A.den.gcd(B.den)
    D = A.den * (B.den // g)
    DA = A.num * (D // A.den)
    DB = B.num * (D // B.den)

    basis = []
    y = Poly.variable()
    mono = Poly.one()
    for i in range(d + 1):
        first = mono.derivative()
        second = first.derivative()
        basis.append(D * second + DA * first + DB * mono)
        mono = mono * y

    maxdeg = max((p.degree for p in basis if not p.is_zero), default=-1)
    if maxdeg < 0:
        if d == 0:
            return ("unique", Poly.one())
        return ("family", Poly.variable() ** d, d)
    nrows = int(maxdeg) + 1
    rows = [[basis[i].coeff(k) for i in range(d)] for k in range(nrows)]
    rhs = [-basis[d].coeff(k) for k in range(nrows)]
    status, sol, nullity = reference_gauss_solve(rows, rhs, d)
    if status == "none":
        return ("none", None)
    P = Poly(list(sol) + [Q(1)])
    return ("unique", P) if nullity == 0 else ("family", P, nullity)


def reference_gauss_solve(rows, rhs, ncols):
    m = len(rows)
    aug = [list(r) + [v] for r, v in zip(rows, rhs)]
    pivot_cols = []
    prow = 0
    for col in range(ncols):
        sel = None
        for i in range(prow, m):
            if aug[i][col] != 0:
                sel = i
                break
        if sel is None:
            continue
        aug[prow], aug[sel] = aug[sel], aug[prow]
        inv = 1 / aug[prow][col]
        aug[prow] = [v * inv for v in aug[prow]]
        for i in range(m):
            if i != prow and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[prow])]
        pivot_cols.append(col)
        prow += 1
    for i in range(prow, m):
        if aug[i][ncols] != 0:
            return ("none", None, 0)
    sol = [Q(0)] * ncols
    for r, col in enumerate(pivot_cols):
        sol[col] = aug[r][ncols]
    return ("ok", sol, ncols - len(pivot_cols))


def random_triangles(rng, n):
    for _ in range(n):
        slots = [
            "inf" if rng.random() < 0.2 else str(Q(rng.randint(1, 9), rng.randint(1, 6)))
            for _ in range(3)
        ]
        yield build_triangular_R(TriangleParams.parse(",".join(slots)))


def random_double_poles(rng, n):
    """(1/2)R = sum of kappa_c/(y-c)^2 + beta_c/(y-c) with kappa_c = e(1-e)
    for a rational e, so every local exponent is rational: the beta_c sum to
    0 and are chosen to give kappa_inf = e_inf(1 - e_inf)."""
    candidates = sorted({Q(k, m) for k in range(-6, 7) for m in (1, 2, 3)})
    for _ in range(n):
        poles = rng.sample(candidates, rng.randint(2, 3))
        exps = [Q(rng.randint(-4, 5), rng.choice((1, 1, 2))) for _ in range(len(poles) + 1)]
        kappa = [e * (1 - e) for e in exps]
        beta = [Q(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in poles[2:]]
        rest = sum(beta)
        target = kappa[-1] - sum(kappa[:-1]) - sum(b * c for b, c in zip(beta, poles[2:]))
        c0, c1 = poles[:2]
        b1 = (target + rest * c0) / (c1 - c0)
        beta = [-rest - b1, b1] + beta
        half_R = RatFunc.zero()
        for c, k, b in zip(poles, kappa, beta):
            half_R = half_R + RatFunc(Poly((k,)), Poly.linear(c) ** 2)
            half_R = half_R + RatFunc(Poly((b,)), Poly.linear(c))
        yield half_R.scale(Q(2))


def random_known_solutions(rng, n):
    """R = -2(u' + u^2) for u = theta + P'/P with rational poles: the oracle
    finds u, and often a family through it."""
    for _ in range(n):
        u = RatFunc.zero()
        for c in rng.sample(range(-5, 6), rng.randint(0, 2)):
            e = Q(rng.randint(-3, 3), rng.choice((1, 2)))
            u = u + RatFunc(Poly((e,)), Poly.linear(c))
        P = Poly.one()
        for _ in range(rng.randint(0, 4)):
            P = P * Poly.linear(Q(rng.randint(-5, 5), rng.choice((1, 1, 2))))
        u = u + RatFunc(P.derivative(), P)
        yield (u.derivative() + u * u).scale(Q(-2))


def test_solver_matches_gauss_jordan_reference(monkeypatch):
    # every solve the oracle makes, on three seeded populations, returns the
    # reference's tuple; a family's representative P0 is compared too, so
    # a solver that sets the free coefficient to anything but 0, or fixes
    # it before the lower rows are checked, fails here
    solve = riccati._solve_monic_polynomial
    seen = Counter()

    def checked(d, D, DA, DB):
        got = solve(d, D, DA, DB)
        A, B = RatFunc(DA, D), RatFunc(DB, D)
        assert got == reference_solve_monic_polynomial(d, A, B), (d, str(A), str(B))
        seen[got[0]] += 1
        return got

    monkeypatch.setattr(riccati, "_solve_monic_polynomial", checked)
    rng = random.Random(7401)
    population = [
        *random_triangles(rng, 300),
        *random_double_poles(rng, 400),
        *random_known_solutions(rng, 300),
    ]
    for R in population:
        rational_solutions(RiccatiEq(R))
    assert seen["family"] >= 100 and seen["unique"] >= 1000 and seen["none"] >= 500, seen
    # high-degree solves: (1/2)R = -N(N-1)/(y+1)^2 has a combo of degree
    # 2N - 1, whose P = (y+1)^(2N-1) fills the whole band
    seen.clear()
    for N in (2, 3, 5, 9, 17, 33, 60):
        R = RatFunc(Poly((-2 * N * (N - 1),)), Poly.linear(-1) ** 2)
        rational_solutions(RiccatiEq(R), degree_bound=2 * N)
    assert seen["unique"] == 14, seen
    # R = 0: with no pole, deg D - 2 = -2 and the rows j - 2 of j < 2 do
    # not exist; the degree-1 combo is the family 1/(y - c)
    seen.clear()
    rational_solutions(RiccatiEq(RatFunc.zero()))
    assert seen == {"unique": 1, "family": 1}, seen
    # eight poles: u = sum_{i=1..8} e_i/(y - i), e_i in {2, -1, 1/2}, so
    # deg D = 16 and the rows below deg D - 2 decide the free constants
    seen.clear()
    for _ in range(3):
        u = RatFunc.zero()
        for i in range(1, 9):
            u = u + RatFunc(Poly((rng.choice((Q(2), Q(-1), Q(1, 2))),)), Poly.linear(i))
        rational_solutions(RiccatiEq((u.derivative() + u * u).scale(Q(-2))))
    assert seen["unique"] >= 10 and seen["none"] >= 100, seen
    # the free row alone decides: D = y^2 + y, DB = 0 and DA = 1 - y or -y
    # give I(j) = j^2 - 2j, so p_0 is free and no row lies below deg D - 2;
    # the free row 0 reads DA(0) p_1, which is 4 for DA = 1 - y
    D = Poly((0, 1, 1))
    assert checked(2, D, Poly((1, -1)), Poly.zero()) == ("none", None)
    assert checked(2, D, Poly((0, -1)), Poly.zero()) == ("family", Poly((0, 2, 1)), 1)


def test_each_distinct_candidate_is_substituted_once(monkeypatch):
    # u = sum_{i=1..3} 2/(y - i): the 8 combos that end in "solution" all
    # give this u, and only the first is checked by substitution
    u = RatFunc.zero()
    for i in (1, 2, 3):
        u = u + RatFunc(Poly((2,)), Poly.linear(i))
    e = RiccatiEq((u.derivative() + u * u).scale(Q(-2)))
    real = RiccatiEq.residual
    calls = []

    def counting(self, v):
        calls.append(v)
        return real(self, v)

    monkeypatch.setattr(RiccatiEq, "residual", counting)
    res = rational_solutions(e)
    assert res.solutions == (u,)
    solved = [c for c in res.certificate.combos if c["status"].startswith("solution")]
    assert len(solved) == 8 and {c["status"] for c in solved} == {f"solution u = {u}"}
    assert calls == [u]


def test_residual_matches_reference():
    # the cleared numerator against u' + u^2 + (1/2)R on RatFunc arithmetic:
    # solutions (u = v'/v for (1/2)R = -v''/v), other u, u = 0 with R = 0
    # and with R != 0, and u with a pole of R
    rng = random.Random(7403)
    kinds = Counter()
    for _ in range(300):
        v = random_ratfunc(rng, 3, zero_ok=False)
        half_R = random_ratfunc(rng, 3)
        kind = rng.choice(("solution", "other", "zero", "shared pole"))
        if kind == "solution" and not v.derivative().is_zero:
            half_R = -(v.derivative().derivative() / v)
            u = v.derivative() / v
        elif kind == "zero":
            u = RatFunc.zero()
            if rng.random() < 0.5:
                half_R = RatFunc.zero()
        elif kind == "shared pole" and half_R.den.degree > 0:
            u = RatFunc(random_poly(rng, 2), half_R.den) + random_ratfunc(rng, 2)
        else:
            kind = "other"
            u = random_ratfunc(rng, 3)
        got = RiccatiEq(half_R.scale(Q(2))).residual(u)
        assert got == riccati_residual(u, half_R), (str(u), str(half_R))
        kinds[kind, got.is_zero] += 1
    assert min(kinds.values()) >= 20 and len(kinds) == 5, kinds


def test_candidate_matches_unreduced_fraction():
    # u = theta + P'/P reduced from its structure against RatFunc(T P + S P',
    # S P): roots of P at the poles with multiplicity 1-3, residues that
    # cancel them (e_c + m_c = 0), a repeated root off the poles, P = 1 and
    # deg P = 24
    rng = random.Random(7404)
    candidates = sorted({Q(k, m) for k in range(-6, 7) for m in (1, 2, 3)})
    kinds = Counter()
    for _ in range(400):
        points = rng.sample(candidates, rng.randint(2, 5))
        poles, off = points[:-1], points[-1]
        residues = [Q(rng.randint(-4, 4), rng.choice((1, 2))) for _ in poles]
        kind = rng.choice(("at poles", "cancelled", "repeated off", "one", "degree 24"))
        P = Poly.one()
        if kind in ("at poles", "cancelled"):
            for i, c in enumerate(poles):
                if i == 0 or rng.random() < 0.5:
                    m = rng.randint(1, 3)
                    P = P * Poly.linear(c) ** m
                    if kind == "cancelled":
                        residues[i] = Q(-m)
        elif kind == "repeated off":
            P = Poly.linear(off) ** rng.randint(2, 3)
        if kind == "degree 24":
            P = Poly.linear(poles[0]) ** rng.randint(0, 3)
        if kind != "one":
            top = 24 - P.degree if kind == "degree 24" else rng.randint(0, 3)
            P = P * Poly([Q(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(top)] + [1])
        linears = [Poly.linear(c) for c in poles]
        S = Poly.one()
        for lin in linears:
            S = S * lin
        cofactors = [S // lin for lin in linears]
        T = Poly.zero()
        for e, cofactor in zip(residues, cofactors):
            T = T + cofactor.scale(e)
        choice = tuple(zip(poles, residues))
        got = riccati._candidate(P, T, S, choice, cofactors)
        assert got == RatFunc(T * P + S * P.derivative(), S * P), (str(P), choice)
        kinds[kind] += 1
    assert min(kinds.values()) >= 50 and len(kinds) == 5, kinds
