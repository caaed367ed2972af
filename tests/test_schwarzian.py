"""Triangular family, Moebius pullbacks, and the Schwarzian identities they
rest on, checked with the references in reference.py."""

import math
import pathlib
import random
import runpy

import pytest

from triform.kimura import hyperbolic_integer_triples
from triform.polynomials import Poly, RatFunc, height
from triform.scalars import INF, ExtRational, Q, ZeroParameter, rational_sqrt
from triform.schwarzian import (
    Moebius,
    NotTriangular,
    SYMBOLIC_INVERSE_SQUARE,
    SingularMoebius,
    TriangleParams,
    TriangularRecognition,
    _build_from_inverse_squares,
    build_triangular_R,
    moebius_pullback,
    pullback_bits,
    recognize_triangular,
)

from conftest import random_nonconstant_ratfunc, random_poly, rf
from reference import (
    check_solution,
    compose,
    is_moebius,
    matrix_product,
    moebius_apply,
    moebius_function,
    schwarzian_of,
    value,
)
from test_kimura import random_slot

T = RatFunc(Poly.variable())


def random_moebius(rng) -> Moebius:
    while True:
        a, b, c, d = (Q(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4))
        if a * d - b * c != 0:
            return Moebius(a, b, c, d)


class TestSchwarzianDerivative:
    def test_square(self):
        assert schwarzian_of(T * T) == rf((Q(-3, 2),), (0, 0, 1))

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            schwarzian_of(RatFunc.const(3))

    def test_moebius_kernel(self, rng):
        for _ in range(50):
            m = random_moebius(rng)
            assert schwarzian_of(moebius_function(m)).is_zero

    def test_moebius_invariance(self, rng):
        # S(m o g) = S(g) for 100 random (m, g) pairs
        for _ in range(100):
            m = random_moebius(rng)
            g = random_nonconstant_ratfunc(rng, 2)
            assert schwarzian_of(moebius_apply(m, g)) == schwarzian_of(g)


class TestTriangleParams:
    def test_parse(self):
        p = TriangleParams.parse("2,3,inf")
        assert p.alpha.value == 2 and p.gamma.is_infinite
        assert p.inverses() == (Q(1, 2), Q(1, 3), Q(0))

    def test_zero_rejected(self):
        for values in ((0, 3, 7), (2, 0, 7), (2, 3, 0)):
            builds = (
                lambda: TriangleParams(*map(ExtRational.of, values)),
                lambda: TriangleParams.of(*values),
                lambda: TriangleParams.parse(",".join(map(str, values))),
            )
            for build in builds:
                with pytest.raises(ZeroParameter, match="^triangle parameter 0 has no inverse$"):
                    build()

    def test_stored_form_matches_slots(self):
        """pairs are the slots' inverse pairs, the views give the slots back,
        str is the slots' text, and ==, hash agree across every way in."""
        rng = random.Random(2404)
        triples = []
        for _ in range(2000):
            slots = tuple(rng.choice((random_slot, _random_slot))(rng) for _ in range(3))
            p = TriangleParams(*slots)
            assert p.pairs == tuple(s.inverse_pair() for s in slots)
            assert (p.alpha, p.beta, p.gamma) == slots
            assert str(p) == "(" + ",".join("inf" if s.is_infinite else str(s.value) for s in slots) + ")"
            triples.append((slots, p))
        for p in hyperbolic_integer_triples(12):
            triples.append(((p.alpha, p.beta, p.gamma), p))
        for slots, p in triples:
            others = (
                TriangleParams(*slots),
                TriangleParams.of(*(s.value for s in slots)),
                TriangleParams.parse(",".join(map(str, slots))),
            )
            for q in others:
                assert q == p and hash(q) == hash(p) and q.pairs == p.pairs, str(p)
        # distinct slot triples stay distinct: x -> 1/x is a bijection
        assert len({p for _, p in triples}) == len({slots for slots, _ in triples})

    def test_hyperbolic_flag(self):
        assert TriangleParams.parse("2,3,7").is_hyperbolic
        assert not TriangleParams.parse("2,3,6").is_hyperbolic
        assert TriangleParams.parse("inf,inf,inf").is_hyperbolic


class TestBuilder:
    def test_all_infinite(self):
        R = build_triangular_R(TriangleParams.parse("inf,inf,inf"))
        # (1/2)[1/y^2 + 1/(y-1)^2 - 1/(y(y-1))] = (y^2-y+1)/(2y^2(y-1)^2)
        assert R == rf((1, -1, 1), (0, 0, 2, -4, 2))

    def test_all_one(self):
        R = build_triangular_R(TriangleParams.parse("1,1,1"))
        assert R.is_zero

    def test_one_inf_inf(self):
        R = build_triangular_R(TriangleParams.parse("1,inf,inf"))
        # (1/2)[1/y^2 + 1/(y-1)^2 - 2/(y(y-1))] = 1/(2y^2(y-1)^2)
        assert R == rf((1,), (0, 0, 2, -4, 2))


class TestRecognizer:
    def test_round_trip_examples(self):
        for text in ("2,3,7", "inf,inf,inf", "1,1,1", "5/2,3,3", "2,2,2"):
            p = TriangleParams.parse(text)
            rec = recognize_triangular(build_triangular_R(p))
            assert rec.has_exact_params
            assert rec.triangle_params() == p

    def test_round_trip_random(self, rng):
        for _ in range(200):
            slots = []
            for _ in range(3):
                if rng.random() < 0.2:
                    slots.append(INF)
                else:
                    v = Q(rng.randint(1, 12), rng.randint(1, 5))
                    slots.append(ExtRational(v))
            p = TriangleParams(*slots)
            rec = recognize_triangular(build_triangular_R(p))
            assert rec.triangle_params() == p

    def test_triple_pole_rejected(self):
        with pytest.raises(NotTriangular):
            recognize_triangular(rf((1,), (0, 0, 0, 1)))  # 1/y^3

    def test_wrong_pole_location_rejected(self):
        with pytest.raises(NotTriangular):
            recognize_triangular(rf((1,), (-2, 1)))  # 1/(y-2)

    def test_slow_decay_rejected(self):
        with pytest.raises(NotTriangular):
            recognize_triangular(rf((1,), (0, 1)))  # 1/y

    def test_non_square_inverse_square_is_symbolic(self):
        # beta^-2 = 2 is not a rational square
        R = _build_from_inverse_squares(0, 2, 0, 1)  # (0, 2, 0) over L = 1
        rec = recognize_triangular(R)
        assert rec.inverse_squares == (Q(0), Q(2), Q(0))
        assert rec.params[1] == SYMBOLIC_INVERSE_SQUARE
        assert not rec.has_exact_params
        with pytest.raises(NotTriangular):
            rec.triangle_params()


class TestMoebius:
    def test_singular_rejected(self):
        with pytest.raises(SingularMoebius):
            Moebius(1, 2, 2, 4)

    def test_singular_message_names_the_given_entries(self):
        with pytest.raises(SingularMoebius) as exc:
            Moebius(Q(1, 2), 1, Q(1, 2), 1)
        assert str(exc.value) == "ad - bc = 0 in (1/2*y + 1)/(1/2*y + 1)"

    def test_stores_the_cleared_integer_matrix(self):
        m = Moebius(Q(1, 2), 0, 0, 1)
        assert (m.a, m.b, m.c, m.d) == (1, 0, 0, 2)
        assert all(type(x) is int for x in (m.a, m.b, m.c, m.d))
        assert m == Moebius(1, 0, 0, 2) and hash(m) == hash(Moebius(1, 0, 0, 2))
        # neither divided by the gcd nor sign-normalized
        m = Moebius(Q(-2, 3), 0, 0, Q(-4, 3))
        assert (m.a, m.b, m.c, m.d) == (-2, 0, 0, -4)

    def test_jfunction_walkthrough_prints_the_committed_output(self, capsys):
        # scripts/jfunction_demo.py pulls back along Moebius(1728, 0, 0, 1)
        # and along its inverse
        tests = pathlib.Path(__file__).parent
        runpy.run_path(str(tests.parent / "scripts" / "jfunction_demo.py"), run_name="__main__")
        assert capsys.readouterr().out == (tests / "data" / "jfunction_demo.out").read_text()

    def test_inverse_composes_to_identity(self, rng):
        for _ in range(50):
            m = random_moebius(rng)
            ident = moebius_function(Moebius(*matrix_product(m, m.inverse())))
            assert ident == T

    def test_is_moebius(self):
        assert is_moebius(rf((1, 2), (3, 1)))
        assert is_moebius(T)
        assert not is_moebius(T * T)
        assert not is_moebius(RatFunc.const(5))

    def test_pullback_identity(self, rng):
        for _ in range(20):
            R = random_nonconstant_ratfunc(rng, 2)
            assert moebius_pullback(R, Moebius(1, 0, 0, 1)) == R

    def test_pullback_group_action(self, rng):
        # pulling back along m1 then m2 equals pulling back along m2 o m1
        for _ in range(30):
            R = random_nonconstant_ratfunc(rng, 2)
            m1 = random_moebius(rng)
            m2 = random_moebius(rng)
            step = moebius_pullback(moebius_pullback(R, m1), m2)
            assert step == moebius_pullback(R, Moebius(*matrix_product(m2, m1)))

    def test_pullback_inverse_round_trip(self, rng):
        for _ in range(30):
            R = random_nonconstant_ratfunc(rng, 2)
            m = random_moebius(rng)
            assert moebius_pullback(moebius_pullback(R, m), m.inverse()) == R


    def test_pullback_matches_composition(self, rng):
        # the homogenised pullback against R(m^-1) * ((m^-1)')^2 computed
        # by composition, over every shape the formula distinguishes; the
        # last cases have denominators of degree 30-60 with repeated roots
        shapes = set()
        for i in range(406):
            if i < 400:
                R = RatFunc(random_poly(rng, 4), random_poly(rng, 7, zero_ok=False))
            else:
                den = Poly.one()
                while den.degree < 30:
                    root = Q(rng.randint(-9, 9), rng.randint(1, 4))
                    den = den * Poly.linear(root) ** rng.randint(2, 10)
                R = RatFunc(random_poly(rng, 4), den)
                assert 30 <= R.den.degree <= 60
            m = random_moebius(rng)
            if i % 4 == 0:
                m = Moebius(m.a or 1, m.b, 0, m.d or 1)  # affine: c = 0
            if i >= 400:
                shapes.add("high degree, " + ("affine" if m.c == 0 else "general"))
            inv = moebius_function(m.inverse())
            dinv = inv.derivative()
            got = moebius_pullback(R, m)
            assert got == compose(R, inv) * dinv * dinv
            assert got.den.leading == 1
            if R.is_zero:
                shapes.add("zero")
                continue
            shapes.add("affine" if m.c == 0 else "general")
            e = R.num.degree - R.den.degree
            if R.den.degree == 0:
                shapes.add("polynomial")
            if e > 0:
                shapes.add("deg N > deg D")
            if e < -4:
                shapes.add("L in the numerator")
        assert shapes >= {
            "zero", "affine", "general", "polynomial", "deg N > deg D", "L in the numerator",
            "high degree, affine", "high degree, general",
        }

    def test_pullback_bits_bounds_the_integers(self, rng):
        # the bound the CLI checks before a pullback, against the integers
        # the pullback then has, with small, fractional and 10^4-sized
        # entries of m, and either power of L
        shapes = set()
        for i in range(600):
            size = rng.choice((5, 10**4))
            a, b, c, d = (
                Q(rng.randint(-size, size), rng.choice((1, rng.randint(1, size))))
                for _ in range(4)
            )
            if i % 3 == 0:
                c = Q(0)
            if a * d - b * c == 0:
                continue
            m = Moebius(a, b, c, d)
            R = RatFunc(random_poly(rng, 3), random_poly(rng, 10, zero_ok=False))
            assert height(moebius_pullback(R, m)).bit_length() <= pullback_bits(R, m)
            shapes.add("affine" if c == 0 else "general")
            shapes.add("e >= 0" if 4 + R.num.degree - R.den.degree >= 0 else "e < 0")
            shapes.add(size)
            if any(x.denominator > 1 for x in (a, b, c, d)):
                shapes.add("fractional")
        assert shapes >= {"affine", "general", "e >= 0", "e < 0", 5, 10**4, "fractional"}


class TestCheckSolution:
    def test_moebius_solves_zero(self, rng):
        for _ in range(50):
            g = random_nonconstant_ratfunc(rng, 2)
            assert check_solution(g, RatFunc.zero()) == is_moebius(g)

    def test_constant_candidate_rejected(self):
        with pytest.raises(ValueError):
            check_solution(RatFunc.const(1), RatFunc.zero())

    def test_pullback_transports_solutions(self, rng):
        # if g solves with R, then m(g) solves with the pullback of R by m
        g0 = T * T
        R0 = rf((Q(3, 8),), (0, 0, 1))  # g0 = t^2 solves with R = 3/(8 y^2)
        assert check_solution(g0, R0)
        for _ in range(30):
            m = random_moebius(rng)
            assert check_solution(moebius_apply(m, g0), moebius_pullback(R0, m))


def test_schwarzian_composition_rule(rng):
    # S(f o g) = (S(f) o g) * (g')^2 + S(g)
    for _ in range(40):
        f = random_nonconstant_ratfunc(rng, 2)
        g = random_nonconstant_ratfunc(rng, 2)
        comp = compose(f, g)
        if comp.derivative().is_zero:
            continue
        lhs = schwarzian_of(comp)
        gp = g.derivative()
        rhs = compose(schwarzian_of(f), g) * gp * gp + schwarzian_of(g)
        assert lhs == rhs


def reference_R(p: TriangleParams) -> RatFunc:
    """R_{alpha,beta,gamma} from its partial fractions, reduced by RatFunc."""
    a2, b2, c2 = (x * x for x in p.inverses())
    y, ym1 = Poly.variable(), Poly.linear(1)
    num = (ym1 * ym1).scale(1 - b2) + (y * y).scale(1 - c2) + (y * ym1).scale(b2 + c2 - a2 - 1)
    return RatFunc(num.scale(Q(1, 2)), (y * ym1) ** 2)


class TestBuildTriangular:
    def test_matches_reduced_reference(self):
        # slots of +-1 make num vanish at 0 or 1, where the builder falls
        # back to the gcd reduction; every other triple skips it
        rng = random.Random(5501)
        texts = ["1,1,1", "2,1,3", "1,inf,inf", "inf,1,-1", "2,3,7", "inf,inf,inf"]
        choices = ["1", "-1", "inf", "2", "3", "1/2", "-5/3", "7"]
        texts += [",".join(rng.choice(choices) for _ in range(3)) for _ in range(300)]
        reduced = 0
        for text in texts:
            p = TriangleParams.parse(text)
            R, want = build_triangular_R(p), reference_R(p)
            assert R == want, text
            reduced += R.den.degree < 4
        assert reduced > 50

    def test_large_rational_slots(self):
        # coprime 30-digit numerators and denominators: the integer builder
        # matches the Fraction reference, and recognize_triangular inverts it
        rng = random.Random(5502)
        for _ in range(200):
            slots = []
            for _ in range(3):
                if rng.random() < 0.15:
                    slots.append(INF)
                    continue
                while True:
                    n, d = rng.randint(1, 10**30), rng.randint(1, 10**30)
                    if math.gcd(n, d) == 1:
                        break
                slots.append(ExtRational(Q(rng.choice((1, -1)) * n, d)))
            p = TriangleParams(*slots)
            R = build_triangular_R(p)
            assert R == reference_R(p)
            rec = recognize_triangular(R)
            assert rec.inverse_squares == tuple(x * x for x in p.inverses())
            assert rec.params == tuple(
                INF if s.is_infinite else ExtRational(abs(s.value)) for s in slots
            )


def reference_recognize(R: RatFunc) -> TriangularRecognition:
    """The recognizer by evaluation, kept as the reference for the integer
    one: strip the poles at 0 and 1 one factor at a time, read each inverse
    square off a local limit, and rebuild R from its partial fractions."""
    y = Poly.variable()
    ym1 = Poly.linear(Q(1))
    den = R.den
    a = 0
    while a < 3 and den.coeff(0) == 0:
        den = den // y
        a += 1
    b = 0
    while b < 3 and den.at(1, 1)[0] == 0:
        den = den // ym1
        b += 1
    if den.degree != 0 or a > 2 or b > 2:
        raise NotTriangular(f"poles of {R} are not contained in {{0, 1}} with order <= 2")
    if not R.is_zero and R.degree_at_infinity > -2:
        raise NotTriangular(f"{R} does not vanish to order >= 2 at infinity")
    lim0 = value(R * RatFunc(y * y), 0)
    lim1 = value(R * RatFunc(ym1 * ym1), 1)
    if R.is_zero or R.degree_at_infinity < -2:
        lim_inf = Q(0)
    else:
        lim_inf = R.num.leading / R.den.leading
    a2, b2, c2 = inverse_squares = (1 - 2 * lim_inf, 1 - 2 * lim0, 1 - 2 * lim1)
    num = (ym1 * ym1).scale(1 - b2) + (y * y).scale(1 - c2) + (y * ym1).scale(b2 + c2 - a2 - 1)
    if RatFunc(num.scale(Q(1, 2)), (y * ym1) ** 2) != R:
        raise NotTriangular(
            f"rebuilding from local data {tuple(map(str, inverse_squares))} does not "
            f"reproduce {R}",
            inverse_squares,
        )
    params = []
    for inv2 in inverse_squares:
        if inv2 < 0:
            raise NotTriangular(
                f"negative inverse square among {tuple(map(str, inverse_squares))}",
                inverse_squares,
            )
        if inv2 == 0:
            params.append(INF)
            continue
        root = rational_sqrt(inv2)
        if root is None:
            params.append(SYMBOLIC_INVERSE_SQUARE)
        else:
            params.append(ExtRational(1 / root))
    return TriangularRecognition(inverse_squares, tuple(params))


def _outcome(recognize, R):
    """(inverse squares, params) of a recognition, or the NotTriangular
    message with its inverse_squares attribute."""
    try:
        rec = recognize(R)
    except NotTriangular as exc:
        return "NotTriangular", str(exc), exc.inverse_squares
    return "recognized", rec.inverse_squares, rec.params


def _random_slot(rng: random.Random) -> ExtRational:
    """inf, a small integer, or a signed rational of up to 30 digits."""
    kind = rng.randrange(3)
    if kind == 0:
        return INF
    if kind == 1:
        return ExtRational(Q(rng.choice((1, -1)) * rng.randint(1, 12)))
    digits = rng.randint(1, 30)
    n, d = rng.randint(1, 10**digits), rng.randint(1, 10**digits)
    return ExtRational(Q(rng.choice((1, -1)) * n, d))


# the six Moebius maps that permute 0, 1 and infinity
_ANHARMONIC = [
    (1, 0, 0, 1), (-1, 1, 0, 1), (0, 1, 1, 0), (1, 0, 1, -1), (0, 1, -1, 1), (1, -1, 1, 0)
]


def _seeded_Rs(seed: int):
    """Coefficient functions on both sides of every check the recognizer
    makes, by kind."""
    rng = random.Random(seed)
    y, ym1 = Poly.variable(), Poly.linear(1)
    cases = [
        ("zero", RatFunc.zero()),
        ("degree -1", rf((1,), (0, 1))),
        ("degree -3", rf((1,), (0, 0, -1, 1))),  # 1/(y^2 (y - 1))
    ]
    for _ in range(150):
        p = TriangleParams(*(_random_slot(rng) for _ in range(3)))
        R = build_triangular_R(p)
        cases.append(("triangle", R))
        m = Moebius(*rng.choice(_ANHARMONIC))
        cases.append(("anharmonic pullback", moebius_pullback(R, m)))
        cases.append(("Moebius pullback", moebius_pullback(R, random_moebius(rng))))
    for _ in range(100):
        num = random_poly(rng, 4)
        cases.append(("order 3 at 0", RatFunc(num, y ** 3 * ym1 ** rng.randint(0, 2))))
        cases.append(("order 3 at 1", RatFunc(num, y ** rng.randint(0, 2) * ym1 ** 3)))
        pole = Poly.linear(Q(rng.choice((-1, 1)) * rng.randint(2, 9), rng.randint(1, 3)))
        den = y ** rng.randint(0, 2) * pole ** rng.randint(1, 2)
        cases.append(("pole elsewhere", RatFunc(num, den)))
        a, b = rng.choice(((2, 0), (0, 2), (1, 1), (2, 1), (1, 2), (2, 2)))
        top = (y ** (a + b - 1)).scale(rng.randint(1, 9))
        cases.append(("degree -1", RatFunc(top + random_poly(rng, a + b - 2), y ** a * ym1 ** b)))
        # numerators of degree <= 2 over y^a (y - 1)^b, in lowest terms or not
        small = random_poly(rng, 2)
        den = y ** rng.randint(0, 2) * ym1 ** rng.randint(0, 2)
        cases.append(("low order", RatFunc(small, den)))
        L = rng.randint(1, 10**rng.randint(1, 30))
        A, B, C = (rng.randint(-L, 3 * L) for _ in range(3))
        cases.append(("inverse squares", _build_from_inverse_squares(A, B, C, L)))
    return cases


class TestRecognizerMatchesReference:
    def test_same_outcome_on_seeded_R(self):
        kinds = {}
        for kind, R in _seeded_Rs(5503):
            want = _outcome(reference_recognize, R)
            assert _outcome(recognize_triangular, R) == want, (kind, str(R))
            kinds.setdefault(kind, set()).add(want[0])
            if want[0] == "NotTriangular":
                kinds[kind].add(
                    "poles" if "poles of" in want[1]
                    else "infinity" if "does not vanish" in want[1]
                    else "negative" if want[1].startswith("negative")
                    else "rebuild"
                )
            elif SYMBOLIC_INVERSE_SQUARE in want[2]:
                kinds[kind].add("symbolic")
        assert "recognized" in kinds["triangle"] and "recognized" in kinds["anharmonic pullback"]
        assert "poles" in kinds["order 3 at 0"] and "poles" in kinds["order 3 at 1"]
        assert "poles" in kinds["pole elsewhere"] and "poles" in kinds["Moebius pullback"]
        assert kinds["degree -1"] == {"NotTriangular", "infinity"}
        assert kinds["degree -3"] == {"recognized", "symbolic"}  # inverse squares (1, 3, 1)
        assert kinds["zero"] == {"recognized"}
        assert {"negative", "symbolic", "recognized"} <= kinds["inverse squares"]
