"""Expression parser, canonical printer, lowering to rational functions."""

import pathlib
import random
import shlex
import sys

import pytest

from triform.cli import main
from triform.parser import (
    MAX_DEGREE,
    MAX_DEPTH,
    MAX_NESTING,
    BinOp,
    DivisionByZeroConstant,
    ExpressionTooLarge,
    ExprSyntaxError,
    Neg,
    Num,
    Pow,
    Var,
    parse_expr,
    parse_ratfunc,
    print_expr,
    to_ratfunc,
)
from triform.polynomials import Poly, RatFunc
from triform.scalars import MAX_BITS, Refused

from reference import reference_parse_expr, reference_to_ratfunc

DATA = pathlib.Path(__file__).parent / "data"


def rf(num, den=(1,)):
    return RatFunc(Poly(num), Poly(den))


def random_ast(rng: random.Random, depth: int = 0):
    if depth >= 4 or rng.random() < 0.3:
        return Num(rng.randint(0, 20)) if rng.random() < 0.5 else Var("y")
    roll = rng.random()
    if roll < 0.15:
        return Neg(random_ast(rng, depth + 1))
    if roll < 0.3:
        return Pow(random_ast(rng, depth + 1), rng.randint(0, 4))
    op = rng.choice("+-*/")
    return BinOp(op, random_ast(rng, depth + 1), random_ast(rng, depth + 1))


class TestRoundTrip:
    def test_print_parse_identity_500(self):
        rng = random.Random(424242)
        for _ in range(500):
            ast = random_ast(rng)
            text = print_expr(ast)
            assert parse_expr(text) == ast

    def test_print_is_fixed_point(self):
        rng = random.Random(99)
        for _ in range(100):
            text = print_expr(random_ast(rng))
            assert print_expr(parse_expr(text)) == text

    def test_semantic_round_trip(self):
        rng = random.Random(7)
        checked = 0
        while checked < 100:
            ast = random_ast(rng)
            try:
                want = to_ratfunc(ast)
            except DivisionByZeroConstant:
                continue
            assert parse_ratfunc(print_expr(ast)) == want
            checked += 1


class TestGrammar:
    def test_precedence(self):
        assert parse_ratfunc("1 + 2*y") == rf((1, 2))
        assert parse_ratfunc("(1 + 2)*y") == rf((0, 3))
        assert parse_ratfunc("-y^2") == rf((0, 0, -1))
        assert parse_ratfunc("(-y)^2") == rf((0, 0, 1))
        assert parse_ratfunc("2^3") == rf((8,))

    def test_left_associativity(self):
        assert parse_expr("1 - 2 - 3") == BinOp("-", BinOp("-", Num(1), Num(2)), Num(3))
        assert parse_ratfunc("8/4/2") == rf((1,))

    def test_redundant_parens_collapse(self):
        assert parse_expr("((y))") == parse_expr("y") == Var("y")
        assert print_expr(parse_expr("((y)) + ((1))")) == "y + 1"

    def test_whitespace_insensitive(self):
        assert parse_expr("1+y * 2") == parse_expr("1 + y*2")


class TestDiagnostics:
    def expect_error(self, text, position):
        with pytest.raises(ExprSyntaxError) as info:
            parse_expr(text)
        assert info.value.position == position
        return info.value

    def test_negative_exponent_rejected(self):
        err = self.expect_error("y^-1", 2)
        assert "nonnegative integer exponent" in str(err)

    def test_unbalanced_paren(self):
        self.expect_error("(y + 1", 6)

    def test_trailing_garbage(self):
        err = self.expect_error("y y", 2)
        assert "end of input" in " ".join(err.expected)

    def test_empty_input(self):
        self.expect_error("", 0)

    def test_bad_character(self):
        err = self.expect_error("y @ 1", 2)
        assert err.found == repr("@")

    def test_missing_operand(self):
        self.expect_error("1 + ", 4)


class TestLowering:
    def test_division_by_zero_constant(self):
        with pytest.raises(DivisionByZeroConstant):
            parse_ratfunc("1/(y - y)")
        with pytest.raises(DivisionByZeroConstant):
            parse_ratfunc("y/0")

    def test_mixed_variables_rejected(self):
        with pytest.raises(ValueError):
            parse_ratfunc("y + z")

    def test_variable_name_is_free(self):
        assert parse_ratfunc("t^2 + 1") == rf((1, 0, 1))

    def test_triangular_example(self):
        R = parse_ratfunc("1/(2*y^2*(y - 1)^2)")
        assert R == rf((1,), (0, 0, 2, -4, 2))


def test_golden_renderings_stable():
    """print_expr output is frozen byte-for-byte for a fixed corpus."""
    golden = (DATA / "parser_golden.txt").read_text().splitlines()
    for line in golden:
        if not line or line.startswith("#"):
            continue
        source, expected = line.split("  =>  ")
        assert print_expr(parse_expr(source)) == expected


# -- the lowering against its per-node RatFunc reference --------------------------


def outcome(lowering, node):
    """The lowered value as integers, or the exception's type and text."""
    try:
        f = lowering(node)
    except (DivisionByZeroConstant, ExpressionTooLarge) as exc:
        return type(exc).__name__, str(exc)
    return f.num.ints, f.num.den, f.den.ints, f.den.den


def fuzz_ast(rng: random.Random, depth: int = 0):
    """The fuzz suite's grammar (y, integers, + - * /, powers, negation),
    with some larger integers and exponents."""
    if depth >= 4 or rng.random() < 0.25:
        if rng.random() < 0.4:
            return Var("y")
        return Num(rng.randint(0, 30) if rng.random() < 0.7 else rng.getrandbits(40))
    roll = rng.random()
    if roll < 0.12:
        return Neg(fuzz_ast(rng, depth + 1))
    if roll < 0.3:
        return Pow(fuzz_ast(rng, depth + 1), rng.randint(0, 8 if rng.random() < 0.9 else 600))
    op = rng.choice("+-*//")
    return BinOp(op, fuzz_ast(rng, depth + 1), fuzz_ast(rng, depth + 1))


Y_AST = Var("y")


def poly_ast(degree: int, c: int = 1):
    """(y + c)^degree"""
    return Pow(BinOp("+", Y_AST, Num(c)), degree)


EDGE_CASES = [
    # integers at and just over MAX_BITS, alone and through products
    Num(2**MAX_BITS - 1),
    Num(2**MAX_BITS),
    BinOp("*", Num(2**5000), Num(2**4999)),
    BinOp("*", Num(2**5000), Num(2**5000)),
    BinOp("/", Y_AST, Num(2**MAX_BITS - 1)),
    BinOp("/", Num(1), BinOp("*", Num(2**5000), BinOp("+", Y_AST, Num(2**5000)))),
    Pow(Num(2), MAX_BITS - 1),
    Pow(Num(2), MAX_BITS),
    Pow(BinOp("/", Num(2), Num(3)), 5000),
    Pow(BinOp("*", Num(2), Y_AST), 1000),
    # degrees at and just over MAX_DEGREE
    Pow(Y_AST, MAX_DEGREE),
    Pow(Y_AST, MAX_DEGREE + 1),
    Pow(Pow(Y_AST, 10), 100),
    Pow(Pow(Y_AST, 10), 101),
    BinOp("*", Pow(Y_AST, 500), Pow(Y_AST, 500)),
    BinOp("*", Pow(Y_AST, 500), Pow(Y_AST, 501)),
    BinOp("+", Pow(Y_AST, 1000), Num(1)),
    BinOp("*", poly_ast(500), poly_ast(500, 2)),
    BinOp("*", poly_ast(500), poly_ast(501, 2)),
    BinOp("/", Num(1), Pow(Y_AST, 1000)),
    BinOp("/", Num(1), Pow(Y_AST, 1001)),
    BinOp("/", Pow(Y_AST, 1000), BinOp("+", Pow(Y_AST, 1000), Num(1))),
    BinOp("+", BinOp("/", Num(1), Pow(Y_AST, 500)), BinOp("/", Num(3), Pow(Y_AST, 500))),
    BinOp("+", BinOp("/", Num(1), Pow(Y_AST, 500)), BinOp("/", Num(3), Pow(Y_AST, 501))),
    Pow(BinOp("/", Num(1), BinOp("+", Y_AST, Num(1))), 1000),
    Pow(BinOp("/", Num(1), BinOp("+", Y_AST, Num(1))), 1001),
    # zero divisors
    BinOp("/", Num(1), BinOp("-", Y_AST, Y_AST)),
    BinOp("/", Y_AST, Num(0)),
    BinOp("/", Y_AST, Pow(Num(0), 3)),
    BinOp("/", Num(1), BinOp("-", BinOp("/", Num(1), Y_AST), BinOp("/", Num(2), BinOp("*", Num(2), Y_AST)))),
    BinOp("/", Num(0), Num(0)),
    # divisions by constant subtrees
    BinOp("/", Y_AST, BinOp("*", Num(2), Num(3))),
    BinOp("/", BinOp("+", Y_AST, Num(1)), BinOp("/", Num(6), Num(4))),
    BinOp("/", Pow(Y_AST, 3), BinOp("-", BinOp("/", Num(1), Num(3)), BinOp("/", Num(1), Num(2)))),
    BinOp("/", BinOp("/", Num(1), Y_AST), Num(7)),
    BinOp("/", Num(5), Neg(Num(10))),
    BinOp("/", BinOp("-", Y_AST, Y_AST), Num(3)),
    BinOp("/", BinOp("*", Y_AST, BinOp("/", Num(1), Y_AST)), Num(2)),
    Pow(Num(0), 0),
]


class TestLoweringMatchesReference:
    def test_seeded_fuzz_asts(self):
        rng = random.Random(20240601)
        refused = 0
        for _ in range(2000):
            ast = fuzz_ast(rng)
            want = outcome(reference_to_ratfunc, ast)
            assert outcome(to_ratfunc, ast) == want, print_expr(ast)
            refused += isinstance(want[0], str)
        assert refused > 50  # the limits and zero divisors are reached

    @pytest.mark.parametrize("ast", EDGE_CASES)
    def test_edge_cases(self, ast):
        assert outcome(to_ratfunc, ast) == outcome(reference_to_ratfunc, ast)


# -- the front end against its recursive-descent reference ------------------------

SOUP = [
    "y", "y", "y", "x", "é", "λ", "_", "_t", "y1", "٣", "²",
    "0", "1", "3", "12", "٣٤", "+", "-", "*", "/", "^", "(", ")",
]
SPACES = [" ", " ", "\t", "\u00a0", "\x1c", "\x1d", "\x1e", "\x1f"]


def soup_text(rng: random.Random) -> str:
    """A printed expression with its spaces drawn from SPACES, and then up
    to three pieces of SOUP inserted, characters deleted or replaced; or a
    run of pieces alone."""
    if rng.random() < 0.2:
        return "".join(rng.choice(SOUP + SPACES) for _ in range(rng.randint(0, 14)))
    chars = list(print_expr(fuzz_ast(rng, 1)))
    chars = [rng.choice(SPACES) if ch == " " else ch for ch in chars]
    for _ in range(rng.choice((0, 0, 1, 2, 3))):
        k = rng.randint(0, len(chars))
        roll = rng.random()
        if roll < 0.5 or not chars[k:]:
            chars.insert(k, rng.choice(SOUP + SPACES))
        elif roll < 0.75:
            del chars[k]
        else:
            chars[k] = rng.choice(SOUP)
    return "".join(chars)


def _shapes():
    """Nesting at 99, 100 and 101, and as many siblings; sums of 500 and
    501 operators, also under a power and under three minus signs; literals
    at and past the 4,300 digits int() reads and the MAX_BITS limit; some
    with a trailing error."""
    for k in (MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1):
        yield "(" * k + "y" + ")" * k
        yield "-" * k + "y"
        yield "-(" * (k // 2) + "y" + ")" * (k // 2)
        yield "(" * k + "y"
        yield "(" * k + ")" * k
        yield "+".join(["(-y)"] * k)
    for k in (MAX_DEPTH, MAX_DEPTH + 1):
        for op in "+-*/":
            yield op.join(["y"] * (k + 1))
        yield "+".join(["y"] * (k + 1)) + ")"
        yield "(" + "+".join(["y"] * k) + ")^2"
        yield "---(" + "+".join(["y"] * k) + ")"
        yield "(" + "+".join(["y"] * k) + ")^" + "1" * 4301
    for digits in (4300, 4301):
        yield "1" * digits
        yield "y^" + "1" * digits
        yield "1" * digits + " @"
        yield "1" * digits + " +"
    yield str(2**MAX_BITS - 1)
    yield str(2**MAX_BITS)
    yield "x^2000 + y"
    yield "y^2000 + )"


def front_end_outcome(parse, text):
    """What parse gives for text: its value, or its exception's type and
    message."""
    try:
        f = parse(text)
    except Refused as exc:
        return type(exc), str(exc)
    return (f.num.ints, f.num.den, f.den.ints, f.den.den) if isinstance(f, RatFunc) else f


class TestFrontEndMatchesReference:
    """parse_expr against the recursive descent it replaced, and
    parse_ratfunc against that parser with the per-node RatFunc lowering:
    the same AST or value, or the same exception type and message."""

    TEXTS = [soup_text(random.Random(20261020 + k)) for k in range(5000)] + list(_shapes())

    @pytest.fixture(autouse=True)
    def deep_equality(self):
        # == on dataclasses recurses several frames per level of a tree
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old, 10_000))
        yield
        sys.setrecursionlimit(old)

    def test_seeded_texts(self):
        parsed = lowered = 0
        for text in self.TEXTS:
            want = front_end_outcome(reference_parse_expr, text)
            assert front_end_outcome(parse_expr, text) == want, repr(text)
            parsed += not isinstance(want, tuple)
            value = front_end_outcome(lambda t: reference_to_ratfunc(reference_parse_expr(t)), text)
            assert front_end_outcome(parse_ratfunc, text) == value, repr(text)
            lowered += type(value[0]) is tuple
        # both sides of every check are reached
        assert parsed > 1500 and lowered > 1000 and len(self.TEXTS) - parsed > 1500

    def test_texts_reach_every_branch(self):
        messages = "\n".join(
            str(front_end_outcome(parse_ratfunc, text)[-1]) for text in self.TEXTS
        )
        for words in (
            ": expected a digit or a name or an operator, found '²'",
            ": expected ')', found ",
            ": expected '+' or '-' or '*' or '/' or '^' or end of input, found ",
            ": expected a nonnegative integer exponent, found ",
            ": expected an integer or a name or '(' or '-', found ",
            ": parentheses and unary minus nest deeper than the limit",
            ": operators nest deeper than the limit",
            ": Exceeds the limit (4300",
            "expression mixes variables ['y', 'é']",
            "may reach degree",
            "may reach integer bits",
            "division by zero in",
        ):
            assert words in messages, words


# Each "$ triform ARGS" line of parser_diagnostics.out, then its stdout and
# stderr: one line per error class of the front end, and the competing
# errors, of which the first found is reported.
DIAGNOSTICS = DATA / "parser_diagnostics.out"


def test_golden_diagnostics(capsys):
    cases = DIAGNOSTICS.read_text().split("$ triform ")[1:]
    assert len(cases) == 39
    # the over-long literal's text is int()'s own message, worded by the
    # Python that runs; the file holds the wording of Python 3.11
    try:
        int("1" * 4301)
    except ValueError as exc:
        running = str(exc)
    for case in cases:
        command, want = case.split("\n", 1)
        code = main(shlex.split(command), out=sys.stdout)
        got = capsys.readouterr()
        want = want.replace(
            "Exceeds the limit (4300 digits) for integer string conversion: value has "
            "4301 digits; use sys.set_int_max_str_digits() to increase the limit",
            running,
        )
        assert (code, got.out + got.err) == (2, want), command
