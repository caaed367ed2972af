"""Expression parser, canonical printer, lowering to rational functions."""

import pathlib
import random

import pytest

from triform.parser import (
    BinOp,
    DivisionByZeroConstant,
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
