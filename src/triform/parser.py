"""Parser and pretty printer for rational expressions in one variable.

Grammar (no implicit multiplication, no negative literal exponents):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' INT)?
    atom    := INT | NAME | '(' expr ')'

INT is a run of decimal digits (str.isdecimal); NAME is a letter or '_'
followed by letters, decimal digits or '_'; whitespace is str.isspace.

One parser reads the tokens, three parallel lists, by precedence climbing,
and hands each node's source span to a maker.  parse_expr has it build the
AST; parse_ratfunc has it build each node's lowered value in its place, the
only lowering.  A failing size check or zero divisor stops it with the
span; the text is then parsed into an AST, so that errors come in one
order: syntax and shape, mixed names, then the first failing node in
post-order, named by printing its span's AST.  Diagnostics carry the
character offset and the expected-token set.  The printer's canonical form
reparses to the same AST, and printing a parsed canonical form is a fixed
point.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import List, Tuple, Union

from .polynomials import Poly, RatFunc, height, int_poly
from .scalars import MAX_BITS, Refused


class ExprSyntaxError(Refused):
    """Syntax error with position and expectation information."""

    def __init__(self, position: int, expected: Tuple[str, ...], found: str):
        self.position = position
        self.expected = expected
        self.found = found
        exp = " or ".join(expected)
        super().__init__(f"at offset {position}: expected {exp}, found {found}")


class DivisionByZeroConstant(Refused, ZeroDivisionError):
    """The expression divides by a subexpression that is identically zero."""


class ExpressionTooLarge(Refused):
    """The expression is past a size limit."""


# -- AST ---------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: int


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "ExprAST"


@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '-', '*', '/'
    left: "ExprAST"
    right: "ExprAST"


@dataclass(frozen=True)
class Pow:
    base: "ExprAST"
    exponent: int  # nonnegative literal only


ExprAST = Union[Num, Var, Neg, BinOp, Pow]


# -- lexer ---------------------------------------------------------------------

_OPS = frozenset("+-*/^()")


def _tokenize(text: str) -> Tuple[List[str], List[str], List[int]]:
    """The kind, text and offset of each token, as three parallel lists; a
    kind is 'INT', 'NAME', 'EOF' or the operator character itself."""
    kinds, words, offsets = [], [], []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        j = i + 1
        if ch in _OPS:
            kind = ch
        # isdecimal is what int() accepts; isdigit and isalnum also hold for
        # superscripts such as '²', which must not read as part of a name
        elif ch.isdecimal():
            while j < n and text[j].isdecimal():
                j += 1
            kind = "INT"
        elif ch.isalpha() or ch == "_":
            while j < n and (text[j].isalpha() or text[j].isdecimal() or text[j] == "_"):
                j += 1
            kind = "NAME"
        elif ch.isspace():
            i = j
            continue
        else:
            raise ExprSyntaxError(i, ("a digit", "a name", "an operator"), repr(ch))
        kinds.append(kind)
        words.append(text[i:j])
        offsets.append(i)
        i = j
    return kinds + ["EOF"], words + [""], offsets + [n]


# -- parser ---------------------------------------------------------------------


# Declared limits of an expression's shape (exit 2 in the CLI), checked as
# the parser reads it: MAX_NESTING parentheses and unary minus signs around
# a token, and MAX_DEPTH operators on a path from the root (a sum y+...+y
# of k terms has k - 1).  The parser recurses at most three frames per
# parenthesis and none per minus; printing an AST recurses a frame per
# operator on a path.  Measured on Python 3.11 from the caller of
# cli.main: a sum of MAX_DEPTH + 1 terms in MAX_NESTING parentheses needs
# 211 of the default 1,000 frames, and 507 when its root fails a size
# check and its span is parsed and printed, so the caller keeps 493.
# Printed from its AST, a 1,001-term sum would run out of frames.
MAX_NESTING = 100
MAX_DEPTH = 500

_BINARY = {"+": 1, "-": 1, "*": 2, "/": 2}  # binding powers, all left-associative
_OPERAND = ("an integer", "a name", "'('", "'-'")
_END = ("'+'", "'-'", "'*'", "'/'", "'^'", "end of input")


def _parse(text: str, build: tuple) -> tuple:
    """What build, the five makers (num, var, neg, power, binop), makes of
    text's root, and the set of its names.  Each maker is given the start
    and end offsets of its node's text, then the arguments of Num, Var,
    Neg, Pow or BinOp.  Precedence climbing (Pratt 1973): binary(i, level)
    reads an operand from token i, then each operator binding at least as
    tightly as level with a right operand binding tighter.  Both return
    (node, depth, next token); depth counts operators to the deepest leaf."""
    kinds, words, offsets = _tokenize(text)
    num, var, neg, power, binop = build
    names = set()
    nesting = 0

    def fail(i: int, expected: Tuple[str, ...]):
        found = "end of input" if kinds[i] == "EOF" else repr(words[i])
        raise ExprSyntaxError(offsets[i], expected, found)

    def nest(i: int) -> None:
        """Enter the parenthesis or unary minus at token i."""
        nonlocal nesting
        nesting += 1
        if nesting > MAX_NESTING:
            what = "parentheses and unary minus nest deeper than the limit"
            raise ExpressionTooLarge(f"at offset {offsets[i]}: {what} {MAX_NESTING}")

    def deeper(i: int, depth: int) -> int:
        """depth + 1 for the operator at token i, checked against MAX_DEPTH."""
        if depth >= MAX_DEPTH:
            what = "operators nest deeper than the limit"
            raise ExpressionTooLarge(f"at offset {offsets[i]}: {what} {MAX_DEPTH}")
        return depth + 1

    def number(i: int) -> int:
        try:
            return int(words[i])
        except ValueError as exc:  # more digits than int() reads
            raise ExpressionTooLarge(f"at offset {offsets[i]}: {exc}") from exc

    def unary(i: int) -> tuple:
        """'-'* (INT | NAME | '(' expr ')') ('^' INT)?"""
        nonlocal nesting
        first = i
        while kinds[i] == "-":
            nest(i)
            i += 1
        minus, kind = i, kinds[i]
        if kind == "INT":
            node, depth = num(offsets[i], offsets[i + 1], number(i)), 0
        elif kind == "NAME":
            node, depth = var(offsets[i], offsets[i + 1], words[i]), 0
            names.add(words[i])
        elif kind == "(":
            nest(i)
            node, depth, i = binary(i + 1, 1)
            if kinds[i] != ")":
                fail(i, ("')'",))
            nesting -= 1
        else:
            fail(i, _OPERAND)
        i += 1
        if kinds[i] == "^":
            if kinds[i + 1] != "INT":
                fail(i + 1, ("a nonnegative integer exponent",))
            node = power(offsets[minus], offsets[i + 2], node, number(i + 1))
            depth = deeper(i, depth)
            i += 2
        end = offsets[i]
        while minus > first:  # the innermost minus first
            minus -= 1
            nesting -= 1
            node, depth = neg(offsets[minus], end, node), deeper(minus, depth)
        return node, depth, i

    def binary(i: int, level: int) -> tuple:
        start = offsets[i]
        node, depth, i = unary(i)
        while (binding := _BINARY.get(kinds[i], 0)) >= level:
            op = kinds[i]
            right, right_depth, j = unary(i + 1) if binding == 2 else binary(i + 1, binding + 1)
            node = binop(start, offsets[j], op, node, right)
            depth, i = deeper(i, max(depth, right_depth)), j
        return node, depth, i

    node, _, i = binary(0, 1)
    if kinds[i] != "EOF":
        fail(i, _END)
    return node, names


def _spanless(make):
    """make, called with its node's span ahead of its arguments."""
    return lambda start, end, *args: make(*args)


_AST = tuple(map(_spanless, (Num, Var, Neg, Pow, BinOp)))


def parse_expr(text: str) -> ExprAST:
    """Parse a rational expression; raises ExprSyntaxError with position."""
    return _parse(text, _AST)[0]


# -- printer -------------------------------------------------------------------

# precedence levels for minimal parenthesization
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, Neg: 3, Pow: 4, Num: 5, Var: 5}


def _prec(node: ExprAST) -> int:
    return _PREC[node.op] if type(node) is BinOp else _PREC[type(node)]


def _wrap(text: str, node: ExprAST, level: int) -> str:
    """The text of node, in parentheses if it binds looser than level."""
    return f"({text})" if _prec(node) < level else text


def print_expr(node: ExprAST) -> str:
    """Canonical rendering; parse(print_expr(ast)) == ast."""
    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return "-" + _wrap(print_expr(node.operand), node.operand, _PREC[Neg])
    if isinstance(node, Pow):
        # bases below atom precedence need parens so '^' binds to them whole
        return f"{_wrap(print_expr(node.base), node.base, _PREC[Num])}^{node.exponent}"
    p = _PREC[node.op]
    left = _wrap(print_expr(node.left), node.left, p)
    # left-associative grammar: the right operand needs parens at equal level
    return f"{left} {node.op} {_wrap(print_expr(node.right), node.right, p + 1)}"


# -- lowering --------------------------------------------------------------------

# Declared size limits of a lowered expression (exit 2 in the CLI): degree
# at most MAX_DEGREE, integers of at most scalars.MAX_BITS bits.
MAX_DEGREE = 1000


# A polynomial subtree lowers to a Poly, and a RatFunc is built only once a
# non-constant divisor appears.  A Poly p has the value of the RatFunc p/1,
# with the same lengths and height, so the size checks read the same
# numbers in the same node order as on a RatFunc for every node.  The
# lowering functions take the node's span, start and end, only to name the
# node in a message.
_X, _ONE = Poly.variable(), Poly.one()
_Lowered = Union[Poly, RatFunc]
_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_LIMIT = 1 << MAX_BITS  # past MAX_BITS bits: the integers >= _LIMIT or <= -_LIMIT


class _Failed(Exception):
    """A lowering error at the node text[start:end]: args are the span, the
    Refused subclass to raise and its message, with {} for the node."""


def _check(start: int, end: int, what: str, value: int, limit: int) -> None:
    if value > limit:
        message = f"{{}} may reach {what} {value}, above the limit {limit}"
        raise _Failed((start, end), ExpressionTooLarge, message)


def _as_ratfunc(f: _Lowered) -> RatFunc:
    return RatFunc._raw(f, _ONE) if type(f) is Poly else f


def _lower_num(start: int, end: int, value: int) -> Poly:
    if value.bit_length() > MAX_BITS:
        _check(start, end, "integer bits", value.bit_length(), MAX_BITS)
    return int_poly([value], 1)


def _lower_pow(start: int, end: int, base: _Lowered, e: int) -> _Lowered:
    """Checked before expanding: the integers of P**e, for an integer P of
    degree <= k and height <= h, are at most ((k + 1) * h)**e."""
    if base is _X:  # k = h = 1: e bits, which the degree limit keeps under MAX_BITS
        _check(start, end, "degree", e, MAX_DEGREE)
        return int_poly([0] * e + [1], 1)
    f = _as_ratfunc(base)
    k = max(f.num.degree, f.den.degree, 0)
    _check(start, end, "degree", k * e, MAX_DEGREE)
    _check(start, end, "integer bits", ((k + 1) * height(base) - 1).bit_length() * e, MAX_BITS)
    return base**e


def _lower_binop(start: int, end: int, op: str, left: _Lowered, right: _Lowered) -> _Lowered:
    """The degree bound of a/b op c/d is checked before any product or gcd
    starts, the integers on the result.  a, b, c, d count coefficients
    (degree + 1), so a bound on the sum of two degrees is 2 less."""
    if type(left) is Poly and type(right) is Poly:
        # the bounds below with b = d = 1, where they pass the limit
        a, c = len(left.ints), len(right.ints)
        _check(start, end, "degree", a + c - 2 if op == "*" else max(a, c) - 1, MAX_DEGREE)
        if op != "/":
            result = _OPERATORS[op](left, right)
        elif c > 1:
            result = RatFunc(left, right)
        elif c:  # a constant divisor n/m: multiply by m/n
            result = int_poly([x * right.den for x in left.ints], left.den * right.ints[0])
        else:
            raise _Failed((start, end), DivisionByZeroConstant, "division by zero in {}")
    else:
        left, right = _as_ratfunc(left), _as_ratfunc(right)
        a, b, c, d = (len(p.ints) for p in (left.num, left.den, right.num, right.den))
        plus = (a + d, c + b, b + d)
        bounds = {"+": plus, "-": plus, "*": (a + c, b + d), "/": (a + d, b + c)}
        _check(start, end, "degree", max(bounds[op]) - 2, MAX_DEGREE)
        if op == "/" and right.is_zero:
            raise _Failed((start, end), DivisionByZeroConstant, "division by zero in {}")
        result = _OPERATORS[op](left, right)
    for p in (result,) if type(result) is Poly else (result.num, result.den):
        if p.den >= _LIMIT or p.ints and (max(p.ints) >= _LIMIT or -min(p.ints) >= _LIMIT):
            _check(start, end, "integer bits", height(result).bit_length(), MAX_BITS)
    return result


# the makers of Num, Var, Neg, Pow and BinOp values for parse_ratfunc
_LOWERED = (_lower_num, lambda start, end, name: _X, lambda start, end, f: -f,
            _lower_pow, _lower_binop)


def parse_ratfunc(text: str) -> RatFunc:
    """Lower a rational expression into an exact rational function of its
    single variable, as the parser reads it.

    Raises what parse_expr raises, then Refused when two distinct names
    occur, DivisionByZeroConstant when a divisor is identically zero and
    ExpressionTooLarge past the size limits."""
    try:
        value, names = _parse(text, _LOWERED)
        failed = None
    except _Failed as exc:
        failed = exc
    if failed:
        names = _parse(text, _AST)[1]  # syntax and shape errors come first
    if len(names) > 1:
        raise Refused(f"expression mixes variables {sorted(names)}")
    if failed:
        (start, end), kind, message = failed.args
        raise kind(message.format(print_expr(parse_expr(text[start:end]))))
    return _as_ratfunc(value)
