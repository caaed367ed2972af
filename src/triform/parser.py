"""Parser and pretty printer for rational expressions in one variable.

Grammar (no implicit multiplication, no negative literal exponents):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' INT)?
    atom    := INT | NAME | '(' expr ')'

INT is a run of decimal digits (str.isdecimal); NAME is a letter or '_'
followed by letters, decimal digits or '_'.

Diagnostics carry the byte offset and the expected-token set.  The printer
emits a canonical form whose reparse is structurally identical to the
original AST, and printing a freshly parsed canonical form is a fixed
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

_OPS = set("+-*/^()")


@dataclass(frozen=True)
class _Token:
    kind: str  # 'INT', 'NAME', one of _OPS, 'EOF'
    text: str
    pos: int


def _tokenize(text: str) -> List[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        # isdecimal is what int() accepts; isdigit and isalnum also hold for
        # superscripts such as '²', which must not read as part of a name
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(_Token("INT", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalpha() or text[j].isdecimal() or text[j] == "_"):
                j += 1
            tokens.append(_Token("NAME", text[i:j], i))
            i = j
            continue
        if ch in _OPS:
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ExprSyntaxError(i, ("a digit", "a name", "an operator"), repr(ch))
    tokens.append(_Token("EOF", "", n))
    return tokens


def _int(tok: _Token) -> int:
    try:
        return int(tok.text)
    except ValueError as exc:  # more digits than int() reads
        raise ExpressionTooLarge(f"at offset {tok.pos}: {exc}") from exc


# -- parser ---------------------------------------------------------------------


# Declared limits of an expression's shape (exit 2 in the CLI), checked as
# the parser reads it, before the recursion they bound.  The parser
# recurses five frames deep per parenthesis and one per unary minus, which
# MAX_NESTING counts together; lowering and printing recurse one frame per
# operator on a path from the root, which MAX_DEPTH counts (a sum y+y+...+y
# of k terms has k - 1).  Measured on Python 3.11, counted from the caller of
# cli.main: MAX_NESTING parentheses around y, and a sum of MAX_DEPTH + 1
# terms inside them, need 515 of the default 1,000 frames, so the caller
# keeps 485.  Without the limits, 200 parentheses or a 1,001-term sum ran
# out of frames.
MAX_NESTING = 100
MAX_DEPTH = 500


class _Parser:
    """Recursive descent; each method returns (node, depth), depth being
    the number of operators on the longest path from node to a leaf."""

    def __init__(self, tokens: List[_Token]):
        self.tokens = tokens
        self.i = 0
        self.nesting = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def _fail(self, expected: Tuple[str, ...]):
        tok = self.cur
        found = "end of input" if tok.kind == "EOF" else repr(tok.text)
        raise ExprSyntaxError(tok.pos, expected, found)

    def _eat(self, kind: str) -> _Token:
        if self.cur.kind != kind:
            self._fail((f"'{kind}'",))
        tok = self.cur
        self.i += 1
        return tok

    def _nest(self, tok: _Token) -> None:
        """Enter a parenthesis or a unary minus at tok, before recursing."""
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            raise ExpressionTooLarge(
                f"at offset {tok.pos}: parentheses and unary minus nest deeper than "
                f"the limit {MAX_NESTING}"
            )

    @staticmethod
    def _depth(tok: _Token, depth: int) -> int:
        """depth + 1 for the operator at tok, checked against MAX_DEPTH."""
        if depth >= MAX_DEPTH:
            raise ExpressionTooLarge(
                f"at offset {tok.pos}: operators nest deeper than the limit {MAX_DEPTH}"
            )
        return depth + 1

    def parse(self) -> ExprAST:
        node, _ = self.expr()
        if self.cur.kind != "EOF":
            self._fail(("'+'", "'-'", "'*'", "'/'", "'^'", "end of input"))
        return node

    def expr(self) -> Tuple[ExprAST, int]:
        node, depth = self.term()
        while self.cur.kind in ("+", "-"):
            tok = self._eat(self.cur.kind)
            right, right_depth = self.term()
            node, depth = BinOp(tok.kind, node, right), self._depth(tok, max(depth, right_depth))
        return node, depth

    def term(self) -> Tuple[ExprAST, int]:
        node, depth = self.unary()
        while self.cur.kind in ("*", "/"):
            tok = self._eat(self.cur.kind)
            right, right_depth = self.unary()
            node, depth = BinOp(tok.kind, node, right), self._depth(tok, max(depth, right_depth))
        return node, depth

    def unary(self) -> Tuple[ExprAST, int]:
        if self.cur.kind == "-":
            tok = self._eat("-")
            self._nest(tok)
            operand, depth = self.unary()
            self.nesting -= 1
            return Neg(operand), self._depth(tok, depth)
        return self.power()

    def power(self) -> Tuple[ExprAST, int]:
        base, depth = self.atom()
        if self.cur.kind == "^":
            tok = self._eat("^")
            if self.cur.kind != "INT":
                self._fail(("a nonnegative integer exponent",))
            return Pow(base, _int(self._eat("INT"))), self._depth(tok, depth)
        return base, depth

    def atom(self) -> Tuple[ExprAST, int]:
        tok = self.cur
        if tok.kind == "INT":
            return Num(_int(self._eat("INT"))), 0
        if tok.kind == "NAME":
            self._eat("NAME")
            return Var(tok.text), 0
        if tok.kind == "(":
            self._nest(self._eat("("))
            node = self.expr()
            self._eat(")")
            self.nesting -= 1
            return node
        self._fail(("an integer", "a name", "'('", "'-'"))


def parse_expr(text: str) -> ExprAST:
    """Parse a rational expression; raises ExprSyntaxError with position."""
    return _Parser(_tokenize(text)).parse()


# -- printer -------------------------------------------------------------------

# precedence levels for minimal parenthesization
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _prec(node: ExprAST) -> int:
    if isinstance(node, (Num, Var)):
        return _PREC["atom"]
    if isinstance(node, Pow):
        return _PREC["^"]
    if isinstance(node, Neg):
        return _PREC["neg"]
    return _PREC[node.op]


def print_expr(node: ExprAST) -> str:
    """Canonical rendering; parse(print_expr(ast)) == ast."""
    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        inner = print_expr(node.operand)
        if _prec(node.operand) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Pow):
        base = print_expr(node.base)
        # bases below atom precedence need parens so '^' binds to them whole
        if _prec(node.base) < _PREC["atom"]:
            base = f"({base})"
        return f"{base}^{node.exponent}"
    left = print_expr(node.left)
    right = print_expr(node.right)
    p = _PREC[node.op]
    if _prec(node.left) < p:
        left = f"({left})"
    # left-associative grammar: the right operand needs parens at equal level
    if _prec(node.right) <= p:
        right = f"({right})"
    return f"{left} {node.op} {right}"


# -- lowering --------------------------------------------------------------------

# Declared size limits of a lowered expression (exit 2 in the CLI): degree
# at most MAX_DEGREE, integers of at most scalars.MAX_BITS bits.
MAX_DEGREE = 1000


# A polynomial subtree lowers to a Poly, and a RatFunc is built only once a
# non-constant divisor appears.  A Poly p has the value of the RatFunc p/1,
# with the same lengths and height, so the size checks read the same
# numbers in the same node order as on a RatFunc for every node.
_X, _ONE = Poly.variable(), Poly.one()
_Lowered = Union[Poly, RatFunc]
_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _check(node: ExprAST, what: str, value: int, limit: int) -> None:
    if value > limit:
        text = print_expr(node)
        raise ExpressionTooLarge(f"{text} may reach {what} {value}, above the limit {limit}")


def _terms(f: _Lowered) -> Tuple[Poly, Poly]:
    """(numerator, denominator) of a lowered value."""
    return (f, _ONE) if type(f) is Poly else (f.num, f.den)


def _as_ratfunc(f: _Lowered) -> RatFunc:
    return RatFunc._raw(f, _ONE) if type(f) is Poly else f


def _lower_pow(node: Pow, base: _Lowered) -> _Lowered:
    """Checked before expanding: the integers of P**e, for an integer P of
    degree <= k and height <= h, are at most ((k + 1) * h)**e."""
    num, den = _terms(base)
    k, e = max(num.degree, den.degree, 0), node.exponent
    _check(node, "degree", k * e, MAX_DEGREE)
    _check(node, "integer bits", ((k + 1) * height(base) - 1).bit_length() * e, MAX_BITS)
    if base == _X:
        return int_poly([0] * e + [1], 1)
    return base**e


def _lower_binop(node: BinOp, left: _Lowered, right: _Lowered) -> _Lowered:
    """The degree bound of a/b op c/d is checked before any product or gcd
    starts, the integers on the result.  a, b, c, d count coefficients
    (degree + 1), so a bound on the sum of two degrees is 2 less."""
    (ln, ld), (rn, rd) = _terms(left), _terms(right)
    a, b, c, d = len(ln.ints), len(ld.ints), len(rn.ints), len(rd.ints)
    plus = (a + d, c + b, b + d)
    bounds = {"+": plus, "-": plus, "*": (a + c, b + d), "/": (a + d, b + c)}
    op = node.op
    _check(node, "degree", max(bounds[op]) - 2, MAX_DEGREE)
    if op == "/" and right.is_zero:
        raise DivisionByZeroConstant(f"division by zero in {print_expr(node)}")
    if type(left) is not Poly or type(right) is not Poly or (op == "/" and c > 1):
        result = _OPERATORS[op](_as_ratfunc(left), _as_ratfunc(right))
    elif op != "/":
        result = _OPERATORS[op](left, right)
    else:  # a constant divisor n/m: multiply by m/n
        n, m = right.ints[0], right.den
        result = int_poly([x * m for x in left.ints], left.den * n)
    _check(node, "integer bits", height(result).bit_length(), MAX_BITS)
    return result


def to_ratfunc(node: ExprAST) -> RatFunc:
    """Lower an AST into an exact rational function of its single variable.

    Raises Refused when two distinct names occur, DivisionByZeroConstant
    when a divisor is identically zero, ExpressionTooLarge past the size
    limits.
    """
    names = set()

    def scan(n: ExprAST):
        if isinstance(n, Var):
            names.add(n.name)
        elif isinstance(n, Neg):
            scan(n.operand)
        elif isinstance(n, BinOp):
            scan(n.left)
            scan(n.right)
        elif isinstance(n, Pow):
            scan(n.base)

    scan(node)
    if len(names) > 1:
        raise Refused(f"expression mixes variables {sorted(names)}")

    def lower(n: ExprAST) -> _Lowered:
        if isinstance(n, Num):
            _check(n, "integer bits", n.value.bit_length(), MAX_BITS)
            return int_poly([n.value], 1)
        if isinstance(n, Var):
            return _X
        if isinstance(n, Neg):
            return -lower(n.operand)
        if isinstance(n, Pow):
            return _lower_pow(n, lower(n.base))
        return _lower_binop(n, lower(n.left), lower(n.right))

    return _as_ratfunc(lower(node))


def parse_ratfunc(text: str) -> RatFunc:
    return to_ratfunc(parse_expr(text))
