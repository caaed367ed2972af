"""Independent checks the tests compare the library against.

These are written from the definitions, on RatFunc arithmetic alone, and
are not used by the library: the Schwarzian derivative, the Schwarzian
equation's solution test, composition and evaluation of rational functions,
Moebius maps as functions and as matrices, the half-Riccati residual, the
algebraic solvability of the triangular Riccati equation by its monodromy
(Beukers and Heckman), the polynomial gcd by Euclid's algorithm over Q,
the expression parser as a recursive descent over token objects with its
lowering one RatFunc per node, and truncated Puiseux-series arithmetic in
w = y' with the derivation D and the residual E(U) of the Schwarzian
reduction (see `triform.puiseux`).

A series is a finite sum  sum_i a_i(y) * w^{lambda_i}  with strictly
descending rational exponents.  Exponents below the series cutoff are
UNKNOWN, not zero; every operation propagates the cutoff so that no term is
ever fabricated.  A cutoff of -inf (EXACT) means all omitted terms are
genuinely zero.  Scalars in Q are killed by D.
"""

import math
import operator
from dataclasses import dataclass
from typing import Iterable, List, Tuple

from triform.parser import (
    MAX_DEGREE,
    MAX_DEPTH,
    MAX_NESTING,
    BinOp,
    DivisionByZeroConstant,
    ExprAST,
    ExpressionTooLarge,
    ExprSyntaxError,
    Neg,
    Num,
    Pow,
    Var,
    print_expr,
)
from triform.polynomials import Poly, RatFunc, height
from triform.scalars import MAX_BITS, Q, Refused


def coeffs(p: Poly) -> tuple:
    """The coefficients of p as Q values, ascending degree."""
    return tuple(Q(n, p.den) for n in p.ints)


def value(r: RatFunc, x) -> Q:
    """r(x) for a rational x; ZeroDivisionError at a pole of r."""
    x = Q(x)
    return r.num(x) / r.den(x)


def compose(f: RatFunc, g: RatFunc) -> RatFunc:
    """f(g(y)), by Horner's rule over RatFunc on numerator and denominator."""

    def poly_at(p: Poly) -> RatFunc:
        acc = RatFunc.zero()
        for c in reversed(coeffs(p)):
            acc = acc * g + RatFunc.const(c)
        return acc

    return poly_at(f.num) / poly_at(f.den)


def schwarzian_of(g: RatFunc) -> RatFunc:
    """S(g) = (g''/g')' - (1/2)(g''/g')^2; zero iff g is Moebius."""
    gp = g.derivative()
    if gp.is_zero:
        raise ValueError("Schwarzian derivative of a constant")
    h = gp.derivative() / gp
    return h.derivative() - (h * h).scale(Q(1, 2))


def check_solution(g: RatFunc, R: RatFunc) -> bool:
    """Does g satisfy S(g) + (g')^2 * R(g) = 0 identically?"""
    gp = g.derivative()
    if gp.is_zero:
        raise ValueError("candidate solution is constant")
    return (schwarzian_of(g) + gp * gp * compose(R, g)).is_zero


def is_moebius(g: RatFunc) -> bool:
    """Non-constant and of the form (ay+b)/(cy+d); such g have S(g) = 0."""
    return g.num.degree <= 1 and g.den.degree <= 1 and not g.derivative().is_zero


def moebius_function(m) -> RatFunc:
    """(a*y + b)/(c*y + d) for a map m with entries m.a, m.b, m.c, m.d."""
    return RatFunc(Poly((m.b, m.a)), Poly((m.d, m.c)))


def moebius_apply(m, g: RatFunc) -> RatFunc:
    """(a*g + b)/(c*g + d)."""
    num = g.scale(m.a) + RatFunc.const(m.b)
    den = g.scale(m.c) + RatFunc.const(m.d)
    return num / den


def matrix_product(m, n) -> tuple:
    """The entries (a, b, c, d) of the matrix product m * n, the map m after n."""
    return (
        m.a * n.a + m.b * n.c,
        m.a * n.b + m.b * n.d,
        m.c * n.a + m.d * n.c,
        m.c * n.b + m.d * n.d,
    )


def half_riccati_residual(a: RatFunc, R: RatFunc) -> RatFunc:
    """Residual of da/dy + (1/2)a^2 + R = 0; a solves this iff a/2 solves
    the Riccati equation with coefficient (1/2)R."""
    return a.derivative() + (a * a).scale(Q(1, 2)) + R


def has_algebraic_solution(lam, mu, nu) -> bool:
    """Does the Riccati equation with exponent differences lam, mu, nu (the
    parameter inverses, 0 for infinity) have an algebraic solution?

    It does exactly when the monodromy of the hypergeometric equation
    2F1(a, b; c) with a = (1 - lam - mu - nu)/2, b = (1 - lam - mu + nu)/2
    and c = 1 - lam is reducible or finite.  Reducible: one of a, b, a - c,
    b - c is an integer, that is one of lam + mu + nu, -lam + mu + nu,
    lam - mu + nu, lam + mu - nu is odd.  Finite, for an irreducible group
    with rational parameters: for every k prime to the common denominator N,
    {k*a, k*b} and {0, k*c} modulo 1 interlace on the circle (Beukers and
    Heckman 1989, "Monodromy for the hypergeometric function nFn-1", Invent.
    Math. 95, Theorem 4.8).  Used as the independent source of the table's
    rows, which restate Schwarz's list.
    """
    lam, mu, nu = Q(lam), Q(mu), Q(nu)
    a, b, c = (1 - lam - mu - nu) / 2, (1 - lam - mu + nu) / 2, 1 - lam
    if any(t.denominator == 1 for t in (a, b, a - c, b - c)):
        return True
    N = math.lcm(a.denominator, b.denominator, c.denominator)
    for k in range(1, N + 1):
        if math.gcd(k, N) != 1:
            continue
        lo, hi = sorted((Q(0), (k * c) % 1))
        alphas = ((k * a) % 1, (k * b) % 1)
        if lo == hi or lo in alphas or hi in alphas:
            return False
        if sum(lo < x < hi for x in alphas) != 1:
            return False
    return True


def reference_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by Euclid's algorithm over the monic remainder sequence."""
    while not b.is_zero:
        a, b = b, (a % b).monic()
    return a.monic()


# -- the expression parser as a recursive descent over token objects ------------

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


def reference_parse_expr(text: str) -> ExprAST:
    """The AST of text, or the parser's exception for it."""
    return _Parser(_tokenize(text)).parse()


def _reference_check(node, what, value, limit):
    if value > limit:
        text = print_expr(node)
        raise ExpressionTooLarge(f"{text} may reach {what} {value}, above the limit {limit}")


def reference_to_ratfunc(node: ExprAST) -> RatFunc:
    """The lowering as a reduced RatFunc at every node, after a walk that
    refuses two distinct names, with the same size checks in the same node
    order as the library."""
    names = set()

    def scan(n):
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
    ops = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}

    def lower(n):
        if isinstance(n, Num):
            _reference_check(n, "integer bits", n.value.bit_length(), MAX_BITS)
            return RatFunc.const(Q(n.value))
        if isinstance(n, Var):
            return RatFunc(Poly.variable())
        if isinstance(n, Neg):
            return -lower(n.operand)
        if isinstance(n, Pow):
            base = lower(n.base)
            k, e = max(base.num.degree, base.den.degree, 0), n.exponent
            _reference_check(n, "degree", k * e, MAX_DEGREE)
            bits = ((k + 1) * height(base) - 1).bit_length() * e
            _reference_check(n, "integer bits", bits, MAX_BITS)
            return base**e
        left, right = lower(n.left), lower(n.right)
        a, b = len(left.num.ints), len(left.den.ints)
        c, d = len(right.num.ints), len(right.den.ints)
        plus = (a + d, c + b, b + d)
        bounds = {"+": plus, "-": plus, "*": (a + c, b + d), "/": (a + d, b + c)}
        _reference_check(n, "degree", max(bounds[n.op]) - 2, MAX_DEGREE)
        if n.op == "/" and right.is_zero:
            raise DivisionByZeroConstant(f"division by zero in {print_expr(n)}")
        result = ops[n.op](left, right)
        _reference_check(n, "integer bits", height(result).bit_length(), MAX_BITS)
        return result

    return lower(node)


EXACT = float("-inf")  # cutoff sentinel: nothing is truncated


class PuiseuxSeries:
    __slots__ = ("terms", "cutoff")

    def __init__(self, terms: Iterable[Tuple[object, RatFunc]], cutoff=EXACT):
        # normalize any float -inf to the shared sentinel
        cutoff = EXACT if cutoff == EXACT else Q(cutoff)
        merged = {}
        for exp, coeff in terms:
            exp = exp if isinstance(exp, float) else Q(exp)
            if exp < cutoff:
                continue
            if exp in merged:
                merged[exp] = merged[exp] + coeff
            else:
                merged[exp] = coeff
        items = [(e, c) for e, c in merged.items() if not c.is_zero]
        items.sort(key=lambda t: t[0], reverse=True)
        self.terms: Tuple[Tuple[object, RatFunc], ...] = tuple(items)
        self.cutoff = cutoff

    # -- constructors --------------------------------------------------------

    @staticmethod
    def monomial(coeff: RatFunc, exp, cutoff=EXACT) -> "PuiseuxSeries":
        return PuiseuxSeries(((Q(exp), coeff),), cutoff)

    @staticmethod
    def from_ratfunc(r: RatFunc, cutoff=EXACT) -> "PuiseuxSeries":
        """r(y) as the w^0 term."""
        return PuiseuxSeries(((Q(0), r),), cutoff)

    # -- structure -------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exp) -> RatFunc:
        """Coefficient at the given exponent; raises below the cutoff."""
        exp = Q(exp)
        if exp < self.cutoff:
            raise ValueError(f"exponent {exp} is below the cutoff {self.cutoff}")
        for e, c in self.terms:
            if e == exp:
                return c
        return RatFunc.zero()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PuiseuxSeries)
            and self.terms == other.terms
            and self.cutoff == other.cutoff
        )

    def __hash__(self) -> int:
        return hash((self.terms, self.cutoff))

    # -- arithmetic ---------------------------------------------------------------

    def _effective_leading(self):
        """Leading exponent, or the cutoff when no term is known."""
        return self.terms[0][0] if self.terms else self.cutoff

    def __add__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        cutoff = max(self.cutoff, other.cutoff)
        return PuiseuxSeries(self.terms + other.terms, cutoff)

    def __neg__(self) -> "PuiseuxSeries":
        return PuiseuxSeries(((e, -c) for e, c in self.terms), self.cutoff)

    def __sub__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        return self + (-other)

    def __mul__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        lam = self._effective_leading()
        mu = other._effective_leading()
        if self.cutoff is EXACT and other.cutoff is EXACT:
            cutoff = EXACT
        else:
            cutoff = max(lam + other.cutoff, mu + self.cutoff)
        prods = [
            (e1 + e2, c1 * c2)
            for e1, c1 in self.terms
            for e2, c2 in other.terms
        ]
        return PuiseuxSeries(prods, cutoff)

    def scale(self, coeff: RatFunc) -> "PuiseuxSeries":
        return PuiseuxSeries(((e, c * coeff) for e, c in self.terms), self.cutoff)

    def shift(self, delta) -> "PuiseuxSeries":
        """Multiply by w^delta."""
        delta = Q(delta)
        cutoff = self.cutoff if self.cutoff is EXACT else self.cutoff + delta
        return PuiseuxSeries(((e + delta, c) for e, c in self.terms), cutoff)

    # -- display -------------------------------------------------------------------

    def render(self) -> str:
        if not self.terms:
            body = "0"
        else:
            chunks = []
            for e, c in self.terms:
                ctext = c.render("y")
                if "/" in ctext or " " in ctext:
                    ctext = f"({ctext})"
                if e == 0:
                    chunks.append(ctext)
                else:
                    chunks.append(f"{ctext}*w^({e})")
            body = " + ".join(chunks)
        if self.cutoff is EXACT:
            return body
        return f"{body} + O(w^({self.cutoff}))"

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"PuiseuxSeries({self.render()!r})"


@dataclass(frozen=True)
class SeriesContext:
    """Closure for the derivation: U stands for u = y''/y'^2, so y'' = U*w^2."""

    U: PuiseuxSeries

    def __post_init__(self):
        if self.U.is_zero and self.U.cutoff is not EXACT:
            raise ValueError("context series U has no known leading term")


def derive(s: PuiseuxSeries, ctx: SeriesContext) -> PuiseuxSeries:
    """D(s) = sum (da_i/dy) w^{l_i+1} + (sum l_i a_i w^{l_i}) * U * w."""
    part1 = PuiseuxSeries(
        ((e + 1, c.derivative()) for e, c in s.terms),
        s.cutoff if s.cutoff is EXACT else s.cutoff + 1,
    )
    lowered = PuiseuxSeries(
        ((e, c.scale(e)) for e, c in s.terms if e != 0), s.cutoff
    )
    part2 = lowered * ctx.U.shift(Q(1))
    return part1 + part2


def series_residual(U: PuiseuxSeries, R: RatFunc) -> PuiseuxSeries:
    """E(U) = D(U)/w + (1/2) U^2 + R(y) * w^0, truncated."""
    ctx = SeriesContext(U)
    du = derive(U, ctx).shift(Q(-1))
    usq = (U * U).scale(RatFunc.const(Q(1, 2)))
    rterm = PuiseuxSeries.from_ratfunc(R)
    return du + usq + rterm
