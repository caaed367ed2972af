"""The Riccati equation attached to a Schwarzian coefficient R and an exact
oracle for its rational solutions.

Conventions.  The Riccati equation is

    du/dy + u^2 + (1/2) R(y) = 0,

and u solves it iff u = v'/v for a nonzero solution of the companion linear
equation v'' + (1/2) R v = 0.

The oracle finds every rational solution u by local analysis (the rational
branch of Kovacic's algorithm).  A rational u can only have simple poles;
at a pole c its residue e must satisfy the indicial equation

    e^2 - e + kappa_c = 0,        kappa_c = coefficient of (y-c)^{-2} in (1/2)R,

and the behavior at infinity fixes the degree d = e_inf - sum(e_c) of an
auxiliary monic polynomial P with

    P'' + 2*theta*P' + (theta' + theta^2 + (1/2)R) P = 0,
    theta = sum of e_c/(y - c);

each success gives u = theta + P'/P, verified by exact substitution before
it is returned, once per distinct u.  With S the product of the y - c,
theta = T/S for a polynomial T, and the equation cleared of S^2 has
polynomial coefficients, of which those that do not depend on the combo
are built once per R.  As (1/2)R vanishes to order >= 2 at infinity, the
operator maps y^j to the rows j - 2 ... j + deg(S^2) - 2, with top
coefficient I(j), the indicial polynomial at infinity; so the linear system
for P is triangular and banded, and P comes from a recurrence on integer
pairs that fixes its coefficients one at a time from the top, each from
the at most deg(S^2) coefficients above it.  Where I has a second
integer root k below d, p_k is a free constant and row k + deg(S^2) - 2,
the free row, is fixed by no coefficient.  The rows that no coefficient
fixes, those below deg(S^2) - 2 and the free row, are evaluated once at
the end; when none of them fixes p_k, the solutions form a family with one
movable constant, recorded in the search certificate with the
representative p_k = 0, and its members are not enumerated.

A candidate u = theta + P'/P is reduced from its structure, not by a gcd:
a root c of P of multiplicity m at a pole moves into the residue e_c + m,
and the rest of P has no root at a pole and, as a solution of an equation
that is regular off the poles, only simple roots; gcd(P1, P1') = 1 for
that rest P1, settled modulo a prime, confirms it before the fraction is
taken as reduced.  The
substitution check clears u' + u^2 + (1/2)R to one numerator and tests it
for zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Optional, Tuple

from .kimura import KimuraVerdict, OddSumWitness, condition_two, decide_condition_ric
from .polynomials import (
    NotSplitOverRationals,
    Poly,
    RatFunc,
    check_output_size,
    deflate,
    int_poly,
    linear_factorization,
)
from .scalars import Q, Refused, rational_sqrt
from .schwarzian import TriangleParams, build_triangular_R


_HALF = Q(1, 2)


class NonRationalPoles(Refused):
    """The coefficient function has a pole not defined over Q."""


class UnsupportedAtInfinity(Refused):
    """(1/2)R grows at infinity; the local-exponent method does not apply."""


# Declared work limit of the oracle: the number of exponent combos, the
# product of the numbers of exponents at each pole and at infinity.
# Measured with (1/2)R = -(u' + u^2), u = sum_{i=1..k} 2/(y - i), where
# most combos reach the solve, as rational_solutions alone in a fresh
# process on a 2-core x86-64 with Python 3.11: at k = 8 (512 combos) it
# takes 0.12-0.14 s, at k = 9 (1024 combos) 0.28-0.29 s and at k = 10
# (2048 combos) 0.41-0.63 s.  The R of a triangle has at most 8 combos.
# The count does not bound the cost of each combo, which grows with the
# poles that have one exponent: adding sum_{j=1..m} (1/2)/(y + j) to that
# u keeps 512 combos, but took 0.4-0.7 s at m = 20, 1.4-1.7 s at m = 50,
# and 99.8 s at m = 240.  ROADMAP items 2 (a cheaper per-combo operator)
# and 5 (limits in counted work) are the follow-up.
MAX_COMBOS = 512


class TooManyCombos(Refused):
    """The oracle would enumerate more than MAX_COMBOS exponent combos."""


# Declared work limit of the oracle's solves for P: the sum of (d + 1)^2
# over the degrees d solved; at most MAX_COMBOS * 25^2 = 320,000 under the
# default degree bound 24.  (d + 1)^2 bounds the entries of a solve's
# triangular system; the banded recurrence visits about (d + 1)(deg S^2 + 1)
# of them, so few poles cost far less than the bound.  Measured as
# rational_solutions alone, degree bound 2000, in a fresh process on a
# 2-core x86-64 with Python 3.11: (1/2)R = -N(N-1)/(y+1)^2 takes
# 0.008-0.011 s at N = 499 (work 996,006) and 0.02-0.03 s at N = 1000
# (4,000,002), and the R of u = sum_{i=1..8} c/(y - i) 0.33-0.36 s at c = 7
# (805,632) and 0.26-0.39 s at c = 8 (1,067,776).
MAX_SOLVE_WORK = 1_000_000


class TooMuchSolveWork(Refused):
    """The oracle's solves for P would pass MAX_SOLVE_WORK."""


@dataclass(frozen=True)
class RiccatiEq:
    """du/dy + u^2 + (1/2) R(y) = 0, determined by R."""

    R: RatFunc

    @property
    def half_R(self) -> RatFunc:
        return self.R.scale(_HALF)

    def residual(self, u: RatFunc) -> RatFunc:
        """u' + u^2 + (1/2)R from one cleared numerator: for u = N/D and
        (1/2)R = a/b it is M/(D^2 b) with M = (N'D - ND' + N^2) b + a D^2,
        so a solution costs no gcd."""
        N, D = u.num, u.den
        half_R = self.half_R
        DD = D * D
        M = (N.derivative() * D - N * D.derivative() + N * N) * half_R.den + half_R.num * DD
        return RatFunc.zero() if M.is_zero else RatFunc(M, DD * half_R.den)

    def render(self) -> str:
        return f"du/dy + u^2 + ({self.half_R.render('y')}) = 0"


@dataclass(frozen=True)
class PoleData:
    pole: object  # Q
    order: int
    kappa: object  # Q: coefficient of (y-pole)^{-2} in (1/2)R
    exponents: Tuple  # rational indicial roots (may be empty if irrational)


@dataclass
class SearchCertificate:
    """Audit trail of the local-exponent enumeration."""

    poles: List[PoleData] = field(default_factory=list)
    kappa_inf: Optional[object] = None
    exponents_inf: Tuple = ()
    combos: List[dict] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    families: List[str] = field(default_factory=list)


@dataclass(frozen=True)
class OracleResult:
    solutions: Tuple[RatFunc, ...]
    certificate: SearchCertificate
    complete: bool = True  # False when a combo was pruned by the degree bound

    @property
    def found(self) -> bool:
        return bool(self.solutions)


# The oracle's memos are keyed on integers, not on Q values: hashing a
# Fraction computes a modular inverse.  Their values are immutable tuples
# that also hold the texts and integer pairs the per-call path reads, so it
# builds no Fraction.  Both are bounded; the bound-100 sweep needs one
# denominator and about a hundred kappas, since kappa at 0, 1 and inf is
# (1 - x^2)/4 for x = 1/n.
@lru_cache(maxsize=256)
def _indicial_roots_of(n: int, d: int) -> Tuple:
    """(kappa, roots, options) for kappa = n/d in lowest terms (d > 0):
    roots are the rational roots of e^2 - e + kappa = 0, descending, or
    None, and options hold (root, text, numerator, denominator) per root.
    Raises OutputTooLarge when kappa, whose text the oracle may print, has
    an integer above MAX_OUTPUT_BITS bits."""
    check_output_size("kappa", int_poly([n], d))
    kappa = Q(n, d)
    s = rational_sqrt(1 - 4 * kappa)
    if s is None:
        return kappa, None, ()
    hi = (1 + s) / 2
    lo = (1 - s) / 2
    roots = (hi,) if hi == lo else (hi, lo)
    return kappa, roots, tuple((e, str(e), e.numerator, e.denominator) for e in roots)


@lru_cache(maxsize=64)
def _denominator_poles_of(ints: Tuple[int, ...], d: int) -> Tuple[Tuple, ...]:
    """(pole, order, text, (p, q), h) for each rational root pole = p/q of
    den = ints/d, ascending.  At a double root, den = (y - pole)^2 g and
    h = g(pole) = den''(pole)/2, a Taylor coefficient, so the coefficient
    of (y - pole)^-2 in num/den is num(pole)/h with no division of
    polynomials; h is an integer pair (hn, hd), hn != 0, at a double root
    and None at other roots.  Raises NotSplitOverRationals."""
    den = int_poly(list(ints), d)
    second = den.derivative().derivative()
    out = []
    for pole, order in linear_factorization(den):
        p, q = pole.numerator, pole.denominator
        h = None
        if order == 2:
            hn, hd = second.at(p, q)
            h = (hn, 2 * hd)
        out.append((pole, order, str(pole), (p, q), h))
    return tuple(out)


def _lowest(n: int, d: int) -> Tuple[int, int]:
    """n/d (d != 0) in lowest terms, with d > 0."""
    g = math.gcd(n, d)
    if d < 0:
        g = -g
    return n // g, d // g


def _solve_monic_polynomial(d: int, D: Poly, DA: Poly, DB: Poly):
    """Monic P of degree d with L(P) = D P'' + (DA) P' + (DB) P = 0, the
    equation P'' + A P' + B P = 0 cleared of the denominator D.

    Returns ("unique", P), ("family", P0, 1) with P0 the member whose
    coefficient at the free index is 0, or ("none", None).

    As A and B vanish to orders 1 and 2 at infinity, L maps y^j to degree
    <= j + deg D - 2, with top coefficient lead(D) I(j), I the indicial
    polynomial at infinity.  So the system is triangular from the top: each
    p_j with I(j) != 0 is fixed by row k = j + deg D - 2.  I is quadratic
    with d a root, so at most one index below d has I = 0; its p is the one
    free constant, set to 0, and the rows that no p_j fixed decide it.
    (Should I(d) != 0, the top row d + deg D - 2 of L(P) is lead(D) I(d)
    whatever the lower p_j, and the answer is "none".)

    The system is banded: L(y^i) reaches only the rows i - 2 ... i + deg D
    - 2, so row k holds the columns j ... j + deg D, and

        p_j = -(sum over i = j+1 ... j + deg D of p_i L[k][i]) / L[k][j],

    with each p_j kept as a reduced integer pair and the band's entries
    computed from the integers of D, DA and DB.  The rows that no pivot
    fixes are evaluated once, at the end: the rows below deg D - 2 and the
    free row k + deg D - 2 of the free index k.  The free constant is fixed
    by the highest of them on which its own column L(P_k) is not zero, for
    P_k = y^k + lower terms, which is never the free row, and then every
    one of them must vanish; when there is none, the solutions form a
    family.  The answer depends only on the solutions, so any polynomial
    multiple of the operator gives the same one.
    """
    n = D.degree
    shift = n - 2
    den = math.lcm(D.den, DA.den, DB.den)
    # L[i + t - 2][i] = c2[t] i^2 + c1[t] i + c0[t] for t = 0 ... n: the
    # integers of i(i-1) D y^(i-2) + i DA y^(i-1) + DB y^i, padded to the band
    c2, c1, c0 = ([0] * (n + 1) for _ in range(3))
    for pad, part, out in ((0, D, c2), (1, DA, c1), (2, DB, c0)):
        scale = den // part.den
        for t, x in enumerate(part.ints[: max(0, n + 1 - pad)], pad):
            out[t] = x * scale
    for t in range(n + 1):
        c1[t] -= c2[t]

    def row(nums: List[int], dens: List[int], k: int) -> Tuple[int, int]:
        """Row k of L(sum p_i y^i) as an integer pair, not reduced."""
        lo, hi = max(0, k - shift), min(len(nums) - 1, k + 2)
        common = math.lcm(*dens[lo : hi + 1])
        total = 0
        for i in range(lo, hi + 1):
            if nums[i]:
                t = k - i + 2
                total += nums[i] * (common // dens[i]) * ((c2[t] * i + c1[t]) * i + c0[t])
        return total, common

    def descend(top: int):
        """The integer pairs of y^top + lower terms, as two lists, and the
        free index or None: each lower p_j clears row j + shift."""
        nums, dens = [0] * top + [1], [1] * (top + 1)
        free = None
        for j in range(top - 1, -1, -1):
            pivot = (c2[n] * j + c1[n]) * j + c0[n]
            if not pivot:
                free = j
                continue
            total, common = row(nums, dens, j + shift)
            if total:
                nums[j], dens[j] = _lowest(-total, common * pivot)
        return nums, dens, free

    def poly(nums: List[int], dens: List[int]) -> Poly:
        common = math.lcm(*dens)
        return int_poly([x * (common // q) for x, q in zip(nums, dens)], common)

    if (c2[n] * d + c1[n]) * d + c0[n]:
        return ("none", None)
    nums, dens, k = descend(d)
    # the rows no pivot fixed: those below deg D - 2 and the free row k + deg
    # D - 2, where L(P_k) is lead(D) I(k) = 0 (a row below 0 reads 0 in row())
    unfixed, fix = list(range(shift)), None
    if k is not None:
        unfixed.append(k + shift)
        knums, kdens, _ = descend(k)
        lk = {i: row(knums, kdens, i) for i in unfixed}
        fix = max((i for i in unfixed if lk[i][0]), default=None)
    if fix is None:
        if any(row(nums, dens, i)[0] for i in unfixed):
            return ("none", None)
        return ("unique", poly(nums, dens)) if k is None else ("family", poly(nums, dens), 1)
    # the highest row where L(P_k) is not zero fixes p_k = t
    r = {i: Q(*row(nums, dens, i)) for i in unfixed}
    t = -r[fix] / Q(*lk[fix])
    if any(r[i] + t * Q(*lk[i]) for i in unfixed):
        return ("none", None)
    return ("unique", poly(nums, dens) + poly(knums, kdens).scale(t))


def rational_solutions(e: RiccatiEq, degree_bound: int = 24) -> OracleResult:
    """All rational solutions of the Riccati equation, with certificate.

    Combos whose auxiliary polynomial would have degree above degree_bound
    are pruned, and then the result is not complete.  A complete search is
    exhaustive within the rational branch: an empty solution list means no
    rational solution exists.  A family counts as found: it is recorded in
    the certificate, only its members are not listed.

    Raises NonRationalPoles when a pole is not rational,
    UnsupportedAtInfinity when (1/2)R does not vanish to order >= 2 at
    infinity, TooManyCombos, before the enumeration, above MAX_COMBOS combos,
    and TooMuchSolveWork before the solve that would pass MAX_SOLVE_WORK.
    """
    r = e.half_R
    cert = SearchCertificate()

    # local data at the finite poles, on the integers of r and its poles
    local: List[Tuple] = []  # (pole, text, options) per pole
    if not r.is_zero and r.den.degree > 0:
        try:
            poles = _denominator_poles_of(r.den.ints, r.den.den)
        except NotSplitOverRationals as exc:
            raise NonRationalPoles(str(exc)) from exc
        for pole, order, text, (p, q), h in poles:
            if order > 2:
                cert.notes.append(
                    f"pole {text} of order {order} > 2: no rational solution can "
                    "cancel it (simple poles of u give order <= 2 in u' + u^2)"
                )
                cert.poles.append(PoleData(pole, order, Q(0), ()))
                return OracleResult((), cert)
            if h is None:
                n, d = 0, 1
            else:
                vn, vd = r.num.at(p, q)  # kappa = num(pole)/h
                n, d = _lowest(vn * h[1], vd * h[0])
            kappa, roots, options = _indicial_roots_of(n, d)
            cert.poles.append(PoleData(pole, order, kappa, roots or ()))
            if roots is None:
                cert.notes.append(
                    f"IrrationalLocalExponent at pole {text} (kappa = {kappa}): "
                    "no rational solution passes through this point"
                )
                return OracleResult((), cert)
            local.append((pole, text, options))

    # local data at infinity
    deg_inf = r.degree_at_infinity
    if deg_inf > -2:
        raise UnsupportedAtInfinity(
            f"(1/2)R has degree {deg_inf} at infinity; only coefficient "
            "functions vanishing to order >= 2 at infinity are supported"
        )
    if deg_inf == -2:  # the ratio of the two leading coefficients
        n, d = _lowest(r.num.ints[-1] * r.den.den, r.num.den * r.den.ints[-1])
    else:
        n, d = 0, 1
    cert.kappa_inf, roots, options_inf = _indicial_roots_of(n, d)
    if roots is None:
        cert.notes.append(
            f"IrrationalLocalExponent at infinity (kappa = {cert.kappa_inf}): "
            "no rational solution exists"
        )
        return OracleResult((), cert)
    cert.exponents_inf = roots
    count = math.prod(len(options) for _, _, options in local) * len(options_inf)
    if count > MAX_COMBOS:
        raise TooManyCombos(
            f"the oracle would try {count} exponent combos, above the limit {MAX_COMBOS}"
        )

    solutions: List[RatFunc] = []
    complete = True
    work = 0
    parts = None  # S, S/(y - c) per pole, S', S^2 and S^2 r: built at the first solve
    for choice, residues, text_inf, text_d, d in _exponent_combinations(local, options_inf):
        entry = {"residues": residues, "exponent_at_infinity": text_inf, "degree": text_d}
        cert.combos.append(entry)  # each branch below sets its "status"
        if d is None or d < 0:
            entry["status"] = "pruned: degree not a nonnegative integer"
            continue
        if d > degree_bound:
            entry["status"] = f"pruned: degree {d} exceeds bound {degree_bound}"
            complete = False
            continue
        work += (d + 1) ** 2
        if work > MAX_SOLVE_WORK:
            raise TooMuchSolveWork(
                f"the oracle's solves would reach work {work}, above the limit {MAX_SOLVE_WORK}"
            )
        if parts is None:
            parts = _operator_parts(r, [pole for pole, _, _ in local])
        S, cofactors, dS, S2, W = parts
        # theta = T/S; clearing S^2 from P'' + 2 theta P' + (theta' + theta^2 + r) P
        T = Poly.zero()
        for (_, ec), cofactor in zip(choice, cofactors):
            T = T + cofactor.scale(ec)
        outcome = _solve_monic_polynomial(
            d, S2, (T * S).scale(2), T.derivative() * S - T * dS + T * T + W
        )
        if outcome[0] == "none":
            entry["status"] = "no auxiliary polynomial"
        elif outcome[0] == "family":
            _, P0, dim = outcome
            theta = RatFunc(T, S)
            check_output_size("the family representative", P0, theta)
            entry["status"] = f"family with {dim} movable constant(s)"
            cert.families.append(
                f"u = theta + P'/P with theta = {theta}, deg P = {d}, "
                f"{dim} free parameter(s); representative P = {P0}"
            )
        else:
            u = _candidate(outcome[1], T, S, choice, cofactors)
            if u not in solutions:  # a known u was verified against this R
                if not e.residual(u).is_zero:
                    entry["status"] = "candidate failed exact substitution"
                    continue
                check_output_size("the solution", u)
                solutions.append(u)
            entry["status"] = f"solution u = {u}"
    return OracleResult(tuple(solutions), cert, complete)


def _candidate(P: Poly, T: Poly, S: Poly, choice: Tuple, cofactors: List[Poly]) -> RatFunc:
    """u = theta + P'/P for theta = T/S = sum of e_c/(y - c), reduced from
    its structure: each pole c that is a root of P of multiplicity m_c moves
    into the residue e_c + m_c, and the poles where that is 0 drop out.  For
    the cofactor P1 of P and S1, T1 over the poles that remain, u is
    (T1 P1 + S1 P1')/(S1 P1), already reduced when P1 is squarefree: at a
    remaining pole the numerator is (e_c + m_c) P1(c) times a nonzero
    product, and at a simple root of P1 it is S1 P1'."""
    ints, lift = list(P.ints), 1
    dropped = Poly.one()
    for (pole, e), cofactor in zip(choice, cofactors):
        p, q = pole.numerator, pole.denominator
        m = 0
        while (g := deflate(ints, p, q)) is not None:
            ints, m = g, m + 1
        if m:  # P = (y - c)^m * P1, with (q y - p)^m = q^m (y - c)^m
            lift *= q**m
            T = T + cofactor.scale(m)
        if e + m == 0:
            dropped = dropped * Poly.linear(pole)
    P1 = int_poly([x * lift for x in ints], P.den)
    T, S = T // dropped, S // dropped
    num, den = T * P1 + S * P1.derivative(), S * P1
    if num.is_zero:
        return RatFunc.zero()
    if P1.gcd(P1.derivative()).degree > 0:
        return RatFunc(num, den)
    return RatFunc._raw(num, den)


def _operator_parts(r: RatFunc, poles: List) -> Tuple:
    """(S, the cofactors S/(y - c), S', S^2, W = S^2 r) for S the product of
    y - c over the finite poles c of r.  Every pole of r has order <= 2, so
    W is a polynomial."""
    linears = [Poly.linear(c) for c in poles]
    S = math.prod(linears, start=Poly.one())
    S2 = S * S
    return S, [S // lin for lin in linears], S.derivative(), S2, r.num * (S2 // r.den)


def _exponent_combinations(local: List[Tuple], options_inf: Tuple):
    """One (choice, residue texts, text of e_inf, text of d, d) per choice of
    a residue at each pole and an exponent at infinity, in deterministic
    order, where d = e_inf - (sum of the chosen residues) is given as an int
    when it is an integer and as None otherwise.

    local holds (pole, pole text, options) per pole, and the options here
    and in options_inf are (exponent, text, numerator, denominator) as
    _indicial_roots_of gives them.  The sums run on integers over the
    common denominator of all exponents."""
    den = math.lcm(*(o[3] for _, _, opts in local for o in opts), *(o[3] for o in options_inf))
    prefixes: List[Tuple] = [((), (), 0)]  # (choice, residue texts, scaled sum)
    for pole, pole_text, options in local:
        steps = [((pole, e), (pole_text, text), n * (den // q)) for e, text, n, q in options]
        prefixes = [
            (choice + (c,), texts + (t,), total + m)
            for choice, texts, total in prefixes
            for c, t, m in steps
        ]
    steps_inf = [(text, n * (den // q)) for _, text, n, q in options_inf]
    out = []
    for choice, texts, total in prefixes:
        for text_inf, n_inf in steps_inf:
            n = n_inf - total
            g = math.gcd(n, den)
            num, d_den = n // g, den // g  # d = num/d_den in lowest terms
            if d_den == 1:
                out.append((choice, texts, text_inf, str(num), num))
            else:
                out.append((choice, texts, text_inf, f"{num}/{d_den}", None))
    return out


CONSISTENT = "CONSISTENT"
CONTRADICTION = "CONTRADICTION"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class ConsistencyReport:
    params: TriangleParams
    verdict: KimuraVerdict
    oracle: OracleResult
    status: str
    note: str


def cross_check(p: TriangleParams, degree_bound: int = 24) -> ConsistencyReport:
    """Run the table decision and the rational oracle and compare.

    A rational solution exists exactly when the monodromy is reducible, that
    is when Kimura's condition 2 fires (Beukers and Heckman 1989).
    CONTRADICTION means the oracle disagrees, as far as its search went;
    this must never happen.  INCONCLUSIVE means the oracle's search was cut
    by the degree bound, so it cannot confirm the table.
    """
    verdict = decide_condition_ric(p)
    oracle = rational_solutions(RiccatiEq(build_triangular_R(p)), degree_bound)
    # condition 2, read off the verdict: only a condition-1 witness hides it
    w = verdict.witness
    two_fires = w is not None and (isinstance(w, OddSumWitness) or condition_two(p) is not None)
    status = CONSISTENT
    if oracle.found and not two_fires:
        status = CONTRADICTION
        note = "table reports no algebraic solution" if verdict.holds else "condition 2 does not fire"
        note += " but a rational solution exists"
    elif not oracle.complete:
        status = INCONCLUSIVE
        note = (
            f"oracle search cut at degree bound {degree_bound}: combos of higher "
            "auxiliary degree were not searched"
        )
    elif two_fires and not oracle.found:
        status = CONTRADICTION
        note = "condition 2 fires but the complete search found no rational solution"
    elif not verdict.holds and not oracle.found:
        note = (
            "witness fired but no rational solution: an algebraic solution of "
            "degree >= 2 is possible (rational branch is exhaustive)"
        )
    elif not verdict.holds:
        note = "witness fired and a rational solution confirms it"
    else:
        note = "no witness and no rational solution"
    return ConsistencyReport(p, verdict, oracle, status, note)
