"""Decision procedure for algebraic solvability of the triangular Riccati
equation, via the classical 15-row classification table (Kimura) plus the
odd-integer-sum test.

The decision takes the parameter inverses x = (1/alpha, 1/beta, 1/gamma)
with 1/infinity = 0 and checks

  condition 1: some row of the table is matched by (eps_i * x_{sigma(i)})
               modulo Z, over all 6 slot permutations and 8 sign patterns,
               honoring the row's "l+m+n even" flag where present;
  condition 2: one of the four sums +-x0 + x1 + x2 (single sign flips) is
               an odd integer.

If neither fires over the exhaustive 15 x 6 x 8 = 720 assignment search and
the four sums, the Riccati equation has no algebraic solution over the
algebraic closure of C(y) ("condition Ric holds") and the Schwarzian
equation has no order-two differential subvarieties.

The decision runs on integer pairs: each x_i is the reduced pair (n, d)
of TriangleParams.pairs, its residue modulo Z is (n % d, d), and the sums
are taken over the lcm of the denominators.  Only verify_witness, the
independent replay, works on Fraction values.

Two gates on the reduced denominators d0, d1, d2 settle most triples before
any search:

  condition 1 is searched only when at least two d_i are denominators of
  the table's fractions (every row fixes two slots, and a slot holding q
  matches only an x with the denominator of q);
  condition 2 is tried only when each d_i divides the product of the other
  two.  If +-x0 + x1 + x2 = s is an integer, then +-x0 = s - x1 - x2 has a
  denominator dividing lcm(d1, d2), hence d1 * d2, and as n0/d0 is reduced,
  d0 divides d1 * d2; likewise for each index.  An infinite slot is (0, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations, product
from typing import Iterator, List, Optional, Tuple, Union

from .scalars import Q
from .schwarzian import TriangleParams

CONDITION_RIC_HOLDS = "ConditionRicHolds"
ALGEBRAIC_SOLUTION_INDICATED = "AlgebraicSolutionIndicated"


@dataclass(frozen=True)
class TableRow:
    """One row of the classification table.

    Each slot is a fraction q (the row matches values in q + Z) or None for
    an "arbitrary" slot.  parity=True adds the constraint that the recovered
    integers l, m, n sum to an even number.
    """

    index: int
    slots: Tuple[Optional[object], ...]
    parity: bool


def _row(index, fracs, parity):
    slots = tuple(None if f is None else Q(*f) for f in fracs)
    return TableRow(index, slots, parity)


# Schwarz's list (Schwarz 1873) as Kimura restates it: row 1 is the dihedral
# family, rows 2-3 tetrahedral, 4-5 octahedral and 6-15 icosahedral.
TABLE: Tuple[TableRow, ...] = (
    _row(1, ((1, 2), (1, 2), None), False),
    _row(2, ((1, 2), (1, 3), (1, 3)), False),
    _row(3, ((2, 3), (1, 3), (1, 3)), True),
    _row(4, ((1, 2), (1, 3), (1, 4)), False),
    _row(5, ((2, 3), (1, 4), (1, 4)), True),
    _row(6, ((1, 2), (1, 3), (1, 5)), False),
    _row(7, ((2, 5), (1, 3), (1, 3)), True),
    _row(8, ((2, 3), (1, 5), (1, 5)), True),
    _row(9, ((1, 2), (2, 5), (1, 5)), True),
    _row(10, ((3, 5), (1, 3), (1, 5)), True),
    _row(11, ((2, 5), (2, 5), (2, 5)), True),
    _row(12, ((2, 3), (1, 3), (1, 5)), True),
    _row(13, ((4, 5), (1, 5), (1, 5)), True),
    _row(14, ((1, 2), (2, 5), (1, 3)), True),
    _row(15, ((3, 5), (2, 5), (1, 3)), True),
)

_PERMS: Tuple[Tuple[int, int, int], ...] = tuple(permutations((0, 1, 2)))

# total assignments examined by the exhaustive condition-1 search: rows,
# slot permutations and sign patterns
ASSIGNMENT_COUNT = len(TABLE) * len(_PERMS) * 2**3


@dataclass(frozen=True)
class LatticeWitness:
    """Condition-1 witness: eps_i * x_{perm[i]} = slot fraction + integers[i]."""

    row: int
    permutation: Tuple[int, int, int]
    signs: Tuple[int, int, int]
    integers: Tuple[Optional[int], ...]  # None for an "arbitrary" slot

    condition = 1


@dataclass(frozen=True)
class OddSumWitness:
    """Condition-2 witness: sum of signs[i] * x_i is the odd integer value."""

    signs: Tuple[int, int, int]
    value: int

    condition = 2


KimuraWitness = Union[LatticeWitness, OddSumWitness]


@dataclass(frozen=True)
class KimuraVerdict:
    outcome: str  # CONDITION_RIC_HOLDS or ALGEBRAIC_SOLUTION_INDICATED
    witness: Optional[KimuraWitness] = None

    @property
    def holds(self) -> bool:
        return self.outcome == CONDITION_RIC_HOLDS


_TABLE_FRACTIONS = frozenset(q for row in TABLE for q in row.slots if q is not None)

# Every row fixes at least two slots, and a slot holding q matches only an
# x whose denominator is that of q: condition 1 needs two inverses with a
# denominator from this set (the gate in decide_condition_ric).
_TABLE_DENOMINATORS = frozenset(q.denominator for q in _TABLE_FRACTIONS)


def _residue(x) -> Tuple[int, int]:
    """x mod 1 as (numerator, denominator) integers; x = n/d in lowest terms."""
    d = x.denominator
    return (x.numerator % d, d)


# Per row: the row, the fractions it needs, and per slot (the numerator of
# its fraction q, the residue of x with x in q + Z, the residue of x with
# -x in q + Z), or None for an "arbitrary" slot.
_ROWS = tuple(
    (
        row,
        frozenset(q for q in row.slots if q is not None),
        tuple(None if q is None else (q.numerator, _residue(q), _residue(-q)) for q in row.slots),
    )
    for row in TABLE
)

# Row fractions q with +x or -x in q + Z, by the residue of x.  Precomputed
# over the table's fractions: a residue absent here matches no row.
_RESIDUE_MATCHES = {
    key: frozenset(q for q in _TABLE_FRACTIONS if key in (_residue(q), _residue(-q)))
    for key in {_residue(s * q) for q in _TABLE_FRACTIONS for s in (1, -1)}
}
_NO_MATCH: frozenset = frozenset()


def condition_one(p: TriangleParams) -> Optional[LatticeWitness]:
    """Exhaustive search of the table; first witness by (row, perm, signs).

    It runs on the inverse pairs (n, d), and a row is tried only if the
    residues (n % d, d) hit every fraction it needs.  A slot holding q
    matches sign * x exactly when x has the residue of sign * q, and then
    sign * x - q = (sign * n - num(q)) / d is an integer; the sign patterns
    run in itertools.product((1, -1)) order, restricted to the signs under
    which each slot matches.
    """
    (n0, d0), (n1, d1), (n2, d2) = pairs = p.pairs
    residues = ((n0 % d0, d0), (n1 % d1, d1), (n2 % d2, d2))
    get = _RESIDUE_MATCHES.get
    matched = get(residues[0], _NO_MATCH) | get(residues[1], _NO_MATCH) | get(residues[2], _NO_MATCH)
    if not matched:
        return None
    for row, needed, slots in _ROWS:
        if not needed <= matched:
            continue
        for perm in _PERMS:
            allowed = []  # per slot, the signs under which it matches
            for i, data in zip(perm, slots):
                if data is None:
                    allowed.append((1, -1))
                    continue
                _, plus, minus = data
                r = residues[i]
                if r == plus:
                    allowed.append((1, -1) if r == minus else (1,))
                elif r == minus:
                    allowed.append((-1,))
                else:
                    break
            else:
                for signs in product(*allowed):
                    integers: List[Optional[int]] = [
                        None if data is None else (sign * pairs[i][0] - data[0]) // pairs[i][1]
                        for sign, i, data in zip(signs, perm, slots)
                    ]
                    if row.parity and sum(k for k in integers if k is not None) % 2 != 0:
                        continue
                    return LatticeWitness(row.index, perm, signs, tuple(integers))
    return None


def condition_two(p: TriangleParams) -> Optional[OddSumWitness]:
    """First of the four single-flip sums +-x0 + x1 + x2 that is an odd
    integer, if any.

    Over the common denominator D of the inverse pairs (n, d), a sum is an
    odd integer exactly when its numerator is an odd multiple of D.  The
    sums run in the order (1, 1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, -1)."""
    (n0, d0), (n1, d1), (n2, d2) = p.pairs
    D = math.lcm(d0, d1, d2)
    n0, n1, n2 = n0 * (D // d0), n1 * (D // d1), n2 * (D // d2)
    D2 = 2 * D
    s = n0 + n1 + n2
    if s % D2 == D:
        return OddSumWitness((1, 1, 1), s // D)
    if (s - 2 * n0) % D2 == D:
        return OddSumWitness((-1, 1, 1), (s - 2 * n0) // D)
    if (s - 2 * n1) % D2 == D:
        return OddSumWitness((1, -1, 1), (s - 2 * n1) // D)
    if (s - 2 * n2) % D2 == D:
        return OddSumWitness((1, 1, -1), (s - 2 * n2) // D)
    return None


def verify_witness(p: TriangleParams, w: KimuraWitness) -> bool:
    """Independent replay of a witness, kept deliberately simple.

    Checks only elementary arithmetic facts: Z-membership of each matched
    slot, the parity constraint, or odd integrality of the named sum.
    """
    xs = p.inverses()
    if isinstance(w, OddSumWitness):
        s = sum(sign * x for sign, x in zip(w.signs, xs))
        return s == w.value and w.value % 2 != 0
    row = TABLE[w.row - 1]
    assert row.index == w.row
    total = 0
    for slot, q in enumerate(row.slots):
        if q is None:
            if w.integers[slot] is not None:
                return False
            continue
        k = w.integers[slot]
        if k is None:
            return False
        if w.signs[slot] * xs[w.permutation[slot]] != q + k:
            return False
        total += k
    if row.parity and total % 2 != 0:
        return False
    return True


_HOLDS = KimuraVerdict(CONDITION_RIC_HOLDS)


def decide_condition_ric(p: TriangleParams) -> KimuraVerdict:
    """Full decision: condition 1 first, then condition 2.

    CONDITION_RIC_HOLDS is returned only after the exhaustive search over
    all 720 table assignments and all four sums found nothing, or after a
    denominator gate (see the module docstring) showed that a search could
    find nothing.
    """
    (_, d0), (_, d1), (_, d2) = p.pairs
    dens = _TABLE_DENOMINATORS
    if (d0 in dens) + (d1 in dens) + (d2 in dens) >= 2:
        w = condition_one(p)
        if w is not None:
            return KimuraVerdict(ALGEBRAIC_SOLUTION_INDICATED, w)
    if d0 * d1 % d2 or d0 * d2 % d1 or d1 * d2 % d0:
        return _HOLDS
    w = condition_two(p)
    if w is None:
        return _HOLDS
    return KimuraVerdict(ALGEBRAIC_SOLUTION_INDICATED, w)


def hyperbolic_integer_triples(bound: int) -> Iterator[TriangleParams]:
    """All alpha <= beta <= gamma from {2..bound} u {inf} with
    1/alpha + 1/beta + 1/gamma < 1; infinity sorts last.

    The test runs on integers: for finite entries it is bc + ac + ab < abc,
    that is c * (ab - a - b) > ab, so for each a <= b the admissible c form
    a tail of the range, and c = inf is admissible when ab - a - b > 0.
    """
    zero = (0, 1)  # 1/inf; 1/n is (1, n)
    make = TriangleParams._from_pairs
    for a in range(2, bound + 1):
        ia = (1, a)
        for b in range(a, bound + 1):
            ib = (1, b)
            s = a * b - a - b
            if s <= 0:  # 1/a + 1/b >= 1: no c, not even inf
                continue
            for c in range(max(b, a * b // s + 1), bound + 1):
                yield make((ia, ib, (1, c)))
            yield make((ia, ib, zero))
        yield make((ia, zero, zero))
    yield make((zero, zero, zero))
