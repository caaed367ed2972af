"""Classification-table decision procedure and witnesses."""

import itertools
import math
import random

import triform.kimura as kimura
from triform.kimura import (
    ALGEBRAIC_SOLUTION_INDICATED,
    ASSIGNMENT_COUNT,
    CONDITION_RIC_HOLDS,
    LatticeWitness,
    OddSumWitness,
    TABLE,
    condition_one,
    condition_two,
    _RESIDUE_MATCHES,
    _TABLE_FRACTIONS,
    _residue,
    decide_condition_ric,
    hyperbolic_integer_triples,
    verify_witness,
)
from triform.scalars import INF, ExtRational, Q
from triform.schwarzian import TriangleParams

from reference import has_algebraic_solution

P = TriangleParams.parse


class TestTableContent:
    def test_fifteen_rows_in_order(self):
        assert len(TABLE) == 15
        assert [row.index for row in TABLE] == list(range(1, 16))

    def test_fractions_verbatim(self):
        # Schwarz's list as Kimura restates it; the independent check of
        # these rows is TestAgainstMonodromy (Beukers-Heckman)
        expected = {
            1: ((1, 2), (1, 2), None),
            2: ((1, 2), (1, 3), (1, 3)),
            3: ((2, 3), (1, 3), (1, 3)),
            4: ((1, 2), (1, 3), (1, 4)),
            5: ((2, 3), (1, 4), (1, 4)),
            6: ((1, 2), (1, 3), (1, 5)),
            7: ((2, 5), (1, 3), (1, 3)),
            8: ((2, 3), (1, 5), (1, 5)),
            9: ((1, 2), (2, 5), (1, 5)),
            10: ((3, 5), (1, 3), (1, 5)),
            11: ((2, 5), (2, 5), (2, 5)),
            12: ((2, 3), (1, 3), (1, 5)),
            13: ((4, 5), (1, 5), (1, 5)),
            14: ((1, 2), (2, 5), (1, 3)),
            15: ((3, 5), (2, 5), (1, 3)),
        }
        for row in TABLE:
            want = tuple(None if f is None else Q(*f) for f in expected[row.index])
            assert row.slots == want

    def test_parity_flags(self):
        with_parity = {3, 5, 7, 8, 9, 10, 11, 12, 13, 14, 15}
        for row in TABLE:
            assert row.parity == (row.index in with_parity)

    def test_assignment_count(self):
        assert ASSIGNMENT_COUNT == 720


class TestWitnessExamples:
    def test_2_2_2_matches_lowest_row(self):
        # row 1, with the third slot arbitrary
        w = condition_one(P("2,2,2"))
        assert isinstance(w, LatticeWitness)
        assert w.row == 1
        assert w.integers[2] is None  # arbitrary slot

    def test_2_2_17_row_one(self):
        w = condition_one(P("2,2,17"))
        assert w is not None and w.row == 1
        assert verify_witness(P("2,2,17"), w)

    def test_2_3_4_row_four(self):
        w = condition_one(P("2,3,4"))
        assert w is not None and w.row == 4
        assert w.integers == (0, 0, 0)

    def test_2_3_3_row_two(self):
        # the tetrahedral triangle: finite monodromy
        w = condition_one(P("2,3,3"))
        assert w is not None and w.row == 2
        assert w.integers == (0, 0, 0)

    def test_3_2_3_3_row_three(self):
        p = P("3/2,3,3")
        w = condition_one(p)
        assert w is not None and w.row == 3
        assert verify_witness(p, w)

    def test_3_2_3_4_holds(self):
        # exponent differences (2/3, 1/3, 1/4) are not on Schwarz's list
        v = decide_condition_ric(P("3/2,3,4"))
        assert v.holds and v.witness is None

    def test_2_3_5_row_six(self):
        w = condition_one(P("2,3,5"))
        assert w is not None and w.row == 6

    def test_5_2_3_3_row_seven(self):
        p = P("5/2,3,3")
        w = condition_one(p)
        assert w is not None and w.row == 7
        assert verify_witness(p, w)

    def test_odd_sum_cases(self):
        for text, value in (("1,1,1", 3), ("1,inf,inf", 1)):
            p = P(text)
            assert condition_one(p) is None
            w = condition_two(p)
            assert isinstance(w, OddSumWitness)
            assert w.value == value
            assert verify_witness(p, w)

    def test_holds_cases(self):
        for text in ("2,3,7", "inf,inf,inf", "2,4,5", "3,3,4"):
            v = decide_condition_ric(P(text))
            assert v.outcome == CONDITION_RIC_HOLDS
            assert v.holds and v.witness is None


class TestDecision:
    def test_condition_one_priority(self):
        # (2,2,2) fires both conditions; condition 1 is reported
        v = decide_condition_ric(P("2,2,2"))
        assert v.outcome == ALGEBRAIC_SOLUTION_INDICATED
        assert v.witness.condition == 1

    def test_symmetry_under_permutation(self):
        # the outcome tag is invariant under reordering the parameters
        base = ("2,3,7", "2,3,4", "2,2,5", "1,1,1", "5/2,3,3")
        import itertools

        for text in base:
            parts = text.split(",")
            outcomes = set()
            for perm in itertools.permutations(parts):
                outcomes.add(decide_condition_ric(P(",".join(perm))).outcome)
            assert len(outcomes) == 1

    def test_symmetry_under_negation(self):
        # parameters enter only through +-1/alpha mod Z and sums with sign
        # flips, so negating a slot cannot change the outcome
        for text, flipped in (("2,3,7", "-2,3,7"), ("2,3,4", "2,-3,4"),
                              ("5/2,3,3", "-5/2,3,3"), ("1,1,1", "1,-1,1")):
            a = decide_condition_ric(P(text)).outcome
            b = decide_condition_ric(P(flipped)).outcome
            assert a == b


class TestVerifyWitness:
    def test_rejects_tampered_lattice_witness(self):
        p = P("2,3,4")
        w = condition_one(p)
        bad = LatticeWitness(w.row, w.permutation, w.signs, (1, 0, 0))
        assert not verify_witness(p, bad)

    def test_rejects_tampered_odd_sum(self):
        p = P("1,1,1")
        w = condition_two(p)
        assert not verify_witness(p, OddSumWitness(w.signs, w.value + 2))

    def test_rejects_witness_for_wrong_params(self):
        w = condition_one(P("2,3,4"))
        assert not verify_witness(P("2,3,7"), w)


class TestSweep:
    def test_enumeration_shape(self):
        triples = list(hyperbolic_integer_triples(7))
        assert all(p.is_hyperbolic for p in triples)
        slots = [s for p in triples for s in (p.alpha, p.beta, p.gamma)]
        assert all(s.is_infinite or (s.value.denominator == 1 and s.value >= 2) for s in slots)
        texts = {str(p) for p in triples}
        assert "(2,3,7)" in texts
        assert "(2,3,6)" not in texts  # parabolic
        assert "(inf,inf,inf)" in texts


def random_slot(rng: random.Random) -> ExtRational:
    """inf, or a nonzero rational of either sign, often with a table
    denominator (2..5) in its inverse."""
    if rng.random() < 0.15:
        return INF
    sign = rng.choice((1, -1))
    return ExtRational(Q(sign * rng.randint(1, 12), rng.randint(1, 12)))


def random_triples(seed: int, n: int):
    rng = random.Random(seed)
    return [TriangleParams(*(random_slot(rng) for _ in range(3))) for _ in range(n)]


def reference_condition_one(p):
    """The 720-assignment search in plain Fraction arithmetic."""
    xs = p.inverses()
    for row in TABLE:
        for perm in itertools.permutations((0, 1, 2)):
            for signs in itertools.product((1, -1), repeat=3):
                integers = []
                for slot, q in enumerate(row.slots):
                    if q is None:
                        integers.append(None)
                        continue
                    v = signs[slot] * xs[perm[slot]] - q
                    if v.denominator != 1:
                        break
                    integers.append(int(v))
                else:
                    if row.parity and sum(k for k in integers if k is not None) % 2:
                        continue
                    return LatticeWitness(row.index, perm, signs, tuple(integers))
    return None


def reference_condition_two(p):
    """The four single-flip sums in plain Fraction arithmetic."""
    x0, x1, x2 = p.inverses()
    for signs in ((1, 1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, -1)):
        s = signs[0] * x0 + signs[1] * x1 + signs[2] * x2
        if s.denominator == 1 and s.numerator % 2:
            return OddSumWitness(signs, int(s))
    return None


class TestAgainstMonodromy:
    def test_decision_matches_beukers_heckman(self):
        """The table and the odd sum against the monodromy criterion, on
        inverses near the table's fractions and on random ones."""
        rng = random.Random(1601)
        near = sorted({Q(n, d) for d in range(1, 7) for n in range(d)})

        def inverse():
            r = rng.random()
            if r < 0.1:
                return Q(0)  # inf
            sign = rng.choice((1, -1))
            if r < 0.75:  # a table fraction, or a neighbour, plus an integer
                return sign * (rng.randint(0, 3) + rng.choice(near))
            return Q(sign * rng.randint(1, 120), rng.randint(1, 60))

        rows = set()
        for _ in range(20000):
            xs = (inverse(), inverse(), inverse())
            p = TriangleParams(*(INF if x == 0 else ExtRational(1 / x) for x in xs))
            got = decide_condition_ric(p)
            assert (not got.holds) == has_algebraic_solution(*xs), str(p)
            if got.witness is not None and got.witness.condition == 1:
                rows.add(got.witness.row)
        assert rows == set(range(1, 16))


class TestIntegerKernel:
    """The decision runs on residues and integers; each check below compares
    it with the definition in Fraction arithmetic."""

    def test_enumeration_matches_rational_filter(self):
        for bound in (2, 3, 6, 7, 13, 20):
            values = [ExtRational.of(n) for n in range(2, bound + 1)] + [INF]
            want = [
                TriangleParams(*combo)
                for combo in itertools.combinations_with_replacement(values, 3)
                if sum(TriangleParams(*combo).inverses()) < 1
            ]
            got = list(hyperbolic_integer_triples(bound))
            assert got == want
            # the inverses the enumeration hands over are the computed ones
            for p in got:
                fresh = TriangleParams(p.alpha, p.beta, p.gamma)
                assert p.inverses() == fresh.inverses()
                assert p.pairs == fresh.pairs

    def test_odd_sum_matches_fraction_sums(self):
        fired = 0
        for p in random_triples(4401, 3000):
            want = reference_condition_two(p)
            assert condition_two(p) == want, str(p)
            fired += want is not None
        assert fired > 50

    def test_residue_matcher_matches_fraction_search(self):
        fired = 0
        for p in random_triples(4402, 3000):
            want = reference_condition_one(p)
            assert condition_one(p) == want, str(p)
            fired += want is not None
        assert fired > 50

    def test_frac_matches_table(self):
        rng = random.Random(4403)
        xs = [Q(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(2000)]
        for x in xs + sorted(_TABLE_FRACTIONS):
            want = frozenset(f for f in (x % 1, (-x) % 1) if f in _TABLE_FRACTIONS)
            assert _RESIDUE_MATCHES.get(_residue(x), frozenset()) == want, x

    # the condition-1 prefilter's edges: one table denominator among the
    # inverses, exactly two, and a residue reached through a numerator 2;
    # then the condition-2 gate's: triples whose denominators each divide
    # the product of the other two and that fire condition 2 (2,3,6 through
    # 1/2 + 1/3 + 1/6 = 1, -2,3,6 through signs (-1, 1, 1)), one whose sums
    # reach only an even integer (-1/4 + 1/6 + 1/12 = 0), and 2,2,inf, which
    # passes both gates and must report row 1 before its odd sum
    PREFILTER_EDGES = ("2,7,7", "2,3,7", "2,3,4", "2,2,9", "2,2,-9", "5/2,3,3", "5/2,7,7",
                       "-5/2,5/3,inf", "2,inf,inf", "4/3,4,inf", "1/2,1/3,1/5",
                       "2,3,6", "2,4,4", "1,1,1", "-2,3,6", "3/2,3,inf", "4,6,12", "2,2,inf")

    def test_decision_matches_fraction_reference(self):
        """decide_condition_ric on integer pairs against the Fraction
        definitions, by outcome and witness."""
        rng = random.Random(4404)

        def slot():
            r = rng.random()
            if r < 0.1:
                return INF
            sign = rng.choice((1, -1))
            if r < 0.3:  # 30-digit numerator and denominator
                return ExtRational(Q(sign * rng.randint(1, 10**30), rng.randint(1, 10**30)))
            if r < 0.45:  # an inverse with a 30-digit numerator over a table denominator
                return ExtRational(Q(sign * rng.randint(2, 5), rng.randint(1, 10**30)))
            return ExtRational(Q(sign * rng.randint(1, 12), rng.randint(1, 12)))

        triples = [TriangleParams(slot(), slot(), slot()) for _ in range(3000)]
        triples += [P(text) for text in self.PREFILTER_EDGES]
        fired = 0
        for p in triples:
            # the references read inverses(), the view of the pairs: check it
            slots = (p.alpha, p.beta, p.gamma)
            assert p.inverses() == tuple(Q(0) if s.is_infinite else 1 / s.value for s in slots)
            want = reference_condition_one(p) or reference_condition_two(p)
            got = decide_condition_ric(p)
            assert got.witness == want, str(p)
            assert got.outcome == (CONDITION_RIC_HOLDS if want is None else ALGEBRAIC_SOLUTION_INDICATED)
            fired += want is not None
        assert fired > 100

    def test_decision_builds_no_fractions(self, monkeypatch):
        def no_fractions(self):
            raise AssertionError("TriangleParams.inverses was called")

        firing = [P(text) for text in ("2,3,4", "2,2,2", "1,1,1", "5/2,3,3")]
        monkeypatch.setattr(TriangleParams, "inverses", no_fractions)
        holds = [decide_condition_ric(p).holds for p in hyperbolic_integer_triples(30)]
        assert len(holds) == 4924 and all(holds)
        assert not any(decide_condition_ric(p).holds for p in firing)

    def test_searches_run_only_past_their_gates(self, monkeypatch):
        """Each search is called only for the triples whose denominators pass
        its gate, counted here from the integer entries: condition 1 needs two
        table denominators, condition 2 each denominator dividing the product
        of the other two (1/inf has denominator 1)."""
        calls = {"one": 0, "two": 0}

        def counting(name, search):
            def wrapper(p):
                calls[name] += 1
                return search(p)
            return wrapper

        monkeypatch.setattr(kimura, "condition_one", counting("one", kimura.condition_one))
        monkeypatch.setattr(kimura, "condition_two", counting("two", kimura.condition_two))
        triples = list(hyperbolic_integer_triples(30))
        assert all(decide_condition_ric(p).holds for p in triples)

        table_dens = {q.denominator for row in TABLE for q in row.slots if q is not None}
        gate_one = gate_two = 0
        for p in triples:
            dens = [1 if s.is_infinite else int(s.value) for s in (p.alpha, p.beta, p.gamma)]
            gate_one += sum(d in table_dens for d in dens) >= 2
            gate_two += all(math.prod(dens) // d % d == 0 for d in dens)
        assert calls == {"one": gate_one, "two": gate_two}
        assert 0 < gate_one < len(triples) and 0 < gate_two < len(triples)
