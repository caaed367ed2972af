"""Command-line interface: verbs, JSON shape, exit codes."""

import dataclasses
import hashlib
import io
import json
import pathlib
import re
import shlex
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import triform
import triform.cli as cli
import triform.kimura as kimura
import triform.riccati as riccati
from triform.cli import main
from triform.parser import (
    MAX_DEPTH,
    MAX_NESTING,
    DivisionByZeroConstant,
    ExpressionTooLarge,
    ExprSyntaxError,
)
from triform.polynomials import NotSplitOverRationals, OutputTooLarge, Poly, RatFunc
from triform.puiseux import ZeroLeadingCoefficient
from triform.scalars import Q, ZeroParameter
from triform.schwarzian import NotTriangular, SingularMoebius, TriangleParams

DATA = pathlib.Path(__file__).parent / "data"

FIELD_ORDER = [
    "input",
    "normalized",
    "triangular",
    "hyperbolic",
    "kimura",
    "oracle",
    "conclusion",
    "citations",
]


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def run_json(argv):
    code, text = run(argv + ["--json"])
    return code, json.loads(text)


class TestAnalyze:
    def test_holds_case(self):
        code, doc = run_json(["analyze", "--triangle", "2,3,7"])
        assert code == 0
        assert doc["conclusion"] == "NoOrderTwoSubvarieties"
        assert doc["kimura"]["outcome"] == "ConditionRicHolds"
        assert doc["hyperbolic"] is True
        assert doc["triangular"]["recognized"] is True

    def test_field_order_fixed(self):
        _, doc = run_json(["analyze", "--triangle", "2,3,7"])
        assert list(doc.keys()) == FIELD_ORDER

    def test_witness_case(self):
        code, doc = run_json(["analyze", "--triangle", "2,2,2"])
        assert code == 0
        assert doc["conclusion"] == "AlgebraicSolutionIndicated"
        w = doc["kimura"]["witness"]
        assert w["condition"] == 1 and w["row"] == 1

    def test_odd_sum_witness(self):
        _, doc = run_json(["analyze", "--triangle", "1,inf,inf"])
        w = doc["kimura"]["witness"]
        assert w["condition"] == 2 and w["value"] == 1

    def test_expr_input(self):
        # 1/(2 y^2 (y-1)^2) is the (1, inf, inf) coefficient function
        code, doc = run_json(["analyze", "--expr", "1/(2*y^2*(y - 1)^2)"])
        assert code == 0
        assert doc["triangular"]["recognized"] is True
        assert doc["triangular"]["params_up_to_sign"] == ["1", "inf", "inf"]
        assert doc["conclusion"] == "AlgebraicSolutionIndicated"

    def test_not_triangular_expr(self):
        code, doc = run_json(["analyze", "--expr", "1/(y - 2)^2"])
        assert code == 0
        assert doc["conclusion"] == "NotTriangular"
        assert doc["kimura"] is None and doc["oracle"] is None

    def test_moebius_identity_pullback(self):
        _, plain = run_json(["analyze", "--triangle", "2,3,7"])
        _, pulled = run_json(
            ["analyze", "--triangle", "2,3,7", "--moebius", "1,0,0,1"]
        )
        assert pulled["conclusion"] == plain["conclusion"]
        assert pulled["normalized"] == plain["normalized"]

    def test_oracle_flag_cross_checks(self):
        code, doc = run_json(["analyze", "--triangle", "1,inf,inf", "--oracle"])
        assert code == 0
        assert doc["oracle"]["consistency"] == "CONSISTENT"
        assert len(doc["oracle"]["solutions"]) == 1

    def test_bad_triangle_exits_2(self):
        code, _ = run(["analyze", "--triangle", "0,2,3"])
        assert code == 2

    def test_bad_expr_exits_2(self):
        code, _ = run(["analyze", "--expr", "y^-1"])
        assert code == 2

    def test_missing_input_exits_2(self):
        code, _ = run(["analyze"])
        assert code == 2

    FIRES = (
        "witness fired but no rational solution: an algebraic solution of "
        "degree >= 2 is possible (rational branch is exhaustive)"
    )
    NONE = "no witness and no rational solution"

    @pytest.mark.parametrize(
        "triangle, row, conclusion, note",
        [
            # exponent differences (1/2, 1/3, 1/3) and (2/3, 1/3, 1/3): Schwarz's
            # rows 2 and 3, finite monodromy
            ("2,3,3", 2, "AlgebraicSolutionIndicated", FIRES),
            ("3/2,3,3", 3, "AlgebraicSolutionIndicated", FIRES),
            # (2/3, 1/3, 1/4) is on no row: irreducible, infinite monodromy
            ("3/2,3,4", None, "NoOrderTwoSubvarieties", NONE),
        ],
    )
    def test_schwarz_rows_two_and_three(self, triangle, row, conclusion, note):
        argv = ["analyze", "--triangle", triangle, "--oracle"]
        code, doc = run_json(argv)
        assert code == 0 and doc["conclusion"] == conclusion
        witness = None if row is None else {
            "condition": 1,
            "row": row,
            "permutation": [0, 1, 2],
            "signs": [1, 1, 1],
            "integers": [0, 0, 0],
        }
        outcome = "ConditionRicHolds" if row is None else conclusion
        assert doc["kimura"] == {"outcome": outcome, "witness": witness}
        assert doc["oracle"]["solutions"] == [] and doc["oracle"]["consistency"] == "CONSISTENT"
        assert doc["oracle"]["note"] == note
        code, text = run(argv)
        lines = text.splitlines()
        assert code == 0 and f"conclusion:  {conclusion}" in lines
        assert f"kimura:      {outcome}" in lines
        assert (f"witness:     {witness}" in lines) == (row is not None)
        assert f"consistency: CONSISTENT ({note})" in lines

    def test_contradiction_exits_3(self, monkeypatch):
        real = riccati.cross_check(TriangleParams.parse("1,inf,inf"))
        fake = dataclasses.replace(real, status=riccati.CONTRADICTION)
        monkeypatch.setattr(riccati, "cross_check", lambda p, degree_bound=24: fake)
        code, doc = run_json(["analyze", "--triangle", "1,inf,inf", "--oracle"])
        assert code == 3
        assert doc["oracle"]["consistency"] == "CONTRADICTION"

    FIRES_NONE = "condition 2 fires but the complete search found no rational solution"

    @pytest.mark.parametrize(
        "triangle, note",
        [
            # condition 2 fires, on 2,2,inf behind a condition-1 witness: the
            # mutant oracle drops the one rational solution of the triangle
            ("2,3,6", FIRES_NONE),
            ("2,2,inf", FIRES_NONE),
            # condition 2 does not fire: the mutant oracle adds u = 0
            ("2,3,4", "condition 2 does not fire but a rational solution exists"),
            ("2,3,7", "table reports no algebraic solution but a rational solution exists"),
        ],
    )
    def test_oracle_against_condition_two_exits_3(self, monkeypatch, triangle, note):
        real = riccati.rational_solutions

        def mutant(e, degree_bound=24):
            result = real(e, degree_bound)
            assert result.complete and len(result.solutions) <= 1
            solutions = () if result.found else (RatFunc.zero(),)
            return dataclasses.replace(result, solutions=solutions)

        monkeypatch.setattr(riccati, "rational_solutions", mutant)
        code, doc = run_json(["analyze", "--triangle", triangle, "--oracle"])
        assert code == 3
        assert doc["oracle"]["consistency"] == "CONTRADICTION" and doc["oracle"]["note"] == note


NO_MOEBIUS_WITHOUT_R = "--moebius needs --triangle or --expr"
EMPTY_MOEBIUS = "bad --moebius value: expected four comma-separated entries, got ''"
EMPTY_OUT = "bad --out value: [Errno 2] No such file or directory: ''"  # as open("") words it


class TestRefused:
    """Exit 2 is exactly a triform.Refused, raised by the layer that rejects
    the input; any other error is a bug and propagates."""

    def test_every_refusal_is_a_refused(self):
        refusals = [
            ZeroParameter, ExprSyntaxError, ExpressionTooLarge, DivisionByZeroConstant,
            OutputTooLarge, riccati.NonRationalPoles, riccati.UnsupportedAtInfinity,
            riccati.TooManyCombos, riccati.TooMuchSolveWork, SingularMoebius,
            ZeroLeadingCoefficient,
        ]
        assert all(issubclass(c, triform.Refused) for c in refusals)
        assert issubclass(DivisionByZeroConstant, ZeroDivisionError)
        # a verdict, and an error the oracle converts, are not refusals
        assert not issubclass(NotTriangular, triform.Refused)
        assert not issubclass(NotSplitOverRationals, triform.Refused)

    def test_bare_value_error_propagates(self, monkeypatch):
        def boom(text):
            raise ValueError("boom")

        monkeypatch.setattr(cli, "parse_ratfunc", boom)
        with pytest.raises(ValueError, match="^boom$"):
            main(["analyze", "--expr", "y"], out=io.StringIO())

    @pytest.mark.parametrize(
        "argv, message",
        [
            # underscores int() refuses fall through to Fraction's own message
            (["series-check", "--lambda0=e_32"], "Invalid literal for Fraction: 'e_32'"),
            (["analyze", "--triangle=2,3,7e_1"], "Invalid literal for Fraction: '7e_1'"),
            (
                ["series-check", "--lambda0=1e999999"],
                "exponent in '1e999999' is above the limit 1000",
            ),
            (
                ["series-check", "--lambda0=1e1_000_000"],
                "exponent in '1e1_000_000' is above the limit 1000",
            ),
        ],
    )
    def test_number_text_refused(self, argv, message, capsys):
        code, text = run(argv)
        assert code == 2 and text == ""
        option = argv[1].split("=")[0]
        assert capsys.readouterr().err == f"error: bad {option} value: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--bound=--"],
            ["analyze", "--triangle", "2,3,7", "--degree-bound=--"],
            ["analyze", "--triangle=--"],
            ["analyze", "--triangle", "2,3,7", "--out=--"],
            ["oracle", "--expr=--"],
        ],
    )
    def test_double_dash_value_refused(self, argv, capsys, tmp_path, monkeypatch):
        # argparse reads --opt=-- as the empty list [], which no verb may see
        monkeypatch.chdir(tmp_path)
        code, text = run(argv)
        option = argv[-1].split("=")[0]
        assert code == 2 and text == "" and list(tmp_path.iterdir()) == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad {option} value: '--' is not a value\n"

    @pytest.mark.parametrize("verb", ["analyze", "oracle", "series-check"])
    def test_triangle_and_expr_together_refused(self, verb, capsys):
        # each would otherwise answer about the triangle and drop the expression
        code, text = run([verb, "--triangle", "2,3,7", "--expr", "y"])
        assert code == 2 and text == ""
        assert capsys.readouterr().err == "error: only one of --triangle or --expr may be given\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["series-check", "--lambda0", "1", "--moebius", "garbage"], NO_MOEBIUS_WITHOUT_R),
            (["series-check", "--lambda0", "0", "--moebius", "1,0,0,0", "--json"], NO_MOEBIUS_WITHOUT_R),
            (["analyze", "--triangle", "2,3,7", "--moebius="], EMPTY_MOEBIUS),
            (["oracle", "--triangle", "2,3,7", "--moebius", ""], EMPTY_MOEBIUS),
            (["series-check", "--triangle", "2,3,7", "--moebius="], EMPTY_MOEBIUS),
            (["analyze", "--triangle", "2,3,7", "--out", ""], EMPTY_OUT),
        ],
        ids=[
            "series-check-moebius-garbage", "series-check-moebius-singular", "analyze-moebius-empty",
            "oracle-moebius-empty", "series-check-moebius-empty", "analyze-out-empty",
        ],
    )
    def test_given_value_is_not_ignored(self, argv, message, capsys, tmp_path, monkeypatch):
        # each exited 0 without reading --moebius, or wrote to stdout for --out ""
        monkeypatch.chdir(tmp_path)
        code, text = run(argv)
        assert code == 2 and text == "" and list(tmp_path.iterdir()) == []
        assert capsys.readouterr().err == f"error: {message}\n"


class TestInputChecks:
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--triangle", "1,inf,inf", "--oracle"],
            ["sweep", "--bound", "5"],
            ["series-check", "--triangle", "1,inf,inf"],
            ["oracle", "--triangle", "1,inf,inf"],
        ],
    )
    def test_negative_degree_bound_exits_2(self, argv, capsys):
        # with a negative bound the oracle would skip every combo and call
        # its search exhaustive, though u = (y - 1/2)/(y^2 - y) solves 1,inf,inf
        code, text = run(argv + ["--degree-bound", "-5"])
        assert code == 2 and text == ""
        assert "--degree-bound" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--triangle", "1/0,2,3"],
            ["analyze", "--triangle", "1e5000,2,3"],
            ["analyze", "--triangle", "2,3,7", "--moebius", "1e-2000,0,0,1"],
            ["series-check", "--lambda0", "1/0"],
            ["series-check", "--triangle", "2,3,7", "--a0", "y-y"],
            ["analyze", "--expr", "1" * 5000],
            ["analyze", "--expr", "y^" + "1" * 5000],
            ["series-check", "--lambda0", "1e" + "1" * 5000],
            ["series-check", "--lambda0", "1" * 5000],
        ],
    )
    def test_bad_number_exits_2(self, argv, capsys):
        # Fraction("1/0") raises ZeroDivisionError and Fraction("1e5000")
        # builds 10**5000; a zero a0 is no leading term; int() raises
        # ValueError past 4300 digits
        code, text = run(argv)
        assert code == 2 and text == ""
        assert capsys.readouterr().err.startswith("error: bad --")

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    @pytest.mark.parametrize("expr, offset", [("y²", 1), ("1/(y²+1)", 4), ("²", 0)])
    def test_superscript_digit_exits_2(self, expr, offset, json_flag, capsys):
        # '²' passes str.isdigit and str.isalnum but int() refuses it: it
        # must end a name, not be read as part of one, and never reach int()
        code, text = run(["analyze", "--expr", expr, *json_flag])
        assert code == 2 and text == ""
        assert capsys.readouterr().err == (
            f"error: bad --expr value: at offset {offset}: "
            "expected a digit or a name or an operator, found '²'\n"
        )

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    @pytest.mark.parametrize(
        "argv, target",
        [
            (["sweep", "--bound", "3"], "missing/x.json"),  # FileNotFoundError
            (["analyze", "--triangle", "2,3,7"], "."),  # IsADirectoryError
        ],
    )
    def test_unwritable_out_exits_2(self, argv, target, json_flag, tmp_path, capsys):
        code, text = run(argv + ["--out", str(tmp_path / target), *json_flag])
        assert code == 2 and text == ""
        assert capsys.readouterr().err.startswith("error: bad --out value: [Errno ")

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    @pytest.mark.parametrize(
        "target, message",
        [
            ("missing/x.json", "[Errno 2] No such file or directory"),
            (".", "[Errno 21] Is a directory"),
            ("file/x.json", "[Errno 20] Not a directory"),
            ("file/missing/x.json", "[Errno 20] Not a directory"),
        ],
    )
    def test_out_is_checked_before_the_work(
        self, target, message, json_flag, tmp_path, monkeypatch, capsys
    ):
        def never(*args, **kwargs):
            raise AssertionError("the work ran")

        monkeypatch.setattr(riccati, "cross_check", never)
        monkeypatch.setattr(kimura, "hyperbolic_integer_triples", never)
        (tmp_path / "file").write_text("kept\n")
        path = tmp_path / target
        code, text = run(["sweep", "--bound", "100", "--cross-check", "--out", str(path), *json_flag])
        assert code == 2 and text == ""
        assert capsys.readouterr().err == f"error: bad --out value: {message}: '{path}'\n"
        # the same text as open() gives, and nothing created or truncated
        with pytest.raises(OSError) as exc:
            open(path, "w", encoding="utf-8")
        assert str(exc.value) == f"{message}: '{path}'"
        assert [p.name for p in tmp_path.iterdir()] == ["file"]
        assert (tmp_path / "file").read_text() == "kept\n"

    def test_out_check_truncates_nothing(self, tmp_path, capsys):
        target = tmp_path / "kept.txt"
        target.write_text("kept\n")
        code, text = run(["sweep", "--bound", "1", "--out", str(target)])
        assert code == 2 and text == ""
        assert capsys.readouterr().err == "error: bad --bound value: bound must be at least 2\n"
        assert target.read_text() == "kept\n"

    @pytest.mark.parametrize(
        "expr, normalized", [("y1+1", "y + 1"), ("١/(y+١)^2", "1/(y^2 + 2*y + 1)")]
    )
    def test_decimal_digits_in_names_and_numbers_parse(self, expr, normalized):
        code, text = run(["analyze", "--expr", expr])
        assert code == 0 and f"R(y)       = {normalized}\n" in text
        code, doc = run_json(["analyze", "--expr", expr])
        assert code == 0 and doc["normalized"] == normalized

    def test_series_check_of_zero_skips_the_zero_solution(self):
        # R = 0: the oracle's first solution is u = 0, which gives no a0
        code, doc = run_json(["series-check", "--lambda0", "0"])
        assert code == 0
        assert doc["series"]["a0"] is None

    @pytest.mark.parametrize(
        "expr", ["(y+1)^3000", "((y+1)^60)^60", "2^20000", "(y+1)^999*(y+1)^999"]
    )
    def test_oversized_expr_exits_2_fast(self, expr, capsys):
        start = time.perf_counter()
        code, _ = run(["analyze", "--expr", expr])
        assert time.perf_counter() - start < 2.0
        assert code == 2
        assert "above the limit" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, option",
        [
            # R squares the inverse parameters: 3000 digits become 6000
            (["analyze", "--triangle", "1" + "0" * 3000 + ",3,7"], "--triangle"),
            # the pullback of a degree-4 R raises the entries to high powers
            (["analyze", "--triangle", "2,3,7", "--moebius", "1" + "0" * 3000 + ",1,0,1"], "--moebius"),
            # an exponent carries a short text past the limit
            (["series-check", "--lambda0", "1" * 4000 + "e1000"], "--lambda0"),
        ],
    )
    def test_oversized_integers_exit_2_fast(self, argv, option, capsys):
        # accepted, these would end in Python's 4300-digit int-to-str error
        start = time.perf_counter()
        code, text = run(argv)
        assert time.perf_counter() - start < 2.0
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad {option} value:") and "above the limit 10000" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--triangle", "1" + "0" * 1500 + ",3,7", "--oracle"],
            ["oracle", "--triangle", f"{10**498 + 1},{10**498 + 3},{10**498 + 7}"],
            ["series-check", "--triangle", "2,3,7", "--moebius", f"{10**214},1,0,1"],
        ],
    )
    def test_near_limit_integers_run_fast(self, argv):
        # just under the limit: R has integers of 9,976 and 9,926 bits, and
        # the pullback is predicted at 9,980 bits
        start = time.perf_counter()
        code, doc = run_json(argv)
        assert time.perf_counter() - start < 2.0
        assert code == 0
        assert doc["normalized"]

    @pytest.mark.parametrize("verb", [["analyze", "--oracle"], ["oracle"]])
    def test_degree_1000_pullback_runs_fast(self, verb):
        # the parser's degree limit under --moebius: the pullback, then the
        # rational roots of its degree-1000 denominator
        argv = [verb[0], "--expr", "1/((y+1)^500*(y+2)^500)", "--moebius", "2,3,5,7"]
        start = time.perf_counter()
        code, doc = run_json(argv + verb[1:])
        assert time.perf_counter() - start < 2.0
        assert code == 0

    def test_expr_under_the_limit_runs(self):
        code, doc = run_json(["analyze", "--expr", "(y+1)^600"])
        assert code == 0
        assert doc["conclusion"] == "NotTriangular"

    def test_zero_degree_bound_accepted(self):
        code, _ = run(["oracle", "--triangle", "2,3,7", "--degree-bound", "0"])
        assert code == 0

    @pytest.mark.parametrize("expr", ["1/(y^2+1)^2", "y"])
    def test_series_check_unsupported_expr_exits_2(self, expr, capsys):
        # a denominator that does not split over Q, and R not vanishing at
        # infinity: the oracle cannot run, which is an input error
        code, text = run(["series-check", "--expr", expr])
        assert code == 2 and text == ""
        assert capsys.readouterr().err.startswith("error: ")


def _frames() -> int:
    frame, n = sys._getframe(), 0
    while frame is not None:
        frame, n = frame.f_back, n + 1
    return n


class TestShapeLimits:
    """parser.MAX_NESTING and MAX_DEPTH: at each limit the input runs, one
    past it exits 2 at the offset of the token that crossed it."""

    NESTING = (MAX_NESTING, "parentheses and unary minus nest deeper than")
    DEPTH = (MAX_DEPTH, "operators nest deeper than")
    # shape -> (text at nesting or depth k, offset of the token that makes
    # k, (limit, message))
    SHAPES = {
        "parentheses": (lambda k: "(" * k + "y" + ")" * k, lambda k: k - 1, NESTING),
        "unary minus": (lambda k: "-" * k + "y", lambda k: k - 1, NESTING),
        "sum": (lambda k: "+".join(["y"] * (k + 1)), lambda k: 2 * k - 1, DEPTH),
        "product": (lambda k: "*".join(["y"] * (k + 1)), lambda k: 2 * k - 1, DEPTH),
    }

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_at_the_limit_runs(self, shape, json_flag):
        text, _, (limit, _) = self.SHAPES[shape]
        code, out = run(["analyze", f"--expr={text(limit)}", *json_flag])
        assert code == 0 and out

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_over_the_limit_exits_2(self, shape, json_flag, capsys):
        text, offset, (limit, words) = self.SHAPES[shape]
        code, out = run(["analyze", f"--expr={text(limit + 1)}", *json_flag])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == (
            f"error: bad --expr value: at offset {offset(limit + 1)}: {words} the limit {limit}\n"
        )

    def test_siblings_do_not_nest(self):
        # nesting counts enclosing parentheses and minus signs, not all of them
        code, _ = run(["analyze", "--expr=" + "+".join(["(-y)"] * (MAX_NESTING + 1))])
        assert code == 0

    @pytest.mark.parametrize(
        "expr", ["(" * 200 + "y" + ")" * 200, "+".join(["y"] * 1001), "*".join(["y"] * 1001)]
    )
    def test_inputs_that_ran_out_of_frames_exit_2(self, expr, capsys):
        code, out = run(["analyze", f"--expr={expr}"])
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith("error: bad --expr value: at offset ")

    def test_the_deepest_accepted_input_leaves_the_caller_room(self):
        # both limits at once: a sum of MAX_DEPTH operators inside
        # MAX_NESTING parentheses; the limits' comment measures 211 frames
        chain = "+".join(["y"] * (MAX_DEPTH + 1))
        expr = "(" * MAX_NESTING + chain + ")" * MAX_NESTING
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(_frames() + 600)
        try:
            code, _ = run(["analyze", f"--expr={expr}", "--json"])
        finally:
            sys.setrecursionlimit(old)
        assert code == 0

    def test_a_deepest_input_named_from_its_span_leaves_the_caller_room(self, capsys):
        # as above, but the root's sum passes the bit limit, so its span is
        # parsed and printed, a frame per operator on the path; the limits'
        # comment measures 507 frames
        terms = ["2^9999"] + ["y"] * (MAX_DEPTH - 2) + ["2^9999"]
        expr = "(" * MAX_NESTING + "+".join(terms) + ")" * MAX_NESTING
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(_frames() + 600)
        try:
            code, _ = run(["analyze", f"--expr={expr}", "--json"])
        finally:
            sys.setrecursionlimit(old)
        assert code == 2
        assert capsys.readouterr().err.endswith("may reach integer bits 10001, above the limit 10000\n")


class TestBoundedSearch:
    """A search cut by --degree-bound is not called exhaustive: with bound 0
    the oracle misses u = (2y^2 - 2y + 1/4)/(y^3 - 3/2y^2 + 1/2y), which
    bound 1 finds."""

    def test_oracle_states_the_cut(self):
        code, doc = run_json(["oracle", "--triangle", "1/3,inf,inf", "--degree-bound", "0"])
        assert code == 0
        assert doc["oracle"]["solutions"] == []
        assert "exhaustive" not in doc["conclusion"]
        assert "--degree-bound" in doc["conclusion"]
        code, doc = run_json(["oracle", "--triangle", "1/3,inf,inf", "--degree-bound", "1"])
        assert doc["oracle"]["solutions"] == [
            "(2*y^2 - 2*y + 1/4)/(y^3 - 3/2*y^2 + 1/2*y)"
        ]
        assert doc["conclusion"] == "1 rational solution(s)"

    def test_analyze_is_inconclusive(self):
        argv = ["analyze", "--triangle", "1/3,inf,inf", "--oracle", "--degree-bound", "0"]
        code, doc = run_json(argv)
        assert code == 0
        assert doc["oracle"]["consistency"] == "INCONCLUSIVE"
        assert "exhaustive" not in doc["oracle"]["note"]
        code, text = run(argv)
        assert code == 0 and "consistency: INCONCLUSIVE" in text

    def test_complete_search_keeps_its_wording(self):
        _, doc = run_json(["oracle", "--triangle", "2,3,7"])
        assert doc["conclusion"] == "no rational solutions (rational branch exhaustive)"


def test_large_rational_pole_is_fast():
    # the rational-root search is polynomial in the bit size of the pole
    start = time.perf_counter()
    code, doc = run_json(["oracle", "--expr", "1/(y^2*(y-1)^2*(y-123456789012345678901)^2)"])
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert "IrrationalLocalExponent at pole 0" in doc["oracle"]["notes"][0]


def test_reused_parser_keeps_no_state(capsys):
    """One parser and one argv reader's table serve every call in a
    process; each call must answer as under freshly built ones."""
    calls = [
        ["analyze", "--triangle", "1,inf,inf", "--oracle", "--json"],
        ["analyze", "--triangle", "1,inf,inf", "--json"],
        ["analyze", "--no-such-flag"],
        ["oracle", "--triangle", "1,inf,inf", "--json"],
        ["series-check", "--triangle", "2,3,7", "--truncation=-2", "--json"],
        ["series-check", "--triangle", "2,3,7", "--json"],
    ]

    def outcome(argv):
        out = io.StringIO()
        try:
            code = main(argv, out=out)
        except SystemExit as exc:
            code = exc.code
        return code, out.getvalue(), capsys.readouterr().err

    parser, reader = cli._arg_parser(), cli._option_reader()
    reused = [outcome(argv) for argv in calls]
    assert cli._arg_parser() is parser and cli._option_reader() is reader
    fresh = []
    for argv in calls:
        cli._arg_parser.cache_clear()
        cli._option_reader.cache_clear()
        fresh.append(outcome(argv))
    assert reused == fresh
    assert [r[0] for r in reused] == [0, 0, 2, 0, 0, 0]
    assert json.loads(reused[1][1])["oracle"] is None
    truncations = [json.loads(r[1])["series"]["truncation"] for r in reused[4:]]
    assert truncations == ["-2", "-5"]


# tests/data/cli_usage.out: each "$ triform ARGS" line, then its stdout and
# stderr under COLUMNS=80 (argparse wraps to the terminal's width), recorded
# before the CLI read argv itself: help, no verb or an unknown one, an
# unknown option, an abbreviation that resolves and one that is ambiguous, a
# missing value, a bad int, --flag=x, values that start with "-" with and
# without "=", "--", and a repeated option.
USAGE_CASES = re.split(r"^\$ triform ?", (DATA / "cli_usage.out").read_text(), flags=re.M)[1:]
USAGE_EXITS = [0, 0, 0, 0, 0, 2, 2, 2, 0, 2, 2, 2, 2, 2, 2, 2, 0, 0]


@pytest.mark.parametrize(
    "case, exit_code",
    zip(USAGE_CASES, USAGE_EXITS, strict=True),
    ids=[case.split("\n", 1)[0] or "(no arguments)" for case in USAGE_CASES],
)
def test_usage_and_argparse_errors_unchanged(case, exit_code, monkeypatch, capsys):
    command, want = case.split("\n", 1)
    argv = shlex.split(command)
    if "--help" in argv and sys.version_info < (3, 11):
        pytest.skip("help text is worded by the running argparse; the file holds 3.11's")
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(argv, out=sys.stdout)
    except SystemExit as exc:
        code = exc.code
    got = capsys.readouterr()
    assert (code, got.out + got.err) == (exit_code, want)


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--triangle", "2,3,7", "--oracle", "--json"],
        ["analyze", "--expr", "1/(2*y^2*(y - 1)^2)", "--moebius=-1,0,0,1", "--oracle", "--json"],
        ["oracle", "--expr", "y", "--degree-bound", "3", "--out", "x.json"],
        ["series-check", "--lambda0=-1/2", "--a0", "y", "--truncation=-3", "--json"],
        ["sweep", "--bound", "30", "--full", "--cross-check", "--bound", "5"],
    ],
)
def test_argv_reader_reads_exact_options(argv):
    # the command lines argparse need not see; tests/test_fuzz.py checks
    # the reader against argparse on every other shape
    read = cli._read_argv(argv)
    assert read is not None and read == cli.build_arg_parser().parse_args(argv)


class TestJsonWriter:
    """cli._json against json.dumps(value, indent=2).  Every document a test
    writes through the CLI is compared as well (conftest.py); these are the
    shapes and values no command writes."""

    @pytest.mark.parametrize(
        "value",
        [
            {}, [], {"a": {}}, {"a": []}, [[]], [{}], [[[], {}]], {"": None},
            "\x00\x1f\x7f\"\\/\b\f\n\r\t", "é ü 😀 \u2028 \ud800",
            {"é": ["\x00", "😀"]},
            [True, 1, False, 0, -1, None], {"True": True, "1": 1, "0": False},
            10**4299, -(10**4299), [10**4300 - 1],
        ],
    )
    def test_shape(self, value):
        assert cli._json(value) == json.dumps(value, indent=2)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.recursive(
            st.none() | st.booleans() | st.integers() | st.text(),
            lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
            max_leaves=24,
        )
    )
    def test_seeded_shapes(self, value):
        assert cli._json(value) == json.dumps(value, indent=2)

    def test_ints_past_the_str_digit_limit_raise_as_json_does(self):
        # 4,301 digits: past the int-to-str limit of Pythons that have it
        for value in (10**4300, {"n": [-(10**4300)]}):
            try:
                want = json.dumps(value, indent=2)
            except ValueError:
                with pytest.raises(ValueError):
                    cli._json(value)
            else:
                assert cli._json(value) == want


class TestDeterminism:
    def test_byte_identical_json(self):
        argv = ["analyze", "--triangle", "2,3,7", "--oracle", "--json"]
        _, first = run(argv)
        _, second = run(argv)
        assert first == second

    def test_out_file(self, tmp_path):
        target = tmp_path / "verdict.json"
        code, text = run(
            ["analyze", "--triangle", "2,3,7", "--json", "--out", str(target)]
        )
        assert code == 0
        assert text == ""  # everything went to the file
        doc = json.loads(target.read_text())
        assert doc["conclusion"] == "NoOrderTwoSubvarieties"


class TestSweep:
    def test_small_sweep(self):
        code, doc = run_json(["sweep", "--bound", "9"])
        assert code == 0
        assert doc["kimura"]["outcome"] == "ConditionRicHolds"
        assert doc["conclusion"].endswith("ConditionRicHolds")

    def test_full_table(self):
        _, doc = run_json(["sweep", "--bound", "5", "--full"])
        rows = {row["triangle"]: row["outcome"] for row in doc["table"]}
        assert rows["(2,3,inf)"] == "ConditionRicHolds"
        assert all(v == "ConditionRicHolds" for v in rows.values())

    def test_full_table_text_bytes_unchanged(self):
        code, text = run(["sweep", "--bound", "5", "--full"])
        assert code == 0 and "\n  (2,3,inf): ConditionRicHolds\n" in text
        digest = "e5f851504b232fe0048bb4a4a3a2a921ab7128a54db8f6281c5684a92878da1b"
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_bad_bound_exits_2(self, capsys):
        code, text = run(["sweep", "--bound", "1"])
        assert code == 2 and text == ""
        assert capsys.readouterr().err == "error: bad --bound value: bound must be at least 2\n"

    def test_bound_limit_is_checked_before_enumerating(self, monkeypatch, capsys):
        def enumerate_never(bound):
            raise AssertionError("the enumerator ran")

        monkeypatch.setattr(kimura, "hyperbolic_integer_triples", enumerate_never)
        over = cli.MAX_SWEEP_BOUND + 1
        start = time.perf_counter()
        code, text = run(["sweep", "--bound", str(over), "--cross-check"])
        assert time.perf_counter() - start < 1.0
        assert code == 2 and text == ""
        assert capsys.readouterr().err == (
            f"error: bad --bound value: {over} is above the limit {cli.MAX_SWEEP_BOUND}\n"
        )

    def test_bound_at_the_limit_is_accepted(self, monkeypatch):
        seen = []

        def enumerate_nothing(bound):
            seen.append(bound)
            return []

        monkeypatch.setattr(kimura, "hyperbolic_integer_triples", enumerate_nothing)
        code, _ = run(["sweep", "--bound", str(cli.MAX_SWEEP_BOUND)])
        assert code == 0 and seen == [cli.MAX_SWEEP_BOUND]

    def test_plain_sweep_memory_stays_flat(self):
        # only the totals are kept, not a (triple, verdict) pair per triple:
        # bound 40 enumerates 11,434 triples
        tracemalloc.start()
        try:
            code, _ = run(["sweep", "--bound", "40", "--json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 1 << 20, f"traced peak {peak} bytes"

    def test_full_sweep_memory_stays_flat(self):
        # the --full table is written row by row from one outcome byte per
        # triple, not held as row dicts and JSON chunks; the output goes to a
        # hashing sink, so the traced peak is the sweep's own
        class HashingSink:
            def __init__(self):
                self.sha = hashlib.sha256()

            def write(self, text):
                self.sha.update(text.encode())

        sink = HashingSink()
        tracemalloc.start()
        try:
            code = main(["sweep", "--bound", "40", "--full", "--json"], out=sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        digest = "42bd046af85a399b441b9d763e8da923ebaa553eca0f698b1d4b799ef908eeea"
        assert sink.sha.hexdigest() == digest
        assert peak < 1 << 20, f"traced peak {peak} bytes"

    def test_full_table_shows_the_outcomes_of_the_deciding_pass(self, monkeypatch):
        # each triple is decided once; the table's second enumeration only
        # names the triples, so a verdict that would differ on a second call
        # cannot reach the table
        fired = kimura.ALGEBRAIC_SOLUTION_INDICATED
        real = kimura.decide_condition_ric
        decided = []

        def second_fires(p):
            decided.append(str(p))
            return kimura.KimuraVerdict(fired) if len(decided) == 2 else real(p)

        monkeypatch.setattr(kimura, "decide_condition_ric", second_fires)
        code, text = run(["sweep", "--bound", "5", "--full"])
        assert code == 3 and len(decided) == 25
        assert f"\n  {decided[1]}: {fired}\n" in text and text.count(fired) == 2
        decided.clear()
        code, doc = run_json(["sweep", "--bound", "5", "--full"])
        assert code == 3 and len(decided) == 25
        assert [row["triangle"] for row in doc["table"] if row["outcome"] == fired] == [decided[1]]

    # sha256 of `sweep --bound B --json [--full] [--cross-check]`; a plain
    # row keeps the id bound-full-digest it had before the cross-check rows
    SWEEP_DIGESTS = [
        (2, False, False, "ccfb2fd081b0f2d70c613c61e96a78aa1cf3621c548c83a735d3898c3670cd2d"),
        (2, True, False, "9c2f8533da2334514ca912698e2b049c79c9cdea9c3393412322247d743ab579"),
        (9, False, False, "ec1c5f4480351a7e38c9606b35fb8368b83dfd73a3da0ede407c3e59df6032f3"),
        (9, True, False, "01978db1e4daaefeac646287e7fbb53b0b4a248983278166fbb91446e80c606d"),
        (30, False, False, "464a5eea9e3bf305678460a9184659296514daf04c8db4fdd2e249d335cad360"),
        (30, True, False, "6de84affbd189bd88593d15707f49832b0a171ec347c6c18d12b32f987ab96ba"),
        (30, False, True, "d5273de34db149a72dea74a44f50006102b3362a8a3ec5922d9b57acfd41b0bd"),
        (30, True, True, "cfc3061b84505b83de01ac1964a666e624371a853a9e3ba454b74ae86e02bc2f"),
        (100, False, False, "1a16ac9275a4262675d9f20483d063ceb0abdd2a1b3866ee3f3125dfea3d6ba8"),
        (100, True, False, "84e9ebf53a7e12088ddbd4191a52b44a56faf56a882abaa7891da099be6ba60d"),
    ]

    @pytest.mark.parametrize(
        "bound, full, cross_check, digest",
        SWEEP_DIGESTS,
        ids=[f"{b}-{f}-{d}" + ("-cross-check" if c else "") for b, f, c, d in SWEEP_DIGESTS],
    )
    def test_plain_sweep_bytes_unchanged(self, bound, full, cross_check, digest):
        argv = ["sweep", "--bound", str(bound), "--json"]
        argv += (["--full"] if full else []) + (["--cross-check"] if cross_check else [])
        code, text = run(argv)
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_full_text_bytes_unchanged(self):
        # the text table names each triple from its inverse pairs, as
        # str(TriangleParams) does; the --json table is pinned above
        code, text = run(["sweep", "--bound", "100", "--full"])
        assert code == 0
        digest = "89192ba90763ba7572e95ec427107b21bfaa4f141576013f5f6593d9c98e853a"
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestSweepCrossCheck:
    @pytest.mark.parametrize("bound", [2, 7, 12])
    def test_same_outcomes_as_plain_sweep(self, bound):
        code, plain = run_json(["sweep", "--bound", str(bound), "--full"])
        checked_code, checked = run_json(
            ["sweep", "--bound", str(bound), "--full", "--cross-check"]
        )
        assert checked_code == code == 0
        assert checked["table"] == plain["table"]
        assert checked["kimura"] == plain["kimura"]
        assert checked["conclusion"] == plain["conclusion"]
        statuses = checked["oracle"]["statuses"]
        assert list(statuses) == ["CONSISTENT", "INCONCLUSIVE", "CONTRADICTION"]
        assert sum(statuses.values()) == len(plain["table"])
        assert statuses["CONSISTENT"] == len(plain["table"])
        assert checked["oracle"]["contradictions"] == []

    @pytest.mark.parametrize("triangle", ["(2,3,7)", "(3,4,inf)", "(inf,inf,inf)"])
    def test_contradiction_exits_3_and_names_the_triple(self, triangle, monkeypatch):
        real = riccati.cross_check

        def contradicting(p, degree_bound=24):
            report = real(p, degree_bound)
            if str(p) == triangle:
                return dataclasses.replace(report, status=riccati.CONTRADICTION)
            return report

        monkeypatch.setattr(riccati, "cross_check", contradicting)
        code, doc = run_json(["sweep", "--bound", "7", "--cross-check"])
        assert code == 3
        assert doc["oracle"]["contradictions"] == [triangle]
        assert doc["oracle"]["statuses"]["CONTRADICTION"] == 1
        code, text = run(["sweep", "--bound", "7", "--cross-check"])
        assert code == 3 and f"contradicted: {triangle}" in text

    @pytest.mark.parametrize("degree_bound", [0, 3, 24])
    def test_degree_bound_reaches_the_oracle(self, degree_bound, monkeypatch):
        real = riccati.cross_check
        seen = set()

        def recording(p, degree_bound=24):
            seen.add(degree_bound)
            return real(p, degree_bound)

        monkeypatch.setattr(riccati, "cross_check", recording)
        code, doc = run_json(
            ["sweep", "--bound", "5", "--cross-check", "--degree-bound", str(degree_bound)]
        )
        assert code == 0
        assert seen == {degree_bound}
        assert doc["input"] == {"bound": 5, "degree_bound": degree_bound}

    def test_committed_bound_30_output(self):
        code, text = run(["sweep", "--bound", "30", "--cross-check", "--json"])
        assert code == 0
        assert text == (DATA / "sweep_30_cross_check.json").read_text()

    def test_text_reports_the_status_counts(self):
        code, text = run(["sweep", "--bound", "5", "--cross-check"])
        assert code == 0
        assert "oracle:      25 CONSISTENT, 0 INCONCLUSIVE, 0 CONTRADICTION" in text
        assert "rational solution" not in text


class TestOracle:
    def test_solution_listed(self):
        code, doc = run_json(["oracle", "--triangle", "1,inf,inf"])
        assert code == 0
        assert doc["oracle"]["solutions"] == ["(y - 1/2)/(y^2 - y)"]

    def test_empty_hyperbolic(self):
        _, doc = run_json(["oracle", "--triangle", "2,3,7"])
        assert doc["oracle"]["solutions"] == []
        assert doc["conclusion"].startswith("no rational solutions")

    def test_family_reported(self):
        _, doc = run_json(["oracle", "--expr", "0"])
        assert doc["oracle"]["families"]

    def test_family_representative_pinned(self):
        # Euler's equation: u = 3/(y+1) and -2/(y+1), and the pencil
        # v = (y+1)^3 + t/(y+1)^2 gives P = (y+1)^5 + t - 1 with theta =
        # -2/(y+1); the representative has its free coefficient p_0 = 0
        text = run(["oracle", "--expr=-12/(y+1)^2", "--json"])[1]
        assert (
            "representative P = y^5 + 5*y^4 + 10*y^3 + 10*y^2 + 5*y" in text
        )
        doc = json.loads(text)
        assert doc["oracle"]["solutions"] == ["3/(y + 1)", "-2/(y + 1)"]
        assert len(doc["oracle"]["families"]) == 1

    def test_family_over_the_output_limit_exits_2_fast(self, capsys):
        # c = 10^1200 in -12/(y+c)^2 gives P0 = (y+c)^5 - c^5, whose
        # coefficient 5c^4 has 15,948 bits: Python would not print it
        start = time.perf_counter()
        code, text = run(["oracle", "--expr=-12/(y+1" + "0" * 1200 + ")^2", "--json"])
        assert time.perf_counter() - start < 2.0
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert err.startswith("error: the family representative has integers of 15948 bits")
        assert "above the output limit 14000" in err

    def test_family_under_the_output_limit_prints(self):
        # with c = 10^1000, 5c^4 has 13,291 bits
        start = time.perf_counter()
        code, doc = run_json(["oracle", "--expr=-12/(y+1" + "0" * 1000 + ")^2"])
        assert time.perf_counter() - start < 2.0
        assert code == 0 and len(doc["oracle"]["families"]) == 1

    @pytest.mark.parametrize("verb", ["oracle", "series-check"])
    def test_kappa_over_the_output_limit_exits_2(self, verb, capsys):
        # c = 10^1000: R is accepted, but kappa = c^5/2 at the pole c has
        # 16,609 bits and would end in Python's int-to-str error
        code, text = run([verb, "--expr", "y^5/(y-1" + "0" * 1000 + ")^2", "--json"])
        assert code == 2 and text == ""
        assert capsys.readouterr().err.startswith("error: kappa has integers of 16609 bits")

    def test_unsupported_expr_exits_2(self):
        code, _ = run(["oracle", "--expr", "y"])
        assert code == 2

    def test_golden_output(self, capsys):
        # tests/data/oracle_solve.out: each "$ triform ARGS" line, then its
        # stdout; the solve path in text and --json: a unique P, a family, a
        # combo with no auxiliary polynomial, P = y^3 (y - 1) vanishing at
        # both poles, the 512-combo input with four residue-1/2 poles, and
        # P = (y+1)^399 at degree bound 1000
        golden = (DATA / "oracle_solve.out").read_text()
        cases = golden.split("$ triform ")[1:]
        assert len(cases) == 12
        for case in cases:
            command, want = case.split("\n", 1)
            code, text = run(shlex.split(command))
            assert (code, text, capsys.readouterr().err) == (0, want, ""), command

    @staticmethod
    def poles_with_two_exponents(k):
        """R with (1/2)R = -(u' + u^2), u = sum_{i=1..k} 2/(y - i): the
        exponents at each pole are 2 and -1, so the oracle has 2^k * 2
        combos, most of which reach the solve."""
        u = RatFunc.zero()
        for i in range(1, k + 1):
            u = u + RatFunc(Poly.const(2), Poly.linear(i))
        return (u.derivative() + u * u).scale(Q(-2)).render("y")

    def test_largest_accepted_combo_count_runs_fast(self):
        assert 2**8 * 2 == riccati.MAX_COMBOS
        start = time.perf_counter()
        code, doc = run_json(["oracle", "--expr", self.poles_with_two_exponents(8)])
        assert time.perf_counter() - start < 2.0
        assert code == 0 and doc["oracle"]["searched"] == 512
        assert doc["oracle"]["solutions"]

    def test_first_refused_combo_count_exits_2_fast(self, capsys):
        start = time.perf_counter()
        code, text = run(["oracle", "--expr", self.poles_with_two_exponents(9)])
        assert time.perf_counter() - start < 2.0
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert err == "error: the oracle would try 1024 exponent combos, above the limit 512\n"

    def test_default_degree_bound_stays_under_the_solve_work_limit(self):
        assert riccati.MAX_COMBOS * 25**2 <= riccati.MAX_SOLVE_WORK

    def test_largest_accepted_solve_work_runs_fast(self):
        # (1/2)R = -N(N-1)/(y+1)^2 at N = 499 solves degrees 0, 0 and 997:
        # work 1 + 998^2 + 1 = 996,006
        start = time.perf_counter()
        code, doc = run_json(["oracle", "--expr=-497004/(y+1)^2", "--degree-bound", "100000"])
        assert time.perf_counter() - start < 2.0
        assert code == 0 and doc["oracle"]["solutions"] == ["499/(y + 1)", "-498/(y + 1)"]

    @pytest.mark.parametrize(
        "expr, work", [("-499000/(y+1)^2", 1_000_001), ("-7996000/(y+1)^2", 16_000_001)]
    )
    def test_solve_work_over_the_limit_exits_2_fast(self, expr, work, capsys):
        # N = 500 and N = 2000: the solve of degree 2N - 1 follows one of
        # degree 0; unlimited, N = 2000 takes seconds
        start = time.perf_counter()
        code, text = run(["oracle", f"--expr={expr}", "--degree-bound", "100000"])
        assert time.perf_counter() - start < 2.0
        assert code == 2 and text == ""
        assert capsys.readouterr().err == (
            f"error: the oracle's solves would reach work {work}, above the limit 1000000\n"
        )


class TestSeriesCheck:
    def test_rational_a0_of_degree_1000_runs_fast(self):
        # its derivative's gcds are settled modulo a prime; Euclid over Q
        # took 38 s on this a0
        start = time.perf_counter()
        code, text = run(["series-check", "--a0", "(2*y^999+1)/(y^1000+3*y^500+y+1)", "--lambda0", "0"])
        assert time.perf_counter() - start < 2.0
        assert code == 0
        digest = "a6b92930fca0f99f2a92816fb40e958740bdc8f4ee7007d609ea8a559a75ecd2"
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_satisfied_leading_constraint(self):
        code, doc = run_json(["series-check", "--triangle", "1,inf,inf"])
        assert code == 0
        assert doc["series"]["satisfied"] is True
        assert doc["series"]["lambda0"] == "0"
        assert "residual" in doc["series"]

    def test_positive_lambda_obstruction(self):
        _, doc = run_json(
            ["series-check", "--triangle", "2,3,7", "--lambda0", "1", "--a0", "y"]
        )
        assert doc["series"]["obstruction_exponent"] == "2"
        assert "obstructed" in doc["conclusion"]

    @pytest.mark.parametrize(
        "a0, lambda0, exponent, conclusion",
        [
            ("y", "-1", "-1", "-1 < 0 is obstructed: R = 0 and E(U) has the nonzero "
             "coefficient 1 at exponent -1"),
            ("y", "-1/2", "-1/2", "-1/2 < 0 is obstructed: R = 0 and E(U) has the nonzero "
             "coefficient 1 at exponent -1/2"),
            ("3", "-1", None, "-1 < 0 with R = 0: no obstruction found; "
             "E(U) vanishes at every exponent >= -1"),
            ("3", "-1/2", None, "-1/2 < 0 with R = 0: no obstruction found; "
             "E(U) vanishes at every exponent >= -1/2"),
        ],
    )
    def test_negative_lambda_with_zero_R(self, a0, lambda0, exponent, conclusion):
        # E(U) = a0' w^lambda0 + (lambda0 + 1/2) a0^2 w^(2 lambda0) + R for
        # U = a0 w^lambda0; the lower terms of U reach only exponents below
        # lambda0, so for R = 0 only a0' at lambda0 can obstruct
        argv = ["series-check", "--a0", a0, f"--lambda0={lambda0}"]
        code, doc = run_json(argv)
        assert code == 0 and doc["normalized"] == "0"
        assert doc["series"]["obstruction_exponent"] == exponent
        assert doc["conclusion"] == f"lambda0 = {conclusion}"
        code, text = run(argv)
        assert code == 0 and f"conclusion:  lambda0 = {conclusion}\n" in text

    def test_negative_lambda_with_symbolic_a0_and_zero_R(self):
        _, doc = run_json(["series-check", "--lambda0=-1"])
        assert doc["series"]["obstruction_exponent"] is None
        assert doc["conclusion"] == (
            "lambda0 = -1 < 0 with R = 0 is obstructed unless a0 is constant: "
            "the w^(-1) coefficient of E(U) is da0/dy"
        )

    def test_negative_lambda_with_nonzero_R_keeps_its_wording(self):
        _, doc = run_json(["series-check", "--expr", "1/y^3", "--a0", "y", "--lambda0=-1"])
        assert doc["series"]["obstruction_exponent"] == "0"
        assert doc["conclusion"] == (
            "lambda0 = -1 < 0 is obstructed: the w^0 coefficient of E(U) is R(y) != 0"
        )

    def test_largest_accepted_a0_runs_fast(self):
        # degree 1000 times 400 bits: the a0 work limit, on its worst shape
        start = time.perf_counter()
        code, doc = run_json(["series-check", "--a0", "(y+1)^404*(y^596+1)", "--lambda0", "0"])
        assert time.perf_counter() - start < 2.0
        assert code == 0 and doc["series"]["residual"]

    def test_first_refused_a0_exits_2_fast(self, capsys):
        start = time.perf_counter()
        code, text = run(["series-check", "--a0", "(y+1)^405*(y^595+1)", "--lambda0", "0"])
        assert time.perf_counter() - start < 2.0
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert "degree 1000 times 401 bits is 401000, above the limit 400000" in err

    @pytest.mark.parametrize("lambda0", ["0", "1"])
    def test_result_over_the_output_limit_exits_2(self, lambda0, capsys):
        # an a0 of 8,717 bits is accepted, but a0^2 would not print
        a0 = f"{3**5500}*y+1"
        code, text = run(["series-check", "--a0", a0, "--lambda0", lambda0, "--json"])
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert err.startswith("error: the series-check result") and "output limit 14000" in err

    def test_truncation_flag(self):
        _, doc = run_json(
            ["series-check", "--triangle", "1,inf,inf", "--truncation", "-3"]
        )
        assert doc["series"]["truncation"] == "-3"

    @pytest.mark.parametrize("truncation, code", [("0", 0), ("1", 2), ("2", 2)])
    def test_truncation_above_0_exits_2(self, truncation, code, capsys):
        # a cutoff above 0 would drop the leading term a0 * w^0
        argv = ["series-check", "--triangle", "1,inf,inf", "--truncation", truncation]
        assert run(argv)[0] == code
        want = f"error: bad --truncation value: {truncation} is above 0\n" if code else ""
        assert capsys.readouterr().err == want


    def test_golden_output(self, capsys):
        # tests/data/series_check.out: each "$ triform ARGS" line, then its
        # stdout; one case per conclusion leading_constraints writes, text and --json
        golden = (DATA / "series_check.out").read_text()
        cases = golden.split("$ triform ")[1:]
        assert len(cases) == 40
        for case in cases:
            command, want = case.split("\n", 1)
            code, text = run(shlex.split(command))
            assert (code, text, capsys.readouterr().err) == (0, want, ""), command


class TestComputedOnce:
    def test_series_check_differentiates_a0_once(self, monkeypatch):
        # E(U) for U = a0 * w^0 is the constraint a0' + a0^2/2 + R at w^0:
        # the report's constraint is printed, not a second residual
        a0 = RatFunc(Poly((-1, 2)), Poly((0, -1, 1)))
        real = RatFunc.derivative
        calls = []

        def counting(self):
            calls.append(self == a0)
            return real(self)

        monkeypatch.setattr(RatFunc, "derivative", counting)
        code, doc = run_json(["series-check", "--triangle", "1,inf,inf", "--a0", str(a0)])
        assert code == 0 and doc["series"]["satisfied"] is True
        assert doc["series"]["residual"] == "0 + O(w^(-5))"
        assert sum(calls) == 1

    def test_analyze_oracle_decides_once(self, monkeypatch):
        # cross_check's verdict is the one printed; the table is not re-run
        real = kimura.decide_condition_ric
        calls = []

        def counting(p):
            calls.append(str(p))
            return real(p)

        monkeypatch.setattr(kimura, "decide_condition_ric", counting)
        monkeypatch.setattr(riccati, "decide_condition_ric", counting)
        code, doc = run_json(["analyze", "--triangle", "1/3,inf,inf", "--oracle"])
        assert code == 0 and doc["oracle"]["consistency"] == riccati.CONSISTENT
        assert doc["kimura"]["outcome"] == real(TriangleParams.parse("1/3,inf,inf")).outcome
        assert len(calls) == 1


# R of the triangle (1/3, 1/4, inf) pulled back by z = (2y - 3)/(y + 1):
# rational coefficients of both signs, and a solution with three poles
PULLED = (
    "(-1175/8*y^2 - 75/2*y + 75/2)/"
    "(y^6 + 3*y^5 - 35/4*y^4 - 45/2*y^3 + 85/4*y^2 + 33*y + 9)"
)


@pytest.mark.parametrize(
    "argv, text_digest, json_digest",
    [
        (
            ["analyze", "--expr", "1/(2*y^2*(y - 1)^2)"],
            "ade3a270cccd6c64ce31f46a8a6003518763877212b2caee543d63669f3a411c",
            "0430c21e55359a6ec1515118b0ff57d4044c5c467b8af91e5db58801f82d3586",
        ),
        (
            [
                "analyze",
                "--expr",
                "(y^2 - 1968*y + 2654208)/(2*y^2*(y - 1728)^2)",
                "--moebius",
                "1,0,0,1728",
            ],
            "a03e087020dcd867ebd0ceb95a6747383073dcf4d335ed4daacd2183077f45fd",
            "b604df4b281526c59844abac505ff043ba9d8c3550b245caa1cdb82ed925df1a",
        ),
        (
            ["analyze", "--expr", PULLED, "--moebius=1,3,-1,2", "--oracle"],
            "7d68fae9a86cc158933c6b135f0c7590d5791bb2b2c10c459dc3d82f1b2deb11",
            "549e027fd21ce26142ff60b69f784183a9aba67fed004cf69e85e1634543ddb9",
        ),
        (
            ["oracle", "--triangle", "1,inf,inf"],
            "e623e2dfc21740ee2db557aebf55957c1ab20f1214b66ba9b5be69d1b33a34a5",
            "d725eeda7ba7673472256f218f34d7a7e1c0e79a0c8152de058ca6c9b2428b06",
        ),
        (
            ["oracle", "--expr", PULLED],
            "1dcc32a96dce41585f935d3b8e025706c01c7c2462fbd998afe4c53bdc9ebc26",
            "dcedaee0717d345fa04d6222f3fbc649f7ab1fe29afff688820ec420db66b35e",
        ),
        (
            ["oracle", "--expr=-12/(y+1)^2"],
            "737111bd04845b43ab8b7377afdb15be7af722f35cc485317d0e5ba6b335a80f",
            "efceac14bc3c97378d16317b48af5f09982fb8e37c0f3da15621d17c90ae0e52",
        ),
        (
            ["oracle", "--expr", "0"],
            "0ad0c04e8da7585e24b90b51541feb286e2ca529d26376a100a6b82ec561ddbf",
            "b0048641ebd2e3fc0c5c650cc7173a616f498b7e6407e6dd3663b7495d9ca3fb",
        ),
        (
            ["series-check", "--triangle", "1,inf,inf"],
            "bd9e1b31f5501c86d94ef1e3a62f054ec35c526c658d2905275e990414589d17",
            "a68a9251850e4108728d9e90a645a049b1b60fcc1a1842352dfdb7889259c919",
        ),
        (
            ["series-check", "--triangle", "2,3,7", "--a0", "y", "--lambda0", "0"],
            "8367ecd0f32e61aa07f4c27fbf127326326c65fa8b565902dac83299d642bd87",
            "09287cba20439241be7ca26e767bfb6c51aee2f4f219ada194cf01dbbc13bb38",
        ),
        (
            ["series-check", "--expr", "(3/4 - y^2/5)/(y^2*(y - 1)^2)", "--a0", "2/(3*y) - 7*y/5"],
            "2988d0444a73d7621921084f34e44c9ce7ca636ded501b734968eeab391f418f",
            "dffd50613623c9c16a5422f8a332ac62bbaade7ceb25e64ce98f34e363dd5010",
        ),
        # inverse squares (2, 1/4, 1/9): 2 is not a rational square
        (
            ["analyze", "--expr", "(-1/2*y^2 + 41/72*y + 3/8)/(y^4 - 2*y^3 + y^2)"],
            "e00ccb57c8828232ed60f0aee939ad34eded2b98f38fdf595e2f10bdedcec4c5",
            "ee9af893076e6958c321661edea6cdf2c57e5a2adf725c255716468cdb44b619",
        ),
        # inverse squares (-1, 1/4, 1/9): NotTriangular, with the squares shown
        (
            ["analyze", "--expr", "(y^2 - 67/72*y + 3/8)/(y^4 - 2*y^3 + y^2)"],
            "b26245dec4a584b1553802c799fba07c76b2dcb9f738fd2a177bee0e4d8028e1",
            "ce79d4785bed3b6ac0a99c93a6c15d19df213d237c14541f27dece02091b49ac",
        ),
    ],
)
def test_rendering_bytes_unchanged(argv, text_digest, json_digest):
    """sha256 of stdout, text and --json, for invocations that render R,
    solutions, families and series-check results."""
    for extra, digest in (([], text_digest), (["--json"], json_digest)):
        code, text = run(argv + extra)
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == digest
