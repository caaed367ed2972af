"""Command-line interface: verbs, JSON shape, exit codes."""

import dataclasses
import io
import json
import time

import pytest

import triform.cli as cli
import triform.riccati as riccati
from triform.cli import main
from triform.schwarzian import TriangleParams

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

    def test_contradiction_exits_3(self, monkeypatch):
        real = riccati.cross_check(TriangleParams.parse("1,inf,inf"))
        fake = dataclasses.replace(real, status=riccati.CONTRADICTION)
        monkeypatch.setattr(riccati, "cross_check", lambda p, degree_bound=24: fake)
        code, doc = run_json(["analyze", "--triangle", "1,inf,inf", "--oracle"])
        assert code == 3
        assert doc["oracle"]["consistency"] == "CONTRADICTION"


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
    """One parser serves every call in a process; each call must answer as
    under a freshly built parser."""
    calls = [
        ["analyze", "--triangle", "1,inf,inf", "--oracle", "--json"],
        ["analyze", "--triangle", "1,inf,inf", "--json"],
        ["analyze", "--no-such-flag"],
        ["oracle", "--triangle", "1,inf,inf", "--json"],
    ]

    def outcome(argv):
        out = io.StringIO()
        try:
            code = main(argv, out=out)
        except SystemExit as exc:
            code = exc.code
        return code, out.getvalue(), capsys.readouterr().err

    parser = cli._arg_parser()
    reused = [outcome(argv) for argv in calls]
    assert cli._arg_parser() is parser
    fresh = []
    for argv in calls:
        cli._arg_parser.cache_clear()
        fresh.append(outcome(argv))
    assert reused == fresh
    assert [r[0] for r in reused] == [0, 0, 2, 0]
    assert json.loads(reused[1][1])["oracle"] is None


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

    def test_jobs_flag_matches_serial(self):
        _, serial = run_json(["sweep", "--bound", "8", "--full"])
        _, parallel = run_json(["sweep", "--bound", "8", "--full", "--jobs", "2"])
        assert serial["table"] == parallel["table"]

    def test_bad_bound_exits_2(self):
        code, _ = run(["sweep", "--bound", "1"])
        assert code == 2


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

    def test_unsupported_expr_exits_2(self):
        code, _ = run(["oracle", "--expr", "y"])
        assert code == 2


class TestSeriesCheck:
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

    def test_truncation_flag(self):
        _, doc = run_json(
            ["series-check", "--triangle", "1,inf,inf", "--truncation", "-3"]
        )
        assert doc["series"]["truncation"] == "-3"
