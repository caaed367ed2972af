"""Tests of the benchmark itself: tiny runs finish and print every named
metric, and wrong outputs are counted as failed.

Run from the root of the source tree:  python3 -m pytest bench/tests
"""

import io
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from triform import cli, kimura, riccati  # noqa: E402
from triform.parser import parse_ratfunc  # noqa: E402
from triform.schwarzian import TriangleParams  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, seconds="1"):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", seconds, "--trace", str(trace), "--bound", "12", "--population", "40"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines(), json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_prints_every_metric(workload, trace, kind):
    lines, result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    names = [m["name"] for m in SPEC[kind]]
    assert list(result["metrics"]) == names
    for m in SPEC[kind]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] and m["unit"] in line for line in lines)
    assert any(line.startswith("failed_ratio ") for line in lines)
    info = json.loads(next(line for line in lines if line.startswith("run: "))[5:])
    for key in ("python", "scalar_backend", "nproc", "commit", "seed"):
        assert key in info


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- wrong outputs are counted --------------------------------------------------------


def test_flipped_verdict_counts_as_failed(monkeypatch):
    def flipped(p):
        return kimura.KimuraVerdict(kimura.ALGEBRAIC_SOLUTION_INDICATED, kimura.OddSumWitness((1, 1, 1), 1))

    monkeypatch.setattr(kimura, "decide_condition_ric", flipped)
    res = workloads.run_sweep(8, 0)
    assert res.attempted > 0
    assert res.failed == res.attempted


def test_contradiction_and_bad_witness_count_as_failed():
    p = TriangleParams.of(2, 3, 7)
    good = riccati.cross_check(p)
    assert workloads.check_report(p, good) is None
    bad = riccati.ConsistencyReport(p, good.verdict, good.oracle, riccati.CONTRADICTION, "")
    assert workloads.check_report(p, bad) is not None
    forged = kimura.KimuraVerdict(kimura.ALGEBRAIC_SOLUTION_INDICATED, kimura.OddSumWitness((1, 1, 1), 1))
    fake = riccati.ConsistencyReport(p, forged, good.oracle, riccati.CONSISTENT, "")
    assert workloads.check_report(p, fake) is not None


def test_lazy_oracle_fails_the_certificate_check():
    p = TriangleParams.of(2, 3, 7)
    good = riccati.cross_check(p)
    lazy = riccati.OracleResult((), riccati.SearchCertificate())
    report = riccati.ConsistencyReport(p, good.verdict, lazy, riccati.CONSISTENT, "")
    assert workloads.check_report(p, report) is not None
    cert = riccati.SearchCertificate(good.oracle.certificate.poles, good.oracle.certificate.kappa_inf,
                                     good.oracle.certificate.exponents_inf, good.oracle.certificate.combos[:-1])
    short = riccati.ConsistencyReport(p, good.verdict, riccati.OracleResult((), cert), riccati.CONSISTENT, "")
    assert workloads.check_report(p, short) is not None


def test_cross_check_digest_covers_the_certificate(monkeypatch):
    real = riccati.cross_check

    def one_note_more(p):
        report = real(p)
        report.oracle.certificate.families.append("extra")
        return report

    monkeypatch.setattr(riccati, "cross_check", one_note_more)
    res = workloads.run_cross_check(100, run.DEFAULT_SEED, 0)
    while res.info["digest"] is None:  # a slow machine: run on until enough items
        res = workloads.run_cross_check(100, run.DEFAULT_SEED, 2 * res.busy_s + 1)
    assert res.failed == 0
    assert run.check_digest("cross-check", run.DEFAULT_SEED, 100, res) == "MISMATCH"


def raising(*args, **kwargs):
    raise RuntimeError("boom")


def test_raise_on_sweep_is_a_wrong_answer(monkeypatch):
    monkeypatch.setattr(kimura, "decide_condition_ric", raising)
    res = workloads.run_sweep(8, 0)
    assert res.attempted > 0 and res.failed == res.attempted


def test_raise_on_cross_check_makes_the_run_incorrect(monkeypatch, capsys):
    real = riccati.cross_check

    def raising_on_alpha_2(p):  # fails fast on the triples that cost most
        return raising() if p.alpha.value == 2 else real(p)

    monkeypatch.setattr(riccati, "cross_check", raising_on_alpha_2)
    assert run.main(["--workload", "cross-check", "--seconds", "3", "--bound", "12"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False and 0 < result["failed"] < result["attempted"]


def test_known_crash_stays_out_of_the_loop_and_is_probed():
    stream = workloads.request_stream(5)
    for req in (next(stream) for _ in range(500)):
        if req.argv[0] == "series-check" and req.expr is not None:
            with pytest.raises(Exception):  # only syntax errors reach series-check --expr
                parse_ratfunc(req.expr)
    res = workloads.Result()
    assert workloads.probe_known_defect(res) == "2 of 2 probes raise NonRationalPoles"
    assert res.failed == 0


def test_probe_outcomes(monkeypatch):
    res = workloads.Result()
    monkeypatch.setattr(cli, "main", lambda argv, out=None: 2)  # the defect fixed
    assert workloads.probe_known_defect(res).startswith("0 of 2") and res.failed == 0
    monkeypatch.setattr(cli, "main", raising)
    workloads.probe_known_defect(res)
    assert res.failed == 1


def test_any_raise_in_the_request_loop_is_a_failure(monkeypatch):
    def crash(argv, out=None):
        raise riccati.NonRationalPoles("even the known defect's exception")

    monkeypatch.setattr(cli, "main", crash)
    res = workloads.run_requests(5, 0.3, size=40)
    assert res.attempted > 0 and res.failed == res.attempted


def test_latency_log_is_fixed_size_and_averages_window_quantiles():
    import random

    rng = random.Random(1)
    window = workloads.LatencyLog.WINDOW
    values = [rng.lognormvariate(-7, 1.5) for _ in range(20 * window + window // 2)]

    def exact(sample, q):
        return sorted(sample)[math.ceil(q * len(sample)) - 1]

    log = workloads.LatencyLog()
    size = len(log.counts)
    for v in values[: window // 2]:
        log.add(v)
    for q in (0.5, 0.99):  # no complete window: quantile of the items so far
        assert abs(log.quantile(q) / exact(values[: window // 2], q) - 1) < 2e-3
    for v in values[window // 2 :]:
        log.add(v)
    assert len(log.counts) == size and len(log) == len(values) and log.windows == 20
    for q in (0.5, 0.99):
        windows = [values[k : k + window] for k in range(0, 20 * window, window)]
        mean = sum(exact(w, q) for w in windows) / len(windows)
        assert abs(log.quantile(q) / mean - 1) < 2e-3


def answer(argv):
    out = io.StringIO()
    return cli.main(argv, out=out), out.getvalue()


def requests_of(kind, n=40):
    stream = workloads.request_stream(5)
    return [r for r in (next(stream) for _ in range(n)) if r.kind == kind]


@pytest.mark.parametrize(
    "kind, old, new",
    [
        ("analyze-triangle", '"conclusion"', '"conclusioN"'),  # field name
        ("analyze-triangle", '"input": {', '"inpuu": {'),  # field order
        ("oracle-expr", '"solutions": [', '"solutions": ["y", '),  # a false solution
        ("series-check", "{", "{{", ),  # not JSON
    ],
)
def test_changed_json_byte_is_caught(kind, old, new):
    req = requests_of(kind)[0]
    code, text = answer(req.argv)
    assert workloads.check_request(req, code, text) is None
    changed = text.replace(old, new, 1)
    assert changed != text
    assert workloads.check_request(req, code, changed) is not None


def test_byte_change_no_check_sees_fails_the_digest(monkeypatch):
    real = cli.main

    def one_more_searched(argv, out=None):
        buf = io.StringIO()
        code = real(argv, out=buf)
        out.write(buf.getvalue().replace('"searched": ', '"searched": 1', 1))
        return code

    monkeypatch.setattr(cli, "main", one_more_searched)
    res = workloads.run_requests(run.DEFAULT_SEED, 0)
    assert res.attempted >= workloads.DIGEST_ITEMS["requests"]
    failed_before = res.failed
    assert run.check_digest("requests", run.DEFAULT_SEED, workloads.POPULATION, res) == "MISMATCH"
    assert res.failed == failed_before + 1


def test_wrong_witness_and_solution_are_caught():
    req = workloads.Request("analyze-triangle", ["analyze", "--triangle", "1,inf,inf", "--oracle", "--json"], 0,
                            TriangleParams.parse("1,inf,inf"))
    code, text = answer(req.argv)
    doc = json.loads(text)
    assert doc["oracle"]["solutions"] and workloads.check_request(req, code, text) is None
    doc["kimura"]["witness"]["value"] = 3
    assert workloads.check_request(req, code, json.dumps(doc, indent=2)) is not None
    doc = json.loads(text)
    doc["oracle"]["solutions"][0] += " + 1"
    assert workloads.check_request(req, code, json.dumps(doc, indent=2)) is not None


def test_wrong_exit_code_is_caught():
    req = requests_of("user-error")[0]
    code, text = answer(req.argv)
    assert code == 2
    assert workloads.check_request(req, 0, text) is not None


@pytest.mark.parametrize("workload, size", [("requests", workloads.POPULATION), ("cross-check", 100)])
def test_digest_mismatch_counts_as_failed(workload, size):
    res = workloads.Result(attempted=500, info={"digest": "0" * 64})
    assert run.check_digest(workload, run.DEFAULT_SEED, size, res) == "MISMATCH"
    assert res.failed == 1
    other = workloads.Result(attempted=500, info={"digest": "0" * 64})
    assert run.check_digest(workload, run.DEFAULT_SEED + 1, size, other).startswith("not checked")
    assert other.failed == 0


def test_corrupted_answer_counts_as_failed_in_the_loop(monkeypatch):
    real = cli.main

    def corrupting(argv, out=None):
        buf = io.StringIO()
        code = real(argv, out=buf)
        out.write(buf.getvalue().replace('"input"', '"inpuT"', 1))
        return code

    monkeypatch.setattr(cli, "main", corrupting)
    res = workloads.run_requests(7, 0, size=40)
    answered = sum(n for k, n in res.info["by_kind"].items() if k != "user-error")
    assert answered > 0 and res.failed >= answered


def test_tracer_replaces_every_binding_and_restores_them():
    import triform
    from spans import Tracer

    original = kimura.decide_condition_ric
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = kimura.decide_condition_ric
        assert wrapped is not original
        assert riccati.decide_condition_ric is wrapped and triform.decide_condition_ric is wrapped
        tracer.active = True
        riccati.cross_check(TriangleParams.of(2, 3, 7))
        tracer.active = False
        calls, total, self_s = tracer.totals()
        assert calls["riccati.cross_check"] == calls["kimura.decide"] == 1
        assert calls["polynomials.factor"] == 1 and tracer.counts["polynomials.gcd_calls"] > 0
        assert 0 <= self_s["riccati.oracle"] <= total["riccati.oracle"] <= total["riccati.cross_check"]
    finally:
        tracer.uninstall()
    assert kimura.decide_condition_ric is original and riccati.decide_condition_ric is original
    assert triform.decide_condition_ric is original
