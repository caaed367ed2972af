"""The three benchmark workloads, their seeded inputs and their output checks.

sweep        kimura.hyperbolic_integer_triples(bound) into
             kimura.decide_condition_ric, in enumeration order, whole passes
             only (the first ~20k triples, alpha = 2, cost about seven times
             the rest, so a partial pass would measure a different mix).
cross-check  riccati.cross_check on a seeded random order of the same
             hyperbolic integer triples.
requests     a closed loop with one client calling triform.cli.main in
             process with --json, whole passes over a fixed population of
             requests from a stratified mix, in a seeded order.
             The known NonRationalPoles crash is kept out of the loop and
             probed once per run instead (probe_known_defect).

Every item is timed around the program call only; generating inputs and
checking outputs happen outside the timed region.  Each check function
returns None for a correct output or a one-line reason.  Each run_*
function calls `between()`, if given, after every item, outside the timed
region; run.py takes its setup_s samples there, spread over the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import time
from array import array
from dataclasses import dataclass, field
from typing import List, Optional

from triform import cli, kimura, riccati
from triform.parser import parse_ratfunc
from triform.riccati import RiccatiEq
from triform.scalars import Q
from triform.schwarzian import Moebius, TriangleParams, build_triangular_R, moebius_pullback

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
SERIES_FIELD_ORDER = FIELD_ORDER + ["series"]

# items whose outputs are hashed; for the default seed (and, on cross-check,
# the default bound) the hash must match "sha256" in digest.json
DIGEST_ITEMS = {"requests": 200, "cross-check": 500}

# One block of the request mix, by kind.  The weights are a chosen
# layer-coverage mix, not measured traffic (triform has no users to copy):
#   analyze-triangle 30  the paper's pipeline, table decision plus oracle
#   analyze-moebius  20  the only way into recognize_triangular and the
#                        pullback's inverse
#                        (analyze is four of the six usage examples in the
#                        top-level README, so the two analyze kinds get half)
#   oracle-expr      20  the oracle on a pulled-back R, whose three
#                        rational poles give the divisor search real work
#   series-check     20  the only way into puiseux
#   user-error       10  the exit-2 paths
# Every block holds these numbers, and within a kind the triangle slots
# hold exactly SLOT_SHARES of inf, integers and reciprocals, shuffled: the
# stream's seed sets the values drawn, not how many heavy slots there are.
BLOCK = {
    "analyze-triangle": 30,
    "analyze-moebius": 20,
    "oracle-expr": 20,
    "series-check": 20,
    "user-error": 10,
}
# Integers 2..60 are the paper's population (criteria 1 and 4), so they
# hold half the slots.  Reciprocals 1/k are the only slots that fire
# witnesses and make the oracle solve and substitute.  At 30% of slots, two
# thirds of triangles hold one (1 - 0.7^3), and about 5% of triangle
# requests reach the linear solve (28 of the 540 in the first 600 requests
# of seed 1); those few carry request_p99_ms.  inf, the cusp, holds the rest.
SLOT_SHARES = (("inf", 0.2), ("integer", 0.5), ("reciprocal", 0.3))

# The known defect of ROADMAP item 4: series-check --expr on a denominator
# that does not split over Q raises NonRationalPoles where it should exit 2.
# A run's timed items must not fail, so these inputs stay out of the request
# mix; every requests run sends them once, untimed, and reports the outcome.
KNOWN_DEFECT_PROBES = (
    ["series-check", "--expr", "1/(y^2 + 2)^2", "--json"],
    ["series-check", "--expr", "(y + 1)/((y^2 - 3)*(y - 1)^2)", "--json"],
)


class LatencyLog:
    """Latencies in seconds, in windows of WINDOW consecutive items.

    quantile(q) is the mean, over the complete windows, of each window's
    nearest-rank q-quantile; with no complete window yet, it is the
    quantile of the items so far.  The machine's speed drifts over
    stretches of several seconds, and a 38-s run often holds a fast and a
    slow stretch.  A quantile of all items pooled then lands in one of the
    two: cross-check's p50 read 0.71 ms in two of ten runs and about 1.1 ms
    in the rest, while items_per_s moved 15%.  Averaging per-window
    quantiles weighs the stretches by their length, as items_per_s does.
    1000 items leave ten beyond p99 in each window.

    A window is a fixed-size histogram, buckets 0.1% wide on a log scale
    from 0.1 us to 1000 s, so the benchmark's own memory does not grow
    with the number of items (peak_rss_mb is a metric).  Within a window,
    quantiles are interpolated in log scale within their bucket: within
    0.1% of the exact value."""

    WINDOW = 1000
    QUANTILES = (0.5, 0.99)
    LOW = 1e-7
    STEP = math.log1p(1e-3)
    SIZE = math.ceil(math.log(1e3 / 1e-7) / STEP) + 1

    def __init__(self):
        self.counts = array("q", bytes(8 * self.SIZE))  # of the open window
        self.n = 0  # items recorded
        self.windows = 0  # complete windows
        self.sums = dict.fromkeys(self.QUANTILES, 0.0)  # of their quantiles

    def __len__(self) -> int:
        return self.n

    def add(self, seconds: float) -> None:
        i = int(math.log(max(seconds, self.LOW) / self.LOW) / self.STEP)
        self.counts[min(i, self.SIZE - 1)] += 1
        self.n += 1
        if self.n % self.WINDOW == 0:
            for q in self.QUANTILES:
                self.sums[q] += self._window_quantile(q, self.WINDOW)
            self.windows += 1
            self.counts = array("q", bytes(8 * self.SIZE))

    def quantile(self, q: float) -> float:
        if self.windows:
            return self.sums[q] / self.windows
        return self._window_quantile(q, self.n)

    def _window_quantile(self, q: float, n: int) -> float:
        rank = max(1, math.ceil(q * n))
        seen = 0
        for i, count in enumerate(self.counts):
            if seen + count >= rank:
                within = (rank - seen - 0.5) / count
                return self.LOW * math.exp((i + within) * self.STEP)
            seen += count
        raise ValueError("no latency recorded")


@dataclass
class Result:
    """What one timed phase of a workload did."""

    attempted: int = 0
    failed: int = 0  # raised, wrong exit code, or failed an output check
    busy_s: float = 0.0  # time inside program calls
    # of correct items; on sweep, of whole passes
    latencies: LatencyLog = field(default_factory=LatencyLog)
    output_bytes: int = 0
    failures: List[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def fail(self, index: int, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"item {index}: {reason}")


# -- sweep -----------------------------------------------------------------------


def check_verdict(p: TriangleParams, verdict) -> Optional[str]:
    if verdict.outcome != kimura.CONDITION_RIC_HOLDS:
        return f"{p}: {verdict.outcome} with witness {verdict.witness}"
    return None


def run_sweep(bound: int, seconds: float, tracer=None, between=None) -> Result:
    """Whole passes over the enumeration; another pass starts while at
    least half of the previous pass's duration is left in the budget.

    The latency recorded is that of a whole pass (enumeration plus
    decisions, the time criterion 1 budgets), not of a triple: per-triple
    p99 falls among the ~20k slow alpha = 2 triples, which run in the first
    seconds of each pass, so it would sample the machine's speed in a few
    short stretches only."""
    res = Result()
    pc = time.perf_counter
    start = pc()
    passes = 0
    while True:
        pass_start = pc()
        pass_busy = 0.0
        triples = kimura.hyperbolic_integer_triples(bound)
        while True:
            if tracer is not None:
                tracer.current_item = res.attempted
                tracer.active = True
            t0 = pc()
            try:
                p = next(triples)
            except StopIteration:
                pass_busy += pc() - t0
                break
            try:
                verdict, reason = kimura.decide_condition_ric(p), None
            except Exception as exc:  # a wrong answer, counted; the run goes on
                verdict, reason = None, f"{p}: raised {exc!r}"
            t2 = pc()
            if tracer is not None:
                tracer.active = False
            pass_busy += t2 - t0
            res.attempted += 1
            if reason is None:
                reason = check_verdict(p, verdict)
            if reason is not None:
                res.fail(res.attempted - 1, reason)
            if between is not None:
                between()
        if tracer is not None:
            tracer.active = False
        res.busy_s += pass_busy
        res.latencies.add(pass_busy)
        passes += 1
        now = pc()
        if now - start + (now - pass_start) / 2 > seconds:
            break
    res.info = {"bound": bound, "passes": passes, "triples_per_pass": res.attempted // passes}
    return res


# -- cross-check -------------------------------------------------------------------


def hyperbolic_triples(bound: int) -> array:
    """kimura.hyperbolic_integer_triples(bound), packed as a*K^2 + b*K + c
    with K = bound + 1 and infinity stored as 0, so the benchmark's own
    input costs little memory (peak_rss_mb is a metric)."""
    k = bound + 1
    out = array("q")
    for p in kimura.hyperbolic_integer_triples(bound):
        a, b, c = (0 if v.is_infinite else int(v.value) for v in (p.alpha, p.beta, p.gamma))
        out.append((a * k + b) * k + c)
    return out


def unpack(code: int, bound: int) -> TriangleParams:
    k = bound + 1
    a, b, c = code // (k * k), code // k % k, code % k
    return TriangleParams.of(*(v if v else None for v in (a, b, c)))


def check_report(p: TriangleParams, report) -> Optional[str]:
    if report.status == riccati.CONTRADICTION:
        return f"{p}: CONTRADICTION ({report.note})"
    w = report.verdict.witness
    if w is not None and not kimura.verify_witness(p, w):
        return f"{p}: witness {w} does not replay"
    # Unless a note records an early stop, the oracle enumerated one combo
    # per choice of local exponents: at least one, since every exponent set
    # is then nonempty.  An oracle that skips its search fails here.
    cert = report.oracle.certificate
    if not cert.notes:
        expected = math.prod(len(d.exponents) for d in cert.poles) * len(cert.exponents_inf)
        if expected == 0 or len(cert.combos) != expected:
            return f"{p}: {len(cert.combos)} combos in the certificate, expected {expected}"
    return None


def report_text(report) -> str:
    """Canonical text of a cross-check report, its certificate included."""
    cert = report.oracle.certificate
    return json.dumps(
        [
            str(report.params),
            report.status,
            report.note,
            str(report.verdict),
            [(str(d.pole), d.order, str(d.kappa), [str(e) for e in d.exponents]) for d in cert.poles],
            str(cert.kappa_inf),
            [str(e) for e in cert.exponents_inf],
            cert.combos,
            cert.notes,
            cert.families,
            [str(u) for u in report.oracle.solutions],
        ]
    )


def run_cross_check(bound: int, seed: int, seconds: float, tracer=None, between=None) -> Result:
    order = hyperbolic_triples(bound)
    random.Random(seed).shuffle(order)
    res = Result()
    digest = hashlib.sha256()
    pc = time.perf_counter
    end = pc() + seconds
    i = 0
    while pc() < end:
        p = unpack(order[i % len(order)], bound)
        if tracer is not None:
            tracer.current_item = i
            tracer.active = True
        t0 = pc()
        try:
            report, reason = riccati.cross_check(p), None
        except Exception as exc:  # a wrong answer, counted; the run goes on
            report, reason = None, f"{p}: raised {exc!r}"
        t1 = pc()
        if tracer is not None:
            tracer.active = False
        res.busy_s += t1 - t0
        res.attempted += 1
        if reason is None:
            try:
                reason = check_report(p, report)
                if i < DIGEST_ITEMS["cross-check"]:
                    digest.update(report_text(report).encode() + b"\n")
            except Exception as exc:  # a malformed report the checks choke on
                reason = f"{p}: check raised {exc!r}"
        if reason is None:
            res.latencies.add(t1 - t0)
        else:
            res.fail(i, reason)
        if between is not None:
            between()
        i += 1
    res.info = {"bound": bound, "population": len(order), "sampled": i}
    res.info.update(_digest_info(digest, i, "cross-check"))
    return res


def _digest_info(digest, items: int, workload: str) -> dict:
    n = DIGEST_ITEMS[workload]
    return {"digest_items": min(items, n), "digest": digest.hexdigest() if items >= n else None}


# -- requests ------------------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    kind: str
    argv: List[str]
    expect: int  # exit code the input class calls for
    params: Optional[TriangleParams] = None  # parameters behind the input
    expr: Optional[str] = None  # --expr text, when the verb reads R from it


def _param(rng: random.Random, sort: str) -> str:
    """inf, an integer 2..60, or a reciprocal 1/k, k <= 12 (fires witnesses
    and makes the oracle solve for auxiliary polynomials)."""
    if sort == "inf":
        return "inf"
    if sort == "integer":
        return str(rng.randint(2, 60))
    return f"1/{rng.randint(2, 12)}"


def _moebius(rng: random.Random) -> Moebius:
    while True:
        a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
        if a * d - b * c != 0:
            return Moebius(a, b, c, d)


def _entries(m: Moebius) -> str:
    return ",".join(str(v) for v in (m.a, m.b, m.c, m.d))


def _user_error(rng: random.Random) -> Request:
    """Inputs that must end in exit 2.  A denominator that does not split
    over Q goes to oracle only: series-check raises on it (the known
    defect, see KNOWN_DEFECT_PROBES)."""
    sort = rng.choice(("syntax", "zero", "nonsplit"))
    if sort == "syntax":
        verb = rng.choice(("analyze", "oracle", "series-check"))
        expr = rng.choice(("1/(y^2*(y-1)", "y^^2", "1/(2*y -)", "(y+1))/y^2"))
        return Request("user-error", [verb, "--expr", expr, "--json"], 2, expr=expr)
    if sort == "zero":
        verb = rng.choice(("analyze", "oracle", "series-check"))
        slots = [_param(rng, rng.choice(SLOT_SHARES)[0]) for _ in range(2)] + ["0"]
        rng.shuffle(slots)
        return Request("user-error", [verb, "--triangle", ",".join(slots), "--json"], 2)
    k = rng.choice((2, 3, 5, 6, 7))  # not a square: y^2 + k and y^2 - k are irreducible
    expr = rng.choice((f"1/(y^2 + {k})^2", f"(y + 1)/((y^2 - {k})*(y - 1)^2)"))
    return Request("user-error", ["oracle", "--expr", expr, "--json"], 2, expr=expr)


def _request(kind: str, sorts, rng: random.Random) -> Request:
    if kind == "user-error":
        return _user_error(rng)
    triangle = ",".join(_param(rng, sort) for sort in sorts)
    params = TriangleParams.parse(triangle)
    if kind == "analyze-triangle":
        argv = ["analyze", "--triangle", triangle, "--oracle", "--json"]
        return Request(kind, argv, 0, params)
    if kind == "series-check":
        return Request(kind, ["series-check", "--triangle", triangle, "--json"], 0, params)
    m = _moebius(rng)
    expr = moebius_pullback(build_triangular_R(params), m).render("y")
    if kind == "analyze-moebius":
        # --moebius=... : argparse reads "--moebius -1,0,0,1" as a new option
        argv = ["analyze", "--expr", expr, f"--moebius={_entries(m.inverse())}", "--oracle", "--json"]
        return Request(kind, argv, 0, params, expr)
    return Request(kind, ["oracle", "--expr", expr, "--json"], 0, params, expr)


# The requests population: the first POPULATION requests of the stream of
# POPULATION_SEED, the same in every run; --seed sets their order.  Why not
# a stream per seed: p99 is set by the few dozen heaviest requests of a run,
# and which of them a seed's stream holds moved p99 by 9-15% (one standard
# deviation over six to ten seeds, for this mix and for variants with other
# Moebius entry ranges) with the machine's drift cancelled: request j of
# every seed's stream timed back to back.  A run measures whole passes, as
# sweep does, so every run times the same requests.
POPULATION = 1000
POPULATION_SEED = 0


def request_population(size: int = POPULATION) -> List[Request]:
    stream = request_stream(POPULATION_SEED)
    return [next(stream) for _ in range(size)]


def request_stream(seed: int):
    """Endless seeded request stream, one stratified block at a time."""
    rng = random.Random(seed)
    while True:
        block = []
        for kind, n in BLOCK.items():
            sorts = [sort for sort, share in SLOT_SHARES for _ in range(round(3 * n * share))]
            rng.shuffle(sorts)
            block += [(kind, sorts[3 * i : 3 * i + 3]) for i in range(n)]
        rng.shuffle(block)
        for kind, sorts in block:
            yield _request(kind, sorts, rng)


def _witness(doc: dict):
    if doc["condition"] == 1:
        return kimura.LatticeWitness(
            doc["row"], tuple(doc["permutation"]), tuple(doc["signs"]), tuple(doc["integers"])
        )
    return kimura.OddSumWitness(tuple(doc["signs"]), doc["value"])


def _check_solutions(solutions, R) -> Optional[str]:
    """Each solution, as printed, must solve du/dy + u^2 + R/2 = 0 exactly."""
    eq = RiccatiEq(R)
    for u in solutions:
        if not eq.residual(parse_ratfunc(u)).is_zero:
            return f"solution u = {u} has a nonzero residual"
    return None


def check_request(req: Request, code, stdout: str) -> Optional[str]:
    """Exit code, JSON shape and the mathematical content of one answer."""
    if code != req.expect:
        return f"{req.kind} {req.argv}: exit {code}, expected {req.expect}"
    if req.expect != 0:
        return None
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"{req.kind}: output is not JSON ({exc})"
    order = SERIES_FIELD_ORDER if req.argv[0] == "series-check" else FIELD_ORDER
    if list(doc) != order:
        return f"{req.kind}: field order {list(doc)}"
    if req.argv[0] == "analyze":
        return _check_analyze(req, doc)
    if req.argv[0] == "oracle":
        return _check_solutions(doc["oracle"]["solutions"], parse_ratfunc(req.expr))
    series = doc["series"]
    if series["a0"] is None:
        return None
    if series["satisfied"] is not True:
        return f"series-check: a0 = {series['a0']} reported unsatisfied"
    # a0 = 2u for a Riccati solution u
    u = parse_ratfunc(series["a0"]).scale(Q(1, 2))
    if not RiccatiEq(build_triangular_R(req.params)).residual(u).is_zero:
        return f"series-check: a0/2 = {u} has a nonzero residual"
    return None


def _check_analyze(req: Request, doc: dict) -> Optional[str]:
    if req.kind == "analyze-moebius":
        tri = doc["triangular"]
        if not tri or not tri["recognized"]:
            return f"analyze: pullback of {req.params} not recognized"
        params = TriangleParams.parse(",".join(tri["params_up_to_sign"]))
        if params != req.params:
            return f"analyze: recognized {params}, expected {req.params}"
    else:
        params = req.params
    verdict = doc["kimura"]
    if verdict is None:
        return "analyze: no kimura verdict"
    holds = verdict["outcome"] == kimura.CONDITION_RIC_HOLDS
    if holds != (verdict["witness"] is None):
        return f"analyze: outcome {verdict['outcome']} with witness {verdict['witness']}"
    if not holds and not kimura.verify_witness(params, _witness(verdict["witness"])):
        return f"analyze: witness {verdict['witness']} does not replay for {params}"
    expected = cli.NO_ORDER_TWO_SUBVARIETIES if holds else cli.ALGEBRAIC_SOLUTION_INDICATED
    if doc["conclusion"] != expected:
        return f"analyze: conclusion {doc['conclusion']} after {verdict['outcome']}"
    oracle = doc["oracle"]
    if oracle["consistency"] != riccati.CONSISTENT:
        return f"analyze: oracle consistency {oracle['consistency']}"
    return _check_solutions(oracle["solutions"], build_triangular_R(params))


def run_requests(seed: int, seconds: float, tracer=None, between=None, size: int = POPULATION) -> Result:
    """Whole passes over request_population(size) in the order --seed sets;
    another pass starts while at least half of the previous pass's duration
    is left in the budget."""
    population = request_population(size)
    random.Random(seed).shuffle(population)
    res = Result()
    digest = hashlib.sha256()
    kinds: dict = {}
    pc = time.perf_counter
    start = pc()
    passes = 0
    i = 0
    while True:
        pass_start = pc()
        for req in population:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stderr(err):
                if tracer is not None:
                    tracer.current_item = i
                    tracer.active = True
                t0 = pc()
                try:
                    code = cli.main(req.argv, out=out)
                except SystemExit as exc:  # argparse rejected the arguments
                    code = exc.code
                except Exception as exc:  # an uncaught error is a crash: counted
                    code = f"raised {type(exc).__name__}"
                t1 = pc()
                if tracer is not None:
                    tracer.active = False
            stdout = out.getvalue()
            answer = f"{stdout}{err.getvalue()}".encode()
            res.busy_s += t1 - t0
            res.attempted += 1
            res.output_bytes += len(answer)
            kinds[req.kind] = kinds.get(req.kind, 0) + 1
            if i < DIGEST_ITEMS["requests"]:
                digest.update(f"#{i} exit {code}\n".encode() + answer)
            try:
                reason = check_request(req, code, stdout)
            except Exception as exc:  # a malformed answer the checks choke on
                reason = f"{req.kind}: check raised {exc!r}"
            if reason is None:
                res.latencies.add(t1 - t0)
            else:
                res.fail(i, reason)
            if between is not None:
                between()
            i += 1
        passes += 1
        now = pc()
        if now - start + (now - pass_start) / 2 > seconds:
            break
    res.info = {"population": size, "passes": passes, "requests": i, "by_kind": kinds}
    res.info.update(_digest_info(digest, i, "requests"))
    return res


def probe_known_defect(res: Result) -> str:
    """Sends KNOWN_DEFECT_PROBES, untimed.  Each must raise NonRationalPoles
    (the defect) or exit 2 (the defect fixed); any other outcome is a wrong
    answer, counted in `res`."""
    outcomes = []
    for argv in KNOWN_DEFECT_PROBES:
        with contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv, out=io.StringIO())
                outcomes.append("exit 2" if code == 2 else f"exit {code}")
            except riccati.NonRationalPoles:
                outcomes.append("NonRationalPoles")
            except Exception as exc:
                outcomes.append(f"raised {type(exc).__name__}")
    if any(o not in ("NonRationalPoles", "exit 2") for o in outcomes):
        res.fail(-1, f"known-defect probes {list(KNOWN_DEFECT_PROBES)}: {outcomes}")
    return f"{outcomes.count('NonRationalPoles')} of {len(outcomes)} probes raise NonRationalPoles"
