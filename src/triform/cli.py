"""Command-line front end.

Verbs:
  analyze       full verdict pipeline for a parameter triple or expression
  sweep         decide every hyperbolic integer triple up to a bound (at
                most MAX_SWEEP_BOUND); with --cross-check, also run the
                rational oracle on each triple and report the count of each
                consistency status under "oracle" (any CONTRADICTION exits 3)
  series-check  Puiseux leading-term analysis for a coefficient function
  oracle        rational solutions of the associated Riccati equation

Machine-readable output (--json) is a single JSON object per invocation
with fixed field order {input, normalized, triangular, hyperbolic,
kimura, oracle, conclusion, citations}, suitable for golden files;
series-check appends "series" and sweep --full appends "table" after
"citations".

Exit codes: 0 conclusion reached, 2 a triform.Refused (an input error or a
declared size or work limit), 3 internal consistency failure (a cross-check
contradiction); any other error is a bug and ends in a traceback.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import stat
import sys
from typing import List, Optional, Tuple

from . import kimura, puiseux, riccati
from .parser import parse_ratfunc
from .polynomials import RatFunc, height
from .scalars import MAX_BITS, Q, Refused, parse_q
from .schwarzian import (
    Moebius,
    NotTriangular,
    TriangleParams,
    build_triangular_R,
    moebius_pullback,
    pullback_bits,
    recognize_triangular,
)

NO_ORDER_TWO_SUBVARIETIES = "NoOrderTwoSubvarieties"
ALGEBRAIC_SOLUTION_INDICATED = kimura.ALGEBRAIC_SOLUTION_INDICATED
NOT_TRIANGULAR = "NotTriangular"
INDETERMINATE = "IndeterminateIrrationalParameters"

CITATIONS = {
    "table": (
        "Decision table: Kimura's classification of algebraic solutions of "
        "the hypergeometric-type Riccati equation (Kimura 1969)."
    ),
    "liouvillian": (
        "Rational-solution oracle: the rational branch of Kovacic's "
        "algorithm for Liouvillian solutions of second-order linear "
        "equations (Kovacic 1986)."
    ),
    "conclusion": (
        "No-order-two-subvarieties conclusion: Puiseux-series reduction of "
        "the Schwarzian equation to its associated Riccati equation; the "
        "further step to strong minimality is model-theoretic and is not "
        "re-proved by this tool."
    ),
}

# the fixed field order of every output document
FIELDS = (
    "input", "normalized", "triangular", "hyperbolic", "kimura", "oracle", "conclusion", "citations"
)


def _witness_json(w) -> Optional[dict]:
    if w is None:
        return None
    if isinstance(w, kimura.LatticeWitness):
        return {
            "condition": 1,
            "row": w.row,
            "permutation": list(w.permutation),
            "signs": list(w.signs),
            "integers": list(w.integers),
        }
    return {"condition": 2, "signs": list(w.signs), "value": w.value}


# Declared work limit of series-check's --a0: its degree (numerator plus
# denominator) times the bit size of its largest integer.  Squaring a0 sets
# the cost.  Measured on the worst polynomial shape, degree 1000: at the
# limit, a0 = (y+1)^404 (y^596 + 1) runs series-check --lambda0 0 in about
# 0.6 s on a 2-core x86-64 with Python 3.11, and (2*y+3)^1000, degree 1000
# times 2,317 bits, took 13 s.
MAX_A0_WORK = 400_000

# Declared limit of sweep's --bound, checked before the enumeration starts;
# the triples grow as bound^3 / 6.  Measured at the limit, 1,353,194
# triples, in a fresh process on a 2-core x86-64 with Python 3.11: the plain
# sweep takes 2.8-3.2 s in 17 MiB, --cross-check 73-88 s in 17 MiB (past the
# 60 s criterion 4 allows the bound-100 cross-check), and --full 4.0-4.8 s
# in text and 3.4-3.9 s with --json (4 runs, output to /dev/null), for its
# 113 MB of output, in 18.3-18.7 MiB.  200 lets the plain sweep, the
# paper's check, reach twice criterion 1's bound.
MAX_SWEEP_BOUND = 200


def _parse_option(name: str, parse, text: str):
    """parse(text), with a refusal reworded to name the option --name."""
    try:
        return parse(text)
    except Refused as exc:
        raise Refused(f"bad --{name} value: {exc}") from exc


def _check_bits(option: str, what: str, bits: int) -> None:
    if bits > MAX_BITS:
        raise Refused(f"bad --{option} value: {what} {bits} bits, above the limit {MAX_BITS}")


def _resolve_input(args) -> Tuple[Optional[TriangleParams], RatFunc, dict]:
    """Build (params-if-known, R, input-echo) from --triangle/--expr, with
    the integers of R checked against MAX_BITS on every route."""
    if args.triangle is not None and args.expr is not None:
        raise Refused("only one of --triangle or --expr may be given")
    if args.triangle is not None:
        params = _parse_option("triangle", TriangleParams.parse, args.triangle)
        R = build_triangular_R(params)
        echo = {"triangle": args.triangle}
    elif args.expr is not None:
        R = _parse_option("expr", parse_ratfunc, args.expr)
        params = None
        echo = {"expr": args.expr}
    else:
        raise Refused("one of --triangle or --expr is required")
    if args.moebius is not None:
        m = _parse_option("moebius", Moebius.parse, args.moebius)
        _check_bits("moebius", "the pullback may reach integers of", pullback_bits(R, m))
        R = moebius_pullback(R, m)
        params = None  # parameters must be re-recognized after the pullback
        echo["moebius"] = args.moebius
    # blame the last option that shaped R
    _check_bits(next(reversed(echo)), "R(y) has integers of", height(R).bit_length())
    return params, R, echo


def _recognize(R: RatFunc):
    """(triangular-json, params-or-None)."""
    try:
        rec = recognize_triangular(R)
    except NotTriangular as exc:
        info = {"recognized": False, "reason": str(exc)}
        if exc.inverse_squares is not None:
            info["inverse_squares"] = [str(q) for q in exc.inverse_squares]
        return info, None
    info = {
        "recognized": True,
        "inverse_squares": [str(q) for q in rec.inverse_squares],
        "params_up_to_sign": [str(p) for p in rec.params],
    }
    return info, rec.triangle_params() if rec.has_exact_params else None


def _document(echo: dict, R: Optional[RatFunc], **fields) -> dict:
    """The output document: the eight fixed fields in their order, None
    unless given, then any further fields in the order given."""
    doc = dict.fromkeys(FIELDS)
    doc.update(input=echo, normalized=None if R is None else R.render("y"), **fields)
    return doc


def cmd_analyze(args, out) -> int:
    params, R, echo = _resolve_input(args)
    triangular, recognized = _recognize(R)
    if params is None:
        params = recognized

    if params is None:
        doc = _document(
            echo, R, triangular=triangular,
            conclusion=INDETERMINATE if triangular["recognized"] else NOT_TRIANGULAR,
            citations=[CITATIONS["table"]],
        )
        return _emit(doc, args, out)

    oracle_doc = None
    status = None
    if args.oracle:
        report = riccati.cross_check(params, degree_bound=args.degree_bound)
        verdict, status = report.verdict, report.status
        oracle_doc = {
            "solutions": [u.render("y") for u in report.oracle.solutions],
            "searched": len(report.oracle.certificate.combos),
            "consistency": report.status,
            "note": report.note,
        }
    else:
        verdict = kimura.decide_condition_ric(params)
    doc = _document(
        echo, R, triangular=triangular, hyperbolic=params.is_hyperbolic,
        kimura={"outcome": verdict.outcome, "witness": _witness_json(verdict.witness)},
        oracle=oracle_doc,
        conclusion=NO_ORDER_TWO_SUBVARIETIES if verdict.holds else ALGEBRAIC_SOLUTION_INDICATED,
        citations=[CITATIONS["table"], CITATIONS["liouvillian"], CITATIONS["conclusion"]],
    )
    return _emit(doc, args, out, 3 if status == riccati.CONTRADICTION else 0)


def cmd_sweep(args, out) -> int:
    if args.bound < 2:
        raise Refused("bad --bound value: bound must be at least 2")
    if args.bound > MAX_SWEEP_BOUND:
        raise Refused(f"bad --bound value: {args.bound} is above the limit {MAX_SWEEP_BOUND}")
    statuses = dict.fromkeys((riccati.CONSISTENT, riccati.INCONCLUSIVE, riccati.CONTRADICTION), 0)
    contradictions = []
    holds = bytearray()  # under --full, one byte per triple: verdict.holds
    total = fired = 0
    for p in kimura.hyperbolic_integer_triples(args.bound):
        if args.cross_check:
            report = riccati.cross_check(p, args.degree_bound)
            statuses[report.status] += 1
            if report.status == riccati.CONTRADICTION:
                contradictions.append(str(p))
            verdict = report.verdict
        else:
            verdict = kimura.decide_condition_ric(p)
        total += 1
        fired += not verdict.holds
        if args.full:
            holds.append(verdict.holds)
    doc = _document(
        {"bound": args.bound}, None, hyperbolic=True,
        kimura={
            "outcome": ALGEBRAIC_SOLUTION_INDICATED if fired else kimura.CONDITION_RIC_HOLDS,
            "witness": None,
        },
        conclusion=(
            f"{fired} of {total} triples fired a witness"
            if fired
            else f"all {total} hyperbolic triples: ConditionRicHolds"
        ),
        citations=[CITATIONS["table"], CITATIONS["conclusion"]],
    )
    if args.cross_check:
        doc["input"]["degree_bound"] = args.degree_bound
        doc["oracle"] = {"statuses": statuses, "contradictions": contradictions}
        doc["citations"].insert(1, CITATIONS["liouvillian"])
    table = _table_rows(args.bound, holds) if args.full else None
    return _emit(doc, args, out, 3 if fired or contradictions else 0, table)


def _table_rows(bound: int, holds: bytearray):
    """The --full table, (triangle, outcome) per triple: the enumerator runs
    again for the texts, and each outcome is the one the deciding pass kept.
    A triple is named, as str(p) names it, from the inverse pairs the
    enumerator holds: (1, n) for the integer n and (0, 1) for inf."""
    outcomes = (ALGEBRAIC_SOLUTION_INDICATED, kimura.CONDITION_RIC_HOLDS)
    slot = ["", "inf"] + [str(n) for n in range(2, bound + 1)]  # by denominator
    for p, h in zip(kimura.hyperbolic_integer_triples(bound), holds, strict=True):
        (_, a), (_, b), (_, c) = p.pairs
        yield f"({slot[a]},{slot[b]},{slot[c]})", outcomes[h]


def render_w0(c: RatFunc, cutoff: int) -> str:
    """The truncated series c*w^0 + O(w^cutoff), with c in parentheses when
    its text has a slash or a space."""
    text = c.render("y")
    if "/" in text or " " in text:
        text = f"({text})"
    return f"{text} + O(w^({cutoff}))"


def cmd_series_check(args, out) -> int:
    if args.truncation > 0:
        # a cutoff above 0 would drop the leading term a0 * w^0 itself
        raise Refused(f"bad --truncation value: {args.truncation} is above 0")
    lambda0 = Q(0) if args.lambda0 is None else _parse_option("lambda0", parse_q, args.lambda0)
    if args.triangle is None and args.expr is None:
        if args.lambda0 is None:
            raise Refused("one of --triangle, --expr, or --lambda0 is required")
        if args.moebius is not None:
            raise Refused("--moebius needs --triangle or --expr")
        R = RatFunc.zero()
        echo = {"lambda0": args.lambda0}
    else:
        _, R, echo = _resolve_input(args)
        if args.lambda0 is not None:
            echo["lambda0"] = args.lambda0

    a0: Optional[RatFunc] = None
    if args.a0 is not None:
        a0 = _parse_option("a0", parse_ratfunc, args.a0)
        if a0.is_zero:
            raise Refused("bad --a0 value: the leading coefficient must be nonzero")
        degree, bits = a0.num.degree + a0.den.degree, height(a0).bit_length()
        if degree * bits > MAX_A0_WORK:
            raise Refused(
                f"bad --a0 value: degree {degree} times {bits} bits is {degree * bits}, "
                f"above the limit {MAX_A0_WORK}"
            )
        echo["a0"] = args.a0
    elif lambda0 == 0:
        # try the oracle: a rational Riccati solution u gives a0 = 2u
        found = riccati.rational_solutions(riccati.RiccatiEq(R), degree_bound=args.degree_bound)
        nonzero = [u for u in found.solutions if not u.is_zero]
        if nonzero:  # u = 0 gives no leading term
            a0 = nonzero[0].scale(Q(2))

    report = puiseux.leading_constraints(lambda0, a0, R)
    series = {
        "lambda0": str(report.lambda0),
        "a0": None if report.a0 is None else report.a0.render("y"),
        "obstruction_exponent": (
            None if report.obstruction_exponent is None else str(report.obstruction_exponent)
        ),
        "satisfied": report.satisfied,
        "truncation": str(args.truncation),
    }
    if report.constraint_residual is not None:
        # E(U) for U = a0 * w^0 + O(w^truncation) is the constraint at w^0
        series["residual"] = render_w0(report.constraint_residual, args.truncation)
    doc = _document(
        echo, R, conclusion=report.conclusion, citations=[CITATIONS["conclusion"]], series=series
    )
    return _emit(doc, args, out)


def cmd_oracle(args, out) -> int:
    params, R, echo = _resolve_input(args)
    eq = riccati.RiccatiEq(R)
    result = riccati.rational_solutions(eq, degree_bound=args.degree_bound)
    found = len(result.solutions)
    if not result.complete:
        conclusion = (
            f"{found} rational solution(s) with auxiliary degree <= {args.degree_bound}; "
            "search cut by --degree-bound, higher degrees not searched"
        )
    elif found:
        conclusion = f"{found} rational solution(s)"
    else:
        conclusion = "no rational solutions (rational branch exhaustive)"
    oracle_doc = {
        "equation": eq.render(),
        "solutions": [u.render("y") for u in result.solutions],
        "searched": len(result.certificate.combos),
        "families": list(result.certificate.families),
        "notes": list(result.certificate.notes),
    }
    doc = _document(
        echo, R, oracle=oracle_doc, conclusion=conclusion, citations=[CITATIONS["liouvillian"]]
    )
    return _emit(doc, args, out)


def _check_out(path: str) -> None:
    """Refuse an --out that is empty or a directory, or whose directory is
    missing or not a directory, before any work starts, with the message
    open() would give; creates and truncates nothing."""
    if not path:
        code = errno.ENOENT  # open("") finds no file
    elif os.path.isdir(path):
        code = errno.EISDIR
    else:
        try:
            if stat.S_ISDIR(os.stat(os.path.dirname(path) or ".").st_mode):
                return
            code = errno.ENOTDIR
        except OSError as exc:
            code = exc.errno
    raise Refused(f"bad --out value: {OSError(code, os.strerror(code), path)}")


def _emit(doc: dict, args, out, code: int = 0, table=None) -> int:
    """Write doc as JSON (by _json) or text and return the exit code.

    A table, an iterable of (triangle, outcome) rows, is written row by row
    as doc's trailing "table" field, in the bytes that _json or _human would
    give for doc holding the list of rows, without building either.
    """
    if not args.json:
        chunks = (line + "\n" for line in _human(doc, table or ()))
    elif table is None:
        chunks = (_json(doc), "\n")
    else:
        chunks = _json_with_table(doc, table)
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                for chunk in chunks:
                    fh.write(chunk)
        except OSError as exc:
            raise Refused(f"bad --out value: {exc}") from exc
    else:
        for chunk in chunks:
            out.write(chunk)
    return code


_quote = json.encoder.encode_basestring_ascii  # json.dumps(str), the C escaper


def _json(value, pad: str = "\n") -> str:
    """json.dumps(value, indent=2) for the document shapes (dict, list, str,
    int, bool and None), nested at the line break and indent pad.  json
    encodes in pure Python whenever indent is set; this does the same walk
    with the C string escaper and int.__repr__."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{_quote(k)}: {_json(v, inner)}" for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(value, list):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([_json(v, inner) for v in value]) + pad + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_with_table(doc: dict, table):
    """_json(doc) with its "table" list appended, in pieces: the head, then
    one piece per row; each distinct outcome is escaped once."""
    yield _json(doc)[: -len("\n}")] + ',\n  "table": ['
    quoted = {}
    sep = "\n"
    for triangle, outcome in table:
        text = quoted.get(outcome) or quoted.setdefault(outcome, _quote(outcome))
        yield (
            f'{sep}    {{\n      "triangle": {_quote(triangle)},\n'
            f'      "outcome": {text}\n    }}'
        )
        sep = ",\n"
    yield "]\n}\n" if sep == "\n" else "\n  ]\n}\n"


def _human(doc: dict, table=()):
    """The text form of doc, line by line; table rows (triangle, outcome)
    go between the conclusion and the citations."""
    yield f"input:       {doc['input']}"
    if doc.get("normalized"):
        yield f"R(y)       = {doc['normalized']}"
    tri = doc.get("triangular")
    if tri is not None:
        if tri["recognized"]:
            yield (
                "triangular:  yes, inverse squares "
                + str(tuple(tri["inverse_squares"]))
                + ", parameters up to sign "
                + str(tuple(tri["params_up_to_sign"]))
            )
        else:
            yield f"triangular:  no ({tri['reason']})"
    if doc.get("hyperbolic") is not None:
        yield f"hyperbolic:  {'yes' if doc['hyperbolic'] else 'no'}"
    kim = doc.get("kimura")
    if kim is not None:
        yield f"kimura:      {kim['outcome']}"
        if kim["witness"] is not None:
            yield f"witness:     {kim['witness']}"
    orc = doc.get("oracle")
    if orc is not None and "statuses" in orc:
        counts = ", ".join(f"{n} {s}" for s, n in orc["statuses"].items())
        yield f"oracle:      {counts}"
        if orc["contradictions"]:
            yield f"contradicted: {', '.join(orc['contradictions'])}"
    elif orc is not None:
        sols = orc.get("solutions", [])
        yield (
            f"oracle:      {len(sols)} rational solution(s)"
            + (f": u = {'; u = '.join(sols)}" if sols else "")
        )
        if orc.get("consistency"):
            yield f"consistency: {orc['consistency']} ({orc['note']})"
    ser = doc.get("series")
    if ser is not None:
        yield f"lambda0:     {ser['lambda0']}"
        if ser.get("residual") is not None:
            yield f"residual:    {ser['residual']}"
    yield f"conclusion:  {doc['conclusion']}"
    for triangle, outcome in table:
        yield f"  {triangle}: {outcome}"
    for c in doc.get("citations", []):
        yield f"             [{c}]"


# Each verb's options, in the order --help lists them: (option, type,
# default, metavar, help), with type bool for a store_true flag.  Both
# build_arg_parser and the argv reader read this table.
_COMMON = (
    ("--json", bool, False, None, "machine-readable output"),
    ("--out", str, None, "FILE", "write output to FILE"),
    ("--degree-bound", int, 24, None, "oracle polynomial degree cap (default 24)"),
)
_INPUT = (
    ("--triangle", str, None, "A,B,C", "parameters, e.g. 2,3,7 or 1,inf,inf"),
    ("--expr", str, None, "EXPR", "coefficient function R(y)"),
    ("--moebius", str, None, "A,B,C,D", "pre-apply the change of variable z = (Ay+B)/(Cy+D)"),
)
_VERBS = {
    "analyze": (
        cmd_analyze,
        "full verdict pipeline",
        _COMMON + _INPUT + (("--oracle", bool, False, None, "also run the rational oracle"),),
    ),
    "sweep": (
        cmd_sweep,
        "decide all hyperbolic integer triples",
        _COMMON + (
            ("--bound", int, 100, None, "largest finite entry"),
            ("--full", bool, False, None, "include the full table"),
            (
                "--cross-check", bool, False, None,
                "also run the rational oracle on every triple and compare",
            ),
        ),
    ),
    "series-check": (
        cmd_series_check,
        "Puiseux leading-term analysis",
        _COMMON + _INPUT + (
            ("--lambda0", str, None, "P/Q", "leading exponent"),
            ("--a0", str, None, "EXPR", "leading coefficient"),
            (
                "--truncation", int, -5, None,
                "series cutoff exponent, at most 0 (default -5)",
            ),
        ),
    ),
    "oracle": (cmd_oracle, "rational Riccati solutions", _COMMON + _INPUT),
}


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="triform",
        description=(
            "Decide algebraic solvability of the Riccati equation attached "
            "to a triangular Schwarzian equation, and hence the absence of "
            "order-two differential subvarieties."
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for verb, (func, summary, options) in _VERBS.items():
        v = sub.add_parser(verb, help=summary)
        for option, kind, default, metavar, text in options:
            if kind is bool:
                v.add_argument(option, action="store_true", help=text)
            else:
                v.add_argument(option, type=kind, default=default, metavar=metavar, help=text)
        v.set_defaults(func=func)
    return ap


@functools.lru_cache(maxsize=1)
def _arg_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call rather than at import; parse_args
    leaves it unchanged and returns a fresh Namespace each time."""
    return build_arg_parser()


@functools.lru_cache(maxsize=1)
def _option_reader() -> dict:
    """Per verb, the Namespace fields before any option ({"command", "func"}
    and each option's default) and {option: (field, type)}, from _VERBS."""
    reader = {}
    for verb, (func, _, options) in _VERBS.items():
        defaults = {"command": verb, "func": func}
        fields = {}
        for option, kind, default, _, _ in options:
            field = option[2:].replace("-", "_")
            defaults[field] = default
            fields[option] = (field, kind)
        reader[verb] = (defaults, fields)
    return reader


def _read_argv(argv: List[str]) -> Optional[argparse.Namespace]:
    """The Namespace parse_args gives for argv, read straight off _VERBS, or
    None for argv that only argparse may answer.

    Read: a verb, then exact option strings, each a store_true flag without
    "=", or --opt=value, or --opt value with a value not starting with "-",
    where an int value converts; the last of a repeated option wins.
    Everything else is None, so that argparse writes every usage, help and
    error message: no verb or an unknown one, an abbreviation, -h, "--", a
    missing or "-"-led value, --opt=--, --flag=x, a failed int."""
    verb = _option_reader().get(argv[0]) if argv else None
    if verb is None:
        return None
    defaults, fields = verb
    values = dict(defaults)
    i, n = 1, len(argv)
    while i < n:
        option, eq, value = argv[i].partition("=")
        spec = fields.get(option)
        if spec is None:
            return None
        field, kind = spec
        if kind is bool:
            if eq:
                return None
            values[field] = True
        else:
            if not eq:
                i += 1
                if i == n or argv[i].startswith("-"):
                    return None
                value = argv[i]
            elif value == "--":  # argparse drops a "--" even after "="
                return None
            try:
                values[field] = kind(value)  # as argparse converts it
            except ValueError:
                return None
        i += 1
    return argparse.Namespace(**values)


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    argv = sys.argv[1:] if argv is None else argv
    args = _read_argv(argv)
    try:
        if args is None:
            args = _arg_parser().parse_args(argv)
            for field, value in vars(args).items():
                if value == []:  # argparse drops a "--" even after "=": --opt=-- is []
                    raise Refused(f"bad --{field.replace('_', '-')} value: '--' is not a value")
        if args.degree_bound < 0:
            raise Refused("--degree-bound must be nonnegative")
        if args.out is not None:
            _check_out(args.out)
        return args.func(args, out)
    except Refused as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
