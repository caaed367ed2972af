"""Spans and counters recorded from outside the triform package.

The tracer replaces public functions and methods of triform with wrappers
that record a span per call (name, start, end, parent span, item id) or
just count calls.  A function that another module imported by name has
several bindings (``triform.riccati.decide_condition_ric`` is the same
object as ``triform.kimura.decide_condition_ric``), so every binding of
the original object in every triform module is replaced.

Spans are kept in flat arrays while the run lasts and written out once at
the end.  Calls made while ``active`` is false, such as the benchmark's
own output checks, are neither recorded nor counted.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

# (span name, module, attribute path) for every wrapped entry point
SPANS = (
    ("kimura.enumerate", "triform.kimura", "hyperbolic_integer_triples"),
    ("kimura.decide", "triform.kimura", "decide_condition_ric"),
    ("schwarzian.inverses", "triform.schwarzian", "TriangleParams.inverses"),
    ("schwarzian.build_R", "triform.schwarzian", "build_triangular_R"),
    ("schwarzian.recognize", "triform.schwarzian", "recognize_triangular"),
    ("schwarzian.pullback", "triform.schwarzian", "moebius_pullback"),
    ("polynomials.factor", "triform.polynomials", "linear_factorization"),
    ("riccati.cross_check", "triform.riccati", "cross_check"),
    ("riccati.oracle", "triform.riccati", "rational_solutions"),
    ("riccati.substitution", "triform.riccati", "RiccatiEq.residual"),
    ("parser.parse", "triform.parser", "parse_ratfunc"),
    ("puiseux.residual", "triform.puiseux", "residual"),
    ("puiseux.constraints", "triform.puiseux", "leading_constraints"),
    ("cli.main", "triform.cli", "main"),
)
GENERATORS = {"kimura.enumerate"}

# counted, not spanned: these run thousands of times per item
COUNTS = (
    ("polynomials.gcd_calls", "triform.polynomials", "Poly.gcd"),
    ("polynomials.divmod_calls", "triform.polynomials", "Poly.__divmod__"),
)

# combo statuses (riccati.rational_solutions) that reached the linear solve
_SOLVED_PREFIXES = ("no auxiliary polynomial", "family", "candidate failed", "solution")


class Tracer:
    """Spans and counts of one traced phase; see the module docstring."""

    def __init__(self):
        self.names: list = []
        self._name_id: dict = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.item = array("l")
        self._stack = [-1]
        self.current_item = -1
        self.active = False
        self.counts: Counter = Counter()
        self._restore: list = []

    # -- recording -------------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.item.append(self.current_item)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _intern(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def _span_wrapper(self, name: str, fn):
        tr, nid = self, self._intern(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            idx = tr._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tr._close(idx)
            tr._observe(name, result)
            return result

        return wrapper

    def _generator_wrapper(self, name: str, fn):
        """One span per next() on the generator, so consumer time is excluded."""
        tr, nid = self, self._intern(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = tr._open(nid) if tr.active else None
                try:
                    value = next(it)
                except StopIteration:
                    return
                finally:
                    if idx is not None:
                        tr._close(idx)
                yield value

        return wrapper

    def _count_wrapper(self, name: str, fn):
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tr.active:
                tr.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe(self, name: str, result) -> None:
        """Counters read from returned values."""
        if name == "kimura.decide":
            self.counts["kimura.decide_calls"] += 1
            if not result.holds:
                self.counts["kimura.witnesses"] += 1
        elif name == "riccati.oracle":
            cert = result.certificate
            solved = [c for c in cert.combos if c["status"].startswith(_SOLVED_PREFIXES)]
            self.counts["riccati.combos"] += len(cert.combos)
            self.counts["riccati.combos_pruned"] += sum(
                c["status"].startswith("pruned") for c in cert.combos
            )
            self.counts["riccati.combos_solved"] += len(solved)
            self.counts["riccati.solutions"] += len(result.solutions)
            self.counts["riccati.families"] += len(cert.families)
            for c in solved:
                d = int(c["degree"])
                if d > self.counts["riccati.max_aux_degree"]:
                    self.counts["riccati.max_aux_degree"] = d

    # -- installation ------------------------------------------------------------

    def _wrapper(self, name: str, fn, counted: bool):
        if counted:
            return self._count_wrapper(name, fn)
        if name in GENERATORS:
            return self._generator_wrapper(name, fn)
        return self._span_wrapper(name, fn)

    def install(self) -> None:
        """Replace every binding of each traced entry point in triform."""
        import triform  # noqa: F401  (loads every submodule)

        modules = [m for n, m in sys.modules.items() if n == "triform" or n.startswith("triform.")]
        for counted, table in ((False, SPANS), (True, COUNTS)):
            for name, module, path in table:
                owner = sys.modules[module]
                *cls_path, attr = path.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                wrapped = self._wrapper(name, original, counted)
                if cls_path:  # a method: its class is the only binding
                    self._replace(owner, attr, original, wrapped)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._replace(mod, key, original, wrapped)

    def _replace(self, owner, key, original, wrapped) -> None:
        setattr(owner, key, wrapped)
        self._restore.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- results -------------------------------------------------------------------

    def totals(self):
        """Per span name: (calls, total seconds, self seconds)."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls: Counter = Counter()
        total = defaultdict(float)
        self_s = defaultdict(float)
        for i in range(n):
            name = self.names[self.name[i]]
            calls[name] += 1
            total[name] += dur[i]
            self_s[name] += dur[i] - child[i]
        return calls, total, self_s

    def write(self, path: Path) -> None:
        """All spans as gzipped CSV: name,start,end,parent,item (times in s)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span,name,start,end,parent,item\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.name[i]]},{self.start[i] - t0:.9f},"
                    f"{self.end[i] - t0:.9f},{self.parent[i]},{self.item[i]}\n"
                )


def layer_metrics(tracer: Tracer, output_bytes: int) -> dict:
    """The per-layer metrics of one traced phase, by name (see BENCHMARK.json)."""
    calls, total, self_s = tracer.totals()
    c = tracer.counts
    m = {
        "kimura.enumerate_s": total["kimura.enumerate"],
        "kimura.decide_s": total["kimura.decide"],
        "kimura.decide_calls": c["kimura.decide_calls"],
        "kimura.witnesses": c["kimura.witnesses"],
        "schwarzian.inverses_s": total["schwarzian.inverses"],
        "schwarzian.build_R_s": total["schwarzian.build_R"],
        "schwarzian.recognize_s": total["schwarzian.recognize"],
        "schwarzian.pullback_s": total["schwarzian.pullback"],
        "polynomials.factor_s": total["polynomials.factor"],
        "polynomials.gcd_calls": c["polynomials.gcd_calls"],
        "polynomials.divmod_calls": c["polynomials.divmod_calls"],
        "riccati.oracle_s": total["riccati.oracle"],
        "riccati.substitution_s": total["riccati.substitution"],
        "riccati.oracle_self_s": self_s["riccati.oracle"],
        "riccati.combos": c["riccati.combos"],
        "riccati.combos_pruned": c["riccati.combos_pruned"],
        "riccati.combos_solved": c["riccati.combos_solved"],
        "riccati.solutions": c["riccati.solutions"],
        "riccati.families": c["riccati.families"],
        "riccati.max_aux_degree": c["riccati.max_aux_degree"],
        "riccati.solve_ratio": (
            c["riccati.combos_solved"] / c["riccati.combos"] if c["riccati.combos"] else 0.0
        ),
        "parser.parse_s": total["parser.parse"],
        "puiseux.residual_s": total["puiseux.residual"],
        "puiseux.constraints_s": total["puiseux.constraints"],
        "cli.self_s": self_s["cli.main"],
        "cli.output_bytes": output_bytes,
        "trace.spans": len(tracer.start),
    }
    return m
