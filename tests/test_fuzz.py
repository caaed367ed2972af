"""Fuzzed command lines: every input ends in exit 0, 2 or 3, never in a
traceback.

The texts mix well-formed values (triples, Moebius entries, expressions
built by a grammar, coefficient functions of real triangle equations) with
raw strings over the characters those options use.  Every value is passed
as --option=value, so a leading '-' reaches the verb rather than argparse.
"""

import contextlib
import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from triform.cli import main
from triform.schwarzian import TriangleParams, build_triangular_R

# Derandomized, so the gate sees the same examples on every run; raise
# max_examples and drop derandomize to hunt for new crashes.
FUZZ = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

small_ints = st.integers(-12, 12).map(str)
fractions = st.tuples(st.integers(-12, 12), st.integers(-3, 12)).map(lambda t: f"{t[0]}/{t[1]}")
numbers = st.one_of(
    small_ints,
    fractions,
    st.sampled_from(["inf", "INF", "0.5", "1e3", "2e-2", "1e999999", "", " ", "x", "1/0"]),
    st.text(alphabet="0123456789/.-+e_ inf", max_size=10),
)
triangles = st.one_of(
    st.lists(numbers, min_size=3, max_size=3).map(",".join),
    st.lists(numbers, min_size=0, max_size=5).map(",".join),
)
moebius = st.one_of(
    st.lists(small_ints, min_size=4, max_size=4).map(",".join),
    st.lists(numbers, min_size=0, max_size=6).map(",".join),
)


def _grammar_exprs():
    atoms = st.one_of(st.just("y"), st.integers(0, 30).map(str))

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map(
                lambda t: f"({t[0]} {t[1]} {t[2]})"
            ),
            st.tuples(inner, st.integers(0, 8)).map(lambda t: f"({t[0]})^{t[1]}"),
            inner.map(lambda s: f"-{s}"),
        )

    return st.recursive(atoms, extend, max_leaves=8)


def _triangle_exprs():
    """R(y) of a triangle equation, so recognition, the table and the oracle
    all run on expression input."""
    param = st.one_of(
        st.integers(1, 9).map(str),
        st.just("inf"),
        st.tuples(st.integers(1, 7), st.integers(2, 5)).map(lambda t: f"{t[0]}/{t[1]}"),
    )

    def render(slots):
        return build_triangular_R(TriangleParams.parse(",".join(slots))).render("y")

    return st.lists(param, min_size=3, max_size=3).map(render)


exprs = st.one_of(
    _grammar_exprs(),
    _triangle_exprs(),
    st.text(alphabet="y0123456789+-*/^() x²¹", max_size=24),
    st.sampled_from(["(y+1)^3000", "((y+1)^60)^60", "2^20000", "y^99999999999", "1/0", "1/(y-y)"]),
)
sources = st.one_of(
    triangles.map(lambda t: [f"--triangle={t}"]),
    exprs.map(lambda e: [f"--expr={e}"]),
)
moebius_opt = st.one_of(st.just([]), moebius.map(lambda m: [f"--moebius={m}"]))
degree_bounds = st.one_of(st.just([]), st.integers(-2, 12).map(lambda d: [f"--degree-bound={d}"]))


def run(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main(argv + ["--json"], out=io.StringIO())
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code
    return code, err.getvalue()


def assert_clean(argv):
    code, err = run(argv)
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)


@FUZZ
@given(sources, moebius_opt, st.booleans(), degree_bounds)
def test_analyze(source, moebius_arg, oracle, degree_bound):
    oracle_arg = ["--oracle"] if oracle else []
    assert_clean(["analyze", *source, *moebius_arg, *oracle_arg, *degree_bound])


@FUZZ
@given(sources, moebius_opt, degree_bounds)
def test_oracle(source, moebius_arg, degree_bound):
    assert_clean(["oracle", *source, *moebius_arg, *degree_bound])


@FUZZ
@given(
    st.one_of(st.just([]), sources),
    st.one_of(st.just([]), numbers.map(lambda v: [f"--lambda0={v}"])),
    st.one_of(st.just([]), exprs.map(lambda e: [f"--a0={e}"])),
    st.one_of(st.just([]), st.integers(-8, 4).map(lambda t: [f"--truncation={t}"])),
)
def test_series_check(source, lambda0, a0, truncation):
    assert_clean(["series-check", *source, *lambda0, *a0, *truncation])


# --bound only over a small range: the sweep decides every hyperbolic
# integer triple up to the bound, about bound^3 / 6 of them, by design.
@FUZZ
@given(st.integers(-3, 14), st.booleans())
def test_sweep_bound(bound, cross_check):
    assert_clean(["sweep", f"--bound={bound}", *(["--cross-check"] if cross_check else [])])
