"""Exact symbolic toolkit for Schwarzian equations in triangular form.

Decides whether the Riccati equation attached to a triangular Schwarzian
equation admits algebraic solutions (via the 15-row Kimura table and the
odd-sum test), cross-checks the verdict with an exact rational-solution
oracle, and evaluates the leading term of the Puiseux-series reduction that
turns the verdict into the absence of order-two differential subvarieties.
"""

from .scalars import INF, ExtRational, Q, Refused, ZeroParameter
from .polynomials import NotSplitOverRationals, Poly, RatFunc
from .schwarzian import (
    Moebius,
    NotTriangular,
    SingularMoebius,
    TriangleParams,
    build_triangular_R,
    moebius_pullback,
    recognize_triangular,
)
from .kimura import (
    KimuraVerdict,
    condition_one,
    condition_two,
    decide_condition_ric,
    verify_witness,
)
from .riccati import (
    ConsistencyReport,
    OracleResult,
    RiccatiEq,
    cross_check,
    rational_solutions,
)
from .puiseux import leading_constraints
from .parser import parse_expr, parse_ratfunc, print_expr

__version__ = "0.1.0"
