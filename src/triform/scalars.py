"""Exact rational scalars and the extended value infinity.

All arithmetic in the toolkit runs over Q, represented by
fractions.Fraction; ``Q`` is the constructor used everywhere.  Polynomials
keep their own integer form (see polynomials.Poly) and build Q values only
at their edge.

ExtRational adds the single extra point "infinity" used for triangle
parameters: 1/inf = 0 and 1/q is q's inverse, both given as a reduced
integer pair (numerator, denominator > 0); 1/0 raises ZeroParameter.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

Q = Fraction


class Refused(ValueError):
    """A rejected input or a declared size or work limit: the CLI exits 2."""


class ZeroParameter(Refused):
    """A triangle parameter slot holds 0, which has no inverse."""


# Fraction("1e<n>") builds 10**n, unbounded in time and memory for a long
# exponent; input text may not write a power of ten above this.
MAX_EXPONENT = 1000
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)")  # Fraction's exponent grammar

# Declared size limit of input integers (exit 2 in the CLI), which keeps
# them under the 4300 digits Python will print.
MAX_BITS = 10_000

# Declared size limit of the integers in a computed result the CLI prints,
# such as an oracle solution or a series-check residual (exit 2 in the
# CLI).  Results can outgrow their input, so this is wider than MAX_BITS,
# but it stays under 4300 digits, that is 14,284 bits.
MAX_OUTPUT_BITS = 14_000


def parse_q(text: str) -> Fraction:
    """Q(text) for input text; any bad text, 1/0 included, and any value with
    an integer above MAX_BITS bits raise Refused."""
    m = _EXPONENT.search(text)
    try:
        exponent = abs(int(m.group(1))) if m else 0
        q = Q(text) if exponent <= MAX_EXPONENT else None
    except ZeroDivisionError as exc:
        raise Refused(f"zero denominator in {text!r}") from exc
    except ValueError as exc:  # an invalid literal, or more digits than int() reads
        raise Refused(str(exc)) from exc
    if q is None:
        raise Refused(f"exponent in {text!r} is above the limit {MAX_EXPONENT}")
    bits = max(abs(q.numerator), q.denominator).bit_length()
    if bits > MAX_BITS:
        raise Refused(f"an integer of {bits} bits is above the limit {MAX_BITS}")
    return q


def rational_sqrt(q) -> Optional[Fraction]:
    """Exact square root of a nonnegative rational, or None if irrational.

    Returns None (rather than raising) for negative input as well, so the
    caller can distinguish via a separate sign check when it cares.
    """
    if q < 0:
        return None
    rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if rn * rn != q.numerator or rd * rd != q.denominator:
        return None
    return Q(rn, rd)


@dataclass(frozen=True)
class ExtRational:
    """A rational number or the distinguished value infinity (value=None)."""

    value: Optional[Fraction]

    @staticmethod
    def of(x) -> "ExtRational":
        if isinstance(x, ExtRational):
            return x
        if x is None:
            return INF
        return ExtRational(Q(x))

    @staticmethod
    def parse(text: str) -> "ExtRational":
        """Parse 'p/q', 'p', or 'inf' (case-insensitive)."""
        t = text.strip()
        if t.lower() == "inf":
            return INF
        return ExtRational(parse_q(t))

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def inverse_pair(self) -> Tuple[int, int]:
        """1/x as a reduced pair (n, d) with d > 0; 1/inf is (0, 1)."""
        v = self.value
        if v is None:
            return (0, 1)
        n, d = v.numerator, v.denominator
        if n == 0:
            raise ZeroParameter("triangle parameter 0 has no inverse")
        return (d, n) if n > 0 else (-d, -n)

    def __str__(self) -> str:
        return "inf" if self.value is None else str(self.value)


INF = ExtRational(None)
