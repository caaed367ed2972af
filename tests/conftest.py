"""Shared generators for randomized exact-arithmetic tests, and a check
that the CLI's JSON writer matches json.dumps in every test.

Everything is seeded, so failures reproduce; hypothesis is used where a
shrinkable counterexample is worth more than raw volume.
"""

import json
import random

import pytest

import triform.cli as cli
from triform.polynomials import Poly, RatFunc
from triform.scalars import Q


@pytest.fixture(autouse=True)
def json_writer_matches_json_dumps(monkeypatch):
    """Every document the CLI writes in any test is also encoded by
    json.dumps(doc, indent=2), and the bytes must be the same."""
    write = cli._json

    def checked(value, pad="\n"):
        text = write(value, pad)
        if pad == "\n":  # a whole document, not a nested value
            assert text == json.dumps(value, indent=2)
        return text

    monkeypatch.setattr(cli, "_json", checked)


def rf(num, den=(1,)) -> RatFunc:
    """The RatFunc num/den from coefficient lists, constant term first."""
    return RatFunc(Poly(num), Poly(den))


def random_poly(rng: random.Random, max_deg: int = 3, zero_ok: bool = True) -> Poly:
    deg = rng.randint(0, max_deg)
    coeffs = [Q(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(deg + 1)]
    p = Poly(coeffs)
    if p.is_zero and not zero_ok:
        return Poly([Q(rng.randint(1, 6))])
    return p


def random_ratfunc(rng: random.Random, max_deg: int = 3, zero_ok: bool = True) -> RatFunc:
    num = random_poly(rng, max_deg, zero_ok=zero_ok)
    den = random_poly(rng, max_deg, zero_ok=False)
    return RatFunc(num, den)


def random_nonconstant_ratfunc(rng: random.Random, max_deg: int = 3) -> RatFunc:
    while True:
        g = random_ratfunc(rng, max_deg)
        if not g.derivative().is_zero:
            return g


@pytest.fixture
def rng():
    return random.Random(20260823)
