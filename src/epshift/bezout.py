"""Restricted Bézout identities.

For coprime positive p, q there is exactly one pair (a, b) with
0 <= a < q, 0 < b <= p and b*q - a*p = 1; moreover gcd(a+b, p+q) = 1.
The asymmetry of the ranges (a may be 0, b may not) is deliberate and is
preserved exactly.
"""

from __future__ import annotations

import math
from .errors import InputTooLarge, NonPositive, NotCoprime
from .words import Value

# Inputs are ordered (q, p): q is the frequency numerator downstream.
SUM_LIMIT = 10**6


class BezoutPair(Value):
    q: int
    p: int
    a: int
    b: int

    def __post_init__(self) -> None:
        if not (0 <= self.a < self.q and 0 < self.b <= self.p):
            raise ValueError(f"coefficients out of range: {self}")
        if self.b * self.q - self.a * self.p != 1:
            raise ValueError(f"b*q - a*p != 1: {self}")


def restricted_bezout(q: int, p: int) -> BezoutPair:
    """The unique (a, b) with 0 <= a < q, 0 < b <= p, b*q - a*p = 1.

    b is the inverse of q mod p, taken in (0, p] (for p = 1 it is p), and
    then a = (b*q - 1) / p is exact and lies in [0, q).
    """
    if p <= 0 or q <= 0:
        raise NonPositive(f"need positive integers, got q={q}, p={p}")
    if p + q > SUM_LIMIT:
        raise InputTooLarge(f"p + q = {p + q} exceeds the supported bound {SUM_LIMIT}")
    if math.gcd(p, q) != 1:
        raise NotCoprime(f"gcd({p}, {q}) = {math.gcd(p, q)} != 1")
    b = pow(q, -1, p) or p
    return BezoutPair(q=q, p=p, a=(b * q - 1) // p, b=b)
