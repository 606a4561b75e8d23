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

    Computed by the extended Euclidean algorithm followed by translation
    into the stated ranges.
    """
    if p <= 0 or q <= 0:
        raise NonPositive(f"need positive integers, got q={q}, p={p}")
    if p + q > SUM_LIMIT:
        raise InputTooLarge(f"p + q = {p + q} exceeds the supported bound {SUM_LIMIT}")
    if math.gcd(p, q) != 1:
        raise NotCoprime(f"gcd({p}, {q}) = {math.gcd(p, q)} != 1")
    # b*q - a*p = 1 with b = x0 + t*p, a = t*q - y0 for the egcd solution
    # q*x0 + p*y0 = 1; pick the t putting b in (0, p].
    x0, y0 = _egcd(q, p)
    t = (p - x0) // p  # smallest t with x0 + t*p >= 1; then b <= p as well
    b = x0 + t * p
    a = t * q - y0
    return BezoutPair(q=q, p=p, a=a, b=b)


def _egcd(q: int, p: int) -> tuple[int, int]:
    """(x, y) with q*x + p*y = gcd(q, p)."""
    old_r, r = q, p
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        k = old_r // r
        old_r, r = r, old_r - k * r
        old_x, x = x, old_x - k * x
        old_y, y = y, old_y - k * y
    return old_x, old_y
