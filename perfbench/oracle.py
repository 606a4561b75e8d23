"""Correctness oracle of the benchmark, independent of the code it checks.

The expected invariants of a skew Sturmian pair never come from the
library: the restricted Bezout pair is b = q^-1 mod p, a = (bq - 1)/p, and
the anomaly size of a generated sequence is recomputed from its symbols by
a linear scan rather than by the library's window search.
"""

from __future__ import annotations


def bezout(q: int, p: int) -> tuple[int, int]:
    """The (a, b) with 0 <= a < q, 0 < b <= p and bq - ap = 1."""
    b = pow(q, -1, p) if p > 1 else 1
    return (b * q - 1) // p, b


def expected_invariants(q: int, p: int, stype: str) -> tuple[int, int]:
    """(least period, anomaly size) of the skew Sturmian sequence of
    frequency q/p: p+q and a+b for type S, p+q-(a+b) for type S'."""
    a, b = bezout(q, p)
    return p + q, a + b if stype == "S" else p + q - (a + b)


def anomaly_size(w: tuple[int, ...], v: tuple[int, ...]) -> int:
    """Anomaly size of ... w w [v] w w ... in linear time.

    l is the first index at which the sequence departs from its left tail,
    r the longest suffix of v that agrees with the right tail read
    backwards; the answer is the least L = |v| (mod N) with
    L >= max(1, |v| - l - r).
    """
    n, vl = len(w), len(v)
    seq = v + w
    l = next(k for k in range(vl + n) if seq[k] != w[k % n])
    r = 0
    while r < vl and v[vl - 1 - r] == w[(-1 - r) % n]:
        r += 1
    need = max(1, vl - l - r)
    return need + (vl - need) % n

