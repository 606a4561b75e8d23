from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from epshift.bezout import BezoutPair, restricted_bezout
from epshift.errors import InputTooLarge, NonPositive, NotCoprime


def brute_force(q, p):
    return [(a, b) for a in range(q) for b in range(1, p + 1) if b * q - a * p == 1]


def test_spec_examples():
    assert restricted_bezout(1, 1) == BezoutPair(q=1, p=1, a=0, b=1)
    assert restricted_bezout(2, 5) == BezoutPair(q=2, p=5, a=1, b=3)
    assert restricted_bezout(3, 5) == BezoutPair(q=3, p=5, a=1, b=2)


def test_swapped_pair_examples():
    # the coefficients for the swapped inputs (p, q) are (p - b, q - a)
    assert restricted_bezout(5, 2) == BezoutPair(q=5, p=2, a=2, b=1)
    assert restricted_bezout(1, 1) == BezoutPair(q=1, p=1, a=0, b=1)
    assert restricted_bezout(5, 3) == BezoutPair(q=5, p=3, a=3, b=2)


def test_swapped_pair_is_involution():
    for s in range(2, 40):
        for q in range(1, s):
            p = s - q
            if gcd(p, q) == 1:
                bp, sw = restricted_bezout(q, p), restricted_bezout(p, q)
                assert (sw.a, sw.b) == (p - bp.b, q - bp.a)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 60), st.integers(1, 60))
def test_matches_brute_force_and_coprimality(q, p):
    assume(gcd(p, q) == 1)
    bp = restricted_bezout(q, p)
    assert brute_force(q, p) == [(bp.a, bp.b)]
    assert gcd(bp.a + bp.b, p + q) == 1


def test_errors():
    with pytest.raises(NotCoprime):
        restricted_bezout(2, 4)
    with pytest.raises(NonPositive):
        restricted_bezout(0, 5)
    with pytest.raises(NonPositive):
        restricted_bezout(3, -1)
    with pytest.raises(InputTooLarge):
        restricted_bezout(10**6, 3)


def test_pair_invariants_enforced():
    with pytest.raises(ValueError):
        BezoutPair(q=2, p=5, a=0, b=3)
    with pytest.raises(ValueError):
        BezoutPair(q=2, p=5, a=2, b=3)
