import random
import tracemalloc
from operator import ne

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from epshift import verify
from epshift.classify import _image_similar, apply_code, identity_code
from epshift.bezout import restricted_bezout
from epshift.errors import DegeneratePeriodic, IncompatibleAlphabets, InternalMismatch
from epshift.sequences import (
    _normal_form,
    _Scan,
    _scan,
    _tiled,
    EPSeq,
    PeriodicSeq,
    anomaly_size,
    canonical,
    least_period,
    make_ep,
    remove_anomaly,
    similar,
)
from epshift.sturmian import TYPE_S, Frequency, SturmianSpec, skew_sturmian
from epshift.verify import anomaly_windows, remove_window, window
from epshift.words import Alphabet, BINARY, Word, is_primitive, primitive_root, word
from shifts import brute_first_defect, rotate, shifted


def ep(w, v):
    return make_ep(word(w), word(v))


# --- construction -----------------------------------------------------------

def test_normal_form_of_a_trusted_periodic_value_raises():
    # make_ep refuses an anomaly that is a power of the period word; a value
    # trusted with one is periodic, and the kernel finds no defect in it
    x = EPSeq._trusted(word("01"), word("0101"))
    with pytest.raises(InternalMismatch,
                       match=r"^the scan found no defect; the sequence would be periodic$"):
        _normal_form(x)


def test_make_ep_examples():
    x = ep("0", "11")
    assert x.period_word.text == "0" and x.anomaly.text == "11"
    assert ep("0101", "1").period_word.text == "01"
    with pytest.raises(DegeneratePeriodic):
        ep("0", "00")


def test_make_ep_strips_trailing_periods():
    # (w, v + w) denotes the same sequence as (w, v)
    assert make_ep(word("01"), word("101")) == ep("01", "1")
    assert ep("0", "10") == ep("0", "1")


def test_make_ep_rejects_mixed_alphabets():
    other = Alphabet(("a", "b"))
    with pytest.raises(IncompatibleAlphabets):
        make_ep(word("0"), word("ab", other))


# --- anchoring ---------------------------------------------------------------

def test_symbol_at_examples():
    x = ep("110", "1")
    assert [x.symbol_id_at(k) for k in (-1, 0, 1)] == list(word("011").symbols)


def test_window_examples():
    assert window(ep("0", "11"), -2, 3).text == "001100"
    assert window(ep("10", "1"), 0, 0).text == "1"
    assert window(ep("110", "1"), -3, 0).text == "1101"
    with pytest.raises(ValueError):
        window(ep("10", "1"), 2, 1)


# --- shift -------------------------------------------------------------------
# `shifted` (tests/shifts.py) builds the shift by k <= d, x's first defect,
# from its definition; the kernel's d clamps the shifts a code image makes

def test_shift_exact_up_to_first_defect():
    x = ep("01", "01011")
    d = _normal_form(x).defect
    assert d == 4 == brute_first_defect(x)
    for k in range(0, d + 1):
        y = shifted(x, k)
        for i in range(-10, 12):
            assert y.symbol_id_at(i) == x.symbol_id_at(i + k)


def test_shift_always_yields_similar_sequence(small_family):
    for x in small_family[::97]:
        d = brute_first_defect(x)
        for k in (-4, -1, 1, 2, 5):
            assert similar(shifted(x, min(k, d)), x)


def test_shift_preserves_invariants(small_family):
    for x in small_family[::53]:
        n, vl = least_period(x), len(x.anomaly)
        a = anomaly_size(x)
        for k in range(-(2 * n + vl), brute_first_defect(x) + 1):
            y = shifted(x, k)
            assert least_period(y) == n
            assert anomaly_size(y) == a


# --- removal and windows -----------------------------------------------------

def test_remove_window_examples():
    r = remove_window(ep("0", "01"), (1, 1))
    assert r == PeriodicSeq(word("0"))

    r2 = remove_window(ep("0", "11"), (0, 1))
    assert r2 == ep("0", "1")

    r3 = remove_window(ep("110", "1"), (0, 1))
    assert isinstance(r3, PeriodicSeq) and r3.period_word.text == "110"
    # aligned with the left tail
    assert r3.symbol_id_at(-1) == ep("110", "1").symbol_id_at(-1)
    with pytest.raises(ValueError, match=r"^window length must be >= 1$"):
        remove_window(ep("0", "01"), (1, 0))


def test_anomaly_windows_examples():
    wins = anomaly_windows(ep("0", "01"))
    assert (1, 1) in wins and (0, 2) in wins
    assert anomaly_windows(ep("0", "11")) == [(0, 2)]
    assert (0, 1) in anomaly_windows(ep("10", "1"))


def test_anomaly_size_examples():
    assert anomaly_size(ep("0", "11")) == 2
    assert anomaly_size(ep("0", "01")) == 1
    assert anomaly_size(ep("110", "1")) == 1


def test_least_period_examples():
    assert least_period(ep("110", "1")) == 3
    assert least_period(ep("01", "1")) == 2
    assert least_period(ep("0101", "1")) == 2


def test_remove_anomaly_examples():
    r = remove_anomaly(ep("0", "11"))
    assert r.period_word.text == "0"
    x = ep("0", "01")
    removals = [remove_window(x, w) for w in anomaly_windows(x)]
    assert all(r == removals[0] for r in removals)


def test_classification_is_exact_inside_search_range(small_family):
    # every candidate window in the search range is periodic iff listed
    for x in small_family[::211]:
        n, vl = least_period(x), len(x.anomaly)
        listed = set(anomaly_windows(x))
        length = vl % n if vl % n else n
        while length <= vl:
            for s in range(-length - 2 * n, vl + 2 * n + 1):
                res = remove_window(x, (s, length))
                assert isinstance(res, PeriodicSeq) == ((s, length) in listed)
            length += n


def test_extended_search_never_finds_shorter_windows(small_family, random_family):
    for x in list(small_family[::41]) + list(random_family[::17]):
        n = least_period(x)
        base = anomaly_size(x)
        wide = _symbolwise_window_search(x, 2 * n, 2 * n)
        assert min(length for _, length in wide) == base


def test_remove_window_exact_for_nonnegative_starts():
    # with start >= 0 the left tail is untouched, so the result is exact
    for x in (ep("01", "1"), ep("110", "1"), ep("0", "011")):
        vl, n = len(x.anomaly), least_period(x)
        for s in range(0, vl + n + 2):
            for length in range(1, vl + n + 1):
                res = remove_window(x, (s, length))
                probe = range(-2 * n - vl, s + length + 3 * n + vl)
                got = [res.symbol_id_at(i) for i in probe]
                expected = [
                    x.symbol_id_at(i) if i < s else x.symbol_id_at(i + length)
                    for i in probe
                ]
                assert got == expected, (x, s, length)


def test_remove_window_of_whole_periods_in_tail_is_identity():
    x = ep("01", "1")
    assert remove_window(x, (10, 2)) == x
    assert remove_window(x, (-9, 4)) == x


# --- canonical and similarity ------------------------------------------------

def test_canonical_examples():
    assert canonical(ep("0", "01")) == ep("0", "1")
    x = ep("10", "1")
    assert canonical(canonical(x)) == canonical(x)
    for k in range(-5, brute_first_defect(x) + 1):
        assert canonical(shifted(x, k)) == canonical(x)


def test_canonical_minimizes_anomaly(small_family):
    for x in small_family[::67]:
        c = canonical(x)
        assert len(c.anomaly) == anomaly_size(x)
        assert similar(c, x)


def test_canonical_memory_stays_within_what_the_scan_holds():
    # _normal_form scans w*2 + v + w, L = 3N + |v| bytes; _scan slices it
    # twice (L - N bytes each) and XORs the two ints they read (a CPython int
    # spends 4 bytes per 30 bits, so each of the three is 16/15 as large),
    # and the anchored form holds a rotated period and an anomaly slice
    q, p = 399999, 600001
    x = skew_sturmian(SturmianSpec(Frequency.rational(q, p), TYPE_S))
    n, vl = least_period(x), len(x.anomaly)
    size, rest = 3 * n + vl, 2 * n + vl
    tracemalloc.start()
    try:
        c = canonical(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bp = restricted_bezout(q, p)
    assert n == p + q and len(c.anomaly) == bp.a + bp.b
    assert peak < size + 2 * rest + 3 * rest * 16 // 15 + n + vl, (peak, size)


def _similar_oracle(x, y):
    n = max(least_period(x), least_period(y))
    vl = max(len(x.anomaly), len(y.anomaly))
    reach = 4 * n + vl
    for k in range(-(2 * n + vl), 2 * n + vl + 1):
        if all(x.symbol_id_at(i + k) == y.symbol_id_at(i) for i in range(-reach, reach + 1)):
            return True
    return False


def test_similar_examples_and_oracle():
    x = ep("10", "1")
    assert similar(x, shifted(x, -7))
    assert not similar(ep("0", "1"), ep("1", "0"))
    pairs = [
        (ep("10", "1"), ep("01", "1")),
        (ep("0", "11"), ep("0", "11")),
        (ep("110", "1"), ep("101", "1")),
        (ep("110", "1"), ep("011", "1")),
        (ep("0", "11"), ep("0", "1")),
        (ep("01", "0011"), ep("01", "11")),
    ]
    for a, b in pairs:
        assert similar(a, b) == _similar_oracle(a, b)


def test_similar_across_different_anchorings():
    # the same sequence written with repeating word 123 and anomaly 00,
    # or rotated to 231 with the longer anomaly 23001
    digits = Alphabet(("0", "1", "2", "3"))
    x1 = make_ep(word("123", digits), word("00", digits))
    x2 = make_ep(word("231", digits), word("23001", digits))
    assert similar(x1, x2)
    assert anomaly_size(x1) == anomaly_size(x2) == 2
    assert least_period(x1) == least_period(x2) == 3
    assert canonical(x2).anomaly.text == "00"


def test_similar_requires_same_alphabet():
    other = Alphabet(("a", "b"))
    y = make_ep(word("a", other), word("b", other))
    with pytest.raises(IncompatibleAlphabets):
        similar(ep("0", "1"), y)


# --- lemma-level properties on the quantified family -------------------------

def test_window_lengths_congruent_and_removals_equal(small_family, random_family):
    for x in list(small_family) + list(random_family):
        n = least_period(x)
        wins = anomaly_windows(x)
        assert (0, len(x.anomaly)) in wins
        assert all((length - len(x.anomaly)) % n == 0 for _, length in wins)
        removals = [remove_window(x, w) for w in wins]
        assert all(isinstance(r, PeriodicSeq) for r in removals)
        assert all(r == removals[0] for r in removals[1:])


# --- structural equality is sequence equality --------------------------------

@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    st.lists(st.integers(0, 1), min_size=1, max_size=5),
    st.lists(st.integers(0, 1), min_size=1, max_size=7),
)
def test_equal_iff_pointwise_equal(wbits, vbits):
    try:
        x = make_ep(Word(tuple(wbits), BINARY), Word(tuple(vbits), BINARY))
    except DegeneratePeriodic:
        return
    # appending the period to the anomaly re-encodes the same sequence
    w, v = x.period_word.symbols, x.anomaly.symbols
    y = make_ep(x.period_word, Word(v + w, BINARY))
    assert y == x
    # shifting by a full period to the left is a different sequence that
    # absorbs exactly one period word into the anomaly
    z = shifted(x, -least_period(x))
    assert z == make_ep(x.period_word, Word(w + v, BINARY))
    assert z != x


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.integers(2, 3).flatmap(
    lambda k: st.tuples(st.just(k), st.lists(st.integers(0, k - 1), min_size=1, max_size=9))))
def test_periodic_equal_iff_pointwise_equal(parts):
    k, syms = parts
    w = Word(tuple(syms), Alphabet(("a", "b", "c")[:k]))
    assume(is_primitive(w))
    p, n = PeriodicSeq(w), len(w)
    for r in range(-n, 2 * n + 1):
        q = PeriodicSeq(rotate(w, r % n))
        pointwise = all(q.symbol_id_at(i) == p.symbol_id_at(i) for i in range(n))
        assert (q == p) == pointwise == (r % n == 0)


# --- the linear kernel against the brute-force oracle -------------------------

# (alphabet size, period word, anomaly) over 2 or 3 letters
ep_parts = st.integers(2, 3).flatmap(lambda k: st.tuples(
    st.just(k),
    st.lists(st.integers(0, k - 1), min_size=1, max_size=12),
    st.lists(st.integers(0, k - 1), min_size=1, max_size=30),
))


def ep_from(parts):
    k, wsyms, vsyms = parts
    alphabet = Alphabet(("a", "b", "c")[:k])
    try:
        return make_ep(Word(tuple(wsyms), alphabet), Word(tuple(vsyms), alphabet))
    except DegeneratePeriodic:
        assume(False)


def _assert_kernel_window_is_first_brute_force_window(x):
    scan = _normal_form(x)
    assert (scan.start, scan.length) == anomaly_windows(x)[0], x


@settings(max_examples=300, deadline=None, derandomize=True)
@given(ep_parts)
def test_kernel_window_is_first_brute_force_window(parts):
    _assert_kernel_window_is_first_brute_force_window(ep_from(parts))


def test_kernel_window_is_first_brute_force_window_on_the_capped_8_family():
    # verify's family at --max-period-sum 8, and random instances
    rng = random.Random(37)
    family = verify.family_instances(verify.VerifyBounds().capped(8), 0)
    for x in family + [verify.random_ep(rng, 9, 30) for _ in range(300)]:
        _assert_kernel_window_is_first_brute_force_window(x)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(ep_parts)
def test_canonical_is_brute_force_leftmost_minimal_window(parts):
    x = ep_from(parts)
    s, length = anomaly_windows(x)[0]
    n = least_period(x)
    expected = make_ep(window(x, s - n, s - 1), window(x, s, s + length - 1))
    assert canonical(x) == expected


# ids that agree in their low six bits: bytes whose XOR has its lowest set bit
# at bit 6 or 7, where the kernel's bit-to-byte arithmetic has no slack
LOW_BITS_ALIKE = (0, 64, 128, 1, 129, 5, 7)
WIDE = Alphabet(tuple(f"s{i}" for i in range(130)))


def test_anomaly_size_tells_id_64_from_id_0():
    over_65 = Alphabet(WIDE.labels[:65])
    x = make_ep(Word((0,), over_65), Word((64, 5, 7), over_65))
    assert anomaly_size(x) == 3 == anomaly_windows(x)[0][1]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(LOW_BITS_ALIKE), min_size=1, max_size=3),
       st.lists(st.sampled_from(LOW_BITS_ALIKE), min_size=1, max_size=6))
@example([0], [64, 5, 7])
def test_kernel_reads_byte_ids_that_agree_in_their_low_bits(wsyms, vsyms):
    try:
        x = make_ep(Word(tuple(wsyms), WIDE), Word(tuple(vsyms), WIDE))
    except DegeneratePeriodic:
        assume(False)
    s, length = anomaly_windows(x)[0]
    n = least_period(x)
    expected = make_ep(window(x, s - n, s - 1), window(x, s, s + length - 1))
    assert anomaly_size(x) == length
    assert canonical(x) == expected
    # the image tests scan a code's image with the same kernel
    ident = identity_code(WIDE)
    assert apply_code(ident, x) == x and _image_similar(ident, x, expected)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(ep_parts, st.data())
def test_shift_exact_up_to_first_defect_property(parts, data):
    # `shifted`, which the invariance tests build shifts with, is exact up
    # to d, and the kernel finds that d
    x = ep_from(parts)
    n, vl = least_period(x), len(x.anomaly)
    d = brute_first_defect(x)
    assert _normal_form(x).defect == d
    k = data.draw(st.integers(-(2 * n + vl), d), label="k")
    y = shifted(x, k)
    # beyond this range both sides are periodic with the same period
    span = range(min(0, -k) - 2 * n, max(len(y.anomaly), vl - k) + 2 * n)
    assert [y.symbol_id_at(i) for i in span] == [x.symbol_id_at(i + k) for i in span]


# --- the brute-force oracle against its per-symbol original ------------------

def _symbolwise_window_search(x, extra_start, extra_len):
    """The brute-force window search as first written, widened by
    extra_start on each side and extra_len in length: each candidate window
    decided by reading the removed sequence one symbol at a time."""

    def removal_is_periodic(start, length):
        w, v = x.period_word.symbols, x.anomaly.symbols
        n, vl = len(w), len(v)
        for k in range(min(0, start) - n, max(start, vl - length) + 2 * n + 1):
            j = k if k < start else k + length
            if j < 0:
                yk = w[j % n]
            elif j < vl:
                yk = v[j]
            else:
                yk = w[(j - vl) % n]
            if yk != w[k % n]:
                return False
        return True

    n, vl = least_period(x), len(x.anomaly)
    found = []
    length = vl % n if vl % n else n
    while length <= vl + extra_len:
        for s in range(-length - 2 * n - extra_start, vl + 2 * n + extra_start + 1):
            if removal_is_periodic(s, length):
                found.append((s, length))
        length += n
    found.sort(key=lambda a: (a[1], a[0]))
    return found


def test_window_search_matches_the_symbolwise_search(small_family):
    rng = random.Random(16)
    instances = list(small_family) + [verify.random_ep(rng, wmax=9, vmax=14) for _ in range(500)]
    for x in instances:
        assert anomaly_windows(x) == _symbolwise_window_search(x, 0, 0), x


def _double_loop_window_search(x):
    """The slice-compare window search with the length loop outside the
    start loop, so the compare left of each start runs once per length."""
    w, v = x.period_word.symbols, x.anomaly.symbols
    n, vl = len(w), len(v)
    reach = -(-vl // n)
    k = reach + 3
    xs = w * k + v + w * (reach + 5)
    zs = w * (len(xs) // n + 1)
    o = k * n
    wins = []
    for length in range(vl % n or n, vl + 1, n):
        for s in range(-length - 2 * n, vl + 2 * n + 1):
            lo, at, hi = min(0, s) - n + o, s + o, max(s, vl - length) + 2 * n + 1 + o
            if xs[lo:at] == zs[lo:at] and xs[at + length:hi + length] == zs[at:hi]:
                wins.append((s, length))
    return wins


def test_window_search_matches_the_double_loop_search():
    # verify's family at --max-period-sum 8, and longer random anomalies
    rng = random.Random(32)
    family = verify.family_instances(verify.VerifyBounds().capped(8), 0)
    for x in family + [verify.random_ep(rng, 9, 30) for _ in range(300)]:
        assert anomaly_windows(x) == _double_loop_window_search(x), x


# --- the packed scan against its per-symbol original -------------------------

def reference_scan(buf, lo, period, delta):
    """The kernel as first written: one bool per symbol from map(ne), the
    last defect found in a reversed copy."""
    n = len(period)
    diffs = list(map(ne, buf[n:], buf[:-n]))
    if True not in diffs:
        return None
    d = lo + n + diffs.index(True)
    e = lo + len(diffs) - 1 - diffs[::-1].index(True)
    need = max(1, e + 1 - d)
    length = need + (delta - need) % n
    return _Scan(buf, lo, period, d, e + 1 - length, length)


# byte-packed up to 256 symbols, array-packed above; 70,000 needs a third byte
SCAN_ALPHABETS = {size: Alphabet(tuple(map(str, range(size)))) for size in (2, 256, 257, 70000)}


def scan_ids(size):
    """Low and high ids, and pairs that differ only in a higher byte (1 and
    257, 1 and 65,537), so a difference in any byte of an item shows."""
    return sorted({0, 1, 255, 256, 257, 65537, size - 1} & set(range(size)))


@st.composite
def scan_inputs(draw):
    """(buf, lo, period, delta): w^L + middle + w^R with L, R >= 1, so a
    defect can sit at the first and the last compared index; or, when the
    draw says so, a stretch of the periodic sequence itself."""
    size = draw(st.sampled_from(sorted(SCAN_ALPHABETS)), label="size")
    ids = st.sampled_from(scan_ids(size))
    w = draw(st.lists(ids, min_size=1, max_size=6), label="period")
    period = primitive_root(Word(tuple(w), SCAN_ALPHABETS[size]))[0]
    lo = draw(st.integers(-40, 40), label="lo")
    if draw(st.booleans(), label="periodic"):
        start, length = draw(st.integers(0, 10)), draw(st.integers(0, 40))
        return _tiled(period.symbols, start, length), lo, period, draw(st.integers(0, 20))
    middle = type(period.symbols)(draw(st.lists(ids, max_size=16), label="middle"))
    left, right = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return period.symbols * left + middle + period.symbols * right, lo, period, len(middle)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(scan_inputs())
def test_packed_scan_matches_the_reference_scan(args):
    assert _scan(*args) == reference_scan(*args)


def test_packed_scan_finds_defects_at_the_first_and_last_compared_index():
    # 0 and 256 differ only in the second byte of an item, 1 and 65,537 in the third
    for size, (low, high) in ((2, (0, 1)), (256, (1, 255)), (257, (0, 256)), (70000, (1, 65537))):
        period = Word((low, high), SCAN_ALPHABETS[size])
        for middle in ((high, low), (high, high, low, low), (high, low, high, low, high, low)):
            buf = period.symbols + type(period.symbols)(middle) + period.symbols
            scan = _scan(buf, -2, period, len(middle))
            assert scan == reference_scan(buf, -2, period, len(middle))
            # buf[2] != buf[0] and buf[-1] != buf[-3]: the first and last compared pairs
            assert scan.defect == -2 + 2
            assert scan.start + scan.length == -2 + len(buf) - 2
        for buf in (period.symbols[:0], period.symbols, period.symbols * 3,
                    (period.symbols * 3)[1:]):
            assert _scan(buf, 0, period, 1) is None is reference_scan(buf, 0, period, 1)
