import json
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import ceil, floor, gcd

import pytest

from epshift import cli, sturmian
from epshift.bezout import restricted_bezout
from epshift.errors import InputTooLarge, InternalMismatch, InvalidSpec, WrongAlphabet
from epshift.sequences import anomaly_size, least_period, make_ep, similar
from epshift.sturmian import (
    _christoffel,
    _expand,
    _zero_counts,
    Frequency,
    SturmianSpec,
    TYPE_S,
    TYPE_SPRIME,
    cell_series,
    skew_sturmian,
)
from epshift.verify import (cell_zero_counts, chain_zero_counts, coprime_pairs, cutting_sequence,
                            symbol_reverse)
from epshift.words import word


def spec_S(q, p, m=0):
    return SturmianSpec(Frequency.rational(q, p), TYPE_S, m)


def spec_Sp(q, p, m=0):
    return SturmianSpec(Frequency.rational(q, p), TYPE_SPRIME, m)


def _count_multiples(p, lo, hi, lo_strict, hi_strict):
    """Number of integers k with k*p in the interval from lo to hi with the
    given endpoint strictness (exact integer arithmetic)."""
    top = (hi - 1) // p if hi_strict else hi // p
    bot = lo // p if lo_strict else (lo - 1) // p
    return top - bot


def cell_zeros(spec, n):
    """Zeros in cell B_n of a rational spec: the points of G = {m + k p/q}
    in the cell's interval.  For S(m, q/p) it is (n, n+1], (m, m+1) or
    [n, n+1) according as n < m, n = m, n > m; S'(m, q/p) flips every
    endpoint, giving [n, n+1), [m, m+1] or (n, n+1].  The one-cell
    definition that the generator's marker bytes are tested against."""
    q, p, m, is_s = spec.freq.q, spec.freq.p, spec.m, spec.stype == TYPE_S
    return _count_multiples(p, q * (n - m), q * (n - m + 1),
                            (n <= m) == is_s, (n >= m) == is_s)


def test_cell_zeros_S_examples():
    assert cell_zeros(spec_S(1, 1), 0) == 0
    assert cell_zeros(spec_S(1, 1), -1) == 1
    assert cell_zeros(spec_S(1, 2), -2) == 0


def test_cell_zeros_Sprime_examples():
    assert cell_zeros(spec_Sp(1, 1), 0) == 2
    assert cell_zeros(spec_Sp(1, 1), -1) == 1
    assert cell_zeros(spec_Sp(1, 1), 1) == 1


# (type, sign of n - m) -> whether the cell's interval is closed at n, at n+1
CELL_ENDPOINTS = {
    (TYPE_S, -1): (False, True), (TYPE_S, 0): (False, False), (TYPE_S, 1): (True, False),
    (TYPE_SPRIME, -1): (True, False), (TYPE_SPRIME, 0): (True, True),
    (TYPE_SPRIME, 1): (False, True),
}


def brute_cell_zeros(spec, n):
    """Points m + k p/q of the cell's interval, counted one by one."""
    q, p, m = spec.freq.q, spec.freq.p, spec.m
    closed_lo, closed_hi = CELL_ENDPOINTS[spec.stype, (n > m) - (n < m)]
    count = 0
    for k in range(floor(Fraction((n - m) * q, p)) - 1, ceil(Fraction((n - m + 1) * q, p)) + 2):
        x = m + k * Fraction(p, q)
        if (n < x or closed_lo and x == n) and (x < n + 1 or closed_hi and x == n + 1):
            count += 1
    return count


def test_cell_zeros_matches_brute_force_count():
    for q, p in coprime_pairs(20):
        for m in (-2, 0, 3):
            for spec in (spec_S(q, p, m), spec_Sp(q, p, m)):
                for n in range(m - 2 * p - 2, m + 2 * p + 3):
                    assert cell_zeros(spec, n) == brute_cell_zeros(spec, n), (spec, n)


def cell_texts(cells):
    """The cells of a word of cells, each a "1" and the "0"s up to the next."""
    return ["1" + z for z in cells.text.split("1")[1:]]


def test_cell_series_examples():
    assert cell_texts(cell_series(spec_S(1, 1), -2, 2)) == ["10", "10", "1", "10", "10"]
    assert cell_texts(cell_series(spec_S(1, 2), -4, 2)) == \
        ["1", "10", "1", "10", "1", "1", "10"]
    assert cell_texts(cell_series(spec_Sp(1, 1), -1, 1)) == ["10", "100", "10"]


@pytest.mark.parametrize("spec, lo, hi, texts", [
    (spec_S(2, 5), -6, 6, ["10", "1", "1", "10", "1", "10", "1", "1", "10", "1", "1", "10", "1"]),
    (spec_Sp(3, 7, 1), -4, 8, ["10", "1", "10", "1", "1", "10", "1", "10", "1", "10", "1", "10",
                               "1"]),
    (spec_S(5, 2, -1), -3, 3, ["100", "1000", "100", "100", "1000", "100", "1000"]),
])
def test_cell_series_of_fixed_specs_is_unchanged(spec, lo, hi, texts):
    cells = cell_series(spec, lo, hi)
    assert cell_texts(cells) == texts
    assert cells.text == "".join(texts)
    assert cells == _cell_words(spec, lo, hi)


def test_expand_examples():
    # k = 0: markers 3 and 4 stand for cells of no zeros and of one
    assert _expand(b"\x04\x03\x04", 0).text == "10110"
    assert _expand(b"", 0).text == _expand(b"", 5).text == ""
    assert _expand(b"\x04", 1).text == "100"
    assert _expand(b"\x02\x03\x04", 2).text == "10" + "100" + "1000"


def test_cutting_sequence_junction_patterns():
    # type S at slope 1: every crossing is a lattice point; below or at the
    # origin the line inserts 01, above it 10
    assert cutting_sequence(spec_S(1, 1), -2, 2).text == "0101011010"
    # the type-S' window exhibits the 100 anomaly cell
    assert cutting_sequence(spec_Sp(1, 1), -2, 2).text == "1010100101"


def test_cutting_sequence_zero_ratio():
    # whole periods away from the anomaly carry exactly q zeros per p cells
    for q, p in ((1, 2), (2, 3), (3, 5)):
        w = cutting_sequence(spec_S(q, p), 1, 3 * p)
        assert w.symbols.count(0) == 3 * q
        assert w.symbols.count(1) == 3 * p


def test_skew_sturmian_examples():
    x = skew_sturmian(spec_S(1, 1))
    assert least_period(x) == 2 and anomaly_size(x) == 1
    assert x.anomaly.text == "1"

    y = skew_sturmian(spec_S(1, 2))
    assert least_period(y) == 3 and y.anomaly.text == "1"
    assert sorted(y.period_word.text) == ["0", "1", "1"]

    inf = skew_sturmian(SturmianSpec(Frequency.infinity(), TYPE_S))
    assert inf == make_ep(word("0"), word("1"))
    zero = skew_sturmian(SturmianSpec(Frequency.zero(), TYPE_SPRIME))
    assert zero == make_ep(word("1"), word("0"))


def test_invalid_specs():
    with pytest.raises(InvalidSpec):
        SturmianSpec(Frequency.zero(), TYPE_S)
    with pytest.raises(InvalidSpec):
        SturmianSpec(Frequency.infinity(), TYPE_SPRIME)
    with pytest.raises(InvalidSpec):
        Frequency.rational(2, 4)
    with pytest.raises(InvalidSpec):
        Frequency.rational(0, 1)
    with pytest.raises(InvalidSpec):
        cell_series(SturmianSpec(Frequency.infinity(), TYPE_S), 0, 1)
    with pytest.raises(InvalidSpec, match=r"^type must be 'S' or 'Sprime', got 'X'$"):
        SturmianSpec(Frequency.rational(2, 3), "X")
    with pytest.raises(InvalidSpec, match=r"^zero frequency takes no q/p$"):
        Frequency("zero", 1, 2)
    for build in (cell_series, cutting_sequence):
        with pytest.raises(ValueError, match=r"^need n_lo <= n_hi, got 3 > 2$"):
            build(spec_S(2, 3), 3, 2)


def test_cell_zero_counts_reads_the_cells_off_the_word():
    assert cell_zero_counts(word("10110100")) == [1, 0, 1, 2]
    assert cell_zero_counts(word("")) == []
    assert cell_zero_counts(word("1")) == [0]
    for spec, lo, hi in ((spec_S(2, 5), -6, 6), (spec_Sp(7, 2, 1), -3, 5), (spec_S(1, 1), 0, 0)):
        assert cell_zero_counts(cell_series(spec, lo, hi)) == \
            [cell_zeros(spec, n) for n in range(lo, hi + 1)]


def test_chain_zero_counts_examples():
    zs = cell_zero_counts(cell_series(spec_S(1, 1), -3, 3))
    assert chain_zero_counts(zs, 1) == Counter({1: 6, 0: 1})

    zs2 = cell_zero_counts(cell_series(spec_S(2, 3), -6, 8))
    counts = chain_zero_counts(zs2, 3)
    assert counts[1] == 1 and set(counts) == {1, 2}

    assert len(chain_zero_counts(zs, len(zs))) == 1
    with pytest.raises(ValueError):
        chain_zero_counts(zs, 8)
    with pytest.raises(ValueError):
        chain_zero_counts(zs, 0)

    # every chain length, against the sum of each chain's own counts
    for n in range(1, len(zs2) + 1):
        assert chain_zero_counts(zs2, n) == Counter(
            sum(zs2[i:i + n]) for i in range(len(zs2) - n + 1))


def test_symbol_reverse():
    assert symbol_reverse(make_ep(word("0"), word("1"))) == make_ep(word("1"), word("0"))
    x = skew_sturmian(spec_S(2, 3))
    assert symbol_reverse(symbol_reverse(x)) == x
    from epshift.words import Alphabet
    other = Alphabet(("a", "b"))
    y = make_ep(word("a", other), word("b", other))
    with pytest.raises(WrongAlphabet):
        symbol_reverse(y)


def test_symbol_reverse_gives_opposite_type_inverse_frequency():
    for q, p in ((1, 1), (1, 2), (2, 3), (3, 4), (2, 5)):
        assert similar(symbol_reverse(skew_sturmian(spec_S(q, p))),
                       skew_sturmian(spec_Sp(p, q)))


def test_offset_translation_and_similarity():
    # cells only depend on n - m, so any two offsets generate similar sequences
    for q, p in ((1, 2), (3, 2)):
        for stype, mk in ((TYPE_S, spec_S), (TYPE_SPRIME, spec_Sp)):
            base = cell_series(mk(q, p, 0), -6, 6)
            shifted = cell_series(mk(q, p, 3), -3, 9)
            assert base == shifted
            assert skew_sturmian(mk(q, p, -2)) == skew_sturmian(mk(q, p, 0))
            assert similar(skew_sturmian(mk(q, p, 0)), skew_sturmian(mk(q, p, -2)))


def test_period_word_symbol_counts():
    for q, p, m in ((1, 1, 0), (2, 3, -1), (3, 5, 2), (5, 2, 0)):
        for mk in (spec_S, spec_Sp):
            x = skew_sturmian(mk(q, p, m))
            assert least_period(x) == p + q
            assert x.period_word.symbols.count(0) == q
            assert x.period_word.symbols.count(1) == p


def _realignment_offset(spec, p):
    """The first j >= 1 at which the cells B_{m+j} .. B_{m+j+p-1} repeat the
    period block B_{m-p} .. B_{m-1}, found by search (the oracle for the
    anomaly length j that skew_sturmian takes from the Bézout pair)."""
    zeros = cell_zero_counts(cell_series(spec, spec.m - p, spec.m + 3 * p + 1))
    period = zeros[:p]
    for j in range(1, 2 * p + 3):
        if zeros[p + j:2 * p + j] == period:
            return j
    raise AssertionError(f"no realignment of the right beam of {spec}")


def _skew_by_realignment(spec):
    p, m = spec.freq.p, spec.m
    j = _realignment_offset(spec, p)
    return make_ep(cell_series(spec, m - p, m - 1), cell_series(spec, m, m + j - 1))


@pytest.mark.parametrize("stype", [TYPE_S, TYPE_SPRIME])
def test_skew_sturmian_matches_the_realignment_search(stype):
    for q, p in coprime_pairs(40):
        for m in (-3, 0, 2):
            spec = SturmianSpec(Frequency.rational(q, p), stype, m)
            assert skew_sturmian(spec) == _skew_by_realignment(spec), spec


def test_skew_sturmian_matches_the_realignment_search_at_n1600():
    spec = spec_Sp(799, 801)
    x = skew_sturmian(spec)
    assert x == _skew_by_realignment(spec)
    # restricted Bézout pair of (799, 801): a = 399, b = 400
    assert least_period(x) == 1600 and anomaly_size(x) == 1600 - (399 + 400)


def _decoded(spec, markers):
    """The zero counts the cell markers of spec stand for: q // p - 3 + marker."""
    assert type(markers) is bytes and set(markers) <= {2, 3, 4}, (spec, markers)
    return [spec.freq.q // spec.freq.p - 3 + marker for marker in markers]


def test_zero_counts_equal_cell_zeros():
    # windows left of, around, at and right of B_m, including single cells
    for q, p in [*coprime_pairs(14), (1, 23), (23, 1)]:
        for m in (-2, 0, 3):
            for spec in (spec_S(q, p, m), spec_Sp(q, p, m)):
                for n_lo, n_hi in ((m - 2 * p - 3, m + 2 * p + 3), (m - 5, m - 1), (m - 4, m),
                                   (m, m), (m, m + 4), (m + 1, m + 6), (m - 9, m - 7)):
                    assert _decoded(spec, _zero_counts(spec, n_lo, n_hi)) == \
                        [cell_zeros(spec, n) for n in range(n_lo, n_hi + 1)], (spec, n_lo, n_hi)


def test_christoffel_word_is_the_floor_definition():
    for p in range(2, 61):
        for r in range(1, p):
            if gcd(r, p) == 1:
                assert _christoffel(r, p) == bytes(
                    (r * (i + 1)) // p - (r * i) // p for i in range(p)), (r, p)


def _random_frequency(rng):
    """A coprime q/p: p = 1, or q with k = q // p about 255 (254, 255, 256
    or more), or both small; the last two with p up to 40."""
    while True:
        p = rng.choice([1, rng.randint(2, 40)])
        k = rng.choice([0, 1, 2, rng.randint(0, 9), 254, 255, 256, rng.randint(257, 600)])
        q = k * p + rng.randrange(p)
        if q >= 1 and gcd(q, p) == 1:
            return q, p


def test_zero_counts_equal_cell_zeros_on_random_windows():
    # windows left of, around and right of B_m, some shorter than p
    rng = random.Random(33)
    sides = {"left": 0, "around": 0, "right": 0}
    for _ in range(1500):
        q, p = _random_frequency(rng)
        m = rng.randint(-2 * p - 3, 2 * p + 3)
        spec = rng.choice([spec_S, spec_Sp])(q, p, m)
        size = rng.choice([1, rng.randint(1, p), rng.randint(1, 3 * p + 6)])
        n_lo = m + rng.randint(-size - p - 2, p + 2)
        n_hi = n_lo + size - 1
        sides["left" if n_hi < m else "right" if n_lo > m else "around"] += 1
        assert _decoded(spec, _zero_counts(spec, n_lo, n_hi)) == \
            [cell_zeros(spec, n) for n in range(n_lo, n_hi + 1)], (spec, n_lo, n_hi)
    assert min(sides.values()) > 200, sides


def test_generation_at_n_1e6_peaks_within_four_bytes_per_window_cell():
    # skew_sturmian reads the 4p + 2j + 2 cells of its window as one marker
    # byte per cell; with the tiled Christoffel words, the beam slices and
    # the two blocks' symbols it must stay under 4 bytes per cell
    q, p = 399999, 600001
    cells = 4 * p + 2 * restricted_bezout(q, p).b + 2
    tracemalloc.start()
    try:
        x = skew_sturmian(spec_S(q, p))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert least_period(x) == p + q
    assert peak < 4 * cells, (peak, cells)


def _cell_words(spec, lo, hi):
    """The cells B_lo .. B_hi as one word, written cell by cell from cell_zeros."""
    return word("".join("1" + "0" * cell_zeros(spec, n) for n in range(lo, hi + 1)))


def _skew_by_cell_words(spec):
    """make_ep of the p cells before B_m and the j anomaly cells, each cell
    written from cell_zeros; j from the restricted Bézout pair as documented."""
    q, p, m = spec.freq.q, spec.freq.p, spec.m
    b = restricted_bezout(q, p).b
    j = b if spec.stype == TYPE_S else max(p - b, 1)
    return make_ep(_cell_words(spec, m - p, m - 1), _cell_words(spec, m, m + j - 1))


@pytest.mark.parametrize("stype", [TYPE_S, TYPE_SPRIME])
def test_skew_sturmian_matches_the_per_cell_word_route(stype):
    for q, p in coprime_pairs(40):
        for m in (-1, 0, 2):
            spec = SturmianSpec(Frequency.rational(q, p), stype, m)
            assert skew_sturmian(spec) == _skew_by_cell_words(spec), spec


def _frequencies_near_byte_counts():
    """Coprime q/p with k = q // p in 253..256, p = 1 among them: counts near
    and past the most a byte holds, which S'(254/1) has in B_m, 255 zeros;
    the markers stand for them all the same."""
    return [(k * p + r, p) for k in (253, 254, 255, 256) for p in (1, 2, 3, 7)
            for r in range(p) if gcd(r, p) == 1]


@pytest.mark.parametrize("stype", [TYPE_S, TYPE_SPRIME])
def test_skew_sturmian_matches_the_per_cell_word_route_on_both_window_types(stype):
    for q, p in _frequencies_near_byte_counts():
        for m in (-1, 0, 2):
            spec = SturmianSpec(Frequency.rational(q, p), stype, m)
            assert skew_sturmian(spec) == _skew_by_cell_words(spec), spec
    assert _zero_counts(spec_Sp(254, 1, 3), 3, 3) == b"\x04"  # k + 1 = 255 zeros


def _windows(m, p):
    """Windows left of B_m, around it, right of it, and B_m alone."""
    return ((m - 2 * p - 3, m - 1), (m - p - 2, m + p + 2), (m + 1, m + 2 * p + 3), (m, m))


@pytest.mark.parametrize("stype", [TYPE_S, TYPE_SPRIME])
def test_cell_series_is_the_per_cell_word_on_any_window(stype):
    for q, p in [*coprime_pairs(20), *_frequencies_near_byte_counts()]:
        for m in (-1, 0, 2):
            spec = SturmianSpec(Frequency.rational(q, p), stype, m)
            for lo, hi in _windows(m, p):
                assert cell_series(spec, lo, hi) == _cell_words(spec, lo, hi), (spec, lo, hi)


@pytest.mark.parametrize("stype", ["S", "Sprime"])
def test_cli_prints_the_per_cell_texts_and_their_join(capsys, stype):
    # --emit cells prints each cell of the window [m - h, m + h], --emit
    # symbols the word they make; h from --cells, else 2(p + 1) + 2
    for q, p in [*coprime_pairs(9), (254, 1), (509, 2), (1, 255)]:
        for m, h in ((-1, None), (0, 0), (2, 5)):
            argv = ["sturmian", "gen", "--freq", f"{q}/{p}", "--type", stype, "--m", str(m)]
            argv += [] if h is None else ["--cells", str(h)]
            h = 2 * (p + 1) + 2 if h is None else h
            spec = SturmianSpec(Frequency.rational(q, p), TYPE_S if stype == "S" else TYPE_SPRIME,
                                m)
            texts = ["1" + "0" * cell_zeros(spec, n) for n in range(m - h, m + h + 1)]
            for emit, expected in (("cells", texts), ("symbols", "".join(texts))):
                assert cli.main([*argv, "--emit", emit]) == 0
                assert capsys.readouterr().out == json.dumps(expected) + "\n", (argv, emit)


# (q, p): 2,400,013 cells of at most one zero, and 4,005 cells of about 1,000
@pytest.mark.parametrize("q, p", [(399999, 600001), (999001, 999)])
def test_cell_series_at_n_1e6_peaks_within_two_bytes_per_symbol(q, p):
    # _expand holds the markers, one byte per cell, and, during a replace,
    # the word before and after it: at most two bytes per symbol.  Building
    # the markers holds them, each tiled Christoffel word and its slice
    # beside the join, at most four bytes per cell in all
    spec = spec_S(q, p)
    half = 2 * (p + 1) + 2  # the CLI's default window
    tracemalloc.start()
    try:
        cells = cell_series(spec, -half, half)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    symbols, count = len(cells.symbols), 2 * half + 1
    assert cells.symbols.count(1) == count
    assert peak < 2 * symbols + 4 * count + 4096, (peak, symbols, count)


def test_expand_of_markers_is_the_join_of_their_cells():
    # one, two or all three markers (no marker 2 when k = 0, where it would
    # stand for -1 zeros), on up to 5000 cells
    rng = random.Random(34)
    for k in (0, 1, 2, 254, 255, 256, 600):
        kinds = [3, 4] if k == 0 else [2, 3, 4]
        for _ in range(60):
            markers = rng.sample(kinds, rng.randint(1, len(kinds)))
            size = rng.choice([0, 1, 7, rng.randint(1, 5000)])
            cells = bytes(rng.choice(markers) for _ in range(size))
            counts = tuple(k - 3 + c for c in cells)
            assert _expand(cells, k).symbols == b"".join(b"\x01" + bytes(z) for z in counts), \
                (k, markers)


# S(5/7, m=1): restricted Bézout pair (2, 3), so j = 3 anomaly cells; the
# window's k = 19 cells before B_1 are a 5-cell suffix of the period block,
# then whole blocks, and the right beam starts at index k + j = 22
CORRUPT_SPEC = spec_S(5, 7, 1)
CORRUPT_WINDOW = (1 - 2 * 8 - 3, 1 + 3 + 2 * 7 - 1)  # skew_sturmian's window


def _corrupt_zero_counts(monkeypatch, cells):
    """Make skew_sturmian read its window with each of the markers at these
    indices into it raised by one: one zero added to a cell of k or fewer,
    marker 5, which marks no cell, for a cell of k + 1."""
    real = _zero_counts

    def corrupted(spec, lo, hi):
        assert (lo, hi) == CORRUPT_WINDOW
        corrupt = list(real(spec, lo, hi))
        for i in cells:
            corrupt[i] += 1
        return bytes(corrupt)

    monkeypatch.setattr(sturmian, "_zero_counts", corrupted)


# the first and last cells, both sides of the left beam's first block
# boundary (4 | 5), one inside a whole block, and the right beam's first cell
@pytest.mark.parametrize("corrupt", [0, 4, 5, 7, 22, -1])
def test_a_corrupt_beam_count_raises_internal_mismatch(monkeypatch, corrupt):
    _corrupt_zero_counts(monkeypatch, [corrupt])
    bad = range(CORRUPT_WINDOW[0], CORRUPT_WINDOW[1] + 1)[corrupt]
    with pytest.raises(InternalMismatch, match=rf"cell B_{bad} of .* does not repeat"):
        skew_sturmian(CORRUPT_SPEC)


def test_every_count_raised_by_one_raises_wrong_symbol_counts(monkeypatch):
    # the beams still repeat the period block, which now holds too many zeros
    _corrupt_zero_counts(monkeypatch, range(CORRUPT_WINDOW[1] - CORRUPT_WINDOW[0] + 1))
    with pytest.raises(InternalMismatch, match=r"period block of .* has wrong symbol counts"):
        skew_sturmian(CORRUPT_SPEC)


def test_raised_anomaly_counts_raise_wrong_anomaly_length(monkeypatch):
    # the three anomaly cells B_1 .. B_3 are indices 19 .. 21, "1", "10" and
    # "10": a + b = 5 symbols; B_1 raised to "10" makes 6
    _corrupt_zero_counts(monkeypatch, [19])
    with pytest.raises(InternalMismatch, match=r"anomaly block of .* has length 6, not 5"):
        skew_sturmian(CORRUPT_SPEC)


def _window_read_as(monkeypatch, edit):
    """Make skew_sturmian read its window passed through edit."""
    real = _zero_counts
    monkeypatch.setattr(sturmian, "_zero_counts", lambda *window: edit(real(*window)))


@pytest.mark.parametrize("byte", [0, 1, 5, 255])
def test_a_byte_that_marks_no_cell_raises_internal_mismatch(monkeypatch, byte):
    # the byte in place of every cell, and of each cell alone: in a beam, the
    # period block or the anomaly.  A 0 or a 1 would pass into the words as a
    # symbol of BINARY, any other byte as an id outside it
    for spec in (CORRUPT_SPEC, spec_S(1, 2), spec_Sp(2, 1), spec_S(3, 1), spec_Sp(3, 1)):
        q, p = spec.freq.q, spec.freq.p
        b = restricted_bezout(q, p).b
        size = 4 * p + 2 * (b if spec.stype == TYPE_S else max(p - b, 1)) + 2
        edits = [lambda cells: bytes((byte,)) * len(cells)]
        edits += [lambda cells, i=i: cells[:i] + bytes((byte,)) + cells[i + 1:]
                  for i in range(size)]
        for edit in edits:
            _window_read_as(monkeypatch, edit)
            with pytest.raises(InternalMismatch):
                skew_sturmian(spec)


def test_a_raised_marker_that_keeps_the_counts_raises_internal_mismatch(monkeypatch):
    # S(1/2) has cells "10" and "1", markers 4 and 3, with k = 0; raised, the
    # period block "10" + marker 5 keeps its length 3 and its one zero, so
    # only the marker check finds it
    _window_read_as(monkeypatch, lambda cells: bytes(c + 1 for c in cells))
    with pytest.raises(InternalMismatch, match=r"the window of .* holds a byte that marks no cell"):
        skew_sturmian(spec_S(1, 2))


def test_skew_sturmian_at_n6400():
    for spec in (spec_S(1599, 4801), spec_Sp(4801, 1599)):
        q, p = spec.freq.q, spec.freq.p
        bz = restricted_bezout(q, p)
        size = bz.a + bz.b if spec.stype == TYPE_S else p + q - (bz.a + bz.b)
        x = skew_sturmian(spec)
        assert least_period(x) == 6400 and anomaly_size(x) == size, spec


def test_cell_series_refuses_exactly_past_its_two_bounds(monkeypatch):
    # at q/p = 15/1 a window of C cells spans C (p + q) / p = 16 C symbols
    # by the bound's measure, so SUM_LIMIT cells reach SYMBOL_LIMIT exactly;
    # no cell is built either way
    def no_cells(*window):
        raise OverflowError("a cell was about to be built")

    monkeypatch.setattr(sturmian, "_zero_counts", no_cells)
    with pytest.raises(OverflowError):
        cell_series(spec_S(15, 1), 1, sturmian.SUM_LIMIT)
    with pytest.raises(InputTooLarge, match=rf"^{sturmian.SUM_LIMIT + 1} cells of frequency 15/1 "):
        cell_series(spec_S(15, 1), 1, sturmian.SUM_LIMIT + 1)
    with pytest.raises(InputTooLarge, match=rf"^p \+ q = {sturmian.SUM_LIMIT + 1} exceeds "):
        cell_series(spec_Sp(1, sturmian.SUM_LIMIT), 0, 0)


def test_an_unknown_frequency_kind_is_refused():
    with pytest.raises(InvalidSpec, match=r"^unknown frequency kind 'bogus'$"):
        Frequency("bogus")
