import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import ceil, floor, gcd

import pytest

from epshift import sturmian
from epshift.bezout import restricted_bezout
from epshift.errors import InternalMismatch, InvalidSpec, WrongAlphabet
from epshift.sequences import anomaly_size, least_period, make_ep, similar
from epshift.sturmian import (
    CellSeries,
    _christoffel,
    _expand,
    _zero_counts,
    Frequency,
    SturmianSpec,
    TYPE_S,
    TYPE_SPRIME,
    cell_series,
    cell_zeros,
    chain_zero_counts,
    cutting_sequence,
    expand_cells,
    skew_sturmian,
    symbol_reverse,
)
from epshift.verify import coprime_pairs
from epshift.words import word


def spec_S(q, p, m=0):
    return SturmianSpec(Frequency.rational(q, p), TYPE_S, m)


def spec_Sp(q, p, m=0):
    return SturmianSpec(Frequency.rational(q, p), TYPE_SPRIME, m)


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


def cell_texts(cs):
    return ["1" + "0" * z for z in cs.zeros]


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
    cs = cell_series(spec, lo, hi)
    assert cell_texts(cs) == texts
    assert expand_cells(cs).text == "".join(texts)
    assert cs == CellSeries(lo, tuple(cell_zeros(spec, n) for n in range(lo, hi + 1)))


def test_expand_cells():
    cs = CellSeries(0, (1, 0, 1))
    assert expand_cells(cs).text == "10110"
    assert expand_cells(CellSeries(0, ())).text == ""
    assert expand_cells(CellSeries(5, (2,))).text == "100"


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


def test_chain_zero_counts_examples():
    cs = cell_series(spec_S(1, 1), -3, 3)
    assert chain_zero_counts(cs, 1) == Counter({1: 6, 0: 1})

    cs2 = cell_series(spec_S(2, 3), -6, 8)
    counts = chain_zero_counts(cs2, 3)
    assert counts[1] == 1 and set(counts) == {1, 2}

    assert len(chain_zero_counts(cs, len(cs.zeros))) == 1
    with pytest.raises(ValueError):
        chain_zero_counts(cs, 8)
    with pytest.raises(ValueError):
        chain_zero_counts(cs, 0)

    # every chain length, against the sum of each chain's own counts
    for n in range(1, len(cs2.zeros) + 1):
        assert chain_zero_counts(cs2, n) == Counter(
            sum(cs2.zeros[i:i + n]) for i in range(len(cs2.zeros) - n + 1))


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
            assert base.zeros == shifted.zeros
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
    cs = cell_series(spec, spec.m - p, spec.m + 3 * p + 1)
    period = cs.zeros[:p]
    for j in range(1, 2 * p + 3):
        if cs.zeros[p + j:2 * p + j] == period:
            return j
    raise AssertionError(f"no realignment of the right beam of {spec}")


def _skew_by_realignment(spec):
    p, m = spec.freq.p, spec.m
    j = _realignment_offset(spec, p)
    return make_ep(expand_cells(cell_series(spec, m - p, m - 1)),
                   expand_cells(cell_series(spec, m, m + j - 1)))


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


def test_expand_of_markers_equals_expand_cells():
    # one, two or all three markers (no marker 2 when k = 0, where it would
    # stand for -1 zeros), on more cells than one 4096-cell chunk of expand_cells
    rng = random.Random(34)
    for k in (0, 1, 2, 254, 255, 256, 600):
        kinds = [3, 4] if k == 0 else [2, 3, 4]
        for _ in range(60):
            markers = rng.sample(kinds, rng.randint(1, len(kinds)))
            size = rng.choice([0, 1, 7, rng.randint(1, 5000)])
            cells = bytes(rng.choice(markers) for _ in range(size))
            counts = tuple(k - 3 + c for c in cells)
            expanded = _expand(cells, k)
            assert expanded == expand_cells(CellSeries(0, counts)), (k, markers)
            assert expanded.symbols == b"".join(b"\x01" + bytes(z) for z in counts)


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


def test_an_unknown_frequency_kind_is_refused():
    with pytest.raises(InvalidSpec, match=r"^unknown frequency kind 'bogus'$"):
        Frequency("bogus")
