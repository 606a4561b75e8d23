"""The per-value memos and the trusted internal constructors.

`canonical` keeps its result on the value it scanned and `hash` keeps its
result too, and values built from parts that are already valid skip their
constructor's checks.  These tests hold all three to the public
constructors and to a fresh scan.
"""

import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from epshift import jsonio, sequences
from epshift.classify import (
    ConjugacyMove,
    SlidingBlockCode,
    _raise_moves,
    apply_code,
    apply_code_to_periodic,
    conjugacy_witness,
    expand_symbol,
    flow_witness,
)
from epshift.errors import (
    DegenerateImage,
    DegeneratePeriodic,
    IncompatibleAlphabets,
    UnknownSymbol,
)
from epshift.sequences import (
    EPSeq,
    PeriodicSeq,
    _normal_form,
    anomaly_size,
    canonical,
    make_ep,
    remove_anomaly,
)
from epshift.sturmian import (
    CellSeries,
    Frequency,
    SturmianSpec,
    TYPE_S,
    TYPE_SPRIME,
    cell_series,
    expand_cells,
    skew_sturmian,
)
from epshift.verify import anomaly_windows, coprime_pairs, remove_window
from epshift.words import BINARY, Alphabet, Word, primitive_root, word
from shifts import shifted

LETTERS = ("a", "b", "c", "d")

# (alphabet size, period word, anomaly) over 2 to 4 letters
ep_parts = st.integers(2, 4).flatmap(lambda k: st.tuples(
    st.just(k),
    st.lists(st.integers(0, k - 1), min_size=1, max_size=8),
    st.lists(st.integers(0, k - 1), min_size=1, max_size=20),
))


def ep_from(parts):
    """A new value on every call, so its memo starts empty."""
    k, wsyms, vsyms = parts
    alphabet = Alphabet(LETTERS[:k])
    try:
        return make_ep(Word(tuple(wsyms), alphabet), Word(tuple(vsyms), alphabet))
    except DegeneratePeriodic:
        assume(False)


def rebuilt_alphabet(a):
    return Alphabet(a.labels)


def rebuilt(v):
    """The value built again through the public constructors, which check
    every part; a cell series from the cells of its expansion."""
    if isinstance(v, Alphabet):
        return rebuilt_alphabet(v)
    if isinstance(v, CellSeries):
        return CellSeries(v.n_lo, tuple(map(len, expand_cells(v).text.split("1")[1:])))
    if isinstance(v, Word):
        return Word(v.symbols, rebuilt_alphabet(v.alphabet))
    if isinstance(v, PeriodicSeq):
        return PeriodicSeq(rebuilt(v.period_word))
    return EPSeq(rebuilt(v.period_word), rebuilt(v.anomaly))


def skew(q, p, stype):
    return skew_sturmian(SturmianSpec(Frequency.rational(q, p), stype))


# --- the memo ------------------------------------------------------------------

@settings(max_examples=300, deadline=None, derandomize=True)
@given(ep_parts)
def test_memo_agrees_with_a_fresh_scan_and_is_invisible(parts):
    x = ep_from(parts)
    assert "_canonical" not in vars(x)
    scan = _normal_form(x)
    c = canonical(x)
    assert c == scan.anchor(scan.start)
    assert canonical(c) is c and canonical(x) is c
    assert (scan.start, scan.length) == anomaly_windows(x)[0]
    assert anomaly_size(x) == scan.length == len(c.anomaly)
    # a value with filled memos and an equal one without are interchangeable
    memos = {"_canonical", "_hash"}
    for filled in (x, c):
        hash(filled)
        bare = make_ep(filled.period_word, filled.anomaly)
        assert memos <= vars(filled).keys() and not memos & vars(bare).keys()
        assert bare == filled and repr(bare) == repr(filled)
        assert hash(bare) == hash(filled) and vars(bare)["_hash"] == vars(filled)["_hash"]
        assert len({bare, filled}) == 1
        assert json.dumps(jsonio.emit_epseq(bare)) == json.dumps(jsonio.emit_epseq(filled))
        assert canonical(bare) == c


def test_a_canonical_value_is_its_own_memo():
    c = canonical(make_ep(word("01"), word("1")))
    bare = make_ep(c.period_word, c.anomaly)
    assert canonical(bare) is bare and canonical(c) is c
    y = shifted(bare, -2)
    assert y != bare and canonical(y) == bare and canonical(canonical(y)) is canonical(y)


def test_witnesses_scan_each_sequence_value_at_most_once(monkeypatch):
    scanned = []

    def counting(x):
        scanned.append(x)
        return _normal_form(x)

    monkeypatch.setattr(sequences, "_normal_form", counting)
    pairs = [(skew(1, 2, TYPE_S), skew(2, 1, TYPE_SPRIME)),
             (skew(3, 5, TYPE_S), skew(5, 3, TYPE_SPRIME))]
    for x, y in pairs:
        scanned.clear()
        conjugacy_witness(x, y)
        assert len(scanned) == len(set(scanned)) == 2
    for x, y in [(skew(1, 1, TYPE_S), skew(2, 3, TYPE_S)),
                 (skew(1, 2, TYPE_SPRIME), skew(3, 2, TYPE_S))]:
        scanned.clear()
        flow_witness(x, y)
        assert scanned and len(scanned) == len(set(scanned)), scanned


# --- trusted constructors ----------------------------------------------------------

@settings(max_examples=200, deadline=None, derandomize=True)
@given(ep_parts, st.data())
def test_trusted_paths_build_only_valid_values(parts, data):
    x = ep_from(parts)
    n, vl = len(x.period_word), len(x.anomaly)
    start = data.draw(st.integers(-2 * n, vl + n), label="start")
    length = data.draw(st.integers(1, vl + n), label="length")
    values = [x, canonical(x), remove_window(x, (start, length)), remove_anomaly(x),
              primitive_root(x.anomaly)[0]]
    label = data.draw(st.sampled_from([x.alphabet.labels[s] for s in set(x.anomaly.symbols)]),
                      label="expanded")
    values.append(expand_symbol(x, label, data.draw(st.integers(1, 3), label="count"))[0])
    q, p = data.draw(st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 3), (3, 5), (5, 2)]),
                     label="frequency")
    stype = data.draw(st.sampled_from([TYPE_S, TYPE_SPRIME]), label="type")
    spec = SturmianSpec(Frequency.rational(q, p), stype, data.draw(st.integers(-3, 3), label="m"))
    values += [cell_series(spec, start, start + length - 1), skew_sturmian(spec)]
    for dn, da in ((1, 0), (0, 1)):
        moves, end = _raise_moves(x, dn, da)
        values += [m.result for m in moves] + [end]
    # a random total code with memory and anticipation at most one
    mem, ant = data.draw(st.integers(0, 1), label="memory"), data.draw(st.integers(0, 1))
    size = len(x.alphabet)
    blocks = [()]
    for _ in range(mem + ant + 1):
        blocks = [b + (s,) for b in blocks for s in range(size)]
    outs = data.draw(st.lists(st.integers(0, size - 1), min_size=len(blocks),
                              max_size=len(blocks)), label="outputs")
    code = SlidingBlockCode(mem, ant, tuple(zip(blocks, outs)), x.alphabet, x.alphabet)
    values.append(apply_code_to_periodic(code, remove_anomaly(x)))
    try:
        values.append(apply_code(code, x))
    except DegenerateImage:
        pass
    for v in values:
        assert rebuilt(v) == v
    fwd, inv = conjugacy_witness(x, canonical(x))
    codes = [fwd, inv] + [m.code for dn, da in ((1, 0), (0, 1))
                          for m in _raise_moves(x, dn, da)[0] if isinstance(m, ConjugacyMove)]
    for c in codes:
        again = SlidingBlockCode(c.memory, c.anticipation, c.entries, rebuilt_alphabet(
            c.source_alphabet), rebuilt_alphabet(c.target_alphabet))
        assert again == c and hash(again) == hash(c) and repr(again) == repr(c)
        assert again.entries == c.entries


def test_skew_sturmian_returns_what_the_checked_constructors_build():
    for q, p in coprime_pairs(60):
        for stype in (TYPE_S, TYPE_SPRIME):
            for m in (-2, 0, 3):
                x = skew_sturmian(SturmianSpec(Frequency.rational(q, p), stype, m))
                assert rebuilt(x) == x, x  # EPSeq of checked words
                assert make_ep(x.period_word, x.anomaly) == x, x


def test_trusted_takes_every_field_and_memos_no_comparison_sees():
    for build in (lambda: Word._trusted((0, 1)),
                  lambda: EPSeq._trusted(word("01"), word("1"), word("0")),
                  lambda: Alphabet._trusted()):
        with pytest.raises(TypeError):
            build()
    c = canonical(make_ep(word("01"), word("1")))
    bare = make_ep(c.period_word, c.anomaly)
    marked = EPSeq._trusted(c.period_word, c.anomaly, _canonical=True)
    assert marked._fields == bare._fields == ("period_word", "anomaly")
    assert marked == bare and hash(marked) == hash(bare) and repr(marked) == repr(bare)
    assert json.dumps(jsonio.emit_epseq(marked)) == json.dumps(jsonio.emit_epseq(bare))
    assert canonical(marked) is marked and bare._canonical is None
    # a 1-block code built trusted from its translate table equals the
    # checked code, which normalizes its rows into that table and keeps no
    # memo but the hash
    entries = (((0,), 1), ((1,), 0))
    checked = SlidingBlockCode(0, 0, entries, BINARY, BINARY)
    trusted = SlidingBlockCode._trusted(0, 0, b"\x01\x00" + b"\xff" * 254, BINARY, BINARY)
    assert trusted == checked and hash(trusted) == hash(checked)
    assert repr(trusted) == repr(checked) and trusted.read(b"\x00\x01\x01") == b"\x01\x00\x00"
    assert trusted.entries == checked.entries == entries
    assert set(vars(checked)) == set(SlidingBlockCode._fields) | {"_hash"}
    assert jsonio.emit_code(trusted) == jsonio.emit_code(checked)
    with pytest.raises(AttributeError):
        trusted.memory = 1
    # a wider code built trusted from its dict by packed block, in any
    # order, equals the checked code, which keys its rows the same way;
    # hash and repr read the sorted rows, and no memo but the hash is kept
    rows = tuple(((a, b), a ^ b) for a in (0, 1) for b in (0, 1))
    wide = SlidingBlockCode(0, 1, rows, BINARY, BINARY)
    keyed = SlidingBlockCode._trusted(0, 1, {bytes(b): o for b, o in reversed(rows)},
                                      BINARY, BINARY)
    assert keyed == wide and hash(keyed) == hash(wide) and repr(keyed) == repr(wide)
    assert wide.entries == keyed.entries == rows and f"_table={rows!r}" in repr(keyed)
    assert wide.read(b"\x00\x01\x01\x00") == keyed.read(b"\x00\x01\x01\x00") == b"\x01\x00\x01"
    assert set(vars(wide)) == set(vars(keyed)) == set(SlidingBlockCode._fields) | {"_hash"}
    # an image test reads the table and leaves no memo on the code
    unread = SlidingBlockCode(0, 0, entries, BINARY, BINARY)
    x = make_ep(word("01"), word("1"))
    assert apply_code(trusted, x) == apply_code(checked, x) == make_ep(word("10"), word("0"))
    assert set(vars(trusted)) == set(SlidingBlockCode._fields) | {"_hash"}
    for built in (trusted, checked):
        assert built == unread and hash(built) == hash(unread) and repr(built) == repr(unread)
        assert json.dumps(jsonio.emit_code(built)) == json.dumps(jsonio.emit_code(unread))
    # an alphabet built by minting keeps its next counter, which nothing compares
    bigger, fresh = BINARY.extended(2)
    bare = Alphabet(bigger.labels)
    assert fresh == ("x0'", "x1'") and bigger._counter == "2" and "_counter" not in vars(bare)
    assert bigger == bare and hash(bigger) == hash(bare) and repr(bigger) == repr(bare)
    x = EPSeq(Word((0, 2), bigger), Word((3,), bigger))
    assert json.dumps(jsonio.emit_epseq(x)) == json.dumps(jsonio.emit_epseq(rebuilt(x)))


def test_public_constructors_reject_what_they_rejected():
    abc = Alphabet(("a", "b", "c"))
    for labels in ((), ("a", "a"), ("a,b",), ("[",), ("a]",), ("",), (0, 1), ("a", None)):
        with pytest.raises(ValueError):
            Alphabet(labels)
    for label in ("a", "c", "", "x,", "[", "]", 3, None):
        with pytest.raises(ValueError):
            Alphabet(abc.labels + (label,))
    for syms in ((3,), (-1,), (0, 7)):
        with pytest.raises(UnknownSymbol):
            Word(syms, abc)
    with pytest.raises(ValueError, match="primitive"):
        PeriodicSeq(word("00"))
    bad_eps = [((word("00"), word("1")), ValueError), ((word("0"), word("00")), DegeneratePeriodic),
               ((word("01"), word("101")), ValueError), ((word("0"), Word((), BINARY)), ValueError),
               ((Word((), BINARY), word("1")), ValueError),
               ((word("0"), word("ab", abc)), IncompatibleAlphabets)]
    for (w, v), err in bad_eps:
        with pytest.raises(err):
            EPSeq(w, v)
    for w, v in (("0", "00"), ("01", "0101")):
        with pytest.raises(DegeneratePeriodic):
            make_ep(word(w), word(v))
    with pytest.raises(ValueError):
        make_ep(word("0"), Word((), BINARY))
    with pytest.raises(IncompatibleAlphabets):
        make_ep(word("0"), word("ab", abc))
    ok = (((0,), 0), ((1,), 1))
    for mem, ant, entries in ((-1, 0, ok), (0, 0, ()), (0, 1, ok), (0, 0, (((0,), 0), ((0,), 1)))):
        with pytest.raises(ValueError):
            SlidingBlockCode(mem, ant, entries, BINARY, BINARY)


@pytest.mark.parametrize("entries", [(((0,), 5), ((1,), 0)), (((0,), -1), ((1,), 0))])
def test_code_rejects_outputs_outside_the_target_alphabet(entries):
    with pytest.raises(ValueError, match="target alphabet"):
        SlidingBlockCode(0, 0, entries, BINARY, BINARY)


@pytest.mark.parametrize("entries", [(((0,), 0), ((9,), 1)), (((-1,), 0), ((1,), 1)),
                                     (((0, 2), 0), ((1, 1), 1))])
def test_code_rejects_blocks_outside_the_source_alphabet(entries):
    blen = len(entries[0][0])
    with pytest.raises(ValueError, match="source alphabet"):
        SlidingBlockCode(0, blen - 1, entries, BINARY, BINARY)
