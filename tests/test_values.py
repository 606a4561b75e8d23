"""The shared frozen-value base class, `words.Value`.

Every value class of the package derives from it and must behave as the
frozen records it replaced: the same construction, equality, hash and
repr, and no mutation.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import epshift
from epshift import classify, jsonio
from epshift.bezout import BezoutPair, restricted_bezout
from epshift.classify import (
    _raise_moves,
    _witness_code,
    apply_code,
    apply_code_to_periodic,
    conjugacy_witness,
    expand_symbol,
)
from epshift.errors import DegeneratePeriodic
from epshift.sequences import (
    AnomalyWindow,
    EPSeq,
    PeriodicSeq,
    anomaly_windows,
    canonical,
    make_ep,
    remove_window,
    shift,
    window,
)
from epshift.sturmian import (
    TYPE_S,
    TYPE_SPRIME,
    CellSeries,
    Frequency,
    SturmianSpec,
    cell_series,
    cutting_sequence,
    expand_cells,
    skew_sturmian,
    symbol_reverse,
)
from epshift.words import BINARY, Alphabet, Value, Word, primitive_root, rotate, word


class Window(Value):
    """Same fields as AnomalyWindow, another class."""

    start: int
    length: int


def test_equality_holds_only_within_one_class():
    assert AnomalyWindow(1, 2) == AnomalyWindow(1, 2)
    assert AnomalyWindow(1, 2) != AnomalyWindow(2, 1)
    assert AnomalyWindow(1, 2) != Window(1, 2) and Window(1, 2) != AnomalyWindow(1, 2)
    assert AnomalyWindow(1, 2) != (1, 2)
    assert Frequency.zero() != Frequency.infinity()


def test_equal_values_hash_equal():
    pairs = [(BezoutPair(2, 5, 1, 3), restricted_bezout(2, 5)),
             (Word((0, 1), Alphabet(("0", "1"))), word("01")),
             (make_ep(word("01"), word("1")), make_ep(word("0101"), word("1"))),
             (SturmianSpec(Frequency.rational(1, 2), TYPE_S), SturmianSpec(Frequency(
                 "rational", 1, 2), TYPE_S, 0))]
    for a, b in pairs:
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b}) == 1


@pytest.mark.parametrize("value", [restricted_bezout(2, 5), AnomalyWindow(0, 1), BINARY,
                                   word("10"), make_ep(word("0"), word("1"))])
def test_assignment_and_deletion_raise(value):
    field = value._fields[0]
    before = repr(value)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        setattr(value, "extra", 1)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert repr(value) == before


def test_keyword_construction_and_defaults():
    assert BezoutPair(q=2, p=5, a=1, b=3) == restricted_bezout(2, 5)
    assert BezoutPair(2, 5, b=3, a=1) == restricted_bezout(2, 5)
    with pytest.raises(ValueError):
        BezoutPair(q=2, p=5, a=0, b=3)  # __post_init__ runs on keyword construction
    zero = Frequency("zero")
    assert zero.q is None and zero.p is None and zero == Frequency.zero()
    assert SturmianSpec(Frequency.infinity(), TYPE_S).m == 0
    assert CellSeries(4).zeros == () and CellSeries(n_lo=4) == CellSeries(4, ())


@pytest.mark.parametrize("build", [
    lambda: BezoutPair(2, 5, 1),
    lambda: BezoutPair(q=2, p=5, a=1),
    lambda: SturmianSpec(Frequency.zero()),
    lambda: BezoutPair(2, 5, 1, 3, 0),
    lambda: BezoutPair(2, 5, 1, 3, c=0),
    lambda: AnomalyWindow(1, start=1),
    lambda: CellSeries(0, cell=()),
])
def test_missing_unknown_and_repeated_fields_raise_type_error(build):
    with pytest.raises(TypeError):
        build()


def test_repr_is_the_field_list():
    assert repr(restricted_bezout(2, 5)) == "BezoutPair(q=2, p=5, a=1, b=3)"
    assert repr(AnomalyWindow(-3, 4)) == "AnomalyWindow(start=-3, length=4)"
    assert repr(Frequency.rational(1, 2)) == "Frequency(kind='rational', q=1, p=2)"
    assert repr(Frequency.zero()) == "Frequency(kind='zero', q=None, p=None)"
    assert repr(SturmianSpec(Frequency.rational(1, 2), TYPE_S)) == (
        "SturmianSpec(freq=Frequency(kind='rational', q=1, p=2), stype='S', m=0)")
    assert repr(CellSeries(3)) == "CellSeries(n_lo=3, zeros=())"
    assert repr(CellSeries(0, (1, 0))) == "CellSeries(n_lo=0, zeros=(1, 0))"
    # classes with their own repr keep it
    assert repr(make_ep(word("01"), word("1"))) == "EPSeq(period='01', anomaly='1')"


def test_cli_import_loads_no_code_generation_modules():
    """`import epshift.cli` adds neither dataclasses nor inspect to what
    the bare interpreter had loaded: each costs every command milliseconds."""
    probe = ("import sys; before = set(sys.modules); import epshift.cli; "
             "print(' '.join(sorted(set(sys.modules) - before)))")
    src = str(Path(epshift.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert "epshift.cli" in out
    assert not {"dataclasses", "inspect"} & set(out)


# --- one kind of symbols per alphabet size ---------------------------------------

# a word over at most 256 symbols holds bytes, over more a tuple
SIZED = {k: Alphabet(tuple(f"s{i}" for i in range(k))) for k in (2, 255, 256, 257)}


def _text(alphabet, ids):
    """A word literal written from a tuple of ids, as `Word.text` was."""
    labels = [alphabet.labels[s] for s in ids]
    return "".join(labels) if alphabet.single_char else "[" + ",".join(labels) + "]"


def _assert_word(w):
    """w holds its alphabet's kind, and equals, hashes and reprs as the
    word the checked constructor builds from a tuple of its ids."""
    assert type(w.symbols) is (bytes if len(w.alphabet) <= 256 else tuple), len(w.alphabet)
    ref = Word(tuple(w.symbols), w.alphabet)
    assert ref == w and hash(ref) == hash(w) and repr(ref) == repr(w)
    assert repr(w) == f"Word({_text(w.alphabet, tuple(w.symbols))!r})"


def _assert_seq(x):
    """_assert_word on the words of x, and x against the value built from
    tuples, by ==, hash, repr and its JSON, which parses back to x."""
    words = (x.period_word,) if isinstance(x, PeriodicSeq) else (x.period_word, x.anomaly)
    for w in words:
        _assert_word(w)
    ref = [Word(tuple(w.symbols), w.alphabet) for w in words]
    ref = PeriodicSeq(*ref) if isinstance(x, PeriodicSeq) else make_ep(*ref)
    assert ref == x and hash(ref) == hash(x) and repr(ref) == repr(x)
    obj = (jsonio.emit_perseq if isinstance(x, PeriodicSeq) else jsonio.emit_epseq)(x)
    a = x.period_word.alphabet
    texts = [_text(a, tuple(w.symbols)) for w in words]
    assert obj == {"format": obj["format"], "alphabet": list(a.labels),
                   "period": texts[0], **({"phase": 0} if isinstance(x, PeriodicSeq)
                                          else {"anomaly": texts[1]})}
    if isinstance(x, EPSeq):
        parsed = jsonio.parse_epseq(json.loads(json.dumps(obj)))
        assert parsed == x
        for w in (parsed.period_word, parsed.anomaly):
            _assert_word(w)


def _assert_code(code):
    """A code's blocks are tuples over any alphabet, its JSON rows are
    written from them, and it parses back to an equal code."""
    src, dst = code.source_alphabet, code.target_alphabet
    assert all(type(block) is tuple for block, _ in code.entries)
    obj = jsonio.emit_code(code)
    assert obj["table"] == [[_text(src, block), dst.labels[out]] for block, out in code.entries]
    assert jsonio.parse_code(json.loads(json.dumps(obj))) == code


@st.composite
def sized_sequences(draw):
    """An EPSeq built from tuples over an alphabet of 2, 255, 256 or 257
    symbols, on the ids at either end of it."""
    a = SIZED[draw(st.sampled_from(sorted(SIZED)), label="size")]
    ids = st.sampled_from(sorted({0, 1, len(a) // 2, len(a) - 2, len(a) - 1}))
    period = draw(st.lists(ids, min_size=1, max_size=5), label="period")
    anomaly = draw(st.lists(ids, min_size=1, max_size=8), label="anomaly")
    try:
        return make_ep(Word(tuple(period), a), Word(tuple(anomaly), a))
    except DegeneratePeriodic:
        assume(False)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(sized_sequences())
@example(make_ep(Word((255, 0), SIZED[256]), Word((1,), SIZED[256])))
@example(make_ep(Word((256, 0), SIZED[257]), Word((256, 256, 1), SIZED[257])))
def test_every_word_holds_its_alphabet_kind(x):
    # the checked constructor, the parser, rotation and primitive roots
    _assert_seq(x)
    w = x.period_word
    for v in (word(w.text, x.alphabet), rotate(w, 1),
              primitive_root(Word(tuple(w.symbols) * 3, x.alphabet))[0]):
        _assert_word(v)
    # the scan, and the anchor of every form it gives
    for y in (canonical(x), shift(x, 1), shift(x, -2), remove_window(x, anomaly_windows(x)[0]),
              PeriodicSeq(w)):
        _assert_seq(y)
    _assert_word(window(x, -3, len(x.anomaly) + 2))
    # the least-radius search, its buffers, and what each code reads
    y = canonical(shift(x, 1))
    lo, s, d = classify._search_buffers(canonical(x), y, 2)
    assert type(s) is type(d) is type(x.period_word.symbols)
    fwd, inv = conjugacy_witness(x, y)
    for code in (fwd, inv, _witness_code(canonical(x), y)):
        _assert_code(code)
    for z in (apply_code(fwd, x), apply_code(inv, y), apply_code_to_periodic(fwd, PeriodicSeq(w))):
        _assert_seq(z)
    # minted alphabets, across the 256-symbol bound when x is near it
    for k in (1, 2):
        _assert_seq(expand_symbol(x, x.alphabet.labels[x.anomaly.symbols[0]], k)[0])
    moves, end = _raise_moves(x, 1, 1)
    _assert_seq(end)
    for move in moves:
        _assert_seq(move.result)
    _assert_code(moves[0].code)


def test_the_generators_and_codes_between_sizes_hold_each_kind():
    for q, p in ((1, 1), (2, 5), (47, 53)):
        x = skew_sturmian(SturmianSpec(Frequency.rational(q, p), TYPE_S))
        y = skew_sturmian(SturmianSpec(Frequency.rational(p, q), TYPE_SPRIME))
        for z in (x, y, symbol_reverse(x)):
            _assert_seq(z)
        _assert_word(expand_cells(cell_series(SturmianSpec(Frequency.rational(q, p), TYPE_S),
                                              -3, 3)))
        _assert_word(cutting_sequence(SturmianSpec(Frequency.rational(q, p), TYPE_S), -3, 3))
        for code in conjugacy_witness(x, y):
            _assert_code(code)
    # a radius-1 witness over each size: its search keys blocks by slices
    for a in SIZED.values():
        hi = len(a) - 1
        x = make_ep(Word((0, 0, hi), a), Word((hi,), a))
        y = make_ep(Word((0, 0, hi), a), Word((0,), a))
        fwd, inv = conjugacy_witness(x, y)
        assert fwd.memory == 1
        for code in (fwd, inv):
            _assert_code(code)
        for z in (apply_code(fwd, x), apply_code(inv, y)):
            _assert_seq(z)
    # 1-block codes from each size onto each: the byte path up to 255 target
    # symbols, the lookup route above, and both give the target's kind
    for src in SIZED.values():
        x = make_ep(Word((len(src) - 1, 0), src), Word((1,), src))
        for dst in SIZED.values():
            table = {len(src) - 1: len(dst) - 1, 0: 0, 1: 1}
            code = classify.SlidingBlockCode(
                0, 0, tuple(((s,), out) for s, out in sorted(table.items())), src, dst)
            assert type(code.read(x.period_word.symbols)) is type(
                Word((0,), dst).symbols)
            _assert_seq(apply_code(code, x))
            _assert_code(code)
