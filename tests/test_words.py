import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epshift.errors import EmptyWord, UnknownSymbol
from epshift.sequences import EPSeq, make_ep
from epshift.verify import is_balanced_chains
from epshift.words import (
    BINARY,
    Alphabet,
    Word,
    is_primitive,
    primitive_root,
    word,
)


def test_is_primitive_examples():
    assert not is_primitive(word("0101"))
    assert is_primitive(word("110"))
    assert is_primitive(word("0"))
    with pytest.raises(EmptyWord):
        is_primitive(word(""))


def test_primitive_root_examples():
    assert primitive_root(word("0101")) == (word("01"), 2)
    assert primitive_root(word("110")) == (word("110"), 1)
    aa = Alphabet(("a",))
    assert primitive_root(word("aaa", aa)) == (word("a", aa), 3)


def test_primitive_root_consistency():
    for n in range(1, 9):
        for bits in itertools.product((0, 1), repeat=n):
            w = Word(bits, BINARY)
            root, k = primitive_root(w)
            assert root.symbols * k == w.symbols
            assert is_primitive(root)
            assert is_primitive(w) == (k == 1)


def test_primitive_root_of_the_empty_word_raises():
    for alphabet in (BINARY, Alphabet(tuple(f"s{i}" for i in range(257)))):
        with pytest.raises(EmptyWord, match=r"^the empty word has no primitive root$"):
            primitive_root(Word((), alphabet))


def test_doubling_occurrence_characterizes_primitivity():
    # w occurs exactly twice in w.w iff w is primitive (|w| <= 10, binary)
    for n in range(1, 11):
        for bits in itertools.product((0, 1), repeat=n):
            w = "".join(map(str, bits))
            doubled = w + w
            occurrences = sum(
                1 for i in range(len(doubled) - n + 1) if doubled[i:i + n] == w
            )
            assert (occurrences == 2) == is_primitive(Word(bits, BINARY))


def test_balanced_chains_examples():
    # the zero counts of the cells 10 1 10, 100 1 and 1
    assert is_balanced_chains([1, 0, 1])
    assert not is_balanced_chains([2, 0])
    assert is_balanced_chains((0,))
    # single cells differ by at most one, but the 2-chains 1+1 and 0+0 by two
    assert not is_balanced_chains([1, 1, 0, 0])


def test_word_literals_round_trip():
    primed = Alphabet(("a", "b", "x0'"))
    w = word("[a,b,x0',a]", primed)
    assert w.labels() == ("a", "b", "x0'", "a")
    assert word(w.text, primed) == w
    assert word("[]", primed).symbols == b""
    assert word("110").text == "110"


def _regex_mint_label(alphabet):
    """The label mint_labels(1) gives, as first written: a regex scan of the labels."""
    n = max([int(m.group(1)) + 1 for m in map(re.compile(r"x(\d+)'").fullmatch, alphabet.labels)
             if m], default=0)
    while f"x{n}'" in alphabet.labels:
        n += 1
    return f"x{n}'"


MINT_LABELS = ["x'", "xa'", "x007'", "x\u0663'", "x0", "x1'", "y2'", "x12'3'", "x 4'", "x-1'",
               "x\u00b2'", "x\u2165'", "x\uff19'", "X5'", "x3''", "0", "1"]


LABEL_TEXT = (st.sampled_from(MINT_LABELS)
              | st.from_regex(r"x[0-9\u0660-\u0669a]{0,3}'?", fullmatch=True)
              | st.text(alphabet="x'0123456789\u0663a", min_size=1, max_size=5))


def _assert_lookups_match_the_tuple_scan(a, probes):
    """`in` and `index`, which read the label -> id memo, answer as a scan
    of the labels tuple does, and an absent label keeps its message."""
    for label in (*probes, *a.labels):
        assert (label in a) == (label in a.labels)
        if label in a.labels:
            assert a.index(label) == a.labels.index(label)
        else:
            with pytest.raises(UnknownSymbol) as err:
                a.index(label)
            assert str(err.value) == f"symbol {label!r} not in alphabet {a.labels}"


@settings(max_examples=300, deadline=None)
@given(st.lists(LABEL_TEXT, min_size=1, max_size=6, unique=True), st.lists(LABEL_TEXT, max_size=4))
def test_mint_label_matches_the_regex_scan(labels, probes):
    a = Alphabet(tuple(labels))
    assert a.mint_labels(1) == (_regex_mint_label(a),)
    _assert_lookups_match_the_tuple_scan(a, probes + list(a.mint_labels(1)))


@settings(max_examples=200, deadline=None)
@given(st.lists(LABEL_TEXT, min_size=1, max_size=6, unique=True),
       st.lists(st.one_of(st.none(), LABEL_TEXT), max_size=6))
def test_mint_labels_match_the_regex_scan_after_each_appended_label(labels, appended):
    # None appends the minted label, any other label itself.  The lookups run
    # on each alphabet before a label is appended, so a memo built on one
    # alphabet must not answer for the next.  Last, k labels minted at once
    # are the labels of k single mints, each appended before the next
    a = Alphabet(tuple(labels))
    for label in appended:
        fresh = a.mint_labels(1)[0]
        assert fresh == _regex_mint_label(a)
        label = fresh if label is None else label
        _assert_lookups_match_the_tuple_scan(a, [label, fresh])
        if label not in a:
            a = Alphabet(a.labels + (label,))
            assert a.index(label) == len(a) - 1
    assert a.mint_labels(1) == (_regex_mint_label(a),)
    _assert_lookups_match_the_tuple_scan(a, list(a.mint_labels(1)))
    one_by_one = []
    for _ in range(len(appended) + 1):
        one_by_one.append(_regex_mint_label(Alphabet(a.labels + tuple(one_by_one))))
    assert a.mint_labels(len(one_by_one)) == tuple(one_by_one)


@settings(max_examples=200, deadline=None)
@given(st.lists(LABEL_TEXT, min_size=1, max_size=6, unique=True),
       st.lists(st.integers(0, 4), min_size=1, max_size=6))
def test_a_chain_of_mints_matches_the_full_scan(labels, counts):
    # each alphabet `extended` builds keeps its next counter; a copy built
    # from its labels alone scans them, and both mint the same labels
    a = Alphabet(tuple(labels))
    for count in counts:
        bigger, fresh = a.extended(count)
        scanned = Alphabet(a.labels)
        assert fresh == scanned.mint_labels(count) and bigger == Alphabet(a.labels + fresh)
        a = bigger
        assert a.mint_labels(1) == Alphabet(a.labels).mint_labels(1) == (_regex_mint_label(a),)
    assert a.mint_labels(3) == Alphabet(a.labels).mint_labels(3)


def test_mint_label_reads_decimal_counters_only():
    for labels, fresh in ((("x'", "xa'"), "x0'"), (("x007'",), "x8'"), (("x\u0663'",), "x4'"),
                          (("x\u00b2'", "x0'"), "x1'"), (("x1'", "x0"), "x2'")):
        a = Alphabet(labels)
        assert a.mint_labels(1) == (_regex_mint_label(a),) == (fresh,), labels


def test_mint_labels_count_on_counters_of_any_length():
    # 5,000 digits: more than CPython converts between int and str by default
    ones, nines = "1" * 5000, "9" * 5000
    assert Alphabet(("0", f"x{ones}'")).mint_labels(2) == (f"x{ones[:-1]}2'", f"x{ones[:-1]}3'")
    assert Alphabet((f"x{nines}'", f"x0{ones}'")).mint_labels(2) == (
        f"x1{'0' * 5000}'", f"x1{'0' * 4999}1'")
    assert Alphabet((f"x{chr(0x663) * 5000}'", "x9'")).mint_labels(1) == (f"x{'3' * 4999}4'",)


def test_alphabet_validation_and_minting():
    with pytest.raises(ValueError):
        Alphabet(("0", "0"))
    # "[a,b]" over ("a,b", "a", "b") would read back as two symbols, and a
    # word over ("[", "]") would read back as a bracketed literal
    for labels in (("a,b", "a", "b"), ("[", "]"), ("a]",), ("",), (0, 1), ("a", None)):
        with pytest.raises(ValueError, match="label"):
            Alphabet(labels)
    a = BINARY
    assert a.mint_labels(1) == ("x0'",)
    b = Alphabet(a.labels + ("x0'",))
    assert b.mint_labels(2) == ("x1'", "x2'")
    with pytest.raises(UnknownSymbol):
        word("2")


def test_an_alphabet_given_as_a_list_is_the_one_given_as_a_tuple():
    listed, ab = Alphabet(["a", "b"]), Alphabet(("a", "b"))
    assert listed.labels == ("a", "b") and listed == ab and hash(listed) == hash(ab)
    x = make_ep(Word((0, 1), listed), Word((1,), listed))
    assert x == make_ep(Word((0, 1), ab), Word((1,), ab)) == EPSeq(Word((0, 1), listed),
                                                                   Word((1,), ab))
    assert hash(x) == hash(EPSeq(Word((0, 1), ab), Word((1,), ab)))

