import functools
import gc
import itertools
import json
import random
import re
import tracemalloc
import weakref

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from epshift import classify, jsonio, verify
from epshift.classify import (
    BACKWARD,
    FORWARD,
    ConjugacyMove,
    ExpandMove,
    FlowWitness,
    SlidingBlockCode,
    _image_similar,
    _raise_moves,
    _replay_move,
    _witness_code,
    apply_code,
    apply_code_to_periodic,
    conjugacy_witness,
    conjugate_ep,
    expand_symbol,
    flow_witness,
    identity_code,
    skew_conjugacy_class,
    verify_flow_witness,
)
from epshift.errors import (
    DegenerateImage,
    DegeneratePeriodic,
    EpshiftError,
    IncompatibleAlphabets,
    InternalMismatch,
    MissingBlock,
    NotConjugate,
    SymbolAbsent,
)
from epshift.sequences import (
    PeriodicSeq,
    _scan,
    _symbols,
    _tiled,
    anomaly_size,
    canonical,
    least_period,
    make_ep,
    remove_anomaly,
    shift,
    similar,
)
from epshift.sturmian import (
    Frequency,
    SturmianSpec,
    TYPE_S,
    TYPE_SPRIME,
    skew_sturmian,
    symbol_reverse,
)
from epshift.words import Alphabet, BINARY, Word, packed, primitive_root, rotate, word


def ep(w, v):
    return make_ep(word(w), word(v))


def skew(stype, q, p):
    return skew_sturmian(SturmianSpec(Frequency.rational(q, p), stype))


def swap_code():
    return SlidingBlockCode(0, 0, (((0,), 1), ((1,), 0)), BINARY, BINARY)


def check_pair(x, y, fwd, inv, trail):
    """Check the code pair (fwd, inv) as the conjugacy witness it is: the
    flow witness with no moves and a FORWARD and a BACKWARD final link."""
    return verify_flow_witness(x, y, FlowWitness((), (), ((fwd, FORWARD), (inv, BACKWARD))), trail)


def shift_by_one_code():
    entries = tuple(((a, b), b) for a in (0, 1) for b in (0, 1))
    return SlidingBlockCode(0, 1, entries, BINARY, BINARY)


# --- decision ---------------------------------------------------------------

def test_conjugate_ep_examples():
    x = skew(TYPE_S, 1, 2)
    assert conjugate_ep(x, x)
    y = skew(TYPE_S, 2, 1)
    assert (least_period(x), anomaly_size(x)) == (3, 1)
    assert (least_period(y), anomaly_size(y)) == (3, 2)
    assert not conjugate_ep(x, y)
    z = skew(TYPE_SPRIME, 2, 1)
    assert anomaly_size(z) == 1
    assert conjugate_ep(x, z)


def test_conjugate_ep_is_equivalence(small_family):
    sample = small_family[::101]
    for a in sample:
        assert conjugate_ep(a, a)
        for b in sample:
            assert conjugate_ep(a, b) == conjugate_ep(b, a)
            for c in sample[:5]:
                if conjugate_ep(a, b) and conjugate_ep(b, c):
                    assert conjugate_ep(a, c)


# --- witnesses ---------------------------------------------------------------

def test_identity_witness():
    x = ep("0", "11")
    fwd, inv = conjugacy_witness(x, x)
    assert fwd.memory == fwd.anticipation == 0
    assert apply_code(fwd, x) == x
    assert check_pair(x, x, fwd, inv, [])


def test_witness_between_reciprocal_types():
    x, y = skew(TYPE_S, 1, 1), skew(TYPE_SPRIME, 1, 1)
    fwd, inv = conjugacy_witness(x, y)
    assert similar(apply_code(fwd, x), y)
    assert similar(apply_code(inv, y), x)
    # the one-block symbol swap is also a witness here
    sw = swap_code()
    assert similar(apply_code(sw, x), y)
    assert check_pair(x, y, sw, sw, [])


def test_witness_across_disjoint_alphabets():
    other = Alphabet(("a", "b"))
    x = ep("0", "11")
    y = make_ep(word("a", other), word("bb", other))
    assert conjugate_ep(x, y)
    fwd, inv = conjugacy_witness(x, y)
    assert similar(apply_code(fwd, x), y)
    assert similar(apply_code(inv, y), x)


def test_witness_requires_matching_invariants():
    with pytest.raises(NotConjugate):
        conjugacy_witness(skew(TYPE_S, 1, 2), skew(TYPE_S, 2, 1))
    x, y = skew(TYPE_S, 1, 1), skew(TYPE_S, 1, 2)
    assert (least_period(x), least_period(y)) == (2, 3)
    with pytest.raises(NotConjugate):
        conjugacy_witness(x, y)


def test_check_conjugacy_rejects_each_sabotage():
    x, y = skew(TYPE_S, 1, 2), skew(TYPE_SPRIME, 2, 1)
    fwd, inv = conjugacy_witness(x, y)
    assert check_pair(x, y, fwd, inv, [])
    ident = identity_code(BINARY)
    # the identity maps each sequence to itself, not onto a shift of the other
    for f, i, reason in (
        (ident, inv, "forward image not similar to target"),
        (fwd, ident, "inverse image not similar to source"),
    ):
        trail = []
        assert not check_pair(x, y, f, i, trail)
        assert trail == [reason]


def test_conjugacy_witness_raises_when_its_check_fails(monkeypatch):
    x, y = skew(TYPE_S, 1, 2), skew(TYPE_SPRIME, 2, 1)

    def failing_check(x, y, wit, trail):
        # the built pair, checked as the witness with no moves
        assert (wit.chain_x, wit.chain_y) == ((), ())
        assert [direction for _, direction in wit.final] == [FORWARD, BACKWARD]
        trail.append("inverse image not similar to source")
        return False

    monkeypatch.setattr(classify, "verify_flow_witness", failing_check)
    with pytest.raises(InternalMismatch, match="inverse image not similar to source"):
        conjugacy_witness(x, y)


# --- the two-image check against the three-part check ------------------------

def _composition_offset(fwd, inv, x):
    """The third test of the three-part check, written pointwise: the t in
    [-span, span] with inv(fwd(x))_i = x_{i+t} for |i| <= 3N + |v|, or
    None."""
    n = least_period(x)
    h = 3 * n + len(x.anomaly)
    span = fwd.memory + fwd.anticipation + inv.memory + inv.anticipation + n
    f, g = dict(fwd.entries), dict(inv.entries)
    mid = {
        j: f[tuple(x.symbol_id_at(k) for k in range(j - fwd.memory, j + fwd.anticipation + 1))]
        for j in range(-h - inv.memory, h + inv.anticipation + 1)
    }
    psi = [g[tuple(mid[j] for j in range(i - inv.memory, i + inv.anticipation + 1))]
           for i in range(-h, h + 1)]
    for t in range(-span, span + 1):
        if all(psi[i + h] == x.symbol_id_at(i + t) for i in range(-h, h + 1)):
            return t
    return None


def _three_part_check(x, y, fwd, inv):
    """The three-part check: the reason it rejects the pair, or None."""
    try:
        if not similar(apply_code(fwd, x), y):
            return "forward image not similar to target"
        if not similar(apply_code(inv, y), x):
            return "inverse image not similar to source"
        if _composition_offset(fwd, inv, x) is None:
            return "composition is not a shift"
    except EpshiftError as e:
        return f"replay error: {e}"
    return None


@st.composite
def conjugacy_cases(draw):
    """(x, y, fwd, inv) over 2 or 3 letters with random total codes of
    memory <= 1 and anticipation <= 2.  y is a random sequence, the forward
    image of x, or that image with inv replaced by a built witness code."""
    k = draw(st.integers(2, 3))
    alphabet = Alphabet(("a", "b", "c")[:k])

    def seq():
        w = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=4))
        v = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=6))
        try:
            return make_ep(Word(tuple(w), alphabet), Word(tuple(v), alphabet))
        except DegeneratePeriodic:
            assume(False)

    def code():
        m, a = draw(st.integers(0, 1)), draw(st.integers(0, 2))
        blocks = list(itertools.product(range(k), repeat=m + a + 1))
        outs = draw(st.lists(st.integers(0, k - 1), min_size=len(blocks), max_size=len(blocks)))
        return SlidingBlockCode(m, a, tuple(zip(blocks, outs)), alphabet, alphabet)

    x, fwd, inv = seq(), code(), code()
    mode = draw(st.sampled_from(["random", "image", "witness"]))
    if mode == "random":
        return x, seq(), fwd, inv
    try:
        y = apply_code(fwd, x)
    except DegenerateImage:
        return x, seq(), fwd, inv
    if mode == "witness" and conjugate_ep(x, y):
        inv = conjugacy_witness(y, x)[0]
    return x, y, fwd, inv


def _witnessed(x, y):
    return (x, y, *conjugacy_witness(x, y))


ABC = Alphabet(("a", "b", "c"))
WITNESSED = [
    _witnessed(skew(TYPE_S, 1, 2), skew(TYPE_SPRIME, 2, 1)),
    _witnessed(ep("0", "1"), ep("0", "111")),
    _witnessed(ep("01", "1"), ep("01", "111")),
    _witnessed(make_ep(word("ab", ABC), word("cc", ABC)),
               make_ep(word("ba", ABC), word("bcca", ABC))),
]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(conjugacy_cases())
@example(WITNESSED[0])
@example(WITNESSED[1])
@example(WITNESSED[2])
@example(WITNESSED[3])
def test_check_conjugacy_matches_three_part_check(case):
    x, y, fwd, inv = case
    reason = _three_part_check(x, y, fwd, inv)
    trail = []
    assert check_pair(x, y, fwd, inv, trail) == (reason is None)
    assert trail == ([] if reason is None else [reason])


def _outcome(f, *args):
    """f(*args), or the type and message of the EpshiftError it raises."""
    try:
        return f(*args)
    except EpshiftError as e:
        return type(e), str(e)


OTHER_ALPHABET = ep("01", "1")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(conjugacy_cases())
@example(WITNESSED[3])
def test_image_similar_matches_similar_of_apply_code(case):
    # the one-scan image test against the two-scan route it replaces,
    # errors included; OTHER_ALPHABET trips each alphabet check
    x, y, fwd, inv = case
    for code, s, t in ((fwd, x, y), (inv, y, x), (inv, x, y),
                       (fwd, x, OTHER_ALPHABET), (fwd, OTHER_ALPHABET, x)):
        assert (_outcome(_image_similar, code, s, t)
                == _outcome(lambda: similar(apply_code(code, s), t)))


def _random_codes(rng, count):
    """Total binary codes of block length 1 to 3, with random memory and
    random outputs."""
    codes = []
    for _ in range(count):
        blen = rng.randint(1, 3)
        mm = rng.randrange(blen)
        entries = tuple((b, rng.randrange(2)) for b in _all_blocks(blen))
        codes.append(SlidingBlockCode(mm, blen - 1 - mm, entries, BINARY, BINARY))
    return codes


def test_image_similar_matches_similar_of_apply_code_on_random_codes():
    # the in-place symbol comparison against the anchored image it replaces
    rng = random.Random(16)
    fam = verify.exhaustive_family(3, 4)
    outcomes = set()
    for code in _random_codes(rng, 12):
        for x in fam:
            targets = [x, fam[rng.randrange(len(fam))]]
            try:
                img = apply_code(code, x)
                targets += [img, shift(img, -1)]
            except DegenerateImage:
                pass
            for y in targets:
                got = _outcome(_image_similar, code, x, y)
                assert got == _outcome(lambda: similar(apply_code(code, x), y)), (code, x, y)
                outcomes.add(got if isinstance(got, bool) else got[0])
    assert outcomes == {True, False, DegenerateImage}


def test_image_similar_raises_where_the_anchored_image_did():
    ab = Alphabet(("a", "b"))
    x, over_ab = ep("01", "1"), make_ep(Word((0, 1), ab), Word((1,), ab))
    with pytest.raises(IncompatibleAlphabets):  # x is not over the code's source alphabet
        _image_similar(identity_code(BINARY), over_ab, x)
    with pytest.raises(IncompatibleAlphabets):  # the image is not over y's alphabet
        _image_similar(identity_code(BINARY), x, over_ab)
    relabel = SlidingBlockCode(0, 0, (((0,), 0), ((1,), 1)), BINARY, ab)
    with pytest.raises(IncompatibleAlphabets):  # equal symbol ids, other labels
        _image_similar(relabel, x, x)
    assert _image_similar(relabel, x, over_ab)
    constant = SlidingBlockCode(0, 0, (((0,), 0), ((1,), 0)), BINARY, BINARY)
    with pytest.raises(DegenerateImage):
        _image_similar(constant, x, x)


def test_witnessed_examples_reach_the_shift_search():
    for x, y, fwd, inv in WITNESSED:
        assert x != y
        assert similar(apply_code(fwd, x), y) and similar(apply_code(inv, y), x)
        assert _composition_offset(fwd, inv, x) is not None


def test_witness_preserves_periodic_orbit():
    x, y = skew(TYPE_S, 1, 2), skew(TYPE_SPRIME, 2, 1)
    fwd, _ = conjugacy_witness(x, y)
    img = apply_code_to_periodic(fwd, remove_anomaly(x))
    target = remove_anomaly(y)
    assert least_period(img) == least_period(target) == least_period(x)
    assert any(
        rotate(target.period_word, k) == img.period_word
        for k in range(least_period(target))
    )


# --- least radius -------------------------------------------------------------

def _pointwise_consistent(src, dst, k):
    """Whether one radius-k block map sends src onto dst position by
    position, read from a window far wider than the anomalies need."""
    h = k + 4 * least_period(src) + len(src.anomaly) + len(dst.anomaly) + 8
    table = {}
    for i in range(-h, h + 1):
        block = tuple(src.symbol_id_at(j) for j in range(i - k, i + k + 1))
        out = dst.symbol_id_at(i)
        if table.setdefault(block, out) != out:
            return False
    return True


@st.composite
def conjugate_canonical_pairs(draw):
    """Canonical (x, y) with equal least period and congruent anomaly
    sizes; y is over a binary or a three-letter alphabet."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(2, 3))
    other = BINARY if k == 2 else ABC

    def seq(alphabet, letters):
        w = draw(st.lists(st.integers(0, letters - 1), min_size=n, max_size=n))
        v = draw(st.lists(st.integers(0, letters - 1), min_size=1, max_size=8))
        try:
            return make_ep(Word(tuple(w), alphabet), Word(tuple(v), alphabet))
        except DegeneratePeriodic:
            assume(False)

    x, y = seq(BINARY, 2), seq(other, k)
    assume(conjugate_ep(x, y))
    return canonical(x), canonical(y)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(conjugate_canonical_pairs())
@example((canonical(ep("0", "000001")), canonical(ep("0", "001001"))))
def test_witness_code_has_the_least_consistent_radius(pair):
    x, y = pair
    least = next(k for k in itertools.count() if _pointwise_consistent(x, y, k))
    code = _witness_code(x, y)
    assert code.memory == code.anticipation == least
    assert code.memory == 0 or not _pointwise_consistent(x, y, code.memory - 1)
    k, outputs = code.memory, dict(code.entries)
    for i in range(-3 * least_period(x) - k, len(x.anomaly) + len(y.anomaly) + 3 * k + 8):
        block = tuple(x.symbol_id_at(j) for j in range(i - k, i + k + 1))
        assert outputs[block] == y.symbol_id_at(i)


def test_narrow_buffer_counterexample_needs_radius_three():
    x, y = ep("0", "000001"), ep("0", "001001")
    cx, cy = canonical(x), canonical(y)
    assert (cx.anomaly.text, cy.anomaly.text) == ("1", "1001")
    # radius 0 read only at the centres [-1-N, |u|+N] finds no conflict,
    # because cy's anomaly reaches past |u|+N; the table is the identity
    n, lu = least_period(cx), len(cx.anomaly)
    table = {}
    for c in range(-1 - n, lu + n + 1):
        out = cy.symbol_id_at(c)
        assert table.setdefault((cx.symbol_id_at(c),), out) == out
    narrow = SlidingBlockCode(0, 0, tuple(sorted(table.items())), BINARY, BINARY)
    assert narrow == identity_code(BINARY)
    trail = []
    assert not check_pair(x, y, narrow, narrow, trail)
    assert trail == ["forward image not similar to target"]
    fwd, inv = conjugacy_witness(x, y)
    assert (fwd.memory, fwd.anticipation, inv.memory, inv.anticipation) == (3, 3, 3, 3)


def _mark_pair(q, p):
    """The canonical S(q/p) and its copy with one fresh mark on the last
    letter of the anomaly: the anomaly-mark code of the one-mark raise."""
    x = canonical(skew(TYPE_S, q, p))
    big = Alphabet(x.alphabet.labels + ("m",))
    u = (*x.anomaly.symbols[:-1], len(x.alphabet))
    return x, canonical(make_ep(Word(x.period_word.symbols, big), Word(u, big)))


@pytest.mark.parametrize("pair, radius", [
    (lambda: _mark_pair(19, 31), 49),
    (lambda: (canonical(ep("0", "000001")), canonical(ep("0", "001001"))), 3),
    (lambda: (canonical(ep("10", "11")), canonical(ep("10", "110011111111"))), 10),
])
def test_witness_search_grows_its_buffers_to_the_least_radius(monkeypatch, pair, radius):
    x, y = pair()
    reaches, search_buffers = [], classify._search_buffers

    def recording(src, dst, reach):
        reaches.append(reach)
        return search_buffers(src, dst, reach)

    monkeypatch.setattr(classify, "_search_buffers", recording)
    code = _witness_code(x, y)
    assert code.memory == code.anticipation == radius
    assert _pointwise_consistent(x, y, radius) and not _pointwise_consistent(x, y, radius - 1)
    # the buffers start at reach N and grow only when a probe needs more
    n = least_period(x)
    assert reaches[0] == n and reaches == sorted(set(reaches))
    assert reaches[-1] >= radius and (len(reaches) > 1) == (radius > n)


def test_witness_code_refuses_pairs_its_probe_range_does_not_serve(monkeypatch):
    built = []
    monkeypatch.setattr(classify, "_search_buffers", lambda *args: built.append(args))
    periods = (canonical(ep("0", "1")), canonical(ep("01", "1")))            # N = 1 and 2
    anomalies = (canonical(skew(TYPE_S, 1, 2)), canonical(skew(TYPE_S, 2, 1)))  # |u| = 1, 2; N = 3
    for x, y in (periods, anomalies):
        for src, dst in ((x, y), (y, x)):
            with pytest.raises(NotConjugate):
                _witness_code(src, dst)
    assert built == []


# --- the one-stretch probe against the two-stretch probe ----------------------

def _two_stretch_block_map(src, dst, lo, k):
    """_build_block_map as first written: it also read the N + 1 centres
    [max(|u|+k, |v|), max(|u|+k, |v|) + N] of the right periodic stretch,
    from buffers of its own that start at lo."""
    n, lu, lv = least_period(src), len(src.anomaly), len(dst.anomaly)
    hi = max(lu + k, lv) + n + 1
    s, d = _symbols(src, lo, hi + k), _symbols(dst, lo, hi)
    table = {}
    for c in range(-k - 1 - n - lo, hi - lo):
        first = table.setdefault(s[c - k:c + k + 1], c)
        if d[first] != d[c]:
            return table, (first, c)
    return table, None


def _assert_probes_agree(src, dst):
    """Every radius up to the least one clashes at the same centres under
    both probes, and the least radius builds the same table: block ->
    the dst symbol at its first centre, in first-centre order."""
    least = _witness_code(src, dst).memory
    n, lu, lv = least_period(src), len(src.anomaly), len(dst.anomaly)
    lo, s, d = classify._search_buffers(src, dst, least)
    for k in range(least + 1):
        table, clash = classify._build_block_map(s, d, lo, n, lu, lv, k)
        two_table, two_clash = _two_stretch_block_map(src, dst, lo, k)
        assert clash == two_clash, (src, dst, k)
    assert clash is None, (src, dst)
    if isinstance(table, bytes):  # the radius-0 bytes route gives its translate table
        assert table == _translate_table(two_table, d), (src, dst)
    else:
        assert ([(tuple(b), out) for b, out in table.items()]
                == [(tuple(b), d[c]) for b, c in two_table.items()]), (src, dst)


def _translate_table(firsts, d):
    """The translate table of a radius-0 table of first centres by 1-slice:
    the dst symbol at each one, 255 at every other id."""
    table = bytearray(b"\xff" * 256)
    for (sym,), c in firsts.items():
        table[sym] = d[c]
    return bytes(table)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(conjugate_canonical_pairs())
def test_one_stretch_probe_matches_the_two_stretch_probe(pair):
    x, y = pair
    _assert_probes_agree(x, y)
    _assert_probes_agree(y, x)


def test_one_stretch_probe_matches_on_reciprocal_skews_and_raised_endpoints():
    for q, p in verify.coprime_pairs(60):
        x, y = canonical(skew(TYPE_S, q, p)), canonical(skew(TYPE_SPRIME, p, q))
        _assert_probes_agree(x, y)
        _assert_probes_agree(y, x)
    skews = [skew_sturmian(spec) for spec in verify._all_specs(6)]
    for x, y in itertools.combinations(skews, 2):
        (nx, ax), (ny, ay) = (least_period(x), anomaly_size(x)), (least_period(y), anomaly_size(y))
        n, a = max(nx, ny), max(ax, ay)
        end_x = canonical(_raise_moves(x, n - nx, a - ax)[1])
        end_y = canonical(_raise_moves(y, n - ny, a - ay)[1])
        _assert_probes_agree(end_x, end_y)
        _assert_probes_agree(end_y, end_x)


def _radius_0_loop(s, d, centres):
    """The radius-0 probe as a loop over the centres: the table of first
    centres by symbol, or the first clash (first centre of s[c], c)."""
    firsts = {}
    for c in centres:
        first = firsts.setdefault(s[c], c)
        if d[first] != d[c]:
            return None, (first, c)
    return {(sym,): c for sym, c in firsts.items()}, None


def test_bytes_radius_0_probe_matches_the_loop():
    # random buffers over 2 to 256 symbols, d a function of s with some
    # centres changed; d also over 257 symbols, where no byte table fits;
    # probes of at most 32 centres, which the general loop reads at radius 0,
    # and of more, which the bytes route reads per symbol
    rng = random.Random(33)
    outcomes = {"table": 0, "clash": 0, "few": 0, "many": 0}
    for _ in range(600):
        syms, n, a = rng.choice([2, 3, 7, 256]), rng.randint(1, 9), rng.randint(0, 5)
        lu = lv = rng.choice([rng.randint(0, 31 - n), rng.randint(0, 40), rng.randint(40, 300)])
        lo = -1 - n - a  # the centres are [a, a + n + 1 + lu)
        size = a + n + 1 + lu + rng.randint(0, 3)
        s = bytes(rng.randrange(syms) for _ in range(size))
        f = [rng.randrange(256) for _ in range(256)]
        d = [f[x] for x in s]
        for _ in range(rng.choice([0, 0, 1, 3])):
            d[rng.randrange(size)] = rng.randrange(256)
        centres = range(a, a + n + 1 + lu)
        want = _radius_0_loop(s, d, centres)
        outcomes["clash" if want[0] is None else "table"] += 1
        outcomes["few" if len(centres) <= 32 else "many"] += 1
        for bs, bd in ((s, bytes(d)), (tuple(s), tuple(d)), (s, tuple(x + 1 for x in d))):
            table, clash = classify._build_block_map(bs, bd, lo, n, lu, lv, 0)
            ref_table, ref_clash = _radius_0_loop(bs, bd, centres)
            assert clash == ref_clash and clash == want[1], (s, d, a, n, lu)
            # the same table: on the bytes route the translate table of the
            # first centres' dst symbols, on the loop those symbols by slice
            # of the buffer, in first-centre order
            if isinstance(table, bytes):
                assert isinstance(bd, bytes) and len(centres) > 32, (s, d, a, n, lu)
                assert table == _translate_table(ref_table, bd), (s, d, a, n, lu)
            else:
                assert (table is None and ref_table is None
                        or [(tuple(b), out) for b, out in table.items()]
                        == [(b, bd[c]) for b, c in ref_table.items()]), \
                    (s, d, a, n, lu)
    assert min(outcomes.values()) > 150, outcomes


def test_reciprocal_skew_witness_is_the_symbol_swap_at_large_n():
    # S(q/p) and S'(p/q) with p + q = 1600; the swap's JSON is a few hundred bytes
    x, y = skew(TYPE_S, 799, 801), skew(TYPE_SPRIME, 801, 799)
    fwd, inv = conjugacy_witness(x, y)
    assert fwd == inv == swap_code()
    assert len(json.dumps(jsonio.emit_conjugacy(fwd, inv))) < 1024


# --- the inverse of a 1-block bijection, read off its table --------------------

# a -> 0, b -> 1, c -> 1 has radius 0 but merges b and c; the inverse needs radius 1
MERGING_PAIR = (make_ep(Word((0,), ABC), Word((1, 2), ABC)), ep("0", "11"))


def _table_rows(code):
    """A code's table read back as a dict of (block ids) -> output id:
    outputs by source id, 255 or -1 unmapped, or a dict by packed block."""
    table = code._table
    if isinstance(table, dict):
        return {tuple(block): out for block, out in table.items()}
    mark = 255 if isinstance(table, bytes) else -1
    return {(sym,): out for sym, out in enumerate(table[:len(code.source_alphabet)]) if out != mark}


def _block_kinds(code):
    """The types of a wider code's dict keys; none for a 1-block code."""
    return {type(block) for block in code._table} if isinstance(code._table, dict) else set()


def _criterion_5_pairs():
    """Criterion 5's pairs at small bounds: each family member with its
    invariant class's first member, and S(q/p), S'(p/q) for p + q <= 14."""
    groups = {}
    bounds = verify.VerifyBounds(family_w=3, family_v=4, family_random=40)
    for x in verify.family_instances(bounds, 7):
        groups.setdefault((least_period(x), anomaly_size(x) % least_period(x)), []).append(x)
    pairs = [(members[0], other) for members in groups.values() for other in members[1:]]
    return pairs + [(skew(TYPE_S, q, p), skew(TYPE_SPRIME, p, q)) for q, p in verify.coprime_pairs(14)]


def _inverse_matches_the_search(x, y):
    """Assert that conjugacy_witness's inverse is the code the search from
    canonical(y) to canonical(x) returns, table kind, block kind and all;
    returns whether the forward code is a 1-block bijection."""
    fwd, inv = conjugacy_witness(x, y)
    searched = _witness_code(canonical(y), canonical(x))
    assert inv == searched and type(inv._table) is type(searched._table), (x, y)
    assert _block_kinds(inv) == _block_kinds(searched), (x, y)
    assert _table_rows(inv) == _table_rows(searched) == dict(searched.entries), (x, y)
    outs = [out for _, out in fwd.entries]
    return fwd.memory == 0 and len(set(outs)) == len(outs)


def test_inverse_of_a_1_block_bijection_is_the_searched_inverse_on_criterion_5_pairs():
    read_off = [_inverse_matches_the_search(x, y) for x, y in _criterion_5_pairs() + [MERGING_PAIR]
                if x != y]
    # both branches ran: the skew pairs are swaps, the family holds longer radii
    assert any(read_off) and not all(read_off) and not read_off[-1]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(conjugate_canonical_pairs())
@example(tuple(map(canonical, MERGING_PAIR)))
def test_inverse_of_a_1_block_bijection_is_the_searched_inverse_on_drawn_pairs(pair):
    x, y = pair
    assume(x != y)
    _inverse_matches_the_search(x, y)
    _inverse_matches_the_search(y, x)


@pytest.mark.parametrize("pair, searches", [
    (lambda: (skew(TYPE_S, 5, 8), skew(TYPE_SPRIME, 8, 5)), 1),
    (lambda: (skew(TYPE_S, 799, 801), skew(TYPE_SPRIME, 801, 799)), 1),
    (lambda: (ep("0", "000001"), ep("0", "001001")), 2),  # forward radius 3
    (lambda: MERGING_PAIR, 2),  # forward radius 0, not one to one
])
def test_conjugacy_witness_searches_once_for_a_1_block_bijection(monkeypatch, pair, searches):
    calls, witness_code = [], classify._witness_code

    def counting(src, dst):
        calls.append((src, dst))
        return witness_code(src, dst)

    monkeypatch.setattr(classify, "_witness_code", counting)
    x, y = pair()
    conjugacy_witness(x, y)
    cx, cy = canonical(x), canonical(y)
    assert calls == [(cx, cy), (cy, cx)][:searches]


# --- code application --------------------------------------------------------

def test_apply_identity_and_swap():
    x = skew(TYPE_S, 2, 3)
    assert apply_code(identity_code(BINARY), x) == x
    assert apply_code(swap_code(), x) == symbol_reverse(x)


def test_codes_reject_sequences_over_another_alphabet():
    ab = Alphabet(("a", "b"))
    code = identity_code(BINARY)
    with pytest.raises(IncompatibleAlphabets):
        apply_code_to_periodic(code, PeriodicSeq(Word((0, 1), ab)))
    with pytest.raises(IncompatibleAlphabets):
        apply_code(code, make_ep(Word((0,), ab), Word((1,), ab)))


def test_apply_shift_by_one_code():
    for x in (ep("0", "1"), ep("01", "1"), ep("110", "1"), ep("01", "0011")):
        assert apply_code(shift_by_one_code(), x) == shift(x, 1)


def test_apply_xor_code_collapses_image_period():
    # XOR of adjacent symbols: the periodic part 01 maps to constant 1,
    # so the image has least period 1 while the source has period 2
    entries = tuple(((a, b), a ^ b) for a in (0, 1) for b in (0, 1))
    xor = SlidingBlockCode(0, 1, entries, BINARY, BINARY)
    img = apply_code(xor, ep("01", "1"))
    assert least_period(img) == 1
    assert similar(img, ep("1", "0"))


def test_apply_longer_shift_codes_match_shift():
    for k in (2, 3):
        entries = tuple((blk, blk[-1]) for blk in _all_blocks(k + 1))
        code = SlidingBlockCode(0, k, entries, BINARY, BINARY)
        for x in (ep("0", "1"), ep("01", "0011"), ep("110", "1")):
            assert apply_code(code, x) == shift(x, k)


def _all_blocks(n):
    import itertools

    return list(itertools.product((0, 1), repeat=n))


def test_witness_with_anomaly_lengths_differing_by_periods():
    # canonical anomalies of lengths 1 and 3 over the same least period
    for x, y in ((ep("0", "1"), ep("0", "111")), (ep("01", "1"), ep("01", "111"))):
        n = least_period(x)
        assert (anomaly_size(y) - anomaly_size(x)) % n == 0
        assert anomaly_size(y) != anomaly_size(x)
        fwd, inv = conjugacy_witness(x, y)
        assert similar(apply_code(fwd, x), y)
        assert similar(apply_code(inv, y), x)
        assert check_pair(x, y, fwd, inv, [])


def test_apply_code_missing_block():
    partial = SlidingBlockCode(0, 0, (((0,), 0),), BINARY, BINARY)
    with pytest.raises(MissingBlock):
        apply_code(partial, ep("0", "1"))
    with pytest.raises(MissingBlock, match=r"^block \(1,\) not in code table$"):
        partial.read((1,))


def test_one_block_read_matches_a_lookup_per_position():
    rng = random.Random(23)
    code = SlidingBlockCode(0, 0, (((0,), 2), ((1,), 0), ((2,), 1)), ABC, ABC)
    outputs = dict(code.entries)
    for _ in range(300):
        buf = tuple(rng.randrange(3) for _ in range(rng.randrange(31)))
        assert tuple(code.read(buf)) == tuple(outputs[(b,)] for b in buf)
    for absent in range(3):
        partial = SlidingBlockCode(0, 0, tuple(((s,), s) for s in range(3) if s != absent), ABC, ABC)
        present = tuple(s for s in range(3) if s != absent)
        buf = tuple(rng.choice(present) for _ in range(20))
        assert tuple(partial.read(buf)) == buf
        with pytest.raises(MissingBlock) as e:
            partial.read(buf[:7] + (absent,) + buf[7:])
        assert str(e.value) == f"block ({absent},) not in code table"


def test_one_block_codes_read_as_parsed_and_as_built():
    # a code from the search (trusted, its table the probe's), a mark code
    # built checked, and a final link: each reads as the same code parsed
    # from JSON
    x, y = skew(TYPE_S, 3, 5), skew(TYPE_SPRIME, 5, 3)
    marked = _raise_moves(x, 1, 1)[0][0].code
    final = flow_witness(skew(TYPE_SPRIME, 1, 2), skew(TYPE_S, 3, 2)).final[0][0]
    rng = random.Random(29)
    for code in (_witness_code(canonical(x), canonical(y)), marked, final):
        assert code.block_length == 1
        parsed = jsonio.parse_code(json.loads(json.dumps(jsonio.emit_code(code))))
        outputs = {block[0]: out for block, out in code.entries}
        keys = sorted(outputs)
        for _ in range(50):
            buf = tuple(rng.choice(keys) for _ in range(rng.randrange(40)))
            expected = tuple(outputs[b] for b in buf)
            assert tuple(code.read(buf)) == tuple(parsed.read(buf)) == expected
        # drop one row: the absent symbol at the first, a middle and the last position
        absent, rest = code.entries[-1][0][0], code.entries[:-1]
        src, dst = code.source_alphabet, code.target_alphabet
        partials = (SlidingBlockCode(0, 0, rest, src, dst), classify._one_block(rest, src, dst))
        present = tuple(block[0] for block, _ in rest)
        buf = tuple(rng.choice(present) for _ in range(9))
        for at in (0, 4, 9):
            spiked = buf[:at] + (absent,) + buf[at:]
            for partial in partials:
                assert tuple(partial.read(buf[:at])) == tuple(outputs[b] for b in buf[:at])
                with pytest.raises(MissingBlock) as e:
                    partial.read(spiked)
                assert str(e.value) == f"block ({absent},) not in code table"


def test_apply_code_degenerate_image():
    constant = SlidingBlockCode(0, 0, (((0,), 0), ((1,), 0)), BINARY, BINARY)
    with pytest.raises(DegenerateImage):
        apply_code(constant, ep("0", "1"))


def _uneven_codes():
    """Total binary codes whose memory differs from their anticipation: two
    shifts, an XOR and an AND of the block's first and last symbols."""
    outs = (lambda b: b[0], lambda b: b[-1], lambda b: b[0] ^ b[-1], lambda b: b[0] & b[-1])
    return [SlidingBlockCode(mm, aa, tuple((b, out(b)) for b in _all_blocks(mm + aa + 1)),
                             BINARY, BINARY)
            for mm, aa in ((0, 1), (2, 0), (1, 3)) for out in outs]


def test_image_buffer_matches_the_code_read_block_by_block():
    # the image's tails are tiled from the image of one period; each must
    # sit at its phase, so every block is read here from the source itself
    for code in _uneven_codes():
        mm, aa, outputs = code.memory, code.anticipation, dict(code.entries)

        def image(x, i):
            return outputs[tuple(x.symbol_id_at(j) for j in range(i - mm, i + aa + 1))]

        for x in verify.exhaustive_family(3, 5) + [ep("0100", "100")]:
            n, vl = least_period(x), len(x.anomaly)
            span = range(-3 * n - aa - 2, vl + mm + 3 * n + 2)
            try:
                scan = classify._image_scan(code, x)
            except DegenerateImage:
                assert all(image(x, i) == image(x, i + n) for i in span), (code, x)
                continue
            assert scan.buf == bytes(image(x, scan.lo + i) for i in range(len(scan.buf)))
            y, t = apply_code(code, x), min(0, scan.defect)
            assert all(y.symbol_id_at(i) == image(x, i + t) for i in span), (code, x)


# --- the byte path of 1-block codes ---------------------------------------------

# alphabets on either side of the byte path's bounds: at most 256 source
# symbols and 255 target symbols, 255 being the table's unmapped mark
SIZED = {k: Alphabet(tuple(f"s{i}" for i in range(k))) for k in (2, 3, 255, 256, 257)}
RELABELLED = {k: Alphabet(tuple(f"t{i}" for i in range(k))) for k in SIZED}


def _tuple_read(code, buf):
    """`SlidingBlockCode.read` by the lookup route of every code, kept as
    the oracle of the 1-block tables: a dict of the code's rows, and each
    block a tuple zipped from block_length shifted slices of buf."""
    lookup, n, size = dict(code.entries), code.block_length, len(buf)
    blocks = zip(*(buf[i:size - n + 1 + i] for i in range(n)))
    try:
        return packed(map(lookup.__getitem__, blocks), code.target_alphabet)
    except KeyError as e:
        raise MissingBlock(f"block {e.args[0]} not in code table") from None


def _tuple_route(code):
    """An equal code whose image tests read through `_tuple_read`."""
    twin = SlidingBlockCode(code.memory, code.anticipation, code.entries,
                            code.source_alphabet, code.target_alphabet)
    object.__setattr__(twin, "read", functools.partial(_tuple_read, twin))
    return twin


def _byte_path_case(src, dst, period, anomaly, table):
    a = SIZED[src]
    x = make_ep(Word(tuple(period), a), Word(tuple(anomaly), a))
    return x, SlidingBlockCode(0, 0, tuple(((s,), out) for s, out in sorted(table.items())),
                               a, SIZED[dst])


@st.composite
def byte_path_cases(draw):
    """(x, code): a 1-block code between alphabets of 2 to 257 symbols, on
    the ids at either end of each, with outputs that may coincide and a
    table that may miss a symbol of x."""
    src, dst = draw(st.sampled_from(sorted(SIZED))), draw(st.sampled_from(sorted(SIZED)))
    ids = sorted({0, 1, src // 2, src - 2, src - 1})
    period = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=6), label="period")
    anomaly = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=12), label="anomaly")
    outs = sorted({0, 1, dst // 2, dst - 1})
    dropped = draw(st.sets(st.sampled_from(ids), max_size=1), label="dropped")
    table = {s: draw(st.sampled_from(outs)) for s in ids if s not in dropped}
    assume(table)
    try:
        return _byte_path_case(src, dst, period, anomaly, table)
    except DegeneratePeriodic:
        assume(False)


def _scan_outcome(code, x):
    """Everything an image scan gives, or the error it raises."""
    def read():
        scan = classify._image_scan(code, x)
        return (tuple(scan.buf), scan.lo, scan.period, scan.defect, scan.start, scan.length,
                scan.anchored_symbols(scan.start), scan.anchored_symbols(0))
    return _outcome(read)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(byte_path_cases())
# non-injective: the image's root is shorter than N = 2
@example(_byte_path_case(3, 2, (0, 1), (2,), {0: 0, 1: 0, 2: 1}))
# partial: the table misses the period's symbol 255, then the anomaly's 254
@example(_byte_path_case(256, 255, (255, 0), (1,), {0: 254, 1: 0}))
@example(_byte_path_case(256, 255, (0,), (1, 254), {0: 254, 1: 0}))
# periodic image
@example(_byte_path_case(2, 255, (0,), (1,), {0: 254, 1: 254}))
# just inside and just outside the bounds
@example(_byte_path_case(256, 255, (255, 0), (1,), {0: 254, 1: 0, 255: 253}))
@example(_byte_path_case(257, 255, (256, 0), (1,), {0: 254, 1: 0, 256: 253}))
@example(_byte_path_case(256, 256, (255, 0), (1,), {0: 255, 1: 0, 255: 253}))
def test_byte_path_matches_the_tuple_route(case):
    x, code = case
    twin = _tuple_route(code)
    on_bytes = len(code.source_alphabet) <= 256 and len(code.target_alphabet) <= 255
    got = _scan_outcome(code, x)
    assert got == _scan_outcome(twin, x)
    assert isinstance(code._table, bytes) == on_bytes and twin == code
    periodic = PeriodicSeq(x.period_word)
    assert _outcome(apply_code_to_periodic, code, periodic) == _outcome(
        apply_code_to_periodic, twin, periodic)
    if not isinstance(got[0], type):  # the image, a shift of it, and another sequence
        img, b = apply_code(twin, x), code.target_alphabet
        for y in (img, shift(img, -1), make_ep(Word((0,), b), Word((1,), b))):
            assert _image_similar(code, x, y) == _image_similar(twin, x, y)
    # mismatched alphabets: x's symbols over another alphabet of its size,
    # and a target sequence over another alphabet of the target's size
    size = len(x.alphabet)
    moved = make_ep(Word(x.period_word.symbols, RELABELLED[size]),
                    Word(x.anomaly.symbols, RELABELLED[size]))
    elsewhere = make_ep(Word((0,), RELABELLED[len(code.target_alphabet)]),
                        Word((1,), RELABELLED[len(code.target_alphabet)]))
    for c in (code, twin):
        assert _outcome(_image_similar, c, moved, elsewhere)[0] is IncompatibleAlphabets
        if not isinstance(got[0], type):
            assert _outcome(_image_similar, c, x, elsewhere)[0] is IncompatibleAlphabets


def test_byte_path_cuts_a_shorter_root_and_names_the_first_missing_symbol():
    x, code = _byte_path_case(3, 2, (0, 1), (2,), {0: 0, 1: 0, 2: 1})
    assert apply_code_to_periodic(code, PeriodicSeq(x.period_word)).period_word.symbols == b"\x00"
    assert least_period(apply_code(code, x)) == 1 and isinstance(code._table, bytes)
    for period, anomaly, absent in (((255, 0), (1,), 255), ((0, 1), (1, 254, 255), 254)):
        x, code = _byte_path_case(256, 255, period, anomaly, {0: 254, 1: 0})
        with pytest.raises(MissingBlock, match=rf"^block \({absent},\) not in code table$"):
            apply_code(code, x)


def test_1_block_image_tests_read_no_block_on_the_byte_path():
    # a skew pair's witnesses read through their byte tables
    for q, p in ((5, 8), (47, 53)):
        x, y = skew(TYPE_S, q, p), skew(TYPE_SPRIME, p, q)
        fwd, inv = conjugacy_witness(x, y)
        assert fwd.block_length == inv.block_length == 1 and least_period(x) == p + q
        assert isinstance(fwd._table, bytes) and isinstance(inv._table, bytes)
    # a radius-1 code looks its blocks up; a 1-block code over 300 symbols
    # indexes a tuple of its outputs
    x, y = ep("001", "1"), ep("001", "0")
    fwd, inv = conjugacy_witness(x, y)
    assert fwd.memory == 1 and fwd._table == {bytes(b): out for b, out in fwd.entries}
    assert _table_rows(fwd) == dict(fwd.entries) and _block_kinds(fwd) == {bytes}
    z = make_ep(Word((0, 299), SYMBOLS_300), Word((1,), SYMBOLS_300))
    fwd, inv = conjugacy_witness(z, shift(z, 1))
    assert fwd.block_length == 1 and set(vars(fwd)) == set(SlidingBlockCode._fields)
    for code in (fwd, inv):
        assert code._table == tuple(out for _, out in code.entries) and len(code._table) == 300


# --- a wider code's one table: the dict its probe built ---------------------

SYMBOLS_300 = Alphabet(tuple(f"s{i}" for i in range(300)))


def _wider_codes():
    """(code, source) for the searched codes of two pairs, each of radius
    at least 1: one over {0, 1}, whose blocks are bytes, and one over 300
    symbols, whose blocks are tuples."""
    x = make_ep(Word((0, 1, 2), SYMBOLS_300), Word((0, 3, 299, 1), SYMBOLS_300))
    y = make_ep(Word((0, 1, 2), SYMBOLS_300), Word((3,), SYMBOLS_300))
    codes = []
    for a, b in ((ep("001", "1"), ep("001", "0")), (x, y)):
        fwd, inv = conjugacy_witness(a, b)
        codes += [(fwd, a), (inv, b)]
    return codes


def _reads_per_position(rows, buf, n):
    """The outputs of the blocks of buf by a lookup per position in `rows`,
    a dict by tuple block, and the first unmapped block or None."""
    blocks = [tuple(buf[i:i + n]) for i in range(len(buf) - n + 1)]
    absent = next((b for b in blocks if b not in rows), None)
    return (None if absent else tuple(rows[b] for b in blocks)), absent


def test_a_searched_wider_code_is_the_code_parsed_from_its_json():
    rng = random.Random(43)
    kinds = set()
    for code, x in _wider_codes():
        n, src = code.block_length, code.source_alphabet
        assert code.memory >= 1 and isinstance(code._table, dict)
        kinds |= _block_kinds(code)
        parsed = jsonio.parse_code(json.loads(json.dumps(jsonio.emit_code(code))))
        assert parsed == code and hash(parsed) == hash(code) and repr(parsed) == repr(code)
        assert parsed.entries == code.entries and list(code.entries) == sorted(code.entries)
        assert _table_rows(parsed) == _table_rows(code) == dict(code.entries)
        assert _block_kinds(parsed) == _block_kinds(code) == {type(packed((), src))}
        rows = dict(code.entries)
        for _ in range(40):  # windows of the source, whose blocks are all in the table
            lo = rng.randint(-20, 20)
            buf = _symbols(x, lo, lo + rng.randint(n - 1, 40))
            want, absent = _reads_per_position(rows, buf, n)
            assert absent is None and tuple(code.read(buf)) == tuple(parsed.read(buf)) == want
            assert type(code.read(buf)) is type(packed((), code.target_alphabet))
        # a block the table lacks, spliced in at the start, middle and end:
        # the first unmapped block is named, as a tuple, by both codes
        missing = next(b for b in itertools.product(range(len(src)), repeat=n) if b not in rows)
        buf = list(_symbols(x, 0, 12))
        for at in (0, 6, 12):
            spiked = packed(buf[:at] + list(missing) + buf[at:], src)
            absent = _reads_per_position(rows, spiked, n)[1]
            assert absent is not None
            for c in (code, parsed):
                with pytest.raises(MissingBlock) as e:
                    c.read(spiked)
                assert str(e.value) == f"block {absent} not in code table"
                assert re.fullmatch(r"block \(\d+(, \d+)+\) not in code table", str(e.value))
    assert kinds == {bytes, tuple}


def test_conjugacy_witness_memory_stays_within_what_its_probe_and_image_tests_hold():
    # canonical forms warm; N = 10^6 and |u| = |v| = a.  The radius-0 probe
    # holds src over [-3N-1, a+2N) and dst over [-3N-1, a+N), four byte
    # strings over its N + 1 + a centres (the two stretches, the symbols
    # left to find and the translate) and, on a clash, their XOR: two ints
    # and the XOR int, each 16/15 of the bytes it reads.  Each image test
    # holds the root (N) and the image over [-2N-1, a+2N+1), 4N + a + 2
    # bytes, which the scan slices twice (3N + a + 2 bytes each) into two
    # ints it XORs, as in `canonical`; the code's own read is smaller.
    # The bound is the larger of the two.
    q, p = 399999, 600001
    x, y = skew(TYPE_S, q, p), skew(TYPE_SPRIME, p, q)
    cx, cy = canonical(x), canonical(y)
    n, a = least_period(x), len(cx.anomaly)
    assert len(cy.anomaly) == len(x.anomaly) == len(y.anomaly) == a
    centres = n + 1 + a
    probe = (5 * n + a + 1) + (4 * n + a + 1) + 4 * centres + 3 * centres * 16 // 15
    image = n + (4 * n + a + 2) + 2 * (3 * n + a + 2) + 3 * (3 * n + a + 2) * 16 // 15
    tracemalloc.start()
    try:
        fwd, inv = conjugacy_witness(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fwd.block_length == inv.block_length == 1 and n == p + q
    assert peak < max(probe, image), (peak, probe, image)


# --- 1-block tables against the tuple route and through JSON ------------------

WIDE = {**{k: SIZED[k] for k in (2, 255, 256, 257)},
        65537: Alphabet(tuple(f"s{i}" for i in range(65537)))}


def _1_block_tables(rng, src, dst):
    """Three (rows, absent) pairs on ids at both ends of src and some at
    random, onto outputs at both ends of dst: rows spread over the outputs,
    rows merging most ids into one output, and the first rows less one id,
    `absent` (None for the other two)."""
    n, m = len(src), len(dst)
    ids = sorted({0, 1, n // 2, n - 2, n - 1, *rng.sample(range(n), min(n, 40))})
    outs = sorted({0, 1, m // 2, m - 1})
    spread = tuple(((s,), outs[i % len(outs)]) for i, s in enumerate(ids))
    merged = tuple(((s,), outs[0] if i % 3 else outs[-1]) for i, s in enumerate(ids))
    absent = ids[len(ids) // 2]
    partial = tuple(row for row in spread if row[0] != (absent,))
    return [(spread, None), (merged, None), (partial, absent)]


@pytest.mark.parametrize("size", sorted(WIDE))
def test_1_block_read_and_out_match_the_tuple_route(size):
    rng = random.Random(size)
    src = WIDE[size]
    for dst in WIDE.values():
        for rows, absent in _1_block_tables(rng, src, dst):
            checked = SlidingBlockCode(0, 0, rows, src, dst)
            built = classify._one_block(rows, src, dst)
            assert built == checked and hash(built) == hash(checked)
            assert checked.entries == tuple(sorted(rows))
            assert isinstance(checked._table, bytes) == (size <= 256 and len(dst) <= 255)
            mapped = [sym for (sym,), _ in rows]
            for _ in range(5):
                buf = packed((rng.choice(mapped) for _ in range(rng.randrange(60))), src)
                got = checked.read(buf)
                assert got == _tuple_read(checked, buf) and type(got) is type(packed((), dst))
            if absent is None:
                continue
            buf = [rng.choice(mapped) for _ in range(9)]
            for at in (0, 4, 9):
                spiked = packed(buf[:at] + [absent] + buf[at:] + [absent], src)
                for read in (checked.read, built.read, functools.partial(_tuple_read, checked)):
                    with pytest.raises(MissingBlock) as e:
                        read(spiked)
                    assert str(e.value) == f"block ({absent},) not in code table"
            lone = packed([absent], src)
            assert _outcome(checked.read, lone) == _outcome(_tuple_read, checked, lone)


def _links_with_sources(x, y, wit):
    """(code, sequence) for every code of the witness, with the sequence its
    replay reads the code on: a FORWARD code on the sequence before its
    move or on chain_x's end, a BACKWARD one on the move's result or on
    chain_y's end."""
    links, ends = [], []
    for cur, chain in ((x, wit.chain_x), (y, wit.chain_y)):
        for move in chain:
            if isinstance(move, ConjugacyMove):
                links.append((move.code, cur if move.direction == FORWARD else move.result))
            cur = move.result
        ends.append(cur)
    return links + [(code, ends[direction == BACKWARD]) for code, direction in wit.final]


@pytest.fixture(scope="module")
def capped_8_links():
    """The codes verify builds at --max-period-sum 8, seed 7, each with a
    sequence its replay reads it on: criterion 5's witnesses, with the
    searched inverses too, and criterion 7's flow witnesses, their erase
    maps and identity links among them."""
    bounds = verify.VerifyBounds().capped(8)
    groups = {}
    for x in verify.family_instances(bounds, 7):
        groups.setdefault((least_period(x), anomaly_size(x) % least_period(x)), []).append(x)
    pairs = [(members[0], other) for members in groups.values() for other in members[1:]]
    pairs += [(skew(TYPE_S, q, p), skew(TYPE_SPRIME, p, q)) for q, p in verify.coprime_pairs(8)]
    links = []
    for x, y in pairs:
        fwd, inv = conjugacy_witness(x, y)
        links += [(fwd, x), (inv, y), (_witness_code(canonical(y), canonical(x)), canonical(y))]
    rng = random.Random(7)
    flows = itertools.combinations_with_replacement(map(skew_sturmian, verify._all_specs(8)), 2)
    for x, y in [*flows, *((verify.random_ep(rng, wmax=3, vmax=4),
                            verify.random_ep(rng, wmax=3, vmax=4)) for _ in range(50))]:
        links += _links_with_sources(x, y, flow_witness(x, y))
    return links


def _wide_links(a):
    """Codes over an alphabet of more than 256 symbols, each with a sequence
    its replay reads it on: a 1-block witness and its read-off inverse, a
    radius-1 witness, an identity code, the erase map of a raised chain
    and a flow witness's final link."""
    hi = len(a) - 1
    z = make_ep(Word((0, hi, 3), a), Word((1,), a))
    relabelled = make_ep(Word((hi - 1, 2, 0), a), Word((hi,), a))
    x, y = make_ep(Word((0, 0, hi), a), Word((hi,), a)), make_ep(Word((0, 0, hi), a), Word((0,), a))
    (fz, iz), (fx, ix) = conjugacy_witness(z, relabelled), conjugacy_witness(x, y)
    erase, binary = _raise_moves(z, 1, 1)[0][0], ep("0", "1")
    final = _links_with_sources(z, binary, flow_witness(z, binary))[-1]
    return [(fz, z), (iz, relabelled), (fx, x), (ix, y), (identity_code(a), z),
            (erase.code, erase.result), final]


def _assert_round_trips(code):
    parsed = jsonio.parse_code(json.loads(json.dumps(jsonio.emit_code(code))))
    assert parsed == code and hash(parsed) == hash(code), code
    assert parsed.entries == code.entries and type(parsed._table) is type(code._table)


def test_every_code_round_trips_through_json_on_capped_8_instances(capped_8_links):
    # and the swaps of two reciprocal pairs past the bytes probe's 32 centres
    codes = [code for code, _ in capped_8_links]
    for q, p in ((47, 53), (2, 45)):
        codes += conjugacy_witness(skew(TYPE_S, q, p), skew(TYPE_SPRIME, p, q))
    for code in codes:
        _assert_round_trips(code)
    # radius 0 and above, identity links, erase maps from a larger alphabet
    radii = {code.memory for code in codes}
    assert 0 in radii and len(radii) > 2 and identity_code(BINARY) in codes
    assert any(code.block_length == 1 and len(code.source_alphabet) > len(code.target_alphabet)
               for code in codes)


@pytest.mark.parametrize("size", [257, 65537])
def test_every_code_round_trips_through_json_over_wide_alphabets(size):
    codes = [code for code, _ in _wide_links(WIDE[size])]
    assert [code.memory for code in codes] == [0, 0, 1, 1, 0, 0, 0]
    assert all(type(code._table) is tuple for code in codes if code.block_length == 1)
    for code in codes:
        _assert_round_trips(code)


def test_a_1_block_witness_onto_256_symbols_holds_a_tuple_past_the_bytes_probe():
    # a relabelling s -> 255 - s probed over 42 centres: a byte table would
    # read the output 255 as an unmapped id
    a = WIDE[256]
    x = make_ep(Word(tuple(range(40)), a), Word((40,), a))
    y = make_ep(Word(tuple(255 - s for s in range(40)), a), Word((215,), a))
    fwd, inv = conjugacy_witness(x, y)
    assert (fwd.block_length, inv.block_length) == (1, 1) and type(fwd._table) is tuple
    f, g = dict(fwd.entries), dict(inv.entries)
    assert (f[(0,)], f[(40,)], g[(255,)], g[(215,)]) == (255, 215, 0, 40)
    assert similar(apply_code(fwd, x), y) and similar(apply_code(inv, y), x)
    for code in (fwd, inv):
        _assert_round_trips(code)


# --- the one-read image scan against the two-read construction ----------------

def _two_read_scan(code, x):
    """`classify._image_scan` by two reads, kept as its oracle: the code
    reads the periodic orbit's phases 0 ... N-1, whose root `primitive_root`
    cuts, and then the span; the guards around the span, from -aa-1-2N on
    the left and of 2N + 1 symbols on the right, are tiled from the root."""
    if x.alphabet != code.source_alphabet:
        raise IncompatibleAlphabets("sequence alphabet differs from the code's source alphabet")
    mm, aa, bl = code.memory, code.anticipation, code.block_length
    n, vl = least_period(x), len(x.anomaly)
    orbit = code.read(_tiled(x.period_word.symbols, -mm, n + bl - 1))
    root = primitive_root(Word._trusted(orbit, code.target_alphabet))[0]
    span = code.read(_symbols(x, -aa - mm, vl + mm + aa))
    lo = -aa - 1 - 2 * n
    img = _tiled(root.symbols, lo, 2 * n + 1) + span + _tiled(root.symbols, mm, 2 * n + 1)
    scan = _scan(img, lo, root, vl)
    if scan is None:
        raise DegenerateImage("image of the sequence under the code is periodic")
    return scan


def _wide_links_257_and_65537():
    return [link for size in (257, 65537) for link in _wide_links(WIDE[size])]


def test_one_read_image_scan_matches_the_two_read_construction(capped_8_links):
    links = capped_8_links + _wide_links_257_and_65537()
    for code, x in links:
        scan = classify._image_scan(code, x)
        assert scan == _two_read_scan(code, x), (code, x)
        assert type(scan.buf) is type(packed((), code.target_alphabet))
    # criterion 5's searched inverses reach radius 9; 1-block codes hold
    # byte tables and tuples
    assert max(code.memory for code, _ in links) == 9
    assert {type(code._table) for code, _ in links if code.block_length == 1} == {bytes, tuple}


def _orbit_and_span_blocks(code, x):
    """The blocks the image test reads in the periodic orbit, by phase, and
    those it reads only in the span, in the order of the span."""
    bl, n = code.block_length, least_period(x)
    mm, aa, vl = code.memory, code.anticipation, len(x.anomaly)

    def blocks(syms):
        return list(dict.fromkeys(tuple(syms[i:i + bl]) for i in range(len(syms) - bl + 1)))

    orbit = blocks(_tiled(x.period_word.symbols, -mm, n + bl - 1))
    return orbit, [b for b in blocks(_symbols(x, -aa - mm, vl + mm + aa)) if b not in orbit]


def test_one_read_image_scan_names_the_missing_block_the_two_reads_named(capped_8_links):
    # check-witness trails name the first block missing from a code's table:
    # a row of the periodic orbit (phases 0 ... N-1 first), else one of the span
    checked = 0
    for code, x in capped_8_links[::5] + _wide_links_257_and_65537():
        orbit, span = _orbit_and_span_blocks(code, x)
        dropped = [[orbit[-1]], [orbit[0], orbit[-1]]]
        if span:
            dropped += [[span[0]], [span[-1], orbit[-1]]]
        for missing in dropped:
            rows = tuple(row for row in code.entries if row[0] not in missing)
            if not rows:
                continue
            partial = SlidingBlockCode(code.memory, code.anticipation, rows,
                                       code.source_alphabet, code.target_alphabet)
            got = _outcome(classify._image_scan, partial, x)
            assert got == _outcome(_two_read_scan, partial, x), (code, x, missing)
            first = min(missing, key=(orbit + span).index)
            assert got == (MissingBlock, f"block {first} not in code table"), (code, x, missing)
            checked += 1
    assert checked > 5000


# --- symbol expansion --------------------------------------------------------

def test_expand_symbol_examples():
    x, (fresh,) = expand_symbol(ep("0", "11"), "1")
    assert x.period_word.labels() == ("0",)
    assert x.anomaly.labels() == ("1", fresh, "1", fresh)

    y, (fresh_y,) = expand_symbol(ep("10", "1"), "0")
    assert y.period_word.labels() == ("1", "0", fresh_y)
    assert y.anomaly.labels() == ("1",)

    z, minted = expand_symbol(ep("10", "1"), "0", 3)
    assert minted == ("x0'", "x1'", "x2'")
    assert z.period_word.labels() == ("1", "0", *minted)
    assert z.anomaly.labels() == ("1",)


def _expand_newest(x, label, k):
    """k one-label expansions, the first of `label` and each later one of
    the label the one before minted, through the checked constructors: the
    elementary route."""
    minted = []
    for _ in range(k):
        fresh = x.alphabet.mint_labels(1)[0]
        bigger = Alphabet(x.alphabet.labels + (fresh,))
        s, f = x.alphabet.index(label), bigger.index(fresh)

        def subst(w):
            return Word(tuple(u for t in w.symbols for u in ((t, f) if t == s else (t,))), bigger)

        x, label = make_ep(subst(x.period_word), subst(x.anomaly)), fresh
        minted.append(fresh)
    return x, tuple(minted)


def test_compound_expansion_is_the_composed_elementary_expansions():
    for x in verify.exhaustive_family(3, 4):
        for s in sorted(set(x.period_word.symbols + x.anomaly.symbols)):
            label = x.alphabet.labels[s]
            for k in (1, 2, 5):
                y, minted = expand_symbol(x, label, k)
                assert (y, minted) == _expand_newest(x, label, k), (x, label, k)


def test_expand_symbol_mints_past_a_counter_too_long_for_int():
    # 5,000 digits: more than CPython converts between int and str by default
    long = "x" + "1" * 5000 + "'"
    alphabet = Alphabet(("0", long))
    x = make_ep(Word((0, 1), alphabet), Word((1,), alphabet))
    y, minted = expand_symbol(x, long, 2)
    assert minted == (long[:-2] + "2'", long[:-2] + "3'")
    assert y.period_word.labels() == ("0", long, *minted)
    assert y.anomaly.labels() == (long, *minted)


def test_expand_symbol_absent():
    with pytest.raises(SymbolAbsent):
        expand_symbol(ep("0", "1"), "x")
    padded = Alphabet(("0", "1", "2"))
    x = make_ep(word("0", padded), word("1", padded))
    with pytest.raises(SymbolAbsent):
        expand_symbol(x, "2")


def test_expand_period_length_growth():
    x = skew(TYPE_S, 2, 3)
    zeros = sum(1 for s in x.period_word.symbols if s == 0)
    y, _ = expand_symbol(x, "0")
    assert least_period(y) == least_period(x) + zeros


# --- raises ------------------------------------------------------------------

def test_raise_period_examples():
    y = _raise_moves(ep("0", "11"), 1, 0)[1]
    assert (least_period(y), anomaly_size(y)) == (2, 2)
    z = _raise_moves(skew(TYPE_S, 1, 1), 1, 0)[1]
    assert (least_period(z), anomaly_size(z)) == (3, 1)
    for x in (ep("0", "1"), ep("110", "1"), skew(TYPE_SPRIME, 1, 2)):
        assert least_period(_raise_moves(x, 1, 0)[1]) == least_period(x) + 1
        assert anomaly_size(_raise_moves(x, 1, 0)[1]) == anomaly_size(x)


def test_raise_anomaly_examples():
    y = _raise_moves(ep("0", "1"), 0, 1)[1]
    assert (least_period(y), anomaly_size(y)) == (1, 2)
    z = _raise_moves(skew(TYPE_S, 1, 2), 0, 1)[1]
    assert (least_period(z), anomaly_size(z)) == (3, 2)
    for x in (ep("0", "11"), ep("10", "1")):
        assert least_period(_raise_moves(x, 0, 1)[1]) == least_period(x)
        assert anomaly_size(_raise_moves(x, 0, 1)[1]) == anomaly_size(x) + 1


def _assert_one_mark_chain(chain, steps):
    """The chain is empty when steps is 0, and otherwise one conjugacy
    move, first, whose result gives each of its N + a positions a fresh
    symbol of its own and whose code is the 1-block map from the result
    erasing those marks, one row per mark; then at most one compound
    expansion of the last period mark and of the last anomaly mark, in
    that order, with `steps` fresh labels in all."""
    if steps == 0:
        assert chain == ()
        return
    conj, *expands = chain
    assert isinstance(conj, ConjugacyMove) and 1 <= len(expands) <= 2
    assert conj.direction == BACKWARD and conj.code.block_length == 1
    marked, labels = conj.result, conj.result.alphabet.labels
    assert conj.code.source_alphabet == marked.alphabet
    p, u = marked.period_word.symbols, marked.anomaly.symbols
    assert len(set(p + u)) == len(p + u) == least_period(marked) + anomaly_size(marked)
    assert {labels[s] for s in p + u}.isdisjoint(conj.code.target_alphabet.labels)
    assert [block for block, _ in conj.code.entries] == sorted(zip(p + u))
    assert all(isinstance(m, ExpandMove) for m in expands)
    symbols = [m.symbol for m in expands]
    assert symbols in ([labels[p[-1]]], [labels[u[-1]]], [labels[p[-1]], labels[u[-1]]])
    assert sum(len(m.fresh) for m in expands) == steps


@pytest.mark.parametrize("dn, da", [(0, 0), (2, 0), (0, 3), (1, 1), (1, 4), (3, 2), (2, 2)])
def test_raise_moves_mark_once_then_expand_the_newest_symbol(dn, da):
    for x in (ep("0", "11"), ep("110", "1"), ep("10", "1011"), skew(TYPE_S, 2, 3),
              skew(TYPE_SPRIME, 3, 2)):
        moves, y = _raise_moves(x, dn, da)
        assert (least_period(y), anomaly_size(y)) == (least_period(x) + dn, anomaly_size(x) + da)
        _assert_one_mark_chain(moves, dn + da)
        end = x
        for m in moves:
            assert _replay_move(end, m) is None
            end = m.result
        assert end == y


def test_flow_chains_are_one_mark_chains():
    skews = [skew_sturmian(s) for s in verify._all_specs(8)]
    fam = verify.exhaustive_family(3, 4)
    for x, y in itertools.chain(itertools.combinations(skews, 2), zip(fam[::7], fam[3::5])):
        (nx, ax), (ny, ay) = (least_period(x), anomaly_size(x)), (least_period(y), anomaly_size(y))
        n, a = max(nx, ny), max(ax, ay)
        w = flow_witness(x, y)
        _assert_one_mark_chain(w.chain_x, n - nx + a - ax)
        _assert_one_mark_chain(w.chain_y, n - ny + a - ay)
        # a marked endpoint maps onto the other one by a 1-block code
        (code, direction), = w.final
        if w.chain_x or w.chain_y:
            assert code.block_length == 1
            assert direction == (FORWARD if w.chain_x else BACKWARD)


# --- flow witnesses ----------------------------------------------------------

def test_flow_witness_identical_inputs():
    x = ep("10", "1")
    w = flow_witness(x, x)
    assert w.chain_x == () and w.chain_y == ()
    assert verify_flow_witness(x, x, w)


def test_flow_witness_one_period_raise():
    x = skew(TYPE_S, 1, 1)          # N=2, a=1
    y = ep("0", "1")                # N=1, a=1
    w = flow_witness(x, y)
    assert len(w.chain_x) == 0 and len(w.chain_y) == 2
    end_y = w.chain_y[-1].result
    assert (least_period(end_y), anomaly_size(end_y)) == (2, 1)
    assert verify_flow_witness(x, y, w)


def test_flow_witness_one_anomaly_raise():
    x, y = skew(TYPE_S, 1, 2), skew(TYPE_S, 2, 1)
    w = flow_witness(x, y)
    assert len(w.chain_x) == 2 and len(w.chain_y) == 0
    end_x = w.chain_x[-1].result
    assert (least_period(end_x), anomaly_size(end_x)) == (3, 2)
    assert verify_flow_witness(x, y, w)


def test_flow_witness_rejects_fresh_symbol_collision():
    x = skew(TYPE_S, 1, 1)
    y = ep("0", "1")
    w = flow_witness(x, y)
    tampered_moves = []
    for m in w.chain_y:
        if isinstance(m, ExpandMove):
            m = ExpandMove(m.symbol, ("0",), m.result)   # "0" is already a symbol
        tampered_moves.append(m)
    bad = FlowWitness(w.chain_x, tuple(tampered_moves), w.final)
    trail = []
    assert not verify_flow_witness(x, y, bad, trail)
    assert any("fresh" in t for t in trail)


def test_replay_refuses_an_expand_move_of_a_symbol_not_in_the_alphabet():
    # the length test before the expansion counts no occurrence of an
    # unknown symbol, over bytes as over a tuple, and the replay says why
    wide = Alphabet(tuple(f"s{i}" for i in range(257)))
    for x in (ep("01", "1"), make_ep(Word((0, 256), wide), Word((1,), wide))):
        y = expand_symbol(x, x.alphabet.labels[1], 1)[0]
        bad = FlowWitness((ExpandMove("z", ("x9'",), y),), (), ((identity_code(y.alphabet),
                                                                  FORWARD),))
        trail = []
        assert not verify_flow_witness(x, y, bad, trail)
        assert trail == ["chain_x[0]: replay error: symbol 'z' is not in the alphabet"]


def test_replay_names_an_unknown_move_kind():
    x = ep("01", "1")
    bad = FlowWitness(("rotate",), (), ((identity_code(x.alphabet), FORWARD),))
    assert _replay_move(x, "rotate") == "unknown move kind"
    trail = []
    assert verify_flow_witness(x, x, bad, trail) is False
    assert trail == ["chain_x[0]: unknown move kind"]


def test_flow_witness_rejects_non_inverse_final_codes():
    x, y = skew(TYPE_S, 1, 2), skew(TYPE_SPRIME, 2, 1)
    w = flow_witness(x, y)
    assert w.chain_x == () and w.chain_y == ()
    # an identity "inverse", as a flowwitness/2 value holds it, maps y to
    # itself, which is not similar to x
    sabotage = FlowWitness(w.chain_x, w.chain_y, w.final + ((identity_code(BINARY), BACKWARD),))
    trail = []
    assert not verify_flow_witness(x, y, sabotage, trail)
    assert any("inverse" in t or "mutually" in t for t in trail)


def test_flow_witness_rejects_factor_map_move(forged_factor_witness):
    x, y, forged = forged_factor_witness
    assert y == ep("0", "11") and least_period(y) == 1
    trail = []
    assert not verify_flow_witness(x, y, forged, trail)
    assert trail == ["chain_x[0]: conjugacy move changes the invariants"]


def test_flow_values_need_a_final_link_and_known_directions(forged_factor_witness):
    # an empty final would leave replay nothing to check between the endpoints
    move, = forged_factor_witness[2].chain_x
    with pytest.raises(ValueError, match="final link"):
        FlowWitness((), (), ())
    with pytest.raises(ValueError, match="direction"):
        FlowWitness((), (), ((move.code, "sideways"),))
    with pytest.raises(ValueError, match="direction"):
        ConjugacyMove(move.code, move.result, "sideways")


def _tampered_witnesses(forged_factor_witness):
    """A built flow witness (x, y, w), and (x, y, witness, trail) for copies
    of w with one move changed, for the forged factor-map witness, and for
    the same factor map as a final code, each with the one-line trail of
    its replay."""
    x, y = skew(TYPE_S, 1, 1), ep("0", "1")
    w = flow_witness(x, y)
    conj, expand = w.chain_y
    big = conj.result.alphabet
    assert expand.fresh == ("x2'",)
    # the marks x0' and x1' of the period 0 and the anomaly 1 erase to them
    erase = dict(conj.code.entries)
    assert conj.direction == BACKWARD and (erase[(2,)], erase[(3,)]) == (0, 1)
    other_code = SlidingBlockCode(0, 0, (((0,), 2), ((1,), 0)), BINARY, big)
    short_code = SlidingBlockCode(0, 0, (((0,), 2),), BINARY, big)
    wrong_mark = SlidingBlockCode(0, 0, (((2,), 1), ((3,), 1)), big, BINARY)
    other_result = make_ep(Word((2,), big), Word((3, 3), big))
    fx, fy, forged = forged_factor_witness

    def with_chain_y(*moves):
        return x, y, FlowWitness(w.chain_x, moves, w.final)

    return (x, y, w), [
        (*with_chain_y(ConjugacyMove(other_code, conj.result), expand),
         "chain_y[0]: conjugacy image not similar to recorded result"),
        (*with_chain_y(ConjugacyMove(short_code, conj.result), expand),
         "chain_y[0]: replay error: block (1,) not in code table"),
        (*with_chain_y(ConjugacyMove(conj.code, other_result, BACKWARD), expand),
         "chain_y[0]: conjugacy image not similar to recorded result"),
        (*with_chain_y(ConjugacyMove(wrong_mark, conj.result, BACKWARD), expand),
         "chain_y[0]: replay error: image of the sequence under the code is periodic"),
        (*with_chain_y(ConjugacyMove(conj.code, conj.result, FORWARD), expand),
         "chain_y[0]: replay error: sequence alphabet differs from the code's source alphabet"),
        (*with_chain_y(conj, ExpandMove(expand.symbol, ("x3'",), expand.result)),
         "chain_y[1]: expansion does not reproduce recorded result"),
        (fx, fy, forged, "chain_x[0]: conjugacy move changes the invariants"),
        (fx, fy, FlowWitness((), (), ((forged.chain_x[0].code, FORWARD),)),
         "least periods differ"),
    ]


def test_replay_memo_never_answers_for_a_tampered_move(forged_factor_witness):
    (x, y, genuine), tampered = _tampered_witnesses(forged_factor_witness)
    for bx, by, bad, want in tampered:
        assert verify_flow_witness(x, y, genuine)      # the genuine moves are memoized
        warm = []
        assert not verify_flow_witness(bx, by, bad, warm)
        cold = []
        assert not verify_flow_witness(bx, by, bad, cold)
        assert warm == cold == [want]
    # a replay error is not memoized
    bx, by, bad, _ = tampered[1]
    assert not verify_flow_witness(bx, by, bad, [])
    # and the memo, now holding the tampered moves, still accepts the genuine one
    assert verify_flow_witness(x, y, genuine)


def test_replay_refuses_a_compound_move_of_the_wrong_length_before_expanding(monkeypatch):
    # a million fresh labels and a result of the length one label gives:
    # expanding first would write a million symbols per occurrence
    x, y = skew(TYPE_S, 1, 1), ep("0", "1")
    w = flow_witness(x, y)
    conj, expand = w.chain_y
    many = tuple(f"y{i}'" for i in range(10**6))
    bad = FlowWitness(w.chain_x, (conj, ExpandMove(expand.symbol, many, expand.result)), w.final)

    def no_expansion(*args):
        raise AssertionError("expand_symbol called")

    monkeypatch.setattr(classify, "expand_symbol", no_expansion)
    trail = []
    assert not verify_flow_witness(x, y, bad, trail)
    assert trail == ["chain_y[1]: expansion does not reproduce recorded result"]


def test_flow_witness_raises_when_its_replay_fails(monkeypatch):
    # pins that verify criterion 7 replays every flow witness it builds
    x, y = skew(TYPE_S, 1, 1), ep("0", "1")

    def failing_replay(x, y, wit, trail=None):
        trail.append("chain_y[0]: conjugacy image not similar to recorded result")
        return False

    monkeypatch.setattr(classify, "verify_flow_witness", failing_replay)
    with pytest.raises(InternalMismatch, match="conjugacy image not similar"):
        flow_witness(x, y)


def test_flow_witness_runs_one_radius_search(monkeypatch):
    # S(1/1) -> S(599/1001) and S'(599/1001) -> S(500/901) at N=1600: the
    # marks are erased by 1-block maps, so the one least-radius search is
    # the final code's, from the marked end_x, and it stops at 0
    calls, raising = [], []

    def counting(src, dst):
        calls.append(bool(raising))
        return witness_code(src, dst)

    def raise_moves(x, dn, da):
        raising.append(x)
        try:
            return _raise_moves(x, dn, da)
        finally:
            raising.pop()

    witness_code = classify._witness_code
    monkeypatch.setattr(classify, "_witness_code", counting)
    monkeypatch.setattr(classify, "_raise_moves", raise_moves)
    for x, y, moves in ((skew(TYPE_S, 1, 1), skew(TYPE_S, 599, 1001), 3),
                        (skew(TYPE_SPRIME, 599, 1001), skew(TYPE_S, 500, 901), 4)):
        assert max(least_period(x), least_period(y)) == 1600
        calls.clear()
        w = flow_witness(x, y)
        assert calls == [False]
        assert len(w.chain_x) + len(w.chain_y) <= moves
        (code, direction), = w.final
        assert direction == FORWARD and code.memory == code.anticipation == 0
        assert verify_flow_witness(x, y, w)


@pytest.mark.parametrize("x_freq, y_freq", [((149, 251), (125, 226)), ((599, 1001), (500, 901))])
def test_flow_witnesses_between_raised_sides_hold_1_block_codes_only(x_freq, y_freq):
    # S'(149/251) -> S(125/226) (N=400) and S'(599/1001) -> S(500/901)
    # (N=1600) raise both sides; one mark per raised invariant left a final
    # code of radius 199 and 799
    x, y = skew(TYPE_SPRIME, *x_freq), skew(TYPE_S, *y_freq)
    (nx, ax), (ny, ay) = (least_period(x), anomaly_size(x)), (least_period(y), anomaly_size(y))
    n, a = max(nx, ny), max(ax, ay)
    assert (nx, ax) != (n, a) and (ny, ay) != (n, a)
    w = flow_witness(x, y)
    moves = w.chain_x + w.chain_y
    codes = [m.code for m in moves if isinstance(m, ConjugacyMove)] + [c for c, _ in w.final]
    for code in codes:
        assert code.memory == code.anticipation == 0
        blocks = [block for block, _ in code.entries]
        assert len(set(blocks)) == len(blocks) <= len(code.source_alphabet)
    # N' + a' marks and fresh labels at most join the binary alphabet Σ
    alphabets = [m.result.alphabet for m in moves]
    alphabets += [al for c in codes for al in (c.source_alphabet, c.target_alphabet)]
    assert x.alphabet == y.alphabet == BINARY
    assert max(map(len, alphabets)) <= len(BINARY) + n + a
    text = json.dumps(jsonio.emit_flow_witness(w))
    assert len(text) < 500_000
    assert verify_flow_witness(x, y, jsonio.parse_flow_witness(json.loads(text)))


def test_a_dropped_flow_witness_leaves_nothing_it_built_alive():
    # no store outside the witness may keep its chains: at N=1600 one chain
    # holds about 0.2 MB
    w = flow_witness(skew(TYPE_S, 1, 1), skew(TYPE_S, 2, 5))
    moves = w.chain_x + w.chain_y
    refs = [weakref.ref(m.result) for m in moves]
    refs += [weakref.ref(m.code) for m in moves if isinstance(m, ConjugacyMove)]
    assert len(refs) == 4
    del w, moves
    gc.collect()
    assert [r for r in refs if r() is not None] == []


def _rule_outcome(code, x, y):
    # the one-code rule on code alone: a witness with no moves and one FORWARD link
    return verify_flow_witness(x, y, FlowWitness((), (), ((code, FORWARD),)))


def test_one_code_rule_agrees_with_the_two_code_check_on_every_radius_one_binary_code():
    # every binary code of radius <= 1 (a radius-0 code is a radius-1 code
    # that reads only the centre), against the two-code check with a code
    # back found by search; y is each family member of x's least period,
    # and the image of x when it is not periodic
    fam = verify.exhaustive_family(2, 2)
    blocks = list(itertools.product((0, 1), repeat=3))
    codes = [SlidingBlockCode(1, 1, tuple(zip(blocks, outs)), BINARY, BINARY)
             for outs in itertools.product((0, 1), repeat=8)]
    back = {}
    accepted = factor_maps = 0
    for x in fam:
        same = [y for y in fam if least_period(y) == least_period(x)]
        for phi in codes:
            try:
                ys = same + [canonical(apply_code(phi, x))]
            except DegenerateImage:
                ys = same
            for y in ys:
                if (x, y) not in back:
                    try:
                        back[x, y] = _witness_code(canonical(y), canonical(x))
                    except EpshiftError:
                        back[x, y] = None
                psi = back[x, y]
                rule = _rule_outcome(phi, x, y)
                two_codes = psi is not None and check_pair(x, y, phi, psi, [])
                assert rule == two_codes, (x, y, phi)
                accepted += rule
                factor_maps += least_period(y) != least_period(x)
    # both verdicts occur, and so do images onto another least period
    assert accepted and factor_maps


def test_flow_witness_random_pairs_verify():
    import random

    from epshift.verify import random_ep

    rng = random.Random(7)
    for _ in range(8):
        x, y = random_ep(rng, 3, 4), random_ep(rng, 3, 4)
        w = flow_witness(x, y)
        assert verify_flow_witness(x, y, w)
        ex = w.chain_x[-1].result if w.chain_x else x
        ey = w.chain_y[-1].result if w.chain_y else y
        assert least_period(ex) == least_period(ey)
        assert anomaly_size(ex) == anomaly_size(ey)


# --- skew classes -------------------------------------------------------------

def test_skew_conjugacy_class_examples():
    s = SturmianSpec(Frequency.rational(1, 2), TYPE_S)
    assert skew_conjugacy_class(s) == {s, SturmianSpec(Frequency.rational(2, 1), TYPE_SPRIME)}

    inf = SturmianSpec(Frequency.infinity(), TYPE_S)
    assert skew_conjugacy_class(inf) == {inf, SturmianSpec(Frequency.zero(), TYPE_SPRIME)}

    selfinv = SturmianSpec(Frequency.rational(1, 1), TYPE_SPRIME)
    cls = skew_conjugacy_class(selfinv)
    assert cls == {selfinv, SturmianSpec(Frequency.rational(1, 1), TYPE_S)}
    assert len(cls) == 2


def test_no_conjugacies_within_a_type():
    # same type, same period sum, different split => different anomaly sizes
    for (q, p, c) in ((2, 3, 1), (3, 4, 1), (3, 5, 2), (5, 2, 3)):
        x = skew(TYPE_S, q, p)
        y = skew(TYPE_S, q - c, p + c)
        assert anomaly_size(x) != anomaly_size(y)
        assert not conjugate_ep(x, y)
