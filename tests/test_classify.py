import gc
import itertools
import json
import random
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
    anomaly_size,
    canonical,
    least_period,
    make_ep,
    remove_anomaly,
    similar,
)
from epshift.sturmian import (
    Frequency,
    SturmianSpec,
    TYPE_S,
    TYPE_SPRIME,
    skew_sturmian,
)
from epshift.verify import skew_conjugacy_class, symbol_reverse
from epshift.words import Alphabet, BINARY, Word, packed, word
from blockcodes import blocks, consistency_window, consistent, image, read_by_lookup, rows
from shifts import brute_first_defect, rotate, shifted


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
                targets += [img, shifted(img, -1)]
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


def _assert_least_radius_code(src, dst):
    """Assert that _witness_code(src, dst) has the least radius k at which
    one block map sends src onto dst, and that its rows are the probe's by
    definition: the radius-k block of src at each centre of
    [-k-1-N, max(|u|+k, |v|)), u and v the anomalies, onto dst's symbol
    there.  Returns the code."""
    code = _witness_code(src, dst)
    k = code.memory  # consistency is monotone in the radius
    assert code.anticipation == k, (src, dst)
    # one read of each side over radius k's window, which holds radius k - 1's
    lo, hi = consistency_window(src, dst, k)
    bs, ds = blocks(src, lo, hi, k, k), list(map(dst.symbol_id_at, range(lo, hi)))
    assert consistent(bs, ds), (src, dst)
    assert k == 0 or not consistent([b[1:-1] for b in bs], ds), (src, dst)
    stop = max(len(src.anomaly) + k, len(dst.anomaly)) - lo
    assert rows(code) == dict(zip(bs[:stop], ds)), (src, dst)
    return code


@settings(max_examples=300, deadline=None, derandomize=True)
@given(conjugate_canonical_pairs())
@example((canonical(ep("0", "000001")), canonical(ep("0", "001001"))))
def test_witness_code_has_the_least_consistent_radius(pair):
    # and the probe's rows send x onto y far past its centres
    x, y = pair
    code = _assert_least_radius_code(x, y)
    k = code.memory
    lo, hi = -3 * least_period(x) - k, len(x.anomaly) + len(y.anomaly) + 3 * k + 8
    assert image(code, x, lo, hi) == list(map(y.symbol_id_at, range(lo, hi)))


# alphabets on either side of the byte path's bounds: at most 256 source
# symbols and 255 target symbols, 255 being a translate table's unmapped mark
BYTE_BOUNDS = (2, 3, 255, 256, 257)
SIZED = {k: Alphabet(tuple(f"s{i}" for i in range(k))) for k in (*BYTE_BOUNDS, 65537)}
RELABELLED = {k: Alphabet(tuple(f"t{i}" for i in range(k))) for k in BYTE_BOUNDS}
# ids that agree in their low six bits, so that two dst symbols can differ
# only in bits 6 and 7 of their byte
LOW_BITS_ALIKE = (0, 64, 128, 1, 129, 5, 7)
SYMBOLS_130 = Alphabet(tuple(f"s{i}" for i in range(130)))


@pytest.mark.parametrize("ids, alphabet, draws", [
    ((0, 1), BINARY, 150), (LOW_BITS_ALIKE, SYMBOLS_130, 60),
    (LOW_BITS_ALIKE + (255,), SIZED[256], 30), (LOW_BITS_ALIKE + (256,), SIZED[257], 30),
], ids=["binary", "wide", "onto-256", "tuples"])
def test_witness_code_has_the_least_radius_past_32_centres(ids, alphabet, draws):
    # x canonical with N from 20 to 40, y the canonical image of x under a
    # random radius-1 code: the radius-0 probe has more than 32 centres, so
    # over bytes it takes the bytes route, onto 256 symbols too, and over
    # 257 the loop over tuples
    rng, pairs = random.Random(f"least radius/{len(ids)}"), 0
    for _ in range(draws):
        n = rng.randint(20, 40)
        wsyms = [rng.choice(ids) for _ in range(n)]
        vsyms = [rng.choice(ids) for _ in range(rng.randint(1, 8))]
        try:
            x = canonical(make_ep(Word(tuple(wsyms), alphabet), Word(tuple(vsyms), alphabet)))
            table = tuple((b, rng.choice(ids)) for b in itertools.product(ids, repeat=3))
            y = canonical(apply_code(SlidingBlockCode(1, 1, table, alphabet, alphabet), x))
        except (DegeneratePeriodic, DegenerateImage):
            continue
        if least_period(x) != n or least_period(y) != n:
            continue
        pairs += 1
        _assert_least_radius_code(x, y)
    assert pairs >= draws * 2 // 3, pairs


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
    assert _assert_least_radius_code(x, y).memory == radius
    # the buffers start at reach N and double, up to |u| + |v| + 4N, only
    # when a probe needs more
    n = least_period(x)
    cap = len(x.anomaly) + len(y.anomaly) + 4 * n
    assert reaches == [min(n << i, cap) for i in range(len(reaches))]
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


# --- the probe's rows and its first clash, by definition -----------------------

@settings(max_examples=300, deadline=None, derandomize=True)
@given(conjugate_canonical_pairs())
def test_one_stretch_probe_matches_the_two_stretch_probe(pair):
    # the probe reads the left periodic stretch only; its rows are still
    # those of every centre, in both directions
    x, y = pair
    _assert_least_radius_code(x, y)
    _assert_least_radius_code(y, x)


def test_one_stretch_probe_matches_on_reciprocal_skews_and_raised_endpoints():
    # reciprocal skews of N up to 60, and up to 30 over 257 symbols: the
    # radius-0 probe over at most 32 centres and over more, as bytes and as
    # tuples
    for q, p in verify.coprime_pairs(60):
        x, y = canonical(skew(TYPE_S, q, p)), canonical(skew(TYPE_SPRIME, p, q))
        pairs = [(x, y)]
        if p + q <= 30:  # and the pair over 257 symbols, 1 written as 256
            pairs.append(tuple(make_ep(*(Word(tuple(256 * s for s in w.symbols), SIZED[257])
                                         for w in (z.period_word, z.anomaly))) for z in (x, y)))
        for src, dst in pairs:
            _assert_least_radius_code(src, dst)
            _assert_least_radius_code(dst, src)
    skews = [skew_sturmian(spec) for spec in verify._all_specs(6)]
    for x, y in itertools.combinations(skews, 2):
        (nx, ax), (ny, ay) = (least_period(x), anomaly_size(x)), (least_period(y), anomaly_size(y))
        n, a = max(nx, ny), max(ax, ay)
        end_x = canonical(_raise_moves(x, n - nx, a - ax)[1])
        end_y = canonical(_raise_moves(y, n - ny, a - ay)[1])
        _assert_least_radius_code(end_x, end_y)
        _assert_least_radius_code(end_y, end_x)


def _assert_probe(s, d, centres, k, table, clash):
    """The probe's table and clash as properties of the centres.  With no
    clash, each radius-k block of s at a centre meets one symbol of d, and
    the table is a dict that maps the block at c to d[c].  A clash (i, j) has
    j the first centre whose block met another d symbol at an earlier
    centre, and i the first centre with that block; it comes with no table."""
    def block(c):
        return tuple(s[c - k:c + k + 1])

    def consistent_on(cs):
        return consistent([block(c) for c in cs], [d[c] for c in cs])

    if clash is None:
        assert consistent_on(centres)
        assert {tuple(b): out for b, out in table.items()} == {block(c): d[c] for c in centres}
        return
    i, j = clash
    assert table is None
    assert centres.start <= i < j < centres.stop
    assert block(i) == block(j) and d[i] != d[j]
    assert all(block(c) != block(j) for c in range(centres.start, i))
    assert consistent_on(range(centres.start, j))


def test_bytes_radius_0_probe_matches_the_loop():
    # random buffers over 2 to 256 symbols, d a function of s with some
    # centres changed, as bytes whose outputs reach 255, as tuples, and over
    # 257 symbols; radius 0 over at most 32 centres and over more, which the
    # bytes route reads per symbol, then radius 1 and 2: each gives the
    # first clash, or else the dict of the centres' rows
    rng = random.Random(33)
    outcomes = dict.fromkeys(["table", "clash", "few", "many", "wider"], 0)
    for k in [0] * 600 + [1, 2] * 100:
        syms, n, a = rng.choice([2, 3, 7, 256]), rng.randint(1, 9), rng.randint(0, 5)
        lu = lv = rng.choice([rng.randint(0, 31 - n), rng.randint(0, 40), rng.randint(40, 300)])
        lo = -2 * k - 1 - n - a  # the centres are [a + k, a + 3k + n + 1 + lu)
        centres = range(a + k, a + 3 * k + n + 1 + lu)
        size = centres.stop + k + rng.randint(0, 3)
        s = bytes(rng.randrange(syms) for _ in range(size))
        f = [rng.randrange(256) for _ in range(256)]
        d = [f[x] for x in s]
        for _ in range(rng.choice([0, 0, 1, 3])):
            d[rng.randrange(size)] = rng.randrange(256)
        for bs, bd in ((s, bytes(d)), (tuple(s), tuple(d)), (s, tuple(x + 1 for x in d))):
            table, clash = classify._build_block_map(bs, bd, lo, n, lu, lv, k)
            _assert_probe(bs, bd, centres, k, table, clash)
        outcomes["table" if clash is None else "clash"] += 1
        outcomes["wider" if k else "few" if len(centres) <= 32 else "many"] += 1
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
    canonical(y) to canonical(x) returns, in ==, hash, repr and entries;
    returns whether the forward code is a 1-block bijection."""
    fwd, inv = conjugacy_witness(x, y)
    searched = _witness_code(canonical(y), canonical(x))
    assert inv == searched and hash(inv) == hash(searched), (x, y)
    assert repr(inv) == repr(searched) and inv.entries == searched.entries, (x, y)
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


def _assert_image_is_the_shift(code, x, k):
    # a code read k places ahead gives the shift by k, or by d, x's first
    # defect, where k > d; both sides are periodic left of -|v| - N and right
    # of |u| + |v| + N, u the image's anomaly, so that span decides
    img = apply_code(code, x)
    t = min(k, brute_first_defect(x))
    n, ul, vl = least_period(x), len(img.anomaly), len(x.anomaly)
    span = range(-vl - 2 * n, ul + vl + 2 * n)
    assert least_period(img) == n
    assert [img.symbol_id_at(i) for i in span] == [x.symbol_id_at(i + t) for i in span], (x, k)


def test_apply_shift_by_one_code():
    for x in (ep("0", "1"), ep("01", "1"), ep("110", "1"), ep("01", "0011")):
        _assert_image_is_the_shift(shift_by_one_code(), x, 1)


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
            _assert_image_is_the_shift(code, x, k)


def _all_blocks(n):
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


def _read_cases(rng, src, dst):
    """(codes, partials, buffers) for groups of equal codes from src to dst:
    1-block rows on ids at both ends of src and some at random, onto
    outputs at both ends of dst, spread or merged, checked and built;
    radius-1 rows on the ids at the ends, checked; the radius-1 code the
    search finds from a sequence over src.  The partials drop one row,
    checked and parsed from JSON (with 65537 symbols, in one group only: a
    parse reads every label).  The buffers splice that row's block in."""
    n, m = len(src), len(dst)
    ids = sorted({0, 1, n // 2, n - 2, n - 1, *rng.sample(range(n), min(n, 40))})
    ends = sorted({0, 1, n - 2, n - 1})
    outs = sorted({0, 1, m // 2, m - 1})
    x = make_ep(Word((0, 0, n - 1), src), Word((n - 1,), src))
    searched = conjugacy_witness(x, make_ep(Word((0, 0, m - 1), dst), Word((0,), dst)))[0]
    spread = tuple(((s,), outs[i % len(outs)]) for i, s in enumerate(ids))
    merged = tuple(((s,), outs[0] if i % 3 else outs[-1]) for i, s in enumerate(ids))
    groups = [((classify._one_block(one, src, dst), SlidingBlockCode(0, 0, one, src, dst)), ids)
              for one in (spread, merged)]
    wide = tuple((b, rng.choice(outs)) for b in itertools.product(ends, repeat=3))
    groups += [((SlidingBlockCode(1, 1, wide, src, dst),), ends),
               ((searched,), [x.symbol_id_at(i) for i in range(-6, 8)])]
    cases = []
    for codes, symbols in groups:
        entries = codes[0].entries
        h = len(entries) // 2
        absent = list(entries[h][0])
        partial = SlidingBlockCode(codes[0].memory, codes[0].anticipation,
                                   entries[:h] + entries[h + 1:], src, dst)
        partials = [partial]
        if n + m <= 514 or (n + m <= 65539 and not cases):
            partials.append(jsonio.parse_code(json.loads(json.dumps(jsonio.emit_code(partial)))))
        base = [rng.choice(symbols) for _ in range(9)]
        buffers = [symbols, [], absent, *(base[:at] + absent + base[at:] for at in (0, 4, 9))]
        buffers += [[rng.choice(symbols) for _ in range(rng.randrange(40))] for _ in range(5)]
        cases.append((codes, partials, [packed(buf, src) for buf in buffers]))
    return cases


@pytest.mark.parametrize("size", sorted(SIZED))
def test_read_is_a_lookup_per_position(size):
    # codes from `size` symbols onto alphabets on either side of the byte
    # path's bounds, of radius 0 and 1, built, checked and parsed, whole
    # and less a row: each reads a buffer as a lookup per position does,
    # MissingBlock text included, and gives the target alphabet's Symbols
    rng, src = random.Random(size), SIZED[size]
    outcomes = set()
    for dst in SIZED.values():
        for codes, partials, buffers in _read_cases(rng, src, dst):
            for group in (codes, partials):
                assert all(c == group[0] and hash(c) == hash(group[0]) for c in group), group[0]
            for code in codes + tuple(partials):
                assert type(code.read(packed((), src))) is type(packed((), dst))
                for buf in buffers:
                    got = _outcome(lambda: tuple(code.read(buf)))
                    assert got == _outcome(read_by_lookup, code, buf), (code, buf)
                    outcomes.add(got[:1] == (MissingBlock,))
    assert outcomes == {True, False}


def test_a_code_from_one_symbol_reads_its_one_output():
    # onto 256 symbols and more a 1-block code holds its outputs by source
    # id in a tuple, here of one entry
    one = Alphabet(("a",))
    for dst in (SIZED[256], SIZED[65537]):
        code = SlidingBlockCode(0, 0, (((0,), len(dst) - 1),), one, dst)
        for buf in ((), (0,), (0, 0, 0)):
            assert tuple(code.read(packed(buf, one))) == read_by_lookup(code, buf)


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


# --- image scans, by definition --------------------------------------------------

def _missing(table, order):
    """The MissingBlock a read of the blocks in this order raises, or None."""
    first = next((b for b in order if b not in table), None)
    return first and (MissingBlock, f"block {first} not in code table")


def _blocks_read(code, x):
    """The blocks an image of x reads, in the order that names a missing
    one: the periodic orbit's at phases 0 ... N-1, then those of x at the
    centres -aa ... |v|+mm-1 (memory mm, anticipation aa)."""
    mm, aa = code.memory, code.anticipation
    orbit = blocks(remove_anomaly(x), 0, least_period(x), mm, aa)
    return orbit, blocks(x, -aa, len(x.anomaly) + mm, mm, aa)


def _root(o):
    """The shortest prefix of the cyclic word o whose repetition is o."""
    n = len(o)
    p = next(p for p in range(1, n + 1) if all(o[i] == o[(i + p) % n] for i in range(n)))
    return tuple(o[:p])


def _scan_outcome(code, x):
    """What an image scan of x gives, as `_scan_by_definition` states it, or
    the error it raises."""
    def read():
        scan = classify._image_scan(code, x)
        assert scan.period.alphabet == code.target_alphabet
        return (tuple(scan.period.symbols), scan.defect, scan.start, scan.length,
                *(tuple(map(tuple, scan.anchored_symbols(t))) for t in (scan.start, 0)))
    return _outcome(read)


def _scan_by_definition(code, x):
    """An image scan of x from the code's rows alone: a missing block is the
    first the rows lack in `_blocks_read` order.  The image y has the root
    r of its periodic orbit's image, p = |r|; its defect d is the first i
    with y_i != y_{i-p} and e the last with y_i != y_{i+p}.  The minimal
    window has the least length L ≡ |v| (mod p) with L >= max(1, e+1-d),
    and ends at e + 1.  Anchored at t <= d the period is r rotated by t,
    and the anomaly the shortest run from y_t of a length ≡ L (mod p) that
    reaches the window's end.  Returns r, d, the window's start and L, and
    the anchored forms at the start and at min(0, d)."""
    if x.alphabet != code.source_alphabet:
        return IncompatibleAlphabets, "sequence alphabet differs from the code's source alphabet"
    table = rows(code)
    orbit, span = _blocks_read(code, x)
    missing = _missing(table, orbit + span)
    if missing:
        return missing
    r = _root([table[b] for b in orbit])
    p, vl = len(r), len(x.anomaly)
    lo, hi = -code.anticipation - p, vl + code.memory + p
    y = dict(zip(range(lo - p, hi), image(code, x, lo - p, hi)))  # the window starts past lo - p
    d = next((i for i in range(lo + p, hi) if y[i] != y[i - p]), None)
    if d is None:
        return DegenerateImage, "image of the sequence under the code is periodic"
    e = max(i for i in range(lo, hi - p) if y[i] != y[i + p])
    need = max(1, e + 1 - d)
    length = need + (vl - need) % p
    start = e + 1 - length

    def anchored(t):
        size = length + p * -(-max(0, start - t) // p)
        return tuple(r[(t + j) % p] for j in range(p)), tuple(y[i] for i in range(t, t + size))

    return r, d, start, length, anchored(start), anchored(min(0, d))


def _ids(x):
    """The period and anomaly of x as tuples of ids."""
    return tuple(x.period_word.symbols), tuple(x.anomaly.symbols)


def test_image_buffer_matches_the_code_read_block_by_block():
    # the image's tails are tiled from the image of one period; each must
    # sit at its phase, so the scan and apply_code, the form anchored at
    # min(0, d), are held to the blocks read from the source itself
    for code in _uneven_codes():
        for x in verify.exhaustive_family(3, 5) + [ep("0100", "100")]:
            got = _scan_outcome(code, x)
            assert got == _scan_by_definition(code, x), (code, x)
            if got[0] is not DegenerateImage:
                assert _ids(apply_code(code, x)) == got[5], (code, x)


# --- the byte path of 1-block codes ---------------------------------------------

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
    src, dst = draw(st.sampled_from(BYTE_BOUNDS)), draw(st.sampled_from(BYTE_BOUNDS))
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


def _periodic_image_by_definition(code, p):
    """The root of the image of the periodic sequence p, or the MissingBlock
    naming the first block the rows lack at phases 0 ... N-1."""
    table = rows(code)
    orbit = blocks(p, 0, least_period(p), code.memory, code.anticipation)
    return _missing(table, orbit) or _root([table[b] for b in orbit])


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
    # a 1-block code on either side of the byte path's bounds scans the
    # image its rows define, and its periodic image and image tests follow
    x, code = case
    got = _scan_outcome(code, x)
    assert got == _scan_by_definition(code, x)
    periodic = PeriodicSeq(x.period_word)
    assert (_outcome(lambda: tuple(apply_code_to_periodic(code, periodic).period_word.symbols))
            == _periodic_image_by_definition(code, periodic))
    if not isinstance(got[0], type):  # the image, a shift of it, and another sequence
        img, b = apply_code(code, x), code.target_alphabet
        assert _ids(img) == got[5]
        for y in (img, shifted(img, -1), make_ep(Word((0,), b), Word((1,), b))):
            assert _image_similar(code, x, y) == (_ids(canonical(y)) == got[4])
    # mismatched alphabets: x's symbols over another alphabet of its size,
    # and a target sequence over another alphabet of the target's size
    size = len(x.alphabet)
    moved = make_ep(Word(x.period_word.symbols, RELABELLED[size]),
                    Word(x.anomaly.symbols, RELABELLED[size]))
    elsewhere = make_ep(Word((0,), RELABELLED[len(code.target_alphabet)]),
                        Word((1,), RELABELLED[len(code.target_alphabet)]))
    assert _outcome(_image_similar, code, moved, elsewhere)[0] is IncompatibleAlphabets
    if not isinstance(got[0], type):
        assert _outcome(_image_similar, code, x, elsewhere)[0] is IncompatibleAlphabets


def test_byte_path_cuts_a_shorter_root_and_names_the_first_missing_symbol():
    x, code = _byte_path_case(3, 2, (0, 1), (2,), {0: 0, 1: 0, 2: 1})
    assert apply_code_to_periodic(code, PeriodicSeq(x.period_word)).period_word.symbols == b"\x00"
    assert least_period(apply_code(code, x)) == 1
    for period, anomaly, absent in (((255, 0), (1,), 255), ((0, 1), (1, 254, 255), 254)):
        x, code = _byte_path_case(256, 255, period, anomaly, {0: 254, 1: 0})
        with pytest.raises(MissingBlock, match=rf"^block \({absent},\) not in code table$"):
            apply_code(code, x)


def test_1_block_image_tests_read_no_block_on_the_byte_path():
    # the one test of the route a code's table takes, which `read` alone
    # picks by: a 1-block code from at most 256 symbols to at most 255
    # holds a 256-byte translate table, any other 1-block code a tuple of
    # its outputs by source id, and a wider code a dict by block, packed
    # as its source alphabet's words; searched, built, checked and parsed
    # codes alike
    def route(code):
        table = code._table
        if code.block_length > 1:
            return type(table), {type(block) for block in table}
        return type(table), len(table)

    def expected(code):
        n, m = len(code.source_alphabet), len(code.target_alphabet)
        if code.block_length > 1:
            return dict, {bytes if n <= 256 else tuple}
        return (bytes, 256) if n <= 256 and m <= 255 else (tuple, n)

    codes = []
    for q, p in ((5, 8), (47, 53)):  # swaps, the second past the bytes probe's 32 centres
        codes += conjugacy_witness(skew(TYPE_S, q, p), skew(TYPE_SPRIME, p, q))
    codes += conjugacy_witness(ep("001", "1"), ep("001", "0"))  # radius 1
    for n in BYTE_BOUNDS:
        for m in BYTE_BOUNDS:
            rows_ = (((0,), 0), ((n - 1,), m - 1))
            codes += [SlidingBlockCode(0, 0, rows_, SIZED[n], SIZED[m]),
                      classify._one_block(rows_, SIZED[n], SIZED[m])]
    codes += [code for code, _ in _wide_links_257_and_65537()]
    codes += [jsonio.parse_code(json.loads(json.dumps(jsonio.emit_code(c)))) for c in codes
              if len(c.source_alphabet) + len(c.target_alphabet) < 1000]
    for code in codes:
        assert route(code) == expected(code), code
    assert {route(code)[0] for code in codes} == {bytes, tuple, dict}
    assert {tuple in route(code)[1] for code in codes if code.block_length > 1} == {True, False}


# --- memory ---------------------------------------------------------------------

def test_conjugacy_witness_memory_stays_within_what_its_probe_and_image_tests_hold():
    # canonical forms warm; N = 10^6 and |u| = |v| = a.  The radius-0 probe
    # holds src over [-3N-1, a+2N) and dst over [-3N-1, a+N), four byte
    # strings over its N + 1 + a centres (the two stretches, the symbols
    # left to find and the translate) and, on a clash, their XOR: two ints
    # and the XOR int, each 16/15 of the bytes it reads.  Each image test
    # holds the root (N) and the image over [-2N-1, a+N), 3N + a + 1
    # bytes, which the scan slices twice (2N + a + 1 bytes each) into two
    # ints it XORs, as in `canonical`; the code's own read is smaller.
    # The bound is the larger of the two.
    q, p = 399999, 600001
    x, y = skew(TYPE_S, q, p), skew(TYPE_SPRIME, p, q)
    cx, cy = canonical(x), canonical(y)
    n, a = least_period(x), len(cx.anomaly)
    assert len(cy.anomaly) == len(x.anomaly) == len(y.anomaly) == a
    centres = n + 1 + a
    probe = (5 * n + a + 1) + (4 * n + a + 1) + 4 * centres + 3 * centres * 16 // 15
    image = n + (3 * n + a + 1) + 2 * (2 * n + a + 1) + 3 * (2 * n + a + 1) * 16 // 15
    tracemalloc.start()
    try:
        fwd, inv = conjugacy_witness(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fwd.block_length == inv.block_length == 1 and n == p + q
    assert peak < max(probe, image), (peak, probe, image)


# --- codes through JSON ---------------------------------------------------------

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


def _wide_links_257_and_65537():
    return [link for size in (257, 65537) for link in _wide_links(SIZED[size])]


def _assert_round_trips(code):
    parsed = jsonio.parse_code(json.loads(json.dumps(jsonio.emit_code(code))))
    assert parsed == code and hash(parsed) == hash(code), code
    assert parsed.entries == code.entries


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
    codes = [code for code, _ in _wide_links(SIZED[size])]
    assert [code.memory for code in codes] == [0, 0, 1, 1, 0, 0, 0]
    for code in codes:
        _assert_round_trips(code)


def test_a_1_block_witness_onto_256_symbols_holds_a_tuple_past_the_bytes_probe():
    # a relabelling s -> 255 - s probed over 42 centres, by the bytes route:
    # the code holds a tuple, as a byte table would read the output 255 as
    # an unmapped id
    a = SIZED[256]
    x = make_ep(Word(tuple(range(40)), a), Word((40,), a))
    y = make_ep(Word(tuple(255 - s for s in range(40)), a), Word((215,), a))
    fwd, inv = conjugacy_witness(x, y)
    assert (fwd.block_length, inv.block_length) == (1, 1)
    f, g = dict(fwd.entries), dict(inv.entries)
    assert (f[(0,)], f[(40,)], g[(255,)], g[(215,)]) == (255, 215, 0, 40)
    assert fwd.read(packed((0, 40, 0), a)) == packed((255, 215, 255), a)
    assert similar(apply_code(fwd, x), y) and similar(apply_code(inv, y), x)
    for code in (fwd, inv):
        _assert_round_trips(code)


# --- the image scan on every code verify builds ----------------------------------

def test_one_read_image_scan_matches_the_two_read_construction(capped_8_links):
    # every code verify builds at --max-period-sum 8, and codes over 257 and
    # 65537 symbols, scan the image their rows define
    links = capped_8_links + _wide_links_257_and_65537()
    for code, x in dict.fromkeys(links):
        assert _scan_outcome(code, x) == _scan_by_definition(code, x), (code, x)
    # criterion 5's searched inverses reach radius 9; 1-block codes lie on
    # both sides of the byte path's bounds
    assert max(code.memory for code, _ in links) == 9
    assert {len(code.source_alphabet) <= 256 and len(code.target_alphabet) <= 255
            for code, _ in links if code.block_length == 1} == {True, False}


def test_one_read_image_scan_names_the_missing_block_the_two_reads_named(capped_8_links):
    # check-witness trails name the first block missing from a code's table:
    # a block of the periodic orbit (phases 0 ... N-1 first), else one of the span
    checked = 0
    for code, x in capped_8_links[::5] + _wide_links_257_and_65537():
        orbit, span = _blocks_read(code, x)
        order = list(dict.fromkeys(orbit + span))
        orbit, span = order[:len(set(orbit))], order[len(set(orbit)):]
        dropped = [[orbit[-1]], [orbit[0], orbit[-1]]]
        if span:
            dropped += [[span[0]], [span[-1], orbit[-1]]]
        for missing in dropped:
            kept = tuple(row for row in code.entries if row[0] not in missing)
            if not kept:
                continue
            partial = SlidingBlockCode(code.memory, code.anticipation, kept,
                                       code.source_alphabet, code.target_alphabet)
            first = min(missing, key=order.index)
            got = _scan_outcome(partial, x)
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
