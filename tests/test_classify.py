import pytest

from epshift import classify
from epshift.classify import (
    ConjugacyMove,
    ExpandMove,
    FlowWitness,
    SlidingBlockCode,
    _raise_anomaly_moves,
    _raise_period_moves,
    apply_code,
    apply_code_to_periodic,
    check_conjugacy,
    composition_shift_offset,
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
    InternalMismatch,
    MissingBlock,
    NotConjugate,
    SymbolAbsent,
)
from epshift.sequences import (
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
from epshift.words import Alphabet, BINARY, rotate, word


def ep(w, v):
    return make_ep(word(w), word(v))


def skew(stype, q, p):
    return skew_sturmian(SturmianSpec(Frequency.rational(q, p), stype))


def swap_code():
    return SlidingBlockCode(0, 0, (((0,), 1), ((1,), 0)), BINARY, BINARY)


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
    assert composition_shift_offset(fwd, inv, x) == 0


def test_witness_between_reciprocal_types():
    x, y = skew(TYPE_S, 1, 1), skew(TYPE_SPRIME, 1, 1)
    fwd, inv = conjugacy_witness(x, y)
    assert similar(apply_code(fwd, x), y)
    assert similar(apply_code(inv, y), x)
    # the one-block symbol swap is also a witness here
    sw = swap_code()
    assert similar(apply_code(sw, x), y)
    assert composition_shift_offset(sw, sw, x) == 0


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


def test_check_conjugacy_rejects_each_sabotage(monkeypatch):
    x, y = skew(TYPE_S, 1, 2), skew(TYPE_SPRIME, 2, 1)
    fwd, inv = conjugacy_witness(x, y)
    assert check_conjugacy(x, y, fwd, inv, [])
    ident = identity_code(BINARY)
    # the identity maps each sequence to itself, not onto a shift of the other
    for f, i, reason in (
        (ident, inv, "forward image not similar to target"),
        (fwd, ident, "inverse image not similar to source"),
    ):
        trail = []
        assert not check_conjugacy(x, y, f, i, trail)
        assert trail == [reason]
    # codes commute with the shift, so inv∘fwd acts as a shift whenever both
    # images are similar; only a failed shift search reaches the third reason
    monkeypatch.setattr(classify, "composition_shift_offset", lambda f, i, s: None)
    trail = []
    assert not check_conjugacy(x, y, fwd, inv, trail)
    assert trail == ["composition is not a shift"]


def test_conjugacy_witness_raises_when_its_check_fails(monkeypatch):
    x, y = skew(TYPE_S, 1, 2), skew(TYPE_SPRIME, 2, 1)

    def failing_check(x, y, fwd, inv, trail):
        trail.append("composition is not a shift")
        return False

    monkeypatch.setattr(classify, "check_conjugacy", failing_check)
    with pytest.raises(InternalMismatch, match="composition is not a shift"):
        conjugacy_witness(x, y)


def test_witness_preserves_periodic_orbit():
    x, y = skew(TYPE_S, 1, 2), skew(TYPE_SPRIME, 2, 1)
    fwd, _ = conjugacy_witness(x, y)
    img = apply_code_to_periodic(fwd, remove_anomaly(x))
    target = remove_anomaly(y)
    assert img.least_period == target.least_period == least_period(x)
    assert any(
        rotate(target.period_word, k) == img.period_word
        for k in range(target.least_period)
    )


# --- code application --------------------------------------------------------

def test_apply_identity_and_swap():
    x = skew(TYPE_S, 2, 3)
    assert apply_code(identity_code(BINARY), x) == x
    assert apply_code(swap_code(), x) == symbol_reverse(x)


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
        assert composition_shift_offset(fwd, inv, x) is not None


def test_apply_code_missing_block():
    partial = SlidingBlockCode(0, 0, (((0,), 0),), BINARY, BINARY)
    with pytest.raises(MissingBlock):
        apply_code(partial, ep("0", "1"))


def test_apply_code_degenerate_image():
    constant = SlidingBlockCode(0, 0, (((0,), 0), ((1,), 0)), BINARY, BINARY)
    with pytest.raises(DegenerateImage):
        apply_code(constant, ep("0", "1"))


# --- symbol expansion --------------------------------------------------------

def test_expand_symbol_examples():
    x, fresh = expand_symbol(ep("0", "11"), "1")
    assert x.period_word.labels() == ("0",)
    assert x.anomaly.labels() == ("1", fresh, "1", fresh)

    y, fresh_y = expand_symbol(ep("10", "1"), "0")
    assert y.period_word.labels() == ("1", "0", fresh_y)
    assert y.anomaly.labels() == ("1",)


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
    y = _raise_period_moves(ep("0", "11"))[1]
    assert (least_period(y), anomaly_size(y)) == (2, 2)
    z = _raise_period_moves(skew(TYPE_S, 1, 1))[1]
    assert (least_period(z), anomaly_size(z)) == (3, 1)
    for x in (ep("0", "1"), ep("110", "1"), skew(TYPE_SPRIME, 1, 2)):
        assert least_period(_raise_period_moves(x)[1]) == least_period(x) + 1
        assert anomaly_size(_raise_period_moves(x)[1]) == anomaly_size(x)


def test_raise_anomaly_examples():
    y = _raise_anomaly_moves(ep("0", "1"))[1]
    assert (least_period(y), anomaly_size(y)) == (1, 2)
    z = _raise_anomaly_moves(skew(TYPE_S, 1, 2))[1]
    assert (least_period(z), anomaly_size(z)) == (3, 2)
    for x in (ep("0", "11"), ep("10", "1")):
        assert least_period(_raise_anomaly_moves(x)[1]) == least_period(x)
        assert anomaly_size(_raise_anomaly_moves(x)[1]) == anomaly_size(x) + 1


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
            m = ExpandMove(m.symbol, "0", m.result)   # "0" is already a symbol
        tampered_moves.append(m)
    bad = FlowWitness(w.chain_x, tuple(tampered_moves), w.final_forward, w.final_inverse)
    trail = []
    assert not verify_flow_witness(x, y, bad, trail)
    assert any("fresh" in t for t in trail)


def test_flow_witness_rejects_non_inverse_final_codes():
    x, y = skew(TYPE_S, 1, 2), skew(TYPE_SPRIME, 2, 1)
    w = flow_witness(x, y)
    assert w.chain_x == () and w.chain_y == ()
    # an identity "inverse" maps y to itself, which is not similar to x
    sabotage = FlowWitness(w.chain_x, w.chain_y, w.final_forward, identity_code(BINARY))
    trail = []
    assert not verify_flow_witness(x, y, sabotage, trail)
    assert any("inverse" in t or "mutually" in t for t in trail)


def test_flow_witness_rejects_factor_map_move(forged_factor_witness):
    x, y, forged = forged_factor_witness
    assert y == ep("0", "11") and least_period(y) == 1
    trail = []
    assert not verify_flow_witness(x, y, forged, trail)
    assert trail == ["chain_x[0]: conjugacy move changes the invariants"]


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
