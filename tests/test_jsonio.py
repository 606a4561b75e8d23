import json

import pytest

from epshift import jsonio
from epshift.errors import MalformedInput
from epshift.classify import conjugacy_witness, flow_witness, identity_code
from epshift.sequences import PeriodicSeq, make_ep, remove_anomaly
from epshift.sturmian import Frequency, SturmianSpec, TYPE_S, TYPE_SPRIME, skew_sturmian
from epshift.words import Alphabet, word


def ep(w, v):
    return make_ep(word(w), word(v))


def skew(stype, q, p):
    return skew_sturmian(SturmianSpec(Frequency.rational(q, p), stype))


def test_epseq_round_trip():
    for x in (ep("110", "1"), ep("0", "11"), skew(TYPE_S, 2, 3)):
        obj = jsonio.emit_epseq(x)
        assert obj["format"] == "epseq/1"
        assert jsonio.parse_epseq(json.loads(json.dumps(obj))) == x


def test_epseq_round_trip_with_minted_symbols():
    from epshift.classify import expand_symbol

    x, _ = expand_symbol(ep("0", "11"), "1")
    assert jsonio.parse_epseq(jsonio.emit_epseq(x)) == x


def test_epseq_spec_shape():
    obj = jsonio.emit_epseq(ep("110", "1"))
    assert obj == {"format": "epseq/1", "alphabet": ["0", "1"],
                   "period": "110", "anomaly": "1"}


def test_perseq_round_trip():
    p = remove_anomaly(ep("110", "1"))
    obj = jsonio.emit_perseq(p)
    assert obj["format"] == "perseq/1"
    assert jsonio.parse_perseq(obj) == p
    # the alphabet key may be omitted; it is then inferred from the period
    bare = {"format": "perseq/1", "period": "110", "phase": 2}
    q = jsonio.parse_perseq(bare)
    assert isinstance(q, PeriodicSeq) and q.phase == 2


def test_perseq_normalizes_on_parse():
    obj = {"format": "perseq/1", "alphabet": ["0", "1"], "period": "0101", "phase": 3}
    p = jsonio.parse_perseq(obj)
    assert p.period_word.text == "01" and p.phase == 1


def test_code_round_trip():
    x, y = skew(TYPE_S, 1, 1), skew(TYPE_SPRIME, 1, 1)
    fwd, inv = conjugacy_witness(x, y)
    for code in (fwd, inv, identity_code(x.alphabet)):
        assert jsonio.parse_code(jsonio.emit_code(code)) == code
    obj = jsonio.emit_conjugacy(fwd, inv)
    assert jsonio.parse_conjugacy(obj) == (fwd, inv)


def test_flow_witness_round_trip():
    x, y = skew(TYPE_S, 1, 1), ep("0", "1")
    w = flow_witness(x, y)
    obj = json.loads(json.dumps(jsonio.emit_flow_witness(w)))
    assert jsonio.parse_flow_witness(obj) == w


def test_multichar_labels_use_bracket_syntax():
    a = Alphabet(("0", "1", "x0'"))
    x = make_ep(word("0", a), word("[1,x0']", a))
    obj = jsonio.emit_epseq(x)
    assert obj["anomaly"] == "[1,x0']"
    assert jsonio.parse_epseq(obj) == x


def test_code_with_empty_table_is_rejected():
    # an empty table would let the declared memory size the replay buffer
    obj = {"format": "sbc/1", "memory": 10**7, "anticipation": 0,
           "source_alphabet": ["0", "1"], "target_alphabet": ["0", "1"], "table": []}
    with pytest.raises(ValueError, match="empty"):
        jsonio.parse_code(obj)


def test_format_tag_is_checked():
    with pytest.raises(ValueError):
        jsonio.parse_epseq({"format": "epseq/2", "alphabet": ["0"], "period": "0", "anomaly": "0"})
    with pytest.raises(ValueError):
        jsonio.parse_perseq(["not", "an", "object"])


def test_missing_keys_and_wrong_types_raise_malformed_input():
    bad = [
        (jsonio.parse_epseq, {"format": "epseq/1"}),
        (jsonio.parse_epseq, {"format": "epseq/1", "alphabet": "01", "period": "0", "anomaly": "1"}),
        (jsonio.parse_epseq, {"format": "epseq/1", "alphabet": [0, 1], "period": "0", "anomaly": "1"}),
        (jsonio.parse_epseq, {"format": "epseq/1", "alphabet": ["0", "1"], "period": "0", "anomaly": 1}),
        (jsonio.parse_perseq, {"format": "perseq/1", "alphabet": ["0"]}),
        (jsonio.parse_code, {"format": "sbc/1", "memory": 0, "anticipation": 0}),
        (jsonio.parse_code, {"format": "sbc/1", "memory": 0, "anticipation": 0,
                             "source_alphabet": ["0"], "target_alphabet": ["0"], "table": [[0, "0"]]}),
        (jsonio.parse_code, {"format": "sbc/1", "memory": None, "anticipation": 0,
                             "source_alphabet": ["0"], "target_alphabet": ["0"], "table": []}),
        (jsonio.parse_conjugacy, {"format": "conjugacy/1"}),
        (jsonio.parse_flow_witness, {"format": "flowwitness/1", "chain_x": [], "chain_y": [{}]}),
    ]
    for parse, obj in bad:
        with pytest.raises(MalformedInput):
            parse(obj)
