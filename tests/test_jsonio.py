import json

import pytest

from epshift import jsonio
from epshift.errors import MalformedInput
from epshift.classify import conjugacy_witness, flow_witness, identity_code
from epshift.sequences import make_ep, remove_anomaly
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


def test_perseq_emit_shape():
    obj = jsonio.emit_perseq(remove_anomaly(ep("110", "1")))
    assert obj == {"format": "perseq/1", "alphabet": ["0", "1"],
                   "period": "110", "phase": 0}


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


def test_labels_that_break_word_literals_are_rejected():
    # with "a,b" a label, the period word "[a,b]" of one symbol would parse
    # back as the two symbols a and b (least period 2 instead of 1)
    for alphabet, period in ((["a,b", "a", "b"], "[a,b]"), (["[", "]"], "[]")):
        obj = {"format": "epseq/1", "alphabet": alphabet, "period": period, "anomaly": "[a]"}
        with pytest.raises(ValueError, match="label"):
            jsonio.parse_epseq(obj)


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
        jsonio.parse_epseq(["not", "an", "object"])


def test_missing_keys_and_wrong_types_raise_malformed_input():
    bad = [
        (jsonio.parse_epseq, {"format": "epseq/1"}),
        (jsonio.parse_epseq, {"format": "epseq/1", "alphabet": "01", "period": "0", "anomaly": "1"}),
        (jsonio.parse_epseq, {"format": "epseq/1", "alphabet": [0, 1], "period": "0", "anomaly": "1"}),
        (jsonio.parse_epseq, {"format": "epseq/1", "alphabet": ["0", "1"], "period": "0", "anomaly": 1}),
        (jsonio.parse_code, {"format": "sbc/1", "memory": 0, "anticipation": 0}),
        (jsonio.parse_code, {"format": "sbc/1", "memory": 0, "anticipation": 0,
                             "source_alphabet": ["0"], "target_alphabet": ["0"], "table": [[0, "0"]]}),
        (jsonio.parse_code, {"format": "sbc/1", "memory": None, "anticipation": 0,
                             "source_alphabet": ["0"], "target_alphabet": ["0"], "table": []}),
        (jsonio.parse_code, {"format": "sbc/1", "memory": True, "anticipation": 0,
                             "source_alphabet": ["0"], "target_alphabet": ["0"],
                             "table": [["00", "0"]]}),
        (jsonio.parse_code, {"format": "sbc/1", "memory": 0, "anticipation": False,
                             "source_alphabet": ["0"], "target_alphabet": ["0"],
                             "table": [["0", "0"]]}),
        (jsonio.parse_conjugacy, {"format": "conjugacy/1"}),
        (jsonio.parse_flow_witness, {"format": "flowwitness/1", "chain_x": [], "chain_y": [{}]}),
    ]
    for parse, obj in bad:
        with pytest.raises(MalformedInput):
            parse(obj)
