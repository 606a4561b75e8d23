import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epshift import jsonio
from epshift.errors import InputError, MalformedInput
from epshift.classify import (
    BACKWARD,
    FORWARD,
    ConjugacyMove,
    FlowWitness,
    conjugacy_witness,
    flow_witness,
    identity_code,
)
from epshift.sequences import make_ep, remove_anomaly
from epshift.sturmian import Frequency, SturmianSpec, TYPE_S, TYPE_SPRIME, skew_sturmian
from epshift.words import BINARY, Alphabet, word


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
        (jsonio.parse_flow_witness, {"format": "flowwitness/2", "chain_x": [], "chain_y": [{}]}),
        (jsonio.parse_flow_witness, {"format": "flowwitness/3", "chain_x": [], "chain_y": []}),
        (jsonio.parse_flow_witness, {"format": "flowwitness/3", "chain_x": [], "chain_y": [],
                                     "final": {"code": jsonio.emit_code(identity_code(
                                         Alphabet(("0",))))}}),
        (jsonio.parse_flow_witness, {"format": "flowwitness/3", "chain_x": [], "chain_y": [],
                                     "final": []}),
    ]
    for parse, obj in bad:
        with pytest.raises(MalformedInput):
            parse(obj)


def _as_format(w, fmt):
    """The flowwitness/3 value w in a read-only format: no directions, and
    the final code given as both codes of the pair."""
    code = w["final"]["code"]
    return {"format": fmt, "final_forward": code, "final_inverse": code,
            "chain_x": w["chain_x"],
            "chain_y": [{k: v for k, v in m.items() if k != "direction"} for m in w["chain_y"]]}


def test_expand_move_fresh_labels_are_typed_per_format():
    # flowwitness/3 and /2: a non-empty list of strings; flowwitness/1: one string
    w = jsonio.emit_flow_witness(flow_witness(skew(TYPE_S, 1, 1), ep("0", "1")))
    conj, expand = w["chain_y"]
    assert expand["kind"] == "expand" and expand["fresh"] == ["x2'"]
    parsed = jsonio.parse_flow_witness(w)
    unit = _as_format(w, "flowwitness/1")
    unit["chain_y"][1] = {**expand, "fresh": "x2'"}
    for old in (unit, _as_format(w, "flowwitness/2")):
        again = jsonio.parse_flow_witness(old)
        assert again.chain_y[1] == parsed.chain_y[1]
        assert again.chain_y[0] == ConjugacyMove(parsed.chain_y[0].code, parsed.chain_y[0].result)
        assert again.final == ((parsed.final[0][0], FORWARD), (parsed.final[0][0], BACKWARD))
    for fmt, fresh in (("flowwitness/3", "x2'"), ("flowwitness/3", []),
                       ("flowwitness/3", ["x2'", 1]), ("flowwitness/2", "x2'"),
                       ("flowwitness/2", []), ("flowwitness/2", ["x2'", 1]),
                       ("flowwitness/2", [None]), ("flowwitness/2", None),
                       ("flowwitness/1", ["x2'"]), ("flowwitness/1", 1)):
        bad = w if fmt == "flowwitness/3" else _as_format(w, fmt)
        bad = {**bad, "chain_y": [bad["chain_y"][0], {**expand, "fresh": fresh}]}
        with pytest.raises(MalformedInput, match="fresh"):
            jsonio.parse_flow_witness(bad)


def test_directions_are_read_from_flowwitness_3_only():
    w = jsonio.emit_flow_witness(flow_witness(skew(TYPE_S, 1, 1), ep("0", "1")))
    # only y is raised, so the final code runs from its marked end
    assert w["chain_y"][0]["direction"] == "backward" and w["final"]["direction"] == "backward"
    assert "direction" not in w["chain_y"][1]
    for direction in ("sideways", "Forward", "", None, 0, True, ["forward"], {}):
        for pick in (lambda v: v["chain_y"][0], lambda v: v["final"]):
            bad = json.loads(json.dumps(w))
            pick(bad)["direction"] = direction
            with pytest.raises(MalformedInput, match="direction"):
                jsonio.parse_flow_witness(bad)
    # a flowwitness/2 value holds no directions, and one given is not read
    pair = _as_format(w, "flowwitness/2")
    pair["chain_y"][0]["direction"] = "sideways"
    assert jsonio.parse_flow_witness(pair).chain_y[0].direction == FORWARD


def test_emit_writes_a_witness_with_one_final_code_only():
    pair = jsonio.parse_flow_witness(_as_format(
        jsonio.emit_flow_witness(flow_witness(skew(TYPE_S, 1, 1), ep("0", "1"))), "flowwitness/2"))
    with pytest.raises(ValueError, match="one final code"):
        jsonio.emit_flow_witness(pair)


def test_a_conjugacy_value_reads_as_the_flow_witness_with_no_moves():
    path = Path(__file__).parent / "data" / "conjugacy_S1-2_Sprime2-1.json"
    obj = json.loads(path.read_text())
    fwd, inv = jsonio.parse_conjugacy(obj)
    w = jsonio.parse_flow_witness(obj)
    assert w == FlowWitness((), (), ((fwd, FORWARD), (inv, BACKWARD)))
    # flowwitness/3 holds one final link; the pair is written as conjugacy/1
    with pytest.raises(ValueError, match="one final code"):
        jsonio.emit_flow_witness(w)
    assert jsonio.emit_conjugacy(fwd, inv) == obj


# --- hostile JSON values -------------------------------------------------------

FORMATS = ("epseq/1", "sbc/1", "conjugacy/1", "flowwitness/1", "flowwitness/2", "flowwitness/3")
KEYS = ("format", "alphabet", "period", "anomaly", "memory", "anticipation", "source_alphabet",
        "target_alphabet", "table", "forward", "inverse", "chain_x", "chain_y", "final_forward",
        "final_inverse", "final", "direction", "kind", "code", "result", "symbol", "fresh")
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text("01ab[],x'", max_size=5)
    | st.sampled_from(FORMATS + ("conjugacy", "expand", "forward", "backward")),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=4), inner,
                                     max_size=6)),
    max_leaves=12,
)
TAGGED = st.builds(lambda fmt, rest: {**rest, "format": fmt}, st.sampled_from(FORMATS),
                   st.dictionaries(st.sampled_from(KEYS), JSON_VALUES, max_size=6))
_fw = flow_witness(skew(TYPE_S, 1, 1), ep("0", "1"))
VALID = (jsonio.emit_epseq(ep("01", "1")), jsonio.emit_code(_fw.chain_y[0].code),
         jsonio.emit_conjugacy(*conjugacy_witness(skew(TYPE_S, 1, 2), skew(TYPE_SPRIME, 2, 1))),
         jsonio.emit_flow_witness(_fw))


DELETE = object()


def _nodes(obj, path=()):
    """The path of every node of a JSON value, the root's () first."""
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for k, v in items:
        yield from _nodes(v, path + (k,))


def _changed(obj, path, new):
    """obj with the node at `path` replaced by `new`, or deleted if new is DELETE."""
    if not path:
        return new
    copy = dict(obj) if isinstance(obj, dict) else list(obj)
    if len(path) == 1 and new is DELETE:
        del copy[path[0]]
    else:
        copy[path[0]] = _changed(obj[path[0]], path[1:], new)
    return copy


NODES = [(v, p) for v in VALID for p in _nodes(v) if p]


def _parses_or_raises_an_input_error(obj):
    for parse in (jsonio.parse_epseq, jsonio.parse_code, jsonio.parse_conjugacy,
                  jsonio.parse_flow_witness):
        try:
            parse(obj)
        except (InputError, ValueError):
            pass


@settings(max_examples=150, deadline=None, derandomize=True)
@given(JSON_VALUES | TAGGED)
def test_any_json_value_parses_or_raises_an_input_error(obj):
    _parses_or_raises_an_input_error(obj)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(JSON_VALUES)
def test_an_emitted_value_with_one_node_changed_parses_or_raises_an_input_error(new):
    # each node of each valid value in turn, deleted or replaced by `new`
    for value, path in NODES:
        for repl in (DELETE, new):
            _parses_or_raises_an_input_error(_changed(value, path, repl))


def test_a_move_of_an_unknown_type_is_not_emitted():
    ident = identity_code(BINARY)
    wit = FlowWitness((ident,), (), ((ident, FORWARD),))
    with pytest.raises(ValueError, match=r"^unknown move type SlidingBlockCode$"):
        jsonio.emit_flow_witness(wit)
