"""Version-tagged JSON formats for sequences, codes and witnesses.

All emitters are deterministic (sorted code tables, explicit alphabets) so
witnesses serialize reproducibly, and parse(emit(v)) == v for every value
the library produces in a format that has a parser.  ``perseq/1`` is
output only: it writes a PeriodicSeq with ``"phase": 0``, the value's one
normal form.  A value whose format tag is right but whose keys are missing
or of the wrong type raises MalformedInput.  `parse_flow_witness` reads
every witness format, a `conjugacy/1` pair as the witness with no moves
and two final links.  Such a chainless two-link witness has no
`flowwitness/3` emitter: `emit_conjugacy` writes its pair.
"""

from __future__ import annotations

from typing import Any

from .classify import (
    BACKWARD,
    DIRECTIONS,
    FORWARD,
    ConjugacyMove,
    ExpandMove,
    FlowMove,
    FlowWitness,
    SlidingBlockCode,
)
from .errors import MalformedInput
from .sequences import EPSeq, PeriodicSeq, make_ep
from .words import Alphabet, Word, word

EPSEQ_FORMAT = "epseq/1"
PERSEQ_FORMAT = "perseq/1"
CODE_FORMAT = "sbc/1"
CONJUGACY_FORMAT = "conjugacy/1"
FLOW_FORMAT = "flowwitness/3"
FLOW_FORMAT_UNIT = "flowwitness/1"
# /2 and /1 are still read: no directions and a final code pair, and in /1
# an expand move's "fresh" is one label
FLOW_FORMATS = (FLOW_FORMAT, "flowwitness/2", FLOW_FORMAT_UNIT)


def _expect(obj: Any, fmt: str) -> dict:
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object for {fmt}, got {type(obj).__name__}")
    got = obj.get("format")
    if got != fmt:
        raise ValueError(f"expected format {fmt!r}, got {got!r}")
    return obj


def _field(d: dict, key: str, fmt: str, kind: type = object) -> Any:
    """d[key], which must be present and an instance of `kind`."""
    if key not in d:
        raise MalformedInput(f"{fmt} value has no {key!r} key")
    value = d[key]
    # bool subclasses int, but a JSON true or false is not a number
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise MalformedInput(
            f"{fmt} key {key!r} must be a {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _alphabet(d: dict, key: str, fmt: str) -> Alphabet:
    labels = _field(d, key, fmt, list)
    if not all(isinstance(lbl, str) for lbl in labels):
        raise MalformedInput(f"{fmt} key {key!r} must be a list of strings")
    return Alphabet(tuple(labels))


def emit_epseq(x: EPSeq) -> dict:
    return {
        "format": EPSEQ_FORMAT,
        "alphabet": list(x.alphabet.labels),
        "period": x.period_word.text,
        "anomaly": x.anomaly.text,
    }


def parse_epseq(obj: Any) -> EPSeq:
    d = _expect(obj, EPSEQ_FORMAT)
    alphabet = _alphabet(d, "alphabet", EPSEQ_FORMAT)
    period = _field(d, "period", EPSEQ_FORMAT, str)
    anomaly = _field(d, "anomaly", EPSEQ_FORMAT, str)
    return make_ep(word(period, alphabet), word(anomaly, alphabet))


def emit_perseq(p: PeriodicSeq) -> dict:
    return {
        "format": PERSEQ_FORMAT,
        "alphabet": list(p.period_word.alphabet.labels),
        "period": p.period_word.text,
        "phase": 0,
    }


def emit_code(c: SlidingBlockCode) -> dict:
    src, dst = c.source_alphabet, c.target_alphabet
    rows = [
        [Word._trusted(block, src).text, dst.labels[out]]
        for block, out in c.entries
    ]
    return {
        "format": CODE_FORMAT,
        "memory": c.memory,
        "anticipation": c.anticipation,
        "source_alphabet": list(src.labels),
        "target_alphabet": list(dst.labels),
        "table": rows,
    }


def parse_code(obj: Any) -> SlidingBlockCode:
    d = _expect(obj, CODE_FORMAT)
    src = _alphabet(d, "source_alphabet", CODE_FORMAT)
    dst = _alphabet(d, "target_alphabet", CODE_FORMAT)
    table = _field(d, "table", CODE_FORMAT, list)
    if not all(isinstance(row, list) and len(row) == 2
               and all(isinstance(cell, str) for cell in row) for row in table):
        raise MalformedInput(f"{CODE_FORMAT} table rows must be [block, symbol] string pairs")
    entries = tuple(sorted((word(block, src).symbols, dst.index(out)) for block, out in table))
    memory = _field(d, "memory", CODE_FORMAT, int)
    anticipation = _field(d, "anticipation", CODE_FORMAT, int)
    return SlidingBlockCode(memory, anticipation, entries, src, dst)


def emit_conjugacy(fwd: SlidingBlockCode, inv: SlidingBlockCode) -> dict:
    return {
        "format": CONJUGACY_FORMAT,
        "forward": emit_code(fwd),
        "inverse": emit_code(inv),
    }


def parse_conjugacy(obj: Any) -> tuple[SlidingBlockCode, SlidingBlockCode]:
    d = _expect(obj, CONJUGACY_FORMAT)
    return (parse_code(_field(d, "forward", CONJUGACY_FORMAT)),
            parse_code(_field(d, "inverse", CONJUGACY_FORMAT)))


def _direction(d: dict, what: str) -> str:
    direction = _field(d, "direction", what, str)
    if direction not in DIRECTIONS:
        raise MalformedInput(f"{what} key 'direction' must be one of {DIRECTIONS}, "
                             f"got {direction!r}")
    return direction


def _emit_move(m: FlowMove) -> dict:
    if isinstance(m, ConjugacyMove):
        return {"kind": "conjugacy", "direction": m.direction, "code": emit_code(m.code),
                "result": emit_epseq(m.result)}
    if isinstance(m, ExpandMove):
        return {
            "kind": "expand",
            "symbol": m.symbol,
            "fresh": list(m.fresh),
            "result": emit_epseq(m.result),
        }
    raise ValueError(f"unknown move type {type(m).__name__}")


def _parse_move(obj: Any, fmt: str) -> FlowMove:
    if not isinstance(obj, dict):
        raise MalformedInput(f"a flow move must be a JSON object, got {type(obj).__name__}")
    kind = _field(obj, "kind", "flow move")
    what = f"{kind} move"
    if kind == "conjugacy":
        return ConjugacyMove(parse_code(_field(obj, "code", what)),
                             parse_epseq(_field(obj, "result", what)),
                             _direction(obj, what) if fmt == FLOW_FORMAT else FORWARD)
    if kind == "expand":
        fresh = _field(obj, "fresh", what, str if fmt == FLOW_FORMAT_UNIT else list)
        fresh = (fresh,) if isinstance(fresh, str) else tuple(fresh)
        if not fresh or not all(isinstance(f, str) for f in fresh):
            raise MalformedInput(f"{what} key 'fresh' must be a non-empty list of strings")
        return ExpandMove(_field(obj, "symbol", what, str), fresh,
                          parse_epseq(_field(obj, "result", what)))
    raise ValueError(f"unknown move kind {kind!r}")


def emit_flow_witness(w: FlowWitness) -> dict:
    """The `flowwitness/3` value of a witness with one final link."""
    if len(w.final) != 1:
        raise ValueError(f"{FLOW_FORMAT} holds one final code, the witness has {len(w.final)}")
    (code, direction), = w.final
    return {
        "format": FLOW_FORMAT,
        "chain_x": [_emit_move(m) for m in w.chain_x],
        "chain_y": [_emit_move(m) for m in w.chain_y],
        "final": {"direction": direction, "code": emit_code(code)},
    }


def parse_flow_witness(obj: Any) -> FlowWitness:
    """The witness in a value of any witness format.  A `conjugacy/1` pair
    (fwd, inv) is the one with no moves and links (fwd, FORWARD), (inv, BACKWARD)."""
    fmt = obj.get("format") if isinstance(obj, dict) else None
    if fmt == CONJUGACY_FORMAT:
        fwd, inv = parse_conjugacy(obj)
        return FlowWitness((), (), ((fwd, FORWARD), (inv, BACKWARD)))
    if fmt not in FLOW_FORMATS:
        raise ValueError(f"unrecognized witness format {fmt!r}")
    chain_x, chain_y = (tuple(_parse_move(m, fmt) for m in _field(obj, key, fmt, list))
                        for key in ("chain_x", "chain_y"))
    if fmt != FLOW_FORMAT:
        return FlowWitness(chain_x, chain_y,
                           ((parse_code(_field(obj, "final_forward", fmt)), FORWARD),
                            (parse_code(_field(obj, "final_inverse", fmt)), BACKWARD)))
    final = _field(obj, "final", fmt, dict)
    return FlowWitness(chain_x, chain_y, ((parse_code(_field(final, "code", "final link")),
                                           _direction(final, "final link")),))
