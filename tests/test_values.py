"""The shared frozen-value base class, `words.Value`.

Every value class of the package derives from it and must behave as the
frozen records it replaced: the same construction, equality, hash and
repr, and no mutation.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import epshift
from epshift.bezout import BezoutPair, restricted_bezout
from epshift.sequences import AnomalyWindow, make_ep
from epshift.sturmian import TYPE_S, CellSeries, Frequency, SturmianSpec
from epshift.words import BINARY, Alphabet, Value, Word, word


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
    assert CellSeries(4).cells == () and CellSeries(n_lo=4) == CellSeries(4, ())


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
    assert repr(CellSeries(3)) == "CellSeries(n_lo=3, cells=())"
    assert repr(CellSeries(0, (word("10"),))) == "CellSeries(n_lo=0, cells=(Word('10'),))"
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
