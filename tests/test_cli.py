import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epshift import cli, errors, jsonio, sturmian
from epshift.classify import identity_code
from epshift.cli import main
from epshift.sequences import make_ep, shift
from epshift.sturmian import Frequency, SturmianSpec, TYPE_S, TYPE_SPRIME, skew_sturmian
from epshift.verify import VerifyReport
from epshift.words import BINARY, word


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def write_ep(path, x):
    path.write_text(json.dumps(jsonio.emit_epseq(x)))
    return str(path)


def test_bezout_success(capsys):
    code, obj = run(capsys, "bezout", "2", "5")
    assert code == 0
    assert obj == {"a": 1, "b": 3, "check": "b*q-a*p=1"}
    code, obj = run(capsys, "bezout", "1", "1")
    assert code == 0 and obj["a"] == 0 and obj["b"] == 1


def test_bezout_not_coprime_exits_2(capsys):
    code, obj = run(capsys, "bezout", "2", "4")
    assert code == 2
    assert obj["error"]["kind"] == "NotCoprime"


def test_sturmian_gen_epseq(capsys):
    code, obj = run(capsys, "sturmian", "gen", "--freq", "1/1", "--type", "S")
    assert code == 0
    assert obj["format"] == "epseq/1"
    assert obj["anomaly"] == "1" and sorted(obj["period"]) == ["0", "1"]

    code, obj = run(capsys, "sturmian", "gen", "--freq", "inf", "--type", "S")
    assert code == 0
    assert obj["period"] == "0" and obj["anomaly"] == "1"


def test_sturmian_gen_invalid_spec(capsys):
    code, obj = run(capsys, "sturmian", "gen", "--freq", "0", "--type", "S")
    assert code == 2
    assert obj["error"]["kind"] == "InvalidSpec"


@pytest.mark.parametrize("freq", ["a/b", "1/2/3"])
def test_sturmian_gen_malformed_freq_names_the_option_and_form(capsys, freq):
    code, obj = run(capsys, "sturmian", "gen", "--freq", freq, "--type", "S")
    assert (code, obj["error"]["kind"]) == (2, "InvalidSpec")
    message = obj["error"]["message"]
    assert "--freq" in message and "q/p" in message and repr(freq) in message


def test_sturmian_gen_cells_and_symbols(capsys):
    code, cells = run(capsys, "sturmian", "gen", "--freq", "1/1", "--type", "S",
                      "--emit", "cells", "--cells", "2")
    assert code == 0
    assert cells == ["10", "10", "1", "10", "10"]
    code, symbols = run(capsys, "sturmian", "gen", "--freq", "1/1", "--type", "S",
                        "--emit", "symbols", "--cells", "2")
    assert code == 0
    assert symbols == "101011010"


@pytest.mark.parametrize("emit", ["cells", "symbols"])
def test_sturmian_gen_rejects_a_negative_cell_count(capsys, emit):
    code = main(["sturmian", "gen", "--freq", "1/2", "--type", "S", "--emit", emit,
                 "--cells", "-3"])
    captured = capsys.readouterr()
    err = json.loads(captured.out)["error"]
    assert (code, err["kind"]) == (2, "InputError")
    assert "--cells" in err["message"] and ">= 0" in err["message"]
    assert captured.err.startswith("usage: epshift")
    code = main(["sturmian", "gen", "--freq", "1/1", "--type", "S", "--emit", emit,
                 "--cells", "x"])
    err = json.loads(capsys.readouterr().out)["error"]
    assert (code, err["kind"]) == (2, "InputError")
    assert err["message"].endswith("argument --cells: must be a count of cells >= 0, got x")
    assert main(["sturmian", "gen", "--freq", "1/2", "--type", "S", "--emit", emit,
                 "--cells", "0"]) == 0
    assert json.loads(capsys.readouterr().out) == (["1"] if emit == "cells" else "1")


class CellsBuilt(Exception):
    """Raised in place of the window's zero counts: a cell was about to be built."""


def _no_cells(*args):
    raise CellsBuilt


@pytest.mark.parametrize("argv, digest", [
    (("--freq", "1/999", "--type", "S", "--emit", "cells"),
     "af69bfb8e6e72767f29ac5b93413bc16a609cbfaa2d94c7aad76a0d24ba966b0"),
    (("--freq", "1/999", "--type", "S", "--emit", "symbols"),
     "8e829d8334110558bbac6dd093f1f60e65376b5b18197b7ebe73d89ee3d50fba"),
    (("--freq", "13/5", "--type", "Sprime", "--m", "2", "--cells", "40", "--emit", "cells"),
     "67758b24d905b6767e9bd1f1dc7f70fcea4c807dedb081a81c9115f0a4034d5d"),
    (("--freq", "13/5", "--type", "Sprime", "--m", "2", "--cells", "40", "--emit", "symbols"),
     "b096b195cb8ec351eff4443e6158cc3ec170411ee9b00e9a97ab39f72d30cffd"),
])
def test_sturmian_gen_cells_and_symbols_output_is_pinned(capsys, argv, digest):
    # the bytes per-cell words and the streaming JSON writer printed
    assert main(["sturmian", "gen", *argv]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_sturmian_gen_refuses_too_large_windows_before_building(capsys, monkeypatch):
    monkeypatch.setattr(sturmian, "_zero_counts", _no_cells)
    for argv in (["--freq", "1/1000000000000"], ["--freq", "1000000/1", "--cells", "1"],
                 ["--freq", "1/1", "--cells", "1000000000"]):
        for emit in ("cells", "symbols"):
            code, obj = run(capsys, "sturmian", "gen", "--type", "S", "--emit", emit, *argv)
            assert (code, obj["error"]["kind"]) == (2, "InputTooLarge"), argv


def test_sturmian_gen_window_bound_admits_every_default_window(monkeypatch):
    # the default window of 4p + 9 cells spans at most 13 (p + q) symbols,
    # which is largest at p = 1 and longest in cells at q = 1
    monkeypatch.setattr(sturmian, "_zero_counts", _no_cells)
    for freq in ("1/999999", "999999/1", "499999/500001", "2/999997"):
        for stype in ("S", "Sprime"):
            with pytest.raises(CellsBuilt):
                main(["sturmian", "gen", "--freq", freq, "--type", stype, "--emit", "cells"])


def test_ep_subcommands(tmp_path, capsys):
    x = make_ep(word("0"), word("11"))
    f = write_ep(tmp_path / "x.json", x)
    code, obj = run(capsys, "ep", "anomaly-size", f)
    assert code == 0
    assert obj == {"anomaly_size": 2, "least_period": 1}

    code, obj = run(capsys, "ep", "least-period", f)
    assert code == 0 and obj == {"least_period": 1}

    g = write_ep(tmp_path / "y.json", shift(x, -7))
    code, obj = run(capsys, "ep", "similar", f, g)
    assert code == 0 and obj == {"similar": True}

    code, can1 = run(capsys, "ep", "canonical", f)
    (tmp_path / "c.json").write_text(json.dumps(can1))
    code, can2 = run(capsys, "ep", "canonical", str(tmp_path / "c.json"))
    assert can1 == can2

    code, obj = run(capsys, "ep", "remove-anomaly", f)
    assert code == 0 and obj["format"] == "perseq/1" and obj["period"] == "0"


def test_ep_pretty_flag(tmp_path, capsys):
    f = write_ep(tmp_path / "x.json", make_ep(word("110"), word("1")))
    code, obj = run(capsys, "ep", "canonical", f, "--pretty")
    assert code == 0
    assert "[1]" in obj["pretty"] and "110" in obj["pretty"]


def test_every_pretty_flag_adds_a_pretty_key(tmp_path, capsys):
    f = write_ep(tmp_path / "x.json", make_ep(word("110"), word("1")))
    commands = [["bezout", "2", "3"], ["sturmian", "gen", "--freq", "2/3", "--type", "S"],
                ["ep", "similar", f, f], ["classify", "conjugate", f, f]]
    commands += [["ep", name, f] for name in ("anomaly-size", "least-period", "canonical",
                                              "remove-anomaly")]
    accepting = 0
    for argv in commands:
        code, obj = run(capsys, *argv, "--pretty")
        if code == 2:  # the subcommand has no --pretty flag
            assert "unrecognized arguments: --pretty" in obj["error"]["message"], argv
        else:
            assert code == 0 and "pretty" in obj, argv
            accepting += 1
    assert accepting == 5


@pytest.mark.parametrize("argv", [
    [], ["nosuch"], ["bezout", "2"], ["bezout", "x", "3"],
    ["verify", "--max-period-sum", "abc"], ["ep", "similar", "a", "b", "--bogus"],
])
def test_usage_errors_print_one_json_value(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and "error" in json.loads(captured.out)
    assert captured.err.startswith("usage: epshift")


def test_classify_conjugate_and_check_witness(tmp_path, capsys):
    a = write_ep(tmp_path / "a.json", make_ep(word("0"), word("11")))
    b = write_ep(tmp_path / "b.json", make_ep(word("1"), word("00")))
    wfile = str(tmp_path / "w.json")
    code, obj = run(capsys, "classify", "conjugate", a, b, "--witness", wfile)
    assert code == 0 and obj["conjugate"] is True and obj["witness"] == wfile

    code, obj = run(capsys, "classify", "check-witness", a, b, wfile)
    assert code == 0 and obj["valid"] is True

    # a witness for the wrong pair must fail the check, exit 1
    c = write_ep(tmp_path / "c.json", make_ep(word("01"), word("1")))
    code, obj = run(capsys, "classify", "check-witness", a, c, wfile)
    assert code == 1 and obj["valid"] is False and obj["trail"]


def test_check_witness_accepts_a_radius_one_witness_file(tmp_path, capsys):
    # emitted for S(1/2), S'(2/1) when the radius search started at the
    # anomaly length; the least radius is 0, but this witness stays valid
    fixture = Path(__file__).parent / "data" / "conjugacy_S1-2_Sprime2-1.json"
    raw = json.loads(fixture.read_text())
    assert raw["format"] == "conjugacy/1" and raw["forward"]["memory"] == 1
    x = skew_sturmian(SturmianSpec(Frequency.rational(1, 2), TYPE_S))
    y = skew_sturmian(SturmianSpec(Frequency.rational(2, 1), TYPE_SPRIME))
    a, b = write_ep(tmp_path / "a.json", x), write_ep(tmp_path / "b.json", y)
    code, obj = run(capsys, "classify", "check-witness", a, b, str(fixture))
    assert code == 0 and obj == {"valid": True, "trail": []}


def test_check_witness_accepts_a_flow_witness_file_of_unit_raises(tmp_path, capsys):
    # emitted for S(1/2), S(2/5) when every unit raise of N or a was its own
    # mark conjugacy and expansion: 14 moves where one mark per chain needs 8
    fixture = Path(__file__).parent / "data" / "flow_S1-2_S2-5.json"
    raw = json.loads(fixture.read_text())
    assert raw["format"] == "flowwitness/1"
    assert (len(raw["chain_x"]), len(raw["chain_y"])) == (14, 0)
    x = skew_sturmian(SturmianSpec(Frequency.rational(1, 2), TYPE_S))
    y = skew_sturmian(SturmianSpec(Frequency.rational(2, 5), TYPE_S))
    a, b = write_ep(tmp_path / "a.json", x), write_ep(tmp_path / "b.json", y)
    code, obj = run(capsys, "classify", "check-witness", a, b, str(fixture))
    assert code == 0 and obj == {"valid": True, "trail": []}

    assert raw["chain_x"][1]["fresh"] == "x1'"
    raw["chain_x"][1]["fresh"] = "x9'"
    (tmp_path / "bad.json").write_text(json.dumps(raw))
    code, obj = run(capsys, "classify", "check-witness", a, b, str(tmp_path / "bad.json"))
    assert code == 1 and obj["valid"] is False
    assert obj["trail"] == ["chain_x[1]: expansion does not reproduce recorded result"]


def test_classify_conjugate_false(tmp_path, capsys):
    a = write_ep(tmp_path / "a.json", make_ep(word("0"), word("1")))
    b = write_ep(tmp_path / "b.json", make_ep(word("01"), word("1")))
    code, obj = run(capsys, "classify", "conjugate", a, b, "--witness", str(tmp_path / "w.json"))
    assert code == 0
    assert obj["conjugate"] is False and obj["witness"] is None


def test_classify_flow_round_trip(tmp_path, capsys):
    a = write_ep(tmp_path / "a.json", make_ep(word("10"), word("1")))
    b = write_ep(tmp_path / "b.json", make_ep(word("0"), word("1")))
    wfile = str(tmp_path / "fw.json")
    code, obj = run(capsys, "classify", "flow", a, b, "--witness", wfile)
    assert code == 0 and obj["flow_equivalent"] is True

    code, obj = run(capsys, "classify", "check-witness", a, b, wfile)
    assert code == 0 and obj["valid"] is True

    # tamper with the recorded witness: drop the last move of chain_y
    raw = json.loads(Path(wfile).read_text())
    if raw["chain_y"]:
        raw["chain_y"] = raw["chain_y"][:-1]
    else:
        raw["chain_x"] = raw["chain_x"][:-1]
    (tmp_path / "bad.json").write_text(json.dumps(raw))
    code, obj = run(capsys, "classify", "check-witness", a, b, str(tmp_path / "bad.json"))
    assert code == 1 and obj["valid"] is False


def test_check_witness_rejects_factor_map_flow_witness(tmp_path, capsys, forged_factor_witness):
    x, y, forged = forged_factor_witness
    a = write_ep(tmp_path / "a.json", x)
    b = write_ep(tmp_path / "b.json", y)
    (tmp_path / "fw.json").write_text(json.dumps(jsonio.emit_flow_witness(forged)))
    code, obj = run(capsys, "classify", "check-witness", a, b, str(tmp_path / "fw.json"))
    assert code == 1 and obj["valid"] is False and obj["trail"]


def test_check_witness_rejects_empty_code_table(tmp_path, capsys):
    a = write_ep(tmp_path / "a.json", make_ep(word("0"), word("11")))
    ident = jsonio.emit_code(identity_code(BINARY))
    empty = dict(ident, memory=10**7, table=[])
    (tmp_path / "w.json").write_text(json.dumps(
        {"format": "conjugacy/1", "forward": empty, "inverse": ident}))
    code, obj = run(capsys, "classify", "check-witness", a, a, str(tmp_path / "w.json"))
    assert code == 2 and obj["error"]["kind"] == "ValueError"


def test_missing_file_exits_2(capsys):
    code, obj = run(capsys, "ep", "anomaly-size", "/nonexistent/file.json")
    assert code == 2 and "error" in obj


def test_malformed_epseq_exits_2(tmp_path, capsys):
    f = tmp_path / "bad.json"
    for text in (
        json.dumps({"format": "epseq/1"}),
        json.dumps({"format": "epseq/1", "alphabet": "01", "period": "0", "anomaly": "1"}),
        json.dumps({"format": "epseq/1", "alphabet": ["0", "1"], "period": 0, "anomaly": "1"}),
        "[" * 200000 + "]" * 200000,  # too deep for the decoder
    ):
        f.write_text(text)
        code, out = run(capsys, "ep", "anomaly-size", str(f))
        assert code == 2 and out["error"]["kind"] == "MalformedInput", text[:80]


def test_labels_that_break_word_literals_exit_2(tmp_path, capsys):
    f = tmp_path / "bad.json"
    for alphabet, period, anomaly in ((["a,b", "a", "b"], "[a,b]", "[a]"), (["[", "]"], "[", "]")):
        f.write_text(json.dumps(
            {"format": "epseq/1", "alphabet": alphabet, "period": period, "anomaly": anomaly}))
        code, out = run(capsys, "ep", "anomaly-size", str(f))
        assert code == 2 and out["error"]["kind"] == "ValueError", alphabet


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
# objects with a known format tag and keys of the known schemas, so the
# parsers get past the tag check
SCHEMA_KEYS = ("alphabet", "period", "anomaly", "memory", "anticipation", "source_alphabet",
               "target_alphabet", "table", "forward", "inverse", "chain_x", "chain_y",
               "final_forward", "final_inverse")
TAGGED = st.builds(
    lambda fmt, rest: {**rest, "format": fmt},
    st.sampled_from(["epseq/1", "sbc/1", "conjugacy/1", "flowwitness/1"]),
    st.dictionaries(st.sampled_from(SCHEMA_KEYS), JSON_VALUES, max_size=6),
)


@settings(max_examples=150, deadline=None)
@given((JSON_VALUES | TAGGED).map(json.dumps))
@example("[" * 200000 + "]" * 200000)
def test_any_json_input_gives_one_json_value(tmp_path_factory, text):
    d = tmp_path_factory.mktemp("json")
    hostile = d / "hostile.json"
    hostile.write_text(text)
    a = write_ep(d / "a.json", make_ep(word("10"), word("1")))
    for argv in (["ep", "anomaly-size", str(hostile)],
                 ["classify", "check-witness", a, a, str(hostile)]):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2), argv
        json.loads(out.getvalue())  # exactly one JSON value, or this raises


def test_verify_seed_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("SUBSHIFT_SEED", "3")
    code = main(["verify", "--max-period-sum", "2"])
    report = VerifyReport.from_obj(json.loads(capsys.readouterr().out))
    assert code == 0 and report.ok
    seeded = {c.tag: c.bounds.get("seed") for c in report.checks if "seed" in c.bounds}
    assert seeded and all(s == 3 for s in seeded.values())


def test_verify_seed_from_environment_must_be_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("SUBSHIFT_SEED", "abc")
    code, obj = run(capsys, "verify", "--max-period-sum", "2")
    assert (code, obj["error"]["kind"]) == (2, "InputError")
    assert obj["error"]["message"] == "SUBSHIFT_SEED must be an integer, got 'abc'"


def test_verify_small_bounds(capsys):
    code = main(["verify", "--max-period-sum", "3", "--seed", "0"])
    captured = capsys.readouterr()
    assert code == 0
    report = VerifyReport.from_obj(json.loads(captured.out))
    assert report.ok
    assert len(report.checks) == 9
    by_tag = {c.tag: c for c in report.checks}
    # at least the four frequency specs 1/1, 1/2, 2/1 and the inf/0 pair
    assert by_tag["anomaly-size-formula"].checked >= 4
    assert by_tag["conjugacy-classes"].checked >= 4
    # the report JSON round-trips through its schema
    assert report.to_obj() == VerifyReport.from_obj(report.to_obj()).to_obj()
    # one progress line per check on stderr
    assert len([l for l in captured.err.splitlines() if l.strip()]) == 9


@pytest.mark.parametrize("cap", ["1", "0", "-3"])
def test_verify_rejects_a_cap_below_the_least_period_sum(capsys, cap):
    # below p + q = 2 four checks would pass on zero instances
    code, obj = run(capsys, "verify", f"--max-period-sum={cap}")
    assert code == 2
    assert obj["error"]["kind"] == "ValueError" and "below 2" in obj["error"]["message"]


EXIT_CODES = {
    "EpshiftError": 1, "InputError": 2,
    "NotCoprime": 2, "NonPositive": 2, "InputTooLarge": 2, "InvalidSpec": 2,
    "DegeneratePeriodic": 2, "IncompatibleAlphabets": 2, "UnknownSymbol": 2,
    "EmptyWord": 2, "MalformedInput": 2, "WrongAlphabet": 2,
    "SymbolAbsent": 2,
    "InternalMismatch": 1, "NotConjugate": 1, "WindowExhausted": 1, "MissingBlock": 1,
    "DegenerateImage": 1, "PostconditionFailed": 1,
}


def test_every_error_class_has_its_exit_code(monkeypatch, capsys):
    classes = {name: cls for name, cls in vars(errors).items()
               if isinstance(cls, type) and issubclass(cls, errors.EpshiftError)}
    assert set(classes) == set(EXIT_CODES)
    for name, cls in classes.items():
        def raising(args, cls=cls):
            raise cls("boom")
        monkeypatch.setattr(cli, "cmd_bezout", raising)
        code, obj = run(capsys, "bezout", "1", "1")
        assert (code, obj["error"]["kind"]) == (EXIT_CODES[name], name)
