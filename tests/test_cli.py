import json
from pathlib import Path

import pytest

from epshift import jsonio
from epshift.classify import identity_code
from epshift.cli import main
from epshift.sequences import make_ep, shift
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


def test_sturmian_gen_cells_and_symbols(capsys):
    code, cells = run(capsys, "sturmian", "gen", "--freq", "1/1", "--type", "S",
                      "--emit", "cells", "--cells", "2")
    assert code == 0
    assert cells == ["10", "10", "1", "10", "10"]
    code, symbols = run(capsys, "sturmian", "gen", "--freq", "1/1", "--type", "S",
                        "--emit", "symbols", "--cells", "2")
    assert code == 0
    assert symbols == "101011010"


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
    for obj in (
        {"format": "epseq/1"},
        {"format": "epseq/1", "alphabet": "01", "period": "0", "anomaly": "1"},
        {"format": "epseq/1", "alphabet": ["0", "1"], "period": 0, "anomaly": "1"},
    ):
        f.write_text(json.dumps(obj))
        code, out = run(capsys, "ep", "anomaly-size", str(f))
        assert code == 2 and out["error"]["kind"] == "MalformedInput", obj


def test_verify_seed_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("SUBSHIFT_SEED", "3")
    code = main(["verify", "--max-period-sum", "2"])
    report = VerifyReport.from_obj(json.loads(capsys.readouterr().out))
    assert code == 0 and report.ok
    seeded = {c.tag: c.bounds.get("seed") for c in report.checks if "seed" in c.bounds}
    assert seeded and all(s == 3 for s in seeded.values())


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
