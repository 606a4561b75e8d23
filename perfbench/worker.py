"""One round of one benchmark workload, in a fresh process.

Usage: worker.py WORKLOAD --seed N [--trace] [--setup-only] [--spans PATH]

The worker imports epshift and builds its inputs from the seed, prints
``ready``, runs the round's fixed requests one after another (a closed
loop with one client), checks every output with the benchmark's oracle
outside the timed region, and prints one JSON result as its last line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
from tracer import Tracer, cache_census, merge_census, merge_summaries  # noqa: E402

# Fixed rung sets: (N, draws, full chain, seeded).  A time cap would let a
# faster commit do more work, so wall_s would stop being comparable.  The
# counts put both latency quantiles among the N=100 chains, whose work is set
# by the fixed draw centres, away from the gaps between request sizes.  The
# seed picks the draws of the cheap rungs only: from N=400 on, the cost of one
# request swings up to 2.7x between neighbouring q, so a seeded draw there
# would measure the draw and not the code.  Those rungs take the value
# nearest their centre.
LADDER_RUNGS = ((25, 6, True, True), (100, 32, True, True), (400, 1, True, False),
                (1600, 1, False, False), (6400, 1, False, False))
SESSION_RUNGS = ((25, True), (100, True), (400, False))
# `epshift verify --max-period-sum`: every p+q bound of the suite capped at
# 8.  At the default bounds one run takes 11-17 s, so a run of the benchmark
# could repeat it only twice; capped, it takes under 3 s and still runs all
# nine checks on thousands of instances, four fifths of it in the flow chain
# and the conjugacy witnesses, so a run can repeat it seven times.
VERIFY_MAX_PERIOD_SUM = 8
VERIFY_TAGS = ("bezout-oracle", "anomaly-size-formula", "spot-values", "window-lemmas",
               "conjugacy-witnesses", "conjugacy-classes", "flow-witnesses",
               "generator-crossval", "reciprocals")
IMPORT_PROBES = 5
# Calibration chunks run at the start and at the end of a round, and after
# every request one more for each 50 ms it took, so that the host is sampled
# about as often as the requests spend time on it.
CALIBRATION_CHUNKS = 8
CALIBRATION_EVERY_MS = 50


def calibration_chunk() -> float:
    """Seconds a fixed piece of pure-Python work takes: how fast the host
    runs at this moment, on code that no change to epshift can touch."""
    t0 = time.perf_counter()
    seen: dict[tuple[int, int], int] = {}
    for i in range(10_000):
        key = (i % 61, i & 15)
        seen[key] = seen.get(key, 0) + i * i % 7
    return time.perf_counter() - t0


def banded_pairs(n: int, draws: int, chain: bool, rng: random.Random | None) -> list[tuple[int, int]]:
    """`draws` coprime pairs (q, p) with p + q = n; the i-th is one of the
    three values not drawn yet that lie nearest the centre of the i-th of
    `draws` equal slices of the quantity that sets the work, or without
    `rng` the nearest of them.

    With a full chain the work grows with the witness radius, which is the
    type-S anomaly size a+b = q^-1 mod n (and the witness bytes with its
    square), so the slices are of a+b; for generation alone they are of q
    in (0, n/2).
    Fixed centres keep the work of a round alike across seeds while the seed
    still picks the sequences.
    """
    units = [s for s in range(1, n) if math.gcd(s, n) == 1]
    span = n if chain else n / 2
    pairs = []
    for i in range(draws):
        centre = (i + 0.5) * span / draws
        near = sorted(units, key=lambda u: (abs(u - centre), u))[:3]
        pick = rng.choice(near) if rng is not None else near[0]
        units.remove(pick)
        q = pow(pick, -1, n) if chain else pick
        pairs.append((q, n - q))
    return pairs


class Round:
    """Outputs and oracle verdicts of one round."""

    def __init__(self) -> None:
        self.latencies_ms: list[float] = []
        self.rung_of: dict[str, int] = {}
        self.failures: list[str] = []
        self.failed: set[int] = set()
        self.work: dict[str, float] = {}
        self.calibration_s: list[float] = []
        self.sha = hashlib.sha256()

    def record(self, ms: float) -> None:
        """Record a request's latency, then time calibration chunks."""
        self.latencies_ms.append(ms)
        self.calibrate(1 + int(ms // CALIBRATION_EVERY_MS))

    def calibrate(self, chunks: int) -> None:
        self.calibration_s += [calibration_chunk() for _ in range(chunks)]

    def check(self, ok: bool, what: str) -> bool:
        """Record an oracle verdict against the latest request."""
        if not ok:
            self.failures.append(what)
            self.failed.add(len(self.latencies_ms) - 1)
        return ok

    def emitted(self, text: str) -> None:
        self.sha.update(text.encode())
        self.sha.update(b"\n")

    def add(self, name: str, value: float) -> None:
        self.work[name] = self.work.get(name, 0) + value


# --- ladder -----------------------------------------------------------------

def ladder_inputs(seed: int) -> list[tuple[int, int, int, bool]]:
    """(N, q, p, full chain) per request."""
    rng = random.Random(f"ladder/{seed}")
    out = []
    for n, draws, chain, seeded in LADDER_RUNGS:
        out += [(n, q, p, chain) for q, p in banded_pairs(n, draws, chain, rng if seeded else None)]
    if len(set(out)) != len(out):  # a repeated input would be answered from cache
        raise ValueError(f"ladder inputs repeat for seed {seed}")
    return out


def ladder_request(es, q: int, p: int, chain: bool) -> dict:
    x = es.skew_sturmian(es.SturmianSpec(es.Frequency.rational(q, p), es.TYPE_S))
    y = es.skew_sturmian(es.SturmianSpec(es.Frequency.rational(p, q), es.TYPE_SPRIME))
    out = {"x": x, "y": y}
    if chain:
        out["a"] = (es.anomaly_size(x), es.anomaly_size(y))
        out["canonical"] = (es.canonical(x), es.canonical(y))
        out["conjugate"] = es.conjugate_ep(x, y)
        out["witness"] = es.conjugacy_witness(x, y)
        out["text"] = json.dumps(es.jsonio.emit_conjugacy(*out["witness"]))
    return out


def run_ladder(es, inputs, rnd: Round, tracer) -> None:
    emit = lambda v: json.dumps(es.jsonio.emit_epseq(v))
    for i, (n, q, p, chain) in enumerate(inputs):
        rnd.rung_of[str(i)] = n
        if tracer is not None:
            tracer.request = i
        tag = f"ladder N={n} q={q} p={p}"
        t0 = time.perf_counter()
        try:
            out = ladder_request(es, q, p, chain)
        except Exception as e:  # a raising request is a failed one; the round goes on
            out = None
            error = f"{tag}: raised {type(e).__name__}: {e}"
        rnd.record((time.perf_counter() - t0) * 1000)
        if tracer is not None:
            tracer.request = -1
        if out is None:
            rnd.check(False, error)
            continue
        want = (oracle.expected_invariants(q, p, "S"), oracle.expected_invariants(p, q, "Sprime"))
        for name, seq, expected in zip("xy", (out["x"], out["y"]), want):
            w, v = seq.period_word.symbols, seq.anomaly.symbols
            rnd.check((len(w), oracle.anomaly_size(w, v)) == expected, f"{tag}: generated {name} is not {expected}")
            rnd.emitted(emit(seq))
        if not chain:
            continue
        fwd, inv = out["witness"]
        rnd.check(out["a"] == (want[0][1], want[1][1]), f"{tag}: anomaly_size gave {out['a']}")
        for name, c, expected in zip("xy", out["canonical"], want):
            rnd.check((len(c.period_word), len(c.anomaly)) == expected, f"{tag}: canonical {name}")
            rnd.emitted(emit(c))
        rnd.check(out["conjugate"] is True, f"{tag}: conjugate_ep is not True")
        rnd.check(es.jsonio.parse_conjugacy(json.loads(out["text"])) == (fwd, inv),
                  f"{tag}: parse(emit(witness)) != witness")
        rnd.emitted(out["text"])
        rnd.add(f"classify.witness_radius.N{n}", fwd.memory + inv.memory)
        rnd.add(f"classify.witness_entries.N{n}", len(fwd.entries) + len(inv.entries))
        rnd.add(f"jsonio.witness_bytes.N{n}", len(out["text"]))


# --- verify -----------------------------------------------------------------

def run_verify(es, seed: int, rnd: Round, tracer) -> None:
    rnd.rung_of["0"] = 0
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.request = 0
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = es.cli.main(["verify", "--seed", str(seed), "--max-period-sum", str(VERIFY_MAX_PERIOD_SUM)])
        except Exception as e:  # a raising request is a failed one
            rc = f"{type(e).__name__}: {e}"
    rnd.record((time.perf_counter() - t0) * 1000)
    if tracer is not None:
        tracer.request = -1
    rnd.check(rc == 0, f"verify ended with {rc}")
    try:
        report = json.loads(out.getvalue())
    except ValueError as e:
        rnd.check(False, f"verify printed no single JSON value: {e}")
        return
    rnd.check(report.get("format") == "verifyreport/1" and report.get("ok") is True,
              "verify report is not ok")
    checks = {c["tag"]: c for c in report.get("checks", [])}
    rnd.check(tuple(checks) == VERIFY_TAGS, f"verify ran {list(checks)}")
    for tag, c in checks.items():
        rnd.check(c["status"] == "pass" and not c["failures"], f"verify {tag} failed")
        rnd.add(f"verify.{tag}.s", c["seconds"])
        rnd.add(f"verify.{tag}.checked", c["checked"])
        c["seconds"] = 0
    rnd.emitted(json.dumps(report))


# --- cli-session ------------------------------------------------------------

def session_inputs(seed: int) -> list[tuple[int, int, int, int]]:
    rng = random.Random(f"cli-session/{seed}")
    out = []
    for n, seeded in SESSION_RUNGS:
        (q, p), = banded_pairs(n, 1, True, rng if seeded else None)
        out.append((n, q, p, rng.randrange(1 << 30)))
    return out


def session_steps(q: int, p: int) -> list[tuple[str, list[str], str | None, int]]:
    """(kind, argv, file receiving stdout, expected exit code)."""
    return [
        ("sturmian_gen", ["sturmian", "gen", "--freq", f"{q}/{p}", "--type", "S"], "x.json", 0),
        ("sturmian_gen", ["sturmian", "gen", "--freq", f"{p}/{q}", "--type", "Sprime"], "y.json", 0),
        ("ep_anomaly_size", ["ep", "anomaly-size", "x.json"], None, 0),
        ("ep_anomaly_size", ["ep", "anomaly-size", "y.json"], None, 0),
        ("ep_canonical", ["ep", "canonical", "x.json"], None, 0),
        ("ep_canonical", ["ep", "canonical", "y.json"], None, 0),
        ("ep_similar", ["ep", "similar", "x.json", "y.json"], None, 0),
        ("classify_conjugate", ["classify", "conjugate", "x.json", "y.json", "--witness", "w.json"], None, 0),
        ("classify_flow", ["classify", "flow", "x.json", "y.json", "--witness", "fw.json"], None, 0),
        ("check_witness", ["classify", "check-witness", "x.json", "y.json", "w.json"], None, 0),
        ("check_witness", ["classify", "check-witness", "x.json", "y.json", "fw.json"], None, 0),
        ("check_witness_tampered", ["classify", "check-witness", "x.json", "y.json", "t.json"], None, 1),
    ]


def tamper(src: Path, dst: Path, pick: int) -> None:
    """Copy a conjugacy witness with one forward table output flipped."""
    obj = json.loads(src.read_text())
    row = obj["forward"]["table"][pick % len(obj["forward"]["table"])]
    row[1] = "1" if row[1] == "0" else "0"
    dst.write_text(json.dumps(obj, indent=2))


def expected_output(step: str, n: int, a: int) -> dict | None:
    if step == "ep_anomaly_size":
        return {"anomaly_size": a, "least_period": n}
    if step == "ep_similar":
        return {"similar": False}
    if step == "classify_flow":
        return {"flow_equivalent": True, "chain_x_moves": 0, "chain_y_moves": 0, "witness": "fw.json"}
    if step == "check_witness":
        return {"valid": True, "trail": []}
    if step == "check_witness_tampered":
        return {"valid": False}
    return None


def check_session_output(es, rnd: Round, step: str, argv, dest, n: int, want_a: dict, value,
                         work: Path) -> None:
    """Check one command's output; `want_a` maps x.json and y.json to the
    anomaly sizes the oracle expects."""
    tag = f"cli N={n} {' '.join(argv)}"
    a = want_a.get(dest or argv[2])
    want = expected_output(step, n, a)
    if want is not None:
        got = {k: value.get(k) for k in want} if isinstance(value, dict) else value
        rnd.check(got == want, f"{tag}: printed {str(value)[:200]}")
    if step in ("sturmian_gen", "ep_canonical"):
        seq = es.jsonio.parse_epseq(value)
        w, v = seq.period_word.symbols, seq.anomaly.symbols
        ok = len(w) == n and oracle.anomaly_size(w, v) == a
        if step == "ep_canonical":
            ok = ok and len(v) == a
        rnd.check(ok, f"{tag}: wrong invariants")
    if step == "classify_conjugate":
        inv = {name[0]: {"least_period": n, "anomaly_size": want_a[name]} for name in ("x.json", "y.json")}
        rnd.check(value == {"conjugate": True, "invariants": inv, "witness": "w.json"},
                  f"{tag}: printed {str(value)[:200]}")
    if step in ("classify_conjugate", "classify_flow"):
        name, parse, emit = (("w.json", es.jsonio.parse_conjugacy, lambda w: es.jsonio.emit_conjugacy(*w))
                             if step == "classify_conjugate" else
                             ("fw.json", es.jsonio.parse_flow_witness, es.jsonio.emit_flow_witness))
        raw = (work / name).read_text()
        rnd.emitted(raw)
        wit = parse(json.loads(raw))
        rnd.check(parse(emit(wit)) == wit and emit(wit) == json.loads(raw),
                  f"{tag}: parse(emit(witness)) != witness")
        if step == "classify_conjugate":
            rnd.add(f"classify.witness_radius.N{n}", wit[0].memory + wit[1].memory)
            rnd.add(f"classify.witness_entries.N{n}", len(wit[0].entries) + len(wit[1].entries))
            rnd.add(f"jsonio.witness_bytes.N{n}", len(raw.encode()))


def run_session(es, inputs, rnd: Round, spans_dir: Path | None) -> list[dict]:
    """Run the scripted session; returns the traced commands' summaries."""
    work = HERE / "results" / f"session-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    traced: list[dict] = []
    kind_ms: dict[str, list[float]] = {}
    try:
        for n, q, p, pick in inputs:
            want_a = {"x.json": oracle.expected_invariants(q, p, "S")[1],
                      "y.json": oracle.expected_invariants(p, q, "Sprime")[1]}
            for step, argv, dest, code in session_steps(q, p):
                if step == "check_witness_tampered":
                    tamper(work / "w.json", work / "t.json", pick)
                req = str(len(rnd.latencies_ms))
                rnd.rung_of[req] = n
                if spans_dir is None:
                    cmd = [sys.executable, "-m", "epshift", *argv]
                else:
                    spans = spans_dir / f"{req}-{step}.spans"
                    cmd = [sys.executable, str(HERE / "launch.py"), str(spans), req, *argv]
                t0 = time.perf_counter()
                proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True, timeout=120)
                ms = (time.perf_counter() - t0) * 1000
                rnd.record(ms)
                kind_ms.setdefault(f"cli.{step}.ms.N{n}", []).append(ms)
                tag = f"cli N={n} {' '.join(argv)}"
                rnd.emitted(proc.stdout)
                if spans_dir is not None:
                    traced.append(json.loads(Path(f"{spans}.json").read_text()))
                if not rnd.check(proc.returncode == code,
                                 f"{tag}: exit {proc.returncode}, expected {code}: {proc.stderr[-300:]}"):
                    continue
                try:  # json.loads rejects anything but exactly one JSON value
                    value = json.loads(proc.stdout)
                except ValueError as e:
                    rnd.check(False, f"{tag}: stdout is not one JSON value: {e}")
                    continue
                if dest is not None:
                    (work / dest).write_text(proc.stdout)
                try:
                    check_session_output(es, rnd, step, argv, dest, n, want_a, value, work)
                except (es.EpshiftError, ValueError, KeyError, TypeError) as e:
                    rnd.check(False, f"{tag}: output rejected: {type(e).__name__}: {e}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, vals in kind_ms.items():
        rnd.work[name] = statistics.median(vals)
    probes = []
    for _ in range(IMPORT_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import epshift"], env=env, check=True, timeout=60)
        probes.append((time.perf_counter() - t0) * 1000)
    rnd.work["cli.import_ms"] = statistics.median(probes)
    return traced


# --- entry ------------------------------------------------------------------

def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=["verify", "ladder", "cli-session"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None, help="where a traced run writes its spans")
    args = ap.parse_args()

    tracer = Tracer() if args.trace and args.workload != "cli-session" else None
    import epshift as es
    import epshift.cli  # noqa: F401  (binds es.cli and es.jsonio)

    if tracer is not None:
        tracer.install()
    inputs = {"verify": lambda s: s, "ladder": ladder_inputs, "cli-session": session_inputs}[args.workload](args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    rnd = Round()
    rnd.calibrate(CALIBRATION_CHUNKS)
    spans_dir = None
    t0 = time.perf_counter()
    if args.workload == "ladder":
        run_ladder(es, inputs, rnd, tracer)
    elif args.workload == "verify":
        run_verify(es, inputs, rnd, tracer)
    else:
        if args.trace:
            spans_dir = Path(args.spans).resolve()
            shutil.rmtree(spans_dir, ignore_errors=True)
            spans_dir.mkdir(parents=True)
        traced = run_session(es, inputs, rnd, spans_dir)
    elapsed = time.perf_counter() - t0
    rnd.calibrate(CALIBRATION_CHUNKS)

    who = resource.RUSAGE_CHILDREN if args.workload == "cli-session" else resource.RUSAGE_SELF
    result = {
        "wall_s": sum(rnd.latencies_ms) / 1000,
        "elapsed_s": elapsed,
        "latencies_ms": rnd.latencies_ms,
        "calibration_s": rnd.calibration_s,
        "rung_of": rnd.rung_of,
        "attempted": len(rnd.latencies_ms),
        "failed": len(rnd.failed),
        "failures": rnd.failures[:20],
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "outputs_sha256": rnd.sha.hexdigest(),
        "work": rnd.work,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        result["census"] = tracer.census()
        tracer.write(args.spans)
    elif spans_dir is not None:
        result["trace"] = merge_summaries([t["summary"] for t in traced])
        result["census"] = merge_census([t["census"] for t in traced])
    else:
        result["census"] = cache_census() if args.workload != "cli-session" else {}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
