"""Benchmark of the epshift package.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

WORKLOAD is one of ``verify``, ``ladder``, ``cli-session``, or ``all``,
which runs every workload untraced and traced and prints each metric by
name with its unit.  Run it from the root of a source checkout: the
library is imported from ``src/``.

A run is a fixed number of rounds, ``max(1, S // nominal seconds of one
round)``, so the work done depends on S only and never on how fast the
code is.  Each round runs in a fresh worker process (``worker.py``) on the
same inputs, made from the seed; a request's latency is its median over
the rounds, scaled to a reference speed of the host measured in the same
run.  Untraced runs report the end-to-end metrics of BENCHMARK.json;
traced runs do one untraced and one traced round and report the per-layer
metrics and the tracing overhead.  Every run writes a results file under
``perfbench/results/`` and prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("verify", "ladder", "cli-session")
# Seconds one round takes at the seed commit on a 2-core x86-64 box; they fix
# the number of rounds a run makes, never the work inside a round.
NOMINAL_ROUND_S = {"verify": 4.0, "ladder": 7.0, "cli-session": 14.0}
SETUP_PROBES = 8
# Mean seconds the worker's calibration chunk takes on that box; timings
# are reported at this speed of the host.
CALIBRATION_REFERENCE_S = 0.003
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark itself could not run."""


def launch(workload: str, seed: int, *flags: str) -> tuple[float, dict]:
    """Start a worker; returns (seconds until it was ready, its result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, "--seed", str(seed), *flags]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} worker ran over {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0 or first != "ready\n":
        raise BenchError(f"{workload} worker failed with exit code {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup_s, json.loads(lines[-1]) if lines else {}


def quantile(values: list[float], frac: float) -> float:
    """Linear interpolation between closest ranks."""
    vals = sorted(values)
    pos = frac * (len(vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def tail_fraction(n: int) -> float:
    """The highest quantile with at least ten requests beyond it (the
    maximum when there are fewer than eleven requests)."""
    return 1 - 10 / n if n > 10 else 1.0


def end_to_end(setups: list[float], rounds: list[dict]) -> tuple[dict, dict]:
    # A request's latency is its median over the rounds, which repeat the
    # same inputs in fresh processes, so a burst of load during one round
    # does not move it.  Load that lasts minutes slows every round alike; the
    # calibration chunks the worker times between requests slow down with it,
    # so every timing is divided by their mean slowdown against the
    # reference.  The mean, not the median: a chunk runs either at full speed
    # or about 1.7x slower, as when another tenant shares the core, and only
    # the mean follows the share of time spent slow.  The measured values and
    # the slowdown go in the results file.
    per_request = [statistics.median(r["latencies_ms"][i] for r in rounds)
                   for i in range(len(rounds[0]["latencies_ms"]))]
    frac = tail_fraction(len(per_request))
    measured = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(per_request) / 1000,
        "latency_ms_p50": statistics.median(per_request),
        "latency_ms_tail": quantile(per_request, frac),
    }
    slowdown = statistics.mean(c for r in rounds for c in r["calibration_s"]) / CALIBRATION_REFERENCE_S
    values = {name: v / slowdown for name, v in measured.items()}
    values["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in rounds)
    notes = {"tail_percentile": round(100 * frac, 2), "requests_per_round": len(per_request),
             "setup_samples": len(setups), "slowdown": slowdown, "measured": measured}
    return values, notes


def layers(ref: dict, traced: dict) -> dict:
    """Per-layer metrics: span statistics and the cache census from the
    traced round, work counts and command times from the untraced one."""
    t = traced["trace"]
    m: dict[str, float] = {}
    for fn, calls in t["calls"].items():
        m[f"{fn}.calls"] = calls
        m[f"{fn}.self_s"] = t["self_s"][fn]
    rung_of = traced["rung_of"]
    rungs = sorted(set(rung_of.values()) - {0})
    for fn, per in t["per_request_s"].items():
        m[f"{fn}.s"] = sum(per.values())
        for n in rungs:
            vals = [s for r, s in per.items() if rung_of.get(r) == n]
            if vals:
                m[f"{fn}.ms.N{n}"] = statistics.median(vals) * 1000
    m.update(t["counts"])
    m.update(ref["work"])
    for name, c in traced["census"].items():
        lookups = c["hits"] + c["misses"]
        m[f"cache.{name}.entries"] = c["entries"]
        m[f"cache.{name}.hit_ratio"] = c["hits"] / lookups if lookups else 0.0
    m["cache.entries_total"] = sum(c["entries"] for c in traced["census"].values())
    m["trace.overhead"] = traced["wall_s"] / ref["wall_s"]
    return m


def provenance(seed: int, traced: bool) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
        top, sha = out.stdout.split()
        sha = sha if out.returncode == 0 and Path(top).resolve() == ROOT else None
    except (OSError, ValueError, subprocess.TimeoutExpired):
        sha = None
    return {"git_sha": sha, "python": platform.python_version(), "nproc": os.cpu_count(),
            "machine": platform.machine(), "seed": seed, "traced": traced}


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    rounds = max(1, int(seconds // NOMINAL_ROUND_S[workload]))
    record = {"workload": workload, "seconds": seconds, "provenance": provenance(seed, trace)}
    if not trace:
        setups = [launch(workload, seed, "--setup-only")[0] for _ in range(SETUP_PROBES)]
        results = []
        for _ in range(rounds):
            setup_s, result = launch(workload, seed)
            setups.append(setup_s)
            results.append(result)
        values, notes = end_to_end(setups, results)
        record.update(rounds=rounds, values=values, **notes, trace_overhead=None)
    else:
        spans = RESULTS / f"spans-{workload}"
        _, ref = launch(workload, seed)
        _, traced = launch(workload, seed, "--trace", "--spans", str(spans))
        results = [ref, traced]
        values = layers(ref, traced)
        record.update(rounds=1, values=values, trace_overhead=values["trace.overhead"],
                      spans=str(spans.relative_to(ROOT)), trace=traced["trace"])
    record.update(
        attempted=sum(r["attempted"] for r in results),
        failed=sum(r["failed"] for r in results),
        failures=[f for r in results for f in r["failures"]][:20],
        outputs_sha256=sorted({r["outputs_sha256"] for r in results}),
        work=results[0]["work"],
        census=results[-1]["census"],
        raw=[{k: r[k] for k in ("wall_s", "elapsed_s", "latencies_ms", "calibration_s", "peak_rss_mb", "attempted", "failed")}
             for r in results],
    )
    # The same seed must give the same outputs in every round.
    if len(record["outputs_sha256"]) != 1:
        record["failed"] += 1
        record["failures"].append("rounds on the same inputs emitted different JSON")
    record["failed_ratio"] = record["failed"] / record["attempted"]
    return record


def declared(kind: str) -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())[kind]


def select(values: dict, kind: str) -> dict:
    """The metrics BENCHMARK.json declares; a per-layer metric the run has no
    value for (a rung or a cache the workload never reached) reads 0."""
    return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in declared(kind)}


def save(name: str, record: dict) -> None:
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / name).write_text(json.dumps(record, indent=1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "epshift" / "__init__.py").is_file():
        print(f"error: no epshift sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runs = ([(args.workload, bool(args.trace))] if args.workload != "all"
            else [(wl, trace) for wl in WORKLOADS for trace in (False, True)])
    records = []
    try:
        for wl, trace in runs:
            rec = run_workload(wl, args.seed, args.seconds, trace)
            rec["metrics"] = select(rec["values"], "per_layer" if trace else "end_to_end")
            save(f"{wl}-seed{args.seed}-trace{int(trace)}.json", rec)
            records.append(rec)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if args.workload == "all":
        metrics = {}
        for rec in records:
            extra = ("failed_ratio", "trace_overhead" if rec["provenance"]["traced"] else "tail_percentile")
            for name, m in rec["metrics"].items():
                metrics[f"{rec['workload']}.{name}"] = m
                print(f"{rec['workload']:12s} {name:48s} {m['value']:>16.6g} {m['unit']}")
            for name in extra:
                print(f"{rec['workload']:12s} {name:48s} {rec[name]:>16.6g}")
        save(f"all-seed{args.seed}.json", records)
    else:
        metrics = records[0]["metrics"]
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
