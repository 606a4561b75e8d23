"""A deterministic work meter: Python opcodes and calls, on the stdlib alone.

    python tests/opcount.py                      # verify-cap8 and flow-1600
    python tests/opcount.py flow-small flow-small

Each named workload runs in a fresh process with PYTHONHASHSEED=0, after
its imports.  It counts every opcode run (`sys.settrace` with
`f_trace_opcodes`) and every call, Python and C (`sys.setprofile`), and
prints one JSON object per workload: the Python version (`sys.version`;
counts compare only within one version), the totals, the opcodes and Python
calls of each `src/` function (module.qualname), and, for a verify
workload, the totals of each criterion.  An opcode count weighs a
comprehension step like a call and does not see the work inside one C
call; tracing makes a workload about 25 times slower.  pytest does not
collect this file.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _skew(stype, q, p):
    from epshift.sturmian import Frequency, SturmianSpec, skew_sturmian
    return skew_sturmian(SturmianSpec(Frequency.rational(q, p), stype))


def _flow(x_freq, y_freq):
    """flow_witness S'(x) -> S(y), the sequences built before the count."""
    from epshift.classify import flow_witness
    from epshift.sturmian import TYPE_S, TYPE_SPRIME
    x, y = _skew(TYPE_SPRIME, *x_freq), _skew(TYPE_S, *y_freq)
    return lambda: flow_witness(x, y)


def _verify_cap8():
    """The serial `_suite` at seed 7, every bound capped at 8."""
    from epshift import verify
    bounds = verify.VerifyBounds().capped(8)
    return lambda: verify._suite(bounds, 7)


# the frequencies (q, p) of x and y in each flow_witness S'(x) -> S(y)
FLOWS = {
    "flow-400": ((149, 251), (125, 226)),
    "flow-1600": ((599, 1001), (500, 901)),
    "flow-small": ((1, 2), (2, 5)),
}
WORKLOADS = {
    "verify-cap8": _verify_cap8,
    **{name: lambda pair=pair: _flow(*pair) for name, pair in FLOWS.items()},
}
DEFAULT = ("verify-cap8", "flow-1600")


def count(name):
    """The counts of one workload, run in this process."""
    run = WORKLOADS[name]()
    from epshift import verify
    opcodes, calls, c_calls = Counter(), Counter(), [0]
    criteria = {}

    def totals():
        return {"opcodes": sum(opcodes.values()), "calls": sum(calls.values()),
                "c_calls": c_calls[0]}

    def by_criterion(check):
        def counted(*args, **kwargs):
            before = totals()
            result = check(*args, **kwargs)
            criteria[result.tag] = {k: n - before[k] for k, n in totals().items()}
            return result
        return counted

    for attr in [a for a in vars(verify) if a.startswith("check_")]:
        setattr(verify, attr, by_criterion(getattr(verify, attr)))

    def per_opcode(frame, event, arg):
        if event == "opcode":
            opcodes[frame.f_code] += 1
        return per_opcode

    def per_frame(frame, event, arg):
        frame.f_trace_opcodes = True
        return per_opcode

    def per_call(frame, event, arg):
        if event == "call":
            calls[frame.f_code] += 1
        elif event == "c_call":
            c_calls[0] += 1

    sys.setprofile(per_call)
    sys.settrace(per_frame)
    try:
        run()
    finally:
        sys.settrace(None)
        sys.setprofile(None)
    functions = {}
    for kind, counter in (("opcodes", opcodes), ("calls", calls)):
        for code, n in counter.items():
            path = Path(code.co_filename)
            if path.parent == SRC / "epshift":
                row = functions.setdefault(f"{path.stem}.{code.co_qualname}",
                                           {"opcodes": 0, "calls": 0})
                row[kind] += n
    return {"workload": name, "python": sys.version, **totals(), "criteria": criteria,
            "functions": dict(sorted(functions.items(), key=lambda kv: -kv[1]["opcodes"]))}


def measure(name):
    """The counts of one workload, from a fresh process."""
    env = {**os.environ, "PYTHONHASHSEED": "0",
           "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, __file__, "--in-process", name], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def main(argv):
    if argv[:1] == ["--in-process"]:
        print(json.dumps(count(argv[1])))
        return
    unknown = [name for name in argv if name not in WORKLOADS]
    if unknown:
        raise SystemExit(f"unknown workload {unknown}; choose from {sorted(WORKLOADS)}")
    print(json.dumps([measure(name) for name in argv or DEFAULT], indent=1))


if __name__ == "__main__":
    main(sys.argv[1:])
