import json
import subprocess
import sys
from pathlib import Path

from epshift.sequences import anomaly_size, least_period
from epshift.sturmian import TYPE_S, TYPE_SPRIME, Frequency, SturmianSpec, skew_sturmian
from opcount import FLOWS

METER = Path(__file__).resolve().parent / "opcount.py"


def metered(*names):
    """The meter's counts of these workloads, each from a fresh process."""
    out = subprocess.run([sys.executable, str(METER), *names],
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def test_the_work_meter_counts_a_workload_the_same_in_two_fresh_processes():
    first, second = metered("flow-small", "flow-small")
    assert first == second
    assert first["workload"] == "flow-small" and first["opcodes"] > first["calls"] > 0
    assert first["c_calls"] > 0 and "classify.flow_witness" in first["functions"]
    assert sum(row["opcodes"] for row in first["functions"].values()) <= first["opcodes"]


def _lengths(pair):
    """The lengths flow_witness S'(x) -> S(y) reads and writes: x and y in
    canonical form, N_x + a_x and N_y + a_y; the raises, N - N_x + a - a_x
    and N - N_y + a - a_y; and each raised end, N + a, where N = max(N_x,
    N_y) and a = max(a_x, a_y)."""
    (xq, xp), (yq, yp) = pair
    x = skew_sturmian(SturmianSpec(Frequency.rational(xq, xp), TYPE_SPRIME))
    y = skew_sturmian(SturmianSpec(Frequency.rational(yq, yp), TYPE_S))
    (nx, ax), (ny, ay) = (least_period(x), anomaly_size(x)), (least_period(y), anomaly_size(y))
    n, a = max(nx, ny), max(ax, ay)
    return nx + ax, ny + ay, 2 * n - nx - ny + 2 * a - ax - ay, n + a


def _layer(counts, name, kind):
    """The opcodes or calls of a src/ function and the functions it defines."""
    return sum(row[kind] for key, row in counts["functions"].items()
               if key == name or key.startswith(f"{name}.<locals>."))


def test_the_flow_witness_work_grows_linearly_from_n400_to_n1600():
    # Each layer reads and writes the sequences whose lengths `_lengths`
    # gives, a bounded number of times each, plus a constant: its count is
    # a nonnegative combination of those lengths and 1, so from the small
    # pair to the large one it grows at most as much as the fastest-growing
    # length (4.88 here, x's), where a layer quadratic in them would grow
    # 16 times or more.  The 1 + 0.1 leaves room for what grows like a
    # logarithm: the digits of minted labels.
    small, large = metered("flow-400", "flow-1600")
    bound = 1.1 * max(b / a for a, b in zip(_lengths(FLOWS["flow-400"]),
                                            _lengths(FLOWS["flow-1600"])))
    for kind in ("opcodes", "calls"):
        assert 0 < large[kind] <= bound * small[kind], kind
        for name in ("classify._raise_moves", "classify.expand_symbol",
                     "classify._build_block_map", "classify._image_scan"):
            before, after = _layer(small, name, kind), _layer(large, name, kind)
            assert 0 < after <= bound * before, (name, kind, before, after, bound)
