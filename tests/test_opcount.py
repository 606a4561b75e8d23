import json
import subprocess
import sys
from pathlib import Path

METER = Path(__file__).resolve().parent / "opcount.py"


def test_the_work_meter_counts_a_workload_the_same_in_two_fresh_processes():
    out = subprocess.run([sys.executable, str(METER), "flow-small", "flow-small"],
                         capture_output=True, text=True, check=True).stdout
    first, second = json.loads(out)
    assert first == second
    assert first["workload"] == "flow-small" and first["opcodes"] > first["calls"] > 0
    assert first["c_calls"] > 0 and "classify.flow_witness" in first["functions"]
    assert sum(row["opcodes"] for row in first["functions"].values()) <= first["opcodes"]

