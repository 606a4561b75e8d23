"""Run one traced epshift command: launch.py SPANS REQUEST ARGS...

Installs the benchmark's tracing wrappers, calls ``epshift.cli.main(ARGS)``
and exits with its code.  The spans go to SPANS, and their summary and the
cache census to SPANS.json.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402


def main() -> int:
    spans, request, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    import epshift.cli

    tracer.install()
    tracer.request = request
    try:
        return epshift.cli.main(argv)
    finally:
        tracer.request = -1
        tracer.write(spans)
        Path(f"{spans}.json").write_text(json.dumps({"summary": tracer.summary(), "census": tracer.census()}))


if __name__ == "__main__":
    sys.exit(main())
