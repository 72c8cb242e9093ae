"""Runs operations with the frozen baseline library, one request at a time.

``persistnet_base`` next to this file is a verbatim copy of ``src/persistnet``
as it stood when the benchmark was written (see ``README.md``).  The benchmark
starts this script as a child process and runs every timed operation here at
the same time as in the program under test, on the same CPU, so the two see
the same machine speed.

Usage::

    python3 perfbench/baseline/worker.py WARMUP_SCENARIO... < requests

The worker first runs each ``WARMUP_SCENARIO`` once, untimed, then prints
``{"ready": true}``.  Each later line on standard input is a JSON list
``[scenario, out_dir]``; the worker runs ``persistnet_base.cli.main(["run",
scenario, "--out-dir", out_dir])`` and answers with one JSON line
``{"seconds": s, "rc": rc}``, ``s`` being the CPU seconds the call took.
It exits at the end of its input.  An operation that raises ends the worker
with that error.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

from persistnet_base import cli  # noqa: E402


def run_op(scenario: str, out_dir: str) -> tuple[float, int]:
    sink = io.StringIO()
    start = time.process_time()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        rc = cli.main(["run", scenario, "--out-dir", out_dir])
    return time.process_time() - start, rc


def main(argv: list[str]) -> int:
    if argv:
        with tempfile.TemporaryDirectory(dir=Path(argv[0]).parent) as out_dir:
            for scenario in argv:
                run_op(scenario, out_dir)
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        seconds, rc = run_op(*json.loads(line))
        print(json.dumps({"seconds": seconds, "rc": rc}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
