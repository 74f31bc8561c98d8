#!/usr/bin/env python3
"""Wall time and peak RSS of one tier-1 test run.

    python3 tools/tier1_cost.py

Runs the tier-1 command, ``python -m pytest -q
--continue-on-collection-errors`` with ``src`` first on PYTHONPATH, from
the repository root in a child process.  Prints the child's wall time,
its peak resident set size
(``resource.getrusage(RUSAGE_CHILDREN).ru_maxrss``, KiB on Linux) and
pytest's last output line.  One run per call, so the peak belongs to
that run.  This is a measurement, not a gate: it exits with pytest's
code.
"""

from __future__ import annotations

import os
import pathlib
import resource
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]


def main() -> int:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=ROOT, env=env, capture_output=True,
                          text=True)
    wall = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    lines = proc.stdout.strip().splitlines()
    print(f"wall_s {wall:.2f}")
    print(f"peak_rss_mb {peak_mb:.1f}")
    print(f"pytest {lines[-1] if lines else '(no output)'}")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
