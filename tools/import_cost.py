#!/usr/bin/env python3
"""Interleaved set-up cost of two checkouts: import-only children, no CLI run.

    python3 tools/import_cost.py PARENT_DIR CHANGE_DIR --pairs 30

Each child is a fresh Python process that runs ``import coopnoma.cli``
from its checkout's ``src``, reads its peak RSS (``ru_maxrss``), then
calls ``load_config`` on the checkout's
``perfbench/scenarios/snr_sweep_ref.ini`` and reports
``time.monotonic()``.  Its set-up time is that reading less the one
taken just before the child was started, so it holds interpreter start,
the imports and the config read, as the benchmark's ``setup_s`` does.
One unrecorded warm-up child per tree comes first.  The tree that goes
first alternates from pair to pair.  Prints, for the set-up seconds and
the RSS after the import, the median of each tree, the change in
percent, the parent's interquartile range and in how many pairs each
tree had the smaller value (a tie counts for neither), in
``tools/ab_bench.py``'s table.

A claim on set-up time needs these import-only children: the
benchmark's ten pairs of whole runs cannot resolve a change of a few
percent.  Nothing is written in either checkout: the children run in an
empty temporary directory and write no bytecode
(``PYTHONDONTWRITEBYTECODE``), so each compiles its checkout's own
modules afresh.  This is a measurement, not a gate: it exits 0 whenever
every child completed.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time

sys.dont_write_bytecode = True  # nor does this tool leave a __pycache__ beside itself
from ab_bench import HEADER, TREES, summary_line

SCENARIO = "perfbench/scenarios/snr_sweep_ref.ini"
CHILD = """\
import resource, sys, time
import coopnoma.cli
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
coopnoma.cli.load_config(sys.argv[1])
print(time.monotonic(), rss_mb)
"""


def child(tree: pathlib.Path, scratch: str) -> tuple[float, float]:
    """One import-only child of ``tree``: (set-up seconds, MB resident after the import)."""
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", CHILD, str(tree.resolve() / SCENARIO)],
                          cwd=scratch, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{tree}: child exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    mark, rss_mb = map(float, proc.stdout.split())
    return mark - start, rss_mb


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=pathlib.Path, help="checkout of the parent commit")
    ap.add_argument("change", type=pathlib.Path, help="checkout of the change")
    ap.add_argument("--pairs", type=int, default=30, help="recorded children per tree")
    ap.add_argument("--json", type=pathlib.Path, metavar="PATH", help="also write every child")
    args = ap.parse_args(argv)

    runs = {tree: {"setup_s": [], "import_rss_mb": []} for tree in TREES}
    with tempfile.TemporaryDirectory() as scratch:
        for tree in TREES:
            child(getattr(args, tree), scratch)
        for k in range(args.pairs):
            for tree in (TREES if k % 2 == 0 else TREES[::-1]):
                setup_s, rss_mb = child(getattr(args, tree), scratch)
                runs[tree]["setup_s"].append(setup_s)
                runs[tree]["import_rss_mb"].append(rss_mb)

    print(f"{args.pairs} interleaved import-only pairs, {SCENARIO}")
    print(HEADER)
    for name in ("setup_s", "import_rss_mb"):
        print(summary_line(name, runs["parent"][name], runs["change"][name], "lower"))
    if args.json:
        args.json.write_text(json.dumps({
            "pairs": args.pairs,
            "first": "parent on even pairs (from 0), change on odd", "runs": runs},
            indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
