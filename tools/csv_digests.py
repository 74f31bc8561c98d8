#!/usr/bin/env python3
"""sha256 of the CSV each benchmark workload writes, for a set of seeds.

    python3 tools/csv_digests.py --seeds 11-20
    python3 tools/csv_digests.py --seeds 11 12 --workload snr_sweep_ref

Runs ``coopnoma.cli.main(Workload.argv(seed, out))`` in this process for
every (workload, seed), with ``out`` under a temporary directory, and
prints one line per run to standard output: workload, seed and the
CSV's sha256 (what ``main`` itself prints goes to standard error).  Two
trees write byte-identical CSVs exactly where their outputs match line
for line, so the tool run on both sides of a change checks the CSV
contract.  It imports ``perfbench/workloads.py`` and writes nothing in
the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from coopnoma import cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def seeds(specs: list[str]) -> list[int]:
    """Seeds from a list of integers and inclusive ranges ``A-B``."""
    out = []
    for spec in specs:
        lo, _, hi = spec.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", nargs="+", default=["11-20"], help="seeds or ranges A-B")
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    args = ap.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            for seed in seeds(args.seeds):
                out = pathlib.Path(tmp) / f"{name}-{seed}.csv"
                with contextlib.redirect_stdout(sys.stderr):
                    code = cli.main(WORKLOADS[name].argv(seed, out))
                if code:
                    sys.exit(f"{name} seed {seed}: coopnoma exited with {code}")
                print(name, seed, hashlib.sha256(out.read_bytes()).hexdigest(), flush=True)


if __name__ == "__main__":
    main()
