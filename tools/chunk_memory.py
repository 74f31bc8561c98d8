#!/usr/bin/env python3
"""Peak memory and CPU cost of one Monte-Carlo ``estimate`` in a fresh process.

    python3 tools/chunk_memory.py --M 20 --pair 10 20 --mode joint --trials 16000000
    python3 tools/chunk_memory.py --M 100 --pair 1 100 --mode independent --workers 1

Run it once per measurement: the process imports coopnoma, pins itself
to ``--workers`` of the CPUs it may use (so ``estimate`` starts that many
chunk threads), makes one ``estimate`` call at the reference scenario's
other parameters (20 dB, seed 20180415) and prints one JSON object:

- ``peak_rss_mb``: the process's peak resident set (``ru_maxrss``), and
  ``import_rss_mb``, the same read just before the call;
- ``minor_faults``, ``user_s`` and ``sys_s``: ``getrusage`` deltas over
  the call;
- ``wall_s``: the call's wall time.

Only this process is measured; nothing about the machine is changed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import resource
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from coopnoma.linklevel import Geometry, SystemConfig  # noqa: E402
from coopnoma.mcsim import McConfig, estimate  # noqa: E402


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--M", type=int, default=20)
    ap.add_argument("--pair", type=int, nargs=2, default=(10, 20), metavar=("m", "n"))
    ap.add_argument("--mode", choices=("joint", "independent"), default="joint")
    ap.add_argument("--trials", type=int, default=16_000_000)
    ap.add_argument("--workers", type=int, default=len(os.sched_getaffinity(0)))
    args = ap.parse_args(argv)
    cpus = sorted(os.sched_getaffinity(0))
    if not 1 <= args.workers <= len(cpus):
        ap.error(f"--workers must lie in 1..{len(cpus)}, the CPUs this process may use")
    os.sched_setaffinity(0, cpus[:args.workers])

    cfg = SystemConfig(M=args.M, m=args.pair[0], n=args.pair[1], a_m=0.8, a_n=0.2,
                       gamma0=100.0)  # 20 dB
    geo = Geometry(4.0, 6.0, 4.0, math.radians(40.0), math.radians(60.0))
    mc = McConfig(trials=args.trials, seed=20180415, mode=args.mode)
    before = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    point, = estimate(cfg, geo, mc)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_SELF)
    print(json.dumps({
        "M": args.M, "pair": list(args.pair), "mode": args.mode, "trials": args.trials,
        "workers": args.workers,
        "events": [point.p_out_n.events, point.p_out_m.events],
        "peak_rss_mb": round(after.ru_maxrss / 1024, 1),  # ru_maxrss is in KiB on Linux
        "import_rss_mb": round(before.ru_maxrss / 1024, 1),
        "minor_faults": after.ru_minflt - before.ru_minflt,
        "user_s": round(after.ru_utime - before.ru_utime, 3),
        "sys_s": round(after.ru_stime - before.ru_stime, 3),
        "wall_s": round(wall, 3),
    }))


if __name__ == "__main__":
    main()
