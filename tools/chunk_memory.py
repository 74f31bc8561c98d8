#!/usr/bin/env python3
"""Peak memory and CPU cost of one Monte-Carlo ``estimate``, or of the CLI's
analytic sweep path, in a fresh process.

    python3 tools/chunk_memory.py --M 20 --pair 10 20 --mode joint --trials 16000000
    python3 tools/chunk_memory.py --M 100 --pair 1 100 --mode independent --workers 1
    python3 tools/chunk_memory.py --snr-grid 0:40:5 --trials 1000000 --workers 1
    python3 tools/chunk_memory.py --cli-grid 0:40:0.005
    python3 tools/chunk_memory.py --cli-grid 0:39.9996:0.0004

Run it once per measurement: the process imports coopnoma, pins itself
to ``--workers`` of the CPUs it may use (so ``estimate`` starts that many
chunk threads), makes one ``estimate`` call at the reference scenario's
other parameters (20 dB, seed 20180415) and prints one JSON object:

- ``events``: the strong and the weak user's outage counts, summed over
  the call's scenarios;
- ``peak_rss_mb``: the process's peak resident set (``ru_maxrss``), and
  ``import_rss_mb``, the same read just before the call, with
  ``numpy.random``, which the first chunk would otherwise import, already
  loaded, so the difference is the call's own memory;
- ``buffers_mb``: the chunk buffers the call's workers allocate, from its
  chunk layout: per worker, rows x min(chunk_size, trials) doubles and
  two bool rows;
- ``minor_faults``, ``user_s`` and ``sys_s``: ``getrusage`` deltas over
  the call;
- ``wall_s``: the call's wall time.

``--snr-grid START:STOP:STEP`` makes that one ``estimate`` call over the
grid's K scenarios instead, as the CLI's fused sweep does: the
``snr_sweep_ref`` benchmark scenario (M = 6, pair (3, 6), independent
mode) at every SNR of that ``--sweep-gamma0-db`` grid, with ``--trials``
trials; ``--M``, ``--pair`` and ``--mode`` do not apply.  It adds the
grid's ``points`` to the object above.  With ``--workers 1``, ``0:40:5``
(K = 9) and ``0:40:0.1`` (K = 401) give the MC's CPU cost against the
scenario count.

``--cli-grid START:STOP:STEP`` measures the CLI path instead: the
``analytic_dense`` benchmark scenario over that ``--sweep-gamma0-db``
grid, analytic engine with the baseline, through ``cli.run_sweep`` and
``cli.write_csv`` (to the null device) under ``tracemalloc``.  It prints
the grid's ``points`` and ``rows`` and, in MB:

- ``sweep_peak_mb``: the traced peak while ``run_sweep`` runs;
- ``held_mb``: what its result holds once it returns;
- ``write_peak_mb``: the traced peak that ``write_csv`` adds to that;
- ``peak_rss_mb`` and ``import_rss_mb`` as above (tracing adds its own
  bookkeeping to both).

The two examples are 8,001 points (the ``analytic_dense`` workload) and
100,000 points (the CLI's cap).

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
import tracemalloc
from dataclasses import replace

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from coopnoma import cli, mcsim  # noqa: E402
from coopnoma.linklevel import Geometry, SystemConfig  # noqa: E402
from coopnoma.mcsim import McConfig, estimate  # noqa: E402


def cli_path(grid: str) -> dict:
    """Traced memory of ``run_sweep`` and ``write_csv`` on the ``analytic_dense`` scenario."""
    root = pathlib.Path(__file__).resolve().parent.parent
    cfg, geo, mc, sweep = cli.load_config(root / "perfbench" / "scenarios" / "analytic_dense.ini")
    sweep = replace(sweep, variable="gamma0_db", values=cli._parse_sweep_range(grid),
                    engines=("analytic",), baseline=True)
    import_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    rows = cli.run_sweep(cfg, geo, mc, sweep)
    held, sweep_peak = (m - before for m in tracemalloc.get_traced_memory())
    tracemalloc.reset_peak()
    cli.write_csv(rows, os.devnull)
    write_peak = tracemalloc.get_traced_memory()[1] - before - held
    tracemalloc.stop()
    mb = 2 ** 20
    return {"grid": grid, "points": len(sweep.values), "rows": len(rows),
            "sweep_peak_mb": round(sweep_peak / mb, 2), "held_mb": round(held / mb, 2),
            "write_peak_mb": round(write_peak / mb, 2),
            "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
            "import_rss_mb": round(import_rss / 1024, 1)}


def grid_scenarios(grid: str) -> tuple[list, str]:
    """The ``snr_sweep_ref`` scenario at every SNR of ``grid``, as ``cli.run_sweep`` builds them,
    and its MC mode."""
    root = pathlib.Path(__file__).resolve().parent.parent
    cfg, geo, mc, sweep = cli.load_config(root / "perfbench" / "scenarios" / "snr_sweep_ref.ini")
    sweep = replace(sweep, variable="gamma0_db", values=cli._parse_sweep_range(grid))
    (cfg, geo, _, gamma0s), = cli._groups(cfg, geo, sweep)
    return [(replace(cfg, gamma0=g), geo) for g in gamma0s], mc.mode


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--M", type=int, default=20)
    ap.add_argument("--pair", type=int, nargs=2, default=(10, 20), metavar=("m", "n"))
    ap.add_argument("--mode", choices=("joint", "independent"), default="joint")
    ap.add_argument("--trials", type=int, default=16_000_000)
    ap.add_argument("--workers", type=int, default=len(os.sched_getaffinity(0)))
    ap.add_argument("--snr-grid", metavar="START:STOP:STEP",
                    help="one estimate over the snr_sweep_ref scenario at every SNR of this grid")
    ap.add_argument("--cli-grid", metavar="START:STOP:STEP",
                    help="measure run_sweep and write_csv on this analytic SNR grid instead")
    args = ap.parse_args(argv)
    if args.cli_grid is not None:
        print(json.dumps(cli_path(args.cli_grid)))
        return
    cpus = sorted(os.sched_getaffinity(0))
    if not 1 <= args.workers <= len(cpus):
        ap.error(f"--workers must lie in 1..{len(cpus)}, the CPUs this process may use")
    os.sched_setaffinity(0, cpus[:args.workers])

    if args.snr_grid is not None:
        scenarios, mode = grid_scenarios(args.snr_grid)
        what = {"grid": args.snr_grid, "points": len(scenarios)}
    else:
        scenarios = [(SystemConfig(M=args.M, m=args.pair[0], n=args.pair[1], a_m=0.8, a_n=0.2,
                                   gamma0=100.0),  # 20 dB
                      Geometry(4.0, 6.0, 4.0, math.radians(40.0), math.radians(60.0)))]
        mode = args.mode
        what = {"M": args.M, "pair": list(args.pair)}
    mc = McConfig(trials=args.trials, seed=20180415, mode=mode)
    size = min(mc.chunk_size, mc.trials)
    workers = min(args.workers, -(-mc.trials // mc.chunk_size))  # as estimate starts them
    per_trial = mcsim._buffers(mcsim._layout(scenarios[0][0].M, scenarios, mode), 1)
    buffers = workers * size * (per_trial.block.nbytes + per_trial.masks.nbytes)
    import numpy.random  # noqa: F401  (the first chunk's import, kept out of the deltas)
    before = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    points = estimate(*scenarios[0], mc, also=scenarios[1:])
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_SELF)
    print(json.dumps({
        **what, "mode": mode, "trials": args.trials, "workers": args.workers,
        "events": [sum(p.p_out_n.events for p in points), sum(p.p_out_m.events for p in points)],
        "peak_rss_mb": round(after.ru_maxrss / 1024, 1),  # ru_maxrss is in KiB on Linux
        "import_rss_mb": round(before.ru_maxrss / 1024, 1),
        "buffers_mb": round(buffers / 2 ** 20, 2),
        "minor_faults": after.ru_minflt - before.ru_minflt,
        "user_s": round(after.ru_utime - before.ru_utime, 3),
        "sys_s": round(after.ru_stime - before.ru_stime, 3),
        "wall_s": round(wall, 3),
    }))


if __name__ == "__main__":
    main()
