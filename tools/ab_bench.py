#!/usr/bin/env python3
"""Interleaved A/B timing of one benchmark workload on two checkouts.

    python3 tools/ab_bench.py PARENT_DIR CHANGE_DIR --workload analytic_dense --pairs 10
    python3 tools/ab_bench.py PARENT_DIR CHANGE_DIR --workload snr_sweep_ref --seed 41

Runs ``python3 perfbench/run.py --workload W --seed N --seconds S`` in
each checkout in turn, ``--pairs`` times, pair k (from 0) at seed
11 + k, or at every pair's ``--seed`` where one is given, and S the
``run_seconds`` of this repository's ``BENCHMARK.json``, so both trees
run as the benchmark runs them.  The
tree that goes first alternates from pair to pair, so neither always
runs on a warmer or a quieter host.  Then prints, for every end-to-end
metric that ``BENCHMARK.json`` names: the median of each tree, the
change in percent, the interquartile range of the parent's runs
(quartiles by ``statistics.quantiles``' inclusive method), how many
pairs each tree won (a tie counts for neither) and a verdict:

- ``gain``: the change won at least 9 in 10 pairs and its median beats
  the parent's by more than the parent's interquartile range;
- ``worse``: the change's median is worse than the parent's by more than
  the metric's ``bound`` in ``BENCHMARK.json``, a fraction of the
  parent's median;
- ``unresolved``: the parent's interquartile range is wider than that
  bound, so these runs cannot tell a move of the bound's size (for
  ``setup_s``, ``tools/import_cost.py`` can);
- ``flat``: anything else.

Last, it prints in how many pairs the two trees wrote CSVs with the
same sha256 (the seed changes the Monte-Carlo rows, so only the two runs
of one pair compare).  ``--json PATH`` also writes every run's metrics
and CSV digest there.

This is a measurement, not a gate: it exits 0 whenever every run
completed, whatever the numbers say.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
TREES = ("parent", "change")
FIRST_SEED = 11


def bench_once(tree: pathlib.Path, workload: str, seed: int, seconds: float) -> tuple[dict, str]:
    """One ``perfbench/run.py`` invocation in ``tree``: its metric values and its CSV sha256."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)], cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{tree}: perfbench/run.py exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{tree}: perfbench/run.py reports incorrect output:\n{proc.stdout}")
    digest = next(line.rsplit(" ", 1)[1] for line in lines if "CSV sha256 " in line)
    return {name: m["value"] for name, m in result["metrics"].items()}, digest


HEADER = (f"{'metric':<14} {'parent':>11} {'change':>11} {'change %':>9} {'parent IQR':>11} "
          f"{'wins (change/parent)':>21} {'verdict':>10}")


def summary_line(name: str, parent: list[float], change: list[float], better: str,
                 bound: float | None = None) -> str:
    """One metric's row under ``HEADER``: both medians, the change in percent,
    the parent's interquartile range, the pairs each tree won (``better`` is
    "higher" or "lower"; a tie counts for neither) and the verdict (see the
    module notes; with no ``bound``, only ``gain`` or ``flat``)."""
    sign = 1 if better == "higher" else -1
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = (statistics.quantiles(parent, n=4, method="inclusive") if len(parent) > 1
                 else (p_med,) * 3)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    gained = sign * (c_med - p_med)
    if 10 * wins >= 9 * len(parent) and gained > q3 - q1:
        verdict = "gain"
    elif bound is not None and -gained > bound * abs(p_med):
        verdict = "worse"
    elif bound is not None and q3 - q1 > bound * abs(p_med):
        verdict = "unresolved"
    else:
        verdict = "flat"
    return (f"{name:<14} {p_med:>11.4g} {c_med:>11.4g} {100 * (c_med / p_med - 1):>+8.1f}% "
            f"{q3 - q1:>11.3g} {f'{wins}/{losses}':>21} {verdict:>10}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=pathlib.Path, help="checkout of the parent commit")
    ap.add_argument("change", type=pathlib.Path, help="checkout of the change")
    ap.add_argument("--workload", default="analytic_dense", help="perfbench workload name")
    ap.add_argument("--pairs", type=int, default=10, help="runs per tree")
    ap.add_argument("--seed", type=int, metavar="N", help="run every pair at this seed")
    ap.add_argument("--json", type=pathlib.Path, metavar="PATH", help="also write the raw runs")
    args = ap.parse_args(argv)
    seeds = [FIRST_SEED + k if args.seed is None else args.seed for k in range(args.pairs)]

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = benchmark["end_to_end"]
    seconds = benchmark["run_seconds"]
    values = {tree: {m["name"]: [] for m in metrics} for tree in TREES}
    digests = {tree: [] for tree in TREES}
    for k in range(args.pairs):
        order = TREES if k % 2 == 0 else TREES[::-1]
        for tree in order:
            got, digest = bench_once(getattr(args, tree), args.workload, seeds[k], seconds)
            digests[tree].append(digest)
            for m in metrics:
                values[tree][m["name"]].append(got[m["name"]])
        print(f"pair {k + 1}/{args.pairs}: " + ", ".join(
            f"{tree} wall_s {values[tree]['wall_s'][-1]:.4g}" for tree in TREES), flush=True)

    print(f"\n{args.workload}, {args.pairs} interleaved pairs, seeds {seeds[0]}-{seeds[-1]}, "
          f"--seconds {seconds:g}")
    print(HEADER)
    for m in metrics:
        name = m["name"]
        line = summary_line(name, values["parent"][name], values["change"][name], m["better"],
                            m.get("bound"))
        print(line)
        if name == "setup_s" and line.endswith("unresolved"):
            print("  setup_s: compare set-up alone with tools/import_cost.py")
    same = sum(p == c for p, c in zip(*digests.values()))
    print(f"CSV sha256: parent and change agree in {same}/{args.pairs} pairs")
    if args.json:
        args.json.write_text(json.dumps({
            "workload": args.workload, "seeds": [seeds[0], seeds[-1]],
            "seconds": seconds, "first": "parent on even pairs (from 0), change on odd",
            "runs": values, "csv_sha256": digests}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
