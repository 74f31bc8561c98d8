"""coopnoma benchmark: time ``coopnoma.cli.main`` end to end, or trace its layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Each measured run is ``coopnoma.cli.main(argv)`` in a fresh Python
process (``child.py``), one at a time, so the numbers are what a user of
the CLI waits for, the CLI's own thread pools included.  This process
only starts children, reads their records and hashes their CSVs.

``--trace 0`` reports the end-to-end metrics: medians over the runs made
in ``--seconds``.  ``--trace 1`` alternates untraced and traced runs and
reports per-layer metrics from the traced ones plus the micro-kernels.
Either way the CSVs are checked for correctness (``check.py``).  The
last line of standard output is one JSON object with keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--workload all`` runs every
workload untraced and prints a table instead.

Outputs go under ``.bench_build/perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from spans import COUNT_METRICS, unit_of
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
OUT = ROOT / ".bench_build" / "perfbench"

SETUP_SAMPLES = 15   # set-up-only children per untraced run, after one warm-up
MIN_RUNS = 3         # CLI runs per untraced run, whatever --seconds is
MIN_TRACED = 2       # traced CLI runs per traced run; their counts must agree
DEADLINE_S = 170.0   # no child is started, or left running, past this


class ChildFailed(Exception):
    pass


@dataclass
class Run:
    wall_s: float
    setup_s: float
    peak_rss_mb: float
    metrics: dict = field(default_factory=dict)


class Bench:
    """One benchmark invocation: its children, their records and its failures."""

    def __init__(self, workload, seed: int, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.start = time.monotonic()
        self.work = OUT / f"{workload.name}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.attempted = 0
        self.problems: list[str] = []
        self.first_csv: Path | None = None
        self.digest: str | None = None
        self.run_times: list[float] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def fits(self, seconds: float, runs: int) -> bool:
        """Whether ``runs`` more CLI runs of typical length end within ``seconds``."""
        return self.elapsed() + runs * statistics.median(self.run_times) <= seconds

    def child(self, *args: str) -> tuple[dict, float]:
        """Run child.py to completion; returns its record and its start time."""
        timeout = DEADLINE_S - self.elapsed()
        if timeout <= 0:
            raise ChildFailed("out of time")
        started = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(CHILD), *args], capture_output=True,
                                  text=True, timeout=timeout, cwd=ROOT)
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"child {args[0]} killed after {timeout:.0f} s") from None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines or not lines[-1].startswith("PERFBENCH "):
            raise ChildFailed(f"child {args[0]} exited {proc.returncode}: "
                              f"{proc.stderr.strip()[-500:]}")
        return json.loads(lines[-1][len("PERFBENCH "):]), started

    def setup(self) -> float:
        record, started = self.child("setup", str(self.workload.scenario_path))
        return record["setup_mark"] - started

    def cli_run(self, traced: bool) -> Run | None:
        """One ``main(argv)`` run; None (and a recorded problem) if it failed."""
        self.attempted += 1
        n = self.attempted
        csv_path = self.work / f"run{n}.csv"
        spans_path = self.work / f"spans{n}.json" if traced else "-"
        argv = self.workload.argv(self.seed, csv_path)
        try:
            record, started = self.child("run", str(self.workload.scenario_path),
                                         str(spans_path), *argv)
        except ChildFailed as exc:
            self.problems.append(f"run {n}: {exc}")
            return None
        self.run_times.append(time.monotonic() - started)
        digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
        if self.first_csv is None:
            self.first_csv, self.digest = csv_path, digest
        else:
            csv_path.unlink()
            if digest != self.digest:
                self.problems.append(f"run {n}: CSV sha256 {digest} differs from run 1's "
                                     f"{self.digest}")
                return None
        return Run(record["wall_s"], record["setup_mark"] - started, record["peak_rss_mb"],
                   record.get("metrics", {}))

    def check(self) -> None:
        if self.first_csv is None:
            return
        try:
            record, _ = self.child("check", self.workload.name, str(self.seed),
                                   str(self.first_csv))
        except ChildFailed as exc:
            self.problems.append(f"check: {exc}")
            return
        self.problems += [f"check: {e}" for e in record["errors"]]


def measure(workload, seed: int, seconds: float) -> tuple[Bench, list[Run], list[float]]:
    bench = Bench(workload, seed, trace=False)
    runs: list[Run] = []
    setups: list[float] = []
    try:
        bench.setup()  # warm-up: writes bytecode caches, fills the page cache
        setups = [bench.setup() for _ in range(SETUP_SAMPLES)]
        while len(runs) < MIN_RUNS or bench.fits(seconds, runs=1):
            run = bench.cli_run(traced=False)
            if run is None:
                break
            runs.append(run)
    except ChildFailed as exc:
        bench.problems.append(str(exc))
    bench.check()
    return bench, runs, setups


def end_to_end(workload, runs: list[Run], setups: list[float]) -> dict:
    wall = statistics.median(r.wall_s for r in runs)
    rows = len(workload.expected_rows())
    return {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setups + [r.setup_s for r in runs]), "s"),
        "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in runs), "MB"),
        "rows_per_s": (rows / wall, "rows/s"),
    }


def traced(workload, seed: int, seconds: float) -> tuple[Bench, dict, dict]:
    bench = Bench(workload, seed, trace=True)
    plain: list[Run] = []
    runs: list[Run] = []
    info: dict = {}
    metrics: dict = {}
    try:
        while len(runs) < MIN_TRACED or bench.fits(seconds, runs=2):
            a, b = bench.cli_run(traced=False), bench.cli_run(traced=True)
            if a is None or b is None:
                break
            plain.append(a)
            runs.append(b)
        record, _ = bench.child("micro", workload.name)
        metrics, info = record["metrics"], record["info"]
    except ChildFailed as exc:
        bench.problems.append(str(exc))
    bench.check()
    if not runs or not plain:
        return bench, {}, info
    for name in runs[0].metrics:
        values = [r.metrics[name] for r in runs]
        if name in COUNT_METRICS:
            if len(set(values)) != 1:
                bench.problems.append(f"count {name} differs between traced runs: {values}")
            metrics[name] = values[0]
        elif name == "cli.max_threads":
            metrics[name] = max(values)
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead_s"] = (statistics.median(r.wall_s for r in runs)
                                   - statistics.median(r.wall_s for r in plain))
    info["traced_wall_s"] = [r.wall_s for r in runs]
    info["untraced_wall_s"] = [r.wall_s for r in plain]
    return bench, metrics, info


def result_line(bench: Bench, metrics: dict) -> dict:
    """A failed check or a run that differs fails every run of the invocation."""
    return {"correct": not bench.problems, "attempted": bench.attempted,
            "failed": bench.attempted if bench.problems else 0, "metrics": metrics}


def describe(workload, seed: int) -> str:
    return (f"workload {workload.name}, seed {seed} (MC seed {workload.mc_seed(seed)}): "
            f"coopnoma {' '.join(workload.argv(seed, Path('<out>.csv')))}")


def summary_rows(workload, bench: Bench, runs: list[Run], setups: list[float]) -> list[str]:
    """Every end-to-end metric, by name and unit, with the correctness verdict."""
    e2e = end_to_end(workload, runs, setups)
    wall = e2e["wall_s"][0]
    analytic_rows = sum(1 for _, e in workload.expected_rows() if e.startswith("analytic"))
    failed = result_line(bench, {})["failed"]
    lines = [f"  {name:<20} {value:>14.6g} {unit}" for name, (value, unit) in e2e.items()]
    lines += [
        f"  {'mc_trials_per_s':<20} " + (f"{workload.mc_trials() / wall:>14.6g} trials/s"
                                          if workload.mc_trials() else f"{'n/a':>14}"),
        f"  {'analytic_rows_per_s':<20} " + (f"{analytic_rows / wall:>14.6g} rows/s"
                                              if analytic_rows else f"{'n/a':>14}"),
        f"  {'error_rate':<20} {failed / bench.attempted:>14.6g} ratio "
        f"({failed} of {bench.attempted} runs failed)",
        f"  wall_s per run: {', '.join(f'{r.wall_s:.3f}' for r in runs)}",
        f"  runs {len(runs)}, set-up samples {len(setups) + len(runs)}, "
        f"CSV sha256 {bench.digest}",
        f"  correct: {not bench.problems}",
    ]
    return lines + [f"  problem: {p}" for p in bench.problems]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "coopnoma" / "cli.py").is_file():
        print(f"error: no coopnoma source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        ok = True
        for workload in WORKLOADS.values():
            bench, runs, setups = measure(workload, args.seed, args.seconds)
            print(describe(workload, args.seed))
            print("\n".join(summary_rows(workload, bench, runs, setups) if runs
                            else [f"  no run completed: {bench.problems}"]), flush=True)
            ok = ok and bool(runs) and not bench.problems
        return 0 if ok else 1

    workload = WORKLOADS[args.workload]
    print(describe(workload, args.seed))
    if args.trace:
        bench, metrics, info = traced(workload, args.seed, args.seconds)
        if not metrics:
            print(f"error: no traced run completed: {bench.problems}", file=sys.stderr)
            return 1
        print(f"  machine: {json.dumps(info)}")
        print(f"  spans: {bench.work}/spans*.json")
        print("\n".join([f"  correct: {not bench.problems}"]
                        + [f"  problem: {p}" for p in bench.problems]))
        out = {name: {"value": value, "unit": unit_of(name)}
               for name, value in sorted(metrics.items())}
        print(json.dumps(result_line(bench, out)))
        return 0

    bench, runs, setups = measure(workload, args.seed, args.seconds)
    if not runs:
        print(f"error: no run completed: {bench.problems}", file=sys.stderr)
        return 1
    print("\n".join(summary_rows(workload, bench, runs, setups)))
    out = {name: {"value": value, "unit": unit}
           for name, (value, unit) in end_to_end(workload, runs, setups).items()}
    print(json.dumps(result_line(bench, out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
