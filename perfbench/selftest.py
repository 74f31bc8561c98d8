"""Self-test of the benchmark's own machinery.

    python3 perfbench/selftest.py

Checks that the span arithmetic is right on a hand-built span tree, that
the correctness checker accepts a good CSV and rejects one with a single
corrupted, missing or reordered row, and that two traced runs give
identical counts.  Small workloads keep it under a minute.  Exits
non-zero on the first failure.
"""

from __future__ import annotations

import csv
import io
import math
import shutil
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(1, str(ROOT / "src"))

from coopnoma.cli import main as cli_main  # noqa: E402

import run  # noqa: E402
from check import check_csv  # noqa: E402
from spans import COUNT_METRICS, Span, layer_metrics, self_ns, tail, union_ns  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORK = run.OUT / "selftest"


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"FAIL: {what}")
    print(f"ok: {what}")


def test_span_arithmetic() -> None:
    expect(union_ns([(0, 10), (5, 20), (30, 40)]) == 30, "union of overlapping intervals")
    expect(union_ns([(0, 50), (10, 20)]) == 50, "union of nested intervals")
    # run_sweep [0, 100] with two overlapping evaluate calls on other threads
    # and one estimate that outlives it; evaluate 2 has a child of its own.
    spans = [
        Span(1, None, "cli.run_sweep", 0, 100, 1, 3, None),
        Span(2, 1, "analytic.evaluate", 10, 30, 2, 3, None),
        Span(3, 1, "analytic.evaluate", 20, 50, 3, 3, None),
        Span(4, 1, "mcsim.estimate", 90, 120, 2, 3, (10, 40, "k")),
        Span(5, 3, "orderstat.ordered_cdf", 25, 35, 3, 3, 4),
        Span(6, None, "cli.write_csv", 130, 140, 1, 1, 2),
        Span(7, None, "cli.load_config", 0, 1, 1, 1, None),
    ]
    children = [s for s in spans if s.parent == 1]
    expect(self_ns(spans[0], children) == 100 - 40 - 10,
           "self time is the duration minus the union of children, clipped to the parent")
    m = layer_metrics(spans)
    expect(math.isclose(m["cli.self_s"], 50e-9), "cli.self_s from the tree")
    expect(math.isclose(m["analytic.evaluate_self_s"], 40e-9),
           "evaluate self time sums each span's own self time")
    expect(m["analytic.evaluate_calls"] == 2
           and math.isclose(m["analytic.evaluate_us_p50"], 0.025), "per-call count and median")
    expect((m["cli.rows"], m["orderstat.cdf_terms"], m["mcsim.uniforms_drawn"]) == (2, 4, 40),
           "counts read from span facts")
    expect(math.isclose(m["mcsim.ns_per_trial"], 3.0),
           "ns per trial is covered estimate time per trial")
    expect(tail(range(100)) == 89 and tail([1, 5, 2]) == 5,
           "tail leaves ten samples above it, or is the maximum")


def _corrupt(src: Path, edit) -> Path:
    rows = list(csv.reader(src.open(newline="")))
    edit(rows)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    dst = WORK / "corrupt.csv"
    dst.write_text(buf.getvalue())
    return dst


def _set_outage(line: int, column: int, value):
    """Edit one outage value and keep the row's throughput consistent (R_m = R_n = 1)."""
    def edit(rows):
        row = rows[line - 1]
        row[column] = f"{value(float(row[column])):.10g}"
        row[9] = f"{2.0 - float(row[5]) - float(row[6]):.10g}"
    return edit


def test_checker() -> None:
    # Lines count the header as line 1.  The small sweep has 4 rows per SNR
    # (analytic, analytic-norelay, mc, mc-norelay): line 10 is analytic at
    # 20 dB and line 12 is mc at 20 dB.
    sweep = replace(WORKLOADS["snr_sweep_ref"], grid="0:40:10", trials=20_000)
    dense = replace(WORKLOADS["analytic_dense"], grid="0:40:0.5")
    cases = {
        sweep: [
            ("an analytic p_out_m off by 1e-6 relative", "scipy reference",
             _set_outage(10, 6, lambda p: p * (1 + 1e-6))),
            ("an MC p_out_n off by 0.01", "closed form", _set_outage(12, 5, lambda p: p + 0.01)),
            ("a missing row", "rows, expected", lambda rows: rows.pop(4)),
            ("two rows swapped", "is not the row for", lambda rows: rows.insert(1, rows.pop(2))),
        ],
        dense: [
            # line 122 is analytic at 30 dB, where p_out_n falls tenfold per 0.5 dB
            ("an outage value that rises with SNR", "rises with SNR",
             _set_outage(122, 5, lambda p: p * 100)),
            ("a throughput that does not match its outages", "throughput",
             lambda rows: rows[7].__setitem__(9, "0.5")),
        ],
    }
    for workload, corruptions in cases.items():
        good = WORK / f"{workload.name}.csv"
        expect(cli_main(workload.argv(seed=1, out=good)) == 0, f"{workload.name} runs")
        expect(check_csv(workload, good, seed=1) == [], f"checker accepts {workload.name}")
        for what, reason, edit in corruptions:
            errors = check_csv(workload, _corrupt(good, edit), seed=1)
            expect(any(reason in e for e in errors),
                   f"checker rejects {workload.name} with {what} ({reason!r} in {errors})")


def test_traced_counts_repeat() -> None:
    workload = replace(WORKLOADS["snr_sweep_ref"], grid="0:40:10", trials=100_000)
    bench = run.Bench(workload, seed=3, trace=True)
    first, second = bench.cli_run(traced=True), bench.cli_run(traced=True)
    expect(first is not None and second is not None and not bench.problems,
           f"two traced runs complete {bench.problems}")
    expect(all(first.metrics[k] == second.metrics[k] for k in COUNT_METRICS),
           "two traced runs give identical counts")
    expect(first.metrics["mcsim.useful_draw_ratio"] == 1 / 10,
           "useful draw ratio is one key over ten estimates")


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    test_span_arithmetic()
    test_checker()
    test_traced_counts_repeat()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
