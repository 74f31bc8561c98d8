"""Spans around the public functions of each coopnoma layer, and their arithmetic.

``Tracer.install`` replaces public names in the module namespace where
the package looks them up (``coopnoma.cli.evaluate``,
``coopnoma.analytic.ordered_cdf``, ``coopnoma.mcsim.trial_stream``, ...)
with wrappers that record one span per call.  The thread pools of ``cli``
and ``mcsim`` are swapped for a subclass that hands the submitting
span to the worker thread, so a chunk run on a pool thread is still the
child of the ``estimate`` call that submitted it.  Spans are kept in
memory; the caller writes them out when the run ends.

Times are ``time.perf_counter_ns`` readings.  A span's self time is its
duration minus the part of it that its children cover; children on
other threads may overlap each other, so covered time is the length of
the union of their intervals, clipped to the parent.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

SINR_FUNCTIONS = ("sinr_direct_weak", "sinr_strong_decodes_weak", "snr_strong_own",
                  "sinr_relayed")

# Per-layer metrics that count work.  They depend only on the inputs, so
# two traced runs of one commit and seed must give identical values.
COUNT_METRICS = (
    "cli.rows", "mcsim.estimate_calls", "mcsim.chunks", "mcsim.uniforms_drawn",
    "mcsim.useful_draw_ratio", "linklevel.sinr_calls", "analytic.evaluate_calls",
    "analytic.bessel_k1_calls", "orderstat.ordered_cdf_calls", "orderstat.cdf_terms",
    "trace.spans",
)


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if name.endswith("_ratio"):
        return "ratio"
    if name in COUNT_METRICS or name.endswith(("_calls", "max_threads")):
        return "count"
    if "_us_" in name:
        return "us"
    if "ns_per_trial" in name:
        return "ns"
    return "s"


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    t0: int
    t1: int
    thread: int
    threads: int   # threading.active_count() when the span started
    extra: object  # per-call facts the metrics need (sizes, keys)


class Tracer:
    """Records spans from wrapped functions; one per traced process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int | None]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, module, attr: str, name: str, extra=None) -> None:
        """Replace ``module.attr`` with a wrapper that records a span named ``name``.

        ``extra``, if given, is called with the call's arguments before the
        call and its result is stored on the span.
        """
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            info = extra(*args, **kwargs) if extra else None
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            threads = threading.active_count()
            stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                self.spans.append(Span(sid, parent, name, t0, t1, threading.get_ident(),
                                       threads, info))

        setattr(module, attr, traced)

    def executor_class(self):
        """ThreadPoolExecutor whose tasks run as children of the submitting span."""
        tracer = self

        class SpanExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else None

                def task():
                    own = tracer._stack()
                    own.append(parent)
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        own.pop()

                return super().submit(task)

        return SpanExecutor

    def install(self) -> None:
        """Wrap the public functions of cli, analytic, orderstat, mcsim and linklevel."""
        from coopnoma import analytic, cli, mcsim

        def estimate_extra(cfg, geo, mc, **_):
            key = (mc.seed, mc.trials, mc.chunk_size, cfg.M, cfg.lambda_sd, cfg.lambda_dnr,
                   cfg.lambda_rdm, mc.mode)
            return mc.trials, mc.trials * mcsim.draws_per_trial(cfg.M, mc.mode), key

        self.wrap(cli, "main", "cli.main")
        self.wrap(cli, "load_config", "cli.load_config")
        self.wrap(cli, "run_sweep", "cli.run_sweep")
        self.wrap(cli, "write_csv", "cli.write_csv", extra=lambda rows, path: len(rows))
        self.wrap(cli, "evaluate", "analytic.evaluate")
        self.wrap(cli, "estimate", "mcsim.estimate", extra=estimate_extra)
        self.wrap(analytic, "ordered_cdf", "orderstat.ordered_cdf",
                  extra=lambda spec, x: spec.M - spec.i + 1)
        self.wrap(analytic, "two_hop_outage", "analytic.two_hop_outage")
        self.wrap(analytic, "bessel_k1", "analytic.bessel_k1")
        self.wrap(mcsim, "trial_stream", "mcsim.trial_stream")
        for fn in SINR_FUNCTIONS:
            self.wrap(mcsim, fn, "linklevel." + fn)
        cli.ThreadPoolExecutor = mcsim.ThreadPoolExecutor = self.executor_class()


def union_ns(intervals) -> int:
    """Total length covered by a set of [t0, t1) intervals."""
    total = 0
    end = None
    for t0, t1 in sorted(intervals):
        if end is None or t0 > end:
            total += t1 - t0
            end = t1
        elif t1 > end:
            total += t1 - end
            end = t1
    return total


def self_ns(span: Span, children) -> int:
    """Span duration minus the part of it its children cover."""
    clipped = [(max(c.t0, span.t0), min(c.t1, span.t1)) for c in children]
    return (span.t1 - span.t0) - union_ns((a, b) for a, b in clipped if b > a)


def tail(values):
    """Highest sample with at least ten samples above it.

    Below 21 samples that sample would not lie above the median, so the
    maximum is reported instead.
    """
    ordered = sorted(values)
    return ordered[-11] if len(ordered) > 20 else ordered[-1]


def _per_call(metrics: dict, prefix: str, spans: list[Span]) -> None:
    us = [(s.t1 - s.t0) / 1e3 for s in spans]
    metrics[prefix + "_calls"] = len(spans)
    metrics[prefix + "_us_p50"] = statistics.median(us) if us else 0.0
    metrics[prefix + "_us_tail"] = tail(us) if us else 0.0


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer metrics of one traced ``main`` call.

    ``*_s`` of a layer is wall time during which at least one of its
    calls was running; ``*_self_s`` sums each span's self time.  Layers
    that did not run report zero.
    """
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        children[s.parent].append(s)

    def covered_s(group):
        return union_ns((s.t0, s.t1) for s in group) / 1e9

    def summed_self_s(group):
        return sum(self_ns(s, children[s.id]) for s in group) / 1e9

    sweep = by_name["cli.run_sweep"]
    estimates = by_name["mcsim.estimate"]
    trials = sum(s.extra[0] for s in estimates)
    sinr = [s for s in spans if s.name.startswith("linklevel.")]
    m = {
        "cli.sweep_s": covered_s(sweep),
        "cli.self_s": summed_self_s(sweep),
        "cli.write_csv_s": covered_s(by_name["cli.write_csv"]),
        "cli.rows": sum(s.extra for s in by_name["cli.write_csv"]),
        "cli.max_threads": max(s.threads for s in spans),
        "cli.load_config_s": statistics.median(
            (s.t1 - s.t0) / 1e9 for s in by_name["cli.load_config"]),
        "mcsim.estimate_calls": len(estimates),
        "mcsim.chunks": len(by_name["mcsim.trial_stream"]),
        "mcsim.uniforms_drawn": sum(s.extra[1] for s in estimates),
        "mcsim.useful_draw_ratio": (len({s.extra[2] for s in estimates}) / len(estimates)
                                    if estimates else 0.0),
        "mcsim.estimate_s": covered_s(estimates),
        "mcsim.ns_per_trial": covered_s(estimates) * 1e9 / trials if trials else 0.0,
        "linklevel.sinr_calls": len(sinr),
        "linklevel.sinr_s": covered_s(sinr),
        "analytic.evaluate_self_s": summed_self_s(by_name["analytic.evaluate"]),
        "orderstat.cdf_terms": sum(s.extra for s in by_name["orderstat.ordered_cdf"]),
        "trace.spans": len(spans),
    }
    _per_call(m, "analytic.evaluate", by_name["analytic.evaluate"])
    _per_call(m, "analytic.bessel_k1", by_name["analytic.bessel_k1"])
    _per_call(m, "orderstat.ordered_cdf", by_name["orderstat.ordered_cdf"])
    return m
