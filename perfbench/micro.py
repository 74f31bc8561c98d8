"""Per-layer micro-kernels on fixed inputs, calling only public functions.

Array kernels work on one 65,536-trial chunk (the CLI's default chunk)
and report ns per trial; scalar kernels report µs per call.  Each kernel
reports its median and tail (``spans.tail``) over a fixed sample count.
"""

from __future__ import annotations

import os
import platform
import statistics
import time
from dataclasses import replace

import numpy as np

from coopnoma import analytic, linklevel, mcsim, orderstat
from coopnoma.orderstat import OrderStatSpec

from spans import tail

CHUNK = 65_536
ARRAY_SAMPLES = 31
CALL_SAMPLES = 2_001
MICRO_GAMMA0_DB = 20.0


def _samples(fn, count: int) -> list[int]:
    fn()  # first call fills caches and lazy set-up
    out = []
    for _ in range(count):
        t0 = time.perf_counter_ns()
        fn()
        out.append(time.perf_counter_ns() - t0)
    return out


def _report(metrics: dict, counts: dict, name: str, ns: list[int], scale: float,
            tail_name: str) -> None:
    values = [v / scale for v in ns]
    metrics[name] = statistics.median(values)
    metrics[tail_name] = tail(values)
    counts[name] = len(values)


def micro_metrics(cfg, geo, mc) -> tuple[dict, dict]:
    """Run every kernel for one scenario; returns (metrics, info).

    ``info`` holds the machine description and each kernel's sample count.
    """
    cfg = replace(cfg, gamma0=10.0 ** (MICRO_GAMMA0_DB / 10.0))
    M = cfg.M
    width = mcsim.draws_per_trial(M, mc.mode)
    rng = np.random.default_rng(0)
    gains = rng.exponential(cfg.lambda_sd, CHUNK)
    hops = rng.exponential(cfg.lambda_dnr, CHUNK)
    spec = OrderStatSpec(M, cfg.n, cfg.lambda_sd)

    def sinr_all():
        linklevel.sinr_direct_weak(cfg, geo, gains)
        linklevel.sinr_strong_decodes_weak(cfg, geo, gains)
        linklevel.snr_strong_own(cfg, geo, gains)
        linklevel.sinr_relayed(cfg, geo, gains, hops)

    metrics: dict = {}
    counts: dict = {}
    per_trial = [
        ("mcsim.uniform_ns_per_trial",
         lambda: mcsim.trial_stream(mc, M, 0).random((CHUNK, width))),
        ("orderstat.sample_ns_per_trial",
         lambda: orderstat.sample_ordered_gains(M, cfg.lambda_sd, rng, size=CHUNK)),
        ("linklevel.sinr_ns_per_trial", sinr_all),
    ]
    for name, fn in per_trial:
        _report(metrics, counts, name, _samples(fn, ARRAY_SAMPLES), CHUNK, name + "_tail")
    per_call = [
        ("analytic.evaluate_micro", lambda: analytic.evaluate(cfg, geo)),
        ("orderstat.ordered_cdf_micro", lambda: orderstat.ordered_cdf(spec, 0.05)),
        ("analytic.bessel_k1_x0.5_micro", lambda: analytic.bessel_k1(0.5)),
        ("analytic.bessel_k1_x5_micro", lambda: analytic.bessel_k1(5.0)),
    ]
    for name, fn in per_call:
        _report(metrics, counts, name + "_us_p50", _samples(fn, CALL_SAMPLES), 1e3,
                name + "_us_tail")
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "machine": platform.machine(),
            "micro_samples": counts, "micro_M": M, "micro_mode": mc.mode,
            "micro_gamma0_db": MICRO_GAMMA0_DB}
    return metrics, info
