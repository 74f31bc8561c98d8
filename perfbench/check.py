"""Correctness check of one workload's CSV.

A CSV passes when:

- it has exactly the expected rows, in order (no missing or extra row);
- every outage value lies in [0, 1] and every throughput equals
  (1 - p_out_n) R_n + (1 - p_out_m) R_m;
- each analytic series falls monotonically with SNR;
- every MC p_out_n (and p_out_m in independent mode) lies within
  max(5 stderr, 1e-4) of ``coopnoma.analytic.evaluate`` at that point;
- sampled closed-form values, from the CSV or from ``evaluate`` at the
  MC points, match an independent scipy reference to a relative error
  of 1e-9: ``betainc(i, M-i+1, F)`` for each rank CDF and
  ``scipy.special.k1`` for the relay factor.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import replace

from scipy.special import betainc, k1

from coopnoma.analytic import evaluate
from coopnoma.cli import load_config

COLUMNS = ["gamma0_db", "m", "n", "engine", "mode", "p_out_n", "p_out_m", "stderr_n",
           "stderr_m", "throughput"]
REFERENCE_REL_TOL = 1e-9
REFERENCE_SAMPLES = 64
MAX_ERRORS = 10


def reference_point(cfg, geo, gamma0: float, relay: bool) -> tuple[float, float]:
    """(p_out_n, p_out_m) from scipy primitives, written apart from ``analytic``."""
    th_m = 2.0 ** cfg.R_m - 1.0
    th_n = 2.0 ** cfg.R_n - 1.0
    if th_m >= cfg.a_m / cfg.a_n:
        return 1.0, 1.0

    def rank_cdf(i: int, x: float) -> float:
        return float(betainc(i, cfg.M - i + 1, -math.expm1(-x / cfg.lambda_sd)))

    alpha = th_m / ((cfg.a_m - cfg.a_n * th_m) * gamma0)
    dn, dm = geo.d_sdn ** cfg.theta, geo.d_sdm ** cfg.theta
    p_n = rank_cdf(cfg.n, max(alpha * dn, th_n * dn / (cfg.a_n * gamma0)))
    a = rank_cdf(cfg.n, alpha * dn)
    b = rank_cdf(cfg.m, alpha * dm)
    c = 1.0
    if relay:
        da, db = geo.d_dnr ** cfg.theta, geo.d_rdm ** cfg.theta
        t = 2.0 * math.sqrt(da * db * th_m * (th_m + 1.0)
                            / (gamma0 * gamma0 * cfg.lambda_dnr * cfg.lambda_rdm))
        surv = math.exp(-(th_m / gamma0) * (db / cfg.lambda_rdm + da / cfg.lambda_dnr))
        c = 1.0 - surv * t * float(k1(t))
    return p_n, a + (1.0 - a) * b * c


def _close(x: float, y: float) -> bool:
    return abs(x - y) <= REFERENCE_REL_TOL * max(abs(x), abs(y))


def check_csv(workload, csv_path, seed: int) -> list[str]:
    """Return the problems found in ``csv_path``; empty when the CSV is correct.

    ``seed`` chooses which analytic rows are compared with the scipy reference.
    """
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        records = list(reader)
    if header != COLUMNS:
        return [f"header {header!r} is not {COLUMNS!r}"]
    expected = workload.expected_rows()
    if len(records) != len(expected):
        return [f"{len(records)} rows, expected {len(expected)}"]
    cfg, geo, mc, _ = load_config(workload.scenario_path)
    errors: list[str] = []
    rows = []
    for line, (record, (g, engine)) in enumerate(zip(records, expected), start=2):
        row = dict(zip(COLUMNS, record))
        key = (f"{g:.10g}", str(cfg.m), str(cfg.n), engine)
        if len(record) != len(COLUMNS) or tuple(record[:4]) != key:
            return [f"line {line}: {record!r} is not the row for "
                    f"gamma0_db={g:.10g} engine={engine} m={cfg.m} n={cfg.n}"]
        try:
            values = {k: float(row[k]) for k in ("p_out_n", "p_out_m", "throughput")}
            if engine.startswith("mc"):
                values |= {k: float(row[k]) for k in ("stderr_n", "stderr_m")}
        except ValueError:
            return [f"line {line}: non-numeric field in {record!r}"]
        rows.append((line, g, engine, values))

    for line, g, engine, v in rows:
        if not (0.0 <= v["p_out_n"] <= 1.0 and 0.0 <= v["p_out_m"] <= 1.0):
            errors.append(f"line {line}: outage outside [0, 1]")
        want = (1.0 - v["p_out_n"]) * cfg.R_n + (1.0 - v["p_out_m"]) * cfg.R_m
        if not abs(v["throughput"] - want) <= 1e-8 * (cfg.R_n + cfg.R_m):
            errors.append(f"line {line}: throughput {v['throughput']} is not {want}")

    for engine in ("analytic", "analytic-norelay"):
        series = [(line, v) for line, _, e, v in rows if e == engine]
        for (_, prev), (line, cur) in zip(series, series[1:]):
            for k in ("p_out_n", "p_out_m"):
                if cur[k] > prev[k]:
                    errors.append(f"line {line}: {engine} {k} rises with SNR "
                                  f"({prev[k]} -> {cur[k]})")

    analytic_rows = [r for r in rows if r[2].startswith("analytic")]
    if len(analytic_rows) > REFERENCE_SAMPLES:
        picked = random.Random(seed).sample(analytic_rows[1:-1], REFERENCE_SAMPLES - 2)
        analytic_rows = [analytic_rows[0], *picked, analytic_rows[-1]]
    for line, g, engine, v in analytic_rows:
        ref = reference_point(cfg, geo, 10.0 ** (g / 10.0), not engine.endswith("norelay"))
        for k, r in zip(("p_out_n", "p_out_m"), ref):
            if not _close(v[k], r):
                errors.append(f"line {line}: {k}={v[k]!r} but the scipy reference gives {r!r}")

    for line, g, engine, v in rows:
        if not engine.startswith("mc"):
            continue
        relay = not engine.endswith("norelay")
        gamma0 = 10.0 ** (g / 10.0)
        point = evaluate(replace(cfg, gamma0=gamma0), geo, relay=relay)
        ref = reference_point(cfg, geo, gamma0, relay)
        checked = ("p_out_n", "p_out_m") if mc.mode == "independent" else ("p_out_n",)
        for k, r in zip(("p_out_n", "p_out_m"), ref):
            exact = getattr(point, k)
            if not _close(exact, r):
                errors.append(f"line {line}: evaluate {k}={exact!r} but the scipy reference "
                              f"gives {r!r}")
            if k in checked:
                tol = max(5.0 * v["stderr" + k[-2:]], 1e-4)
                if abs(v[k] - exact) > tol:
                    errors.append(f"line {line}: MC {k}={v[k]!r} is {abs(v[k] - exact):.3g} "
                                  f"from the closed form {exact!r} (tolerance {tol:.3g})")
    return errors[:MAX_ERRORS]
