"""Acceptance suite: the binding checks for this package.

One test per criterion, each printing a single PASS/FAIL line (visible
with -v -s or in captured output on failure).  Tolerances are stated
inline; Monte-Carlo runs use 10^6 trials at the reference scenario
(M=6 users, pair (3,6), 0.7/0.3 power split, unit rates, theta=2,
d_sdn=4, d_sdm=6, d_dnr=4, angles 40/60 degrees).
"""

import json
import math
import pathlib
import time
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy import integrate

from coopnoma.analytic import bessel_k1, evaluate, two_hop_outage
from coopnoma.cli import main
from coopnoma.linklevel import Geometry, SystemConfig
from coopnoma.mcsim import McConfig, estimate
from coopnoma.orderstat import OrderStatSpec, ordered_cdf, ordered_sf, sample_ordered_gains

HERE = pathlib.Path(__file__).parent
REPORT_PATH = HERE.parent / "acceptance_report.txt"

SNR_GRID_DB = (10.0, 15.0, 20.0, 25.0, 30.0)
MC_TRIALS = 1_000_000
MC_SEED = 20180415
KS_BLOCK = 65_536  # sorted values per block of criterion 5's KS statistic


def reference_config(gamma0_db=20.0, **overrides):
    base = dict(M=6, m=3, n=6, a_m=0.7, a_n=0.3, gamma0=10 ** (gamma0_db / 10.0))
    base.update(overrides)
    return SystemConfig(**base)


def reference_geometry(scale=1.0):
    return Geometry(4.0 * scale, 6.0 * scale, 4.0 * scale,
                    math.radians(40.0), math.radians(60.0))


def report(capsys, name: str, passed: bool, detail: str) -> None:
    # step outside pytest's capture so each criterion leaves a verdict line
    # in the terminal / teed log even on success
    with capsys.disabled():
        print(f"[{name}] {'PASS' if passed else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def mc_cache():
    """Shared 10^6-trial MC runs keyed by (gamma0_db, mode); values include wall time."""
    cache = {}
    geo = reference_geometry()

    def run(db: float, mode: str):
        key = (db, mode)
        if key not in cache:
            cfg = reference_config(db)
            mc = McConfig(trials=MC_TRIALS, seed=MC_SEED, mode=mode)
            t0 = time.perf_counter()
            point, = estimate(cfg, geo, mc)
            cache[key] = (point.p_out_n, point.p_out_m, point.throughput,
                          time.perf_counter() - t0)
        return cache[key]

    return run


def test_c1_strong_user_mc_agreement(mc_cache, capsys):
    """MC outage of the strong user matches the closed form at five SNRs."""
    geo = reference_geometry()
    worst = 0.0
    elapsed = 0.0
    for db in SNR_GRID_DB:
        est_n, _, _, dt = mc_cache(db, "joint")
        elapsed += dt
        p_ref = evaluate(reference_config(db), geo).p_out_n
        tol = max(3.0 * est_n.stderr, 1e-4)
        worst = max(worst, abs(est_n.p_hat - p_ref) / tol)
    ok = worst <= 1.0 and elapsed < 30.0
    report(capsys, "criterion 1",
           ok, f"strong-user closed form vs joint-mode MC at {SNR_GRID_DB} dB, "
               f"1e6 trials: worst |dev|/tol = {worst:.3f}, MC wall time {elapsed:.1f} s "
               f"(budget 30 s)")
    assert worst <= 1.0
    assert elapsed < 30.0


def test_c2_weak_user_mc_agreement(mc_cache, capsys):
    """MC outage of the weak user matches the closed form in independent mode.

    The joint-mode weak-user deviation is recorded in acceptance_report.txt
    (the closed form multiplies marginal CDFs of two ranks of one draw, so
    joint sampling is expected to sit slightly off); nothing is asserted on it.
    """
    geo = reference_geometry()
    worst = 0.0
    lines = [
        "weak-user outage: analytic closed form vs Monte-Carlo (1e6 trials)",
        "",
        f"{'dB':>4} {'analytic':>12} {'indep p_hat':>12} {'indep dev':>10} "
        f"{'joint p_hat':>12} {'joint dev':>10} {'3*stderr':>10}",
    ]
    for db in SNR_GRID_DB:
        _, est_m_ind, _, _ = mc_cache(db, "independent")
        _, est_m_jnt, _, _ = mc_cache(db, "joint")
        p_ref = evaluate(reference_config(db), geo).p_out_m
        tol = max(3.0 * est_m_ind.stderr, 1e-4)
        worst = max(worst, abs(est_m_ind.p_hat - p_ref) / tol)
        lines.append(f"{db:4.0f} {p_ref:12.6g} {est_m_ind.p_hat:12.6g} "
                     f"{est_m_ind.p_hat - p_ref:10.2e} {est_m_jnt.p_hat:12.6g} "
                     f"{est_m_jnt.p_hat - p_ref:10.2e} {3 * est_m_jnt.stderr:10.2e}")
    lines += ["", "independent mode is the asserted oracle; joint-mode deviations",
              "above are informational (rank coupling in one draw)."]
    REPORT_PATH.write_text("\n".join(lines) + "\n")
    ok = worst <= 1.0
    report(capsys, "criterion 2",
           ok, f"weak-user closed form vs independent-mode MC: worst |dev|/tol = "
               f"{worst:.3f}; joint-mode deviation table -> {REPORT_PATH.name}")
    assert ok


def _two_hop_quadrature(gamma_th, gamma0, d_a, d_b, theta, lam_a, lam_b):
    """Direct numerical integration of the exact two-hop outage integral."""
    da, db = d_a ** theta, d_b ** theta
    low = db * gamma_th / gamma0

    def integrand(x):
        cond = gamma_th * da * (gamma0 * x + db) / (
            gamma0 * (gamma0 * x - db * gamma_th) * lam_a)
        return math.exp(-x / lam_b) / lam_b * math.exp(-cond)

    val, _ = integrate.quad(integrand, low, np.inf, epsabs=1e-14, epsrel=1e-13, limit=400)
    return 1.0 - val


def test_c3_two_hop_closed_form_vs_quadrature(capsys):
    """Closed form (Bessel-K1) equals the defining integral to 1e-6 relative."""
    gamma0s = np.logspace(0, 4, 5)
    dists = np.logspace(0, 1, 5)
    worst = 0.0
    for g0 in gamma0s:
        for d_a in dists:
            for d_b in dists:
                closed = two_hop_outage(1.0, float(g0), float(d_a), float(d_b), 2.0, 1.0, 1.0)[0]
                ref = _two_hop_quadrature(1.0, float(g0), float(d_a), float(d_b), 2.0, 1.0, 1.0)
                worst = max(worst, abs(closed - ref) / ref)
    ok = worst <= 1e-6
    report(capsys, "criterion 3",
           ok, f"two-hop outage closed form vs quadrature on 5x5x5 log grid: "
               f"worst rel err = {worst:.2e} (tol 1e-6)")
    assert ok


def test_c4_bessel_k1_reference(capsys):
    """K1 matches the high-precision fixture to 1e-10 relative."""
    points = json.loads((HERE / "fixtures" / "k1_reference.json").read_text())["points"]
    worst = max(abs(bessel_k1(x) - ref) / ref for x, ref in points)
    ok = worst <= 1e-10
    report(capsys, "criterion 4",
           ok, f"K1 vs {len(points)}-point reference table on [1e-3, 50]: "
               f"worst rel err = {worst:.2e} (tol 1e-10)")
    assert ok


def phi(k: int, i: int, M: int) -> int:
    """The paper's expansion coefficient of the rank-i law: (-1)^k C(M, i-1-k) C(M-i+k, k)."""
    return (-1) ** k * math.comb(M, i - 1 - k) * math.comb(M - i + k, k)


def test_c5_order_statistic_identities(capsys):
    """Extreme-rank closed forms, both tails against the paper's phi sum, and sampler KS."""
    # rank-1 and rank-M closed forms, every population size
    worst_cdf = 0.0
    x = np.logspace(-4, 1, 25)
    for M in range(1, 21):
        lo = ordered_cdf(OrderStatSpec(M=M, i=1, lam=1.0), x)
        hi = ordered_cdf(OrderStatSpec(M=M, i=M, lam=1.0), x)
        worst_cdf = max(worst_cdf,
                        float(np.max(np.abs(lo - (-np.expm1(-M * x))))),
                        float(np.max(np.abs(hi - (-np.expm1(-x)) ** M))))
    # every rank's survival against the paper's signed sum
    # sf(x) = sum_{k<i} phi(k, i, M) exp(-(M - i + 1 + k) x), and its CDF
    # against 1 minus that sum.  The CDF falls to about 1e-80 at x = 1e-4,
    # i = M = 20, so the cancelling terms are summed at 130 digits.
    worst_sf = worst_tail_cdf = 0.0
    with mpmath.workdps(130):
        decay = [[mpmath.exp(-j * mpmath.mpf(v)) for j in range(21)] for v in x.tolist()]
        for M in range(1, 21):
            for i in range(1, M + 1):
                spec = OrderStatSpec(M=M, i=i, lam=1.0)
                sf, cdf = ordered_sf(spec, x).tolist(), ordered_cdf(spec, x).tolist()
                for e, got_sf, got_cdf in zip(decay, sf, cdf):
                    ref = mpmath.fsum(phi(k, i, M) * e[M - i + 1 + k] for k in range(i))
                    worst_sf = max(worst_sf, float(abs(got_sf - ref) / ref))
                    worst_tail_cdf = max(worst_tail_cdf,
                                         float(abs(got_cdf - (1 - ref)) / (1 - ref)))
    # empirical CDF of sampled ranks vs the analytic CDF (exact KS statistic),
    # taken over blocks of the sorted sample so that no temporary spans all of it
    worst_ks = 0.0
    rng = np.random.default_rng(MC_SEED)
    draws = sample_ordered_gains(6, 1.0, rng, size=MC_TRIALS)
    for i in (1, 3, 6):
        sample = np.sort(draws[:, i - 1])
        for lo in range(0, MC_TRIALS, KS_BLOCK):
            block = sample[lo:lo + KS_BLOCK]
            F = ordered_cdf(OrderStatSpec(M=6, i=i, lam=1.0), block)
            grid_idx = np.arange(lo + 1, lo + block.size + 1) / MC_TRIALS
            ks = max(float(np.max(grid_idx - F)), float(np.max(F - grid_idx + 1.0 / MC_TRIALS)))
            worst_ks = max(worst_ks, ks)
    ok = (worst_cdf <= 1e-12 and worst_sf <= 1e-13 and worst_tail_cdf <= 1e-13
          and worst_ks <= 0.002)
    report(capsys, "criterion 5",
           ok, f"order statistics: extreme-rank CDF dev {worst_cdf:.2e} (tol 1e-12), "
               f"survival and CDF vs the paper's phi sum, M = 1..20, every rank: "
               f"rel err {worst_sf:.2e} and {worst_tail_cdf:.2e} (tol 1e-13), "
               f"KS at 1e6 draws {worst_ks:.2e} (tol 2e-3)")
    assert worst_cdf <= 1e-12
    assert worst_sf <= 1e-13
    assert worst_tail_cdf <= 1e-13
    assert worst_ks <= 0.002


def test_c6_qualitative_trends(mc_cache, capsys):
    """Qualitative trends: monotonicity, distance/pair orderings, relay gain."""
    geo = reference_geometry()
    far = reference_geometry(scale=1.5)
    grid = [g / 2.0 for g in range(0, 81)]  # 0..40 dB, 0.5 dB steps
    checks = {}

    pts_near = [evaluate(reference_config(db), geo) for db in grid]
    pts_far = [evaluate(reference_config(db), far) for db in grid]
    pts_12 = [evaluate(reference_config(db, m=1, n=2), geo) for db in grid]

    # (a) outage never increases with SNR
    checks["a"] = all(b.p_out_n <= a.p_out_n + 1e-15 and b.p_out_m <= a.p_out_m + 1e-15
                      for a, b in zip(pts_near, pts_near[1:]))
    # (b) longer distances: pointwise worse outage, no better throughput
    checks["b"] = all(f.p_out_n >= n.p_out_n - 1e-15 and f.p_out_m >= n.p_out_m - 1e-15
                      and f.throughput <= n.throughput + 1e-15
                      for n, f in zip(pts_near, pts_far))
    # (c) pair (3,6) beats pair (1,2) on both metrics
    checks["c"] = all(h.p_out_n <= l.p_out_n + 1e-15 and h.p_out_m <= l.p_out_m + 1e-15
                      and h.throughput >= l.throughput - 1e-15
                      for h, l in zip(pts_near, pts_12))
    # (d) throughput: non-decreasing, capped at 2, past 1.99 by 40 dB; MC agrees
    tau40 = pts_near[-1].throughput
    est_n40, est_m40, tau40_mc, _ = mc_cache(40.0, "independent")
    tau_se = est_n40.stderr * 1.0 + est_m40.stderr * 1.0  # R_n = R_m = 1
    checks["d"] = (all(b.throughput >= a.throughput - 1e-15
                       for a, b in zip(pts_near, pts_near[1:]))
                   and all(p.throughput <= 2.0 for p in pts_near)
                   and tau40 > 1.99
                   and abs(tau40_mc - tau40) <= max(3.0 * tau_se, 1e-4)
                   and tau40_mc <= 2.0)
    # (e) the relayed copy never hurts
    checks["e"] = all(
        evaluate(reference_config(db), geo, relay=True).p_out_m
        <= evaluate(reference_config(db), geo, relay=False).p_out_m + 1e-15
        for db in grid)

    ok = all(checks.values())
    detail = ", ".join(f"{k}:{'ok' if v else 'FAIL'}" for k, v in sorted(checks.items()))
    report(capsys, "criterion 6",
           ok, f"qualitative trends on 0-40 dB grid ({detail}); "
               f"throughput(40 dB) = {tau40:.6f} analytic / {tau40_mc:.6f} MC")
    assert ok, checks


def test_c7_sweep_determinism(tmp_path, capsys, monkeypatch):
    """Two identical CLI sweep runs emit byte-identical CSV, parallelism on."""
    monkeypatch.setattr(McConfig, "chunk_size", 4096)  # 49 chunks
    scen = tmp_path / "scenario.ini"
    scen.write_text(
        "[mc]\n"
        f"trials = 200000\nseed = {MC_SEED}\nmode = independent\n"
        "[sweep]\n"
        "variable = gamma0_db\nvalues = 10,20,30\nengines = analytic,mc\n"
        "baseline = true\n")
    outs = []
    for tag in ("a", "b"):
        csv_path = tmp_path / f"run_{tag}.csv"
        plot_path = tmp_path / f"plot_{tag}.py"
        rc = main(["--config", str(scen), "--out", str(csv_path),
                   "--plot", str(plot_path)])
        assert rc == 0
        outs.append((csv_path.read_bytes(), plot_path.read_text()))
    same_csv = outs[0][0] == outs[1][0]
    # plot scripts embed their CSV path, which differs by design; compare
    # everything but that line
    body = [t.replace("run_a", "RUN").replace("run_b", "RUN") for _, t in outs]
    same_plot = body[0] == body[1]
    n_rows = outs[0][0].count(b"\n") - 1
    chunks = -(-200_000 // McConfig.chunk_size)
    ok = same_csv and same_plot
    report(capsys, "criterion 7",
           ok, f"byte-identical CSV across two runs (3 SNRs x 4 engine rows = "
               f"{n_rows} rows, 2e5 trials, {chunks} parallel chunks): "
               f"csv={'same' if same_csv else 'DIFFERENT'}, "
               f"plot={'same' if same_plot else 'DIFFERENT'}")
    assert ok
