import math
from dataclasses import replace

import numpy as np
import pytest

from coopnoma import mcsim
from coopnoma.analytic import evaluate, throughput
from coopnoma.linklevel import SystemConfig, derive_geometry
from coopnoma.mcsim import (McConfig, McEstimate, _columns, _draw, _event_arrays,
                            _gains_from_uniforms, draws_per_trial, estimate, trial_stream)


def default_config(**overrides):
    base = dict(M=6, m=3, n=6, a_m=0.7, a_n=0.3, gamma0=100.0)
    base.update(overrides)
    return SystemConfig(**base)


def default_geometry():
    return derive_geometry(4.0, 6.0, 4.0, math.radians(40.0), math.radians(60.0))


def stream_step(seed, step):
    """The uniform at ``step`` of the PCG64DXSM(seed) stream, advanced by hand."""
    bg = np.random.PCG64DXSM(seed)
    bg.advance(step)
    return np.random.Generator(bg).random()


def draw_trial(cfg, mc, t):
    """All M ranks of both vectors and the two hops of trial t, drawn on their own."""
    u = np.array([[trial_stream(mc, cfg.M, t, k).random()]
                  for k in range(draws_per_trial(cfg.M, mc.mode))])
    every = range(1, cfg.M + 1)
    return _gains_from_uniforms(cfg, mc.mode, u, every, every)


def events(cfg, geo, g_m, g_n, g_dnr, g_rdm):
    """Both outage indicators of one hand-built trial, through the array path."""
    out_n, out_m = _event_arrays(cfg, geo, *(np.array([g]) for g in (g_m, g_n, g_dnr, g_rdm)))
    return bool(out_n[0]), bool(out_m[0])


def replay(cfg, geo, mc):
    """Outage counts (strong, weak) of every trial drawn and evaluated on its own."""
    hits = np.zeros(2, dtype=int)
    for t in range(mc.trials):
        weak, strong, g_dnr, g_rdm = draw_trial(cfg, mc, t)
        hits += events(cfg, geo, weak[cfg.m][0], strong[cfg.n][0], g_dnr[0], g_rdm[0])
    return hits


class TestConfigs:
    @pytest.mark.parametrize("bad", [
        dict(trials=0),
        dict(trials=-5),
        dict(seed=-1),
        dict(seed=2 ** 64),
        dict(trials=2 ** 64),
        dict(chunk_size=0),
        dict(mode="stratified"),
    ])
    def test_rejects_bad_values(self, bad):
        kwargs = dict(trials=100, seed=1, mode="joint", chunk_size=10)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            McConfig(**kwargs)

    def test_estimate_consistency_enforced(self):
        est = McEstimate(events=25, trials=100)
        assert est.p_hat == 0.25
        assert est.stderr == math.sqrt(0.25 * 0.75 / 100)
        assert (McEstimate(0, 7).p_hat, McEstimate(0, 7).stderr) == (0.0, 0.0)
        assert (McEstimate(7, 7).p_hat, McEstimate(7, 7).stderr) == (1.0, 0.0)
        for events, trials in ((-1, 100), (101, 100), (0.5, 100), (0, 0)):
            with pytest.raises(ValueError):
                McEstimate(events=events, trials=trials)


class TestDrawBudget:
    def test_uniforms_per_trial(self):
        for M in range(1, 101):
            assert draws_per_trial(M, "joint") == M + 2
            assert draws_per_trial(M, "independent") == 2 * M + 2

    def test_reference_values(self):
        assert draws_per_trial(6, "joint") == 8
        assert draws_per_trial(6, "independent") == 14

    @pytest.mark.parametrize("mode", ["joint", "independent"])
    def test_column_k_of_trial_t_is_step_k_2_64_plus_t(self, mode):
        # a chunk's rows, skipped columns and the last trials of a segment
        # included, against the stream advanced by hand
        mc = McConfig(trials=10, seed=2 ** 64 - 1, mode=mode)
        w = draws_per_trial(6, mode)
        columns = [0, 3, 4, w - 2, w - 1]
        for start, count in ((0, 7), (33, 3), (2 ** 64 - 5, 5)):
            u = _draw(mc, 6, columns, start, count)
            for k in columns:
                want = [stream_step(mc.seed, k * 2 ** 64 + t) for t in range(start, start + count)]
                assert u[k].tolist() == want
                assert trial_stream(mc, 6, start, k).random(count).tolist() == want

    @pytest.mark.parametrize("M, m, n, mode, per_trial", [
        (20, 10, 20, "joint", 13),  # slots 10..20 and the two hops
        (6, 3, 6, "independent", 7),  # slots 3..6, strong-read slot 6, the two hops
    ])
    def test_chunk_draws_only_the_columns_it_reads(self, monkeypatch, M, m, n, mode, per_trial):
        drawn, streams = [], []
        real_stream = mcsim.trial_stream

        class Counting:
            """A chunk's stream that counts the uniforms it hands out."""

            def __init__(self, rng):
                self.rng, self.bit_generator = rng, rng.bit_generator

            def random(self, size=None, out=None):
                got = self.rng.random(size, out=out)
                drawn.append(got.size)
                return got

        monkeypatch.setattr(mcsim, "trial_stream",
                            lambda *a: streams.append(a) or Counting(real_stream(*a)))
        cfg = default_config(M=M, m=m, n=n, a_m=0.8, a_n=0.2)
        mc = McConfig(trials=1_000, seed=7, chunk_size=300, mode=mode)
        estimate(cfg, default_geometry(), mc)
        assert len(streams) == 4  # one stream per chunk
        assert sum(drawn) == per_trial * mc.trials
        assert len(_columns(M, mode, [m], [n])) == per_trial


class TestDrawRealization:
    def test_deterministic_for_fixed_stream_state(self):
        cfg = default_config()
        mc = McConfig(trials=10, seed=42, mode="joint")
        (w1, s1, dnr1, rdm1), (w2, s2, dnr2, rdm2) = draw_trial(cfg, mc, 3), draw_trial(cfg, mc, 3)
        for i in range(1, 7):
            np.testing.assert_array_equal(w1[i], w2[i])
            np.testing.assert_array_equal(s1[i], s2[i])
        assert (dnr1, rdm1) == (dnr2, rdm2)

    def test_joint_mode_orders_single_vector(self):
        cfg = default_config()
        weak, strong, _, _ = draw_trial(cfg, McConfig(trials=10, seed=1, mode="joint"), 0)
        assert weak is strong
        gains = np.concatenate([weak[i] for i in range(1, 7)])
        assert strong[cfg.n][0] >= weak[cfg.m][0]
        assert np.all(np.diff(gains) >= 0)

    def test_independent_mode_carries_two_vectors(self):
        cfg = default_config()
        weak, strong, _, _ = draw_trial(cfg, McConfig(trials=10, seed=1, mode="independent"), 0)
        vec1 = np.concatenate([weak[i] for i in range(1, 7)])
        vec2 = np.concatenate([strong[i] for i in range(1, 7)])
        assert vec1.shape == vec2.shape == (6,)
        assert np.all(np.diff(vec1) >= 0) and np.all(np.diff(vec2) >= 0)
        assert not np.array_equal(vec1, vec2)

    @pytest.mark.parametrize("mode", ["joint", "independent"])
    def test_requested_ranks_equal_the_all_rank_columns(self, mode):
        # the ranks a chunk reads are bit for bit those of the full vectors
        cfg = default_config(lambda_sd=1.7, lambda_dnr=0.6, lambda_rdm=2.3)
        u = np.random.Generator(np.random.PCG64DXSM(4)).random(
            (draws_per_trial(cfg.M, mode), 1_000))
        every = range(1, 7)
        all1, all2, dnr, rdm = _gains_from_uniforms(cfg, mode, u.copy(), every, every)
        for weak, strong in (([3], [6]), ([1, 2], [6]), ([5], [4, 5]), ([6], [6])):
            vec1, vec2, g_dnr, g_rdm = _gains_from_uniforms(cfg, mode, u.copy(), weak, strong)
            for i in weak:
                np.testing.assert_array_equal(vec1[i], all1[i])
            for i in strong:
                np.testing.assert_array_equal(vec2[i], all2[i])
            np.testing.assert_array_equal(g_dnr, dnr)
            np.testing.assert_array_equal(g_rdm, rdm)
        off = 6 if mode == "joint" else 12
        np.testing.assert_array_equal(dnr, -0.6 * np.log1p(-u[off]))
        np.testing.assert_array_equal(rdm, -2.3 * np.log1p(-u[off + 1]))

    @pytest.mark.parametrize("v", [0.0, 1.0 - 2.0 ** -53])
    def test_extreme_uniform_rows_give_finite_gains(self, v):
        # RuntimeWarnings fail the suite, so this also checks that none is
        # raised.  v = 0 everywhere meets the cap on log U (gain 60 lam log 2,
        # not inf); v = 1 - 2**-53 gives rank-1 gains near 1e-83, which only
        # the log1p branch of log1mexp resolves.
        cfg = default_config(M=100, m=1, n=100, lambda_sd=1.5)
        u = np.full((draws_per_trial(100, "independent"), 3), v)
        every = range(1, 101)
        vec1, vec2, g_dnr, g_rdm = _gains_from_uniforms(cfg, "independent", u, every, every)
        if v == 0.0:
            want = [1.5 * 60.0 * math.log(2.0)] * 100
        else:
            want = [-1.5 * math.log1p(-math.exp(-53.0 * math.log(2.0)
                                                * math.fsum(1.0 / j for j in range(i, 101))))
                    for i in every]
        for vec in (vec1, vec2):
            gains = np.array([vec[i] for i in every])
            np.testing.assert_allclose(gains, np.repeat(np.array(want)[:, None], 3, axis=1),
                                       rtol=1e-12)
            assert np.all(np.diff(gains, axis=0) >= 0)
        assert np.all(np.isfinite(g_dnr)) and np.all(np.isfinite(g_rdm))

    def test_relay_gain_moments(self):
        # empirical mean of each relay-hop gain ~ its lambda (3 sigma of the
        # exponential's own std at this sample size)
        cfg = default_config(lambda_dnr=2.0, lambda_rdm=0.5)
        mc = McConfig(trials=10, seed=9, mode="joint")
        draws = 200_000
        dnr = -cfg.lambda_dnr * np.log1p(-trial_stream(mc, cfg.M, 0, cfg.M).random(draws))
        rdm = -cfg.lambda_rdm * np.log1p(-trial_stream(mc, cfg.M, 0, cfg.M + 1).random(draws))
        assert abs(dnr.mean() - 2.0) < 3 * 2.0 / math.sqrt(draws)
        assert abs(rdm.mean() - 0.5) < 3 * 0.5 / math.sqrt(draws)


class TestOutageEvents:
    def test_all_zero_gains_fail_everything(self):
        assert events(default_config(), default_geometry(), 0.0, 0.0, 0.0, 0.0) == (True, True)

    def test_huge_gains_pass_when_threshold_below_ceiling(self):
        cfg = default_config()  # gamma_thm = 1 < a_m/a_n
        assert events(cfg, default_geometry(), 1e30, 1e30, 1e30, 1e30) == (False, False)

    def test_failed_sic_stage_dooms_weak_user(self):
        # strong user cannot decode the weak signal, weak user's own direct
        # link is fine: the weak user is still counted in outage.
        assert events(default_config(), default_geometry(), 1e30, 0.0, 1e30, 1e30) == (True, True)

    def test_relay_rescues_direct_failure(self):
        # the direct copy fails, the relayed copy saves it
        assert events(default_config(), default_geometry(), 0.0, 1e30, 1e30, 1e30) == (False, False)

    def test_both_copies_failing_is_outage(self):
        assert events(default_config(), default_geometry(), 0.0, 1e30, 0.0, 0.0) == (False, True)

    def test_overflowing_relay_hop_cannot_rescue_with_a_failing_one(self):
        # at gamma0 = 1e308 the first relay hop's SNR overflows; the second hop
        # still misses the threshold, so the weak user has no copy left
        cfg = default_config(gamma0=1e308)
        assert events(cfg, default_geometry(), 0.0, 1.0, 100.0, 1e-310) == (False, True)


class TestEstimate:
    def test_chunking_does_not_change_results(self):
        cfg = default_config()
        geo = default_geometry()
        runs = [estimate(cfg, geo, McConfig(trials=30_000, seed=5, chunk_size=cs))
                for cs in (1_000, 10_000, 7_777)]
        ps = [(en.p_hat, em.p_hat) for en, em, _ in runs]
        assert ps[0] == ps[1] == ps[2]

    def test_worker_count_does_not_change_results(self):
        cfg = default_config()
        geo = default_geometry()
        mc = McConfig(trials=50_000, seed=8, chunk_size=4096)
        serial = estimate(cfg, geo, mc, workers=1)
        threaded = estimate(cfg, geo, mc, workers=8)
        assert serial[0] == threaded[0]
        assert serial[1] == threaded[1]
        assert serial[2] == threaded[2]

    def test_matches_per_trial_replay(self):
        # the vectorized estimator is exactly the mean of per-trial replays
        cfg = default_config()
        geo = default_geometry()
        mc = McConfig(trials=257, seed=3, chunk_size=64, mode="independent")
        hits_n, hits_m = replay(cfg, geo, mc)
        est_n, est_m, _ = estimate(cfg, geo, mc)
        assert (est_n.events, est_m.events) == (hits_n, hits_m)
        assert est_n.p_hat == hits_n / mc.trials
        assert est_m.p_hat == hits_m / mc.trials

    def test_joint_m20_replay_and_chunking(self):
        # the benchmark's pair (10, 20): lone trials and any chunking replay
        # the same draw
        cfg = default_config(M=20, m=10, n=20, a_m=0.8, a_n=0.2, gamma0=30.0)
        geo = default_geometry()
        mc = McConfig(trials=300, seed=11, chunk_size=64, mode="joint")
        hits = replay(cfg, geo, mc)
        for chunk_size in (1, 64, 300):
            est_n, est_m, _ = estimate(cfg, geo, replace(mc, chunk_size=chunk_size))
            assert (est_n.p_hat, est_m.p_hat) == (hits[0] / 300, hits[1] / 300)

    def test_certain_outage_when_threshold_unreachable(self):
        cfg = default_config(gamma_thm=1e6, gamma_thn=1e6)
        est_n, est_m, tau = estimate(cfg, default_geometry(),
                                     McConfig(trials=5_000, seed=2))
        assert est_n.p_hat == 1.0
        assert est_m.p_hat == 1.0
        assert tau == 0.0

    def test_throughput_consistent_with_estimates(self):
        cfg = default_config()
        est_n, est_m, tau = estimate(cfg, default_geometry(),
                                     McConfig(trials=20_000, seed=6))
        assert tau == throughput(cfg, est_n.p_hat, est_m.p_hat)

    def test_stderr_formula(self):
        cfg = default_config()
        est_n, _, _ = estimate(cfg, default_geometry(), McConfig(trials=20_000, seed=6))
        want = math.sqrt(est_n.p_hat * (1 - est_n.p_hat) / 20_000)
        assert est_n.stderr == want

    def test_population_past_exact_coefficients_matches_closed_form(self):
        # M = 25 > MAX_USERS: both engines evaluate it and agree
        cfg = default_config(M=25, m=12, n=25, gamma0=10.0 ** 1.5)
        geo = default_geometry()
        est_n, est_m, _ = estimate(cfg, geo, McConfig(trials=100_000, seed=3))
        point = evaluate(cfg, geo)
        for est, exact in ((est_n, point.p_out_n), (est_m, point.p_out_m)):
            assert abs(est.p_hat - exact) <= max(5.0 * est.stderr, 1e-4)

    def test_weak_user_fares_worse(self):
        geo = default_geometry()
        for db in (10, 20, 30):
            cfg = default_config(gamma0=10 ** (db / 10))
            est_n, est_m, _ = estimate(cfg, geo, McConfig(trials=50_000, seed=4))
            assert est_m.p_hat >= est_n.p_hat


class TestSharedDraw:
    def variants(self):
        geo = default_geometry()
        far = derive_geometry(6.0, 9.0, 6.0, math.radians(40.0), math.radians(60.0))
        return [(default_config(gamma0=10.0), geo, True),
                (default_config(m=1, n=2), geo, False),
                (default_config(m=2, n=5, gamma0=1000.0), far, True)]

    @pytest.mark.parametrize("mode", ["joint", "independent"])
    def test_each_variant_equals_its_lone_estimate(self, mode):
        # fused, the chunks also draw the slots below rank 3 (and, in
        # independent mode, below strong rank 6) that the first variant's
        # lone draw skips; its counts must not move
        mc = McConfig(trials=5_000, seed=13, chunk_size=1_500, mode=mode)
        (cfg, geo, relay), *rest = self.variants()
        fused = estimate(cfg, geo, mc, relay=relay, also=rest)
        alone = [estimate(c, g, mc, relay=r) for c, g, r in self.variants()]
        assert fused == alone

    def test_empty_also_returns_one_element_list(self):
        cfg, geo = default_config(), default_geometry()
        mc = McConfig(trials=1_000, seed=2)
        assert estimate(cfg, geo, mc, also=()) == [estimate(cfg, geo, mc)]

    @pytest.mark.parametrize("field, other", [
        ("M", dict(M=7, n=7)),
        ("lambda_sd", dict(lambda_sd=2.0)),
        ("lambda_dnr", dict(lambda_dnr=0.5)),
        ("lambda_rdm", dict(lambda_rdm=3.0)),
    ])
    def test_variant_with_other_draw_rejected(self, field, other):
        geo = default_geometry()
        mc = McConfig(trials=1_000, seed=2)
        with pytest.raises(ValueError, match=f"variant {field}="):
            estimate(default_config(), geo, mc, also=[(default_config(**other), geo, True)])

    def test_bad_worker_count_rejected(self):
        for workers in (0, -1, 1.5):
            with pytest.raises(ValueError, match="workers"):
                estimate(default_config(), default_geometry(), McConfig(trials=10, seed=1),
                         workers=workers)
