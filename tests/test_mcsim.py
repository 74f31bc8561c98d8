import math
from dataclasses import replace

import numpy as np
import pytest

from coopnoma.analytic import evaluate, throughput
from coopnoma.linklevel import ChannelRealization, SystemConfig, derive_geometry
from coopnoma.mcsim import (McConfig, McEstimate, _gains_from_uniforms, draw_realization,
                            draws_per_trial, estimate, outage_events, trial_stream)


def default_config(**overrides):
    base = dict(M=6, m=3, n=6, a_m=0.7, a_n=0.3, gamma0=100.0)
    base.update(overrides)
    return SystemConfig(**base)


def default_geometry():
    return derive_geometry(4.0, 6.0, 4.0, math.radians(40.0), math.radians(60.0))


class TestConfigs:
    @pytest.mark.parametrize("bad", [
        dict(trials=0),
        dict(trials=-5),
        dict(seed=-1),
        dict(seed=2 ** 64),
        dict(chunk_size=0),
        dict(mode="stratified"),
    ])
    def test_rejects_bad_values(self, bad):
        kwargs = dict(trials=100, seed=1, mode="joint", chunk_size=10)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            McConfig(**kwargs)

    def test_estimate_consistency_enforced(self):
        McEstimate(p_hat=0.25, stderr=math.sqrt(0.25 * 0.75 / 100), trials=100)
        with pytest.raises(ValueError):
            McEstimate(p_hat=0.25, stderr=0.9, trials=100)
        with pytest.raises(ValueError):
            McEstimate(p_hat=1.5, stderr=0.0, trials=100)


class TestDrawBudget:
    def test_uniforms_per_trial(self):
        for M in range(1, 101):
            assert draws_per_trial(M, "joint") == M + 2
            assert draws_per_trial(M, "independent") == 2 * M + 2

    def test_reference_values(self):
        assert draws_per_trial(6, "joint") == 8
        assert draws_per_trial(6, "independent") == 14

    @pytest.mark.parametrize("mode", ["joint", "independent"])
    def test_trial_stream_is_the_tail_of_one_stream(self, mode):
        mc = McConfig(trials=10, seed=2 ** 64 - 1, mode=mode)
        w = draws_per_trial(6, mode)
        whole = np.random.Generator(np.random.PCG64DXSM(mc.seed)).random(40 * w)
        for t in (0, 1, 7, 33):
            np.testing.assert_array_equal(trial_stream(mc, 6, t).random((40 - t) * w),
                                          whole[t * w:])


class TestDrawRealization:
    def test_deterministic_for_fixed_stream_state(self):
        cfg = default_config()
        mc = McConfig(trials=10, seed=42, mode="joint")
        r1 = draw_realization(cfg, mc, trial_stream(mc, cfg.M, 3))
        r2 = draw_realization(cfg, mc, trial_stream(mc, cfg.M, 3))
        np.testing.assert_array_equal(r1.g_sd, r2.g_sd)
        assert (r1.g_dnr, r1.g_rdm) == (r2.g_dnr, r2.g_rdm)

    def test_joint_mode_orders_single_vector(self):
        cfg = default_config()
        mc = McConfig(trials=10, seed=1, mode="joint")
        real = draw_realization(cfg, mc, trial_stream(mc, cfg.M, 0))
        assert real.g_sd_strong is None
        assert real.gain_strong(cfg.n) >= real.gain_weak(cfg.m)
        assert np.all(np.diff(real.g_sd) >= 0)

    def test_independent_mode_carries_two_vectors(self):
        cfg = default_config()
        mc = McConfig(trials=10, seed=1, mode="independent")
        real = draw_realization(cfg, mc, trial_stream(mc, cfg.M, 0))
        assert real.g_sd_strong is not None
        assert real.g_sd.shape == real.g_sd_strong.shape == (6,)
        assert not np.array_equal(real.g_sd, real.g_sd_strong)

    @pytest.mark.parametrize("mode", ["joint", "independent"])
    def test_requested_ranks_equal_the_all_rank_columns(self, mode):
        # the ranks a chunk reads are bit for bit those of the full vectors
        cfg = default_config(lambda_sd=1.7, lambda_dnr=0.6, lambda_rdm=2.3)
        u = trial_stream(McConfig(trials=10, seed=4, mode=mode), cfg.M, 0).random(
            (1_000, draws_per_trial(cfg.M, mode)))
        every = range(1, 7)
        all1, all2, dnr, rdm = _gains_from_uniforms(cfg, mode, u, every, every)
        for weak, strong in (([3], [6]), ([1, 2], [6]), ([5], [4, 5]), ([6], [6])):
            vec1, vec2, g_dnr, g_rdm = _gains_from_uniforms(cfg, mode, u, weak, strong)
            for i in weak:
                np.testing.assert_array_equal(vec1[i], all1[i])
            for i in strong:
                np.testing.assert_array_equal(vec2[i], all2[i])
            np.testing.assert_array_equal(g_dnr, dnr)
            np.testing.assert_array_equal(g_rdm, rdm)
        off = 6 if mode == "joint" else 12
        np.testing.assert_array_equal(dnr, -0.6 * np.log1p(-u[:, off]))
        np.testing.assert_array_equal(rdm, -2.3 * np.log1p(-u[:, off + 1]))

    @pytest.mark.parametrize("v", [0.0, 1.0 - 2.0 ** -53])
    def test_extreme_uniform_rows_give_finite_gains(self, v):
        # RuntimeWarnings fail the suite, so this also checks that none is
        # raised.  v = 0 everywhere meets the cap on log U (gain 60 lam log 2,
        # not inf); v = 1 - 2**-53 gives rank-1 gains near 1e-83, which only
        # the log1p branch of log1mexp resolves.
        cfg = default_config(M=100, m=1, n=100, lambda_sd=1.5)
        u = np.full((3, draws_per_trial(100, "independent")), v)
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
        rng = trial_stream(mc, cfg.M, 0)
        draws = 200_000
        dnr = np.empty(draws)
        rdm = np.empty(draws)
        u = rng.random((draws, draws_per_trial(cfg.M, mc.mode)))
        dnr = -cfg.lambda_dnr * np.log1p(-u[:, cfg.M])
        rdm = -cfg.lambda_rdm * np.log1p(-u[:, cfg.M + 1])
        assert abs(dnr.mean() - 2.0) < 3 * 2.0 / math.sqrt(draws)
        assert abs(rdm.mean() - 0.5) < 3 * 0.5 / math.sqrt(draws)


class TestOutageEvents:
    def test_all_zero_gains_fail_everything(self):
        cfg = default_config()
        real = ChannelRealization(g_sd=np.zeros(6), g_dnr=0.0, g_rdm=0.0)
        assert outage_events(cfg, default_geometry(), real) == (True, True)

    def test_huge_gains_pass_when_threshold_below_ceiling(self):
        cfg = default_config()  # gamma_thm = 1 < a_m/a_n
        real = ChannelRealization(g_sd=np.full(6, 1e30), g_dnr=1e30, g_rdm=1e30)
        assert outage_events(cfg, default_geometry(), real) == (False, False)

    def test_failed_sic_stage_dooms_weak_user(self):
        # strong user cannot decode the weak signal, weak user's own direct
        # link is fine: the weak user is still counted in outage.
        cfg = default_config()
        geo = default_geometry()
        real = ChannelRealization(g_sd=np.full(6, 1e30), g_dnr=1e30, g_rdm=1e30,
                                  g_sd_strong=np.zeros(6))
        out_n, out_m = outage_events(cfg, geo, real)
        assert out_n is True
        assert out_m is True

    def test_relay_rescues_direct_failure(self):
        cfg = default_config()
        geo = default_geometry()
        real = ChannelRealization(g_sd=np.zeros(6), g_dnr=1e30, g_rdm=1e30,
                                  g_sd_strong=np.full(6, 1e30))
        out_n, out_m = outage_events(cfg, geo, real)
        assert out_n is False
        assert out_m is False  # relayed copy saved it

    def test_both_copies_failing_is_outage(self):
        cfg = default_config()
        geo = default_geometry()
        real = ChannelRealization(g_sd=np.zeros(6), g_dnr=0.0, g_rdm=0.0,
                                  g_sd_strong=np.full(6, 1e30))
        assert outage_events(cfg, geo, real) == (False, True)

    def test_overflowing_relay_hop_cannot_rescue_with_a_failing_one(self):
        # at gamma0 = 1e308 the first relay hop's SNR overflows; the second hop
        # still misses the threshold, so the weak user has no copy left
        cfg = default_config(gamma0=1e308)
        real = ChannelRealization(g_sd=np.zeros(6), g_dnr=100.0, g_rdm=1e-310,
                                  g_sd_strong=np.ones(6))
        assert outage_events(cfg, default_geometry(), real) == (False, True)


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
        hits_n = hits_m = 0
        for t in range(mc.trials):
            real = draw_realization(cfg, mc, trial_stream(mc, cfg.M, t))
            out_n, out_m = outage_events(cfg, geo, real)
            hits_n += out_n
            hits_m += out_m
        est_n, est_m, _ = estimate(cfg, geo, mc)
        assert est_n.p_hat == hits_n / mc.trials
        assert est_m.p_hat == hits_m / mc.trials

    def test_joint_m20_replay_and_chunking(self):
        # the benchmark's pair (10, 20): lone trials and any chunking replay
        # the same draw
        cfg = default_config(M=20, m=10, n=20, a_m=0.8, a_n=0.2, gamma0=30.0)
        geo = default_geometry()
        mc = McConfig(trials=300, seed=11, chunk_size=64, mode="joint")
        hits = np.zeros(2, dtype=int)
        for t in range(mc.trials):
            hits += outage_events(cfg, geo, draw_realization(cfg, mc, trial_stream(mc, 20, t)))
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
