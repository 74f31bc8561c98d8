import math
import re
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from coopnoma import mcsim
from coopnoma.analytic import evaluate, throughput
from coopnoma.linklevel import INPUT_BOX, Geometry, SystemConfig, sinr_relayed, stage_gains
from coopnoma.mcsim import (MODES, McConfig, McEstimate, McPoint, draws_per_trial, estimate,
                            trial_stream)
from coopnoma.orderstat import chain_at_gain, gains_from_chain, log_uniform_chain
from sinr_reference import _direct_stages, draw_columns, event_arrays, gains_from_uniforms


def default_config(**overrides):
    base = dict(M=6, m=3, n=6, a_m=0.7, a_n=0.3, gamma0=100.0)
    base.update(overrides)
    return SystemConfig(**base)


def default_geometry():
    return Geometry(4.0, 6.0, 4.0, math.radians(40.0), math.radians(60.0))


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
    return gains_from_uniforms(cfg, mc.mode, u, every, every)


def events(cfg, geo, g_m, g_n, g_dnr, g_rdm):
    """Both outage indicators of one hand-built trial, through the array path."""
    out_n, out_m = event_arrays(cfg, geo, *(np.array([g]) for g in (g_m, g_n, g_dnr, g_rdm)))
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
        dict(trials=2.5),
        dict(mode="stratified"),
    ])
    def test_rejects_bad_values(self, bad):
        kwargs = dict(trials=100, seed=1, mode="joint")
        kwargs.update(bad)
        with pytest.raises(ValueError):
            McConfig(**kwargs)

    def test_chunk_size_is_a_constant_not_a_field(self):
        # a chunk holds a few rows of min(chunk_size, trials) doubles (5 for
        # one pair), so the fixed chunk size bounds a worker's memory
        assert McConfig.chunk_size == 65536
        assert McConfig(trials=1, seed=1).chunk_size == 65536
        with pytest.raises(TypeError):
            McConfig(trials=1, seed=1, chunk_size=64)

    @pytest.mark.parametrize("key", ["trials", "seed"])
    def test_rejects_bool_naming_key(self, key):
        kwargs = dict(trials=100, seed=1, mode="joint")
        kwargs[key] = True
        with pytest.raises(ValueError, match=f"^{key} must be a number, not a bool"):
            McConfig(**kwargs)

    @pytest.mark.parametrize("key, kwargs", [
        ("events", dict(events=True, trials=True)),
        ("trials", dict(events=1, trials=True)),
    ])
    def test_estimate_rejects_bool_naming_key(self, key, kwargs):
        with pytest.raises(ValueError, match=f"^{key} must be a number, not a bool"):
            McEstimate(**kwargs)

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
        # included, against the stream advanced by hand; a chunk draws its
        # slots from M down, so the columns are also drawn descending, which
        # moves the stream back across segments
        mc = McConfig(trials=10, seed=2 ** 64 - 1, mode=mode)
        w = draws_per_trial(6, mode)
        for columns in ([0, 3, 4, w - 2, w - 1], [w - 1, w - 2, 4, 3, 0]):
            for start, count in ((0, 7), (33, 3), (2 ** 64 - 5, 5)):
                u = draw_columns(mc, 6, columns, start, count)
                for k in columns:
                    want = [stream_step(mc.seed, k * 2 ** 64 + t)
                            for t in range(start, start + count)]
                    assert u[k].tolist() == want
                    assert trial_stream(mc, 6, start, k).random(count).tolist() == want

    @pytest.mark.parametrize("M, m, n, mode, per_trial", [
        (20, 10, 20, "joint", 13),  # slots 20 down to 10 and the two hops
        (6, 3, 6, "independent", 7),  # slots 6 down to 3, strong-read slot 6, the two hops
    ])
    def test_chunk_draws_only_the_columns_it_reads(self, monkeypatch, M, m, n, mode, per_trial):
        streams = []
        real_stream = mcsim.trial_stream

        class Recording:
            """A chunk's stream that records the (column, trial, count) of every draw."""

            def __init__(self, mc, M, trial, column):
                self.rng = real_stream(mc, M, trial, column)
                self.step, self.visits, self.bit_generator = column * 2 ** 64 + trial, [], self
                streams.append(self)

            def advance(self, delta):
                self.rng.bit_generator.advance(delta)
                self.step = (self.step + delta) % 2 ** 128

            def random(self, size=None, out=None):
                got = self.rng.random(size, out=out)
                want = [stream_step(7, self.step + t) for t in (0, got.size - 1)]
                assert [got.flat[0], got.flat[-1]] == want
                self.visits.append((*divmod(self.step, 2 ** 64), got.size))
                self.step += got.size
                return got

        monkeypatch.setattr(mcsim, "trial_stream", Recording)
        cfg = default_config(M=M, m=m, n=n, a_m=0.8, a_n=0.2)
        monkeypatch.setattr(McConfig, "chunk_size", 300)
        mc = McConfig(trials=1_000, seed=7, mode=mode)
        estimate(cfg, default_geometry(), mc)
        slots = [*range(M - 1, m - 2, -1)]
        if mode == "independent":
            slots += range(2 * M - 1, M + n - 2, -1)
        columns = [*slots, draws_per_trial(M, mode) - 2, draws_per_trial(M, mode) - 1]
        assert len(columns) == per_trial
        # one stream per chunk, each visiting every column it reads once, in this order
        assert sorted(s.visits for s in streams) == [
            [(k, start, count) for k in columns]
            for start, count in ((0, 300), (300, 300), (600, 300), (900, 100))]

    @pytest.mark.parametrize("mode", ["joint", "independent"])
    def test_chunk_memory_does_not_grow_with_M(self, mode):
        # a chunk holds the slot row, the requested ranks' rows and the two
        # hops (gamma* reuses the slot row and two chain rows), plus
        # _count's temporaries: a few rows whatever M is, where a
        # (draws_per_trial, chunk) block would need M + 2 or 2M + 2.  A
        # full chunk's rows are McConfig.chunk_size doubles; here one chunk
        # of 4,096 trials is run directly
        count = 4_096
        for M in (20, 100):
            cfg = default_config(M=M, m=M - 1, n=M, a_m=0.8, a_n=0.2)
            points = [(cfg, default_geometry())]
            plans = [mcsim._plan(cfg, default_geometry())]
            mc = McConfig(trials=count, seed=5, mode=mode)
            mcsim._run_chunk(cfg, points, plans, mc, 0, count)  # warm-up
            tracemalloc.start()
            try:
                mcsim._run_chunk(cfg, points, plans, mc, 0, count)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 7 * count * 8, (M, peak / (count * 8))


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
        all1, all2, dnr, rdm = gains_from_uniforms(cfg, mode, u.copy(), every, every)
        for weak, strong in (([3], [6]), ([1, 2], [6]), ([5], [4, 5]), ([6], [6])):
            vec1, vec2, g_dnr, g_rdm = gains_from_uniforms(cfg, mode, u.copy(), weak, strong)
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
        vec1, vec2, g_dnr, g_rdm = gains_from_uniforms(cfg, "independent", u, every, every)
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


class TestEstimate:
    def test_chunking_does_not_change_results(self, monkeypatch):
        cfg = default_config()
        geo = default_geometry()
        runs = []
        for cs in (1_000, 10_000, 7_777):
            monkeypatch.setattr(McConfig, "chunk_size", cs)
            runs.append(estimate(cfg, geo, McConfig(trials=30_000, seed=5)))
        assert runs[0] == runs[1] == runs[2]

    def test_worker_count_does_not_change_results(self, monkeypatch):
        cfg = default_config()
        geo = default_geometry()
        monkeypatch.setattr(McConfig, "chunk_size", 4096)
        mc = McConfig(trials=50_000, seed=8)
        monkeypatch.setattr(mcsim, "_usable_cpus", lambda: 1)
        serial = estimate(cfg, geo, mc)
        monkeypatch.setattr(mcsim, "_usable_cpus", lambda: 8)
        threaded = estimate(cfg, geo, mc)
        assert serial == threaded

    def test_matches_per_trial_replay(self, monkeypatch):
        # the vectorized estimator is exactly the mean of per-trial replays
        cfg = default_config()
        geo = default_geometry()
        monkeypatch.setattr(McConfig, "chunk_size", 64)
        mc = McConfig(trials=257, seed=3, mode="independent")
        hits_n, hits_m = replay(cfg, geo, mc)
        point, = estimate(cfg, geo, mc)
        assert (point.p_out_n.events, point.p_out_m.events) == (hits_n, hits_m)
        assert point.p_out_n.p_hat == hits_n / mc.trials
        assert point.p_out_m.p_hat == hits_m / mc.trials

    def test_joint_m20_replay_and_chunking(self, monkeypatch):
        # the benchmark's pair (10, 20): lone trials and any chunking replay
        # the same draw
        cfg = default_config(M=20, m=10, n=20, a_m=0.8, a_n=0.2, gamma0=30.0)
        geo = default_geometry()
        mc = McConfig(trials=300, seed=11, mode="joint")
        hits = replay(cfg, geo, mc)
        for chunk_size in (1, 64, 300):
            monkeypatch.setattr(McConfig, "chunk_size", chunk_size)
            point, = estimate(cfg, geo, mc)
            assert (point.p_out_n.p_hat, point.p_out_m.p_hat) == (hits[0] / 300, hits[1] / 300)

    def test_certain_outage_when_threshold_unreachable(self):
        cfg = default_config(gamma_thm=1e6, gamma_thn=1e6)
        point, = estimate(cfg, default_geometry(), McConfig(trials=5_000, seed=2))
        assert point.p_out_n.p_hat == 1.0
        assert point.p_out_m.p_hat == point.p_out_m_norelay.p_hat == 1.0
        assert point.throughput == point.throughput_norelay == 0.0

    def test_throughput_consistent_with_estimates(self):
        cfg = default_config()
        point, = estimate(cfg, default_geometry(), McConfig(trials=20_000, seed=6))
        p_n = point.p_out_n.p_hat
        assert point.throughput == throughput(cfg, p_n, point.p_out_m.p_hat)
        assert point.throughput_norelay == throughput(cfg, p_n, point.p_out_m_norelay.p_hat)

    def test_stderr_formula(self):
        cfg = default_config()
        est_n = estimate(cfg, default_geometry(), McConfig(trials=20_000, seed=6))[0].p_out_n
        want = math.sqrt(est_n.p_hat * (1 - est_n.p_hat) / 20_000)
        assert est_n.stderr == want

    def test_population_past_exact_coefficients_matches_closed_form(self):
        # M = 25 > MAX_USERS: both engines evaluate it and agree
        cfg = default_config(M=25, m=12, n=25, gamma0=10.0 ** 1.5)
        geo = default_geometry()
        mc_point, = estimate(cfg, geo, McConfig(trials=100_000, seed=3))
        point = evaluate(cfg, geo)
        for est, exact in ((mc_point.p_out_n, point.p_out_n), (mc_point.p_out_m, point.p_out_m)):
            assert abs(est.p_hat - exact) <= max(5.0 * est.stderr, 1e-4)

    def test_weak_user_fares_worse(self):
        geo = default_geometry()
        for db in (10, 20, 30):
            cfg = default_config(gamma0=10 ** (db / 10))
            point, = estimate(cfg, geo, McConfig(trials=50_000, seed=4))
            assert point.p_out_m.p_hat >= point.p_out_n.p_hat


class TestSharedDraw:
    def scenarios(self):
        geo = default_geometry()
        far = Geometry(6.0, 9.0, 6.0, math.radians(40.0), math.radians(60.0))
        return [(default_config(gamma0=10.0), geo),
                (default_config(m=1, n=2), geo),
                (default_config(m=2, n=5, gamma0=1000.0), far)]

    @pytest.mark.parametrize("mode", ["joint", "independent"])
    def test_each_variant_equals_its_lone_estimate(self, monkeypatch, mode):
        # fused, the chunks also draw the slots below rank 3 (and, in
        # independent mode, below strong rank 6) that the first scenario's
        # lone draw skips; its counts must not move
        monkeypatch.setattr(McConfig, "chunk_size", 1_500)
        mc = McConfig(trials=5_000, seed=13, mode=mode)
        (cfg, geo), *rest = self.scenarios()
        fused = estimate(cfg, geo, mc, also=rest)
        alone = [point for c, g in self.scenarios() for point in estimate(c, g, mc)]
        assert fused == alone

    def test_empty_also_returns_one_element_list(self):
        # a lone call is a one-element list, whether ``also`` is given or not
        cfg, geo = default_config(), default_geometry()
        mc = McConfig(trials=1_000, seed=2)
        lone = estimate(cfg, geo, mc)
        assert len(lone) == 1 and isinstance(lone[0], McPoint)
        assert estimate(cfg, geo, mc, also=()) == lone

    def test_one_point_per_scenario_in_order_a_repeat_counted_again(self):
        # a scenario given twice gives two equal points in its places
        (cfg, geo), (other, _), _ = self.scenarios()
        mc = McConfig(trials=1_000, seed=2)
        lone, = estimate(cfg, geo, mc)
        second, = estimate(other, geo, mc)
        assert estimate(cfg, geo, mc, also=[(other, geo), (cfg, geo)]) == [lone, second, lone]

    @pytest.mark.parametrize("field, other", [
        ("M", dict(M=7, n=7)),
        ("lambda_sd", dict(lambda_sd=2.0)),
        ("lambda_dnr", dict(lambda_dnr=0.5)),
        ("lambda_rdm", dict(lambda_rdm=3.0)),
    ])
    def test_variant_with_other_draw_rejected(self, field, other):
        geo = default_geometry()
        mc = McConfig(trials=1_000, seed=2)
        with pytest.raises(ValueError, match=f"^scenario {field}="):
            estimate(default_config(), geo, mc, also=[(default_config(**other), geo)])

    def test_pool_takes_one_thread_per_usable_cpu_up_to_the_chunks(self, monkeypatch):
        started = counting_workers(monkeypatch)
        sizes = []

        def workers_of(mc):
            before = len(started)
            estimate(cfg, geo, mc)
            sizes.append(len(started) - before)

        monkeypatch.setattr(mcsim, "_usable_cpus", lambda: 8)
        cfg, geo = default_config(), default_geometry()
        monkeypatch.setattr(McConfig, "chunk_size", 100)
        workers_of(McConfig(trials=10, seed=1))  # one chunk, one thread
        workers_of(McConfig(trials=300, seed=1))
        monkeypatch.setattr(mcsim, "_usable_cpus", lambda: 2)
        workers_of(McConfig(trials=300, seed=1))
        assert sizes == [1, 3, 2]

    @pytest.mark.parametrize("mode", ["joint", "independent"])
    def test_stage_counts_match_the_sinr_path(self, mode):
        # each point's four count columns, against per-trial stage
        # indicators from the gain transform and every SINR, on a chunk
        # that starts mid-stream
        geo = default_geometry()
        far = Geometry(6.0, 9.0, 6.0, math.radians(40.0), math.radians(60.0))
        points = [(default_config(gamma0=30.0), geo), (default_config(gamma0=100.0), geo),
                  (default_config(m=1, n=2, gamma0=30.0), geo),
                  (default_config(m=2, n=5, gamma0=100.0), far)]
        start, count = 3_000, 20_000
        mc = McConfig(trials=start + count, seed=29, mode=mode)
        counts = mcsim._run_chunk(points[0][0], points, [mcsim._plan(c, g) for c, g in points],
                                  mc, start, count)
        weak, strong, g_dnr, g_rdm = gains_from_uniforms(
            points[0][0], mode, draw_columns(mc, 6, range(draws_per_trial(6, mode)), start,
                                             count), [1, 2, 3], [2, 5, 6])
        for (cfg, g), row in zip(points, counts):
            fail_sic, out_n, fail_direct = _direct_stages(cfg, g, weak[cfg.m], strong[cfg.n])
            left = fail_direct & ~fail_sic
            lost = left & (sinr_relayed(cfg, g, g_dnr, g_rdm) < cfg.gamma_thm)
            assert row.tolist() == [np.count_nonzero(a) for a in (out_n, fail_sic, left, lost)]
            assert 0 < np.count_nonzero(lost) < np.count_nonzero(left)

    def test_bookkeeping_does_not_grow_with_trials(self, monkeypatch):
        # 1e9 trials are 15,259 chunks: the workers take them from one
        # iterator, so no thread, task or list entry is kept per chunk
        started = counting_workers(monkeypatch)
        monkeypatch.setattr(mcsim, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(mcsim, "_run_chunk", lambda draw, points, plans, mc, start, count:
                            np.zeros((len(points), 4), dtype=np.int64))
        tracemalloc.start()
        try:
            estimate(default_config(), default_geometry(), McConfig(trials=10 ** 9, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(started) <= 4
        assert peak < 2 ** 20, peak

    def test_worker_error_is_raised_after_every_worker_is_joined(self, monkeypatch):
        # one chunk of 16 fails; its exception reaches the caller and no
        # worker is left running
        boom = RuntimeError("chunk 3 failed")
        real_run_chunk = mcsim._run_chunk

        def failing(draw, points, plans, mc, start, count):
            if start == 3 * mc.chunk_size:
                raise boom
            return real_run_chunk(draw, points, plans, mc, start, count)

        started = counting_workers(monkeypatch)
        monkeypatch.setattr(mcsim, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(mcsim, "_run_chunk", failing)
        monkeypatch.setattr(McConfig, "chunk_size", 100)
        threads = threading.active_count()
        with pytest.raises(RuntimeError) as caught:
            estimate(default_config(), default_geometry(), McConfig(trials=1_600, seed=1))
        assert caught.value is boom
        assert len(started) == 4
        assert not any(w.is_alive() for w in started)
        assert threading.active_count() == threads

    def test_each_chunk_runs_exactly_once(self, monkeypatch):
        # more workers than cores, switching threads often, share one
        # iterator of chunk starts; the last chunk is short
        ran = []
        real_run_chunk = mcsim._run_chunk

        def recording(draw, points, plans, mc, start, count):
            ran.append((start, count))
            return real_run_chunk(draw, points, plans, mc, start, count)

        cfg, geo = default_config(), default_geometry()
        monkeypatch.setattr(McConfig, "chunk_size", 7)
        mc = McConfig(trials=1_000, seed=3)
        monkeypatch.setattr(mcsim, "_usable_cpus", lambda: 1)
        lone = estimate(cfg, geo, mc)
        monkeypatch.setattr(mcsim, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(mcsim, "_run_chunk", recording)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            shared = estimate(cfg, geo, mc)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(ran) == [(s, min(7, 1_000 - s)) for s in range(0, 1_000, 7)]
        assert shared == lone


def counting_workers(monkeypatch):
    """Record every worker thread ``estimate`` starts, in the returned list."""
    started = []

    class Worker(mcsim.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(mcsim, "Thread", Worker)
    return started


def outages(row, relay):
    """(strong, weak) outage counts from a ``_count`` row (out_n, sic, left, lost)."""
    out_n, sic, left, lost = row.tolist()
    return out_n, sic + (lost if relay else left)


def chain_events(cfg, geo, y_m, y_n, g_dnr, g_rdm, relay=True):
    """Outage indicators of hand-built chain values, one trial per _count call."""
    plans = [mcsim._plan(cfg, geo)]
    out = []
    for ym, yn, dnr, rdm in zip(*(np.asarray(a, dtype=float)[:, None]
                                  for a in (y_m, y_n, g_dnr, g_rdm))):
        row, = mcsim._count([(cfg, geo)], plans, {cfg.m: ym}, {cfg.n: yn}, dnr, rdm,
                            np.empty((3, 1)))
        out.append(tuple(map(bool, outages(row, relay))))
    return out


def sinr_events(cfg, geo, y_m, y_n, g_dnr, g_rdm, relay=True):
    """The same indicators through the gain transform and every SINR."""
    lam = cfg.lambda_sd
    out_n, out_m = event_arrays(cfg, geo, gains_from_chain(np.asarray(y_m, dtype=float), lam),
                                 gains_from_chain(np.asarray(y_n, dtype=float), lam),
                                 np.asarray(g_dnr, dtype=float), np.asarray(g_rdm, dtype=float),
                                 relay)
    return list(zip(out_n.tolist(), out_m.tolist()))


def edge_points(cfg, geo):
    """Chain values at and around each direct stage's level and band: (rank n's, rank m's)."""
    lam = cfg.lambda_sd
    plan = mcsim._plan(cfg, geo)
    points = []
    sic, own, direct = stage_gains(cfg, geo, cfg.gamma0)
    for gains, stages in zip(((sic, own), (direct,)), ([plan.sic, plan.own], [plan.direct])):
        pts = [0.0, -2.0 ** -60, -0.7, -3.0]  # all-zero slots, the cap, either transform branch
        for g in gains:
            if 0.0 < g / lam < math.inf:
                c = chain_at_gain(g, lam)
                pts += [c, np.nextafter(c, -np.inf), np.nextafter(c, np.inf)]
        for stage in stages:
            for edge in stage:
                # lo is the band's least value, hi the least value above it
                pts += [edge, np.nextafter(edge, -np.inf)]
        points.append([p for p in pts if -200.0 <= p <= 0.0])
    return points


def relay_edge_points(cfg, geo):
    """Hop gains (g_dnr's, g_rdm's) whose gamma* sits at and around the relay's gamma0 and band.

    For each target (gamma0 and the two edges of the relayed stage's band,
    negated, since the band lies on the -gamma* row) and three g_dnr, the
    last giving both hops one SNR whatever the path losses, g_rdm is
    solved from SINR = gamma_thm at the target, moved to the float whose
    computed gamma* lies nearest the target, and taken with its
    neighbours one ulp and a relative 1e-6 either side.  Zero gains on
    one hop and on both come first.
    """
    plan = mcsim._plan(cfg, geo)
    pairs = [(0.0, 0.8), (0.8, 0.0), (0.0, 0.0)]
    pl_dnr, pl_rdm, th = plan.hops

    def star(g_dnr, g_rdm):  # _critical_snr writes -gamma*
        return -mcsim._critical_snr(plan.hops, np.array([g_dnr]), np.array([g_rdm]),
                                    np.empty((3, 1)))[0]

    for target in (cfg.gamma0, *(-edge for edge in plan.relay)):
        for g_dnr in (0.5, 2.0, pl_dnr * th * (math.sqrt(1.0 + 1.0 / th) + 1.0) / target):
            x = pl_dnr / g_dnr
            y = target * (target - th * x) / (th * (target + x))  # SINR(target) = th
            if not (0.0 < y < math.inf and 0.0 < pl_rdm / y < math.inf):
                continue
            g = pl_rdm / y
            for _ in range(8):  # gamma* falls as g_rdm grows
                step = np.nextafter(g, math.inf if star(g_dnr, g) > target else 0.0)
                if abs(star(g_dnr, step) - target) >= abs(star(g_dnr, g) - target):
                    break
                g = step
            pairs += [(g_dnr, h) for h in (g * (1.0 - 1e-6), np.nextafter(g, 0.0), g,
                                           np.nextafter(g, math.inf), g * (1.0 + 1e-6))]
    return [list(p) for p in zip(*pairs)]


def relay_trials(cfg, geo):
    """(y_n, y_m, g_dnr, g_rdm) rows: a few chain pairs times ``relay_edge_points``.

    The pair (0.0, -30.0) keeps SIC and loses the direct copy wherever a
    case lets a trial do both.
    """
    chain = [(0.0, -30.0), (-2.0 ** -60, -3.0), (-0.7, -0.7)]
    g_dnr, g_rdm = relay_edge_points(cfg, geo)
    rows = [(yn, ym, a, b) for yn, ym in chain for a, b in zip(g_dnr, g_rdm)]
    return tuple(np.array(v) for v in zip(*rows))


class TestThresholdPath:
    def cases(self):
        geo = default_geometry()
        ref = default_config()
        level = stage_gains(ref, geo, ref.gamma0)[0] / (60.0 * math.log(2.0))  # lam at the cap
        yield ref, geo
        yield default_config(gamma0=1e8, a_m=0.8, a_n=0.2), geo
        for lam in (1e-3, level, level * (1 + 1e-12), level * (1 - 1e-6)):
            yield default_config(lambda_sd=lam), geo
        # the box's corners: its least path loss, its greatest, SIC
        # infeasible, its greatest SNR and mean gain, and its least a_n
        # with its greatest threshold
        yield default_config(theta=8.0), Geometry(1e-4, 6.0, 4.0, 0.7, 1.0)
        yield default_config(theta=8.0), Geometry(1e5, 1e5, 4.0, 0.7, 1.0)
        yield default_config(gamma_thm=0.7 / 0.3), geo
        yield default_config(gamma0=1e30, lambda_sd=1e30), geo
        yield default_config(a_m=1.0 - 1e-15, a_n=1e-15, gamma_thn=1e30, gamma0=1e-30), geo
        # relay groups at the box's corners: its least hop path loss, its
        # least and greatest hop means, and its least threshold and SNR
        yield default_config(theta=8.0), Geometry(4.0, 6.0, 1e-4, 0.7, 1.0)
        yield default_config(lambda_dnr=1e-30), geo
        yield default_config(lambda_rdm=1e30), geo
        yield default_config(gamma_thm=1e-30, gamma0=1e-30), geo

    def test_degenerate_levels_span_the_chain(self):
        # only SIC infeasible (both weak-signal stages) leaves the threshold path
        whole = mcsim._WHOLE_CHAIN
        plans = [mcsim._plan(c, g) for c, g in self.cases()]
        assert [[s == whole for s in p[:3]] for p in plans] == (
            [[False] * 3] * 8 + [[True, False, True]] + [[False] * 3] * 6)
        assert all(p.relay != whole for p in plans)

    @pytest.mark.parametrize("relay", [True, False])
    def test_edges_give_the_sinr_path_events(self, relay):
        rng = np.random.default_rng(17)
        for cfg, geo in self.cases():
            pts_n, pts_m = edge_points(cfg, geo)
            y_n, y_m = (a.ravel() for a in np.meshgrid(pts_n, pts_m))
            hops = rng.exponential(1.0, (2, y_n.size)) * rng.integers(0, 2, (2, y_n.size))
            want = sinr_events(cfg, geo, y_m, y_n, *hops, relay)
            assert chain_events(cfg, geo, y_m, y_n, *hops, relay) == want
            # all trials in one chunk: the band's trials are patched into the masks
            row, = mcsim._count([(cfg, geo)], [mcsim._plan(cfg, geo)], {cfg.m: y_m},
                                {cfg.n: y_n}, *hops, np.empty((3, y_n.size)))
            assert outages(row, relay) == tuple(map(sum, zip(*want)))

    def test_relay_edges_give_the_sinr_path_events(self, monkeypatch):
        seen = []
        real_relayed = mcsim.sinr_relayed

        def recording(cfg, geo, a, b):
            seen.append(a.size)
            return real_relayed(cfg, geo, a, b)

        monkeypatch.setattr(mcsim, "sinr_relayed", recording)
        straddled = 0
        for cfg, geo in self.cases():
            y_n, y_m, g_dnr, g_rdm = relay_trials(cfg, geo)
            want = sinr_events(cfg, geo, y_m, y_n, g_dnr, g_rdm)
            assert chain_events(cfg, geo, y_m, y_n, g_dnr, g_rdm) == want
            seen.clear()
            row, = mcsim._count([(cfg, geo)], [mcsim._plan(cfg, geo)], {cfg.m: y_m},
                                {cfg.n: y_n}, g_dnr, g_rdm, np.empty((3, y_n.size)))
            assert outages(row, True) == tuple(map(sum, zip(*want)))
            lam = cfg.lambda_sd
            fail_sic, _, fail_direct = _direct_stages(cfg, geo, gains_from_chain(y_m, lam),
                                                      gains_from_chain(y_n, lam))
            n_left = np.count_nonzero(fail_direct & ~fail_sic)
            if n_left:
                # the edges straddle the band: the SINR decides some trials, gamma* the rest
                assert 0 < sum(seen) < n_left
                straddled += 1
        assert straddled == 7

    def test_all_zero_slots_meet_the_cap(self):
        # a draw whose slots from rank 3 up are all 0 has chain value 0 and
        # the capped gain 60 lam log 2
        v = np.zeros((6, 1))
        chain = log_uniform_chain(lambda j: v[j - 1], 6, range(3, 7), v[2:])
        assert [x.item() for x in chain.values()] == [0.0] * 4
        for cfg, geo in self.cases():
            y = [0.0]
            assert chain_events(cfg, geo, y, y, [0.0], [0.0]) == sinr_events(cfg, geo, y, y,
                                                                          [0.0], [0.0])


class TestThresholdMechanism:
    def test_reference_chunk_decides_by_threshold(self, monkeypatch):
        # the reference sweep's 9 scenarios on one chunk: the gain transform
        # and every SINR, the relayed one included, see only trials in a
        # guard band (none here)
        geo = default_geometry()
        points = [(default_config(gamma0=10.0 ** (db / 10)), geo) for db in range(0, 41, 5)]
        plans = [mcsim._plan(c, g) for c, g in points]
        mc = McConfig(trials=65_536, seed=20180415)
        weak, strong, g_dnr, g_rdm = gains_from_uniforms(
            points[0][0], mc.mode, draw_columns(mc, 6, range(draws_per_trial(6, mc.mode)), 0,
                                                  65_536), [3], [6])
        seen = []

        def counting(fn):
            return lambda *a: seen.append(np.size(a[-1])) or fn(*a)

        for name in ("gains_from_chain", "sinr_direct_weak", "sinr_strong_decodes_weak",
                     "snr_strong_own", "sinr_relayed"):
            monkeypatch.setattr(mcsim, name, counting(getattr(mcsim, name)))
        counts = mcsim._run_chunk(points[0][0], points, plans, mc, 0, 65_536)
        assert sum(seen) == 0
        for (cfg, _), row in zip(points, counts):
            for relay in (True, False):
                out_n, out_m = event_arrays(cfg, geo, weak[3], strong[6], g_dnr, g_rdm, relay)
                assert outages(row, relay) == (out_n.sum(), out_m.sum())

    @pytest.mark.parametrize("cfg, want", [
        # SIC infeasible: both weak-signal stages span the chain; no trial is in the own band
        (default_config(gamma_thm=0.7 / 0.3),
         {"sinr_strong_decodes_weak": 65_536, "sinr_direct_weak": 65_536}),
        # gamma_thm a relative 2e-6 below the ceiling a_m/a_n = 7/3: a band about 5e-4 wide
        (default_config(M=8, m=4, n=8, R_m=1.736963574, gamma0=10.0 ** 7.4),
         {"sinr_strong_decodes_weak": 14}),
    ], ids=["sic-infeasible", "tight-split-74dB"])
    def test_each_stage_sinr_sees_only_its_own_band(self, monkeypatch, cfg, want):
        # one chunk at seed 11: each SINR is called on its own stage's band
        # trials only, and the counts still equal the SINR path's
        geo = default_geometry()
        mc = McConfig(trials=65_536, seed=11)
        seen = {}

        def counting(name, fn):
            def call(cfg, geo, *gains):
                seen[name] = seen.get(name, 0) + gains[0].size
                return fn(cfg, geo, *gains)
            return call

        for name in ("sinr_direct_weak", "sinr_strong_decodes_weak", "snr_strong_own",
                     "sinr_relayed"):
            monkeypatch.setattr(mcsim, name, counting(name, getattr(mcsim, name)))
        row, = mcsim._run_chunk(cfg, [(cfg, geo)], [mcsim._plan(cfg, geo)], mc, 0, 65_536)
        assert seen == want
        weak, strong, g_dnr, g_rdm = gains_from_uniforms(
            cfg, mc.mode, draw_columns(mc, cfg.M, range(draws_per_trial(cfg.M, mc.mode)), 0,
                                       65_536), [cfg.m], [cfg.n])
        for relay in (True, False):
            out_n, out_m = event_arrays(cfg, geo, weak[cfg.m], strong[cfg.n], g_dnr, g_rdm, relay)
            assert outages(row, relay) == (out_n.sum(), out_m.sum())


def sinr_replay(cfg, geo, mc, relay):
    """Outage counts (strong, weak) of every trial through the gain transform and every SINR."""
    u = draw_columns(mc, cfg.M, range(draws_per_trial(cfg.M, mc.mode)), 0, mc.trials)
    weak, strong, g_dnr, g_rdm = gains_from_uniforms(cfg, mc.mode, u, [cfg.m], [cfg.n])
    out_n, out_m = event_arrays(cfg, geo, weak[cfg.m], strong[cfg.n], g_dnr, g_rdm, relay)
    return int(out_n.sum()), int(out_m.sum())


class TestInputBoxFuzz:
    GEOMETRY_KEYS = ("d_sdn", "d_sdm", "d_dnr", "alpha1", "alpha2")

    def point(self, rng):
        """One seeded point of the input box: (SystemConfig kwargs, Geometry kwargs).

        Each field is drawn from its usual range, or with probability 0.07
        from its extremes: invalid values, values past the ends of the
        floats, and each end of ``INPUT_BOX`` with the float just outside
        it.
        """
        def pick(usual, extremes):
            return extremes[rng.integers(len(extremes))] if rng.random() < 0.07 else usual

        def log_uniform(lo, hi):
            return float(10.0 ** rng.uniform(lo, hi))

        def box_ends(key):
            lo, hi = INPUT_BOX[key]
            return [lo, hi, float(np.nextafter(lo, -math.inf)), float(np.nextafter(hi, math.inf))]

        M = int(pick(rng.integers(2, 101), [0, 1, 2, 100, 101]))
        m = int(pick(rng.integers(1, max(M, 2)), [0, 1, M]))
        n = int(pick(rng.integers(m + 1, max(M, m + 1) + 1), [m, M, M + 1]))
        a_m = float(pick(rng.uniform(0.5, 1.0), [0.5, 1.0 - 1e-12, 0.5 + 1e-12, 1.0, 1.0 - 1e-15]))
        cfg = dict(M=M, m=m, n=n, a_m=a_m,
                   a_n=float(pick(1.0 - a_m, [0.3, 0.0, -0.1, *box_ends("a_n")[::2]])),
                   gamma0=pick(log_uniform(-5.0, 8.0),
                               [1e-300, 1e300, 5e-324, 0.0, -1.0, math.inf, math.nan,
                                *box_ends("gamma0")]),
                   theta=pick(rng.uniform(0.0, 6.0),
                              [0.0, 400.0, -1.0, math.nan, *box_ends("theta")]))
        for key in ("lambda_sd", "lambda_dnr", "lambda_rdm"):
            cfg[key] = pick(log_uniform(-2.0, 2.0), [1e-300, 1e300, 0.0, -1.0, *box_ends(key)])
        for key in ("R_m", "R_n"):
            # 2**99 - 1 lies in the box and 2**100 - 1 past it
            cfg[key] = pick(log_uniform(-2.0, 0.7), [1e-300, 50.0, 2000.0, 0.0, -1.0, 99.0, 100.0])
        for key in ("gamma_thm", "gamma_thn"):
            if rng.random() < 0.2:
                cfg[key] = pick(log_uniform(-3.0, 2.0),
                                [1e-300, 1e300, 0.0, math.inf, *box_ends(key)])
        geo = {key: pick(log_uniform(-3.0, 3.0),
                         [1e-200, 1e200, 0.0, math.inf, math.nan, *box_ends(key)])
               for key in self.GEOMETRY_KEYS[:3]}
        for key in self.GEOMETRY_KEYS[3:]:
            geo[key] = pick(rng.uniform(0.01, math.pi - 0.01), [0.0, math.pi, 1e-10])
        return cfg, geo

    def test_points_are_rejected_by_key_or_agree_with_the_sinr_path(self, monkeypatch):
        # RuntimeWarnings fail the suite, so no point may raise one either;
        # each estimate runs two chunks
        monkeypatch.setattr(McConfig, "chunk_size", 200)
        rng = np.random.default_rng(2018)
        evaluated = 0
        for _ in range(400):
            cfg_kw, geo_kw = self.point(rng)
            try:
                cfg = SystemConfig(**cfg_kw)
                geo = Geometry(**geo_kw)
            except ValueError as exc:
                assert any(re.search(rf"\b{key}\b", str(exc)) for key in (*cfg_kw, *geo_kw)), exc
                continue
            evaluated += 1
            for relay in (True, False):
                point = evaluate(cfg, geo, relay=relay)
                assert 0.0 <= point.p_out_n <= 1.0 and 0.0 <= point.p_out_m <= 1.0
            for mode in MODES:
                mc = McConfig(trials=300, seed=int(rng.integers(2 ** 63)), mode=mode)
                point, = estimate(cfg, geo, mc)
                for est_m, relay in ((point.p_out_m, True), (point.p_out_m_norelay, False)):
                    assert (point.p_out_n.events, est_m.events) == sinr_replay(cfg, geo, mc, relay)
        assert evaluated >= 100


class TestInputBoxEnds:
    @pytest.mark.parametrize("key", ["gamma0", "theta", "a_n", "lambda_sd", "lambda_dnr",
                                     "lambda_rdm", "gamma_thm", "gamma_thn", "d_sdn", "d_sdm",
                                     "d_dnr"])
    def test_each_end_evaluates_and_one_ulp_past_is_refused_by_key(self, monkeypatch, key):
        lo, hi = INPUT_BOX[key]
        # a_n's upper end lies past a_m > a_n, which refuses it first
        ends = [(lo, np.nextafter(lo, -math.inf))] + (
            [] if key == "a_n" else [(hi, np.nextafter(hi, math.inf))])
        monkeypatch.setattr(McConfig, "chunk_size", 200)  # two chunks of 300 trials

        def build(value):
            cfg_kw = {key: float(value)} if key in SystemConfig.__dataclass_fields__ else {}
            if key == "a_n":
                cfg_kw["a_m"] = 1.0 - float(value)
            geo_kw = dict(d_sdn=4.0, d_sdm=6.0, d_dnr=4.0, alpha1=0.7, alpha2=1.0)
            geo_kw.update({} if cfg_kw else {key: float(value)})
            return default_config(**cfg_kw), Geometry(**geo_kw)

        for end, past in ends:
            cfg, geo = build(end)
            assert 0.0 <= evaluate(cfg, geo).p_out_m <= 1.0
            mc = McConfig(trials=300, seed=3)
            point, = estimate(cfg, geo, mc)
            assert (point.p_out_n.events, point.p_out_m.events) == sinr_replay(cfg, geo, mc, True)
            with pytest.raises(ValueError, match=rf"^{key} must lie in \["):
                build(past)

