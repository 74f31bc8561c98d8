import dataclasses
import math
import re

import mpmath
import numpy as np
import pytest

from coopnoma.linklevel import (INPUT_BOX, Geometry, SystemConfig, _law_of_cosines, check_box,
                                path_loss, sinr_direct_weak, sinr_relayed,
                                sinr_strong_decodes_weak, snr_strong_own, stage_gains)
from coopnoma.orderstat import MAX_RANKED_USERS


def default_config(**overrides):
    base = dict(M=6, m=3, n=6, a_m=0.7, a_n=0.3, gamma0=100.0)
    base.update(overrides)
    return SystemConfig(**base)


def default_geometry():
    return Geometry(4.0, 6.0, 4.0, math.radians(40.0), math.radians(60.0))


class TestSystemConfig:
    def test_defaults(self):
        cfg = default_config()
        assert cfg.theta == 2.0
        assert cfg.lambda_sd == cfg.lambda_dnr == cfg.lambda_rdm == 1.0
        # unit rates give unit thresholds
        assert cfg.gamma_thm == 1.0
        assert cfg.gamma_thn == 1.0

    def test_thresholds_follow_rates(self):
        cfg = default_config(R_m=2.0, R_n=3.0)
        assert cfg.gamma_thm == 3.0
        assert cfg.gamma_thn == 7.0

    def test_explicit_thresholds_win(self):
        cfg = default_config(gamma_thm=0.5, gamma_thn=2.5)
        assert cfg.gamma_thm == 0.5
        assert cfg.gamma_thn == 2.5

    @pytest.mark.parametrize("bad", [
        dict(m=6, n=3),           # ranks swapped
        dict(m=0, n=6),
        dict(m=3, n=7),
        dict(a_m=0.5, a_n=0.5),   # needs strict a_m > a_n
        dict(a_m=0.3, a_n=0.7),
        dict(a_m=0.8, a_n=0.3),   # doesn't sum to 1
        dict(gamma0=0.0),
        dict(theta=-1.0),
        dict(lambda_sd=0.0),
        dict(lambda_rdm=-2.0),
        dict(lambda_sd=math.inf),
        dict(lambda_dnr=math.inf),
        dict(lambda_rdm=math.inf),
        dict(R_m=0.0),
        dict(M=0, m=1, n=2),
    ])
    def test_rejects_bad_parameters(self, bad):
        with pytest.raises(ValueError):
            default_config(**bad)

    @pytest.mark.parametrize("key", ["M", "m", "n"])
    def test_rejects_bool_rank_naming_key(self, key):
        with pytest.raises(ValueError, match=f"^{key} must be"):
            default_config(**{key: True})

    @pytest.mark.parametrize("key", ["a_m", "a_n", "gamma0", "theta", "lambda_sd", "lambda_dnr",
                                     "lambda_rdm", "R_m", "R_n", "gamma_thm", "gamma_thn"])
    @pytest.mark.parametrize("flag", [True, np.True_])
    def test_rejects_bool_number_naming_key(self, key, flag):
        # a bool is an int, so True would otherwise pass as 1.0
        with pytest.raises(ValueError, match=f"^{key} must be a number, not a bool"):
            default_config(**{key: flag})

    def test_population_bound_names_key(self):
        assert default_config(M=MAX_RANKED_USERS, n=MAX_RANKED_USERS).M == MAX_RANKED_USERS
        with pytest.raises(ValueError, match=f"^M must be <= {MAX_RANKED_USERS}"):
            default_config(M=MAX_RANKED_USERS + 1)

    @pytest.mark.parametrize("gamma0", [math.inf, math.nan])
    def test_rejects_nonfinite_snr_naming_key(self, gamma0):
        with pytest.raises(ValueError,
                           match=r"^gamma0 must lie in \[9\.999999999999999e-31, 1e\+30\]"):
            default_config(gamma0=gamma0)

    @pytest.mark.parametrize("key", ["R_m", "R_n"])
    @pytest.mark.parametrize("rate", [1e-300, 2000.0])
    def test_rate_whose_threshold_leaves_the_floats_names_key(self, key, rate):
        # 2**1e-300 - 1 lies far below the box and 2**2000 overflows
        th = {"R_m": "gamma_thm", "R_n": "gamma_thn"}[key]
        message = f"{key}={rate!r} gives {th} = 2**{key} - 1, which must lie in [1e-30, 1e+30]"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}, got "):
            default_config(**{key: rate})


class TestBoxRefusals:
    @pytest.mark.parametrize("key", sorted(INPUT_BOX))
    def test_states_the_ends_exactly(self, key):
        # each end reads back as the very float the box holds
        with pytest.raises(ValueError) as err:
            check_box(key, math.nan)
        ends = re.fullmatch(rf"{key} must lie in \[(.+), (.+)\], got nan", str(err.value))
        assert tuple(map(float, ends.groups())) == INPUT_BOX[key]


class TestThresholdFromRate:
    def test_values(self):
        # 2**R - 1; a zero rate is rejected with the negative ones below
        assert default_config(R_m=1.0).gamma_thm == 1.0
        assert default_config(R_m=2.0).gamma_thm == 3.0
        # sqrt(2) - 1 to the nearest float; 2.0 ** 0.5 - 1.0 is two ulps above it
        assert default_config(R_m=0.5).gamma_thm == 0.41421356237309503

    @pytest.mark.parametrize("rate", range(1, 17))
    def test_integer_rates_give_exact_thresholds(self, rate):
        cfg = default_config(R_m=float(rate), R_n=rate)
        assert cfg.gamma_thm == cfg.gamma_thn == float(2 ** rate - 1)

    @pytest.mark.parametrize("rate", [1e-10, 1e-6, 1e-3, 0.5])
    def test_small_rates_match_mpmath(self, rate):
        # 2.0**R - 1.0 cancels as R falls (8.4e-7 relative error at 1e-10)
        with mpmath.workdps(50):
            want = float(mpmath.power(2, mpmath.mpf(rate)) - 1)
        cfg = default_config(R_m=rate, R_n=rate)
        assert cfg.gamma_thm == cfg.gamma_thn == pytest.approx(want, rel=2e-16, abs=0.0)

    def test_negative_rate_rejected(self):
        for rate in (0.0, -0.5):
            with pytest.raises(ValueError, match="^R_m must be > 0"):
                default_config(R_m=rate)


class TestGeometry:
    def test_reference_layout(self):
        geo = default_geometry()
        # source-user triangle: 16 + 36 - 2*4*6*cos(60deg) = 28
        assert geo.d_dndm == pytest.approx(math.sqrt(28.0), rel=1e-12)
        assert geo.d_rdm == pytest.approx(
            math.sqrt(28.0 + 16.0 - 8.0 * math.sqrt(28.0) * math.cos(math.radians(40.0))),
            rel=1e-12)
        assert geo.d_rdm == pytest.approx(3.4017, abs=1e-4)

    def test_pythagorean_case(self):
        geo = Geometry(3.0, 4.0, 1.0, math.radians(90.0), math.radians(90.0))
        assert geo.d_dndm == pytest.approx(5.0, rel=1e-12)

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            Geometry(0.0, 6.0, 4.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            Geometry(4.0, 6.0, 4.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            Geometry(4.0, 6.0, 4.0, 1.0, math.pi)

    @pytest.mark.parametrize("key", ["d_sdn", "d_sdm", "d_dnr", "alpha1", "alpha2"])
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_nonfinite_free_parameter_naming_key(self, key, bad):
        free = dict(d_sdn=4.0, d_sdm=6.0, d_dnr=4.0, alpha1=1.0, alpha2=1.0)
        free[key] = bad
        with pytest.raises(ValueError, match=f"{key} must"):
            Geometry(**free)

    @pytest.mark.parametrize("key", ["d_sdn", "d_sdm", "d_dnr", "alpha1", "alpha2"])
    def test_rejects_bool_naming_key(self, key):
        free = dict(d_sdn=4.0, d_sdm=6.0, d_dnr=4.0, alpha1=1.0, alpha2=1.0)
        free[key] = True
        with pytest.raises(ValueError, match=f"^{key} must be a number, not a bool"):
            Geometry(**free)

    def test_extreme_layouts_keep_accurate_derived_distances(self):
        # the textbook square cancels to 0 at these small angles between
        # nearly equal sides; the box's least and greatest distances
        for free in ((1e5, 1e5, 1e5, 0.7, 2e-9), (3e4, 3e4, 1e-4, 1.0, 1e-8),
                     (1e-4, 1e5, 1e-4, 0.7, 1.0)):
            geo = Geometry(*free)
            with mpmath.workdps(50):
                def side(a, b, angle):
                    a, b = mpmath.mpf(a), mpmath.mpf(b)
                    return mpmath.sqrt(a * a + b * b - 2 * a * b * mpmath.cos(mpmath.mpf(angle)))
                want_dndm = side(free[1], free[0], free[4])
                want_rdm = side(geo.d_dndm, free[2], free[3])
            assert geo.d_dndm == pytest.approx(float(want_dndm), rel=1e-12)
            assert geo.d_rdm == pytest.approx(float(want_rdm), rel=1e-12)
        for free in ((4.0, 4.0, 4.0, 1e-10, 1e-10), (1e5, 1e5, 1.0, 1.0, 3.1)):
            with pytest.raises(ValueError, match=r"^d_sdm, d_sdn and alpha2 give d_dndm, which "
                                                 r"must lie in \[0\.0001, 100000\.0\], got "):
                Geometry(*free)
        with pytest.raises(ValueError, match=r"alpha2 give d_rdm, which must lie in "):
            Geometry(1e5, 1e5, 1e5, 3.0, 1.0)

    @pytest.mark.parametrize("a, b, angle", [
        (100.0, 100.0, 1e-6), (100.0, 100.0, 1e-4), (1.0, 1.0 + 2e-16, 1e-12),
        (6.0, 4.0, math.radians(60.0)), (3.0, 4.0, math.pi / 2), (1e-4, 1e5, 3.0),
        (5.0, 5.0, math.pi - 1e-9), (7.0, 2.0, 1e-8)])
    def test_law_of_cosines_matches_mpmath(self, a, b, angle):
        # the textbook a**2 + b**2 - 2ab cos(angle) gave 1.00004e-4 for the
        # first triangle, against 1.0000e-4
        with mpmath.workdps(50):
            a_, b_ = mpmath.mpf(a), mpmath.mpf(b)
            cos = mpmath.cos(mpmath.mpf(angle))
            want = float(mpmath.sqrt(a_ * a_ + b_ * b_ - 2 * a_ * b_ * cos))
        assert _law_of_cosines(a, b, angle) == pytest.approx(want, rel=1e-15, abs=0.0)
        assert _law_of_cosines(b, a, angle) == _law_of_cosines(a, b, angle)

    def test_small_angle_between_equal_sides_keeps_its_derived_distance(self):
        geo = Geometry(100.0, 100.0, 4.0, 0.7, 1.5e-6)
        with mpmath.workdps(50):
            want = float(200 * mpmath.sin(mpmath.mpf(1.5e-6) / 2))
        assert geo.d_dndm == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_reference_layout_sides_are_unchanged(self):
        # the bits every CSV of the default layout rests on
        geo = default_geometry()
        assert (geo.d_dndm, geo.d_rdm) == (5.2915026221291805, 3.401733464654089)

    def test_replace_derives_the_sides_again(self):
        geo = default_geometry()
        moved = dataclasses.replace(geo, d_dnr=7.0)
        assert moved == Geometry(geo.d_sdn, geo.d_sdm, 7.0, geo.alpha1, geo.alpha2)
        assert moved.d_dndm == geo.d_dndm and moved.d_rdm != geo.d_rdm

    def test_derived_sides_are_not_parameters(self):
        geo = default_geometry()
        free = (geo.d_sdn, geo.d_sdm, geo.d_dnr, geo.alpha1, geo.alpha2)
        for sides in (dict(d_dndm=geo.d_dndm), dict(d_dndm=geo.d_dndm, d_rdm=geo.d_rdm)):
            with pytest.raises(TypeError):
                Geometry(*free, **sides)

    def test_triangle_inequalities_hold(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            d1, d2, d3 = np.exp(rng.uniform(-1, 3, size=3))
            a1, a2 = rng.uniform(0.05, math.pi - 0.05, size=2)
            geo = Geometry(d1, d2, d3, a1, a2)
            assert geo.d_dndm <= geo.d_sdn + geo.d_sdm + 1e-12
            assert geo.d_dndm >= abs(geo.d_sdn - geo.d_sdm) - 1e-12
            assert geo.d_rdm <= geo.d_dndm + geo.d_dnr + 1e-12
            assert geo.d_rdm >= abs(geo.d_dndm - geo.d_dnr) - 1e-12


class TestPathLoss:
    def test_is_the_power_where_it_fits_a_float(self):
        assert path_loss(4.0, 2.0) == 16.0
        assert path_loss(6.0, 2.5) == 6.0 ** 2.5
        assert path_loss(7.0, 0.0) == 1.0

    def test_box_spans_thirty_two_to_forty_decades(self):
        assert path_loss(1e-4, 8.0) == pytest.approx(1e-32, rel=1e-15)
        assert path_loss(1e5, 8.0) == 1e40
        assert path_loss(1e-4, 0.0) == path_loss(1e5, 0.0) == 1.0


class TestSinrExpressions:
    def test_direct_weak_substitution(self):
        cfg = default_config(gamma0=10.0)
        geo = Geometry(1.0, 1.0, 1.0, math.radians(40.0), math.radians(60.0))
        # 0.7*1 / (0.3*1 + 1/10)
        assert sinr_direct_weak(cfg, geo, 1.0) == pytest.approx(1.75, rel=1e-12)

    def test_direct_weak_reduces_to_snr_without_interference(self):
        # push a_n toward zero: SINR approaches gamma0 * g / d^theta
        cfg = default_config(a_m=1.0 - 1e-12, a_n=1e-12, gamma0=10.0)
        geo = Geometry(1.0, 1.0, 1.0, math.radians(40.0), math.radians(60.0))
        assert sinr_direct_weak(cfg, geo, 1.0) == pytest.approx(10.0, rel=1e-9)

    def test_interference_ceiling(self):
        cfg = default_config()
        geo = default_geometry()
        assert sinr_direct_weak(cfg, geo, 1e300) == pytest.approx(0.7 / 0.3, rel=1e-12)
        assert sinr_strong_decodes_weak(cfg, geo, 1e300) == pytest.approx(0.7 / 0.3, rel=1e-12)

    def test_monotone_in_gain(self):
        cfg = default_config()
        geo = default_geometry()
        g = np.linspace(0.0, 50.0, 400)
        for fn in (sinr_direct_weak, sinr_strong_decodes_weak, snr_strong_own):
            vals = fn(cfg, geo, g)
            assert np.all(np.diff(vals) >= 0)
            assert vals[0] == 0.0

    def test_strong_decodes_weak_uses_strong_distance(self):
        cfg = default_config(gamma0=100.0)
        geo = default_geometry()
        # d_sdn = 4, theta = 2 -> noise term 16/100
        assert sinr_strong_decodes_weak(cfg, geo, 2.0) == pytest.approx(
            1.4 / (0.6 + 0.16), rel=1e-12)

    def test_strong_own_is_linear_in_snr(self):
        geo = default_geometry()
        lo = default_config(gamma0=10.0)
        hi = default_config(gamma0=1000.0)
        assert snr_strong_own(hi, geo, 0.8) == pytest.approx(
            100.0 * snr_strong_own(lo, geo, 0.8), rel=1e-12)
        assert snr_strong_own(lo, geo, 16.0 / (10.0 * 0.3)) == pytest.approx(1.0, rel=1e-12)


class TestLeastPassingGains:
    # the SINR and threshold of each level stage_gains gives, in its order
    STAGES = ((sinr_strong_decodes_weak, "gamma_thm"), (snr_strong_own, "gamma_thn"),
              (sinr_direct_weak, "gamma_thm"))

    @pytest.mark.parametrize("overrides", [{}, dict(gamma0=1e-4, theta=3.5, R_n=2.0),
                                           dict(a_m=0.8, a_n=0.2, gamma_thm=3.9)])
    def test_invert_the_sinr_expressions(self, overrides):
        cfg, geo = default_config(**overrides), default_geometry()
        for x, (sinr, th) in zip(stage_gains(cfg, geo, cfg.gamma0), self.STAGES):
            assert sinr(cfg, geo, x) == pytest.approx(getattr(cfg, th), rel=1e-12)
            assert sinr(cfg, geo, x * (1 - 1e-9)) < getattr(cfg, th) <= sinr(cfg, geo,
                                                                            x * (1 + 1e-9))

    def test_limits(self):
        geo = default_geometry()
        # SIC infeasible: no gain passes the weak-signal stages
        cfg = default_config(gamma_thm=0.7 / 0.3)
        sic, _, direct = stage_gains(cfg, geo, cfg.gamma0)
        assert sic == direct == math.inf
        # the box's corners: the least and greatest levels, and a spare of
        # one ulp just short of SIC infeasible, are normal floats that invert
        # the SINR expressions
        faint = default_config(gamma0=1e-30, a_m=1.0 - 1e-15, a_n=1e-15, theta=8.0,
                               gamma_thm=(1.0 - 1e-15) / 1e-15 * (1 - 2e-16), gamma_thn=1e30)
        loud = default_config(gamma0=1e30, theta=8.0, gamma_thm=1e-30, gamma_thn=1e-30)
        far, near = Geometry(1e5, 1e5, 4.0, 0.7, 1.0), Geometry(1e-4, 1e-4, 4.0, 0.7, 1.5)
        levels = []
        for cfg, geo in ((faint, far), (loud, near)):
            for x, (sinr, th) in zip(stage_gains(cfg, geo, cfg.gamma0), self.STAGES):
                levels.append(x)
                assert sinr(cfg, geo, x) == pytest.approx(getattr(cfg, th), rel=1e-12)
        assert max(levels) == pytest.approx(1e115) and 1e-92 < min(levels) < 1e-91

    @pytest.mark.parametrize("layout", [(4.0, 6.0, 4.0, 2.0), (1e-4, 1e5, 1e-4, 3.7),
                                        (1e-4, 6.0, 4.0, 8.0), (1e5, 5e4, 4.0, 8.0)])
    def test_snr_array_matches_scalar_calls(self, layout):
        # RuntimeWarnings fail the suite, so no entry may raise one either
        *dists, theta = layout
        geo = Geometry(*dists, 0.7, 1.0)
        gamma0 = 10.0 ** (np.arange(-300.0, 300.5, 2.5) / 10.0)
        for cfg in (default_config(theta=theta), default_config(theta=theta, gamma_thm=0.7 / 0.3)):
            got = stage_gains(cfg, geo, gamma0)
            want = [stage_gains(cfg, geo, float(g)) for g in gamma0]
            assert all(isinstance(w, float) for levels in want for w in levels)
            for stage, levels in enumerate(got):
                assert levels.shape == gamma0.shape
                assert levels.tobytes() == np.array([w[stage] for w in want]).tobytes()
        # the box's greatest loss over its whole SNR range: levels across 128 decades
        _, _, got = stage_gains(default_config(theta=8.0), Geometry(1e-4, 1e5, 1e-4, 0.7, 1.0),
                                gamma0)
        assert got.max() / got.min() > 1e59 and np.isfinite(got).all()


class TestRelayedSinr:
    def test_dead_hop_kills_link(self):
        cfg = default_config()
        geo = default_geometry()
        assert sinr_relayed(cfg, geo, 0.0, 5.0) == 0.0
        assert sinr_relayed(cfg, geo, 5.0, 0.0) == 0.0

    def test_balanced_hops(self):
        cfg = default_config(gamma0=10.0)
        geo = Geometry(1.0, 1.0, 1.0, math.radians(60.0), math.radians(60.0))
        # both hop SNRs are 10*g/d_hop^2; pick gains that land both at 10
        g2 = geo.d_rdm ** 2 / 1.0
        got = sinr_relayed(cfg, geo, 1.0, g2)
        assert got == pytest.approx(100.0 / 21.0, rel=1e-12)

    def test_never_beats_weaker_hop(self):
        cfg = default_config()
        geo = default_geometry()
        rng = np.random.default_rng(5)
        g1 = rng.exponential(1.0, 2000)
        g2 = rng.exponential(1.0, 2000)
        af = sinr_relayed(cfg, geo, g1, g2)
        hop1 = cfg.gamma0 * g1 / geo.d_dnr ** cfg.theta
        hop2 = cfg.gamma0 * g2 / geo.d_rdm ** cfg.theta
        assert np.all(af <= np.minimum(hop1, hop2) + 1e-12)
        assert np.all(af >= 0)

    def test_finite_values_keep_the_plain_quotient(self):
        cfg = default_config()
        geo = default_geometry()
        rng = np.random.default_rng(6)
        g_dnr = rng.exponential(1.0, 500)
        g_rdm = rng.exponential(1.0, 500)
        hop1 = cfg.gamma0 * g_dnr / geo.d_dnr ** cfg.theta
        hop2 = cfg.gamma0 * g_rdm / geo.d_rdm ** cfg.theta
        assert np.array_equal(sinr_relayed(cfg, geo, g_dnr, g_rdm),
                              hop1 * hop2 / (hop1 + hop2 + 1.0))

    def test_box_corners_keep_the_plain_quotient(self):
        # hop SNRs from the least (gain 1e-16 lam, greatest loss, least SNR)
        # to the greatest (gain 37 lam, least loss, greatest SNR) the box gives
        for gamma0, d, lam in ((1e-30, 1e5, 1e-30), (1e30, 1e-4, 1e30)):
            cfg = default_config(gamma0=gamma0, theta=8.0, lambda_dnr=lam, lambda_rdm=lam)
            geo = Geometry(1e5, 1e5, d, 0.7, 1.0) if d < 1 else Geometry(4.0, 6.0, d, 0.7, 1.0)
            g = lam * np.array([1e-16, 1.0, 37.0])
            hop1 = gamma0 * g / geo.d_dnr ** 8.0
            hop2 = gamma0 * g[::-1] / geo.d_rdm ** 8.0
            got = sinr_relayed(cfg, geo, g, g[::-1])
            assert np.array_equal(got, hop1 * hop2 / (hop1 + hop2 + 1.0))
            assert np.all(got > 0.0) and np.all(got <= np.minimum(hop1, hop2))
