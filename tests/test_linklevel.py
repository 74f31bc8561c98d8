import math

import numpy as np
import pytest

from coopnoma.linklevel import (ChannelRealization, Geometry, SystemConfig,
                                derive_geometry, sinr_direct_weak, sinr_relayed,
                                sinr_strong_decodes_weak, snr_strong_own,
                                threshold_from_rate)


def default_config(**overrides):
    base = dict(M=6, m=3, n=6, a_m=0.7, a_n=0.3, gamma0=100.0)
    base.update(overrides)
    return SystemConfig(**base)


def default_geometry():
    return derive_geometry(4.0, 6.0, 4.0, math.radians(40.0), math.radians(60.0))


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
        dict(R_m=0.0),
        dict(M=0, m=1, n=2),
    ])
    def test_rejects_bad_parameters(self, bad):
        with pytest.raises(ValueError):
            default_config(**bad)

    @pytest.mark.parametrize("gamma0", [math.inf, math.nan])
    def test_rejects_nonfinite_snr_naming_key(self, gamma0):
        with pytest.raises(ValueError, match="gamma0 must be finite"):
            default_config(gamma0=gamma0)


class TestThresholdFromRate:
    def test_values(self):
        assert threshold_from_rate(0.0) == 0.0
        assert threshold_from_rate(1.0) == 1.0
        assert threshold_from_rate(2.0) == 3.0

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            threshold_from_rate(-0.5)


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
        geo = derive_geometry(3.0, 4.0, 1.0, math.radians(90.0), math.radians(90.0))
        assert geo.d_dndm == pytest.approx(5.0, rel=1e-12)

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            derive_geometry(0.0, 6.0, 4.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            derive_geometry(4.0, 6.0, 4.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            derive_geometry(4.0, 6.0, 4.0, 1.0, math.pi)

    @pytest.mark.parametrize("key", ["d_sdn", "d_sdm", "d_dnr", "alpha1", "alpha2"])
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_nonfinite_free_parameter_naming_key(self, key, bad):
        free = dict(d_sdn=4.0, d_sdm=6.0, d_dnr=4.0, alpha1=1.0, alpha2=1.0)
        free[key] = bad
        with pytest.raises(ValueError, match=f"{key} must"):
            derive_geometry(**free)

    def test_rejects_inconsistent_derived_distances(self):
        geo = default_geometry()
        with pytest.raises(ValueError):
            Geometry(d_sdn=geo.d_sdn, d_sdm=geo.d_sdm, d_dnr=geo.d_dnr,
                     alpha1=geo.alpha1, alpha2=geo.alpha2,
                     d_dndm=geo.d_dndm, d_rdm=geo.d_rdm * 1.001)

    def test_triangle_inequalities_hold(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            d1, d2, d3 = np.exp(rng.uniform(-1, 3, size=3))
            a1, a2 = rng.uniform(0.05, math.pi - 0.05, size=2)
            geo = derive_geometry(d1, d2, d3, a1, a2)
            assert geo.d_dndm <= geo.d_sdn + geo.d_sdm + 1e-12
            assert geo.d_dndm >= abs(geo.d_sdn - geo.d_sdm) - 1e-12
            assert geo.d_rdm <= geo.d_dndm + geo.d_dnr + 1e-12
            assert geo.d_rdm >= abs(geo.d_dndm - geo.d_dnr) - 1e-12


class TestChannelRealization:
    def test_rank_accessors(self):
        real = ChannelRealization(g_sd=np.array([0.1, 0.5, 2.0]), g_dnr=1.0, g_rdm=2.0)
        assert real.gain_weak(1) == 0.1
        assert real.gain_strong(3) == 2.0

    def test_second_vector_feeds_strong_rank(self):
        real = ChannelRealization(g_sd=np.array([0.1, 0.5, 2.0]), g_dnr=1.0, g_rdm=2.0,
                                  g_sd_strong=np.array([0.2, 0.3, 9.0]))
        assert real.gain_weak(2) == 0.5
        assert real.gain_strong(3) == 9.0

    def test_rejects_unsorted_or_negative(self):
        with pytest.raises(ValueError):
            ChannelRealization(g_sd=np.array([2.0, 1.0]), g_dnr=0.0, g_rdm=0.0)
        with pytest.raises(ValueError):
            ChannelRealization(g_sd=np.array([-0.1, 1.0]), g_dnr=0.0, g_rdm=0.0)
        with pytest.raises(ValueError):
            ChannelRealization(g_sd=np.array([0.1, 1.0]), g_dnr=-1.0, g_rdm=0.0)


class TestSinrExpressions:
    def test_direct_weak_substitution(self):
        cfg = default_config(gamma0=10.0)
        geo = derive_geometry(1.0, 1.0, 1.0, math.radians(40.0), math.radians(60.0))
        # 0.7*1 / (0.3*1 + 1/10)
        assert sinr_direct_weak(cfg, geo, 1.0) == pytest.approx(1.75, rel=1e-12)

    def test_direct_weak_reduces_to_snr_without_interference(self):
        # push a_n toward zero: SINR approaches gamma0 * g / d^theta
        cfg = default_config(a_m=1.0 - 1e-12, a_n=1e-12, gamma0=10.0)
        geo = derive_geometry(1.0, 1.0, 1.0, math.radians(40.0), math.radians(60.0))
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


class TestRelayedSinr:
    def test_dead_hop_kills_link(self):
        cfg = default_config()
        geo = default_geometry()
        assert sinr_relayed(cfg, geo, 0.0, 5.0) == 0.0
        assert sinr_relayed(cfg, geo, 5.0, 0.0) == 0.0

    def test_balanced_hops(self):
        cfg = default_config(gamma0=10.0)
        geo = derive_geometry(1.0, 1.0, 1.0, math.radians(60.0), math.radians(60.0))
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
