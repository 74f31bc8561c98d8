"""Exact relations between runs of the two engines, with no reference value.

Each test runs an engine twice, or over a family of scenarios on one
draw, and asserts a relation that must hold exactly:

- scaling every fading mean by a power of two k and the SNR by 1/k, or
  every free length by 2 at theta = 2 and the SNR by 4, leaves both
  engines' outputs bit-identical, since each intermediate is scaled by a
  power of two and rounding commutes with that;
- on one Monte-Carlo draw, the relay never adds an outage, every count
  is nonincreasing in the SNR, and the strong user's count does not
  depend on the weak user's rank;
- swapping the two relay hops, distance and fading mean together, leaves
  the closed-form relay factor unchanged.  This one holds to a relative
  1e-12, not bit for bit: the swap reorders the products
  d_a**theta d_b**theta and gamma0**2 lambda_a lambda_b and the sum of
  the two hop terms.

They catch a mis-scaled level, a wrong guard-band side, an off-by-one in
the count row, or a draw that depends on the SNR or on m: errors of a
few events that the acceptance criteria, bounding p_hat to a few
standard errors, cannot resolve.  They cannot catch an error that keeps
the scaling or the ordering, such as two distances swapped in both
engines, or a wrong constant factor inside a level that every run
shares.
"""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from coopnoma.analytic import evaluate, two_hop_outage
from coopnoma.linklevel import Geometry, SystemConfig
from coopnoma.mcsim import MODES, McConfig, estimate

# (SystemConfig, Geometry) pairs: the reference layout, a far weak user at
# M=20 with unequal fading means and rates, and a near-SIC-infeasible split.
LAYOUTS = {
    "reference": (SystemConfig(M=6, m=3, n=6, a_m=0.7, a_n=0.3, gamma0=100.0),
                  Geometry(4.0, 6.0, 4.0, math.radians(40.0), math.radians(60.0))),
    "far-m20": (SystemConfig(M=20, m=10, n=20, a_m=0.8, a_n=0.2, gamma0=100.0,
                             lambda_sd=0.7, lambda_dnr=1.3, lambda_rdm=2.5, R_m=0.7, R_n=1.3),
                Geometry(2.0, 9.0, 7.0, math.radians(30.0), math.radians(120.0))),
    "tight-split": (SystemConfig(M=8, m=2, n=7, a_m=0.55, a_n=0.45, gamma0=100.0,
                                 R_m=0.3, theta=3.0),
                    Geometry(3.0, 5.0, 2.5, math.radians(150.0), math.radians(20.0))),
}
DB = np.arange(-20.0, 60.25, 0.5)  # 161 SNRs for the closed forms
MC_DB = np.arange(0.0, 41.0, 5.0)  # 9 SNRs on one Monte-Carlo draw


def curve_bytes(cfg, geo, gamma0):
    """Every ``evaluate`` output over the grid ``gamma0`` but the grid itself, as bytes."""
    point = evaluate(cfg, geo, gamma0=gamma0)
    return [getattr(point, f.name).tobytes() for f in fields(point) if f.name != "gamma0"]


def mc_points(cfg, geo, mc, gamma0s):
    """``estimate`` of cfg at each SNR of ``gamma0s``, on one draw."""
    first, *rest = [(replace(cfg, gamma0=float(g)), geo) for g in gamma0s]
    return estimate(*first, mc, also=rest)


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
class TestExactScalings:
    @pytest.mark.parametrize("k", [0.25, 2.0, 4.0, 8.0])
    def test_fading_means_times_k_and_snr_over_k(self, layout, k):
        cfg, geo = LAYOUTS[layout]
        scaled = replace(cfg, lambda_sd=cfg.lambda_sd * k, lambda_dnr=cfg.lambda_dnr * k,
                         lambda_rdm=cfg.lambda_rdm * k)
        gamma0 = 10.0 ** (DB / 10.0)
        assert curve_bytes(scaled, geo, gamma0 / k) == curve_bytes(cfg, geo, gamma0)
        mc = McConfig(trials=20_000, seed=17, mode="joint")
        gamma0 = 10.0 ** (MC_DB / 10.0)
        assert mc_points(scaled, geo, mc, gamma0 / k) == mc_points(cfg, geo, mc, gamma0)

    def test_lengths_times_two_and_snr_times_four_at_theta_2(self, layout):
        cfg, geo = LAYOUTS[layout]
        cfg = replace(cfg, theta=2.0)
        far = Geometry(2.0 * geo.d_sdn, 2.0 * geo.d_sdm, 2.0 * geo.d_dnr, geo.alpha1, geo.alpha2)
        assert (far.d_dndm, far.d_rdm) == (2.0 * geo.d_dndm, 2.0 * geo.d_rdm)
        gamma0 = 10.0 ** (DB / 10.0)
        assert curve_bytes(cfg, far, gamma0 * 4.0) == curve_bytes(cfg, geo, gamma0)
        mc = McConfig(trials=20_000, seed=19, mode="independent")
        gamma0 = 10.0 ** (MC_DB / 10.0)
        assert mc_points(cfg, far, mc, gamma0 * 4.0) == mc_points(cfg, geo, mc, gamma0)


@pytest.mark.parametrize("mode", MODES)
class TestOneDrawOrderings:
    TRIALS = 400_000

    def test_counts_nonincreasing_in_snr_and_relay_never_hurts(self, mode):
        cfg, geo = LAYOUTS["reference"]
        mc = McConfig(trials=self.TRIALS, seed=11, mode=mode)
        points = mc_points(cfg, geo, mc, 10.0 ** (np.arange(0.0, 40.25, 0.5) / 10.0))
        assert len(points) == 81
        for name in ("p_out_n", "p_out_m", "p_out_m_norelay"):
            events = [getattr(p, name).events for p in points]
            assert all(a >= b for a, b in zip(events, events[1:])), name
        assert all(p.p_out_m.events <= p.p_out_m_norelay.events for p in points)
        # the grid runs from near-certain outage to almost none
        assert points[0].p_out_m_norelay.events > 100 * points[-1].p_out_m_norelay.events

    def test_strong_user_count_does_not_depend_on_m(self, mode):
        cfg, geo = LAYOUTS["reference"]
        mc = McConfig(trials=self.TRIALS, seed=11, mode=mode)
        first, *rest = [(replace(cfg, m=m, n=6), geo) for m in range(1, 6)]
        points = estimate(*first, mc, also=rest)
        want = {"joint": 2_019, "independent": 1_986}[mode]
        assert [p.p_out_n.events for p in points] == [want] * 5
        assert all(p.p_out_m.events <= p.p_out_m_norelay.events for p in points)


def test_hop_symmetry_under_matched_stats():
    # swapping the two hops (distance and fading mean together) is symmetric
    a = two_hop_outage(1.0, 50.0, 2.0, 7.0, 2.0, 0.5, 1.5)[0]
    b = two_hop_outage(1.0, 50.0, 7.0, 2.0, 2.0, 1.5, 0.5)[0]
    assert a == pytest.approx(b, rel=1e-12)
