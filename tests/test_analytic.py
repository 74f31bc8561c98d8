import json
import math
import pathlib
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy import integrate
from scipy.special import betainc, k1

from coopnoma.analytic import (OutagePoint, bessel_k1, evaluate, outage_strong,
                               outage_weak, relay_link_outage, sic_feasible,
                               throughput, two_hop_outage)
from coopnoma.linklevel import SystemConfig, derive_geometry
from coopnoma.orderstat import OrderStatSpec, ordered_cdf

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def default_config(**overrides):
    base = dict(M=6, m=3, n=6, a_m=0.7, a_n=0.3, gamma0=1000.0)
    base.update(overrides)
    return SystemConfig(**base)


def default_geometry():
    return derive_geometry(4.0, 6.0, 4.0, math.radians(40.0), math.radians(60.0))


class TestBesselK1:
    def test_against_reference_table(self):
        points = json.loads((FIXTURES / "k1_reference.json").read_text())["points"]
        worst = max(abs(bessel_k1(x) - ref) / ref for x, ref in points)
        assert worst < 1e-12

    def test_small_argument_pole(self):
        # x*K1(x) -> 1 as x -> 0 (correction is O(x^2 log x))
        for x in (1e-3, 1e-2):
            assert x * bessel_k1(x) == pytest.approx(1.0, abs=1e-3)

    def test_large_argument_decay(self):
        # leading asymptotic order sqrt(pi/(2x)) e^-x
        for x in (10.0, 30.0, 50.0):
            lead = math.sqrt(math.pi / (2 * x)) * math.exp(-x)
            assert bessel_k1(x) == pytest.approx(lead * (1 + 3 / (8 * x)), rel=1e-2)

    def test_continuity_at_regime_split(self):
        left = bessel_k1(2.0 - 1e-12)
        right = bessel_k1(2.0 + 1e-12)
        assert left == pytest.approx(right, rel=1e-11)

    def test_strictly_decreasing(self):
        xs = np.logspace(-3, math.log10(50), 300)
        vals = [bessel_k1(float(x)) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bessel_k1(0.0)
        with pytest.raises(ValueError):
            bessel_k1(-1.0)
        with pytest.raises(ValueError):
            bessel_k1(np.array([1.0, 0.0, 3.0]))

    def test_infinite_argument_gives_the_limit_zero(self):
        # RuntimeWarnings fail the suite, so this also checks that none is raised
        assert bessel_k1(math.inf) == 0.0
        got = bessel_k1(np.array([0.5, math.inf, 5.0]))
        assert got[1] == 0.0
        assert got[0] == bessel_k1(0.5) and got[2] == bessel_k1(5.0)

    def test_array_argument_meets_reference_table(self):
        # criterion 4 on one array call spanning both regimes; each entry is
        # the scalar call's value bit for bit
        points = json.loads((FIXTURES / "k1_reference.json").read_text())["points"]
        xs = np.array([x for x, _ in points])
        refs = np.array([ref for _, ref in points])
        got = bessel_k1(xs)
        assert got.shape == xs.shape
        assert np.max(np.abs(got - refs) / refs) <= 1e-10
        assert got.tolist() == [bessel_k1(float(x)) for x in xs]
        assert bessel_k1(xs[::-1].reshape(8, -1)).ravel().tolist() == got[::-1].tolist()

    def test_scalar_argument_returns_float(self):
        for x in (0.5, 2.0, 5.0, np.float64(0.5), np.array(5.0)):
            assert type(bessel_k1(x)) is float


class TestOutageStrong:
    def test_matches_max_rank_closed_form(self):
        # with n = M the rank CDF is the parent CDF to the M-th power
        cfg = default_config()
        geo = default_geometry()
        alpha = cfg.gamma_thm / ((cfg.a_m - cfg.a_n * cfg.gamma_thm) * cfg.gamma0)
        beta = max(alpha * 16.0, cfg.gamma_thn * 16.0 / (cfg.a_n * cfg.gamma0))
        want = (-math.expm1(-beta)) ** 6
        assert outage_strong(cfg, geo) == pytest.approx(want, rel=1e-12)
        assert outage_strong(cfg, geo) == pytest.approx(1.96e-8, rel=5e-3)

    def test_sic_infeasible_threshold_forces_outage(self):
        # a_m/a_n = 7/3; rate 2 gives threshold 3 above the ceiling
        cfg = default_config(R_m=2.0)
        assert not sic_feasible(cfg)
        assert outage_strong(cfg, default_geometry()) == 1.0
        assert outage_weak(cfg, default_geometry()) == 1.0

    def test_vanishes_at_high_snr(self):
        cfg = default_config(gamma0=1e12)
        assert outage_strong(cfg, default_geometry()) < 1e-30

    def test_binding_branch_switches_with_own_rate(self):
        # raising the strong user's own rate eventually dominates the SIC stage
        geo = default_geometry()
        mild = outage_strong(default_config(), geo)
        harsh = outage_strong(default_config(R_n=6.0), geo)
        assert harsh > mild


class TestTwoHopOutage:
    def quad_reference(self, gamma_th, gamma0, d_a, d_b, theta, lam_a, lam_b):
        # integrate the exact conditional survival over the second-hop gain
        db = d_b ** theta
        da = d_a ** theta
        low = db * gamma_th / gamma0

        def integrand(x):
            cond = gamma_th * da * (gamma0 * x + db) / (
                gamma0 * (gamma0 * x - db * gamma_th) * lam_a)
            return math.exp(-x / lam_b) / lam_b * math.exp(-cond)

        val, err = integrate.quad(integrand, low, np.inf,
                                  epsabs=1e-14, epsrel=1e-13, limit=400)
        return 1.0 - val

    def test_matches_quadrature_spot(self):
        got = two_hop_outage(1.0, 10.0, 1.0, 1.0, 2.0, 1.0, 1.0)
        want = self.quad_reference(1.0, 10.0, 1.0, 1.0, 2.0, 1.0, 1.0)
        assert got == pytest.approx(want, rel=1e-9)

    def test_limits(self):
        assert two_hop_outage(1.0, 1e12, 4.0, 3.4, 2.0, 1.0, 1.0) < 1e-10
        assert two_hop_outage(1e9, 1.0, 4.0, 3.4, 2.0, 1.0, 1.0) == pytest.approx(1.0)

    def test_snr_past_float_square_uses_small_t_limit(self):
        # gamma0**2 overflows, so t underflows to 0; t*K1(t) -> 1 gives outage 0
        assert two_hop_outage(1.0, 1e155, 4.0, 3.4, 2.0, 1.0, 1.0) == 0.0
        assert two_hop_outage(1.0, math.inf, 4.0, 3.4, 2.0, 1.0, 1.0) == 0.0
        # just below the overflow t is tiny but positive and K1 still evaluates
        assert 0.0 <= two_hop_outage(1.0, 1e150, 4.0, 3.4, 2.0, 1.0, 1.0) < 1e-12

    def test_infinite_path_loss_is_certain_outage(self):
        # 1e200**2 and 5.3**1000 overflow a float, so that hop is dead at every
        # SNR (1e155 also overflows gamma0**2), whatever the other hop's loss
        # (0.09**1000 underflows to 0)
        snrs = np.array([1e-3, 1.0, 1e10, 1e155])
        for args in ((1e200, 4.0, 2.0), (4.0, 1e200, 2.0), (5.3, 0.09, 1000.0)):
            outage, surv = two_hop_outage(1.0, snrs, *args, 1.0, 1.0, survival=True)
            np.testing.assert_array_equal(outage, 1.0)
            np.testing.assert_array_equal(surv, 0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_cross_term_past_the_floats_takes_t_from_logs(self):
        # d = 1e100 at theta = 2: da*db = 1e400 overflows, and so does
        # gamma0**2 from about 1541 dB, where t was inf/inf
        snrs = 10.0 ** np.array([150.0, 155.0, 160.0])
        outage, surv = two_hop_outage(1.0, snrs, 1e100, 1e100, 2.0, 1.0, 1.0, survival=True)
        np.testing.assert_array_equal(outage, 1.0)
        np.testing.assert_array_equal(surv, 0.0)
        # t depends on da*db/gamma0**2 and the decay on da/gamma0 and db/gamma0,
        # so scaling both path losses and gamma0 by 1e200 leaves the link as it is
        big = two_hop_outage(1.0, 1e200, 1e200, 1e200, 1.0, 1.0, 1.0, survival=True)
        unit = two_hop_outage(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, survival=True)
        assert big == pytest.approx(unit, rel=1e-12)

    def test_finite_cross_term_keeps_the_closed_form_bits(self):
        g = 10.0 ** np.linspace(-2.0, 16.0, 37)
        for gamma_th, d_a, d_b, theta, lam_a, lam_b in ((1.0, 4.0, 3.4, 2.0, 1.0, 1.0),
                                                        (3.0, 1e-3, 70.0, 3.5, 0.5, 2.0),
                                                        (0.2, 1e30, 1e30, 4.0, 1.0, 1.0)):
            da, db = d_a ** theta, d_b ** theta
            t = 2.0 * np.sqrt(da * db * gamma_th * (gamma_th + 1.0) / (g * g * lam_a * lam_b))
            decay = np.exp(-(gamma_th / g) * (db / lam_b + da / lam_a))
            want = np.minimum(decay * (t * bessel_k1(t)), 1.0)
            _, surv = two_hop_outage(gamma_th, g, d_a, d_b, theta, lam_a, lam_b, survival=True)
            np.testing.assert_array_equal(surv, want)

    def test_noise_free_hop_leaves_the_other_hop(self):
        # 0.09**1000 underflows to 0: that hop's SNR is inf, so the link fails
        # only when the other hop does, and never when both are noise-free
        snrs = np.array([0.1, 1.0, 10.0])
        _, surv = two_hop_outage(1.0, snrs, 0.09, 1.001, 1000.0, 1.0, 2.0, survival=True)
        np.testing.assert_allclose(surv, np.exp(-1.001 ** 1000.0 / (2.0 * snrs)), rtol=1e-14)
        _, surv = two_hop_outage(1.0, 1e-320, 0.09, 0.09, 1000.0, 1.0, 1.0, survival=True)
        assert surv == 1.0

    def test_monotone_in_snr(self):
        vals = [two_hop_outage(1.0, 10 ** (db / 10), 4.0, 3.4, 2.0, 1.0, 1.0)
                for db in range(0, 41, 2)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_hop_symmetry_under_matched_stats(self):
        # swapping the two hops (distance and fading mean together) is symmetric
        a = two_hop_outage(1.0, 50.0, 2.0, 7.0, 2.0, 0.5, 1.5)
        b = two_hop_outage(1.0, 50.0, 7.0, 2.0, 2.0, 1.5, 0.5)
        assert a == pytest.approx(b, rel=1e-12)

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            two_hop_outage(0.0, 10.0, 1.0, 1.0, 2.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            two_hop_outage(1.0, 10.0, -1.0, 1.0, 2.0, 1.0, 1.0)

    def test_relay_link_outage_uses_geometry(self):
        cfg = default_config()
        geo = default_geometry()
        want = two_hop_outage(cfg.gamma_thm, cfg.gamma0, geo.d_dnr, geo.d_rdm,
                              cfg.theta, cfg.lambda_dnr, cfg.lambda_rdm)
        assert relay_link_outage(cfg, geo) == want


class TestOutageWeak:
    def test_selection_combining_decomposition(self):
        # outage = A + (1-A) * B * C with the three stage probabilities
        cfg = default_config(gamma0=100.0)
        geo = default_geometry()
        alpha = cfg.gamma_thm / ((cfg.a_m - cfg.a_n * cfg.gamma_thm) * cfg.gamma0)
        A = ordered_cdf(OrderStatSpec(6, 6, 1.0), alpha * 16.0)
        B = ordered_cdf(OrderStatSpec(6, 3, 1.0), alpha * 36.0)
        C = relay_link_outage(cfg, geo)
        assert outage_weak(cfg, geo) == pytest.approx(A + (1 - A) * B * C, rel=1e-12)

    def test_relay_always_helps(self):
        geo = default_geometry()
        for db in range(0, 42, 2):
            cfg = default_config(gamma0=10 ** (db / 10))
            assert outage_weak(cfg, geo, relay=True) <= outage_weak(cfg, geo, relay=False) + 1e-15

    def test_distant_relay_degenerates_to_direct_only(self):
        cfg = default_config(gamma0=100.0)
        geo = derive_geometry(4.0, 6.0, 1e8, math.radians(40.0), math.radians(60.0))
        with_dead_relay = outage_weak(cfg, geo, relay=True)
        without = outage_weak(cfg, geo, relay=False)
        assert with_dead_relay == pytest.approx(without, rel=1e-9)

    def test_overflowing_path_loss_takes_the_limit(self):
        # d_dnr = 1e200 overflows d_dnr**2: the relay adds nothing, to the bit
        grid = 10.0 ** (np.arange(0, 41, 5) / 10)
        far = derive_geometry(4.0, 6.0, 1e200, math.radians(40.0), math.radians(60.0))
        relayed, direct = (evaluate(default_config(), far, relay=r, gamma0=grid)
                           for r in (True, False))
        for name in ("p_out_n", "p_out_m", "throughput"):
            np.testing.assert_array_equal(getattr(relayed, name), getattr(direct, name))
        # theta = 400 overflows d_sdm**theta (6**400): certain outage for both
        point = evaluate(default_config(theta=400.0), default_geometry(), gamma0=grid)
        np.testing.assert_array_equal(point.p_out_m, 1.0)
        np.testing.assert_array_equal(point.p_out_n, 1.0)
        np.testing.assert_array_equal(point.throughput, 0.0)

    def test_probability_range_fuzz(self):
        rng = np.random.default_rng(11)
        geo = default_geometry()
        for _ in range(400):
            M = int(rng.integers(2, 9))
            a_n = float(rng.uniform(0.05, 0.45))
            cfg = SystemConfig(M=M, m=int(rng.integers(1, M)), n=M,
                               a_m=1.0 - a_n, a_n=a_n,
                               gamma0=float(np.exp(rng.uniform(-2, 9))),
                               R_m=float(rng.uniform(0.2, 3.0)),
                               R_n=float(rng.uniform(0.2, 3.0)))
            for p in (outage_strong(cfg, geo), outage_weak(cfg, geo)):
                assert 0.0 <= p <= 1.0


class TestThroughput:
    def test_endpoints(self):
        cfg = default_config()
        assert throughput(cfg, 0.0, 0.0) == 2.0
        assert throughput(cfg, 1.0, 1.0) == 0.0
        assert throughput(cfg, 0.5, 0.25) == pytest.approx(1.25)

    def test_rates_weight_the_users(self):
        cfg = default_config(R_m=2.0, R_n=0.5, gamma_thm=1.0, gamma_thn=1.0)
        assert throughput(cfg, 0.0, 1.0) == 0.5
        assert throughput(cfg, 1.0, 0.0) == 2.0

    def test_rejects_bad_probabilities(self):
        cfg = default_config()
        with pytest.raises(ValueError):
            throughput(cfg, -0.1, 0.5)
        with pytest.raises(ValueError):
            throughput(cfg, 0.5, 1.1)


class TestEvaluate:
    def test_bundles_consistent_point(self):
        cfg = default_config(gamma0=100.0)
        geo = default_geometry()
        pt = evaluate(cfg, geo)
        assert pt.gamma0 == 100.0
        assert pt.p_out_n == outage_strong(cfg, geo)
        assert pt.p_out_m == outage_weak(cfg, geo)
        # summed from directly computed survivals, not from 1 - p: equal up to rounding
        assert pt.throughput == pytest.approx(throughput(cfg, pt.p_out_n, pt.p_out_m),
                                              rel=1e-14)

    def test_outage_point_validates(self):
        with pytest.raises(ValueError):
            OutagePoint(gamma0=1.0, p_out_n=1.5, p_out_m=0.0, throughput=0.0)
        with pytest.raises(ValueError):
            OutagePoint(gamma0=-1.0, p_out_n=0.5, p_out_m=0.5, throughput=1.0)


class TestSnrGrid:
    """The closed forms over an array of SNRs, one entry per SNR."""

    GRID_DB = (-3200.0, -1700.0, -20.0, 0.0, 0.005, 3.98, 10.0, 17.5, 25.0, 40.0, 90.0,
               1540.0, 1600.0, 3000.0)

    @pytest.mark.parametrize("overrides", [
        dict(), dict(M=20, m=10, n=20), dict(m=1, n=2, R_m=0.5, R_n=2.0), dict(R_m=2.0)])
    def test_entries_equal_lone_evaluations(self, overrides):
        cfg = default_config(**overrides)
        geo = default_geometry()
        rng = np.random.default_rng(7)
        dbs = np.concatenate([self.GRID_DB, rng.uniform(-10.0, 60.0, 40)])
        grid = 10.0 ** (dbs / 10.0)
        for relay in (True, False):
            pt = evaluate(cfg, geo, relay=relay, gamma0=grid)
            strong = outage_strong(cfg, geo, gamma0=grid)
            weak = outage_weak(cfg, geo, relay=relay, gamma0=grid)
            for k, g in enumerate(grid.tolist()):
                lone_cfg = replace(cfg, gamma0=g)
                lone = evaluate(lone_cfg, geo, relay=relay)
                assert (lone.gamma0, lone.p_out_n, lone.p_out_m, lone.throughput) == (
                    pt.gamma0[k], pt.p_out_n[k], pt.p_out_m[k], pt.throughput[k])
                assert (strong[k], weak[k]) == (lone.p_out_n, lone.p_out_m)
                assert outage_strong(lone_cfg, geo) == lone.p_out_n
        relay_c = relay_link_outage(cfg, geo, gamma0=grid)
        assert relay_c.tolist() == [relay_link_outage(replace(cfg, gamma0=g), geo)
                                    for g in grid.tolist()]

    def test_scalar_snr_gives_floats(self):
        pt = evaluate(default_config(), default_geometry())
        assert all(type(v) is float for v in (pt.gamma0, pt.p_out_n, pt.p_out_m, pt.throughput))
        assert type(evaluate(default_config(), default_geometry(), gamma0=50.0).p_out_m) is float

    def test_extreme_snrs_evaluate_without_warnings(self):
        # gamma0**2 underflows below about -1541 dB and overflows above +1541 dB;
        # the limits are certain outage and certain success, with no warning
        cfg = default_config()
        geo = default_geometry()
        grid = 10.0 ** (np.array([-3200.0, -1700.0, 1600.0, 3000.0]) / 10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pt = evaluate(cfg, geo, gamma0=grid)
        assert pt.p_out_n.tolist() == pt.p_out_m.tolist() == [1.0, 1.0, 0.0, 0.0]
        assert pt.throughput.tolist() == [0.0, 0.0, 2.0, 2.0]

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_snr_in_grid(self, bad):
        with pytest.raises(ValueError, match="gamma0 must be finite and > 0"):
            evaluate(default_config(), default_geometry(), gamma0=np.array([10.0, bad]))


def _mp_throughput(cfg, geo, relay):
    """Sum throughput of the closed forms at 50 digits, from the float inputs."""
    with mpmath.workdps(50):
        f = mpmath.mpf
        g0, gm, gn = f(cfg.gamma0), f(cfg.gamma_thm), f(cfg.gamma_thn)

        def survival(i, x):  # P(rank-i gain > x): the binomial lower tail
            F = -mpmath.expm1(-x / f(cfg.lambda_sd))
            return mpmath.fsum(mpmath.binomial(cfg.M, j) * F ** j * (1 - F) ** (cfg.M - j)
                           for j in range(i))

        alpha = gm / ((f(cfg.a_m) - f(cfg.a_n) * gm) * g0)
        dn, dm = f(geo.d_sdn) ** cfg.theta, f(geo.d_sdm) ** cfg.theta
        s_n = survival(cfg.n, max(alpha * dn, gn * dn / (f(cfg.a_n) * g0)))
        s_a, s_b = survival(cfg.n, alpha * dn), survival(cfg.m, alpha * dm)
        s_c = 0
        if relay:
            da, db = f(geo.d_dnr) ** cfg.theta, f(geo.d_rdm) ** cfg.theta
            t = 2 * mpmath.sqrt(da * db * gm * (gm + 1) / (g0 * g0 * f(cfg.lambda_dnr)
                                                            * f(cfg.lambda_rdm)))
            s_c = (mpmath.exp(-(gm / g0) * (db / f(cfg.lambda_rdm) + da / f(cfg.lambda_dnr)))
                   * t * mpmath.besselk(1, t))
        s_m = s_a * (s_b + (1 - s_b) * s_c)
        return float(s_n * f(cfg.R_n) + s_m * f(cfg.R_m))


class TestThroughputNearCertainOutage:
    """Where both outages are close to 1, 1 - p would cancel to 0."""

    @pytest.mark.parametrize("gamma0_db, want", [
        (0.0, 1.376e-22), (1.0, 7.989e-18), (3.98, 1.08983505805e-08)])
    @pytest.mark.parametrize("relay", [True, False])
    def test_matches_mpmath(self, gamma0_db, want, relay):
        cfg = default_config(M=20, m=10, n=20, gamma0=10.0 ** (gamma0_db / 10.0))
        geo = default_geometry()
        ref = _mp_throughput(cfg, geo, relay)
        if relay:
            assert ref == pytest.approx(want, rel=1e-3, abs=0)
        pt = evaluate(cfg, geo, relay=relay)
        assert pt.throughput == pytest.approx(ref, rel=1e-12, abs=0)
        grid = evaluate(cfg, geo, relay=relay, gamma0=np.array([cfg.gamma0, 1e3]))
        assert grid.throughput[0] == pt.throughput


class TestPopulationsPastExactCoefficients:
    """M above MAX_USERS = 20 is evaluated, not rejected partway through."""

    @pytest.mark.parametrize("M", [25, 100])
    @pytest.mark.parametrize("gamma0_db", [0.0, 20.0, 35.0])
    def test_matches_scipy_reference(self, M, gamma0_db):
        cfg = default_config(M=M, m=M // 2, n=M, gamma0=10.0 ** (gamma0_db / 10.0))
        geo = default_geometry()

        def rank_cdf(i, x):
            return float(betainc(i, M - i + 1, -math.expm1(-x)))

        alpha = cfg.gamma_thm / ((cfg.a_m - cfg.a_n * cfg.gamma_thm) * cfg.gamma0)
        beta = max(alpha * 16.0, cfg.gamma_thn * 16.0 / (cfg.a_n * cfg.gamma0))
        a, b = rank_cdf(M, alpha * 16.0), rank_cdf(M // 2, alpha * 36.0)
        da, db = geo.d_dnr ** 2, geo.d_rdm ** 2
        t = 2.0 * math.sqrt(da * db * 2.0 / cfg.gamma0 ** 2)
        c = 1.0 - math.exp(-(db + da) / cfg.gamma0) * t * float(k1(t))
        pt = evaluate(cfg, geo)
        assert pt.p_out_n == pytest.approx(rank_cdf(M, beta), rel=1e-10, abs=1e-300)
        assert pt.p_out_m == pytest.approx(a + (1 - a) * b * c, rel=1e-10, abs=1e-300)
        assert 0.0 <= pt.throughput <= 2.0
