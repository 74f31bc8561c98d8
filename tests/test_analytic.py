import functools
import itertools
import json
import math
import pathlib
import re
import tracemalloc
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy import integrate
from scipy.special import betainc, k1

from coopnoma import analytic
from coopnoma.analytic import OutagePoint, bessel_k1, evaluate, throughput, two_hop_outage
from coopnoma.linklevel import INPUT_BOX, Geometry, SystemConfig, stage_gains
from coopnoma.orderstat import OrderStatSpec, ordered_cdf, ordered_sf

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def default_config(**overrides):
    base = dict(M=6, m=3, n=6, a_m=0.7, a_n=0.3, gamma0=1000.0)
    base.update(overrides)
    return SystemConfig(**base)


def default_geometry():
    return Geometry(4.0, 6.0, 4.0, math.radians(40.0), math.radians(60.0))


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

    def test_gauss_legendre_rule_is_leggauss_bit_for_bit(self):
        nodes, weights = np.polynomial.legendre.leggauss(64)
        assert analytic._GL_NODES.tobytes() == nodes.tobytes()
        assert analytic._GL_WEIGHTS.tobytes() == weights.tobytes()


def k1_series_stops(x, last):
    """Per entry of ``x`` (<= 2), with terms 0..last: the first term k >= 1 whose
    psi-term is at most 1e-18 of its psi-weighted sum (where a term-by-term loop
    would stop), the psi-weighted sum at the last term, and the plain and
    psi-weighted sums at the stop."""
    divisors, psi = analytic._k1_series_tables(last)
    term = np.concatenate([np.ones((x.size, 1)),
                           np.cumprod((0.25 * x * x)[:, None] / divisors, axis=1)], axis=1)
    delta = psi * term
    s_psi = np.cumsum(delta, axis=1)
    done = np.abs(delta) <= 1e-18 * np.abs(s_psi)
    done[:, 0] = False
    done[:, -1] = True
    stop = np.argmax(done, axis=1)
    rows = np.arange(x.size)
    return stop, s_psi[:, -1], np.cumsum(term, axis=1)[rows, stop], s_psi[rows, stop]


class TestK1SeriesTable:
    """Every entry converges before the table's last term, so its whole sum is exact.

    A helper replays the stop test a term-by-term loop would make (a term
    at most 1e-18 of its sum); each entry passes it well before the last
    term, and the fixed-length sum equals, bit for bit, both the sum
    stopped there and a much longer table's.
    """

    LONG = 65  # the table's former size, far past where any entry stops

    def psi_sum_crossing(self):
        """The two adjacent floats around the zero of the psi-weighted sum, by bisection."""
        lo, hi = 0.5, 1.5
        s_lo, s_hi = k1_series_stops(np.array([lo, hi]), self.LONG)[1]
        assert s_lo < 0.0 < s_hi
        while math.nextafter(lo, hi) != hi:
            mid = 0.5 * (lo + hi)
            if k1_series_stops(np.array([mid]), self.LONG)[1][0] < 0.0:
                lo = mid
            else:
                hi = mid
        return lo, hi

    def crossing_window(self):
        lo, _ = self.psi_sum_crossing()
        assert 0.9 < lo < 0.96
        return lo + np.arange(-2 ** 14, 2 ** 14 + 1) * math.ulp(lo)

    def test_dense_grid_stops_before_the_last_term(self):
        x = np.linspace(0.0, 2.0, 200_001)[1:]
        stops = np.concatenate([k1_series_stops(block, self.LONG)[0]
                                for block in np.array_split(x, 20)])
        assert stops.max() <= 13 < analytic._K1_LAST_TERM

    def test_floats_next_to_the_psi_sum_crossing_stop_before_the_last_term(self):
        # where the psi-weighted sum is near 0 its stop test passes late
        stops = np.concatenate([k1_series_stops(block, self.LONG)[0]
                                for block in np.array_split(self.crossing_window(), 8)])
        assert stops.max() <= 16 < analytic._K1_LAST_TERM

    def test_equals_the_series_stopped_at_convergence(self):
        # terms past the stop add nothing when summed in order; a pairwise
        # sum (ndarray.sum) would move bits here
        x = np.concatenate([np.linspace(0.0, 2.0, 40_001)[1:], self.crossing_window(),
                            np.geomspace(1e-107, 2.0, 2_000)])
        _, _, s_bess, s_psi = k1_series_stops(x, analytic._K1_LAST_TERM)
        want = 1.0 / x + np.log(0.5 * x) * (0.5 * x * s_bess) - 0.25 * x * s_psi
        assert bessel_k1(x).tobytes() == want.tobytes()

    def test_equals_the_long_table_bit_for_bit(self, monkeypatch):
        x = np.concatenate([np.linspace(0.0, 2.0, 40_001)[1:], self.crossing_window(),
                            np.geomspace(1e-107, 2.0, 2_000), [2.0, 2.5, 10.0]])
        got = bessel_k1(x)
        monkeypatch.setattr(analytic, "_K1_DIVISORS", analytic._k1_series_tables(self.LONG)[0])
        monkeypatch.setattr(analytic, "_K1_PSI", analytic._k1_series_tables(self.LONG)[1])
        assert analytic._K1_PSI.size == self.LONG + 1
        assert got.tobytes() == bessel_k1(x).tobytes()

    def test_a_shorter_table_moves_bits_where_terms_still_count(self, monkeypatch):
        # the loop runs over the table it is given: cut to terms 0..6, the
        # series drops terms near 1e-9 at x near 2, but none that count at
        # x = 1e-5, and the quadrature regime does not read the table
        x = np.array([1.9, 1.95, 2.0, 1e-5, 2.5])
        got = bessel_k1(x)
        monkeypatch.setattr(analytic, "_K1_DIVISORS", analytic._k1_series_tables(6)[0])
        monkeypatch.setattr(analytic, "_K1_PSI", analytic._k1_series_tables(6)[1])
        short = bessel_k1(x)
        assert (short[:3] != got[:3]).all()
        assert short[3:].tobytes() == got[3:].tobytes()

    def test_series_memory_is_a_few_rows_of_its_entries(self):
        # the series keeps (entries,) vectors, where (entries x terms)
        # arrays of the whole call would weigh 21 rows each
        x = np.linspace(0.0, 2.0, 100_001)[1:]
        bessel_k1(x[:10])  # warm-up
        tracemalloc.start()
        try:
            bessel_k1(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * x.nbytes, peak / x.nbytes


class TestOutageStrong:
    def test_matches_max_rank_closed_form(self):
        # with n = M the rank CDF is the parent CDF to the M-th power
        cfg = default_config()
        geo = default_geometry()
        alpha = cfg.gamma_thm / ((cfg.a_m - cfg.a_n * cfg.gamma_thm) * cfg.gamma0)
        beta = max(alpha * 16.0, cfg.gamma_thn * 16.0 / (cfg.a_n * cfg.gamma0))
        want = (-math.expm1(-beta)) ** 6
        p_out_n = evaluate(cfg, geo).p_out_n
        assert p_out_n == pytest.approx(want, rel=1e-12)
        assert p_out_n == pytest.approx(1.96e-8, rel=5e-3)

    def test_sic_infeasible_threshold_forces_outage(self):
        # a_m/a_n = 7/3; rate 2 gives threshold 3 above the ceiling
        cfg = default_config(R_m=2.0)
        assert stage_gains(cfg, default_geometry(), cfg.gamma0)[2] == math.inf
        pt = evaluate(cfg, default_geometry())
        assert pt.p_out_n == pt.p_out_m == 1.0

    def test_vanishing_snr_scale_forces_outage(self):
        # the box's least SNR scale a_n gamma0 = 1e-45, its greatest path loss
        # and threshold: the strong user's level is 1e115, far past every gain
        cfg = default_config(gamma0=1e-30, a_m=1.0 - 1e-15, a_n=1e-15, gamma_thn=1e30,
                             theta=8.0)
        assert evaluate(cfg, Geometry(1e5, 6.0, 4.0, 0.7, 1.0)).p_out_n == 1.0

    def test_vanishes_at_high_snr(self):
        cfg = default_config(gamma0=1e12)
        assert evaluate(cfg, default_geometry()).p_out_n < 1e-30

    def test_binding_branch_switches_with_own_rate(self):
        # raising the strong user's own rate eventually dominates the SIC stage
        geo = default_geometry()
        mild = evaluate(default_config(), geo).p_out_n
        harsh = evaluate(default_config(R_n=6.0), geo).p_out_n
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
        got, _ = two_hop_outage(1.0, 10.0, 1.0, 1.0, 2.0, 1.0, 1.0)
        want = self.quad_reference(1.0, 10.0, 1.0, 1.0, 2.0, 1.0, 1.0)
        assert got == pytest.approx(want, rel=1e-9)

    def test_limits(self):
        assert two_hop_outage(1.0, 1e12, 4.0, 3.4, 2.0, 1.0, 1.0)[0] < 1e-10
        assert two_hop_outage(1e9, 1.0, 4.0, 3.4, 2.0, 1.0, 1.0)[0] == pytest.approx(1.0)

    def test_finite_cross_term_keeps_the_closed_form_bits(self):
        g = 10.0 ** np.linspace(-2.0, 16.0, 37)
        for gamma_th, d_a, d_b, theta, lam_a, lam_b in ((1.0, 4.0, 3.4, 2.0, 1.0, 1.0),
                                                        (3.0, 1e-3, 70.0, 3.5, 0.5, 2.0),
                                                        (0.2, 1e5, 1e5, 8.0, 1.0, 1.0)):
            da, db = d_a ** theta, d_b ** theta
            t = 2.0 * np.sqrt(da * db * gamma_th * (gamma_th + 1.0) / (g * g * lam_a * lam_b))
            decay = np.exp(-(gamma_th / g) * (db / lam_b + da / lam_a))
            want = np.minimum(decay * (t * bessel_k1(t)), 1.0)
            _, surv = two_hop_outage(gamma_th, g, d_a, d_b, theta, lam_a, lam_b)
            np.testing.assert_array_equal(surv, want)

    def test_monotone_in_snr(self):
        vals = [two_hop_outage(1.0, 10 ** (db / 10), 4.0, 3.4, 2.0, 1.0, 1.0)[0]
                for db in range(0, 41, 2)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            two_hop_outage(0.0, 10.0, 1.0, 1.0, 2.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            two_hop_outage(1.0, 10.0, -1.0, 1.0, 2.0, 1.0, 1.0)

    def test_box_corners_match_mpmath(self):
        # every corner of the box, where t runs from about 1e-107 to 1e131;
        # RuntimeWarnings fail the suite, so no corner may raise one either
        for args in itertools.product((1e-30, 1e30), (1e-30, 1e30), (1e-4, 1e5), (1e-4, 1e5),
                                      (0.0, 8.0), (1e-30, 1e30), (1e-30, 1e30)):
            outage, surv = two_hop_outage(*args)
            with mpmath.workdps(60):
                th, g0, d_a, d_b, theta, lam_a, lam_b = map(mpmath.mpf, args)
                da, db = d_a ** theta, d_b ** theta
                t = 2 * mpmath.sqrt(da * db * th * (th + 1) / (g0 * g0 * lam_a * lam_b))
                want = mpmath.exp(-(th / g0) * (db / lam_b + da / lam_a)) * t * mpmath.besselk(1, t)
            assert surv == pytest.approx(float(want), rel=1e-12, abs=1e-300)
            assert outage == pytest.approx(float(1 - want), abs=1e-15)

    def test_keeps_its_relative_accuracy_up_to_300_db(self):
        # C = 1 - e^-u t K1(t) tends to 0 like u as the SNR grows; formed as
        # 1 - survival it rounded to 0 from about 180 dB at the reference layout
        cfg, geo = default_config(), default_geometry()
        hops = (geo.d_dnr, geo.d_rdm, cfg.theta, cfg.lambda_dnr, cfg.lambda_rdm)
        grid = 10.0 ** (np.arange(20, 301, 10) / 10.0)
        got, _ = two_hop_outage(cfg.gamma_thm, grid, *hops)
        want = [_mp_relay_outage(cfg.gamma_thm, g, *hops, digits=80) for g in grid.tolist()]
        worst = max(abs(c - w) / w for c, w in zip(got.tolist(), want))
        assert worst < 1e-15, worst

    @pytest.mark.parametrize("index, name", [(0, "gamma_th"), (1, "gamma0"), (2, "d_a"),
                                             (3, "d_b"), (4, "theta"), (5, "lambda_a"),
                                             (6, "lambda_b")])
    def test_rejects_each_argument_outside_the_box_naming_it(self, index, name):
        inside = [1.0, 10.0, 4.0, 3.4, 2.0, 1.0, 1.0]
        lo, hi = INPUT_BOX[("gamma_thm", "gamma0", "d_dnr", "d_rdm", "theta", "lambda_dnr",
                            "lambda_rdm")[index]]
        for edge, outside in ((lo, np.nextafter(lo, -np.inf)), (hi, np.nextafter(hi, np.inf))):
            args = list(inside)
            args[index] = edge
            assert 0.0 <= two_hop_outage(*args)[0] <= 1.0
            args[index] = outside
            with pytest.raises(ValueError, match=rf"^{name} must lie in \["):
                two_hop_outage(*args)

    def test_relay_link_outage_uses_geometry(self):
        # evaluate's relay factor C is this link over d_dnr and the derived
        # d_rdm: p_out_m = A + (1 - A) B C, where A + (1 - A) B is the
        # no-relay outage and A the SIC stage's
        cfg = default_config()
        for geo in (default_geometry(), replace(default_geometry(), d_dnr=7.0)):
            c, _ = two_hop_outage(cfg.gamma_thm, cfg.gamma0, geo.d_dnr, geo.d_rdm,
                                  cfg.theta, cfg.lambda_dnr, cfg.lambda_rdm)
            a = ordered_cdf(OrderStatSpec(6, 6, 1.0), stage_gains(cfg, geo, cfg.gamma0)[0])
            direct = evaluate(cfg, geo, relay=False).p_out_m
            assert evaluate(cfg, geo).p_out_m == pytest.approx(a + (direct - a) * c, rel=1e-12)


class TestOutageWeak:
    def test_selection_combining_decomposition(self):
        # outage = A + (1-A) * B * C with the three stage probabilities
        cfg = default_config(gamma0=100.0)
        geo = default_geometry()
        alpha = cfg.gamma_thm / ((cfg.a_m - cfg.a_n * cfg.gamma_thm) * cfg.gamma0)
        A = ordered_cdf(OrderStatSpec(6, 6, 1.0), alpha * 16.0)
        B = ordered_cdf(OrderStatSpec(6, 3, 1.0), alpha * 36.0)
        C, _ = two_hop_outage(cfg.gamma_thm, cfg.gamma0, geo.d_dnr, geo.d_rdm,
                              cfg.theta, cfg.lambda_dnr, cfg.lambda_rdm)
        assert evaluate(cfg, geo).p_out_m == pytest.approx(A + (1 - A) * B * C, rel=1e-12)

    def test_relay_always_helps(self):
        geo = default_geometry()
        for db in range(0, 42, 2):
            cfg = default_config(gamma0=10 ** (db / 10))
            relayed, direct = (evaluate(cfg, geo, relay=r).p_out_m for r in (True, False))
            assert relayed <= direct + 1e-15

    def test_distant_relay_degenerates_to_direct_only(self):
        cfg = default_config(gamma0=100.0)
        geo = Geometry(4.0, 6.0, 1e5, math.radians(40.0), math.radians(60.0))
        with_dead_relay = evaluate(cfg, geo, relay=True).p_out_m
        without = evaluate(cfg, geo, relay=False).p_out_m
        assert with_dead_relay == pytest.approx(without, rel=1e-9)

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
            pt = evaluate(cfg, geo)
            for p in (pt.p_out_n, pt.p_out_m):
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
        direct = evaluate(cfg, geo, relay=False)
        assert pt.gamma0 == 100.0
        # the relay leaves the strong user alone and only helps the weak one
        assert pt.p_out_n == direct.p_out_n
        assert pt.p_out_m < direct.p_out_m
        # summed from directly computed survivals, not from 1 - p: equal up to rounding
        assert pt.throughput == pytest.approx(throughput(cfg, pt.p_out_n, pt.p_out_m),
                                              rel=1e-14)

    def test_outage_point_validates(self):
        good = dict(gamma0=1.0, p_out_n=0.5, p_out_m=0.5, throughput=1.0,
                    p_out_m_norelay=0.5, throughput_norelay=1.0)
        for bad in (dict(p_out_n=1.5), dict(gamma0=-1.0), dict(p_out_m_norelay=-0.5)):
            with pytest.raises(ValueError, match=f"^{next(iter(bad))} must"):
                OutagePoint(**good | bad)


class TestSnrGrid:
    """The closed forms over an array of SNRs, one entry per SNR."""

    # numpy takes -300 dB to 1e-30 less one ulp, the box's lower end
    GRID_DB = (-300.0, -170.0, -20.0, 0.0, 0.005, 3.98, 10.0, 17.5, 25.0, 40.0, 90.0,
               154.0, 160.0, 300.0)

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
            for k, g in enumerate(grid.tolist()):
                lone = evaluate(replace(cfg, gamma0=g), geo, relay=relay)
                assert (lone.gamma0, lone.p_out_n, lone.p_out_m, lone.throughput) == (
                    pt.gamma0[k], pt.p_out_n[k], pt.p_out_m[k], pt.throughput[k])
        hops = (geo.d_dnr, geo.d_rdm, cfg.theta, cfg.lambda_dnr, cfg.lambda_rdm)
        relay_c, relay_s = two_hop_outage(cfg.gamma_thm, grid, *hops)
        assert list(zip(relay_c.tolist(), relay_s.tolist())) == [
            two_hop_outage(cfg.gamma_thm, g, *hops) for g in grid.tolist()]

    @pytest.mark.parametrize("cfg, geo", [
        (default_config(), default_geometry()),
        (default_config(M=20, m=10, n=20, R_m=0.7, R_n=1.3),
         Geometry(6.0, 4.0, 5.0, math.radians(40.0), math.radians(60.0))),
        (default_config(gamma_thm=10.0), default_geometry()),  # SIC infeasible: x_n = inf
    ], ids=["reference", "M20-pair-10-20", "sic-infeasible"])
    @pytest.mark.parametrize("gamma0", [10.0 ** (np.arange(-300.0, 300.5, 2.5) / 10.0), 37.0],
                             ids=["grid", "scalar"])
    def test_baseline_fields_equal_the_no_relay_call(self, cfg, geo, gamma0):
        # one call gives the baseline bit for bit as relay=False does, and as
        # the relayed form A + (1-A) B C with C = 1 and its survival 0 does
        pt = evaluate(cfg, geo, gamma0=gamma0)
        direct = evaluate(cfg, geo, relay=False, gamma0=gamma0)
        x_n, x_own, x_m = stage_gains(cfg, geo, gamma0)
        spec_n, spec_m = (OrderStatSpec(cfg.M, i, cfg.lambda_sd) for i in (cfg.n, cfg.m))
        a, b = ordered_cdf(spec_n, x_n), ordered_cdf(spec_m, x_m)
        c, s_c = 1.0, 0.0
        p_m = a + (1.0 - a) * b * c
        tau = (ordered_sf(spec_n, np.maximum(x_n, x_own)) * cfg.R_n
               + ordered_sf(spec_n, x_n) * (ordered_sf(spec_m, x_m) + b * s_c) * cfg.R_m)
        for shared, baseline, formed in (("p_out_m_norelay", "p_out_m", p_m),
                                         ("throughput_norelay", "throughput", tau)):
            got, want = getattr(pt, shared), getattr(direct, baseline)
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
            assert np.asarray(got).tobytes() == np.asarray(formed).tobytes()
        assert np.asarray(pt.p_out_n).tobytes() == np.asarray(direct.p_out_n).tobytes()
        if cfg.gamma_thm == 10.0:
            assert np.all(np.asarray(pt.p_out_m_norelay) == 1.0)

    def test_scalar_snr_gives_floats(self):
        pt = evaluate(default_config(), default_geometry())
        assert all(type(v) is float for v in (pt.gamma0, pt.p_out_n, pt.p_out_m, pt.throughput))
        assert type(evaluate(default_config(), default_geometry(), gamma0=50.0).p_out_m) is float

    def test_extreme_snrs_evaluate_without_warnings(self):
        # the box's ends, -300 and +300 dB: certain outage, and outages far
        # below any float's resolution of 1 - p, with no warning
        cfg = default_config()
        geo = default_geometry()
        grid = np.array([1e-30, 1e-25, 1e25, 1e30])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pt = evaluate(cfg, geo, gamma0=grid)
        for p in (pt.p_out_n, pt.p_out_m):
            assert p[:2].tolist() == [1.0, 1.0]
            assert 0.0 < p[2] < 1e-60 and 0.0 < p[3] < 1e-80
        assert pt.throughput.tolist() == [0.0, 0.0, 2.0, 2.0]

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_snr_in_grid(self, bad):
        with pytest.raises(ValueError,
                           match=r"^gamma0 must lie in \[9\.999999999999999e-31, 1e\+30\]"):
            evaluate(default_config(), default_geometry(), gamma0=np.array([10.0, bad]))

    @pytest.mark.parametrize("edge, outside", [
        (INPUT_BOX["gamma0"][0], np.nextafter(INPUT_BOX["gamma0"][0], 0.0)),
        (INPUT_BOX["gamma0"][1], np.nextafter(INPUT_BOX["gamma0"][1], np.inf))])
    def test_box_ends_evaluate_and_one_ulp_past_is_refused(self, edge, outside):
        geo = default_geometry()
        assert evaluate(default_config(), geo, gamma0=np.array([10.0, edge])).p_out_n.size == 2
        got = re.escape(repr(float(outside)))
        with pytest.raises(ValueError, match=rf"^gamma0 must lie in .*, got {got}$"):
            evaluate(default_config(), geo, gamma0=np.array([10.0, outside]))


class TestBoxCorners:
    """Every corner of the input box evaluates without warnings and to mpmath's
    weak-user outage and throughput."""

    def test_greatest_level_over_least_mean_is_certain_outage(self):
        # levels over lambda_sd reach about 1e146 here: every rank CDF is 1
        cfg = default_config(lambda_sd=1e-30, gamma0=1e-30, theta=8.0)
        geo = Geometry(1e5, 1e5, 4.0, 0.7, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sic, _, direct = stage_gains(cfg, geo, cfg.gamma0)
            for rank, x in ((cfg.n, sic), (cfg.m, direct)):
                spec = OrderStatSpec(cfg.M, rank, cfg.lambda_sd)
                assert (ordered_cdf(spec, x), ordered_sf(spec, x)) == (1.0, 0.0)
            pt = evaluate(cfg, geo)
        assert (pt.p_out_n, pt.p_out_m, pt.throughput) == (1.0, 1.0, 0.0)

    @pytest.mark.parametrize("layout", [(1e-4, 2e-4, 1e-4, math.pi / 2, math.pi / 2),
                                        (1e5, 5e4, 1e5, math.pi / 3, math.pi / 3)])
    def test_corners_match_mpmath(self, layout):
        geo = Geometry(*layout)
        keys = ("gamma0", "theta", "lambda_sd", "lambda_dnr", "lambda_rdm", "gamma_thm",
                "gamma_thn", "a_n")
        box = [(1e-30, 1e30), (0.0, 8.0), *[(1e-30, 1e30)] * 5, (1e-15, 0.45)]
        for values in itertools.product(*box):
            kw = dict(zip(keys, values))
            cfg = default_config(**kw, a_m=1.0 - kw["a_n"])
            for relay in (True, False):
                pt = evaluate(cfg, geo, relay=relay)
                got = pt.p_out_m, pt.throughput
                if cfg.a_m <= cfg.a_n * cfg.gamma_thm:  # SIC infeasible: both users fail
                    assert got == (1.0, 0.0)
                else:
                    assert got == pytest.approx(_mp_point(cfg, geo, relay), rel=1e-12,
                                                abs=1e-300)


class TestGainLevelOverMeanPastTheFloats:
    """Where a gain level over a mean overflows, its rank CDF takes the limit 1.

    Such a mean lies outside the input box, so a config holding it is refused by key.
    """

    @pytest.mark.parametrize("lambda_sd, gamma0", [(1e-300, 1e-10), (1e-320, 100.0)])
    def test_certain_outage_without_warnings(self, lambda_sd, gamma0):
        cfg = default_config(gamma0=gamma0)
        geo = default_geometry()
        sic, _, direct = stage_gains(cfg, geo, cfg.gamma0)
        levels = ((cfg.n, sic), (cfg.m, direct))
        with np.errstate(over="ignore"):
            assert all(np.isinf(x / lambda_sd) for _, x in levels)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for rank, x in levels:
                spec = OrderStatSpec(cfg.M, rank, lambda_sd)
                assert (ordered_cdf(spec, x), ordered_sf(spec, x)) == (1.0, 0.0)
        with pytest.raises(ValueError, match=r"^lambda_sd must lie in "):
            default_config(lambda_sd=lambda_sd, gamma0=gamma0)


@functools.cache  # the box corners repeat each relay link for every other key
def _mp_relay_outage(gamma_th, gamma0, d_a, d_b, theta, lam_a, lam_b, digits=50):
    """The relay factor C = 1 - e^-u t K1(t) from the float inputs, to ``digits``.

    1 - t K1(t) is about (t^2/2) ln(2/t) as t -> 0, so the subtraction is
    carried out with at least 2 log10(1/t) digits more, in steps of 50 (each
    new precision costs mpmath a warm-up).
    """
    f = mpmath.mpf
    dps = digits
    while True:
        with mpmath.workdps(dps):
            th, g0, la, lb = f(gamma_th), f(gamma0), f(lam_a), f(lam_b)
            da, db = f(d_a) ** f(theta), f(d_b) ** f(theta)
            t = 2 * mpmath.sqrt(da * db * th * (th + 1) / (g0 * g0 * la * lb))
            need = digits + 50 * max(0, int(mpmath.ceil(-2 * mpmath.log10(t) / 50)))
            if dps >= need:
                return float(1 - mpmath.exp(-(th / g0) * (db / lb + da / la))
                             * t * mpmath.besselk(1, t))
        dps = need


def _mp_point(cfg, geo, relay):
    """Weak-user outage and sum throughput of the closed forms at 50 digits, from the
    float inputs."""
    with mpmath.workdps(50):
        f = mpmath.mpf
        g0, gm, gn = f(cfg.gamma0), f(cfg.gamma_thm), f(cfg.gamma_thn)

        def tails(i, x):  # P(rank-i gain <= x) and P(rank-i gain > x): the binomial tails
            F = -mpmath.expm1(-x / f(cfg.lambda_sd))
            terms = [mpmath.binomial(cfg.M, j) * F ** j * (1 - F) ** (cfg.M - j)
                     for j in range(cfg.M + 1)]
            return mpmath.fsum(terms[i:]), mpmath.fsum(terms[:i])

        alpha = gm / ((f(cfg.a_m) - f(cfg.a_n) * gm) * g0)
        dn, dm = f(geo.d_sdn) ** cfg.theta, f(geo.d_sdm) ** cfg.theta
        s_n = tails(cfg.n, max(alpha * dn, gn * dn / (f(cfg.a_n) * g0)))[1]
        (a, s_a), (b, s_b) = tails(cfg.n, alpha * dn), tails(cfg.m, alpha * dm)
        c = 1
        if relay:
            c = f(_mp_relay_outage(cfg.gamma_thm, cfg.gamma0, geo.d_dnr, geo.d_rdm, cfg.theta,
                                   cfg.lambda_dnr, cfg.lambda_rdm))
            da, db = f(geo.d_dnr) ** cfg.theta, f(geo.d_rdm) ** cfg.theta
            t = 2 * mpmath.sqrt(da * db * gm * (gm + 1) / (g0 * g0 * f(cfg.lambda_dnr)
                                                            * f(cfg.lambda_rdm)))
            s_c = (mpmath.exp(-(gm / g0) * (db / f(cfg.lambda_rdm) + da / f(cfg.lambda_dnr)))
                   * t * mpmath.besselk(1, t))
        else:
            s_c = 0
        s_m = s_a * (s_b + (1 - s_b) * s_c)
        return float(a + (1 - a) * b * c), float(s_n * f(cfg.R_n) + s_m * f(cfg.R_m))


class TestThroughputNearCertainOutage:
    """Where both outages are close to 1, 1 - p would cancel to 0."""

    @pytest.mark.parametrize("gamma0_db, want", [
        (0.0, 1.376e-22), (1.0, 7.989e-18), (3.98, 1.08983505805e-08)])
    @pytest.mark.parametrize("relay", [True, False])
    def test_matches_mpmath(self, gamma0_db, want, relay):
        cfg = default_config(M=20, m=10, n=20, gamma0=10.0 ** (gamma0_db / 10.0))
        geo = default_geometry()
        ref = _mp_point(cfg, geo, relay)[1]
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
