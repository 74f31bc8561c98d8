import math
import re

import mpmath
import numpy as np
import pytest

from coopnoma.orderstat import (MAX_RANKED_USERS, OrderStatSpec, chain_at_gain, gains_from_chain,
                                log_uniform_chain, ordered_cdf, ordered_sf, sample_ordered_gains)
from test_acceptance import phi


def test_spec_validation():
    OrderStatSpec(M=6, i=3, lam=1.0)  # fine
    with pytest.raises(ValueError):
        OrderStatSpec(M=6, i=0, lam=1.0)
    with pytest.raises(ValueError):
        OrderStatSpec(M=6, i=7, lam=1.0)
    with pytest.raises(ValueError):
        OrderStatSpec(M=6, i=3, lam=0.0)
    with pytest.raises(ValueError):
        OrderStatSpec(M=0, i=1, lam=1.0)
    with pytest.raises(ValueError):
        OrderStatSpec(M=MAX_RANKED_USERS + 1, i=1, lam=1.0)


@pytest.mark.parametrize("key, kwargs", [
    ("M", dict(M=True, i=1, lam=1.0)),
    ("i", dict(M=6, i=True, lam=True)),
    ("lam", dict(M=6, i=1, lam=np.True_)),
])
def test_spec_rejects_bool_naming_key(key, kwargs):
    with pytest.raises(ValueError, match=f"^{key} must be a number, not a bool"):
        OrderStatSpec(**kwargs)


class TestOrderedCdf:
    def test_boundaries(self):
        spec = OrderStatSpec(M=6, i=3, lam=1.0)
        assert ordered_cdf(spec, 0.0) == 0.0
        assert ordered_cdf(spec, 200.0) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("M", [1, 2, 6, 13, 20])
    def test_extreme_ranks_match_closed_forms(self, M):
        # min of M exponentials is exponential with rate M/lam; max is the
        # M-th power of the parent CDF.
        lam = 0.7
        x = np.logspace(-4, 1, 40)
        lo = ordered_cdf(OrderStatSpec(M=M, i=1, lam=lam), x)
        hi = ordered_cdf(OrderStatSpec(M=M, i=M, lam=lam), x)
        assert np.max(np.abs(lo - (-np.expm1(-M * x / lam)))) < 1e-12
        assert np.max(np.abs(hi - (-np.expm1(-x / lam)) ** M)) < 1e-12

    def test_matches_alternating_expansion(self):
        # Cross-check the stable binomial-tail evaluation against the signed
        # expansion that the closed-form outage expressions use directly.
        lam = 1.3
        for M, i in [(6, 3), (8, 4), (10, 7)]:
            spec = OrderStatSpec(M=M, i=i, lam=lam)
            for x in (0.05, 0.3, 1.0, 4.0):
                expansion = math.fsum(
                    phi(k, i, M) * -math.expm1(-(M - i + k + 1) * x / lam)
                    for k in range(i))
                assert ordered_cdf(spec, x) == pytest.approx(expansion, abs=2e-11)

    def test_monotone_in_x_and_rank(self):
        x = np.linspace(0.0, 8.0, 200)
        prev = None
        for i in range(1, 7):
            F = ordered_cdf(OrderStatSpec(M=6, i=i, lam=1.0), x)
            assert np.all(np.diff(F) >= -1e-15)
            if prev is not None:
                # higher rank = stochastically larger gain = smaller CDF
                assert np.all(F <= prev + 1e-15)
            prev = F

    def test_negative_argument_rejected(self):
        spec = OrderStatSpec(M=6, i=3, lam=1.0)
        with pytest.raises(ValueError):
            ordered_cdf(spec, -0.1)


class TestOrderedSf:
    def test_complements_the_cdf(self):
        x = np.concatenate([[0.0], np.logspace(-4, 1.5, 60)])
        for M, i in [(1, 1), (6, 1), (6, 3), (6, 6), (20, 10), (20, 20)]:
            spec = OrderStatSpec(M=M, i=i, lam=0.8)
            assert np.max(np.abs(ordered_cdf(spec, x) + ordered_sf(spec, x) - 1.0)) < 1e-14
        assert ordered_sf(OrderStatSpec(M=6, i=3, lam=1.0), 0.0) == 1.0

    def test_keeps_relative_accuracy_where_the_cdf_is_one(self):
        # the maximum of 6: 1 - (1 - e^-x)^6 is about 6 e^-x for large x, far
        # below the spacing of floats near 1
        spec = OrderStatSpec(M=6, i=6, lam=1.0)
        for x in (40.0, 100.0, 600.0):
            want = -math.expm1(6.0 * math.log1p(-math.exp(-x)))
            assert ordered_sf(spec, x) == pytest.approx(want, rel=1e-13, abs=0)

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            ordered_sf(OrderStatSpec(M=6, i=3, lam=1.0), [0.5, -0.1])

    @pytest.mark.parametrize("M", [2, 6, 13, 20])
    def test_equals_the_papers_phi_expansion(self, M):
        # The paper states the rank-i law as the signed sum
        # sf(x) = sum_{k<i} phi(k, i, M) exp(-(M - i + 1 + k) x / lam), whose
        # terms cancel; at 60 digits the cancellation costs nothing, so it is
        # an exact reference for the engine's nonnegative binomial tail.  The
        # least reference here is exp(-20 * 12), far above the subnormals.
        lam = 1.0
        xs = np.logspace(-3, math.log10(12.0), 25)
        worst = 0.0
        for i in range(1, M + 1):
            got = ordered_sf(OrderStatSpec(M=M, i=i, lam=lam), xs)
            with mpmath.workdps(60):
                for x, sf in zip(xs.tolist(), got.tolist()):
                    ref = mpmath.fsum(phi(k, i, M)
                                      * mpmath.exp(-(M - i + 1 + k) * mpmath.mpf(x) / lam)
                                      for k in range(i))
                    worst = max(worst, float(abs(sf - ref) / ref))
        assert worst < 1e-13, worst


class TestPopulationsPastExactCoefficients:
    """Both binomial tails past criterion 5's M = 20, up to MAX_RANKED_USERS, against mpmath."""

    @pytest.mark.parametrize("M", [25, MAX_RANKED_USERS])
    def test_tails_match_mpmath(self, M):
        lam = 1.0
        xs = np.logspace(-2, 1, 13)
        worst = 0.0
        for i in sorted({1, 2, M // 2, M - 1, M}):
            spec = OrderStatSpec(M=M, i=i, lam=lam)
            got = (ordered_cdf(spec, xs), ordered_sf(spec, xs))
            for k, x in enumerate(xs.tolist()):
                with mpmath.workdps(40):
                    F = -mpmath.expm1(-mpmath.mpf(x) / lam)
                    terms = [mpmath.binomial(M, j) * F ** j * (1 - F) ** (M - j)
                             for j in range(M + 1)]
                    refs = (mpmath.fsum(terms[i:]), mpmath.fsum(terms[:i]))
                for tail, ref in zip(got, refs):
                    if ref > 1e-290:
                        worst = max(worst, float(abs(tail[k] - ref) / ref))
                    else:  # below the normal floats: only absolute accuracy is possible
                        assert abs(tail[k]) <= 1e-290
        assert worst <= 1e-12

    def test_bound_applies_to_every_rank_entry_point(self):
        rng = np.random.default_rng(0)
        assert sample_ordered_gains(MAX_RANKED_USERS, 1.0, rng, size=3).shape == (
            3, MAX_RANKED_USERS)
        with pytest.raises(ValueError,
                           match=re.escape(f"M must be an integer in [1, {MAX_RANKED_USERS}]")):
            sample_ordered_gains(MAX_RANKED_USERS + 1, 1.0, rng)


class TestChainAtGain:
    def test_infinite_gain_puts_every_chain_value_below_its_level(self):
        # the least passing gain of an infeasible SIC stage is inf: its level
        # is inf, above every chain value, the all-zero draw's 0 included
        v = np.random.default_rng(3).random((6, 1_000))
        v[:, 0] = 0.0
        chain = log_uniform_chain(lambda j: v[j - 1], 6, range(1, 7), v)
        for lam in (1e-30, 1.0, 1e30):
            level = chain_at_gain(math.inf, lam)
            assert level == math.inf
            assert all(np.all(x < level) for x in chain.values())

    def test_gain_below_passes_and_gain_above_fails(self):
        # a chain value maps to a gain below g exactly where it lies below g's
        # level, here at gains a relative 1e-9 either side of g
        lam = 2.0
        for g in (1e-80, 1e-3, 0.5, 1.3, 30.0):
            level = chain_at_gain(g, lam)
            below, above = (chain_at_gain(g * f, lam) for f in (1 - 1e-9, 1 + 1e-9))
            assert below < level < above
            assert gains_from_chain(below, lam) < g < gains_from_chain(above, lam)


class TestSampler:
    def test_deterministic_for_fixed_seed(self):
        a = sample_ordered_gains(6, 1.0, np.random.default_rng(42))
        b = sample_ordered_gains(6, 1.0, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_sorted_and_nonnegative(self):
        rng = np.random.default_rng(1)
        g = sample_ordered_gains(10, 2.0, rng, size=500)
        assert g.shape == (500, 10)
        assert np.all(g >= 0)
        assert np.all(np.diff(g, axis=1) >= 0)

    def test_single_draw_shape(self):
        g = sample_ordered_gains(4, 1.0, np.random.default_rng(3))
        assert g.shape == (4,)

    def test_rank_means_match_harmonic_formula(self):
        # E[rank i of M] = lam * sum_{j=M-i+1}^{M} 1/j; check at 2e5 draws.
        rng = np.random.default_rng(2024)
        M, lam, draws = 6, 1.5, 200_000
        g = sample_ordered_gains(M, lam, rng, size=draws)
        for i in (1, 3, 6):
            want = lam * sum(1.0 / j for j in range(M - i + 1, M + 1))
            got = g[:, i - 1].mean()
            # generous 5-sigma band using the sample std
            tol = 5 * g[:, i - 1].std() / math.sqrt(draws)
            assert abs(got - want) < tol

    def test_empirical_cdf_tracks_ordered_cdf(self):
        rng = np.random.default_rng(99)
        spec = OrderStatSpec(M=6, i=3, lam=1.0)
        draws = sample_ordered_gains(6, 1.0, rng, size=100_000)[:, 2]
        draws.sort()
        grid = np.linspace(0.05, 4.0, 50)
        emp = np.searchsorted(draws, grid, side="right") / draws.size
        assert np.max(np.abs(emp - ordered_cdf(spec, grid))) < 0.006

    def test_joint_law_of_two_ranks_at_m20(self):
        # a sort couples the ranks of one draw for free; the chain must build
        # the same coupling: P(X_(10) <= x, X_(20) <= y) for x <= y is
        # sum_{k=10..20} C(20,k) F(x)^k (F(y) - F(x))^(20-k)
        draws = 200_000
        v = np.random.Generator(np.random.PCG64DXSM(2018)).random((20, draws))
        chain = log_uniform_chain(lambda j: v[j - 1], 20, [20, 10], np.empty((2, draws)))
        g10, g20 = gains_from_chain(chain[10], 1.0), gains_from_chain(chain[20], 1.0)
        for x, y in ((0.4, 2.0), (0.7, 3.0), (1.0, 4.5)):
            fx, fy = -math.expm1(-x), -math.expm1(-y)
            exact = math.fsum(math.comb(20, k) * fx ** k * (fy - fx) ** (20 - k)
                              for k in range(10, 21))
            sigma = math.sqrt(exact * (1.0 - exact) / draws)
            got = float(np.mean((g10 <= x) & (g20 <= y)))
            assert abs(got - exact) <= 3.0 * sigma
            # independent ranks would miss the joint law by more than 7 sigma here
            apart = (ordered_cdf(OrderStatSpec(M=20, i=10, lam=1.0), x)
                     * ordered_cdf(OrderStatSpec(M=20, i=20, lam=1.0), y))
            assert abs(apart - exact) > 7.0 * sigma
        # each rank's marginal against its CDF (exact KS statistic; the
        # bound is the 0.1 % critical value 1.95/sqrt(n))
        grid = np.arange(1, draws + 1) / draws
        for i, gains in ((10, g10), (20, g20)):
            F = ordered_cdf(OrderStatSpec(M=20, i=i, lam=1.0), np.sort(gains))
            ks = max(float(np.max(grid - F)), float(np.max(F - grid + 1.0 / draws)))
            assert ks <= 1.95 / math.sqrt(draws)

    def test_rank_validation(self):
        v = np.zeros((6, 2))
        for ranks in ([0, 3], [3, 7], [], [4, 4]):
            with pytest.raises(ValueError, match="ranks must be distinct and lie in 1..M=6"):
                log_uniform_chain(lambda j: v[j - 1], 6, ranks, np.empty((len(ranks), 2)))
        with pytest.raises(ValueError, match="one row per rank"):
            log_uniform_chain(lambda j: v[j - 1], 6, [3, 6], np.empty((1, 2)))

    def test_streamed_chain_equals_the_summed_terms(self):
        # each rank's row is its own terms log1p(-v_j)/j summed from slot M
        # down, whichever other ranks are requested, and slot rows are asked
        # for once each, from M down to the lowest rank; slot M may also be
        # drawn into the last out row, where the running sum starts, as the
        # Monte-Carlo does
        v = np.random.Generator(np.random.PCG64DXSM(3)).random((8, 50))
        want = {i: np.zeros(50) for i in range(1, 9)}
        for i in range(1, 9):
            for j in range(8, i - 1, -1):
                want[i] = np.log1p(-v[j - 1]) / j + want[i]
        for ranks in ([1], [8], [2, 5], [3, 4, 8], range(1, 9)):
            for in_out in (False, True):
                asked, out = [], np.empty((len(ranks), 50))

                def slot(j):
                    asked.append(j)
                    if in_out and j == 8:
                        out[-1] = v[j - 1]
                        return out[-1]
                    return v[j - 1].copy()

                chain = log_uniform_chain(slot, 8, ranks, out)
                assert asked == [*range(8, min(ranks) - 1, -1)]
                assert sorted(chain) == sorted(ranks)
                for i, row in chain.items():
                    assert row.tolist() == want[i].tolist()

    def test_invalid_arguments(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_ordered_gains(0, 1.0, rng)
        with pytest.raises(ValueError):
            sample_ordered_gains(6, -1.0, rng)
        with pytest.raises(ValueError):
            sample_ordered_gains(6, 1.0, rng, size=0)

    @pytest.mark.parametrize("key, args", [
        ("M", (True, 1.0)),
        ("lam", (6, True)),
        ("size", (6, 1.0)),
    ])
    def test_rejects_bool_naming_key(self, key, args):
        with pytest.raises(ValueError, match=f"^{key} must be a number, not a bool"):
            sample_ordered_gains(*args, np.random.default_rng(0), size=True)
