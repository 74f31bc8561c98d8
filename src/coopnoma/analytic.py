"""Closed-form outage probabilities and throughput.

Outage events reduce to threshold crossings on order-statistic gains at
the least passing gain of each decoding stage (``linklevel.stage_gains``),
where ``orderstat`` sums the rank law as finite binomial tails with no
cancelling terms; the two-hop relay link adds a Bessel-K1 factor.  A
purpose-built K1 evaluator keeps the package dependency-light while
holding ~1e-13 relative accuracy at every argument the input box gives
(``linklevel``: t lies in [1e-107, 1e131]).

``evaluate`` is the one entry to the closed forms of a scenario;
``two_hop_outage`` is the relay link's own factor.  Both take an array
of transmit SNRs as well as a single one, so a whole SNR grid is
evaluated in one array pass; a single SNR is the length-1 case of the
same code and gives floats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linklevel import Geometry, SystemConfig, check_box, path_loss, stage_gains
from .orderstat import OrderStatSpec, ordered_cdf, ordered_sf

_EULER_GAMMA = 0.5772156649015328606
# 64-node Gauss-Legendre rule, reused by every large-argument K1 call:
# the positive nodes and their weights, each the shortest repr of what
# np.polynomial.legendre.leggauss(64) gives.  leggauss makes the nodes
# exactly antisymmetric and the weights exactly symmetric, so mirroring
# these rebuilds its arrays bit for bit without importing numpy.polynomial
# or running its eigenvalue solve in every process.
_GL_HALF_NODES = (
    0.02435029266342443, 0.07299312178779904, 0.12146281929612054, 0.16964442042399283,
    0.21742364374000708, 0.2646871622087674, 0.31132287199021097, 0.3572201583376681,
    0.4022701579639916, 0.4463660172534641, 0.48940314570705296, 0.5312794640198946,
    0.571895646202634, 0.6111553551723933, 0.6489654712546573, 0.6852363130542333,
    0.7198818501716109, 0.7528199072605319, 0.7839723589433414, 0.8132653151227975,
    0.8406292962525803, 0.8659993981540928, 0.8893154459951141, 0.9105221370785028,
    0.9295691721319396, 0.9464113748584028, 0.9610087996520538, 0.973326827789911,
    0.983336253884626, 0.9910133714767443, 0.9963401167719552, 0.9993050417357722,
)
_GL_HALF_WEIGHTS = (
    0.048690957009139814, 0.04857546744150351, 0.048344762234802996, 0.04799938859645842,
    0.04754016571483042, 0.046968182816210076, 0.04628479658131447, 0.045491627927418184,
    0.044590558163756566, 0.04358372452932355, 0.04247351512365361, 0.041262563242623576,
    0.039953741132720544, 0.03855015317861564, 0.03705512854024009, 0.0354722132568823,
    0.033805161837141794, 0.032057928354851495, 0.030234657072402554, 0.028339672614259535,
    0.02637746971505491, 0.0243527025687112, 0.02227017380838297, 0.020134823153530088,
    0.017951715775697284, 0.01572603047602503, 0.01346304789671786, 0.011168139460131028,
    0.008846759826363397, 0.006504457968978502, 0.004147033260564499, 0.00178328072169414,
)
_GL_NODES = np.array([-x for x in _GL_HALF_NODES[::-1]] + list(_GL_HALF_NODES))
_GL_WEIGHTS = np.array(_GL_HALF_WEIGHTS[::-1] + _GL_HALF_WEIGHTS)


def _k1_series_tables(last: int):
    """Divisors k (k+1) of the term ratios and digamma sums psi_k, k = 0..last."""
    psi = [1.0 - 2.0 * _EULER_GAMMA]  # psi(1) + psi(2) with the -gamma folded in
    for k in range(1, last + 1):
        psi.append(psi[-1] + (1.0 / k + 1.0 / (k + 1)))
    return np.array([k * (k + 1) for k in range(1, last + 1)], dtype=float), np.array(psi)


# Terms k = 0..20, each entry x <= 2 summing all of them in order.  By
# k = 16 every entry's psi-term is at most 1e-18 of its psi-weighted
# partial sum s_k, and its plain term of its plain sum (at least 1).  s
# converges to a sum that increases on (0, 2] from -0.15 and crosses 0
# once, near x = 0.93; the floats next to the crossing, where |s| is
# least, are the last to get there (test_analytic checks them one by
# one, and a dense grid elsewhere gets there by k = 13).  A term below
# 1e-18 of a sum is under half its ulp, and the terms fall from there
# on, so adding them leaves both sums unchanged: the whole table gives,
# bit for bit, the sums of a loop that stops at convergence and of any
# longer table, as the sums are added in order.
_K1_LAST_TERM = 20
_K1_DIVISORS, _K1_PSI = _k1_series_tables(_K1_LAST_TERM)
# Entries per block of the quadrature, whose (entries x 64 nodes) arrays
# it bounds; the series works on (entries,) vectors and needs no block.
_K1_BLOCK = 128


def bessel_k1(x):
    """Modified Bessel function of the second kind, order 1, for x > 0.

    Vectorized over ``x``: an array gives an array, a scalar a float.
    Two regimes split at x = 2.  Below, the standard ascending series
    around the 1/x pole (with the log * I1 cross term) converges in a
    handful of terms.  Above, a truncated asymptotic expansion cannot
    reach full precision near the split, so instead the integral
    representation K1(x) = 2 e^{-x} \\int_0^U e^{-x u^2} (1+u^2) /
    sqrt(2+u^2) du (exact as U -> inf; tail < 1e-18 once x U^2 > 45)
    is evaluated with a fixed 64-node Gauss-Legendre rule.  Each entry
    is computed on its own, so it does not depend on the others.  The
    series sums every entry below the split at once, term by term on
    vectors of the entries; only the quadrature, whose arrays hold one
    row of nodes per entry, takes the entries in blocks of _K1_BLOCK.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0):
        raise ValueError(f"bessel_k1 requires x > 0, got {x[~(x > 0)].flat[0]}")
    flat = x.ravel()
    out = np.zeros_like(flat)  # x = inf keeps the limit K1 = 0
    small = flat <= 2.0
    if small.any():
        out[small] = _k1_series(flat[small])
    large = np.flatnonzero(~small & (flat < np.inf))
    for lo in range(0, large.size, _K1_BLOCK):
        where = large[lo:lo + _K1_BLOCK]
        out[where] = _k1_integral(flat[where])
    out = out.reshape(x.shape)
    return out if out.ndim else float(out)


def _k1_sums(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The I1-style series sum and its digamma-weighted twin at x <= 2.

    K1(x) = ln(x/2) I1(x) + 1/x - (x/4) s_psi, with I1(x) = (x/2) s_bess.
    Both are summed together term by term over k = 0.._K1_DIVISORS.size,
    each in order (a pairwise .sum would move the last bit), on (entries,)
    vectors.
    """
    q = 0.25 * x * x
    term, s_bess, s_psi = 1.0, 1.0, _K1_PSI[0]
    for divisor, psi in zip(_K1_DIVISORS.tolist(), _K1_PSI[1:].tolist()):
        term = term * (q / divisor)  # term_k = term_{k-1} (q / (k (k+1)))
        s_bess = s_bess + term
        s_psi = s_psi + psi * term
    return s_bess, s_psi


def _k1_series(x: np.ndarray) -> np.ndarray:
    s_bess, s_psi = _k1_sums(x)
    i1 = 0.5 * x * s_bess
    # the log product first: a + b is b + a bit for bit, and one row fewer is alive
    return np.log(0.5 * x) * i1 + 1.0 / x - 0.25 * x * s_psi


def _one_minus_t_k1(t: np.ndarray) -> np.ndarray:
    """1 - t K1(t) for t < 0.5, from the series sums with the 1 taken out.

    1 - t K1(t) = -t ln(t/2) I1(t) + (t^2/4) s_psi: the log term is
    positive and dominates, so the two hardly cancel, where 1 - t K1(t)
    formed from K1 would lose every digit as t -> 0.
    """
    s_bess, s_psi = _k1_sums(t)
    return 0.25 * t * t * s_psi - np.log(0.5 * t) * (0.5 * t * s_bess) * t


def _k1_integral(x: np.ndarray) -> np.ndarray:
    upper = np.sqrt(45.0 / x)[:, None]
    u = 0.5 * upper * (_GL_NODES + 1.0)
    w = 0.5 * upper * _GL_WEIGHTS
    integrand = np.exp(-x[:, None] * u * u) * (1.0 + u * u) / np.sqrt(2.0 + u * u)
    return 2.0 * np.exp(-x) * (w * integrand).sum(axis=1)


def _snr_grid(gamma0):
    """``gamma0`` as a float array of ndim >= 1, and whether a scalar was given.

    The caller hands back floats for a scalar (see ``_as_given``).
    """
    g = np.asarray(gamma0, dtype=float)
    return np.atleast_1d(g), g.ndim == 0


def _as_given(values: np.ndarray, scalar: bool):
    return float(values.flat[0]) if scalar else values


def two_hop_outage(gamma_th: float, gamma0, d_a: float, d_b: float,
                   theta: float, lambda_a: float, lambda_b: float):
    """(outage, survival) of a variable-gain AF two-hop link with Rayleigh hops.

    Hop SNRs are gamma0 * g / d**theta with g ~ Exp(mean lambda); the
    end-to-end SINR g1 g2 / (g1 + g2 + 1) drops below gamma_th with
    probability 1 - exp(-gamma_th (d_b**theta/lambda_b + d_a**theta/
    lambda_a) / gamma0) * t * K1(t), where t**2 collects the cross term
    gamma_th (gamma_th + 1) of both hops.  ``gamma0`` may be an array,
    and both results then have its shape.  Each result is computed
    directly, neither as 1 minus the other, so the survival keeps its
    relative accuracy where the outage is close to 1 and the outage where
    it is close to 0, up to the box's 300 dB.
    """
    for name, v, key in (("gamma_th", gamma_th, "gamma_thm"), ("gamma0", gamma0, "gamma0"),
                         ("d_a", d_a, "d_dnr"), ("d_b", d_b, "d_rdm"), ("theta", theta, "theta"),
                         ("lambda_a", lambda_a, "lambda_dnr"),
                         ("lambda_b", lambda_b, "lambda_rdm")):
        check_box(name, np.asarray(v, dtype=float), key)
    g, scalar = _snr_grid(gamma0)
    da = path_loss(d_a, theta)
    db = path_loss(d_b, theta)
    # t*K1(t) tends to 1 as t -> 0 and to 0 as t -> inf; inside the input box
    # t and every partial product below are normal floats (see check_box).
    t = 2.0 * np.sqrt(da * db * gamma_th * (gamma_th + 1.0) / (g * g * lambda_a * lambda_b))
    t_k1 = t * bessel_k1(t)
    # The outage 1 - e^-u t K1(t) is formed as (1 - e^-u) + e^-u (1 - t K1(t)),
    # both parts nonnegative and summed directly: 1 - surv would round to 0
    # once surv is within an ulp of 1 (from about 180 dB at the reference
    # layout).  1 - t K1(t) is at least 0.17 from t = 0.5 up; below, it comes
    # from the series sums.  Those are taken before the other rows exist,
    # and the later rows are reused in place, so few rows are alive at once
    # beside the arrays evaluate holds around this call.
    small = t < 0.5
    rest_small = _one_minus_t_k1(t[small])
    del t
    u = (gamma_th / g) * (db / lambda_b + da / lambda_a)
    decay = np.exp(-u)
    # t*K1(t) <= 1 analytically; clip the last-ulp overshoot as t -> 0.
    surv = np.minimum(decay * t_k1, 1.0)
    rest = np.subtract(1.0, t_k1, out=t_k1)
    rest[small] = rest_small
    rest *= decay
    outage = np.expm1(np.negative(u, out=u), out=u)
    np.subtract(rest, outage, out=outage)
    np.minimum(outage, 1.0, out=outage)  # the last-ulp overshoot again
    return _as_given(outage, scalar), _as_given(surv, scalar)


@dataclass(frozen=True)
class OutagePoint:
    """Analytic results at one transmit SNR (floats) or over an SNR grid (arrays).

    ``p_out_m_norelay`` and ``throughput_norelay`` are the non-cooperative
    baseline's (relay factor C = 1), formed from the same relay-independent
    factors as the relayed curve; the strong user's outage is the same in
    both.
    """

    gamma0: float | np.ndarray
    p_out_n: float | np.ndarray
    p_out_m: float | np.ndarray
    throughput: float | np.ndarray
    p_out_m_norelay: float | np.ndarray
    throughput_norelay: float | np.ndarray

    def __post_init__(self) -> None:
        if not np.all(np.asarray(self.gamma0) > 0):
            raise ValueError(f"gamma0 must be > 0, got {self.gamma0}")
        for name in ("p_out_n", "p_out_m", "p_out_m_norelay"):
            p = np.asarray(getattr(self, name))
            if not np.all((p >= 0.0) & (p <= 1.0)):
                raise ValueError(f"{name} must lie in [0, 1], got {getattr(self, name)}")


def evaluate(cfg: SystemConfig, geo: Geometry, relay: bool = True, gamma0=None) -> OutagePoint:
    """Evaluate both outage probabilities and the sum throughput.

    The strong (rank-n) user fails if it cannot decode the weak user's
    signal (SIC stage) or, after cancelling it, cannot decode its own.
    Both are monotone thresholds on the same rank-n gain, so its outage
    is the rank-n CDF at the tighter gain level; where the power split
    makes SIC infeasible that level is inf and the outage is 1.

    The weak (rank-m) user's outage decomposes over the strong user's
    SIC stage: if that fails (prob A, a rank-n threshold), nothing is
    forwarded and the weak user is in outage; otherwise it fails only if
    both the direct copy (prob B, a rank-m threshold) and the relayed
    copy (prob C, ``two_hop_outage``) fail, with selection combining.

    Every call also gives the non-cooperative baseline (C = 1) in
    ``p_out_m_norelay`` and ``throughput_norelay``, formed as
    ``A + (1 - A) B`` and ``s_n R_n + s_A s_B R_m`` from the factors the
    relayed curve uses, so a sweep with a baseline needs one call.
    ``relay=False`` skips C and returns the baseline in the main fields
    too; its ``p_out_m`` and ``throughput`` are bit for bit the
    ``p_out_m_norelay`` and ``throughput_norelay`` of any call.

    At cfg.gamma0 by default, giving floats; an array ``gamma0`` of SNRs
    gives arrays of its shape, each entry equal to what a lone call at
    that SNR returns.  The throughput is summed from the users' success
    probabilities, each computed directly rather than as 1 - outage, so
    it keeps its relative accuracy where both outages are close to 1.
    """
    g, scalar = _snr_grid(cfg.gamma0 if gamma0 is None else gamma0)
    x_n, x_own, x_m = stage_gains(cfg, geo, g)
    beta = np.maximum(x_n, x_own)
    spec_n = OrderStatSpec(cfg.M, cfg.n, cfg.lambda_sd)
    spec_m = OrderStatSpec(cfg.M, cfg.m, cfg.lambda_sd)
    p_n, s_n = ordered_cdf(spec_n, beta), ordered_sf(spec_n, beta)
    a, s_a = ordered_cdf(spec_n, x_n), ordered_sf(spec_n, x_n)
    b, s_b = ordered_cdf(spec_m, x_m), ordered_sf(spec_m, x_m)
    p_m0 = a + (1.0 - a) * b
    tau0 = s_n * cfg.R_n + s_a * s_b * cfg.R_m
    if relay:
        c, s_c = two_hop_outage(cfg.gamma_thm, g, geo.d_dnr, geo.d_rdm, cfg.theta,
                                cfg.lambda_dnr, cfg.lambda_rdm)
        # 1 - (a + (1-a) b c) = (1-a) ((1-b) + b (1-c)), each factor summed directly
        p_m = a + (1.0 - a) * b * c
        tau = s_n * cfg.R_n + s_a * (s_b + b * s_c) * cfg.R_m
    else:
        p_m, tau = p_m0, tau0
    return OutagePoint(gamma0=_as_given(g, scalar), p_out_n=_as_given(p_n, scalar),
                       p_out_m=_as_given(p_m, scalar), throughput=_as_given(tau, scalar),
                       p_out_m_norelay=_as_given(p_m0, scalar),
                       throughput_norelay=_as_given(tau0, scalar))
