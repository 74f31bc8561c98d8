"""Closed-form outage probabilities and throughput.

Outage events reduce to threshold crossings on order-statistic gains,
which the coefficient expansion in ``orderstat`` turns into finite sums;
the two-hop relay link adds a Bessel-K1 factor.  A purpose-built K1
evaluator keeps the package dependency-light while holding ~1e-13
relative accuracy across the full argument range the link budget can
produce.

Every closed form takes an array of transmit SNRs as well as a single
one, so a whole SNR grid is evaluated in one array pass; a single SNR
is the length-1 case of the same code and gives floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linklevel import Geometry, SystemConfig, path_loss
from .orderstat import OrderStatSpec, ordered_cdf, ordered_sf

_EULER_GAMMA = 0.5772156649015328606
# 64-node Gauss-Legendre rule, reused by every large-argument K1 call.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def _k1_series_tables(last: int):
    """Divisors k (k+1) of the term ratios and digamma sums psi_k, k = 0..last."""
    psi = [1.0 - 2.0 * _EULER_GAMMA]  # psi(1) + psi(2) with the -gamma folded in
    for k in range(1, last + 1):
        psi.append(psi[-1] + (1.0 / k + 1.0 / (k + 1)))
    return np.array([k * (k + 1) for k in range(1, last + 1)], dtype=float), np.array(psi)


# Below x = 2 the series has converged to 1e-18 long before its 65th term.
_K1_LAST_TERM = 65
_K1_DIVISORS, _K1_PSI = _k1_series_tables(_K1_LAST_TERM)
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
    is computed on its own, so it does not depend on the others.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0):
        raise ValueError(f"bessel_k1 requires x > 0, got {x[~(x > 0)].flat[0]}")
    flat = x.ravel()
    out = np.zeros_like(flat)  # x = inf keeps the limit K1 = 0
    # Both regimes work on (entries x terms) arrays; blocks of entries
    # bound their size.
    for lo in range(0, flat.size, _K1_BLOCK):
        block = flat[lo:lo + _K1_BLOCK]
        small = block <= 2.0
        for where, branch in ((small, _k1_series), (~small & (block < np.inf), _k1_integral)):
            if where.any():
                out[lo:lo + _K1_BLOCK][where] = branch(block[where])
    out = out.reshape(x.shape)
    return out if out.ndim else float(out)


def _k1_series(x: np.ndarray) -> np.ndarray:
    # I1-style series and its digamma-weighted twin, summed together.  All
    # terms up to k = _K1_LAST_TERM are formed at once; each entry takes
    # its partial sums at the first term that is below 1e-18 of its own
    # sum (or at the last term), as a term-by-term loop would stop there.
    r = (0.25 * x * x)[:, None] / _K1_DIVISORS
    term = np.concatenate([np.ones((x.size, 1)), np.cumprod(r, axis=1)], axis=1)
    delta = _K1_PSI * term
    s_bess = np.cumsum(term, axis=1)
    s_psi = np.cumsum(delta, axis=1)
    done = np.abs(delta) <= 1e-18 * np.abs(s_psi)
    done[:, 0] = False
    done[:, -1] = True
    stop = np.argmax(done, axis=1)[:, None]
    s_bess = np.take_along_axis(s_bess, stop, axis=1)[:, 0]
    s_psi = np.take_along_axis(s_psi, stop, axis=1)[:, 0]
    i1 = 0.5 * x * s_bess
    return 1.0 / x + np.log(0.5 * x) * i1 - 0.25 * x * s_psi


def _k1_integral(x: np.ndarray) -> np.ndarray:
    upper = np.sqrt(45.0 / x)[:, None]
    u = 0.5 * upper * (_GL_NODES + 1.0)
    w = 0.5 * upper * _GL_WEIGHTS
    integrand = np.exp(-x[:, None] * u * u) * (1.0 + u * u) / np.sqrt(2.0 + u * u)
    return 2.0 * np.exp(-x) * (w * integrand).sum(axis=1)


def sic_feasible(cfg: SystemConfig) -> bool:
    """Whether the power split can ever support the weak user's threshold.

    The weak-signal SINR is capped at a_m/a_n no matter how strong the
    channel, so gamma_thm >= a_m/a_n makes outage certain for both the
    direct and the SIC decoding stage.
    """
    return cfg.gamma_thm < cfg.a_m / cfg.a_n


def _snr_grid(cfg: SystemConfig, gamma0):
    """``gamma0`` (default cfg.gamma0) as a checked float array of ndim >= 1.

    Returns (array, scalar) where ``scalar`` says a scalar was given, so
    that the caller hands back floats for it.
    """
    g = np.asarray(cfg.gamma0 if gamma0 is None else gamma0, dtype=float)
    bad = ~(np.isfinite(g) & (g > 0))
    if bad.any():
        raise ValueError(f"gamma0 must be finite and > 0, got {g[bad].flat[0]}")
    return np.atleast_1d(g), g.ndim == 0


def _as_given(values: np.ndarray, scalar: bool):
    return float(values.flat[0]) if scalar else values


def _alpha(cfg: SystemConfig, gamma0: np.ndarray) -> np.ndarray:
    # Gain level at which the interference-limited weak-signal SINR hits
    # its threshold, normalized by distance**theta later.  Callers let it
    # overflow to inf where gamma0 is too small for any gain to reach it.
    return cfg.gamma_thm / ((cfg.a_m - cfg.a_n * cfg.gamma_thm) * gamma0)


def _gain_level(level: np.ndarray, pl: float) -> np.ndarray:
    # level * pl, the least gain that meets a threshold over a link with path
    # loss pl: 0 on a noise-free link (pl = 0) even where level is inf
    return np.zeros_like(level) if pl == 0.0 else level * pl


def _strong(cfg: SystemConfig, geo: Geometry, gamma0: np.ndarray):
    """(outage, survival) of the strong user at each SNR of ``gamma0``."""
    if not sic_feasible(cfg):
        return np.ones_like(gamma0), np.zeros_like(gamma0)
    dn_th = path_loss(geo.d_sdn, cfg.theta)
    if dn_th == 0.0:  # a noise-free link: the least gain that gets through is 0
        beta = np.zeros_like(gamma0)
    else:
        with np.errstate(over="ignore", divide="ignore"):  # gain levels -> inf as gamma0 -> 0
            beta = np.maximum(_alpha(cfg, gamma0) * dn_th,
                              cfg.gamma_thn * dn_th / (cfg.a_n * gamma0))
    spec = OrderStatSpec(cfg.M, cfg.n, cfg.lambda_sd)
    return ordered_cdf(spec, beta), ordered_sf(spec, beta)


def outage_strong(cfg: SystemConfig, geo: Geometry, gamma0=None):
    """Outage probability of the strong (rank-n) user.

    The strong user fails if it cannot decode the weak user's signal
    (SIC stage) or, after cancelling it, cannot decode its own.  Both
    conditions are monotone thresholds on the same rank-n gain, so the
    outage probability is the rank-n CDF at the tighter gain level.
    Returns 1.0 outright when the power split makes SIC infeasible.
    ``gamma0`` (default cfg.gamma0) may be an array of SNRs; the result
    then has its shape.
    """
    g, scalar = _snr_grid(cfg, gamma0)
    return _as_given(_strong(cfg, geo, g)[0], scalar)


def two_hop_outage(gamma_th: float, gamma0, d_a: float, d_b: float,
                   theta: float, lambda_a: float, lambda_b: float, *, survival: bool = False):
    """Outage of a variable-gain AF two-hop link with Rayleigh hops.

    Hop SNRs are gamma0 * g / d**theta with g ~ Exp(mean lambda); the
    end-to-end SINR g1 g2 / (g1 + g2 + 1) drops below gamma_th with
    probability 1 - exp(-gamma_th (d_b**theta/lambda_b + d_a**theta/
    lambda_a) / gamma0) * t * K1(t), where t**2 collects the cross term
    gamma_th (gamma_th + 1) of both hops.  ``gamma0`` may be an array,
    and the result then has its shape.  ``survival=True`` returns
    (outage, survival), the survival computed directly rather than as
    1 - outage, so that it keeps its relative accuracy where the
    outage is close to 1.
    """
    for name, v in (("gamma_th", gamma_th), ("gamma0", gamma0), ("d_a", d_a),
                    ("d_b", d_b), ("lambda_a", lambda_a), ("lambda_b", lambda_b)):
        if not np.all(np.asarray(v) > 0):
            raise ValueError(f"{name} must be > 0, got {v}")
    scalar = np.ndim(gamma0) == 0
    g = np.atleast_1d(np.asarray(gamma0, dtype=float))
    da = path_loss(d_a, theta)
    db = path_loss(d_b, theta)
    if math.isinf(da) or math.isinf(db):
        surv = np.zeros_like(g)  # a hop with infinite path loss: the link always fails
    elif da == 0.0 and db == 0.0:
        surv = np.ones_like(g)  # both hops noise-free: the link never fails
    else:
        # t is 0 where gamma0**2 overflows (above about 1541 dB) and inf where
        # it underflows (below about -1541 dB); t*K1(t) tends to 1 and to 0.
        cross = da * db * gamma_th * (gamma_th + 1.0)
        with np.errstate(over="ignore", divide="ignore"):
            if da == 0.0 or db == 0.0:  # one noise-free hop: the link is the other hop
                t = np.zeros_like(g)
            elif 0.0 < cross < math.inf:
                t = 2.0 * np.sqrt(cross / (g * g * lambda_a * lambda_b))
            else:  # the cross term leaves the floats: take t from logs, never inf/inf
                log_c = 0.5 * (math.log(da) + math.log(db) + math.log(gamma_th)
                               + math.log1p(gamma_th) - math.log(lambda_a) - math.log(lambda_b))
                t = 2.0 * np.exp(log_c - np.log(g))
            decay = np.exp(-(gamma_th / g) * (db / lambda_b + da / lambda_a))
        t_k1 = np.where(t > 0, 0.0, 1.0)
        mid = (t > 0) & np.isfinite(t)
        t_k1[mid] = t[mid] * bessel_k1(t[mid])
        # t*K1(t) <= 1 analytically; clip the last-ulp overshoot as t -> 0.
        surv = np.minimum(decay * t_k1, 1.0)
    outage = np.minimum(np.maximum(1.0 - surv, 0.0), 1.0)
    if survival:
        return _as_given(outage, scalar), _as_given(surv, scalar)
    return _as_given(outage, scalar)


def relay_link_outage(cfg: SystemConfig, geo: Geometry, gamma0=None):
    """Outage of the relayed copy reaching the weak user (array ``gamma0`` as above)."""
    g, scalar = _snr_grid(cfg, gamma0)
    return _as_given(two_hop_outage(cfg.gamma_thm, g, geo.d_dnr, geo.d_rdm, cfg.theta,
                                    cfg.lambda_dnr, cfg.lambda_rdm), scalar)


def _weak(cfg: SystemConfig, geo: Geometry, gamma0: np.ndarray, relay: bool):
    """(outage, survival) of the weak user at each SNR of ``gamma0``."""
    if not sic_feasible(cfg):
        return np.ones_like(gamma0), np.zeros_like(gamma0)
    with np.errstate(over="ignore", divide="ignore"):  # gain levels -> inf as gamma0 -> 0
        alpha = _alpha(cfg, gamma0)
        x_n = _gain_level(alpha, path_loss(geo.d_sdn, cfg.theta))
        x_m = _gain_level(alpha, path_loss(geo.d_sdm, cfg.theta))
    spec_n = OrderStatSpec(cfg.M, cfg.n, cfg.lambda_sd)
    spec_m = OrderStatSpec(cfg.M, cfg.m, cfg.lambda_sd)
    a = ordered_cdf(spec_n, x_n)
    b = ordered_cdf(spec_m, x_m)
    if relay:
        c, s_c = two_hop_outage(cfg.gamma_thm, gamma0, geo.d_dnr, geo.d_rdm, cfg.theta,
                                cfg.lambda_dnr, cfg.lambda_rdm, survival=True)
    else:
        c, s_c = 1.0, 0.0
    # 1 - (a + (1-a) b c) = (1-a) ((1-b) + b (1-c)), each factor summed directly
    return a + (1.0 - a) * b * c, ordered_sf(spec_n, x_n) * (ordered_sf(spec_m, x_m) + b * s_c)


def outage_weak(cfg: SystemConfig, geo: Geometry, relay: bool = True, gamma0=None):
    """Outage probability of the weak (rank-m) user with selection combining.

    Decomposes over the strong user's SIC stage: if that fails (prob A,
    a rank-n threshold), nothing is forwarded and the weak user is in
    outage by definition; otherwise the weak user fails only if both the
    direct copy (prob B, a rank-m threshold) and the relayed copy
    (prob C) fail.  ``relay=False`` drops the relayed copy (C = 1),
    giving the non-cooperative baseline.  ``gamma0`` (default
    cfg.gamma0) may be an array of SNRs; the result then has its shape.
    """
    g, scalar = _snr_grid(cfg, gamma0)
    return _as_given(_weak(cfg, geo, g, relay)[0], scalar)


def throughput(cfg: SystemConfig, p_out_n, p_out_m):
    """Delay-limited sum throughput: each user delivers its rate unless in outage.

    Elementwise over arrays of outage probabilities.
    """
    for name, p in (("p_out_n", p_out_n), ("p_out_m", p_out_m)):
        a = np.asarray(p)
        if not np.all((a >= 0.0) & (a <= 1.0)):
            raise ValueError(f"{name} must lie in [0, 1], got {p}")
    return (1.0 - p_out_n) * cfg.R_n + (1.0 - p_out_m) * cfg.R_m


@dataclass(frozen=True)
class OutagePoint:
    """Analytic results at one transmit SNR (floats) or over an SNR grid (arrays)."""

    gamma0: float | np.ndarray
    p_out_n: float | np.ndarray
    p_out_m: float | np.ndarray
    throughput: float | np.ndarray

    def __post_init__(self) -> None:
        if not np.all(np.asarray(self.gamma0) > 0):
            raise ValueError(f"gamma0 must be > 0, got {self.gamma0}")
        for name in ("p_out_n", "p_out_m"):
            p = np.asarray(getattr(self, name))
            if not np.all((p >= 0.0) & (p <= 1.0)):
                raise ValueError(f"{name} must lie in [0, 1], got {getattr(self, name)}")


def evaluate(cfg: SystemConfig, geo: Geometry, relay: bool = True, gamma0=None) -> OutagePoint:
    """Evaluate both outage probabilities and the sum throughput.

    At cfg.gamma0 by default, giving floats; an array ``gamma0`` of SNRs
    gives arrays of its shape, each entry equal to what a lone call at
    that SNR returns.  The throughput is summed from the users' success
    probabilities, each computed directly rather than as 1 - outage, so
    it keeps its relative accuracy where both outages are close to 1.
    """
    g, scalar = _snr_grid(cfg, gamma0)
    p_n, s_n = _strong(cfg, geo, g)
    p_m, s_m = _weak(cfg, geo, g, relay)
    return OutagePoint(gamma0=_as_given(g, scalar), p_out_n=_as_given(p_n, scalar),
                       p_out_m=_as_given(p_m, scalar),
                       throughput=_as_given(s_n * cfg.R_n + s_m * cfg.R_m, scalar))
