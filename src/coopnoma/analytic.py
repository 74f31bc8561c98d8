"""Closed-form outage probabilities and throughput.

Outage events reduce to threshold crossings on order-statistic gains,
which the coefficient expansion in ``orderstat`` turns into finite sums;
the two-hop relay link adds a Bessel-K1 factor.  A purpose-built K1
evaluator keeps the package dependency-light while holding ~1e-13
relative accuracy across the full argument range the link budget can
produce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linklevel import Geometry, SystemConfig
from .orderstat import OrderStatSpec, ordered_cdf

_EULER_GAMMA = 0.5772156649015328606
# 64-node Gauss-Legendre rule, reused by every large-argument K1 call.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def bessel_k1(x: float) -> float:
    """Modified Bessel function of the second kind, order 1, for x > 0.

    Two regimes split at x = 2.  Below, the standard ascending series
    around the 1/x pole (with the log * I1 cross term) converges in a
    handful of terms.  Above, a truncated asymptotic expansion cannot
    reach full precision near the split, so instead the integral
    representation K1(x) = 2 e^{-x} \\int_0^U e^{-x u^2} (1+u^2) /
    sqrt(2+u^2) du (exact as U -> inf; tail < 1e-18 once x U^2 > 45)
    is evaluated with a fixed 64-node Gauss-Legendre rule.
    """
    if not (x > 0):
        raise ValueError(f"bessel_k1 requires x > 0, got {x}")
    if x <= 2.0:
        q = 0.25 * x * x
        # I1-style series and its digamma-weighted twin, summed together.
        term = 1.0
        psi_sum = 1.0 - 2.0 * _EULER_GAMMA  # psi(1) + psi(2) with the -gamma folded in
        s_bess = term
        s_psi = psi_sum * term
        k = 0
        while True:
            k += 1
            term *= q / (k * (k + 1))
            psi_sum += 1.0 / k + 1.0 / (k + 1)
            s_bess += term
            delta = psi_sum * term
            s_psi += delta
            if abs(delta) <= 1e-18 * abs(s_psi) or k > 64:
                break
        i1 = 0.5 * x * s_bess
        return 1.0 / x + math.log(0.5 * x) * i1 - 0.25 * x * s_psi
    upper = math.sqrt(45.0 / x)
    u = 0.5 * upper * (_GL_NODES + 1.0)
    w = 0.5 * upper * _GL_WEIGHTS
    integrand = np.exp(-x * u * u) * (1.0 + u * u) / np.sqrt(2.0 + u * u)
    return 2.0 * math.exp(-x) * float(w @ integrand)


def sic_feasible(cfg: SystemConfig) -> bool:
    """Whether the power split can ever support the weak user's threshold.

    The weak-signal SINR is capped at a_m/a_n no matter how strong the
    channel, so gamma_thm >= a_m/a_n makes outage certain for both the
    direct and the SIC decoding stage.
    """
    return cfg.gamma_thm < cfg.a_m / cfg.a_n


def _alpha(cfg: SystemConfig) -> float:
    # Gain level at which the interference-limited weak-signal SINR hits
    # its threshold, normalized by distance**theta later.
    return cfg.gamma_thm / ((cfg.a_m - cfg.a_n * cfg.gamma_thm) * cfg.gamma0)


def outage_strong(cfg: SystemConfig, geo: Geometry) -> float:
    """Outage probability of the strong (rank-n) user.

    The strong user fails if it cannot decode the weak user's signal
    (SIC stage) or, after cancelling it, cannot decode its own.  Both
    conditions are monotone thresholds on the same rank-n gain, so the
    outage probability is the rank-n CDF at the tighter gain level.
    Returns 1.0 outright when the power split makes SIC infeasible.
    """
    if not sic_feasible(cfg):
        return 1.0
    dn_th = geo.d_sdn ** cfg.theta
    beta = max(_alpha(cfg) * dn_th, cfg.gamma_thn * dn_th / (cfg.a_n * cfg.gamma0))
    return ordered_cdf(OrderStatSpec(cfg.M, cfg.n, cfg.lambda_sd), beta)


def two_hop_outage(gamma_th: float, gamma0: float, d_a: float, d_b: float,
                   theta: float, lambda_a: float, lambda_b: float) -> float:
    """Outage of a variable-gain AF two-hop link with Rayleigh hops.

    Hop SNRs are gamma0 * g / d**theta with g ~ Exp(mean lambda); the
    end-to-end SINR g1 g2 / (g1 + g2 + 1) drops below gamma_th with
    probability 1 - exp(-gamma_th (d_b**theta/lambda_b + d_a**theta/
    lambda_a) / gamma0) * t * K1(t), where t**2 collects the cross term
    gamma_th (gamma_th + 1) of both hops.
    """
    for name, v in (("gamma_th", gamma_th), ("gamma0", gamma0), ("d_a", d_a),
                    ("d_b", d_b), ("lambda_a", lambda_a), ("lambda_b", lambda_b)):
        if not (v > 0):
            raise ValueError(f"{name} must be > 0, got {v}")
    da = d_a ** theta
    db = d_b ** theta
    t = 2.0 * math.sqrt(da * db * gamma_th * (gamma_th + 1.0)
                        / (gamma0 * gamma0 * lambda_a * lambda_b))
    # t*K1(t) -> 1 as t -> 0; t underflows to 0 once gamma0**2 overflows.
    t_k1 = t * bessel_k1(t) if t > 0 else 1.0
    surv = math.exp(-(gamma_th / gamma0) * (db / lambda_b + da / lambda_a)) * t_k1
    # t*K1(t) <= 1 analytically; clip the last-ulp overshoot as t -> 0.
    return min(max(1.0 - surv, 0.0), 1.0)


def relay_link_outage(cfg: SystemConfig, geo: Geometry) -> float:
    """Outage of the relayed copy reaching the weak user."""
    return two_hop_outage(cfg.gamma_thm, cfg.gamma0, geo.d_dnr, geo.d_rdm,
                          cfg.theta, cfg.lambda_dnr, cfg.lambda_rdm)


def outage_weak(cfg: SystemConfig, geo: Geometry, relay: bool = True) -> float:
    """Outage probability of the weak (rank-m) user with selection combining.

    Decomposes over the strong user's SIC stage: if that fails (prob A,
    a rank-n threshold), nothing is forwarded and the weak user is in
    outage by definition; otherwise the weak user fails only if both the
    direct copy (prob B, a rank-m threshold) and the relayed copy
    (prob C) fail.  ``relay=False`` drops the relayed copy (C = 1),
    giving the non-cooperative baseline.
    """
    if not sic_feasible(cfg):
        return 1.0
    alpha = _alpha(cfg)
    a = ordered_cdf(OrderStatSpec(cfg.M, cfg.n, cfg.lambda_sd), alpha * geo.d_sdn ** cfg.theta)
    b = ordered_cdf(OrderStatSpec(cfg.M, cfg.m, cfg.lambda_sd), alpha * geo.d_sdm ** cfg.theta)
    c = relay_link_outage(cfg, geo) if relay else 1.0
    return a + (1.0 - a) * b * c


def throughput(cfg: SystemConfig, p_out_n: float, p_out_m: float) -> float:
    """Delay-limited sum throughput: each user delivers its rate unless in outage."""
    for name, p in (("p_out_n", p_out_n), ("p_out_m", p_out_m)):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {p}")
    return (1.0 - p_out_n) * cfg.R_n + (1.0 - p_out_m) * cfg.R_m


@dataclass(frozen=True)
class OutagePoint:
    """Analytic results at one transmit SNR."""

    gamma0: float
    p_out_n: float
    p_out_m: float
    throughput: float

    def __post_init__(self) -> None:
        if not (self.gamma0 > 0):
            raise ValueError(f"gamma0 must be > 0, got {self.gamma0}")
        for name in ("p_out_n", "p_out_m"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {p}")


def evaluate(cfg: SystemConfig, geo: Geometry, relay: bool = True) -> OutagePoint:
    """Evaluate both outage probabilities and the sum throughput at cfg.gamma0."""
    p_n = outage_strong(cfg, geo)
    p_m = outage_weak(cfg, geo, relay=relay)
    return OutagePoint(gamma0=cfg.gamma0, p_out_n=p_n, p_out_m=p_m,
                       throughput=throughput(cfg, p_n, p_m))
