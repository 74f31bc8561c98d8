"""Per-trial SINR reference for the Monte-Carlo estimator's threshold decisions.

``mcsim.estimate`` decides every stage by one comparison of a per-trial
row with a per-scenario level and calls no SINR expression.  The tests
hold those decisions to this path, which maps the same uniforms to gains
and runs every stage through the ``linklevel`` SINR expressions, trial
by trial: bit for bit on the counts of random draws, and at every trial
outside a relative 1e-9/cond of a level on trials placed at the levels.
"""

from __future__ import annotations

import numpy as np

from coopnoma.linklevel import (Geometry, SystemConfig, sinr_direct_weak, sinr_relayed,
                                sinr_strong_decodes_weak, snr_strong_own)
from coopnoma.mcsim import McConfig, draws_per_trial, trial_stream
from coopnoma.orderstat import gains_from_chain, log_uniform_chain


def draw_columns(mc: McConfig, M: int, columns, start: int, count: int) -> np.ndarray:
    """Uniforms of trials start..start+count-1 in a (draws_per_trial, count) block.

    Row k holds column k for every k in ``columns``, drawn in the order
    given; the other rows are left unset.  The stream is positioned once
    by ``trial_stream`` and then advanced from the end of one row's
    segment to the start of the next, backwards where columns descend.
    """
    u = np.empty((draws_per_trial(M, mc.mode), count))
    rng = trial_stream(mc, M, start, columns[0])
    for prev, k in zip([columns[0], *columns], columns):
        if k != prev:
            rng.bit_generator.advance((k - prev) * 2 ** 64 - count)
        rng.random(out=u[k])
    return u


def gains_from_uniforms(cfg: SystemConfig, mode: str, u: np.ndarray, weak, strong):
    """Map a slot-major (draws_per_trial, count) uniform block to the requested gains.

    ``orderstat.log_uniform_chain`` over each vector's slot rows, then
    ``gains_from_chain`` on every requested rank; the hops by their
    inverse CDF.  ``u`` is left as it is.  Returns (weak-read gains,
    strong-read gains, g_dnr, g_rdm); the first two map each requested
    rank to its (count,) gain array, and in joint mode they are one map
    over the one vector.
    """
    M = cfg.M

    def gains(first, ranks):
        ranks = sorted(set(ranks))
        chain = log_uniform_chain(lambda j: u[first + j - 1].copy(), M, ranks,
                                  np.empty((len(ranks), u.shape[1])))
        return {i: gains_from_chain(x, cfg.lambda_sd) for i, x in chain.items()}

    if mode == "joint":
        gains1 = gains2 = gains(0, [*weak, *strong])
    else:
        gains1, gains2 = gains(0, weak), gains(M, strong)
    hop = draws_per_trial(M, mode) - 2
    return (gains1, gains2, -cfg.lambda_dnr * np.log1p(-u[hop]),
            -cfg.lambda_rdm * np.log1p(-u[hop + 1]))


def _direct_stages(cfg: SystemConfig, geo: Geometry, g_m, g_n):
    """Per-trial (fail_sic, out_n, fail_direct) from the SINR expressions.

    The strong user fails if either SIC stage misses its threshold;
    fail_direct is the weak user's direct copy missing its threshold.
    """
    fail_sic = sinr_strong_decodes_weak(cfg, geo, g_n) < cfg.gamma_thm
    out_n = fail_sic | (snr_strong_own(cfg, geo, g_n) < cfg.gamma_thn)
    fail_direct = sinr_direct_weak(cfg, geo, g_m) < cfg.gamma_thm
    return fail_sic, out_n, fail_direct


def event_arrays(cfg: SystemConfig, geo: Geometry, g_m, g_n, g_dnr, g_rdm,
                 relay: bool = True):
    """Vectorized outage indicators for both users, every stage at SINR level.

    The weak user is in outage when the strong user's SIC stage failed
    (nothing is forwarded), or when both its own copies — direct and
    relayed — fail; with relay=False the relayed copy is never available.
    """
    fail_sic, out_n, fail_direct = _direct_stages(cfg, geo, g_m, g_n)
    if relay:
        fail_relay = sinr_relayed(cfg, geo, g_dnr, g_rdm) < cfg.gamma_thm
        out_m = fail_sic | (~fail_sic & fail_direct & fail_relay)
    else:
        out_m = fail_sic | (~fail_sic & fail_direct)
    return out_n, out_m
