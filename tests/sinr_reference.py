"""Per-trial SINR reference for the Monte-Carlo estimator's threshold decisions.

``mcsim.estimate`` decides every direct-link stage by comparing chain
rows with per-scenario levels.  The tests hold those decisions to this
path, which maps the same uniforms to gains and runs every stage through
the ``linklevel`` SINR expressions, trial by trial.
"""

from __future__ import annotations

import numpy as np

from coopnoma.linklevel import Geometry, SystemConfig, sinr_relayed
from coopnoma.mcsim import _chains, _direct_stages, _hop_gains
from coopnoma.orderstat import gains_from_chain


def gains_from_uniforms(cfg: SystemConfig, mode: str, u: np.ndarray, weak, strong):
    """Map a slot-major (draws_per_trial, count) uniform block to the requested gains.

    ``mcsim._chains`` and then ``gains_from_chain`` on every requested
    rank.  Returns (weak-read gains, strong-read gains, g_dnr, g_rdm);
    the first two map each requested rank to its (count,) gain array, and
    in joint mode they are one map over the one vector.
    """
    vec1, vec2 = _chains(cfg.M, mode, u, weak, strong)
    gains1 = {i: gains_from_chain(x, cfg.lambda_sd) for i, x in vec1.items()}
    gains2 = gains1 if vec2 is vec1 else {i: gains_from_chain(x, cfg.lambda_sd)
                                          for i, x in vec2.items()}
    return (gains1, gains2, *_hop_gains(cfg, mode, u))


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
