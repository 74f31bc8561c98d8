"""Monte-Carlo link simulator: an independent oracle for the closed forms.

Each trial replays the three-phase protocol at SINR level — draw fading
gains, evaluate every decoding stage against its threshold, record the
two outage events — and the estimator averages over trials.

Draw once, evaluate many: the fading gains of a trial depend only on
(seed, trial index, M, lambda_*, mode), not on the SNR, the pair ranks,
the distances or the relay flag.  ``estimate`` therefore draws each
chunk of trials once and evaluates every requested (scenario,
relay) variant on it, so a whole sweep costs one draw.  Chunks run on
one thread pool sized to the CPUs this process may use.

Determinism contract: (seed, trials) fix every estimate; chunk_size,
worker count and which variants share the draw do not.  Trials are
numbered globally and trial t owns the uniforms [t*w, (t+1)*w) of one
PCG64DXSM stream seeded with the seed, w = draws_per_trial(M, mode).
Its gains are ranks of M exponentials built from those uniforms by
``orderstat.gains_at_ranks``, where each rank depends only on the
trial's own uniforms, never on which other ranks the variants read.  So
any partition of the trial range into chunks replays bit-identical
gains, and chunk results are integer counts reduced in chunk order,
which is exact arithmetic.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .analytic import throughput
from .linklevel import (ChannelRealization, Geometry, SystemConfig,
                        sinr_direct_weak, sinr_relayed, sinr_strong_decodes_weak,
                        snr_strong_own)
from .orderstat import gains_at_ranks

MODES = ("joint", "independent")


@dataclass(frozen=True)
class McConfig:
    """Simulation parameters.

    mode selects how the two scheduled users' direct gains are drawn:
    "joint" reads both ranks from one ordered vector (the physical
    channel), "independent" draws a second vector for the strong user so
    the two ranks are statistically independent — the assumption baked
    into the weak-user closed form.
    """

    trials: int
    seed: int
    mode: str = "independent"
    chunk_size: int = 65536

    def __post_init__(self) -> None:
        if not (isinstance(self.trials, (int, np.integer)) and self.trials >= 1):
            raise ValueError(f"trials must be a positive integer, got {self.trials!r}")
        if not (isinstance(self.seed, (int, np.integer)) and 0 <= self.seed < 2 ** 64):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if not (isinstance(self.chunk_size, (int, np.integer)) and self.chunk_size >= 1):
            raise ValueError(f"chunk_size must be a positive integer, got {self.chunk_size!r}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")


@dataclass(frozen=True)
class McEstimate:
    """A binomial proportion estimate with its plug-in standard error."""

    p_hat: float
    stderr: float
    trials: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_hat <= 1.0:
            raise ValueError(f"p_hat must lie in [0, 1], got {self.p_hat}")
        if not (isinstance(self.trials, (int, np.integer)) and self.trials >= 1):
            raise ValueError(f"trials must be a positive integer, got {self.trials!r}")
        want = math.sqrt(self.p_hat * (1.0 - self.p_hat) / self.trials)
        if abs(self.stderr - want) > 1e-12:
            raise ValueError(
                f"stderr={self.stderr} inconsistent with p_hat and trials (expected {want})")


def draws_per_trial(M: int, mode: str) -> int:
    """Uniform doubles owned by one trial (see the module notes).

    Joint mode needs M direct-gain slots plus the two relay hops;
    independent mode needs a second M-slot vector.  A trial's uniforms
    lie in this order: slots 1..M, in independent mode slots 1..M of the
    strong-read vector, then the hops S->D_n->R and R->D_m.
    """
    return (M + 2) if mode == "joint" else (2 * M + 2)


def trial_stream(mc: McConfig, M: int, trial: int) -> np.random.Generator:
    """Random stream positioned at the first uniform of the given trial index.

    One uniform double is one step of the PCG64DXSM stream seeded with
    mc.seed, so advancing by trial * draws_per_trial(M, mc.mode) steps
    gives the same uniforms as drawing every earlier trial first.
    """
    if not 0 <= trial:
        raise ValueError(f"trial index must be >= 0, got {trial}")
    bg = np.random.PCG64DXSM(mc.seed)
    bg.advance(trial * draws_per_trial(M, mc.mode))
    return np.random.Generator(bg)


def _gains_from_uniforms(cfg: SystemConfig, mode: str, u: np.ndarray, weak, strong):
    """Map a (count, draws_per_trial) uniform block to the requested gains.

    ``weak`` and ``strong`` are the ranks read by the weak and the
    strong user.  Returns (weak-read gains, strong-read gains, g_dnr,
    g_rdm); the first two map each requested rank to its (count,) gain
    array, and in joint mode they are one map over the one vector.
    Relay hops use the inverse CDF -lam*log1p(-u).
    """
    M, lam = cfg.M, cfg.lambda_sd
    if mode == "joint":
        ranks = sorted({*weak, *strong})
        vec1 = vec2 = dict(zip(ranks, gains_at_ranks(u[:, :M], ranks, lam)))
        off = M
    else:
        vec1 = dict(zip(weak, gains_at_ranks(u[:, :M], weak, lam)))
        vec2 = dict(zip(strong, gains_at_ranks(u[:, M:2 * M], strong, lam)))
        off = 2 * M
    g_dnr = -cfg.lambda_dnr * np.log1p(-u[:, off])
    g_rdm = -cfg.lambda_rdm * np.log1p(-u[:, off + 1])
    return vec1, vec2, g_dnr, g_rdm


def draw_realization(cfg: SystemConfig, mc: McConfig, rng: np.random.Generator) -> ChannelRealization:
    """Draw one channel realization, consuming one trial's worth of stream."""
    u = rng.random((1, draws_per_trial(cfg.M, mc.mode)))
    ranks = range(1, cfg.M + 1)
    vec1, vec2, g_dnr, g_rdm = _gains_from_uniforms(cfg, mc.mode, u, ranks, ranks)
    return ChannelRealization(
        g_sd=np.concatenate([vec1[i] for i in ranks]), g_dnr=float(g_dnr[0]),
        g_rdm=float(g_rdm[0]),
        g_sd_strong=None if mc.mode == "joint" else np.concatenate([vec2[i] for i in ranks]))


def _event_arrays(cfg: SystemConfig, geo: Geometry, g_m, g_n, g_dnr, g_rdm,
                  relay: bool = True):
    """Vectorized outage indicators for both users.

    The strong user fails if either SIC stage misses its threshold.  The
    weak user is in outage when the strong user's SIC stage failed
    (nothing is forwarded), or when both its own copies — direct and
    relayed — fail; with relay=False the relayed copy is never available.
    """
    fail_sic = sinr_strong_decodes_weak(cfg, geo, g_n) < cfg.gamma_thm
    out_n = fail_sic | (snr_strong_own(cfg, geo, g_n) < cfg.gamma_thn)
    fail_direct = sinr_direct_weak(cfg, geo, g_m) < cfg.gamma_thm
    if relay:
        fail_relay = sinr_relayed(cfg, geo, g_dnr, g_rdm) < cfg.gamma_thm
        out_m = fail_sic | (~fail_sic & fail_direct & fail_relay)
    else:
        out_m = fail_sic | (~fail_sic & fail_direct)
    return out_n, out_m


def outage_events(cfg: SystemConfig, geo: Geometry, real: ChannelRealization) -> tuple[bool, bool]:
    """Evaluate the two outage events for one realization."""
    out_n, out_m = _event_arrays(
        cfg, geo,
        np.atleast_1d(real.gain_weak(cfg.m)), np.atleast_1d(real.gain_strong(cfg.n)),
        np.atleast_1d(real.g_dnr), np.atleast_1d(real.g_rdm))
    return bool(out_n[0]), bool(out_m[0])


# One scenario evaluated on a shared draw: (cfg, geo, relay).
_Variant = tuple[SystemConfig, Geometry, bool]

# SystemConfig fields that fix the fading draw; variants must agree on them.
_DRAW_FIELDS = ("M", "lambda_sd", "lambda_dnr", "lambda_rdm")


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_chunk(draw: SystemConfig, variants: Sequence[_Variant], mc: McConfig,
               start: int, count: int) -> list[tuple[int, int]]:
    """Draw one chunk of trials and count both outages for every variant."""
    rng = trial_stream(mc, draw.M, start)
    u = rng.random((count, draws_per_trial(draw.M, mc.mode)))
    weak, strong, g_dnr, g_rdm = _gains_from_uniforms(
        draw, mc.mode, u, sorted({c.m for c, _, _ in variants}),
        sorted({c.n for c, _, _ in variants}))
    counts = []
    for cfg, geo, relay in variants:
        out_n, out_m = _event_arrays(cfg, geo, weak[cfg.m], strong[cfg.n],
                                     g_dnr, g_rdm, relay)
        counts.append((int(out_n.sum()), int(out_m.sum())))
    return counts


def estimate(cfg: SystemConfig, geo: Geometry, mc: McConfig, *, workers: int | None = None,
             relay: bool = True, also: Sequence[_Variant] | None = None):
    """Estimate both outage probabilities and the throughput they imply.

    Returns (strong-user estimate, weak-user estimate, throughput) for
    (cfg, geo, relay).  ``also`` lists more (cfg, geo, relay) variants to
    evaluate on the same fading draws; when it is given, the result is a
    list of such triples, the first for (cfg, geo, relay) and then one
    per entry of ``also``.  Every variant must share cfg's M and
    lambda_*, which fix the draw.  ``workers`` threads share the chunks
    (default: the CPUs this process may use), never more than there are
    chunks.  Results are bit-identical for fixed (seed, trials) whatever
    ``chunk_size``, ``workers`` and ``also`` are; see the module
    docstring for why.
    """
    if workers is not None and not (isinstance(workers, (int, np.integer)) and workers >= 1):
        raise ValueError(f"workers must be a positive integer, got {workers!r}")
    variants = [(cfg, geo, relay), *(also or ())]
    for other, _, _ in variants[1:]:
        for name in _DRAW_FIELDS:
            if getattr(other, name) != getattr(cfg, name):
                raise ValueError(f"variant {name}={getattr(other, name)!r} differs from the "
                                 f"draw's {name}={getattr(cfg, name)!r}")
    chunks = [(start, min(mc.chunk_size, mc.trials - start))
              for start in range(0, mc.trials, mc.chunk_size)]
    workers = min(_usable_cpus() if workers is None else workers, len(chunks))
    if workers == 1:
        counts = [_run_chunk(cfg, variants, mc, s, c) for s, c in chunks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            counts = list(pool.map(lambda sc: _run_chunk(cfg, variants, mc, *sc), chunks))
    results = []
    for k, (v_cfg, _, _) in enumerate(variants):
        p_n = sum(c[k][0] for c in counts) / mc.trials
        p_m = sum(c[k][1] for c in counts) / mc.trials
        est_n = McEstimate(p_n, math.sqrt(p_n * (1.0 - p_n) / mc.trials), mc.trials)
        est_m = McEstimate(p_m, math.sqrt(p_m * (1.0 - p_m) / mc.trials), mc.trials)
        results.append((est_n, est_m, throughput(v_cfg, p_n, p_m)))
    return results[0] if also is None else results
