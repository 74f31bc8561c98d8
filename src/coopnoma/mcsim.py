"""Monte-Carlo link simulator: an independent oracle for the closed forms.

Each trial replays the three-phase protocol — draw fading gains, decide
every decoding stage, record the two outage events — and the estimator
averages over trials.

Threshold decisions: each direct-link stage (the strong user's SIC and
own stages on rank n, the weak user's direct copy on rank m) fails
exactly where its rank's gain lies below the least gain that passes it,
which ``linklevel`` gives by inverting its own SINR expressions.  The
gain is an increasing function of the chain value log U_(i) that
``orderstat`` builds, so ``estimate`` maps each variant's least gains to
chain levels once, and a chunk decides each stage with one comparison of
a chain row against a scalar: no gain transform and no SINR per trial.
Trials within a relative 1e-9 of a level (the guard band, wider where
the SINR is ill-conditioned) are decided by the SINR expressions on
their gains.  A degenerate stage (SIC infeasible, an infinite or zero
path loss, inputs near the ends of the floats) has a band spanning the
whole chain, so all its trials are decided that way.  Every decision
thus equals the SINR path's bit for bit.  The relayed SINR runs only on
the trials that need it: SIC kept, direct copy lost.

Draw once, evaluate many: the fading gains of a trial depend only on
(seed, trial index, M, lambda_*, mode), not on the SNR, the pair ranks,
the distances or the relay flag.  ``estimate`` therefore draws each
chunk of trials once and evaluates every requested (scenario,
relay) variant on it, so a whole sweep costs one draw.  Chunks run on
one thread pool sized to the CPUs this process may use.

Determinism contract: (seed, trials) fix every estimate; chunk_size,
worker count and which variants share the draw do not.  Trials are
numbered globally and the stream is slot-major: the uniform in column k
of trial t (see ``draws_per_trial``) is step k*2**64 + t of one
PCG64DXSM stream seeded with the seed, so every column owns a segment
of 2**64 steps and trials are consecutive within it.  A chunk draws only
the columns its variants read, one contiguous row per column: each
vector's slots from its lowest read rank up, and the two hops.  Its
chain rows are built from those rows by ``orderstat.log_uniform_chain``,
where each rank depends only on the trial's own uniforms in the slots
from that rank up, never on which other ranks the variants read.  So
any partition of the trial range into chunks, and any set of variants,
replays bit-identical chains, and chunk results are integer counts
reduced in chunk order, which is exact arithmetic.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .analytic import throughput
from .linklevel import (Geometry, SystemConfig, gain_direct_weak, gain_strong_decodes_weak,
                        gain_strong_own, path_loss, sinr_direct_weak, sinr_relayed,
                        sinr_strong_decodes_weak, snr_strong_own)
from .orderstat import chain_at_gain, gains_from_chain, log_uniform_chain

MODES = ("joint", "independent")

# Stream steps per column: column k of trial t is step k * _SEGMENT + t.
_SEGMENT = 2 ** 64

# Half-width of a stage's guard band, relative in gain, before the
# widening for the SINR's conditioning (see _stage).
_BAND = 1e-9
# Magnitudes between which a stage's inputs keep every SINR a normal float.
_ORDINARY = (2.0 ** -300, 2.0 ** 300)


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
        if self.trials >= _SEGMENT:
            raise ValueError(f"trials must be < 2**64, the stream steps of one column, "
                             f"got {self.trials!r}")
        if not (isinstance(self.seed, (int, np.integer)) and 0 <= self.seed < 2 ** 64):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if not (isinstance(self.chunk_size, (int, np.integer)) and self.chunk_size >= 1):
            raise ValueError(f"chunk_size must be a positive integer, got {self.chunk_size!r}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")


@dataclass(frozen=True)
class McEstimate:
    """A binomial proportion: ``events`` outages counted in ``trials`` trials."""

    events: int
    trials: int

    def __post_init__(self) -> None:
        if not (isinstance(self.trials, (int, np.integer)) and self.trials >= 1):
            raise ValueError(f"trials must be a positive integer, got {self.trials!r}")
        if not (isinstance(self.events, (int, np.integer)) and 0 <= self.events <= self.trials):
            raise ValueError(f"events must be an integer in [0, trials={self.trials}], "
                             f"got {self.events!r}")

    @property
    def p_hat(self) -> float:
        return self.events / self.trials

    @property
    def stderr(self) -> float:
        """Plug-in standard error sqrt(p_hat (1 - p_hat) / trials)."""
        p = self.p_hat
        return math.sqrt(p * (1.0 - p) / self.trials)


def draws_per_trial(M: int, mode: str) -> int:
    """Uniform columns of one trial (see the module notes).

    Joint mode needs M direct-gain slots plus the two relay hops;
    independent mode needs a second M-slot vector.  Column k of a trial
    is: slot k+1 for k < M, in independent mode slot k-M+1 of the
    strong-read vector for M <= k < 2M, then the hops S->D_n->R and
    R->D_m.  A chunk draws only the columns its variants read.
    """
    return (M + 2) if mode == "joint" else (2 * M + 2)


def trial_stream(mc: McConfig, M: int, trial: int, column: int = 0) -> np.random.Generator:
    """Random stream positioned at the uniform in ``column`` of the given trial index.

    One uniform double is one step of the PCG64DXSM stream seeded with
    mc.seed, and the uniform in column k of trial t is step
    k * 2**64 + t, so drawing from here gives that column for trials
    ``trial``, ``trial`` + 1, and so on.
    """
    if not 0 <= trial < _SEGMENT:
        raise ValueError(f"trial index must lie in [0, 2**64), got {trial}")
    if not 0 <= column < draws_per_trial(M, mc.mode):
        raise ValueError(f"column must lie in [0, {draws_per_trial(M, mc.mode)}), got {column}")
    bg = np.random.PCG64DXSM(mc.seed)
    bg.advance(column * _SEGMENT + trial)
    return np.random.Generator(bg)


def _columns(M: int, mode: str, weak, strong) -> list[int]:
    """Columns a chunk reads: each vector's slots from its lowest read rank up, then the hops."""
    if mode == "joint":
        return list(range(min(min(weak), min(strong)) - 1, M + 2))
    return [*range(min(weak) - 1, M), *range(M + min(strong) - 1, 2 * M + 2)]


def _draw(mc: McConfig, M: int, columns: Sequence[int], start: int, count: int) -> np.ndarray:
    """Uniforms of trials start..start+count-1 in a (draws_per_trial, count) block.

    Row k holds column k for every k in ``columns`` (ascending); the other
    rows are left unset.  The stream is positioned once and then advanced
    from the end of one row's segment to the start of the next.
    """
    u = np.empty((draws_per_trial(M, mc.mode), count))
    rng = trial_stream(mc, M, start, columns[0])
    for prev, k in zip([columns[0], *columns], columns):
        if k != prev:
            rng.bit_generator.advance((k - prev) * _SEGMENT - count)
        rng.random(out=u[k])
    return u


def _chains(M: int, mode: str, u: np.ndarray, weak, strong):
    """Chain rows log U_(i) of the requested ranks, built in place in the uniform block.

    ``weak`` and ``strong`` are the ranks read by the weak and the strong
    user; only the direct-gain rows ``_columns`` names are read, and they
    are overwritten.  Returns (weak-read map, strong-read map), each
    mapping a requested rank to its (count,) chain row; in joint mode
    they are one map over the one vector.
    """
    if mode == "joint":
        lo = min(*weak, *strong)
        chain = log_uniform_chain(u[:M], lo)
        vec1 = vec2 = {i: chain[i - lo] for i in (*weak, *strong)}
    else:
        chain1 = log_uniform_chain(u[:M], min(weak))
        chain2 = log_uniform_chain(u[M:2 * M], min(strong))
        vec1 = {i: chain1[i - min(weak)] for i in weak}
        vec2 = {i: chain2[i - min(strong)] for i in strong}
    return vec1, vec2


def _hop_gains(cfg: SystemConfig, mode: str, u: np.ndarray):
    """Relay-hop gains (g_dnr, g_rdm) of a uniform block, by the inverse CDF -lam*log1p(-u)."""
    off = cfg.M if mode == "joint" else 2 * cfg.M
    return -cfg.lambda_dnr * np.log1p(-u[off]), -cfg.lambda_rdm * np.log1p(-u[off + 1])


def _direct_stages(cfg: SystemConfig, geo: Geometry, g_m, g_n):
    """Per-trial (fail_sic, out_n, fail_direct) from the SINR expressions.

    The strong user fails if either SIC stage misses its threshold;
    fail_direct is the weak user's direct copy missing its threshold.
    """
    fail_sic = sinr_strong_decodes_weak(cfg, geo, g_n) < cfg.gamma_thm
    out_n = fail_sic | (snr_strong_own(cfg, geo, g_n) < cfg.gamma_thn)
    fail_direct = sinr_direct_weak(cfg, geo, g_m) < cfg.gamma_thm
    return fail_sic, out_n, fail_direct


class _Stage(NamedTuple):
    """A direct-link stage on the chain: values below lo fail, values at or above hi pass.

    [lo, hi) is the guard band, where the SINR decides; a degenerate
    stage's band (-inf, inf) spans the whole chain.
    """

    lo: float
    hi: float


_WHOLE_CHAIN = _Stage(-math.inf, math.inf)


class _Plan(NamedTuple):
    """The three direct-link stages of one (cfg, geo): SIC and strong-own on rank n, direct on m."""

    sic: _Stage
    own: _Stage
    direct: _Stage


def _stage(gain: float, lam: float, cond: float, *factors: float) -> _Stage:
    """Chain band of a stage whose least passing gain is ``gain``.

    ``cond`` is d log SINR / d log g at that gain, ``factors`` the
    stage's other inputs.  The SINR expression, the level and the gain
    transform each err by a few ulps relative, and an error e in the SINR
    moves the crossing by e/cond in gain, so the band spans a relative
    ``_BAND``/cond of the gain on each side.  The stage is degenerate
    (its band spans the chain, so every trial goes through its SINR)
    where the band would be wider than about 1e-3, or where the gain,
    its band or an input leaves ``_ORDINARY``: inside it every product
    of a gain (between 2**-276 lam and 42 lam) and an input is a normal
    float, so every SINR keeps its relative accuracy.
    """
    if not cond > _BAND * 1e3:  # a band wider than 1e-3, or SIC infeasible
        return _WHOLE_CHAIN
    edges = (gain * (1.0 - _BAND / cond), gain * (1.0 + _BAND / cond))
    if not all(_ORDINARY[0] <= v <= _ORDINARY[1] for v in (*edges, lam, *factors)):
        return _WHOLE_CHAIN
    return _Stage(*(chain_at_gain(e, lam) for e in edges))


def _plan(cfg: SystemConfig, geo: Geometry) -> _Plan:
    """The chain bands of cfg's direct-link stages.

    SIC infeasible, an infinite or zero path loss, and inputs near the
    ends of the floats make a stage degenerate.
    """
    lam = cfg.lambda_sd
    cond = 1.0 - cfg.a_n * cfg.gamma_thm / cfg.a_m  # of a_m g / (a_n g + noise) at its level
    pl_n, pl_m = path_loss(geo.d_sdn, cfg.theta), path_loss(geo.d_sdm, cfg.theta)
    stages = (
        _stage(gain_strong_decodes_weak(cfg, geo), lam, cond, cfg.gamma_thm, pl_n / cfg.gamma0),
        _stage(gain_strong_own(cfg, geo), lam, 1.0, cfg.gamma_thn, pl_n, cfg.gamma0 * cfg.a_n),
        _stage(gain_direct_weak(cfg, geo), lam, cond, cfg.gamma_thm, pl_m / cfg.gamma0))
    return _Plan(*stages)


def _in_band(y: np.ndarray, stage: _Stage, below: np.ndarray) -> bool:
    """Whether any chain value lies in the stage's band; ``below`` is y < stage.lo."""
    return np.count_nonzero(y < stage.hi) != np.count_nonzero(below)


def _decide(cfg: SystemConfig, geo: Geometry, plan: _Plan, y_m: np.ndarray, y_n: np.ndarray):
    """Per-trial (fail_sic, out_n, fail_direct) from the chain rows of ranks m and n.

    Each stage is one comparison of a chain row with its level.  Trials
    in any guard band are decided by ``_direct_stages`` on their gains
    instead, so every value equals the SINR path's.
    """
    sic, own, direct = plan
    fail_sic = y_n < sic.lo
    own_fail = y_n < own.lo
    out_n = fail_sic | own_fail
    fail_direct = y_m < direct.lo
    if (_in_band(y_n, sic, fail_sic) or _in_band(y_n, own, own_fail)
            or _in_band(y_m, direct, fail_direct)):
        band = np.flatnonzero(((y_n >= sic.lo) & (y_n < sic.hi))
                              | ((y_n >= own.lo) & (y_n < own.hi))
                              | ((y_m >= direct.lo) & (y_m < direct.hi)))
        exact = _direct_stages(cfg, geo, gains_from_chain(y_m[band], cfg.lambda_sd),
                                gains_from_chain(y_n[band], cfg.lambda_sd))
        for mask, value in zip((fail_sic, out_n, fail_direct), exact):
            mask[band] = value
    return fail_sic, out_n, fail_direct


# One scenario evaluated on a shared draw: (cfg, geo, relay).
_Variant = tuple[SystemConfig, Geometry, bool]

# SystemConfig fields that fix the fading draw; variants must agree on them.
_DRAW_FIELDS = ("M", "lambda_sd", "lambda_dnr", "lambda_rdm")


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _count(variants: Sequence[_Variant], plans: Sequence[_Plan], weak, strong,
           g_dnr: np.ndarray, g_rdm: np.ndarray) -> list[tuple[int, int]]:
    """Outage counts (strong, weak) of every variant on a chunk's chain rows.

    ``weak`` and ``strong`` map ranks to chain rows as ``_chains`` does,
    ``g_dnr`` and ``g_rdm`` are the hop gains, and ``plans[k]`` is ``_plan``
    of variant k.  Variants that share (cfg, geo) share their
    direct-stage decisions.  The relayed SINR runs only on the trials
    whose weak user has kept the SIC stage and lost its direct copy.
    """
    decided = {}  # (cfg, geo) -> (strong-user outages, SIC failures, trials left to the relay)
    counts = []
    for (cfg, geo, relay), plan in zip(variants, plans):
        if (cfg, geo) not in decided:
            fail_sic, out_n, fail_direct = _decide(cfg, geo, plan, weak[cfg.m], strong[cfg.n])
            decided[cfg, geo] = (np.count_nonzero(out_n), np.count_nonzero(fail_sic),
                                 fail_direct & ~fail_sic)
        n_out_n, n_sic, left = decided[cfg, geo]
        if relay:
            left = np.flatnonzero(left)
            n_left = np.count_nonzero(sinr_relayed(cfg, geo, g_dnr[left], g_rdm[left])
                                      < cfg.gamma_thm)
        else:
            n_left = np.count_nonzero(left)
        counts.append((int(n_out_n), int(n_sic + n_left)))
    return counts


def _run_chunk(draw: SystemConfig, variants: Sequence[_Variant], plans: Sequence[_Plan],
               mc: McConfig, start: int, count: int) -> list[tuple[int, int]]:
    """Draw one chunk of trials and count both outages for every variant."""
    weak_ranks = sorted({c.m for c, _, _ in variants})
    strong_ranks = sorted({c.n for c, _, _ in variants})
    u = _draw(mc, draw.M, _columns(draw.M, mc.mode, weak_ranks, strong_ranks), start, count)
    weak, strong = _chains(draw.M, mc.mode, u, weak_ranks, strong_ranks)
    return _count(variants, plans, weak, strong, *_hop_gains(draw, mc.mode, u))


def estimate(cfg: SystemConfig, geo: Geometry, mc: McConfig, *, relay: bool = True,
             also: Sequence[_Variant] | None = None):
    """Estimate both outage probabilities and the throughput they imply.

    Returns (strong-user estimate, weak-user estimate, throughput) for
    (cfg, geo, relay).  ``also`` lists more (cfg, geo, relay) variants to
    evaluate on the same fading draws; when it is given, the result is a
    list of such triples, the first for (cfg, geo, relay) and then one
    per entry of ``also``.  Every variant must share cfg's M and
    lambda_*, which fix the draw.  One thread per CPU this process may
    use shares the chunks, never more than there are chunks.  Results are
    bit-identical for fixed (seed, trials) whatever ``chunk_size``, the
    CPU count and ``also`` are; see the module docstring for why.
    """
    variants = [(cfg, geo, relay), *(also or ())]
    for other, _, _ in variants[1:]:
        for name in _DRAW_FIELDS:
            if getattr(other, name) != getattr(cfg, name):
                raise ValueError(f"variant {name}={getattr(other, name)!r} differs from the "
                                 f"draw's {name}={getattr(cfg, name)!r}")
    chunks = [(start, min(mc.chunk_size, mc.trials - start))
              for start in range(0, mc.trials, mc.chunk_size)]
    workers = min(_usable_cpus(), len(chunks))
    plans = [_plan(c, g) for c, g, _ in variants]
    if workers == 1:
        counts = [_run_chunk(cfg, variants, plans, mc, s, c) for s, c in chunks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            counts = list(pool.map(lambda sc: _run_chunk(cfg, variants, plans, mc, *sc), chunks))
    results = []
    for k, (v_cfg, _, _) in enumerate(variants):
        est_n = McEstimate(sum(c[k][0] for c in counts), mc.trials)
        est_m = McEstimate(sum(c[k][1] for c in counts), mc.trials)
        results.append((est_n, est_m, throughput(v_cfg, est_n.p_hat, est_m.p_hat)))
    return results[0] if also is None else results
