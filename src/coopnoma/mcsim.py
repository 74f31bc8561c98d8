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
numbered globally and the stream is slot-major: the uniform in column k
of trial t (see ``draws_per_trial``) is step k*2**64 + t of one
PCG64DXSM stream seeded with the seed, so every column owns a segment
of 2**64 steps and trials are consecutive within it.  A chunk draws only
the columns its variants read, one contiguous row per column: each
vector's slots from its lowest read rank up, and the two hops.  Its
gains are ranks of M exponentials built from those rows by
``orderstat.gains_at_ranks``, where each rank depends only on the
trial's own uniforms in the slots from that rank up, never on which
other ranks the variants read.  So any partition of the trial range
into chunks, and any set of variants, replays bit-identical gains, and
chunk results are integer counts reduced in chunk order, which is exact
arithmetic.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .analytic import throughput
from .linklevel import (Geometry, SystemConfig, sinr_direct_weak, sinr_relayed,
                        sinr_strong_decodes_weak, snr_strong_own)
from .orderstat import gains_at_ranks

MODES = ("joint", "independent")

# Stream steps per column: column k of trial t is step k * _SEGMENT + t.
_SEGMENT = 2 ** 64


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


def _gains_from_uniforms(cfg: SystemConfig, mode: str, u: np.ndarray, weak, strong):
    """Map a slot-major (draws_per_trial, count) uniform block to the requested gains.

    ``weak`` and ``strong`` are the ranks read by the weak and the
    strong user; only the rows ``_columns`` names are read, and the
    direct-gain rows among them are overwritten.  Returns (weak-read
    gains, strong-read gains, g_dnr, g_rdm); the first two map each
    requested rank to its (count,) gain array, and in joint mode they
    are one map over the one vector.  Relay hops use the inverse CDF
    -lam*log1p(-u).
    """
    M, lam = cfg.M, cfg.lambda_sd
    if mode == "joint":
        ranks = sorted({*weak, *strong})
        vec1 = vec2 = dict(zip(ranks, gains_at_ranks(u[:M], ranks, lam)))
        off = M
    else:
        vec1 = dict(zip(weak, gains_at_ranks(u[:M], weak, lam)))
        vec2 = dict(zip(strong, gains_at_ranks(u[M:2 * M], strong, lam)))
        off = 2 * M
    g_dnr = -cfg.lambda_dnr * np.log1p(-u[off])
    g_rdm = -cfg.lambda_rdm * np.log1p(-u[off + 1])
    return vec1, vec2, g_dnr, g_rdm


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
    weak_ranks = sorted({c.m for c, _, _ in variants})
    strong_ranks = sorted({c.n for c, _, _ in variants})
    u = _draw(mc, draw.M, _columns(draw.M, mc.mode, weak_ranks, strong_ranks), start, count)
    weak, strong, g_dnr, g_rdm = _gains_from_uniforms(draw, mc.mode, u, weak_ranks,
                                                      strong_ranks)
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
        est_n = McEstimate(sum(c[k][0] for c in counts), mc.trials)
        est_m = McEstimate(sum(c[k][1] for c in counts), mc.trials)
        results.append((est_n, est_m, throughput(v_cfg, est_n.p_hat, est_m.p_hat)))
    return results[0] if also is None else results
