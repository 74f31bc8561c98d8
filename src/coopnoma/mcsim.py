"""Monte-Carlo link simulator: an independent oracle for the closed forms.

Each trial replays the three-phase protocol — draw fading gains, decide
every decoding stage, record the two outage events — and the estimator
averages over trials.

Threshold decisions: one rule decides all four stages (the strong
user's SIC and own stages on rank n, the weak user's direct copy on
rank m, and the relay).  A chunk holds a per-trial row that the stage's
SINR increases with, and each scenario a guard band [lo, hi) on it
(``_Stage``): values below lo fail, values at or above hi pass, each by
one comparison, and only the trials in the band, or nan, go through the
stage's own SINR expression.  Every decision thus equals the SINR
path's bit for bit, and a chunk with no trial in a band calls no SINR.

For a direct-link stage the row is the chain value log U_(i) that
``orderstat`` builds, which the rank's gain increases with.  The stage
fails exactly where the gain lies below the least gain that passes it,
which ``linklevel`` gives by inverting its own SINR expressions, so
``estimate`` maps each scenario's least gains to chain levels once.  The
band spans a relative 1e-9 of the level, wider where the SINR is
ill-conditioned.  A degenerate stage (SIC infeasible, or so nearly that
the band would be wider than 1e-3) has a band spanning the whole chain,
so all its trials are decided by the SINR.  Inside the input box of
``linklevel`` every gain level, band edge and SINR is a normal float, so
nothing else makes a stage degenerate.

For the relay the row is -gamma*.  With x = pl_dnr/g_dnr and
y = pl_rdm/g_rdm, the AF SINR is gamma0**2 / (gamma0 s + x y) with
s = x + y, which increases with gamma0, so a trial's relay fails exactly
where gamma0 lies below its critical SNR
gamma* = (th/2) s (1 + sqrt(1 + 4r/th)), r = x (y/s) / s in [0, 1/4],
that is where -gamma* lies below -gamma0.  Every term is positive, so
nothing cancels, and inside the input box nothing leaves the normal
floats, so gamma* is good to a few ulps; a zero hop gain makes it nan.
A chunk computes one -gamma* row per relay group (the two hop path
losses and gamma_thm).  d log SINR / d log gamma0 lies in [1, 2], so a
band from -gamma0 (1 + 1e-9) to -gamma0 (1 - 1e-9) is safe.  Only the
trials left to the relay (SIC kept, direct copy lost) are decided on
that row, and only those of them in the band or nan take the relayed
SINR.

Draw once, evaluate many: the fading gains of a trial depend only on
(seed, trial index, M, lambda_*, mode), not on the SNR, the pair ranks,
the distances or whether the relay takes part.  ``estimate`` therefore
draws each chunk of trials once and counts each scenario (cfg, geo) on
it as one row of stage counts, from which both its relay and its
no-relay outcomes follow, so a whole sweep costs one draw.

Determinism contract: (seed, trials) fix every estimate; the chunk size
(the constant ``McConfig.chunk_size``), the worker count and which
scenarios share the draw do not.  Trials are numbered globally and the
stream is slot-major: the uniform in column k
of trial t (see ``draws_per_trial``) is step k*2**64 + t of one
PCG64DXSM stream seeded with the seed, so every column owns a segment
of 2**64 steps and trials are consecutive within it.  A chunk streams
only the columns its scenarios read, one contiguous row per column,
with one ``advance`` of the stream between rows: each vector's slots
from M down to its lowest read rank, each turned at once into a chain
term by ``orderstat.log_uniform_chain``, and then the two hops.  Each
rank depends only on the trial's own uniforms in the slots from that
rank up, never on which other ranks the scenarios read.  So any
partition of the trial range into chunks, and any set of scenarios,
replays bit-identical chains.  One ``threading.Thread`` per usable CPU,
never more than there are chunks, takes chunk starts in turn from one
shared iterator and sums its chunks' integer counts; integer sums are
exact in any order, so neither the worker count nor which worker ran a
chunk moves a bit.  A worker's exception is raised in the caller once
every worker has been joined.  Plain threads, not a
``concurrent.futures`` pool, keep that package, ``logging`` and ``queue``
out of every process that imports the simulator.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from dataclasses import dataclass
from threading import Thread
from typing import ClassVar, NamedTuple

import numpy as np

from .analytic import throughput
from .linklevel import (Geometry, SystemConfig, path_loss, sinr_direct_weak, sinr_relayed,
                        sinr_strong_decodes_weak, snr_strong_own, stage_gains)
from .orderstat import _reject_bools, chain_at_gain, gains_from_chain, log_uniform_chain

MODES = ("joint", "independent")

# Stream steps per column: column k of trial t is step k * _SEGMENT + t.
_SEGMENT = 2 ** 64

# Half-width of a stage's guard band, relative in gain, before the
# widening for the SINR's conditioning (see _stage).
_BAND = 1e-9


@dataclass(frozen=True)
class McConfig:
    """Simulation parameters.

    mode selects how the two scheduled users' direct gains are drawn:
    "joint" reads both ranks from one ordered vector (the physical
    channel), "independent" draws a second vector for the strong user so
    the two ranks are statistically independent — the assumption baked
    into the weak-user closed form.  ``chunk_size``, the most trials one
    chunk holds, is a constant, not a field: no estimate depends on it.
    """

    trials: int
    seed: int
    mode: str = "independent"
    chunk_size: ClassVar[int] = 65536

    def __post_init__(self) -> None:
        _reject_bools(self)
        if not (isinstance(self.trials, (int, np.integer)) and self.trials >= 1):
            raise ValueError(f"trials must be a positive integer, got {self.trials!r}")
        if self.trials >= _SEGMENT:
            raise ValueError(f"trials must be < 2**64, the stream steps of one column, "
                             f"got {self.trials!r}")
        if not (isinstance(self.seed, (int, np.integer)) and 0 <= self.seed < 2 ** 64):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")


@dataclass(frozen=True)
class McEstimate:
    """A binomial proportion: ``events`` outages counted in ``trials`` trials."""

    events: int
    trials: int

    def __post_init__(self) -> None:
        _reject_bools(self)
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


@dataclass(frozen=True)
class McPoint:
    """Monte-Carlo results of one scenario, named as ``analytic.OutagePoint``'s.

    ``p_out_m_norelay`` and ``throughput_norelay`` are the
    non-cooperative baseline's, read from the same count row as the
    relayed fields; the strong user's outage is the same in both.
    """

    p_out_n: McEstimate
    p_out_m: McEstimate
    throughput: float
    p_out_m_norelay: McEstimate
    throughput_norelay: float


def draws_per_trial(M: int, mode: str) -> int:
    """Uniform columns of one trial (see the module notes).

    Joint mode needs M direct-gain slots plus the two relay hops;
    independent mode needs a second M-slot vector.  Column k of a trial
    is: slot k+1 for k < M, in independent mode slot k-M+1 of the
    strong-read vector for M <= k < 2M, then the hops S->D_n->R and
    R->D_m.  A chunk draws only the columns its scenarios read.
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


class _Stage(NamedTuple):
    """A stage's guard band [lo, hi) on its per-trial row (see the module notes).

    Values below lo fail, values at or above hi pass, and the stage's
    SINR decides the rest, in the band or nan.  A degenerate stage's band
    (-inf, inf) spans the whole row.
    """

    lo: float
    hi: float


_WHOLE_CHAIN = _Stage(-math.inf, math.inf)


class _Plan(NamedTuple):
    """The stages of one (cfg, geo): SIC and strong-own on rank n, direct on m, and the relay.

    The three direct-link bands lie on chain rows.  ``hops`` names the
    relay group, (d_dnr**theta, d_rdm**theta, gamma_thm), and ``relay``
    is the band around -cfg.gamma0 on that group's -gamma* row.
    """

    sic: _Stage
    own: _Stage
    direct: _Stage
    hops: tuple[float, float, float]
    relay: _Stage


def _stage(gain: float, lam: float, cond: float) -> _Stage:
    """Chain band of a stage whose least passing gain is ``gain``.

    ``cond`` is d log SINR / d log g at that gain.  The SINR expression,
    the level and the gain transform each err by a few ulps relative,
    and an error e in the SINR moves the crossing by e/cond in gain, so
    the band spans a relative ``_BAND``/cond of the gain on each side.
    The stage is degenerate (its band spans the chain, so every trial
    goes through its SINR) where the band would be wider than about 1e-3.
    """
    if not cond > _BAND * 1e3:  # a band wider than 1e-3, or SIC infeasible
        return _WHOLE_CHAIN
    edges = (gain * (1.0 - _BAND / cond), gain * (1.0 + _BAND / cond))
    return _Stage(*(chain_at_gain(e, lam) for e in edges))


def _plan(cfg: SystemConfig, geo: Geometry) -> _Plan:
    """The chain bands of cfg's direct-link stages and the -gamma* band of its relay."""
    lam = cfg.lambda_sd
    cond = 1.0 - cfg.a_n * cfg.gamma_thm / cfg.a_m  # of a_m g / (a_n g + noise) at its level
    sic, own, direct = stage_gains(cfg, geo, cfg.gamma0)
    stages = (_stage(sic, lam, cond), _stage(own, lam, 1.0), _stage(direct, lam, cond))
    hops = (path_loss(geo.d_dnr, cfg.theta), path_loss(geo.d_rdm, cfg.theta), cfg.gamma_thm)
    return _Plan(*stages, hops, _Stage(-cfg.gamma0 * (1.0 + _BAND), -cfg.gamma0 * (1.0 - _BAND)))


def _fails(y: np.ndarray, stage: _Stage, exact, within: np.ndarray | None = None) -> np.ndarray:
    """Per-trial failures of one stage, decided on its row ``y`` (see the module notes).

    Values below stage.lo fail and values at or above stage.hi pass; the
    rest, in the band or nan, are decided by ``exact(band)``, the stage's
    SINR test on the trials at indices ``band``.  With a mask ``within``
    only its trials are decided, and the others read as passing.
    """
    fail = y < stage.lo
    passes = y >= stage.hi
    if np.count_nonzero(fail) + np.count_nonzero(passes) != y.size:  # some in the band, or nan
        undecided = ~(fail | passes)
        if within is not None:
            undecided &= within
        band = np.flatnonzero(undecided)
        fail[band] = exact(band)
    if within is not None:
        fail &= within
    return fail


_Point = tuple[SystemConfig, Geometry]  # one scenario, (cfg, geo)

# SystemConfig fields that fix the fading draw; scenarios must agree on them.
_DRAW_FIELDS = ("M", "lambda_sd", "lambda_dnr", "lambda_rdm")


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _critical_snr(hops: tuple[float, float, float], g_dnr: np.ndarray,
                  g_rdm: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The relay group's per-trial row -gamma*, in ``rows[0]``.

    gamma* = (th/2) s (1 + sqrt(1 + 4r/th)) is the critical SNR, with
    x = pl_dnr/g_dnr, y = pl_rdm/g_rdm, s = x + y and r = x (y/s) / s
    (see the module notes); the last factor, -th/2, negates it exactly.
    All three ``rows`` are overwritten; ``rows[1:]`` are scratch.  The
    row is nan where a hop gain is 0.
    """
    star, x, s = rows
    pl_dnr, pl_rdm, th = hops
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero hop gain gives nan
        np.divide(pl_dnr, g_dnr, out=x)
        np.divide(pl_rdm, g_rdm, out=star)
        np.add(x, star, out=s)
        star /= s
        star *= x
        star /= s
    star *= 4.0 / th
    star += 1.0
    np.sqrt(star, out=star)
    star += 1.0
    star *= s
    star *= -0.5 * th
    return star


def _count(points: Sequence[_Point], plans: Sequence[_Plan], weak, strong,
           g_dnr: np.ndarray, g_rdm: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Stage counts of every point on a chunk's chain rows, one int64 row per point.

    A row is (out_n, sic, left, lost): strong-user outages, SIC failures,
    trials left to the relay (SIC kept, direct copy lost) and those the
    relay also loses.  ``weak`` and ``strong`` map the ranks each user
    reads to chain rows, ``scratch`` is three rows for ``_critical_snr``
    and ``plans[k]`` is ``_plan`` of point k.  Every direct decision is
    made before the first -gamma* row is written, and no chain row is read
    after that, so ``scratch`` may be chain rows (``_run_chunk`` passes the
    slot row and the first two chain rows).  A relay group's -gamma* row
    stays in cache across its points, and only trials left to the relay
    are decided on it.  Each stage is decided by ``_fails``.
    """
    counts = np.empty((len(points), 4), dtype=np.int64)
    lefts = []
    for row, (cfg, geo), plan in zip(counts, points, plans):
        y_m, y_n, lam = weak[cfg.m], strong[cfg.n], cfg.lambda_sd
        fail_sic = _fails(y_n, plan.sic, lambda band: sinr_strong_decodes_weak(
            cfg, geo, gains_from_chain(y_n[band], lam)) < cfg.gamma_thm)
        out_n = fail_sic | _fails(y_n, plan.own, lambda band: snr_strong_own(
            cfg, geo, gains_from_chain(y_n[band], lam)) < cfg.gamma_thn)
        fail_direct = _fails(y_m, plan.direct, lambda band: sinr_direct_weak(
            cfg, geo, gains_from_chain(y_m[band], lam)) < cfg.gamma_thm)
        lefts.append(fail_direct & ~fail_sic)
        row[:3] = [np.count_nonzero(a) for a in (out_n, fail_sic, lefts[-1])]
    star, star_hops = None, None  # the -gamma* row and the relay group it belongs to
    for row, (cfg, geo), plan, left in zip(counts, points, plans, lefts):
        if plan.hops != star_hops:
            star, star_hops = _critical_snr(plan.hops, g_dnr, g_rdm, scratch), plan.hops
        row[3] = np.count_nonzero(_fails(star, plan.relay, lambda band: sinr_relayed(
            cfg, geo, g_dnr[band], g_rdm[band]) < cfg.gamma_thm, left))
    return counts


def _run_chunk(draw: SystemConfig, points: Sequence[_Point], plans: Sequence[_Plan],
               mc: McConfig, start: int, count: int) -> np.ndarray:
    """Stream one chunk of trials column by column and count every point's stages.

    One (rows, count) block holds the slot row, the chain row of every
    requested rank and the two hop rows, so a chunk's memory does not
    grow with M: 5 rows for one pair.  Each vector's slots are drawn from
    M down and chained at once by ``log_uniform_chain``; the hops come
    last and become gains in place.  ``_count`` then builds its gamma*
    rows in the slot row and the first two chain rows, which it reads no
    more once every direct decision is made.  There are always at least
    two chain rows: m < n in joint mode, one rank per vector in
    independent mode.
    """
    M = draw.M
    weak_ranks = {c.m for c, _ in points}
    strong_ranks = {c.n for c, _ in points}
    vectors = ([(0, weak_ranks | strong_ranks)] if mc.mode == "joint"
               else [(0, weak_ranks), (M, strong_ranks)])  # (column of slot 1, ranks read)
    block = np.empty((1 + sum(len(r) for _, r in vectors) + 2, count))
    slot_row, hops = block[0], block[-2:]
    rng = trial_stream(mc, M, start, M - 1)
    here = (M - 1) * _SEGMENT  # stream step of the next draw, less start

    def column(k: int, row: np.ndarray) -> np.ndarray:
        nonlocal here
        rng.bit_generator.advance(k * _SEGMENT - here)
        here = k * _SEGMENT + count
        return rng.random(out=row)

    chains, top = [], 1
    for first, ranks in vectors:
        chains.append(log_uniform_chain(lambda j, first=first: column(first + j - 1, slot_row),
                                        M, ranks, block[top:top + len(ranks)]))
        top += len(ranks)
    weak, strong = chains[0], chains[-1]  # one map over the one vector in joint mode
    for k, (hop, lam) in enumerate(zip(hops, (draw.lambda_dnr, draw.lambda_rdm))):
        column(draws_per_trial(M, mc.mode) - 2 + k, hop)
        np.negative(hop, out=hop)  # the inverse CDF -lam*log1p(-u), in place
        np.log1p(hop, out=hop)
        hop *= -lam
    return _count(points, plans, weak, strong, *hops, block[:3])


def estimate(cfg: SystemConfig, geo: Geometry, mc: McConfig, *,
             also: Sequence[_Point] = ()) -> list[McPoint]:
    """Both outage probabilities and the throughput, with the relay and without, per scenario.

    Returns one ``McPoint`` per scenario: (cfg, geo) first, then each
    (cfg, geo) of ``also`` in order.  Every scenario must share cfg's M
    and lambda_*, and all are evaluated on the same fading draws; one
    given twice is counted twice, with identical results.  Each scenario
    is counted as one row (out_n, sic, left, lost): its weak-user events
    are its SIC failures plus the trials the relay loses, or without the
    relay all trials left to it.  Worker threads sum their own chunks;
    see the module notes for why results are bit-identical for fixed
    (seed, trials).
    """
    points = [(cfg, geo), *also]
    for other, _ in points[1:]:
        for name in _DRAW_FIELDS:
            if getattr(other, name) != getattr(cfg, name):
                raise ValueError(f"scenario {name}={getattr(other, name)!r} differs from the "
                                 f"draw's {name}={getattr(cfg, name)!r}")
    plans = [_plan(c, g) for c, g in points]
    # The workers share one iterator of chunk starts: a range iterator's
    # __next__ is atomic under the GIL, so each start goes to one worker.
    starts = iter(range(0, mc.trials, mc.chunk_size))
    workers = min(_usable_cpus(), -(-mc.trials // mc.chunk_size))
    totals = [np.zeros((len(points), 4), dtype=np.int64) for _ in range(workers)]
    errors = []

    def work(total: np.ndarray) -> None:
        try:
            for s in starts:
                total += _run_chunk(cfg, points, plans, mc, s, min(mc.chunk_size, mc.trials - s))
        except BaseException as exc:  # raised in the caller once every worker is joined
            errors.append(exc)

    threads = [Thread(target=work, args=(total,)) for total in totals]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    results = []
    for (c, _), (out_n, sic, left, lost) in zip(points, sum(totals).tolist()):
        est_n, est_m, est_m0 = (McEstimate(e, mc.trials) for e in (out_n, sic + lost, sic + left))
        results.append(McPoint(est_n, est_m, throughput(c, est_n.p_hat, est_m.p_hat),
                               est_m0, throughput(c, est_n.p_hat, est_m0.p_hat)))
    return results
