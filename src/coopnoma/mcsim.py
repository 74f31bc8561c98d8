"""Monte-Carlo link simulator: an independent oracle for the closed forms.

Each trial replays the three-phase protocol — draw fading gains, decide
every decoding stage, record the two outage events — and the estimator
averages over trials.

Threshold decisions: one rule decides all four stages (the strong
user's SIC and own stages on rank n, the weak user's direct copy on
rank m, and the relay).  A chunk holds a per-trial row that the stage's
SINR increases with, and each scenario one level on it (``_Plan``): a
trial fails the stage where its row lies below the level.  That one
comparison is the only decision path.

For a direct-link stage the row is the chain value log U_(i) that
``orderstat`` builds, which the rank's gain increases with, and the
level is ``orderstat.chain_at_gain`` of the least gain that passes the
stage, which ``linklevel.stage_gains`` inverts from its own SINR
expressions.  Where SIC is infeasible that gain and its level are inf,
so every trial fails both weak-signal stages.

For the relay the row is -gamma*.  With x = pl_dnr/g_dnr and
y = pl_rdm/g_rdm, the AF SINR is gamma0**2 / (gamma0 s + x y) with
s = x + y, which increases with gamma0, so a trial's relay fails exactly
where gamma0 lies below its critical SNR
gamma* = (th/2) s (1 + sqrt(1 + 4r/th)), r = h/s in [0, 1/4] with
h = x y / s = pl_rdm / (g_dnr (pl_rdm/pl_dnr) + g_rdm), and the level is
-gamma0.  Every term is positive, so nothing cancels, and inside the
input box nothing leaves the normal floats, so gamma* is good to a few
ulps.  One zero hop gain makes -gamma* -inf and two make it nan; both
fail, as the SINR, then 0, does.  A chunk builds the -gamma* row of a
relay group (the two hop path losses and gamma_thm) once, in a row that
no chain row shares, and each scenario's stages are decided in one pass
on two bool rows, so a chunk's memory does not grow with the scenario
count.  A stage failure is thus a row below a level computed in floats,
not the SINR expression in floats below the threshold; neither is exact,
and they differ only for trials within a few ulps of a level, times the
SINR's conditioning there.

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
chunk moves a bit.  ``estimate`` fixes the chunk layout, the ranks each
vector reads, once per call (``_layout``), and each worker allocates one
buffer set when it starts (``_buffers``: 2 + the ranks read + 2 rows of
min(chunk_size, trials) doubles and two bool rows); every chunk works on
views of it, so no chunk allocates a row.  A worker's exception is raised in
the caller once every worker has been joined.  Plain threads, not a
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

from .linklevel import Geometry, SystemConfig, _reject_bools, check_int, path_loss, stage_gains
# No stage is decided by these; perfbench/spans.py wraps them in this namespace.
from .linklevel import (sinr_direct_weak, sinr_relayed,  # noqa: F401
                        sinr_strong_decodes_weak, snr_strong_own)
from .orderstat import chain_at_gain, log_uniform_chain

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
    into the weak-user closed form.  ``chunk_size``, the most trials one
    chunk holds, is a constant, not a field: no estimate depends on it.
    It bounds a worker's buffers, allocated once per worker: 6 rows of
    32,768 doubles and two bool rows, 1.6 MB, for one pair.
    """

    trials: int
    seed: int
    mode: str = "independent"
    chunk_size: ClassVar[int] = 32768

    def __post_init__(self) -> None:
        _reject_bools(self)
        check_int("trials", self.trials, 1, _SEGMENT - 1)  # the stream steps of one column
        check_int("seed", self.seed, 0, 2 ** 64 - 1)
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")


@dataclass(frozen=True)
class McEstimate:
    """A binomial proportion: ``events`` outages counted in ``trials`` trials."""

    events: int
    trials: int

    def __post_init__(self) -> None:
        _reject_bools(self)
        check_int("trials", self.trials, 1, math.inf)
        check_int("events", self.events, 0, self.trials)

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


def throughput(cfg: SystemConfig, p_out_n, p_out_m):
    """Delay-limited sum throughput, elementwise: each user delivers its rate unless in outage."""
    for name, p in (("p_out_n", p_out_n), ("p_out_m", p_out_m)):
        a = np.asarray(p)
        if not np.all((a >= 0.0) & (a <= 1.0)):
            raise ValueError(f"{name} must lie in [0, 1], got {p}")
    return (1.0 - p_out_n) * cfg.R_n + (1.0 - p_out_m) * cfg.R_m


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
    check_int("trial", trial, 0, _SEGMENT - 1)
    check_int("column", column, 0, draws_per_trial(M, mc.mode) - 1)
    bg = np.random.PCG64DXSM(mc.seed)
    bg.advance(int(column) * _SEGMENT + int(trial))  # a numpy int would overflow here
    return np.random.Generator(bg)


class _Plan(NamedTuple):
    """The levels of one (cfg, geo): SIC and strong-own on rank n, direct on m, and the relay.

    The three direct-link levels lie on chain rows.  ``hops`` names the
    relay group, (d_dnr**theta, d_rdm**theta, gamma_thm), and ``relay``
    is -cfg.gamma0, the level on that group's -gamma* row.
    """

    sic: float
    own: float
    direct: float
    hops: tuple[float, float, float]
    relay: float


def _plan(cfg: SystemConfig, geo: Geometry) -> _Plan:
    """The chain levels of cfg's direct-link stages and the -gamma* level of its relay."""
    levels = (chain_at_gain(g, cfg.lambda_sd) for g in stage_gains(cfg, geo, cfg.gamma0))
    hops = (path_loss(geo.d_dnr, cfg.theta), path_loss(geo.d_rdm, cfg.theta), cfg.gamma_thm)
    return _Plan(*levels, hops, -cfg.gamma0)


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
    x = pl_dnr/g_dnr, y = pl_rdm/g_rdm, s = x + y and r = h/s, where
    h = x y / s = pl_rdm / (g_dnr (pl_rdm/pl_dnr) + g_rdm) (see the
    module notes); the last factor, -th/2, negates it exactly.  Both
    ``rows`` are overwritten; ``rows[1]`` holds s.  The row is -inf where
    one hop gain is 0 and nan where both are.
    """
    star, s = rows
    pl_dnr, pl_rdm, th = hops
    with np.errstate(divide="ignore", invalid="ignore"):  # zero hop gains give inf and nan
        np.divide(pl_dnr, g_dnr, out=s)
        np.divide(pl_rdm, g_rdm, out=star)
        s += star
        np.multiply(g_dnr, pl_rdm / pl_dnr, out=star)
        star += g_rdm
        np.divide(pl_rdm, star, out=star)
        star /= s
    star *= 4.0 / th
    star += 1.0
    np.sqrt(star, out=star)
    star += 1.0
    star *= s
    star *= -0.5 * th
    return star


_Vectors = tuple[tuple[int, tuple[int, ...]], ...]  # (column of slot 1, ranks read) each


def _layout(M: int, points: Sequence[_Point], mode: str) -> _Vectors:
    """The ordered vectors a chunk of ``points`` streams: one in joint mode, two in independent."""
    weak = {c.m for c, _ in points}
    strong = {c.n for c, _ in points}
    if mode == "joint":
        return ((0, tuple(sorted(weak | strong))),)
    return (0, tuple(sorted(weak))), (M, tuple(sorted(strong)))


class _Buffers(NamedTuple):
    """One worker's chunk memory, which every chunk it runs works on views of.

    ``block`` holds 2 + the ranks read + 2 rows of doubles: the -gamma*
    row, the slot row, one chain row per rank read, vector by vector, and
    the two hops.  ``masks`` is two bool rows.
    """

    vectors: _Vectors
    block: np.ndarray
    masks: np.ndarray


def _buffers(vectors: _Vectors, size: int) -> _Buffers:
    """One worker's buffers for chunks of at most ``size`` trials, its only chunk rows."""
    rows = 2 + sum(len(ranks) for _, ranks in vectors) + 2
    return _Buffers(vectors, np.empty((rows, size)), np.empty((2, size), dtype=bool))


def _count(points: Sequence[_Point], plans: Sequence[_Plan], weak, strong,
           g_dnr: np.ndarray, g_rdm: np.ndarray, rows: np.ndarray,
           masks: np.ndarray) -> np.ndarray:
    """Stage counts of every point on a chunk's chain rows, one int64 row per point.

    A row is (out_n, sic, left, lost): strong-user outages, SIC failures,
    trials left to the relay (SIC kept, direct copy lost) and those the
    relay also loses.  ``weak`` and ``strong`` map the ranks each user
    reads to chain rows, ``rows`` is the two rows of ``_critical_snr``,
    which no chain row shares, ``masks`` is two bool rows, every point's
    only ones, and ``plans[k]`` is ``_plan`` of point k.  Each stage is
    one comparison with its level (see the module notes).  A point's
    trials left to the relay are decided on the -gamma* row, which stays
    in cache across its relay group's points.
    """
    counts = []
    star, star_hops = None, None  # the -gamma* row and the relay group it belongs to
    mask, left = masks
    for (cfg, _), plan in zip(points, plans):
        y_n = strong[cfg.n]
        out_n = np.count_nonzero(np.less(y_n, max(plan.sic, plan.own), out=mask))
        kept = np.count_nonzero(np.greater_equal(y_n, plan.sic, out=mask))  # SIC kept
        np.less(weak[cfg.m], plan.direct, out=left)
        left &= mask
        n_left = np.count_nonzero(left)
        if plan.hops != star_hops:
            star, star_hops = _critical_snr(plan.hops, g_dnr, g_rdm, rows), plan.hops
        left &= np.greater_equal(star, plan.relay, out=mask)  # rescued; nan, both hops 0, is not
        counts.append((out_n, y_n.size - kept, n_left, n_left - np.count_nonzero(left)))
    return np.array(counts, dtype=np.int64)


def _run_chunk(draw: SystemConfig, points: Sequence[_Point], plans: Sequence[_Plan],
               mc: McConfig, start: int, count: int, buffers: _Buffers) -> np.ndarray:
    """Stream one chunk of trials column by column and count every point's stages.

    The chunk works on the first ``count`` columns of its worker's
    ``buffers``, so it allocates no row: the block holds the -gamma*
    row, the slot row, the chain row of every requested rank and the two
    hop rows, 6 rows for one pair whatever M and the number of points.
    Each vector's slots are drawn from M down and chained at once by
    ``log_uniform_chain``, slot M straight into the running-sum row; the
    hops come last and become gains in place.  ``_count`` then builds
    each -gamma* row in the first row, with the slot row, free once the
    chains are built, as its scratch.
    """
    M = draw.M
    block = buffers.block[:, :count]
    slot_row, hops = block[1], block[-2:]
    rng = trial_stream(mc, M, start, M - 1)
    here = (M - 1) * _SEGMENT  # stream step of the next draw, less start

    def column(k: int, row: np.ndarray) -> np.ndarray:
        nonlocal here
        rng.bit_generator.advance(k * _SEGMENT - here)
        here = k * _SEGMENT + count
        return rng.random(out=row)

    chains, top = [], 2
    for first, ranks in buffers.vectors:
        out = block[top:top + len(ranks)]
        top += len(ranks)
        # the running sum starts in the highest rank's row, the last of out
        chains.append(log_uniform_chain(
            lambda j, first=first, out=out: column(first + j - 1, out[-1] if j == M else slot_row),
            M, ranks, out))
    weak, strong = chains[0], chains[-1]  # one map over the one vector in joint mode
    for k, (hop, lam) in enumerate(zip(hops, (draw.lambda_dnr, draw.lambda_rdm))):
        column(draws_per_trial(M, mc.mode) - 2 + k, hop)
        np.negative(hop, out=hop)  # the inverse CDF -lam*log1p(-u), in place
        np.log1p(hop, out=hop)
        hop *= -lam
    return _count(points, plans, weak, strong, *hops, block[:2], buffers.masks[:, :count])


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
    size = min(mc.chunk_size, mc.trials)
    workers = min(_usable_cpus(), -(-mc.trials // mc.chunk_size))
    vectors = _layout(cfg.M, points, mc.mode)
    totals = [np.zeros((len(points), 4), dtype=np.int64) for _ in range(workers)]
    errors = []

    def work(total: np.ndarray) -> None:
        try:
            buffers = _buffers(vectors, size)
            for s in starts:
                total += _run_chunk(cfg, points, plans, mc, s, min(size, mc.trials - s), buffers)
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
