"""Order statistics of i.i.d. exponential channel gains.

When M Rayleigh-faded links are ranked by instantaneous power gain, the
i-th weakest gain follows a classical order-statistic law built from the
exponential parent.  This module provides numerically stable CDF and
survival evaluators for the closed-form outage expressions, and the one
sampler of ranked gains, in two steps: a chain that streams the uniforms
one slot at a time into log U_(i) of the requested ranks, without
sorting, and the transform of a chain value to its gain.  Because the
transform is increasing, a threshold on a gain is a threshold on the
chain (``chain_at_gain``).

The paper states the rank law as a signed expansion over coefficients
phi(k, i, M); the CDF and survival here are the same law summed as
binomial tails, whose terms are all nonnegative, and are checked against
mpmath up to M = 100 (``MAX_RANKED_USERS``), the largest population any
entry point accepts.  That bound and the integer and bool rules every
entry point applies come from ``linklevel``, the one home of the input
rules.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .linklevel import MAX_RANKED_USERS, _reject_bool, _reject_bools, check_int

_LN2 = math.log(2.0)
# Cap on the chain's log U_(i) in gains_from_chain.  Only a draw whose slots
# from i up are all exactly 0 reaches log U = 0, an infinite gain; every
# other draw lies at or below -2**-53/M < -2**-60 (M <= MAX_RANKED_USERS),
# so the cap changes no other value and keeps the order.
_LOG_U_CAP = -2.0 ** -60


@dataclass(frozen=True)
class OrderStatSpec:
    """Rank selection: the i-th smallest of M i.i.d. Exp(mean=lam) gains."""

    M: int
    i: int
    lam: float

    def __post_init__(self) -> None:
        _reject_bools(self)
        check_int("M", self.M, 1, MAX_RANKED_USERS)
        check_int("i", self.i, 1, self.M)
        if not (self.lam > 0):
            raise ValueError(f"mean gain lam must be > 0, got {self.lam}")


def _binomial_sum(spec: OrderStatSpec, x, ranks: range):
    """sum over j in ranks of C(M,j) F(x)^j (1-F(x))^(M-j), vectorized over x."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("gain argument x must be >= 0")
    M, lam = spec.M, spec.lam
    with np.errstate(over="ignore"):  # x/lam past the floats is inf: F = 1, 1 - F = 0
        p = -np.expm1(-x / lam)
        q = np.exp(-x / lam)
    acc = np.zeros_like(p)
    for j in ranks:
        acc = acc + math.comb(M, j) * p ** j * q ** (M - j)
    out = np.clip(acc, 0.0, 1.0)
    return out if out.ndim else float(out)


def ordered_cdf(spec: OrderStatSpec, x):
    """CDF of the rank-``spec.i`` gain, vectorized over ``x``.

    Uses the binomial-tail form sum_{j>=i} C(M,j) F^j (1-F)^(M-j): all
    terms are nonnegative, so no alternating-sum cancellation occurs and
    the result is accurate to ~1e-14 relative, wherever it exceeds about
    1e-290, for every rank up to M = MAX_RANKED_USERS.  Output is
    clipped to [0, 1] to absorb last-ulp rounding.
    """
    return _binomial_sum(spec, x, range(spec.i, spec.M + 1))


def ordered_sf(spec: OrderStatSpec, x):
    """Survival function 1 - CDF of the rank-``spec.i`` gain, vectorized over ``x``.

    Summed directly as the lower tail sum_{j<i} C(M,j) F^j (1-F)^(M-j),
    not as 1 - ``ordered_cdf``, so it keeps its relative accuracy where
    the CDF is close to 1.
    """
    return _binomial_sum(spec, x, range(spec.i))


def log_uniform_chain(slot: Callable[[int], np.ndarray], M: int, ranks: Sequence[int],
                      out: np.ndarray) -> dict[int, np.ndarray]:
    """The chain log U_(i) of the requested ranks, streamed one slot at a time.

    ``slot(j)`` returns slot j of every draw as a writable (count,) row of
    uniforms in [0, 1); it is called once per slot, from j = M down to the
    lowest requested rank, and its row is overwritten.  The rank-i uniform
    of a draw is built top down by the uniform-spacings chain (Devroye
    1986, ch. V): log U_(i) = sum_{j=i..M} t_j with t_j = log1p(-v_j)/j.
    Each slot's term is made in its own row and added at once to the
    running sum S_j = t_j + S_{j+1}, which lives in the ``out`` row of the
    next requested rank at or below j, so no row beyond ``out`` and the
    slot row is needed whatever M is.  ``out`` holds one (count,) row per
    requested rank in ascending rank order; ``slot(j)`` may return the
    ``out`` row of rank j itself, or a row outside ``out``.  Each rank's
    value depends only on its draw's slots from that rank up.  Returns
    {rank: its row of ``out``}.  The values lie at or below -2**-53/M, or
    are exactly 0 where every slot from the rank up is 0.
    """
    ranks = sorted(ranks)
    if not ranks or ranks[0] < 1 or ranks[-1] > M or len(set(ranks)) != len(ranks):
        raise ValueError(f"ranks must be distinct and lie in 1..M={M}, got {ranks}")
    if len(out) != len(ranks):
        raise ValueError(f"out must have one row per rank, got {len(out)} for {len(ranks)}")
    k = len(ranks) - 1  # index of the rank whose ``out`` row holds the running sum
    total = None
    for j in range(M, ranks[0] - 1, -1):
        term = slot(j)
        np.negative(term, out=term)
        np.log1p(term, out=term)
        term /= j
        if j < ranks[k]:
            k -= 1
        if total is None:
            np.copyto(out[k], term)
        else:
            np.add(term, total, out=out[k])
        total = out[k]
    return dict(zip(ranks, out))


def gains_from_chain(x, lam: float) -> np.ndarray:
    """Exp(mean=lam) rank gains -lam*log(1 - exp(x)) at chain values x = log U_(i).

    x is first capped at ``_LOG_U_CAP``, so the all-zero draw (x = 0)
    gets a finite gain.  log(1 - exp(x)) is evaluated as log(-expm1(x))
    above -log 2 and as log1p(-exp(x)) below (Maechler 2012).  Each
    entry depends only on its own x.
    """
    x = np.minimum(x, _LOG_U_CAP)
    return np.where(x > -_LN2, np.log(-np.expm1(x)),
                    np.log1p(-np.exp(np.minimum(x, -_LN2)))) * -lam


def chain_at_gain(g: float, lam: float) -> float:
    """Chain level of gain ``g``: a chain value x maps to a gain below g iff x < level.

    The level is log(1 - exp(-g/lam)), the inverse of ``gains_from_chain``
    (Maechler's two branches again), taken over the capped chain: where
    the level lies above ``_LOG_U_CAP`` every chain value maps below g,
    and the level is inf.  The float result is within a few ulps of the
    exact level.  Needs 0 < g/lam; g = inf, a stage no gain passes (SIC
    infeasible), gives level inf, so every chain value lies below it.
    """
    a = g / lam
    level = math.log(-math.expm1(-a)) if a < _LN2 else math.log1p(-math.exp(-a))
    return level if level <= _LOG_U_CAP else math.inf


def sample_ordered_gains(M: int, lam: float, rng: np.random.Generator, size: int | None = None):
    """Draw ordered exponential gain vectors.

    Returns the full ascending vector of M gains: shape (M,) when
    ``size`` is None, else (size, M).  The vectors map an (M, size)
    slot-major block of ``rng``'s uniforms, row j-1 holding slot j,
    through ``log_uniform_chain`` in place and then ``gains_from_chain``
    (elementwise, so in blocks), the sampler the Monte-Carlo oracle uses.  Consumes
    ``rng`` state; callers that need reproducibility seed the generator
    themselves.
    """
    check_int("M", M, 1, MAX_RANKED_USERS)
    _reject_bool("lam", lam)
    if not (lam > 0):
        raise ValueError(f"mean gain lam must be > 0, got {lam}")
    if size is not None:
        check_int("size", size, 1, sys.maxsize)
    g = rng.random((M, 1 if size is None else int(size)))
    log_uniform_chain(lambda j: g[j - 1], M, range(1, M + 1), g)
    for block in np.split(g.reshape(-1), range(65_536, g.size, 65_536)):  # views of g
        block[:] = gains_from_chain(block, lam)  # its temporaries are a block's size
    return g.T[0] if size is None else g.T
