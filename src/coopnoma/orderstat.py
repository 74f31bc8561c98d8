"""Order statistics of i.i.d. exponential channel gains.

When M Rayleigh-faded links are ranked by instantaneous power gain, the
i-th weakest gain follows a classical order-statistic law built from the
exponential parent.  This module provides the expansion coefficients of
the rank distribution, numerically stable CDF and survival evaluators
for the closed-form outage expressions, and the one sampler of ranked
gains: it maps a block of uniforms to the requested ranks without
sorting.

The signed expansion coefficients are exact in float64 only up to
M = 20 (``MAX_USERS``); the CDF and survival sums have only nonnegative
terms and are checked against mpmath up to M = 100 (``MAX_RANKED_USERS``),
the largest population the other entry points accept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_USERS = 20
MAX_RANKED_USERS = 100

_LN2 = math.log(2.0)
# Cap on the chain's log U_(i) in gains_at_ranks.  Only a draw whose slots
# from i up are all exactly 0 reaches log U = 0, an infinite gain; every
# other draw lies at or below -2**-53/M < -2**-60 (M <= MAX_RANKED_USERS),
# so the cap changes no other value and keeps the order.
_LOG_U_CAP = -2.0 ** -60


def _check_population(M: int, limit: int = MAX_RANKED_USERS) -> None:
    if not isinstance(M, (int, np.integer)):
        raise ValueError(f"M must be an integer, got {M!r}")
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    if M > limit:
        raise ValueError(f"M must be <= {limit}, got {M}")


@dataclass(frozen=True)
class OrderStatSpec:
    """Rank selection: the i-th smallest of M i.i.d. Exp(mean=lam) gains."""

    M: int
    i: int
    lam: float

    def __post_init__(self) -> None:
        _check_population(self.M)
        if not isinstance(self.i, (int, np.integer)):
            raise ValueError(f"rank i must be an integer, got {self.i!r}")
        if not 1 <= self.i <= self.M:
            raise ValueError(f"rank i must satisfy 1 <= i <= M={self.M}, got {self.i}")
        if not (self.lam > 0):
            raise ValueError(f"mean gain lam must be > 0, got {self.lam}")


def phi_coefficient(k: int, i: int, M: int) -> float:
    """Signed binomial expansion coefficient for the rank-i distribution.

    The CDF of the i-th smallest gain expands into a sum of shifted
    exponentials; this returns the weight of the k-th term,
    (-1)^k * C(M, i-1-k) * C(M-i+k, k), which is an exact integer for
    every M <= MAX_USERS.  Valid for 0 <= k <= i-1.
    """
    _check_population(M, MAX_USERS)
    if not 1 <= i <= M:
        raise ValueError(f"rank i must satisfy 1 <= i <= M={M}, got {i}")
    if not 0 <= k <= i - 1:
        raise ValueError(f"k must satisfy 0 <= k <= i-1={i - 1}, got {k}")
    mag = math.comb(M, i - 1 - k) * math.comb(M - i + k, k)
    return float(-mag if k & 1 else mag)


def _binomial_sum(spec: OrderStatSpec, x, ranks: range):
    """sum over j in ranks of C(M,j) F(x)^j (1-F(x))^(M-j), vectorized over x."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("gain argument x must be >= 0")
    M, lam = spec.M, spec.lam
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


def gains_at_ranks(v: np.ndarray, ranks, lam: float) -> np.ndarray:
    """Ordered Exp(mean=lam) gains at the requested ranks, from a slot-major uniform block.

    Row j-1 of the (M, count) block ``v`` holds slot j of every draw, so
    column t holds the M uniforms in [0, 1) of draw t.  The rank-i
    uniform of a draw is built top down by the uniform-spacings chain
    (Devroye 1986, ch. V): log U_(i) = sum_{j=i..M} log1p(-v_j)/j,
    summed from slot M down, and its gain is -lam*log1mexp(log U_(i)).
    Only the rows from the lowest requested rank up are read, and they
    are overwritten in place with the chain; the rows below may be left
    unset.  The transform runs only on the requested ranks.  Each
    rank's value depends only on its draw's slots from that rank up,
    never on which other ranks or draws are requested.

    Returns a (len(ranks), count) array: row k is the rank-``ranks[k]``
    gain of every draw.
    """
    M, count = v.shape
    lo = min(ranks)
    if not 1 <= lo <= max(ranks) <= M:
        raise ValueError(f"ranks must lie in 1..M={M}, got {list(ranks)}")
    # row q of the chain is slot lo+q: log1p(-v_j)/j, then the sums from
    # the top slot down
    chain = v[lo - 1:]
    np.negative(chain, out=chain)
    np.log1p(chain, out=chain)
    chain /= np.arange(lo, M + 1, dtype=float)[:, None]
    for q in range(M - lo - 1, -1, -1):
        chain[q] += chain[q + 1]
    # gain = -lam*log(1 - exp(x)) at x = min(log U_(i), cap), evaluated as
    # log(-expm1(x)) above -log 2 and log1p(-exp(x)) below (Maechler 2012)
    out = np.empty((len(ranks), count))
    for k, i in enumerate(ranks):
        x = np.minimum(chain[i - lo], _LOG_U_CAP)
        out[k] = np.where(x > -_LN2, np.log(-np.expm1(x)),
                          np.log1p(-np.exp(np.minimum(x, -_LN2))))
    out *= -lam
    return out


def sample_ordered_gains(M: int, lam: float, rng: np.random.Generator, size: int | None = None):
    """Draw ordered exponential gain vectors.

    Returns the full ascending vector of M gains: shape (M,) when
    ``size`` is None, else (size, M).  The vectors map an (M, size)
    slot-major block of ``rng``'s uniforms through ``gains_at_ranks``,
    the sampler the Monte-Carlo oracle uses.  Consumes ``rng`` state;
    callers that need reproducibility seed the generator themselves.
    """
    _check_population(M)
    if not (lam > 0):
        raise ValueError(f"mean gain lam must be > 0, got {lam}")
    if size is not None and not (isinstance(size, (int, np.integer)) and size >= 1):
        raise ValueError(f"size must be a positive integer, got {size!r}")
    v = rng.random((M, 1 if size is None else int(size)))
    g = gains_at_ranks(v, range(1, M + 1), lam).T
    return g[0] if size is None else g
