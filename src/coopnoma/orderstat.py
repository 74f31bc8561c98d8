"""Order statistics of i.i.d. exponential channel gains.

When M Rayleigh-faded links are ranked by instantaneous power gain, the
i-th weakest gain follows a classical order-statistic law built from the
exponential parent.  This module provides the expansion coefficients used
by the closed-form outage expressions, numerically stable PDF/CDF
evaluators, and a sampler that draws whole ordered gain vectors.

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


def ordered_pdf(spec: OrderStatSpec, x):
    """Density of the rank-``spec.i`` gain, vectorized over ``x``.

    Evaluated in the standard Beta-kernel form
    c * F(x)^(i-1) * (1-F(x))^(M-i) * f(x) with F computed via expm1,
    which stays accurate for both tiny and huge arguments.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("gain argument x must be >= 0")
    M, i, lam = spec.M, spec.i, spec.lam
    p = -np.expm1(-x / lam)          # F(x)
    q = np.exp(-x / lam)             # 1 - F(x)
    c = i * math.comb(M, i)          # M! / ((i-1)! (M-i)!)
    out = c * p ** (i - 1) * q ** (M - i) * (q / lam)
    return out if out.ndim else float(out)


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


def sample_ordered_gains(M: int, lam: float, rng: np.random.Generator, size: int | None = None):
    """Draw ordered exponential gain vectors.

    Returns the full ascending vector of M gains: shape (M,) when
    ``size`` is None, else (size, M).  Consumes ``rng`` state; callers
    that need reproducibility seed the generator themselves.
    """
    _check_population(M)
    if not (lam > 0):
        raise ValueError(f"mean gain lam must be > 0, got {lam}")
    if size is None:
        return np.sort(rng.exponential(lam, M))
    if not (isinstance(size, (int, np.integer)) and size >= 1):
        raise ValueError(f"size must be a positive integer, got {size!r}")
    return np.sort(rng.exponential(lam, (int(size), M)), axis=1)
