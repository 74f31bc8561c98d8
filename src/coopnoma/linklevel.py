"""System parameters, node geometry, and instantaneous SINR expressions.

A source broadcasts a two-user power-domain NOMA superposition.  The two
scheduled users are picked by channel rank out of M candidates: a weak
user (rank m) that gets the larger power share and a strong user (rank n)
that decodes the weak user's signal first, cancels it, then decodes its
own.  The strong user also forwards the weak user's signal through an
amplify-and-forward relay, giving the weak user a second, independently
faded copy.

This module holds what both engines share: validated configuration,
distances derived from the node layout, the path loss, and the SINR
seen by each decoding step for given arrays of channel gains.  Outage
statistics live in ``analytic`` (closed forms) and ``mcsim``
(simulation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .orderstat import MAX_RANKED_USERS


def threshold_from_rate(rate: float) -> float:
    """SINR threshold for reliable decoding at ``rate`` bit/s/Hz: 2**rate - 1."""
    if rate < 0:
        raise ValueError(f"rate must be >= 0, got {rate}")
    return 2.0 ** rate - 1.0


@dataclass(frozen=True)
class SystemConfig:
    """Static parameters of one pairing scenario.

    Power shares follow the NOMA convention a_m > a_n (weak user gets
    more power) with a_m + a_n = 1.  ``gamma0`` is the transmit SNR in
    linear scale.  Decoding thresholds default to 2**rate - 1 and may be
    pinned explicitly for what-if studies.
    """

    M: int
    m: int
    n: int
    a_m: float
    a_n: float
    gamma0: float
    theta: float = 2.0
    lambda_sd: float = 1.0
    lambda_dnr: float = 1.0
    lambda_rdm: float = 1.0
    R_m: float = 1.0
    R_n: float = 1.0
    gamma_thm: float = field(default=None)  # type: ignore[assignment]
    gamma_thn: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if not isinstance(self.M, (int, np.integer)) or self.M < 1:
            raise ValueError(f"M must be a positive integer, got {self.M!r}")
        if self.M > MAX_RANKED_USERS:
            raise ValueError(f"M must be <= {MAX_RANKED_USERS}, the largest population whose "
                             f"rank distributions are checked, got {self.M}")
        for name in ("m", "n"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        if not 1 <= self.m < self.n <= self.M:
            raise ValueError(
                f"user ranks must satisfy 1 <= m < n <= M, got m={self.m}, n={self.n}, M={self.M}")
        if not (0 < self.a_n < self.a_m):
            raise ValueError(
                f"power shares must satisfy a_m > a_n > 0, got a_m={self.a_m}, a_n={self.a_n}")
        if abs(self.a_m + self.a_n - 1.0) > 1e-9:
            raise ValueError(f"power shares must sum to 1, got {self.a_m + self.a_n}")
        if not (math.isfinite(self.gamma0) and self.gamma0 > 0):
            raise ValueError(f"gamma0 must be finite and > 0, got {self.gamma0}")
        if not (self.theta >= 0):
            raise ValueError(f"path-loss exponent theta must be >= 0, got {self.theta}")
        for name in ("lambda_sd", "lambda_dnr", "lambda_rdm"):
            v = getattr(self, name)
            if not (v > 0):
                raise ValueError(f"{name} must be > 0, got {v}")
        for name in ("R_m", "R_n"):
            v = getattr(self, name)
            if not (v > 0):
                raise ValueError(f"{name} must be > 0, got {v}")
        if self.gamma_thm is None:
            object.__setattr__(self, "gamma_thm", threshold_from_rate(self.R_m))
        if self.gamma_thn is None:
            object.__setattr__(self, "gamma_thn", threshold_from_rate(self.R_n))
        if not (self.gamma_thm > 0):
            raise ValueError(f"gamma_thm must be > 0, got {self.gamma_thm}")
        if not (self.gamma_thn > 0):
            raise ValueError(f"gamma_thn must be > 0, got {self.gamma_thn}")


def _law_of_cosines(a: float, b: float, angle: float) -> float:
    return math.sqrt(a * a + b * b - 2.0 * a * b * math.cos(angle))


@dataclass(frozen=True)
class Geometry:
    """Node layout distances; angles in radians.

    d_dndm and d_rdm are derived, not free: the strong-user/weak-user
    separation comes from the source-user triangle (angle alpha2 at the
    source), and the relay/weak-user distance from the strong-user
    triangle (angle alpha1 at the strong user).  Construct via
    ``derive_geometry`` unless you already have consistent values.
    """

    d_sdn: float
    d_sdm: float
    d_dnr: float
    alpha1: float
    alpha2: float
    d_dndm: float
    d_rdm: float

    def __post_init__(self) -> None:
        for name in ("d_sdn", "d_sdm", "d_dnr", "d_dndm", "d_rdm"):
            v = getattr(self, name)
            if not (v > 0):
                raise ValueError(f"distance {name} must be > 0, got {v}")
        for name in ("alpha1", "alpha2"):
            v = getattr(self, name)
            if not (0 < v < math.pi):
                raise ValueError(f"angle {name} must lie in (0, pi), got {v}")
        want_dndm = _law_of_cosines(self.d_sdm, self.d_sdn, self.alpha2)
        if not math.isclose(self.d_dndm, want_dndm, rel_tol=1e-12):
            raise ValueError(
                f"d_dndm={self.d_dndm} inconsistent with triangle (expected {want_dndm})")
        want_rdm = _law_of_cosines(self.d_dndm, self.d_dnr, self.alpha1)
        if not math.isclose(self.d_rdm, want_rdm, rel_tol=1e-12):
            raise ValueError(
                f"d_rdm={self.d_rdm} inconsistent with triangle (expected {want_rdm})")


def derive_geometry(d_sdn: float, d_sdm: float, d_dnr: float,
                    alpha1: float, alpha2: float) -> Geometry:
    """Build a consistent Geometry from the free parameters (angles in radians)."""
    for name, v in (("d_sdn", d_sdn), ("d_sdm", d_sdm), ("d_dnr", d_dnr)):
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"distance {name} must be finite and > 0, got {v}")
    for name, v in (("alpha1", alpha1), ("alpha2", alpha2)):
        if not (0 < v < math.pi):
            raise ValueError(f"angle {name} must lie in (0, pi), got {v}")
    d_dndm = _law_of_cosines(d_sdm, d_sdn, alpha2)
    d_rdm = _law_of_cosines(d_dndm, d_dnr, alpha1)
    return Geometry(d_sdn=d_sdn, d_sdm=d_sdm, d_dnr=d_dnr,
                    alpha1=alpha1, alpha2=alpha2, d_dndm=d_dndm, d_rdm=d_rdm)


def path_loss(d: float, theta: float) -> float:
    """d**theta at its float limits.

    Where it overflows it is inf: a link so lossy always fails.  Where it
    underflows it is 0: a noise-free link, on which every gain above 0
    gets through and a zero gain does not.  Both engines take every path
    loss from here, so they share both limits.
    """
    try:
        return float(d) ** float(theta)
    except OverflowError:
        return math.inf


def _snr(scale: float, g: np.ndarray, pl: float) -> np.ndarray:
    """scale * g / pl, inf where it overflows and on a noise-free link (pl = 0), 0 at g = 0."""
    if pl == 0.0:
        return np.where(g > 0, math.inf, 0.0)
    with np.errstate(over="ignore"):  # inf passes every threshold, as it should
        return scale * g / pl


def _weak_signal_sinr(cfg: SystemConfig, g: np.ndarray, pl: float) -> np.ndarray:
    """a_m g / (a_n g + pl/gamma0), the SINR of the weak user's signal.

    Where pl/gamma0 is 0 (a noise-free link) it is a_m/a_n for every g > 0
    and 0 at g = 0.
    """
    noise = pl / cfg.gamma0
    if noise == 0.0:
        return np.where(g > 0, cfg.a_m / cfg.a_n, 0.0)
    return cfg.a_m * g / (cfg.a_n * g + noise)


def sinr_direct_weak(cfg: SystemConfig, geo: Geometry, g):
    """SINR of the weak user decoding its own signal on the direct link.

    The strong user's superposed signal is treated as interference:
    a_m g / (a_n g + d_sdm**theta / gamma0).  Vectorized over g >= 0.
    """
    g = np.asarray(g, dtype=float)
    out = _weak_signal_sinr(cfg, g, path_loss(geo.d_sdm, cfg.theta))
    return out if out.ndim else float(out)


def sinr_strong_decodes_weak(cfg: SystemConfig, geo: Geometry, g):
    """SINR of the strong user decoding the weak user's signal (first SIC stage)."""
    g = np.asarray(g, dtype=float)
    out = _weak_signal_sinr(cfg, g, path_loss(geo.d_sdn, cfg.theta))
    return out if out.ndim else float(out)


def snr_strong_own(cfg: SystemConfig, geo: Geometry, g):
    """Post-cancellation SNR of the strong user decoding its own signal."""
    g = np.asarray(g, dtype=float)
    out = _snr(cfg.gamma0 * cfg.a_n, g, path_loss(geo.d_sdn, cfg.theta))
    return out if out.ndim else float(out)


def sinr_relayed(cfg: SystemConfig, geo: Geometry, g_dnr, g_rdm):
    """End-to-end SINR of the amplify-and-forward hop chain to the weak user.

    With per-hop SNRs g1 = gamma0 * g_dnr / d_dnr**theta and
    g2 = gamma0 * g_rdm / d_rdm**theta, the variable-gain AF relay yields
    g1 g2 / (g1 + g2 + 1), which never exceeds min(g1, g2).  Where a hop
    SNR or their product overflows, the quotient is its finite limit
    1 / (1/g1 + 1/g2): the other hop's SNR when one hop is inf.
    """
    g1 = _snr(cfg.gamma0, np.asarray(g_dnr, dtype=float), path_loss(geo.d_dnr, cfg.theta))
    g2 = _snr(cfg.gamma0, np.asarray(g_rdm, dtype=float), path_loss(geo.d_rdm, cfg.theta))
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan are replaced below
        out = g1 * g2 / (g1 + g2 + 1.0)
    bad = ~np.isfinite(out)
    if bad.any():
        # a zero-gain hop: 1/0 = inf gives the limit 0, as does 1/g past the floats
        with np.errstate(divide="ignore", over="ignore"):
            out = np.where(bad, 1.0 / (1.0 / g1 + 1.0 / g2), out)
    return out if out.ndim else float(out)
