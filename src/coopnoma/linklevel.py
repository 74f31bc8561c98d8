"""System parameters, node geometry, and instantaneous SINR expressions.

A source broadcasts a two-user power-domain NOMA superposition.  The two
scheduled users are picked by channel rank out of M candidates: a weak
user (rank m) that gets the larger power share and a strong user (rank n)
that decodes the weak user's signal first, cancels it, then decodes its
own.  The strong user also forwards the weak user's signal through an
amplify-and-forward relay, giving the weak user a second, independently
faded copy.

Everything here is per-realization plumbing: validated configuration,
distances derived from the node layout, and the SINR seen by each
decoding step for given channel gains.  Outage statistics live in
``analytic`` (closed forms) and ``mcsim`` (simulation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


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


@dataclass(frozen=True)
class ChannelRealization:
    """One fading draw: ordered direct gains plus the two relay-hop gains.

    ``g_sd`` is the full ascending vector of source-user gains.  In the
    default joint mode both scheduled users read their gain from this one
    vector.  When ``g_sd_strong`` is present (independent mode) the
    strong user reads rank n from that second, independently drawn
    ordered vector instead, so the two ranks carry no cross-correlation.
    """

    g_sd: np.ndarray
    g_dnr: float
    g_rdm: float
    g_sd_strong: np.ndarray | None = None

    def __post_init__(self) -> None:
        for name in ("g_sd", "g_sd_strong"):
            v = getattr(self, name)
            if v is None:
                continue
            v = np.asarray(v, dtype=float)
            object.__setattr__(self, name, v)
            if v.ndim != 1 or v.size < 1:
                raise ValueError(f"{name} must be a 1-D vector of gains")
            if np.any(v < 0):
                raise ValueError(f"{name} must be nonnegative")
            if np.any(np.diff(v) < 0):
                raise ValueError(f"{name} must be sorted ascending")
        if self.g_dnr < 0 or self.g_rdm < 0:
            raise ValueError("relay-hop gains must be nonnegative")

    def gain_weak(self, m: int) -> float:
        """Direct gain seen by the weak user (rank m of the first vector)."""
        return float(self.g_sd[m - 1])

    def gain_strong(self, n: int) -> float:
        """Direct gain seen by the strong user (rank n; second vector if present)."""
        v = self.g_sd if self.g_sd_strong is None else self.g_sd_strong
        return float(v[n - 1])


def sinr_direct_weak(cfg: SystemConfig, geo: Geometry, g):
    """SINR of the weak user decoding its own signal on the direct link.

    The strong user's superposed signal is treated as interference:
    a_m g / (a_n g + d_sdm**theta / gamma0).  Vectorized over g >= 0.
    """
    g = np.asarray(g, dtype=float)
    out = cfg.a_m * g / (cfg.a_n * g + geo.d_sdm ** cfg.theta / cfg.gamma0)
    return out if out.ndim else float(out)


def sinr_strong_decodes_weak(cfg: SystemConfig, geo: Geometry, g):
    """SINR of the strong user decoding the weak user's signal (first SIC stage)."""
    g = np.asarray(g, dtype=float)
    out = cfg.a_m * g / (cfg.a_n * g + geo.d_sdn ** cfg.theta / cfg.gamma0)
    return out if out.ndim else float(out)


def snr_strong_own(cfg: SystemConfig, geo: Geometry, g):
    """Post-cancellation SNR of the strong user decoding its own signal."""
    g = np.asarray(g, dtype=float)
    out = cfg.gamma0 * cfg.a_n * g / geo.d_sdn ** cfg.theta
    return out if out.ndim else float(out)


def sinr_relayed(cfg: SystemConfig, geo: Geometry, g_dnr, g_rdm):
    """End-to-end SINR of the amplify-and-forward hop chain to the weak user.

    With per-hop SNRs g1 = gamma0 * g_dnr / d_dnr**theta and
    g2 = gamma0 * g_rdm / d_rdm**theta, the variable-gain AF relay yields
    g1 g2 / (g1 + g2 + 1), which never exceeds min(g1, g2).
    """
    g_dnr = np.asarray(g_dnr, dtype=float)
    g_rdm = np.asarray(g_rdm, dtype=float)
    g1 = cfg.gamma0 * g_dnr / geo.d_dnr ** cfg.theta
    g2 = cfg.gamma0 * g_rdm / geo.d_rdm ** cfg.theta
    out = g1 * g2 / (g1 + g2 + 1.0)
    return out if out.ndim else float(out)
