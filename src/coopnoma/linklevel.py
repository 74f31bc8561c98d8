"""System parameters, node geometry, and instantaneous SINR expressions.

A source broadcasts a two-user power-domain NOMA superposition.  The two
scheduled users are picked by channel rank out of M candidates: a weak
user (rank m) that gets the larger power share and a strong user (rank n)
that decodes the weak user's signal first, cancels it, then decodes its
own.  The strong user also forwards the weak user's signal through an
amplify-and-forward relay, giving the weak user a second, independently
faded copy.

This module, the package's bottom layer, holds what both engines share:
the rules every input passes (the input box ``INPUT_BOX`` for floats,
``check_int`` for integers and ``_reject_bools`` for bools);
configuration validated by them; the node layout (``Geometry`` derives
its two dependent sides from the free parameters); the path loss; the
SINR seen by each decoding step, plain arithmetic on one channel gain
or an array of them; and, for each direct-link step, the least gain
that gets through.  Outage statistics live in ``analytic`` (closed
forms) and ``mcsim`` (simulation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

# The largest population M any entry point accepts.
MAX_RANKED_USERS = 100

# The input box: the least and greatest value of each input that the
# constructors and the engine entries accept.  Distances are in metres;
# gamma0 spans -300 to +300 dB.  Its lower end is 1e-30 less one ulp:
# numpy's array power 10.0 ** (np.array([-300.0]) / 10) rounds to that,
# while its scalar power 10.0 ** np.float64(-30.0) gives 1e-30.
# The angles, in radians, take every float in the open interval (0, pi).
INPUT_BOX = {
    "gamma0": (float(np.nextafter(1e-30, 0.0)), 1e30),
    "theta": (0.0, 8.0),
    "a_n": (1e-15, 1.0),
    **dict.fromkeys(("lambda_sd", "lambda_dnr", "lambda_rdm", "gamma_thm", "gamma_thn"),
                    (1e-30, 1e30)),
    **dict.fromkeys(("d_sdn", "d_sdm", "d_dnr", "d_dndm", "d_rdm"), (1e-4, 1e5)),
    **dict.fromkeys(("alpha1", "alpha2"), (5e-324, float(np.nextafter(math.pi, 0.0)))),
}


def check_box(name: str, value, key: str | None = None):
    """``value``, or ValueError naming ``name`` where it leaves ``INPUT_BOX[key or name]``.

    ``value`` is a number or an array, whose every entry must lie in the
    box; nan never does.  Inside the box every quantity either engine
    forms is a normal float:

    - a path loss d**theta lies in [1e-32, 1e40], and the noise term
      d**theta / gamma0 in [1e-62, 1e70];
    - a least passing gain lies in [1e-92, 1e115]: the strong user's own
      level gamma_thn d**theta / (a_n gamma0) has a_n gamma0 >= 1e-45,
      and the weak-signal level gamma_thm d**theta / ((a_m - a_n
      gamma_thm) gamma0) is inf (SIC infeasible) unless gamma_thm <
      a_m/a_n <= 1e15, where its spare a_m - a_n gamma_thm is at least
      2**-56 (a_m > 1/2 - 1e-9);
    - a drawn rank gain lies in [1e-83, 42] lambda_sd and a hop gain is 0
      or lies in [1e-16, 37] lambda, so every SINR is 0 or lies in
      [1e-232, 1e94], and every product it forms in [1e-232, 1e188];
    - the relay's t = 2 sqrt(pl_a pl_b gamma_th (gamma_th + 1) /
      (gamma0**2 lambda_a lambda_b)) lies in [1e-107, 1e131], and each
      partial product of its numerator and denominator in [1e-120, 1e140];
    - with x = d_dnr**theta / g_dnr and y = d_rdm**theta / g_rdm in
      [1e-64, 1e86] for hop gains above 0, the critical SNR's partial
      products are s = x + y in [1e-64, 1e87], d_rdm**theta / d_dnr**theta
      in [1e-72, 1e72], g_dnr times that in [1e-118, 1e104] and plus g_rdm
      in [1e-46, 1e104], h = x y / s in [1e-64, 1e86], r = h / s in
      [1e-150, 1/4] and 4r / gamma_thm in [1e-180, 1e30]; gamma* lies in
      [1e-94, 1e117].
    """
    lo, hi = INPUT_BOX[key or name]
    if isinstance(value, np.ndarray):
        bad = ~((value >= lo) & (value <= hi))
        if not bad.any():
            return value
        value = value[bad].flat[0]
    elif lo <= value <= hi:
        return value
    raise ValueError(f"{name} must lie in [{lo!r}, {hi!r}], got {float(value)!r}")


def _reject_bool(name: str, value) -> None:
    """Refuse a bool for ``name``, which would otherwise pass as 0 or 1."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a number, not a bool, got {value!r}")


def _reject_bools(config) -> None:
    """Name the first constructor field of the dataclass ``config`` given a bool."""
    for f in fields(config):
        if f.init:
            _reject_bool(f.name, getattr(config, f.name))


def is_int(value) -> bool:
    """An int, numpy's included, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_int(name: str, value, lo, hi):
    """``value``, or ValueError naming ``name`` unless it is an integer in [lo, hi]."""
    _reject_bool(name, value)
    if is_int(value) and lo <= value <= hi:
        return value
    raise ValueError(f"{name} must be an integer in [{lo}, {hi}], got {value!r}")


@dataclass(frozen=True)
class SystemConfig:
    """Static parameters of one pairing scenario.

    Power shares follow the NOMA convention a_m > a_n (weak user gets
    more power) with a_m + a_n = 1.  ``gamma0`` is the transmit SNR in
    linear scale.  Decoding thresholds default to 2**rate - 1, accurate
    to an ulp or two at any rate, and may be pinned explicitly for
    what-if studies.
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
        _reject_bools(self)
        check_int("M", self.M, 2, MAX_RANKED_USERS)  # a pair needs two users
        check_int("m", self.m, 1, self.M - 1)
        check_int("n", self.n, self.m + 1, self.M)
        if not (0 < self.a_n < self.a_m):
            raise ValueError(
                f"power shares must satisfy a_m > a_n > 0, got a_m={self.a_m}, a_n={self.a_n}")
        if abs(self.a_m + self.a_n - 1.0) > 1e-9:
            raise ValueError(f"power shares a_m + a_n must sum to 1, got {self.a_m + self.a_n}")
        for name in ("a_n", "gamma0", "theta", "lambda_sd", "lambda_dnr", "lambda_rdm"):
            check_box(name, getattr(self, name))
        for name in ("R_m", "R_n"):
            v = getattr(self, name)
            if not (v > 0):
                raise ValueError(f"{name} must be > 0, got {v}")
        for th, rate in (("gamma_thm", "R_m"), ("gamma_thn", "R_n")):
            name, value = th, getattr(self, th)
            if value is None:
                r = getattr(self, rate)
                # reliable decoding at r bit/s/Hz.  Below r = 1, expm1 keeps
                # the relative accuracy that 2**r - 1 loses as r falls; from
                # r = 1 on, 2**r - 1 is exact at integers, where expm1 is not
                # (6.999999999999998 at r = 3).  Past 2**128 the box refuses it.
                value = (math.expm1(r * math.log(2.0)) if r < 1.0
                         else 2.0 ** min(r, 128.0) - 1.0)
                name = f"{rate}={r!r} gives {th} = 2**{rate} - 1, which"
            object.__setattr__(self, th, check_box(name, value, th))


def _law_of_cosines(a: float, b: float, angle: float) -> float:
    """Third side of a triangle with sides a, b at ``angle``.

    Taken as s*sqrt(((a-b)/s)**2 + 4 (a/s) (b/s) sin(angle/2)**2) with
    s = max(a, b): a sum of two nonnegative terms, so unlike the textbook
    a**2 + b**2 - 2ab cos(angle) it does not cancel for nearly equal
    sides at a small angle.
    """
    s = max(a, b)
    x, y = a / s, b / s
    return s * math.sqrt((x - y) ** 2 + 4.0 * x * y * math.sin(0.5 * angle) ** 2)


@dataclass(frozen=True)
class Geometry:
    """Node layout from its free parameters; angles in radians.

    d_dndm and d_rdm are derived, not free: the strong-user/weak-user
    separation comes from the source-user triangle (angle alpha2 at the
    source), and the relay/weak-user distance from the strong-user
    triangle (angle alpha1 at the strong user).
    """

    d_sdn: float
    d_sdm: float
    d_dnr: float
    alpha1: float
    alpha2: float
    d_dndm: float = field(init=False)
    d_rdm: float = field(init=False)

    def __post_init__(self) -> None:
        _reject_bools(self)
        for name in ("d_sdn", "d_sdm", "d_dnr", "alpha1", "alpha2"):
            check_box(name, getattr(self, name))
        d_dndm = _law_of_cosines(self.d_sdm, self.d_sdn, self.alpha2)
        d_rdm = _law_of_cosines(d_dndm, self.d_dnr, self.alpha1)
        for name, v, free in (("d_dndm", d_dndm, "d_sdm, d_sdn and alpha2"),
                              ("d_rdm", d_rdm, "d_sdm, d_sdn, d_dnr, alpha1 and alpha2")):
            object.__setattr__(self, name, check_box(f"{free} give {name}, which", v, name))


def path_loss(d: float, theta: float) -> float:
    """d**theta.  Both engines take every path loss from here."""
    return float(d) ** float(theta)


def _weak_signal_sinr(cfg: SystemConfig, g, pl: float):
    """a_m g / (a_n g + pl/gamma0), the SINR of the weak user's signal."""
    return cfg.a_m * g / (cfg.a_n * g + pl / cfg.gamma0)


def sinr_direct_weak(cfg: SystemConfig, geo: Geometry, g):
    """SINR of the weak user decoding its own signal on the direct link.

    The strong user's superposed signal is treated as interference:
    a_m g / (a_n g + d_sdm**theta / gamma0).  Vectorized over g >= 0.
    """
    return _weak_signal_sinr(cfg, g, path_loss(geo.d_sdm, cfg.theta))


def sinr_strong_decodes_weak(cfg: SystemConfig, geo: Geometry, g):
    """SINR of the strong user decoding the weak user's signal (first SIC stage)."""
    return _weak_signal_sinr(cfg, g, path_loss(geo.d_sdn, cfg.theta))


def snr_strong_own(cfg: SystemConfig, geo: Geometry, g):
    """Post-cancellation SNR of the strong user decoding its own signal."""
    return cfg.gamma0 * cfg.a_n * g / path_loss(geo.d_sdn, cfg.theta)


def sinr_relayed(cfg: SystemConfig, geo: Geometry, g_dnr, g_rdm):
    """End-to-end SINR of the amplify-and-forward hop chain to the weak user.

    With per-hop SNRs g1 = gamma0 * g_dnr / d_dnr**theta and
    g2 = gamma0 * g_rdm / d_rdm**theta, the variable-gain AF relay yields
    g1 g2 / (g1 + g2 + 1), which never exceeds min(g1, g2) and is 0
    where a hop gain is 0.
    """
    g1 = cfg.gamma0 * g_dnr / path_loss(geo.d_dnr, cfg.theta)
    g2 = cfg.gamma0 * g_rdm / path_loss(geo.d_rdm, cfg.theta)
    return g1 * g2 / (g1 + g2 + 1.0)


def stage_gains(cfg: SystemConfig, geo: Geometry, gamma0):
    """Least gains passing the direct-link stages at SNR ``gamma0``: (sic, own, direct).

    Each SINR above increases with the gain, so a stage fails exactly
    where the gain lies below its level; the levels invert those
    expressions.  The weak-signal stages, the strong user's SIC (over
    d_sdn) and the weak user's direct copy (over d_sdm), pass from
    gamma_thm / (spare gamma0) pl with spare = a_m - a_n gamma_thm; they
    are inf where spare <= 0, as the SINR's ceiling a_m/a_n then does
    not exceed gamma_thm.  The strong user's own stage passes from
    gamma_thn d_sdn**theta / (a_n gamma0).  An array ``gamma0`` gives
    arrays of its shape, a scalar floats.
    """
    g = check_box("gamma0", np.asarray(gamma0, dtype=float))
    spare = cfg.a_m - cfg.a_n * cfg.gamma_thm
    weak = np.full_like(g, math.inf) if spare <= 0.0 else cfg.gamma_thm / (spare * g)
    pl_n = path_loss(geo.d_sdn, cfg.theta)
    levels = (weak * pl_n, cfg.gamma_thn * pl_n / (cfg.a_n * g),
              weak * path_loss(geo.d_sdm, cfg.theta))
    return levels if g.ndim else tuple(map(float, levels))
