#!/usr/bin/env python3
"""sha256 of ``analytic.evaluate``'s floats over -300...300 dB, for a few layouts.

    python3 tools/evaluate_digests.py

Evaluates each layout below on one grid of 12,001 SNRs, -300 to 300 dB
in steps of 0.05 dB, with the relay and without, and prints one line
per run to standard output: layout, relay flag and the sha256 of the
p_out_n, p_out_m and throughput arrays' bytes, in that order.  Two
trees whose closed forms agree bit for bit print the same lines, so the
tool run on both sides of a change checks that contract over the whole
SNR range, past what the benchmark's CSVs cover.  It writes nothing.
"""

from __future__ import annotations

import hashlib
import math
import pathlib
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from coopnoma.analytic import evaluate  # noqa: E402
from coopnoma.linklevel import Geometry, SystemConfig  # noqa: E402

ANGLES = (math.radians(40.0), math.radians(60.0))  # the default alpha1, alpha2
REFERENCE = dict(M=6, m=3, n=6, a_m=0.7, a_n=0.3)

LAYOUTS = {
    "reference": (REFERENCE, (4.0, 6.0, 4.0)),
    "m20_pair_10_20": (dict(M=20, m=10, n=20, a_m=0.7, a_n=0.3), (6.0, 4.0, 5.0)),
    # gamma_thm at the SINR ceiling a_m/a_n: no gain passes SIC
    "sic_infeasible": ({**REFERENCE, "gamma_thm": 0.7 / 0.3}, (4.0, 6.0, 4.0)),
    "rate_half": ({**REFERENCE, "R_m": 0.5}, (4.0, 6.0, 4.0)),
}


def main() -> None:
    gamma0 = 10.0 ** (np.arange(-6000, 6001) / 200.0)
    for name, (system, sides) in LAYOUTS.items():
        cfg = SystemConfig(**system, gamma0=1.0)
        geo = Geometry(*sides, *ANGLES)
        for relay in (True, False):
            pt = evaluate(cfg, geo, relay=relay, gamma0=gamma0)
            floats = np.concatenate([pt.p_out_n, pt.p_out_m, pt.throughput])
            print(name, "relay" if relay else "no_relay",
                  hashlib.sha256(floats.tobytes()).hexdigest(), flush=True)


if __name__ == "__main__":
    main()
