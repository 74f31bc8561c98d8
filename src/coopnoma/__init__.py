"""Outage and throughput analysis for a relay-assisted NOMA user pairing.

Layers, bottom to top:

- ``orderstat``: distributions and sampling of ranked exponential gains
- ``linklevel``: configuration, the node layout (which derives its
  dependent sides), instantaneous SINRs and the least gain that passes
  each decoding stage
- ``analytic``: closed-form outage probabilities and throughput, all
  through ``evaluate``
- ``mcsim``: deterministic Monte-Carlo oracle for the closed forms
- ``cli``: config files, sweeps, CSV output, plot-script emission
"""

from .analytic import OutagePoint, bessel_k1, evaluate, throughput, two_hop_outage
from .linklevel import (Geometry, SystemConfig, sinr_direct_weak, sinr_relayed,
                        sinr_strong_decodes_weak, snr_strong_own)
from .mcsim import McConfig, McEstimate, draws_per_trial, estimate, trial_stream
from .orderstat import (MAX_RANKED_USERS, MAX_USERS, OrderStatSpec, ordered_cdf, ordered_sf,
                        phi_coefficient, sample_ordered_gains)

__version__ = "0.1.0"

__all__ = [
    "MAX_USERS", "MAX_RANKED_USERS", "OrderStatSpec", "phi_coefficient", "ordered_cdf",
    "ordered_sf", "sample_ordered_gains",
    "SystemConfig", "Geometry",
    "sinr_direct_weak", "sinr_strong_decodes_weak", "snr_strong_own", "sinr_relayed",
    "bessel_k1", "two_hop_outage", "throughput", "OutagePoint", "evaluate",
    "McConfig", "McEstimate", "draws_per_trial", "trial_stream", "estimate",
]
