"""Outage and throughput analysis for a relay-assisted NOMA user pairing.

Layers, bottom to top:

- ``orderstat``: distributions and sampling of ranked exponential gains
- ``linklevel``: configuration, node geometry, instantaneous SINRs and
  the least gain that passes each decoding stage
- ``analytic``: closed-form outage probabilities and throughput
- ``mcsim``: deterministic Monte-Carlo oracle for the closed forms
- ``cli``: config files, sweeps, CSV output, plot-script emission
"""

from .analytic import (OutagePoint, bessel_k1, evaluate, outage_strong, outage_weak,
                       relay_link_outage, throughput, two_hop_outage)
from .linklevel import (Geometry, SystemConfig, derive_geometry, sinr_direct_weak,
                        sinr_relayed, sinr_strong_decodes_weak, snr_strong_own,
                        threshold_from_rate)
from .mcsim import McConfig, McEstimate, draws_per_trial, estimate, trial_stream
from .orderstat import (MAX_RANKED_USERS, MAX_USERS, OrderStatSpec, ordered_cdf, ordered_sf,
                        phi_coefficient, sample_ordered_gains)

__version__ = "0.1.0"

__all__ = [
    "MAX_USERS", "MAX_RANKED_USERS", "OrderStatSpec", "phi_coefficient", "ordered_cdf",
    "ordered_sf", "sample_ordered_gains",
    "SystemConfig", "Geometry", "derive_geometry", "threshold_from_rate",
    "sinr_direct_weak", "sinr_strong_decodes_weak", "snr_strong_own", "sinr_relayed",
    "bessel_k1", "outage_strong", "two_hop_outage", "relay_link_outage",
    "outage_weak", "throughput", "OutagePoint", "evaluate",
    "McConfig", "McEstimate", "draws_per_trial", "trial_stream", "estimate",
]
