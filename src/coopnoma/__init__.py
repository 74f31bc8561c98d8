"""Outage and throughput analysis for a relay-assisted NOMA user pairing.

Layers, bottom to top; each imports only from those listed before it:

- ``linklevel``: the input rules, configuration, the node layout (which
  derives its dependent sides), instantaneous SINRs and the least gain
  that passes each decoding stage
- ``orderstat``: distributions and sampling of ranked exponential gains
- ``analytic``: closed-form outage probabilities and throughput, all
  through ``evaluate``
- ``mcsim``: deterministic Monte-Carlo oracle for the closed forms, and
  the throughput of its estimates
- ``cli``: config files, sweeps, CSV output, plot-script emission
"""

from .analytic import OutagePoint, bessel_k1, evaluate, two_hop_outage
from .linklevel import Geometry, SystemConfig
from .mcsim import McConfig, McEstimate, estimate
from .orderstat import OrderStatSpec, ordered_cdf, sample_ordered_gains

__version__ = "0.1.0"

__all__ = [
    "OrderStatSpec", "ordered_cdf", "sample_ordered_gains",
    "SystemConfig", "Geometry", "bessel_k1", "two_hop_outage", "OutagePoint", "evaluate",
    "McConfig", "McEstimate", "estimate",
]
