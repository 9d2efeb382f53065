"""repro — reproduction of *A Flexible Network Approach to Privacy of
Blockchain Transactions* (Mödinger, Kopp, Kargl, Hauck — ICDCS 2018).

The package implements the paper's three-phase privacy-preserving broadcast
(DC-net → adaptive diffusion → flood-and-prune) together with every substrate
it depends on: a discrete-event network simulator, overlay topologies, a
DC-network with announcements / collisions / blame, adaptive diffusion,
Dandelion and flooding baselines, group management, adversary models and
privacy metrics.

Quickstart::

    from repro.core import ProtocolConfig, ThreePhaseBroadcast
    from repro.network.topology import random_regular_overlay

    overlay = random_regular_overlay(200, degree=8, seed=1)
    protocol = ThreePhaseBroadcast(overlay, ProtocolConfig(group_size=5), seed=2)
    result = protocol.broadcast(source=0, payload=b"my transaction")
    print(result.delivered_fraction, result.messages_by_phase)
"""

import logging

from repro.core import (
    BroadcastResult,
    Phase,
    ProtocolConfig,
    ThreePhaseBroadcast,
    ThreePhaseNode,
)

# Library convention: never emit log output unless the application
# configures logging.  Modules log under ``repro.*`` child loggers
# (engines, runners, sweeps); a NullHandler on the package root keeps
# the "No handlers could be found" warning away without installing any
# real handler.
logging.getLogger(__name__).addHandler(logging.NullHandler())

__version__ = "0.1.0"

__all__ = [
    "BroadcastResult",
    "Phase",
    "ProtocolConfig",
    "ThreePhaseBroadcast",
    "ThreePhaseNode",
    "__version__",
]
