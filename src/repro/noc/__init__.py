"""Cycle-accurate mesh NoC simulation substrate.

This subpackage implements the hardware substrate of the DAC 2012 chip:
flits and packets, virtual-channel input buffers, credit-based flow
control with free-VC queues, separable two-stage switch allocation
(round-robin mSA-I, matrix-arbiter mSA-II), XY / XY-tree routing,
delay-one channels, network interface controllers and the synchronous
cycle loop.  The paper's contribution (lookahead virtual bypassing and
router-level multicast) plugs into this substrate and is surfaced
through :mod:`repro.core`.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.noc.config": ("NocConfig", "VCSpec", "proposed_vc_config"),
        "repro.noc.flit": ("Flit", "Message", "MessageClass", "Packet"),
        "repro.noc.mesh": ("MeshNetwork",),
        "repro.noc.ports": (
            "LOCAL",
            "NORTH",
            "EAST",
            "SOUTH",
            "WEST",
            "PORT_NAMES",
        ),
        "repro.noc.routing": (
            "O1TurnRouting",
            "RoutingAlgorithm",
            "ValiantRouting",
            "XYRouting",
            "YXRouting",
            "make_routing",
            "routing_from_dict",
            "routing_names",
        ),
        "repro.noc.simulator": ("Simulator",),
    },
)
