"""Traffic generation: injection processes, patterns and PRBS sources."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.traffic.generators": (
            "BernoulliTraffic",
            "SyntheticBurst",
            "SyntheticTraffic",
        ),
        "repro.traffic.mix": (
            "BROADCAST_ONLY",
            "MIXED_TRAFFIC",
            "UNIFORM_UNICAST",
            "TrafficMix",
            "TrafficComponent",
        ),
        "repro.traffic.patterns": (
            "BitComplementPattern",
            "BitReversalPattern",
            "DestinationPattern",
            "HotspotPattern",
            "NeighborPattern",
            "ShufflePattern",
            "TornadoPattern",
            "TransposePattern",
            "UniformPattern",
            "make_pattern",
            "pattern_from_dict",
            "pattern_names",
        ),
        "repro.traffic.prbs": ("PRBSGenerator",),
        "repro.traffic.processes": (
            "BernoulliProcess",
            "InjectionProcess",
            "MMPProcess",
            "OnOffProcess",
            "make_process",
            "process_from_dict",
            "process_names",
        ),
        "repro.traffic.spec": ("MessageSpec",),
    },
)
