"""Circuit-level models of the chip's datapath (Sections 3.4, 4.3, App. C)."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.circuits.crossbar": ("FullSwingCrossbar", "LowSwingCrossbar"),
        "repro.circuits.eye": ("eye_margin", "repeated_vs_direct"),
        "repro.circuits.repeater": ("FullSwingRepeatedLink",),
        "repro.circuits.rsd": ("TriStateRSD",),
        "repro.circuits.sense_amp": ("SenseAmplifier",),
        "repro.circuits.technology": ("Technology", "TECH_45NM_SOI"),
        "repro.circuits.wire": ("Wire",),
    },
)
