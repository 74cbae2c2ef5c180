"""Physical-design models: gate delays, critical paths and area."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.physical.area": ("AreaModel",),
        "repro.physical.critical_path": (
            "CriticalPathAnalysis",
            "CriticalPathReport",
        ),
        "repro.physical.gates": ("Gate", "GateChain", "STD_GATES"),
    },
)
