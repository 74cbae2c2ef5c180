"""Power modelling: calibrated (silicon-proxy), ORION-style and post-layout."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.power.energy_model": ("CalibratedEnergyModel",),
        "repro.power.meter": ("PowerBreakdown", "PowerMeter"),
        "repro.power.orion": ("OrionPowerModel",),
        "repro.power.postlayout": ("PostLayoutPowerModel",),
    },
)
