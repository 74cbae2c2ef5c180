"""Closed-form analysis — theoretical mesh limits, chip comparisons —
plus the simulation-backed reliability exhibit."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.analysis.burstiness": (
            "burstiness_timescale",
            "dispersion_index",
            "expected_onset_rate",
            "mean_rate",
            "peak_rate",
            "rate_cv2",
            "saturation_shift",
            "stationary_distribution",
            "state_flit_rates",
        ),
        "repro.analysis.limits": ("MeshLimits",),
        "repro.analysis.pattern_limits": (
            "channel_load_map",
            "max_channel_load",
            "max_ejection_indegree",
            "pattern_saturation_rate",
        ),
        "repro.analysis.prototypes": (
            "PROTOTYPES",
            "ChipPrototype",
            "prototype_comparison",
        ),
        "repro.analysis.reliability": (
            "reliability_figure",
            "reliability_vs_faults",
            "reliability_vs_swing",
        ),
        "repro.analysis.replicas": (
            "REPLICA_SEED_STRIDE",
            "aggregate_replicas",
            "replica_seeds",
            "t_critical_95",
        ),
        "repro.analysis.saturation": ("find_saturation", "saturation_throughput"),
        "repro.analysis.zero_load": ("zero_load_latency",),
    },
)
