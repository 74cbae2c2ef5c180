"""The paper's contribution: the proposed router and its design points.

The microarchitectural mechanisms live in the simulator substrate
(:mod:`repro.noc`); this package names and configures the design points
the paper evaluates and re-exports the bypassing primitives.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.presets": (
            "baseline_network",
            "proposed_network",
            "strawman_network",
            "textbook_network",
        ),
        "repro.noc.lookahead": ("Lookahead",),
    },
)
