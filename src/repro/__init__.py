"""Reproduction of Park et al., "Approaching the Theoretical Limits of a
Mesh NoC with a 16-Node Chip Prototype in 45nm SOI" (DAC 2012).

Quickstart::

    from repro import proposed_network, Simulator
    from repro.traffic import BernoulliTraffic, MIXED_TRAFFIC

    sim = Simulator(proposed_network(), BernoulliTraffic(MIXED_TRAFFIC, 0.05))
    stats = sim.run_experiment()
    print(stats.avg_latency, stats.throughput_gbps)

Package map:

- :mod:`repro.noc` — cycle-accurate mesh/router/NIC substrate
- :mod:`repro.engine` — parallel experiment engine with a persistent
  result cache (CLI: ``python -m repro``)
- :mod:`repro.core` — the paper's design points (baseline/strawman/proposed)
- :mod:`repro.traffic` — synthetic traffic as injection process x mix x
  destination pattern: temporal processes (bernoulli, bursty on-off,
  MMP), the paper's mixes, and spatial patterns (transpose, tornado,
  hotspot, ...)
- :mod:`repro.analysis` — theoretical limits and prototype comparisons
- :mod:`repro.circuits` — low-swing RSD / wire / sense-amp circuit models
- :mod:`repro.power` — calibrated, ORION-style and post-layout power models
- :mod:`repro.physical` — critical-path timing and area models
- :mod:`repro.harness` — experiment drivers regenerating each table/figure
"""

from repro._lazy import lazy_exports

__version__ = "1.1.0"

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.presets": (
            "baseline_network",
            "proposed_network",
            "strawman_network",
            "textbook_network",
        ),
        "repro.engine.cache": ("ResultCache",),
        "repro.engine.executor": ("Executor",),
        "repro.engine.jobspec": ("JobSpec",),
        "repro.noc.config": ("NocConfig",),
        "repro.noc.simulator": ("Simulator",),
    },
)
__all__.append("__version__")
