"""Observability: event tracing, congestion metrics, run profiling.

The subsystem is strictly opt-in (DESIGN.md §7): constructing an
:class:`Observer` and attaching it to a simulator installs probes into
the network's components; without one, every probe slot is ``None`` and
the simulator runs its uninstrumented fast path.  Observation is
read-only — an observed run produces byte-identical results.

Typical use::

    from repro.obs import Observer

    obs = Observer(sample=64, profile=True).attach(sim)
    stats = sim.run_experiment()
    obs.export_chrome_trace("run.trace.json")
    print(obs.sampler.heatmap_text(sim.cfg.k))
    obs.detach()
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.obs.export": (
            "chrome_trace",
            "event_dicts",
            "write_chrome_trace",
            "write_jsonl",
        ),
        "repro.obs.observer": ("Observer",),
        "repro.obs.profiler": ("PhaseProfiler",),
        "repro.obs.sampler": ("MetricsSampler",),
        "repro.obs.tracer": ("EVENT_KINDS", "Tracer"),
    },
)
