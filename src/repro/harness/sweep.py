"""Latency-throughput sweeps: the engine behind Figs. 5 and 13.

Sweeps are expressed as batches of :class:`~repro.engine.JobSpec` and
executed by a :class:`~repro.engine.Executor`, so any sweep can run on
the process-pool backend and hit the persistent result cache.  The
default executor (serial, uncached) is deterministically identical to
the historical ``for rate in rates`` loop.
"""

from __future__ import annotations

import math

from repro.analysis.replicas import replica_seeds
from repro.engine.executor import Executor
from repro.engine.jobspec import (
    DEFAULT_DRAIN,
    DEFAULT_MEASURE,
    DEFAULT_SEED,
    DEFAULT_WARMUP,
    JobSpec,
)


def run_point(
    config,
    mix,
    rate,
    seed=DEFAULT_SEED,
    warmup=DEFAULT_WARMUP,
    measure=DEFAULT_MEASURE,
    drain=DEFAULT_DRAIN,
    identical_generators=False,
    name="",
    pattern=None,
    injection=None,
    faults=None,
    backend="object",
):
    """Simulate one operating point; returns WindowStats."""
    return JobSpec(
        config=config,
        mix=mix,
        rate=rate,
        seed=seed,
        warmup=warmup,
        measure=measure,
        drain=drain,
        identical_generators=identical_generators,
        name=name,
        pattern=pattern,
        injection=injection,
        faults=faults,
        backend=backend,
    ).run()


def run_sweep(config, mix, rates, name="", executor=None, **kwargs):
    """Simulate a list of injection rates; returns a list of WindowStats.

    Each point runs on a fresh network (the paper's measurements reset
    the chip between operating points), so points are independent and
    the sweep order does not matter — which is exactly what lets the
    process-pool backend fan them out, and a serial executor over the
    array backend run the whole rate grid as lanes of one batched
    kernel pass.  Pass ``executor`` to choose a backend and/or attach a
    :class:`~repro.engine.ResultCache`.
    """
    jobs = [
        JobSpec(config=config, mix=mix, rate=rate, name=name, **kwargs)
        for rate in rates
    ]
    if executor is None:
        executor = Executor()
    return executor.run(jobs)


def run_sweep_replicated(config, mix, rates, replicas, name="",
                         executor=None, seed=DEFAULT_SEED, **kwargs):
    """One sweep, ``replicas`` seeds per rate, as a single engine batch.

    The seed schedule is :func:`repro.analysis.replicas.replica_seeds`
    (replica 0 is the base seed), and jobs are submitted rate-major /
    seed-minor.  They differ only by seed and rate, so a serial
    executor over the array backend folds the whole rate x replica
    grid into one batched kernel pass while every result is still
    cached under its ordinary single-job content address.  Returns a
    list (in rate order) of per-replica ``WindowStats`` lists (in seed
    order); feed each group to
    :func:`repro.analysis.replicas.aggregate_replicas`.
    """
    seeds = replica_seeds(seed, replicas)
    jobs = [
        JobSpec(config=config, mix=mix, rate=rate, name=name, seed=s,
                **kwargs)
        for rate in rates
        for s in seeds
    ]
    if executor is None:
        executor = Executor()
    results = executor.run(jobs)
    n = len(seeds)
    return [results[i * n : (i + 1) * n] for i in range(len(rates))]


def run_sweep_batch(named_configs, mix, rates, executor=None, replicas=1,
                    seed=DEFAULT_SEED, **kwargs):
    """Run one sweep per named config as a *single* engine batch.

    All points of all sweeps are independent, so submitting them
    together lets a process-pool backend overlap the sweeps and pay
    pool start-up once, instead of serialising one sweep after the
    other.  Returns ``{name: [WindowStats in rate order]}``.

    With ``replicas > 1`` each rate runs once per seed of
    :func:`~repro.analysis.replicas.replica_seeds` (on a serial
    array-backend executor each config's rate x replica grid is one
    batched kernel pass) and each series entry is the per-replica list
    instead of a single WindowStats.
    """
    items = list(named_configs.items())
    seeds = replica_seeds(seed, replicas)
    jobs = [
        JobSpec(config=cfg, mix=mix, rate=rate, name=name, seed=s, **kwargs)
        for name, cfg in items
        for rate in rates
        for s in seeds
    ]
    if executor is None:
        executor = Executor()
    results = executor.run(jobs)
    n = len(rates) * len(seeds)
    out = {}
    for i, (name, _) in enumerate(items):
        block = results[i * n : (i + 1) * n]
        groups = [
            block[j * len(seeds) : (j + 1) * len(seeds)]
            for j in range(len(rates))
        ]
        out[name] = [g[0] for g in groups] if replicas == 1 else groups
    return out


def default_rates(mix, num_nodes, points=8, headroom=1.15, pattern=None,
                  routing=None, injection=None):
    """A sensible rate grid from near-zero load past the mix's ceiling.

    With a spatial ``pattern`` and/or a non-default ``routing``
    algorithm, the ceiling comes from the per-algorithm bound of
    :func:`repro.analysis.pattern_limits.pattern_saturation_rate`
    (e.g. the halved permutation channel load of O1TURN, or Valiant's
    2x-uniform load), so the grid brackets where that combination
    actually saturates rather than where uniform XY would.  A bursty
    ``injection`` process saturates at or before the same wall (the
    mean-rate identity of :mod:`repro.analysis.burstiness`), so the
    grid keeps the wall's bracket but is clamped to the largest mean
    rate the process can express (an on-off OFF gap cannot shrink
    below one cycle).
    """
    if pattern is None and routing is None:
        ceiling = mix.saturation_injection_rate(num_nodes)
    else:
        from repro.analysis.pattern_limits import pattern_saturation_rate

        k = math.isqrt(num_nodes)
        if k * k != num_nodes:
            raise ValueError(f"{num_nodes} nodes is not a square mesh")
        ceiling = pattern_saturation_rate(mix, k, pattern, routing)
    top = min(1.0, ceiling * headroom)
    if injection is not None:
        top = min(top, injection.max_rate())
    return [top * (i + 1) / points for i in range(points)]
