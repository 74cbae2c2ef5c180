"""The layer ladder: one fixed set of per-layer probes, CLI import to kernel dispatch.

Every traced run ends with :func:`run`, whatever its workload, so a
per-layer metric means the same thing in every row of a comparison.
Two kinds of rung:

* *direct probes* call public functions of one layer in a loop —
  ``JobSpec.cache_key``, ``ResultCache.put``, ``Simulator.run`` — and
  report time per call or cycles per second;
* *mini sessions* run three of the workloads at smoke scale
  (``replay_cached_cli`` under the span recorder, ``service_closed_loop``
  and ``pool_fanout`` plain) and read per-layer numbers off them: where
  a cached CLI run spends its 0.3 s, what a POST costs, what a pool
  costs to start.

Everything here is host time unless the name says otherwise; the
``sim.fig5.*`` numbers are *simulated* statistics (exactly repeatable
for a seed) taken at the replay session's tiny windows — they are a
behaviour canary, not an accuracy claim.
"""

from __future__ import annotations

import itertools
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

import trace as tracing
import workloads
from workloads import windows

from repro.core.presets import baseline_network, proposed_network
from repro.engine import Executor, JobSpec, ResultCache
from repro.harness import experiments
from repro.harness.sweep import default_rates
from repro.noc.metrics import WindowStats
from repro.noc.simulator import Simulator
from repro.traffic.generators import SyntheticTraffic
from repro.traffic.mix import MIXED_TRAFFIC, UNIFORM_UNICAST

SCALE = workloads.SCALES["smoke"]


def per_call(fn, calls):
    """Seconds per call of ``fn`` over one timed loop of ``calls``."""
    start = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - start) / calls


def median_of(fn, reps):
    """Median seconds of ``reps`` separately timed calls of ``fn``."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def tiny_job(seed, **changes):
    return replace(
        JobSpec(config=proposed_network(), mix=MIXED_TRAFFIC, rate=0.11,
                seed=seed, **windows(SCALE.service)),
        **changes,
    )


# ---------------------------------------------------------- direct probes


def probe_jobspec(seed):
    job = tiny_job(seed)
    data = job.to_dict()
    stats = job.run()
    return {
        "engine.jobspec.cache_key_us": 1e6 * per_call(lambda: job.cache_key, 2000),
        "engine.jobspec.to_dict_us": 1e6 * per_call(job.to_dict, 2000),
        "engine.jobspec.from_dict_us": 1e6 * per_call(
            lambda: JobSpec.from_dict(data), 1000
        ),
        "noc.metrics.stats_roundtrip_us": 1e6 * per_call(
            lambda: WindowStats.from_dict(stats.to_dict()), 2000
        ),
        "harness.default_rates_us": 1e6 * per_call(
            lambda: default_rates(MIXED_TRAFFIC, 16), 500
        ),
    }


def probe_cache(seed, root):
    """512 entries: put, hit, miss, the front door's raw read, the
    flocked counter merge and the occupancy scan."""
    cache = ResultCache(root)
    base = tiny_job(seed)
    stats = base.run()
    jobs = [replace(base, seed=seed + i) for i in range(512)]
    absent = [replace(base, seed=seed + 512 + i) for i in range(512)]
    paths = [cache.path_for(job) for job in jobs]
    jobs_iter, hits, misses, reads = iter(jobs), iter(jobs), iter(absent), iter(paths)
    out = {
        "engine.cache.put_us": 1e6 * per_call(
            lambda: cache.put(next(jobs_iter), stats), 512
        ),
        "engine.cache.get_hit_us": 1e6 * per_call(
            lambda: cache.get(next(hits)), 512
        ),
        "engine.cache.get_miss_us": 1e6 * per_call(
            lambda: cache.get(next(misses)), 512
        ),
        "engine.cache.read_bytes_us": 1e6 * per_call(
            lambda: next(reads).read_bytes(), 512
        ),
    }

    def flush():
        cache.get(base)  # something to merge, as on every POST
        cache.flush_counters()

    out["engine.cache.flush_counters_ms"] = 1e3 * median_of(flush, 15)
    out["engine.cache.stats_ms_at_512"] = 1e3 * median_of(cache.stats, 5)
    occupancy = cache.stats()
    out["engine.cache.entry_bytes"] = occupancy["bytes"] / occupancy["entries"]
    return out


def _loaded(config, mix, rate, seed, **kwargs):
    return Simulator(config, SyntheticTraffic(mix, rate, seed=seed), **kwargs)


def _cycles_per_s(sim, warm, cycles):
    sim.run(warm)
    start = time.perf_counter()
    sim.run(cycles)
    return cycles / (time.perf_counter() - start)


def probe_object_loop(seed):
    out = {
        "noc.simulator.build_ms.k4": 1e3 * median_of(
            lambda: Simulator(proposed_network()), 5
        ),
    }
    for label, config, rate in (
        ("proposed_low", proposed_network(), 0.02),
        ("proposed_sat", proposed_network(), 0.21),
        ("baseline_sat", baseline_network(), 0.21),
    ):
        out[f"noc.simulator.cycles_per_s.{label}"] = _cycles_per_s(
            _loaded(config, MIXED_TRAFFIC, rate, seed), 100, 250
        )
    _stats, telemetry = tiny_job(
        seed, rate=0.21, warmup=50, measure=150, drain=50
    ).run_profiled()
    for phase, share in telemetry["profile"]["phase_share"].items():
        out[f"noc.simulator.phase_share.{phase}"] = share
    return out


def _count_c_calls(fn):
    """Exact number of C-function calls ``fn`` makes (``sys.setprofile``)."""
    calls = 0

    def profiler(_frame, event, _arg):
        nonlocal calls
        if event == "c_call":
            calls += 1

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def probe_array_kernel(seed):
    configs = {k: proposed_network(k=k) for k in (4, 8, 16)}
    out = {}
    for k, config in configs.items():
        out[f"noc.array_backend.build_ms.k{k}"] = 1e3 * median_of(
            lambda: Simulator(config, backend="array"), 3
        )
    uniform_us = {}  # host microseconds per cycle, by radix
    for k, config in configs.items():
        rate = _cycles_per_s(
            _loaded(config, UNIFORM_UNICAST, 0.1, seed, backend="array"),
            40, 160,
        )
        uniform_us[k] = 1e6 / rate
        if k != 4:
            out[f"noc.array_backend.cycles_per_s.k{k}_uniform"] = rate
    for k, mix_rate in ((4, 0.11), (8, 0.04)):
        out[f"noc.array_backend.cycles_per_s.k{k}_mixed"] = _cycles_per_s(
            _loaded(configs[k], MIXED_TRAFFIC, mix_rate, seed, backend="array"),
            40, 160,
        )
    lanes = 4
    batched = _cycles_per_s(
        _loaded(configs[8], UNIFORM_UNICAST, 0.1, seed, backend="array",
                seeds=[seed + i for i in range(lanes)]),
        40, 160,
    )
    out["noc.array_backend.lane_cycles_per_s.k8_b4"] = lanes * batched
    out["noc.array_backend.batch_amortisation.k8_b4"] = (
        lanes * batched / out["noc.array_backend.cycles_per_s.k8_uniform"]
    )
    # least squares of host us/cycle against router count over k=4/8/16:
    # the intercept is numpy dispatch, the slope real per-router work
    xs = [k * k for k in uniform_us]
    ys = list(uniform_us.values())
    slope, intercept = statistics.linear_regression(xs, ys)
    out["noc.array_backend.dispatch_us_per_cycle"] = intercept
    out["noc.array_backend.ns_per_router_cycle"] = 1e3 * slope
    sim = _loaded(configs[8], UNIFORM_UNICAST, 0.1, seed, backend="array")
    sim.run(40)
    out["noc.array_backend.c_calls_per_cycle.k8_uniform"] = (
        _count_c_calls(lambda: sim.run(200)) / 200
    )
    traffic = SyntheticTraffic(UNIFORM_UNICAST, 0.1, seed=seed)
    out["traffic.bind_ms.k8"] = 1e3 * median_of(
        lambda: traffic.bind(configs[8]), 5
    )
    return out


def probe_executor(seed, root):
    """Engine cost around a job that itself costs next to nothing: eight
    one-cycle jobs run directly, then through a cached serial Executor
    (miss, run, put, flush), then two of them through a fresh pool."""
    jobs = [
        tiny_job(seed, rate=rate, warmup=0, measure=1, drain=1)
        for rate in workloads.FIG5_RATES
    ]
    fresh = itertools.count()

    def through_executor():
        cache = ResultCache(root / f"serial{next(fresh)}")
        Executor("serial", cache=cache).run(jobs)

    direct = median_of(lambda: [job.run() for job in jobs], 5)
    engine = median_of(through_executor, 5)
    return {
        "engine.executor.serial_overhead_ms_per_job": (
            1e3 * (engine - direct) / len(jobs)
        ),
        "engine.executor.pool_spinup_ms": 1e3 * median_of(
            lambda: Executor("process", workers=2).run(jobs[:2]), 3
        ),
    }


# ----------------------------------------------------------- mini sessions


def session_replay(seed, work):
    """Three traced cache replays: where a cached CLI run spends its time."""
    replay = workloads.ReplayCachedCli(seed, SCALE, work)
    replay.setup()
    replay.rec = tracing.Recorder()
    for i in range(SCALE.replays):
        with replay.rec.span(tracing.REQUEST):
            replay.request(i)
        replay.requests += 1
    records = workloads.collect_spans(replay, replay.rec)

    def ms(*names):
        """Median over the replays of the named spans' summed duration."""
        per_replay = {}
        for r in records:
            if r["name"] in names:
                root = r
                while root["parent"] is not None:
                    root = records[root["parent"]]
                key = id(root)
                per_replay[key] = per_replay.get(key, 0.0) + r["end"] - r["start"]
        return 1e3 * statistics.median(per_replay.values())

    modules = [
        r["args"]["modules"] for r in records if r["name"] == "engine.cli.import"
    ]
    out = {
        "engine.cli.interp_start_ms": ms("engine.cli.interp_start"),
        "engine.cli.import_ms": ms("engine.cli.import"),
        "engine.cli.modules_imported": statistics.median(modules),
        "engine.cli.parse_ms": ms("engine.cli.build_parser",
                                  "engine.cli.parse_args"),
        "engine.cli.main_cached_ms": ms("engine.cli.main"),
    }
    # the same cached figure in-process: the fold a re-plot pays after import
    warmup, measure, drain = SCALE.replay
    result = {}

    def cached_fig5():
        result.update(experiments.fig5_mixed_traffic(
            warmup=warmup, measure=measure, drain=drain, seed=replay.seed_for(0),
            executor=Executor("serial", cache=ResultCache(replay.caches[0][1])),
        ))

    out["harness.fig5_cached_ms"] = 1e3 * median_of(cached_fig5, 5)
    out["harness.summarize_ms"] = 1e3 * median_of(
        lambda: experiments.summarize_sweeps(result), 5
    )
    summary = experiments.summarize_sweeps(result)
    for name in ("low_load_latency_reduction", "throughput_ratio",
                 "fraction_of_limit"):
        out[f"sim.fig5.{name}"] = summary[name]
    return out, replay.errors


def session_service(seed, work):
    """Two rounds and a short read phase against a fresh app."""
    from repro.service import schemas

    service = workloads.ServiceClosedLoop(seed, SCALE, work)
    service.setup()
    try:
        samples = workloads.drive(service, 0)
    finally:
        service.finish()
    jobs, payload = service.batches[0]
    # the same specs straight through a serial engine: what is left of a
    # round is the service's own cost (queue, worker hand-off, polling)
    fresh = itertools.count()

    def direct_run():
        cache = ResultCache(work / f"direct{next(fresh)}")
        Executor("serial", cache=cache).run(
            [replace(job, backend="array") for job in jobs]
        )

    direct = median_of(direct_run, 2)
    round_wall = statistics.median(wall for wall, _, _ in samples)

    def p(kind, q):
        return 1e3 * percentile(service.latencies[kind], q)

    out = {
        "service.app.create_ms": 1e3 * service.create_seconds,
        "service.schemas.parse_us_per_job": 1e6 * per_call(
            lambda: schemas.parse_sweep_request(payload), 50
        ) / len(jobs),
        "service.blueprint.post_miss_ms_p50": p("post_miss", 0.5),
        "service.blueprint.post_cached_ms_p50": p("post_cached", 0.5),
        "service.blueprint.post_cached_ms_p95": p("post_cached", 0.95),
        "service.blueprint.get_sweep_ms_p50": p("get_sweep", 0.5),
        "service.blueprint.get_result_ms_p50": p("get_result", 0.5),
        "service.blueprint.get_result_ms_p95": p("get_result", 0.95),
        "service.blueprint.cache_stats_ms": p("cache_stats", 0.5),
        "service.blueprint.healthz_ms": p("healthz", 0.5),
        "service.workers.overhead_ms_per_job": (
            1e3 * (round_wall - direct) / len(jobs)
        ),
        "service.workers.executed": service.executed,
        "service.polls_per_sweep": statistics.mean(service.polls),
    }
    return out, service.errors


def session_pool(seed, work):
    """One 24-job batch on the 2-worker pool against the same batch serial."""
    pool = workloads.PoolFanout(seed, SCALE, work)
    pool.setup()
    ((pool_wall, _, _),) = workloads.drive(pool, 0)
    start = time.perf_counter()
    jobs = pool.jobs(0)
    Executor("serial", cache=ResultCache(work / "serial")).run(jobs)
    serial_wall = time.perf_counter() - start
    out = {
        # base: the serial wall over two ideal workers
        "engine.executor.pool_efficiency": serial_wall / (2 * pool_wall),
        "engine.executor.pool_overhead_ms_per_job": (
            1e3 * (pool_wall - serial_wall / 2) / len(jobs)
        ),
        "pool.retried": pool.executors[0].last_batch["retried"],
    }
    return out, pool.errors


def run(seed, work):
    """Every rung; returns ``{metric: value}`` (plus ``pool.retried``,
    which the caller folds into ``engine.executor.retried``)."""
    work = Path(work)
    work.mkdir(parents=True, exist_ok=True)
    base = workloads.job_seed(seed, "ladder")
    out = {}
    out.update(probe_jobspec(base))
    out.update(probe_cache(base, work / "cache"))
    out.update(probe_object_loop(base))
    out.update(probe_array_kernel(base))
    out.update(probe_executor(base, work))
    errors = []
    for session in (session_replay, session_service, session_pool):
        metrics, failed = session(seed, work / session.__name__)
        out.update(metrics)
        errors.extend(failed)
    if errors:
        raise RuntimeError(f"layer ladder session failed: {errors[:3]}")
    return out
