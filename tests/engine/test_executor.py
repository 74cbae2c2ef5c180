"""Executor: backend equivalence, robustness, cache counters, sweeps."""

import math
import os
import time

import pytest

from repro.core.presets import proposed_network
from repro.engine import Executor, JobFailure, JobSpec, ResultCache, make_backend
from repro.engine.executor import (
    MAX_LANE_ROUTERS,
    ProcessPoolBackend,
    SerialBackend,
)
from repro.harness import experiments as exp
from repro.harness.sweep import run_sweep, run_sweep_batch
from repro.traffic.mix import MIXED_TRAFFIC, UNIFORM_UNICAST

FAST = dict(warmup=100, measure=300, drain=400)


def make_jobs(rates):
    return [
        JobSpec(
            config=proposed_network(),
            mix=MIXED_TRAFFIC,
            rate=r,
            name="proposed",
            **FAST,
        )
        for r in rates
    ]


class TestBackends:
    def test_make_backend_resolves_names(self):
        assert isinstance(make_backend("serial"), SerialBackend)
        assert isinstance(make_backend("process", workers=2), ProcessPoolBackend)
        with pytest.raises(ValueError):
            make_backend("gpu")
        with pytest.raises(ValueError):
            ProcessPoolBackend(workers=0)

    def test_workers_rejected_on_serial_backend(self):
        # a worker count with the serial backend would be silently
        # ignored; refuse it instead
        with pytest.raises(ValueError):
            Executor(backend="serial", workers=4)

    def test_short_backend_result_is_an_error(self):
        class DroppyBackend:
            name = "droppy"

            def run(self, jobs):
                return [jobs[0].run()]  # silently drops the rest

        ex = Executor(backend=DroppyBackend())
        with pytest.raises(RuntimeError, match="1 results for 2 jobs"):
            ex.run(make_jobs([0.02, 0.05]))

    def test_process_pool_matches_serial(self):
        jobs = make_jobs([0.02, 0.05])
        serial = Executor(backend="serial").run(jobs)
        pooled = Executor(backend="process", workers=2).run(jobs)
        assert [p.to_dict() for p in pooled] == [s.to_dict() for s in serial]

    def test_single_job_short_circuits_pool(self):
        (stats,) = Executor(backend="process", workers=2).run(make_jobs([0.02]))
        assert stats.injection_rate == 0.02


# worker functions for the robustness tests; must be module-level so
# the pool can import them in its workers


def _picky(payload):
    if payload == 2:
        raise ValueError("two is right out")
    return payload * 10


def _fail_once(flag_path):
    if os.path.exists(flag_path):
        return "recovered"
    open(flag_path, "w").close()
    raise RuntimeError("first attempt fails")


def _hang(_payload):
    time.sleep(60)


def _die(_payload):
    os._exit(1)


def _nap(seconds):
    time.sleep(seconds)
    return seconds


def make_bad_backend_job():
    """A JobSpec whose backend name resolves nowhere — the shape of a
    sick deserialized payload (construction bypasses validation the way
    drift across a process boundary would)."""
    good = make_jobs([0.02])[0]
    bad = object.__new__(JobSpec)
    object.__setattr__(bad, "__dict__", dict(good.__dict__))
    object.__setattr__(bad, "backend", "fpga")
    return bad


class _FailingBackend:
    """Stub backend whose every job comes back as a JobFailure."""

    name = "stub"
    retried = 1

    def run(self, jobs):
        return [JobFailure(error="kaboom", attempts=2) for _ in jobs]


class TestRobustness:
    def test_worker_exception_fails_that_job_alone(self):
        backend = ProcessPoolBackend(workers=2, retries=1)
        outcomes, attempts = backend._map(_picky, [1, 2, 3])
        assert outcomes[0] == ("ok", 10)
        assert outcomes[2] == ("ok", 30)
        kind, message = outcomes[1]
        assert kind == "err" and "ValueError" in message
        assert attempts == [1, 2, 1]  # only the sick payload retried
        assert backend.retried == 1

    def test_transient_failure_recovers_on_retry(self, tmp_path):
        backend = ProcessPoolBackend(workers=1, retries=1)
        flag = str(tmp_path / "failed-once")
        outcomes, attempts = backend._map(_fail_once, [flag])
        assert outcomes == [("ok", "recovered")]
        assert attempts == [2]
        assert backend.retried == 1

    def test_hung_worker_times_out(self):
        backend = ProcessPoolBackend(workers=1, timeout=0.5, retries=0)
        outcomes, attempts = backend._map(_hang, [None])
        kind, message = outcomes[0]
        assert kind == "err" and "timed out" in message
        assert attempts == [1]

    def test_crashed_worker_is_contained(self):
        # a worker killed mid-job never resolves its handle; the
        # timeout path catches it and terminate() reaps the pool
        backend = ProcessPoolBackend(workers=1, timeout=1.0, retries=0)
        outcomes, _attempts = backend._map(_die, [None])
        assert outcomes[0][0] == "err"

    def test_run_surfaces_failures_as_jobfailure(self):
        # timeout far below any real job: the run itself is healthy,
        # the budget is exhausted — same code path as a hang
        backend = ProcessPoolBackend(workers=1, timeout=0.001, retries=0)
        (result,) = backend.run(make_jobs([0.02]))
        assert isinstance(result, JobFailure)
        assert result.attempts == 1

    def test_executor_converts_failures_to_failed_stats(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        ex = Executor(backend=_FailingBackend(), cache=cache)
        (stats,) = ex.run(make_jobs([0.02]))
        assert stats.stop_reason == "failed"
        assert stats.injection_rate == 0.02
        assert math.isnan(stats.avg_latency)
        assert math.isnan(stats.delivered_fraction)
        # structured record in the batch summary, nothing cached
        assert ex.last_batch["failures"] == [
            {"job": "proposed", "rate": 0.02, "error": "kaboom", "attempts": 2}
        ]
        assert ex.last_batch["retried"] == 1
        assert cache.stats()["entries"] == 0

    def test_run_profiled_contains_unknown_backend_like_run(self):
        """Regression: ``run_profiled()`` lacked the unknown-backend
        guard that ``run()`` has, so a sick payload crashed a
        telemetry-enabled sweep that a plain sweep survived."""
        bad = make_bad_backend_job()
        backend = SerialBackend()
        (plain,) = backend.run([bad])
        ((profiled, telemetry),) = backend.run_profiled([bad])
        assert isinstance(plain, JobFailure)
        assert isinstance(profiled, JobFailure)
        assert profiled.error == plain.error
        assert "fpga" in profiled.error
        assert bad.cache_key[:12] in profiled.error
        assert telemetry == {"failure": profiled.error, "attempts": 1}

    def test_telemetry_executor_survives_unknown_backend(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        ex = Executor(telemetry=True, cache=cache)
        (stats,) = ex.run([make_bad_backend_job()])
        assert stats.stop_reason == "failed"
        assert len(ex.last_batch["failures"]) == 1
        assert cache.stats()["entries"] == 0  # nothing cached

    def test_backend_knobs_validated(self):
        with pytest.raises(ValueError):
            ProcessPoolBackend(timeout=0)
        with pytest.raises(ValueError):
            ProcessPoolBackend(retries=-1)
        backend = make_backend("process", timeout=30.0, retries=2)
        assert backend.timeout == 30.0 and backend.retries == 2


class TestDispatchDeadlines:
    """The process pool charges each job's wall-clock budget from its
    own dispatch into a free worker slot, never from a shared
    sequential ``get``."""

    def test_healthy_jobs_behind_a_slow_blocker_are_not_timed_out(self):
        """Regression: sequential ``handle.get(self.timeout)`` charged a
        queued job's budget while an over-budget blocker still held the
        only worker, so healthy jobs (0.2s each, 1s budget) came back as
        false timeouts."""
        backend = ProcessPoolBackend(workers=1, timeout=1.0, retries=0)
        outcomes, attempts = backend._map(_nap, [2.2, 0.2, 0.2])
        kind, message = outcomes[0]
        assert kind == "err" and "timed out" in message
        assert outcomes[1] == ("ok", 0.2)
        assert outcomes[2] == ("ok", 0.2)
        assert attempts == [1, 1, 1]

    def test_under_budget_jobs_pass_when_their_sum_exceeds_the_budget(self):
        # three jobs of 0.45s against a 1s per-job budget: the batch
        # takes ~1.35s on one worker, and none of that is any single
        # job's problem (guards against charging from batch submission)
        backend = ProcessPoolBackend(workers=1, timeout=1.0, retries=0)
        outcomes, _attempts = backend._map(_nap, [0.45, 0.45, 0.45])
        assert outcomes == [("ok", 0.45)] * 3

    def test_starved_jobs_lead_the_retry_round(self):
        # a genuinely hung blocker starves the queue past its grace;
        # the starved job must recover in the fresh retry pool, ahead
        # of the blocker that hung it
        backend = ProcessPoolBackend(workers=1, timeout=0.5, retries=1)
        outcomes, attempts = backend._map(_nap, [60, 0.2])
        assert outcomes[0][0] == "err"
        assert outcomes[1] == ("ok", 0.2)
        assert attempts == [2, 2]


class TestCaching:
    def test_counters_track_hits_and_misses(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        jobs = make_jobs([0.02, 0.05])
        ex = Executor(cache=cache)
        first = ex.run(jobs)
        assert (ex.executed, ex.cache_hits, ex.cache_misses) == (2, 0, 2)
        second = ex.run(jobs)
        assert (ex.executed, ex.cache_hits, ex.cache_misses) == (2, 2, 2)
        assert second == first

    def test_partial_hits_preserve_order(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        Executor(cache=cache).run(make_jobs([0.05]))
        ex = Executor(cache=cache)
        results = ex.run(make_jobs([0.02, 0.05, 0.08]))
        assert ex.cache_hits == 1 and ex.executed == 2
        assert [r.injection_rate for r in results] == [0.02, 0.05, 0.08]

    def test_uncached_executor_always_runs(self):
        ex = Executor()
        ex.run(make_jobs([0.02]))
        ex.run(make_jobs([0.02]))
        assert ex.executed == 2 and ex.cache_hits == 0


class TestLaneGrouping:
    """Which cache misses the serial Executor folds into one batched
    array-kernel run (the grouping rule of ``_run_pending``).  The
    kernel itself is stubbed out: these tests are about who shares a
    dispatch, the byte-identity suites are about what comes back."""

    @pytest.fixture
    def dispatches(self, monkeypatch):
        """Every kernel dispatch as the list of ``(seed, rate)`` lanes
        it carried (a solo ``run`` is a one-lane dispatch)."""
        stats = make_jobs([0.02])[0].run()
        calls = []

        def run(job):
            calls.append([(job.seed, job.rate)])
            return stats

        def run_batch(job, lanes):
            calls.append(list(lanes))
            return [stats] * len(lanes)

        monkeypatch.setattr(JobSpec, "run", run)
        monkeypatch.setattr(JobSpec, "run_batch", run_batch)
        return calls

    @staticmethod
    def grid(rates=(0.02, 0.05, 0.08), seeds=(7, 8), **overrides):
        kwargs = dict(config=proposed_network(), mix=UNIFORM_UNICAST,
                      backend="array", **FAST)
        kwargs.update(overrides)
        return [
            JobSpec(rate=r, seed=s, **kwargs) for r in rates for s in seeds
        ]

    def test_a_rate_by_seed_grid_is_one_dispatch(self, dispatches):
        jobs = self.grid()
        Executor().run(jobs)
        assert dispatches == [[(j.seed, j.rate) for j in jobs]]

    @pytest.mark.parametrize("other", [
        dict(measure=301),
        dict(mix=MIXED_TRAFFIC),
        dict(config=proposed_network(k=8)),
        dict(name="other"),
    ])
    def test_anything_but_seed_and_rate_splits_the_group(
        self, dispatches, other
    ):
        Executor().run(self.grid() + self.grid(**other))
        assert [len(lanes) for lanes in dispatches] == [6, 6]

    def test_groups_are_chunked_at_the_lane_router_constant(
        self, dispatches
    ):
        # 16 routers per 4x4 lane, 8x8 lanes carry 64
        per_dispatch = MAX_LANE_ROUTERS // 16
        rates = [i / 1000 for i in range(per_dispatch + 1)]
        Executor().run(self.grid(rates=rates, seeds=(7,)))
        assert [len(lanes) for lanes in dispatches] == [1, per_dispatch]
        dispatches.clear()
        Executor().run(
            self.grid(rates=rates[:17], seeds=(7,),
                      config=proposed_network(k=8))
        )
        assert [len(lanes) for lanes in dispatches] \
            == [1, MAX_LANE_ROUTERS // 64]

    def test_object_and_fault_jobs_are_never_grouped(self, dispatches):
        from repro.noc.faults import make_fault

        jobs = self.grid(backend="object") + self.grid(
            faults=make_fault("biterror")
        )
        Executor().run(jobs)
        assert [len(lanes) for lanes in dispatches] == [1] * len(jobs)

    def test_process_pools_ship_single_jobs(self, dispatches):
        class Pool:
            name = "process"

            def run(self, jobs):
                return [job.run() for job in jobs]

        Executor(backend=Pool()).run(self.grid())
        assert [len(lanes) for lanes in dispatches] == [1] * 6


class TestSweepIntegration:
    def test_run_sweep_default_matches_explicit_serial(self):
        cfg = proposed_network()
        rates = [0.02, 0.05]
        default = run_sweep(cfg, MIXED_TRAFFIC, rates, name="proposed", **FAST)
        explicit = run_sweep(
            cfg,
            MIXED_TRAFFIC,
            rates,
            name="proposed",
            executor=Executor(backend="serial"),
            **FAST,
        )
        assert [d.to_dict() for d in default] == [e.to_dict() for e in explicit]

    def test_run_sweep_batch_matches_individual_sweeps(self):
        from repro.core.presets import baseline_network

        rates = [0.02, 0.05]
        configs = {"proposed": proposed_network(), "baseline": baseline_network()}
        ex = Executor()
        batched = run_sweep_batch(configs, MIXED_TRAFFIC, rates, executor=ex, **FAST)
        assert ex.executed == 4  # one batch, all four points
        for name, cfg in configs.items():
            single = run_sweep(cfg, MIXED_TRAFFIC, rates, name=name, **FAST)
            assert [b.to_dict() for b in batched[name]] == [
                s.to_dict() for s in single
            ]

    def test_fig5_cached_rerun_performs_zero_simulations(self, tmp_path):
        # Acceptance criterion: a cached re-run of the Fig. 5 sweep
        # performs zero new simulations.
        cache = ResultCache(tmp_path / "cache")
        kwargs = dict(rates=[0.02, 0.05], warmup=100, measure=400, drain=500)
        cold = Executor(cache=cache)
        first = exp.fig5_mixed_traffic(executor=cold, **kwargs)
        assert cold.executed == 4  # 2 rates x (proposed + baseline)
        warm = Executor(cache=cache)
        second = exp.fig5_mixed_traffic(executor=warm, **kwargs)
        assert warm.executed == 0
        assert warm.cache_hits == 4
        for series in ("proposed", "baseline"):
            assert [p.to_dict() for p in second[series]] == [
                p.to_dict() for p in first[series]
            ]

    def test_fig5_process_backend_matches_serial(self):
        kwargs = dict(rates=[0.02, 0.05], warmup=100, measure=400, drain=500)
        serial = exp.fig5_mixed_traffic(**kwargs)
        pooled = exp.fig5_mixed_traffic(
            executor=Executor(backend="process", workers=2), **kwargs
        )
        for series in ("proposed", "baseline"):
            assert [p.to_dict() for p in pooled[series]] == [
                p.to_dict() for p in serial[series]
            ]
