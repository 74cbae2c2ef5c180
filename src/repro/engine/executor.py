"""Batch execution of JobSpecs over pluggable backends.

The :class:`Executor` is the engine's front door: it resolves each job
against the (optional) :class:`~repro.engine.cache.ResultCache`, fans
the misses out to a backend, stores the fresh results and returns
WindowStats in job order.

Two backends ship:

* :class:`SerialBackend` — runs jobs in-process, one after another.
  This is the default and is deterministically identical to the
  pre-engine ``for rate in rates`` loop.
* :class:`ProcessPoolBackend` — a ``multiprocessing`` pool.  Jobs cross
  the process boundary as their serialized dicts (not pickled live
  objects), so a worker reconstructs exactly what a serial run would
  build; results come back the same way.  Because every job simulates a
  fresh network from its own seed, the two backends produce
  byte-identical results.
"""

from __future__ import annotations

import json
import logging
import os
from collections import deque
from dataclasses import dataclass
from time import monotonic, perf_counter, sleep

from repro.engine.jobspec import JobSpec
from repro.noc.metrics import WindowStats

logger = logging.getLogger(__name__)

#: default per-job wall-clock budget of the process backend, generous
#: enough for any paper-methodology point on a slow machine
DEFAULT_JOB_TIMEOUT = 600.0

#: Most routers (lanes x routers per lane) one batched array-kernel
#: dispatch may carry.  The kernel is dispatch-bound, so host time per
#: lane keeps falling as lanes are added (8x8 uniform, ms per lane:
#: 135 / 56 / 42 / 35 at 1 / 4 / 8 / 16 lanes) while memory grows
#: linearly; 1024 keeps a 16-point 8x8 sweep or a 4-point 16x16 one
#: whole and stops a 64-point sweep from ballooning.  A constant read
#: off that curve, not a tunable (DESIGN.md §9).
MAX_LANE_ROUTERS = 1024


@dataclass(frozen=True)
class JobFailure:
    """A job the backend could not complete (crash or timeout).

    Returned by backends in place of WindowStats after the retry
    budget is spent; the :class:`Executor` converts it into a
    ``stop_reason="failed"`` stats record so a sweep survives a sick
    worker instead of raising out of the whole batch.
    """

    error: str
    attempts: int


class SerialBackend:
    """In-process, in-order execution (the deterministic reference)."""

    name = "serial"

    @staticmethod
    def _reject(job):
        """The JobFailure for an unresolvable backend name, else None.

        An unknown backend (a sick deserialized payload) surfaces as a
        structured failure naming the job, not as a traceback out of
        the whole batch; workload-axis rejections still raise like any
        other bad request.  Shared by :meth:`run` and
        :meth:`run_profiled` so a sick payload gets the same containment
        whether or not telemetry is on.
        """
        from repro.noc.backend import resolve_backend

        try:
            resolve_backend(job.backend)
        except ValueError as exc:
            return JobFailure(
                error=f"job {job.cache_key[:12]}: {exc}", attempts=1
            )
        return None

    def run(self, jobs):
        out = []
        for job in jobs:
            failure = self._reject(job)
            out.append(job.run() if failure is None else failure)
        return out

    def run_profiled(self, jobs):
        """Like :meth:`run`, returning ``(stats, telemetry)`` pairs."""
        out = []
        for job in jobs:
            failure = self._reject(job)
            if failure is not None:
                out.append(
                    (failure, {"failure": failure.error, "attempts": 1})
                )
                continue
            out.append(job.run_profiled())
        return out


def _run_payload(payload):
    """Worker entry point: dict in, dict out (must be module-level)."""
    return JobSpec.from_dict(payload).run().to_dict()


def _run_payload_profiled(payload):
    """Worker entry point for telemetry runs: adds worker timing.

    The profile's wall-clock numbers are measured inside the worker;
    ``worker_seconds`` additionally covers the job's deserialize +
    simulate + serialize span, so pool scheduling overhead is the gap
    between it and the executor's batch wall time.
    """
    start = perf_counter()
    stats, telemetry = JobSpec.from_dict(payload).run_profiled()
    telemetry["worker"] = {
        "pid": os.getpid(),
        "worker_seconds": perf_counter() - start,
    }
    return stats.to_dict(), telemetry


def _preload_workers(jobs, profiled=False):
    """Import in the parent what the pool's workers are about to run.

    Pools fork, so a module loaded here is inherited warm by every
    worker of every (retry) pool; left to the workers, each would
    import the simulator stack itself, once per worker per pool.  The
    engine's own imports stop at the value types a cache lookup needs
    (DESIGN.md §2), so a parent that only hashed and missed has loaded
    none of it yet.
    """
    import repro.noc.simulator  # noqa: F401  (every backend's front door)
    import repro.traffic.generators  # noqa: F401
    from repro.noc.backend import resolve_backend

    for name in {job.backend for job in jobs}:
        try:
            resolve_backend(name)
        except ValueError:
            pass  # unknown name: the worker fails that job alone
    if profiled:
        import repro.obs.observer  # noqa: F401


class ProcessPoolBackend:
    """Fan jobs out over a ``multiprocessing`` pool of workers.

    Worker failures are contained, not propagated: a job whose worker
    raises, dies, or exceeds ``timeout`` seconds is retried once (by
    default) in a *fresh* pool — the old pool is terminated, which also
    reaps hung workers — and a job that fails its last attempt comes
    back as a :class:`JobFailure` instead of an exception, so the rest
    of the batch is unaffected.  ``retried`` holds the number of jobs
    of the most recent batch that needed more than one attempt.
    """

    name = "process"

    def __init__(self, workers=None, timeout=DEFAULT_JOB_TIMEOUT, retries=1):
        if workers is not None and workers < 1:
            raise ValueError("worker count must be at least one")
        if timeout is not None and timeout <= 0:
            raise ValueError("job timeout must be positive (or None)")
        if retries < 0:
            raise ValueError("retry count must be non-negative")
        self.workers = workers
        self.timeout = timeout
        self.retries = retries
        #: jobs of the last batch that needed more than one attempt
        self.retried = 0

    def _pool_size(self, n):
        return min(self.workers or os.cpu_count() or 1, n)

    #: how often the dispatch loop polls outstanding handles (seconds)
    POLL_INTERVAL = 0.02

    def _map(self, fn, payloads):
        """Apply ``fn`` to every payload with timeout + retry.

        Returns ``(outcomes, attempts)``: per payload either
        ``("ok", value)`` or ``("err", message)``, plus the attempt
        count.  Uses ``apply_async`` (not ``map``) so one sick payload
        fails alone instead of poisoning its whole chunk.

        Dispatch is *windowed*: at most one in-flight job per pool
        worker, each charged its wall-clock budget from its own
        dispatch (the moment a worker slot was free to take it) — not
        from a shared sequential ``get``, which would falsely time out
        a healthy job queued behind slow ones and, conversely, let a
        late job run past its budget on credit from earlier fast gets.
        """
        import multiprocessing  # only a pool user pays for it

        outcomes = [None] * len(payloads)
        attempts = [0] * len(payloads)
        todo = list(range(len(payloads)))
        for round_no in range(1 + self.retries):
            if not todo:
                break
            if round_no:
                logger.warning(
                    "retrying %d failed job(s) in a fresh pool", len(todo)
                )
            failed = []
            slots = self._pool_size(len(todo))
            pool = multiprocessing.Pool(processes=slots)
            try:
                self._drain(
                    pool, fn, payloads, todo, slots,
                    outcomes, attempts, failed,
                )
            finally:
                # terminate (not close): reaps workers hung past their
                # timeout, so a fresh retry pool starts clean
                pool.terminate()
                pool.join()
            todo = failed
        self.retried = sum(1 for n in attempts if n > 1)
        return outcomes, attempts

    def _drain(self, pool, fn, payloads, todo, slots,
               outcomes, attempts, failed):
        """One round of windowed dispatch + ready-polling over ``pool``.

        A job past its deadline is failed immediately, but its (possibly
        hung) worker is only *presumed* lost: the slot is retired, and
        re-opened if the straggler finishes after all — so one slow job
        delays, but never consumes the budget of, the jobs queued behind
        it.
        """
        pending = deque(todo)
        running = {}  # payload index -> (handle, deadline)
        stragglers = []  # (handle, give_up_at): timed out, maybe hung
        while pending or running:
            while pending and len(running) < slots:
                i = pending.popleft()
                attempts[i] += 1
                deadline = (
                    None if self.timeout is None
                    else monotonic() + self.timeout
                )
                running[i] = (pool.apply_async(fn, (payloads[i],)), deadline)
            progressed = False
            now = monotonic()
            for i, (handle, deadline) in list(running.items()):
                if handle.ready():
                    del running[i]
                    progressed = True
                    try:
                        outcomes[i] = ("ok", handle.get(0))
                    except Exception as exc:
                        outcomes[i] = ("err", f"{type(exc).__name__}: {exc}")
                        failed.append(i)
                elif deadline is not None and now >= deadline:
                    del running[i]
                    progressed = True
                    outcomes[i] = (
                        "err", f"timed out after {self.timeout:g}s"
                    )
                    failed.append(i)
                    # the worker gets two more full budgets to prove it
                    # is slow rather than hung; until then its slot is
                    # retired so queued jobs are not dispatched into a
                    # possibly-dead worker's shadow
                    stragglers.append((handle, now + 2 * self.timeout))
                    slots -= 1
            for entry in list(stragglers):
                handle, give_up_at = entry
                if handle.ready():
                    stragglers.remove(entry)
                    slots += 1  # slow, not hung: re-open the slot
                    progressed = True
                elif now >= give_up_at:
                    stragglers.remove(entry)  # hung: slot stays retired
                    progressed = True
            if slots < 1 and not stragglers and pending and not running:
                # every worker is hung past its grace: fail the queue
                # rather than wait forever.  The starved jobs go to the
                # *front* of the retry order so the fresh pool runs them
                # before re-attempting the jobs that actually hung it.
                starved = []
                while pending:
                    i = pending.popleft()
                    attempts[i] += 1
                    outcomes[i] = (
                        "err", "every pool worker is hung past its "
                        "job timeout",
                    )
                    starved.append(i)
                failed[:0] = starved
                return
            if not progressed:
                sleep(self.POLL_INTERVAL)

    def run(self, jobs):
        jobs = list(jobs)
        _preload_workers(jobs)
        outcomes, attempts = self._map(
            _run_payload, [job.to_payload() for job in jobs]
        )
        return [
            WindowStats.from_dict(value)
            if kind == "ok"
            else JobFailure(error=value, attempts=attempts[i])
            for i, (kind, value) in enumerate(outcomes)
        ]

    def run_profiled(self, jobs):
        """Like :meth:`run`, returning ``(stats, telemetry)`` pairs.

        Retries surface in the telemetry (an ``attempts`` key appears
        whenever a job needed more than one), so cache sidecars record
        which points had a flaky first run.
        """
        jobs = list(jobs)
        _preload_workers(jobs, profiled=True)
        outcomes, attempts = self._map(
            _run_payload_profiled, [job.to_payload() for job in jobs]
        )
        out = []
        for i, (kind, value) in enumerate(outcomes):
            if kind != "ok":
                failure = JobFailure(error=value, attempts=attempts[i])
                out.append(
                    (failure, {"failure": value, "attempts": attempts[i]})
                )
                continue
            stats_dict, telemetry = value
            telemetry = dict(telemetry)
            if attempts[i] > 1:
                telemetry["attempts"] = attempts[i]
            out.append((WindowStats.from_dict(stats_dict), telemetry))
        return out


_BACKENDS = {
    "serial": SerialBackend,
    "process": ProcessPoolBackend,
}


def make_backend(name, workers=None, timeout=DEFAULT_JOB_TIMEOUT, retries=1):
    """Instantiate a backend by name ('serial' or 'process')."""
    try:
        backend_cls = _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; choose from {sorted(_BACKENDS)}"
        ) from None
    if backend_cls is ProcessPoolBackend:
        return backend_cls(workers=workers, timeout=timeout, retries=retries)
    if workers is not None:
        raise ValueError(
            f"a worker count only applies to the process backend, "
            f"not {name!r}"
        )
    return backend_cls()


def _failure_stats(job, failure):
    """The ``stop_reason="failed"`` record standing in for a job the
    backend gave up on: NaN metrics, never cached."""
    nan = float("nan")
    return WindowStats(
        config_name=job.name,
        injection_rate=job.rate,
        cycles=0,
        messages_measured=0,
        avg_latency=nan,
        avg_latency_by_kind={},
        received_flits=0,
        throughput_flits_per_cycle=nan,
        throughput_gbps=nan,
        bypass_fraction=nan,
        incomplete_messages=0,
        stop_reason="failed",
        delivered_fraction=nan,
    )


class Executor:
    """Maps batches of JobSpecs to WindowStats, with optional caching.

    Counters (reset never; read them between batches):

    * ``cache_hits`` — jobs answered from the cache,
    * ``cache_misses`` — jobs not found in the cache,
    * ``executed`` — simulations actually run (== misses).

    With ``telemetry=True`` each fresh job runs with the phase profiler
    attached and its run telemetry is stored in the cache's
    ``.telemetry`` sidecar (when a cache is present).  Results stay
    byte-identical either way — telemetry is observation, not state —
    and ``last_batch`` summarises the most recent :meth:`run`.
    """

    def __init__(self, backend="serial", workers=None, cache=None,
                 telemetry=False):
        if isinstance(backend, str):
            backend = make_backend(backend, workers=workers)
        self.backend = backend
        self.cache = cache
        self.telemetry = telemetry
        self.cache_hits = 0
        self.cache_misses = 0
        self.executed = 0
        #: summary of the most recent batch (None before the first)
        self.last_batch = None

    def run(self, jobs):
        """Execute a batch; returns WindowStats in the order of ``jobs``."""
        start = perf_counter()
        jobs = list(jobs)
        results = [None] * len(jobs)
        pending, pending_at = [], []
        for i, job in enumerate(jobs):
            cached = self.cache.get(job) if self.cache is not None else None
            if cached is not None:
                self.cache_hits += 1
                results[i] = cached
            else:
                self.cache_misses += 1
                pending.append(job)
                pending_at.append(i)
        telemetries = None
        if not pending:
            fresh = []
        elif self.telemetry:
            pairs = self.backend.run_profiled(pending)
            fresh = [stats for stats, _telemetry in pairs]
            telemetries = [telemetry for _stats, telemetry in pairs]
        else:
            fresh = self._run_pending(pending)
        if len(fresh) != len(pending):
            raise RuntimeError(
                f"backend {getattr(self.backend, 'name', self.backend)!r} "
                f"returned {len(fresh)} results for {len(pending)} jobs"
            )
        self.executed += len(pending)
        failures = []
        for n, (i, job, stats) in enumerate(zip(pending_at, pending, fresh)):
            if isinstance(stats, JobFailure):
                # structured failure record, not an unhandled exception:
                # the rest of the sweep stands, nothing gets cached
                failures.append(
                    {
                        "job": job.name or job.cache_key[:12],
                        "rate": job.rate,
                        "error": stats.error,
                        "attempts": stats.attempts,
                    }
                )
                logger.warning(
                    "job %s (rate %g) failed after %d attempt(s): %s",
                    job.name or job.cache_key[:12], job.rate,
                    stats.attempts, stats.error,
                )
                results[i] = _failure_stats(job, stats)
                continue
            if self.cache is not None:
                self.cache.put(job, stats)
                if telemetries is not None:
                    self.cache.put_telemetry(job, telemetries[n])
            results[i] = stats
        if self.cache is not None:
            self.cache.flush_counters()
        wall = perf_counter() - start
        self.last_batch = {
            "jobs": len(jobs),
            "hits": len(jobs) - len(pending),
            "executed": len(pending),
            "backend": getattr(self.backend, "name", str(self.backend)),
            "wall_seconds": wall,
            "failures": failures,
            "retried": getattr(self.backend, "retried", 0),
        }
        logger.debug(
            "batch of %d jobs: %d cached, %d executed on %s in %.2fs",
            len(jobs), len(jobs) - len(pending), len(pending),
            self.last_batch["backend"], wall,
        )
        return results

    def _run_pending(self, pending):
        """Dispatch cache misses, batching lane groups on the way.

        Serial array-backend fault-free jobs that differ *only* by seed
        and rate — the replicas and the rate grid of one sweep — run as
        lanes of one batched kernel pass (:meth:`JobSpec.run_batch`),
        at most :data:`MAX_LANE_ROUTERS` routers' worth per dispatch;
        the fan-in yields one ordinary result per job, so the caller
        stores each lane under its normal single-job content address —
        batching, like backend, never enters job identity.  Everything
        else (process pools, object-backend jobs, one-lane chunks)
        takes the plain backend path.
        """
        if getattr(self.backend, "name", "") != "serial" \
                or len(pending) < 2:
            return self.backend.run(pending)
        groups = {}
        for i, job in enumerate(pending):
            if job.backend == "array" and job.faults is None:
                payload = job.to_payload()
                del payload["seed"], payload["rate"]
                key = json.dumps(payload, sort_keys=True)
            else:
                key = i  # unique key: never grouped
            groups.setdefault(key, []).append(i)
        chunks = []
        for idxs in groups.values():
            routers = pending[idxs[0]].config.num_nodes
            lanes = max(1, MAX_LANE_ROUTERS // routers)
            chunks.extend(
                idxs[at:at + lanes] for at in range(0, len(idxs), lanes)
            )
        results = [None] * len(pending)
        solo = [idxs[0] for idxs in chunks if len(idxs) == 1]
        for i, stats in zip(
            solo, self.backend.run([pending[i] for i in solo])
        ):
            results[i] = stats
        for idxs in chunks:
            if len(idxs) == 1:
                continue
            lanes = pending[idxs[0]].run_batch(
                [(pending[i].seed, pending[i].rate) for i in idxs]
            )
            for i, stats in zip(idxs, lanes):
                results[i] = stats
        return results

    def run_one(self, job):
        """Convenience wrapper: execute a single job."""
        return self.run([job])[0]
