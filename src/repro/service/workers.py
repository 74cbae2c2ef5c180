"""Sweep bookkeeping and the background worker pool (Flask-free).

The service keeps its *own* state deliberately small: an in-memory
:class:`SweepStore` of submitted batches and a :class:`WorkerPool` of
daemon threads draining a queue through the ordinary engine
:class:`~repro.engine.executor.Executor`.  The durable state is the
content-addressed cache itself — restarting the service forgets sweep
ids but loses no computed result, and a re-POST of the same batch is
answered from the cache.

Each worker thread owns a private ``ResultCache`` handle and
``Executor`` over the *shared* cache root — deliberately the
multiple-executors/one-root topology that the engine's concurrency
hardening (the ``flock``-guarded counter merge, vanished-file-tolerant
``stats()``) exists for.  Results land under their normal content
addresses via ``Executor``'s ordinary put path, so service-computed and
CLI-computed entries are byte-identical and mutually cache-visible.
"""

from __future__ import annotations

import itertools
import logging
import queue
import threading
from dataclasses import replace

from repro.engine.cache import ResultCache
from repro.engine.executor import Executor

logger = logging.getLogger(__name__)

#: job lifecycle states, as served by ``GET /sweeps/<id>``
CACHED = "cached"    # answered from the cache at submission time
QUEUED = "queued"    # waiting for a worker
RUNNING = "running"  # on a worker now
DONE = "done"        # simulated and stored under its content address
FAILED = "failed"    # the backend gave up (structured JobFailure)

_SENTINEL = object()


class JobRecord:
    """One job of a submitted sweep: spec + content address + status.

    Mutated only under the owning :class:`SweepStore`'s lock.
    """

    __slots__ = ("spec", "key", "status", "error")

    def __init__(self, spec, status):
        self.spec = spec
        self.key = spec.cache_key
        self.status = status
        self.error = None


class SweepStore:
    """Thread-safe registry of submitted sweeps (in-memory)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._sweeps = {}
        self._ids = itertools.count(1)

    def create(self, records):
        """Register a batch; returns its sweep id."""
        with self._lock:
            sweep_id = f"sweep-{next(self._ids)}"
            self._sweeps[sweep_id] = list(records)
            return sweep_id

    def records(self, sweep_id):
        """The sweep's JobRecords (the live objects), or None."""
        with self._lock:
            records = self._sweeps.get(sweep_id)
            return None if records is None else list(records)

    def mark(self, record, status, error=None):
        with self._lock:
            record.status = status
            record.error = error


class WorkerPool:
    """Daemon threads draining queued jobs through the engine.

    A worker takes the job it dequeued *plus whatever else is queued at
    that instant* and hands them to one ``Executor.run``, so a posted
    rate grid reaches the array kernel as one lane group instead of one
    dispatch-bound run per job (DESIGN.md §10).

    ``executor``/``backend``/``exec_workers`` mirror the CLI's
    ``--executor``/``--backend``/``--workers`` axes: each thread builds
    ``Executor(backend=executor, workers=exec_workers, cache=...)`` at
    start-up, and jobs submitted with the default simulation backend
    run on the pool's configured one (an execution detail — the result
    bytes and content address are identical on every backend that
    accepts the job, so the choice never enters identity).

    ``executor_factory`` is an injection seam for tests: a callable
    ``(cache) -> Executor``-like object.
    """

    def __init__(self, cache_root, store, workers=2, executor="serial",
                 backend="object", exec_workers=None, telemetry=False,
                 executor_factory=None):
        if workers < 1:
            raise ValueError("worker count must be at least one")
        self.cache_root = cache_root
        self.store = store
        self.backend = backend
        self._queue = queue.Queue()
        self._lock = threading.Lock()
        self._executed = 0
        self._factory = executor_factory or (
            lambda cache: Executor(
                backend=executor,
                workers=exec_workers,
                cache=cache,
                telemetry=telemetry,
            )
        )
        self._threads = [
            threading.Thread(
                target=self._loop, name=f"repro-sweep-worker-{n}",
                daemon=True,
            )
            for n in range(workers)
        ]

    def start(self):
        for thread in self._threads:
            thread.start()
        return self

    @property
    def workers(self):
        return len(self._threads)

    @property
    def queue_depth(self):
        """Jobs waiting for a worker (approximate, like any queue size)."""
        return self._queue.qsize()

    @property
    def executed(self):
        """Simulations actually run by this pool (not cache hits)."""
        with self._lock:
            return self._executed

    def submit(self, record):
        self.store.mark(record, QUEUED)
        self._queue.put(record)

    def stop(self, timeout=10.0):
        """Drain-free shutdown: workers exit after their current batch."""
        for _ in self._threads:
            self._queue.put(_SENTINEL)
        for thread in self._threads:
            thread.join(timeout)

    # ------------------------------------------------------------- worker

    def _loop(self):
        # per-thread cache handle + executor over the shared root; the
        # flock'd counter merge keeps the siblings' tallies intact
        cache = ResultCache(self.cache_root)
        executor = self._factory(cache)
        while True:
            # the record we waited for plus whatever else is queued right
            # now: the executor folds array jobs that differ by seed and
            # rate into one kernel run
            batch = []
            record = self._queue.get()
            while record is not _SENTINEL:
                batch.append(record)
                try:
                    record = self._queue.get_nowait()
                except queue.Empty:
                    break
            if batch:
                self._run_contained(executor, batch)
            if record is _SENTINEL:
                return

    def _run_contained(self, executor, batch):
        """Run ``batch``; an exception escaping it (not a structured
        ``JobFailure``) re-runs its jobs one by one, so only the job
        that raises fails and the worker lives on."""
        try:
            self._run(executor, batch)
        except Exception as exc:  # a worker must never die silently
            if len(batch) > 1:
                logger.exception(
                    "sweep worker failed on a batch of %d jobs; running "
                    "them one by one", len(batch),
                )
                for record in batch:
                    self._run_contained(executor, [record])
                return
            (record,) = batch
            logger.exception("sweep worker failed on %s", record.key[:12])
            self.store.mark(
                record, FAILED, error=f"{type(exc).__name__}: {exc}"
            )

    def _run(self, executor, batch):
        """One ``executor.run`` over ``batch``; each record ends ``done``
        or, on a structured ``JobFailure``, ``failed`` on its own."""
        specs = []
        for record in batch:
            self.store.mark(record, RUNNING)
            spec = record.spec
            if spec.backend == "object" and self.backend != "object":
                # run on the pool's configured kernel; identity unchanged
                spec = replace(spec, backend=self.backend)
            specs.append(spec)
        before = executor.executed
        results = executor.run(specs)
        with self._lock:
            self._executed += executor.executed - before
        # failure records come in job order, one per failed result
        failures = iter((executor.last_batch or {}).get("failures", []))
        for record, stats in zip(batch, results):
            if stats.stop_reason == "failed":
                error = next(failures, {}).get("error", "job failed")
                self.store.mark(record, FAILED, error=error)
                logger.warning("job %s failed: %s", record.key[:12], error)
            else:
                self.store.mark(record, DONE)
