"""The five workloads of the end-to-end benchmark, run one per child interpreter.

``run.py`` starts this file once per run (``python workloads.py
--workload W --seed N ...``) with a pinned environment; the last line
of stdout is one JSON object with the workload's measurements.  The
program under test sees only generated inputs: every workload turns
``--seed`` into job seeds with :func:`job_seed` and hands the engine
ordinary ``JobSpec`` values (or the CLI an ordinary ``--seed``).

A workload is a *request* repeated for ``--seconds``: a cold ``repro
figure fig5`` subprocess, one engine sweep, a cached CLI replay, one
POST-to-complete service round, one process-pool batch.  Each request
is timed (wall and CPU of the process tree); the results every request
left behind are read back through ``ResultCache.get`` / ``GET
/results/<key>`` afterwards, outside the timed region, and checked
against ``expected.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, fields, replace
from pathlib import Path

# run as a script, so the sibling trace.py (not the stdlib module of
# that name) is first on sys.path
import trace as tracing

from repro.core.presets import proposed_network
from repro.engine import Executor, JobSpec, ResultCache
from repro.noc.metrics import WindowStats
from repro.traffic.mix import MIXED_TRAFFIC, UNIFORM_UNICAST

HERE = Path(__file__).resolve().parent

#: the seed ``expected.json`` pins digests for
DEFAULT_SEED = 1

#: Job seeds are drawn from [1, 2**30].  PRBSGenerator refuses a zero
#: register and any state >= 2**31, node ``n`` runs at ``seed + n``,
#: and replicas and service rounds add strides on top — so the draw
#: leaves a factor of two of headroom.  (Found while sizing: ``seed=0``
#: and seeds just under 2**31 pass JobSpec validation but die at bind;
#: see README "known gaps".)
MAX_JOB_SEED = 2**30

#: fig5's default rate grid (4x4 mixed, low load through saturation)
FIG5_RATES = (0.02, 0.05, 0.08, 0.11, 0.14, 0.16, 0.18, 0.21)


def job_seed(seed, salt="e2e"):
    """The base job seed for workload seed ``seed``: any int in, a
    seed no simulator layer can reject out."""
    return random.Random(f"{salt}:{seed}").randrange(1, MAX_JOB_SEED + 1)


@dataclass(frozen=True)
class Scale:
    """Cycle windows and request counts of one benchmark size."""

    fig5: tuple  # (warmup, measure, drain) of fig5_cold_object
    sweep: tuple  # ... of sweep_cold_array
    replay: tuple  # ... of the cache replay_cached_cli replays
    service: tuple
    pool: tuple
    replays: int  # least CLI replays per run
    rounds: int  # least service rounds per run
    reads: tuple  # service read phase: (cached POSTs, result GETs, stats GETs)


SCALES = {
    "full": Scale(
        fig5=(80, 320, 320), sweep=(60, 240, 240), replay=(20, 60, 60),
        service=(100, 300, 300), pool=(60, 240, 240),
        replays=5, rounds=3, reads=(400, 2000, 20),
    ),
    # windows shrunk ~10x, 2 rounds, 3 replays: the tier-1 smoke test
    # and the mini sessions of the layer ladder
    "smoke": Scale(
        fig5=(10, 30, 30), sweep=(10, 30, 30), replay=(10, 30, 30),
        service=(10, 30, 30), pool=(10, 30, 30),
        replays=3, rounds=2, reads=(20, 60, 2),
    ),
}


def windows(triple):
    return dict(zip(("warmup", "measure", "drain"), triple))


def cpu_seconds():
    """User+sys CPU of this process and of every reaped descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def floor_quartile(values):
    """The lower quartile of per-request samples.

    Interference on a shared box only ever adds time, and it comes in
    bursts shorter than a run: while sizing, the *median* of ~40
    identical cache replays moved 10% between runs, their lower quartile
    2%.  (The median is still right for set-up, measured 3 times.)
    """
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def peak_rss_mb():
    """Largest resident set of this interpreter or any reaped
    descendant (``ru_maxrss`` is KiB on Linux)."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


# ------------------------------------------------------------ output check


def stats_digest(stats):
    """SHA-256 of a job's canonical ``stats`` JSON (non-finite floats as
    null, exactly as the cache stores them)."""

    def finite(value):
        if isinstance(value, dict):
            return {k: finite(v) for k, v in value.items()}
        if isinstance(value, float) and not math.isfinite(value):
            return None
        return value

    text = json.dumps(finite(stats), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


_STATS_FIELDS = frozenset(f.name for f in fields(WindowStats))


def check_result(job, stats, pins):
    """Why ``stats`` (a stats dict, or None for a missing entry) is not
    an acceptable result for ``job``; None when it is.

    ``pins`` maps content address to digest at the pinned seed and is
    None elsewhere, where the check is structural.
    """
    if stats is None:
        return "missing entry"
    if set(stats) != _STATS_FIELDS:
        return "stats fields differ from WindowStats"
    if stats["stop_reason"] in ("failed", "watchdog"):
        return f"stop_reason {stats['stop_reason']}"
    if stats["cycles"] != job.measure or stats["injection_rate"] != job.rate:
        return "stats do not describe the job's window"
    if stats["received_flits"] < 0 or stats["messages_measured"] < 0:
        return "negative traffic counts"
    if pins is not None:
        want = pins.get(job.cache_key)
        if want is None:
            return "content address is not pinned"
        if want != stats_digest(stats):
            return "digest differs from the pinned one"
    return None


# --------------------------------------------------------------- workloads


class Workload:
    """One request shape, its set-up and the results it leaves behind."""

    name = ""
    #: fewest requests in a timed phase
    min_requests = 1
    #: operating points one request must leave in its cache
    points_per_request = 0
    #: which trace wrappers the workload needs (see trace.install)
    array = service = False
    #: leading requests whose results expected.json pins; a run is as
    #: many requests as fit its seconds, and the rest are checked
    #: structurally
    pinned_requests = 2
    #: whether request ``i`` can run again (fresh cache, same seeds): the
    #: traced phase then repeats the untraced phase's requests, so the
    #: tracing overhead compares equal work
    repeatable = True

    def __init__(self, seed, scale, work):
        self.seed = seed
        self.scale = scale
        self.work = Path(work)
        self.work.mkdir(parents=True, exist_ok=True)
        self.rec = None  # a tracing.Recorder during the traced phase
        self.requests = 0
        self.attempted = 0  # operations beyond result checks
        self.errors = []
        self.caches = []  # (request, cache dir) to check afterwards
        self.executors = []
        self.child_spans = []  # (request span, a traced CLI child's records)

    def span(self, name, request=None):
        if self.rec is None:
            return nullcontext()
        return self.rec.span(name, request)

    def op(self, ok, what):
        """Count one attempted operation; record it when it failed."""
        self.attempted += 1
        if not ok:
            self.errors.append(what)

    def seed_for(self, request, part=0):
        """The job seed of part ``part`` of request ``request``.

        Every request (and, where the harness builds the JobSpecs, every
        job) draws its own seed: host time per request moves ~7% with
        the traffic a seed happens to generate, and only independent
        draws let one run average that out.
        """
        return job_seed(self.seed, f"{self.name}:{request}:{part}")

    def setup(self):
        """Everything before the timed region."""

    def request(self, i):
        """One timed request; may return its own request-wall seconds."""
        raise NotImplementedError

    def after_requests(self):
        """Timed work after the request loop (the service's read phase)."""

    def finish(self):
        """Release what setup acquired."""

    def fresh_cache(self, request):
        path = self.work / f"cache{len(self.caches)}"
        self.caches.append((request, path))
        return path

    def results(self):
        """``(request, job, stats dict or None)`` for every point to check.

        Default: every entry of every cache dir, read back through
        ``ResultCache.get`` under the JobSpec the entry itself names; a
        dir short of ``points_per_request`` entries yields the gap as
        missing results.
        """
        for request, root in self.caches:
            cache = ResultCache(root)
            found = 0
            for path in sorted(Path(root).glob("*.json")):
                with open(path) as fh:
                    job = JobSpec.from_dict(json.load(fh)["job"])
                got = cache.get(job)
                found += 1
                yield request, job, None if got is None else got.to_dict()
            for _ in range(self.points_per_request - found):
                yield request, None, None

    # ------------------------------------------------------ CLI plumbing

    def cli(self, argv, expect):
        """Run ``python -m repro <argv>`` to completion and check it.

        Under tracing the child starts through ``trace.py`` instead and
        its spans are grafted beneath the current request span.
        ``expect`` is the text the ``[engine]`` summary line must hold.
        """
        if self.rec is None:
            cmd = [sys.executable, "-m", "repro", *argv]
        else:
            spans = self.work / f"spans{self.requests}.jsonl"
            cmd = [sys.executable, str(HERE / "trace.py"), str(spans),
                   repr(time.time()), *argv]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        exited = time.time()
        ok = (
            proc.returncode == 0
            and expect in proc.stderr
            and "throughput_ratio" in proc.stdout
        )
        self.op(ok, f"repro {' '.join(argv[:2])}: exit {proc.returncode}, "
                    f"stderr {proc.stderr.strip()[-200:]!r}")
        if self.rec is not None and spans.exists():
            children = tracing.read_jsonl(spans)
            # what the child could not record itself: its own teardown
            children.append(
                {"name": "engine.cli.interp_exit", "parent": None,
                 "start": max(r["end"] for r in children), "end": exited,
                 "request": None, "thread": "MainThread"}
            )
            self.child_spans.append((self.rec.current(), children))

    def fig5_argv(self, triple, request):
        warmup, measure, drain = triple
        return [
            "figure", "fig5", "--warmup", str(warmup), "--measure",
            str(measure), "--drain", str(drain), "--seed",
            str(self.seed_for(request)),
            "--cache-dir", str(self.fresh_cache(request)),
        ]


class Fig5ColdObject(Workload):
    """The paper's exhibit exactly as a user types it, cache empty."""

    name = "fig5_cold_object"
    points_per_request = 16

    def request(self, i):
        self.cli(self.fig5_argv(self.scale.fig5, i), "executed=16 cache_hits=0")


class ReplayCachedCli(Workload):
    """Re-plotting: the same command, every point a cache hit."""

    name = "replay_cached_cli"
    points_per_request = 16

    def __init__(self, *args):
        super().__init__(*args)
        self.min_requests = self.scale.replays

    def setup(self):
        self.argv = self.fig5_argv(self.scale.replay, 0)
        # fill through the CLI itself (on the object loop: fig5's baseline
        # half replicates broadcasts, which the array kernel rejects)
        self.cli(self.argv, "executed=16 cache_hits=0")

    def request(self, i):
        self.cli(self.argv, "executed=0 cache_hits=16")

    def results(self):
        # every replay served the same 16 entries, all of them pinned
        for _ in range(self.requests):
            yield from super().results()


class SweepColdArray(Workload):
    """The fast path: three array-kernel sweeps through a cached serial
    executor — batched replicas, multicast passes, large radix."""

    name = "sweep_cold_array"
    points_per_request = 22
    array = True

    def setup(self):
        # set-up holds the imports and numpy's first touch of the kernel,
        # so the first timed sweep is like the rest
        from repro.harness import sweep

        self.sweep = sweep  # called through the module: trace wraps it there
        JobSpec(config=proposed_network(), mix=UNIFORM_UNICAST, rate=0.1,
                seed=self.seed_for(0), warmup=0, measure=1, drain=1,
                backend="array").run()

    def request(self, i):
        sweep = self.sweep
        executor = Executor("serial", cache=ResultCache(self.fresh_cache(i)))
        self.executors.append(executor)
        common = dict(
            executor=executor, backend="array", **windows(self.scale.sweep)
        )
        k8, k16 = proposed_network(k=8), proposed_network(k=16)
        sweep.run_sweep_replicated(
            k8, UNIFORM_UNICAST, [0.1, 0.2, 0.3, 0.4], 4,
            seed=self.seed_for(i, 0), **common,
        )
        sweep.run_sweep(
            k8, MIXED_TRAFFIC, sweep.default_rates(MIXED_TRAFFIC, 64, points=4),
            seed=self.seed_for(i, 1), **common,
        )
        sweep.run_sweep(
            k16, UNIFORM_UNICAST, [0.08, 0.2], seed=self.seed_for(i, 2), **common
        )


class PoolFanout(Workload):
    """The object loop fanned over a 2-worker process pool."""

    name = "pool_fanout"
    points_per_request = 24

    def jobs(self, i):
        """Request ``i``'s batch: fig5's 8 rates x 3 replicas."""
        return [
            JobSpec(config=proposed_network(), mix=MIXED_TRAFFIC, rate=rate,
                    seed=self.seed_for(i, 3 * r + replica),
                    **windows(self.scale.pool))
            for r, rate in enumerate(FIG5_RATES)
            for replica in range(3)
        ]

    def setup(self):
        # one throwaway pool, so the first timed batch does not also pay
        # for first-touch of the fork and pickle paths
        Executor("process", workers=2).run(
            [replace(job, warmup=1, measure=1, drain=1)
             for job in self.jobs(0)[:2]]
        )

    def request(self, i):
        executor = Executor(
            "process", workers=2, cache=ResultCache(self.fresh_cache(i))
        )
        self.executors.append(executor)
        executor.run(self.jobs(i))


class ServiceClosedLoop(Workload):
    """One closed-loop client against the sweep service: compute rounds
    (POST 8 fresh jobs, poll to complete, GET the results, re-POST),
    then a read phase over everything computed so far."""

    name = "service_closed_loop"
    points_per_request = 8
    array = service = True
    repeatable = False  # one app, one cache: a round's jobs are fresh once
    POLL_SECONDS = 0.010
    pinned_requests = 4

    def __init__(self, *args):
        super().__init__(*args)
        self.min_requests = self.scale.rounds
        self.latencies = {}  # call kind -> [seconds]
        self.fetched = []  # (round, job, raw entry bytes or None)
        self.polls = []
        self.batches = []  # per round: (jobs, POST body)

    def setup(self):
        from repro.service import create_app

        start = time.perf_counter()
        self.app = create_app(
            cache_root=self.fresh_cache(0), workers=1, backend="array"
        )
        self.create_seconds = time.perf_counter() - start
        self.client = self.app.test_client()

    def call(self, kind, method, url, want, request=None, **kwargs):
        """One timed, span-wrapped test-client call; checks the status."""
        with self.span(f"service.blueprint.{kind}", request):
            start = time.perf_counter()
            response = getattr(self.client, method)(url, **kwargs)
            self.latencies.setdefault(kind, []).append(
                time.perf_counter() - start
            )
        self.op(response.status_code == want,
                f"{method.upper()} {url}: HTTP {response.status_code}")
        return response

    def post(self, kind, payload):
        body = self.call(kind, "post", "/sweeps", 201, json=payload).get_json()
        statuses = {job["status"] for job in body["jobs"]}
        if kind == "post_cached":
            self.op(statuses == {"cached"},
                    f"re-POST of {body['id']} not all cached: {statuses}")
        return body

    def fetch(self, kind, round_no, job):
        response = self.call(
            kind, "get", f"/results/{job.cache_key}", 200,
            request=job.cache_key,
        )
        self.fetched.append(
            (round_no, job,
             response.data if response.status_code == 200 else None)
        )

    def request(self, i):
        jobs = [
            JobSpec(config=proposed_network(), mix=MIXED_TRAFFIC, rate=rate,
                    seed=self.seed_for(i, j), **windows(self.scale.service))
            for j, rate in enumerate(FIG5_RATES)
        ]
        payload = {"jobs": [job.to_dict() for job in jobs]}
        self.batches.append((jobs, payload))
        start = time.perf_counter()
        sweep_id = self.post("post_miss", payload)["id"]
        polls = 0
        while True:
            polls += 1
            body = self.call(
                "get_sweep", "get", f"/sweeps/{sweep_id}", 200,
                request=sweep_id,
            ).get_json()
            if body["summary"]["complete"]:
                break
            with self.span("service.workers.wait", sweep_id):
                time.sleep(self.POLL_SECONDS)
        wall = time.perf_counter() - start
        self.polls.append(polls)
        self.op(body["summary"]["done"] == len(jobs),
                f"{sweep_id}: {body['summary']}")
        for job in jobs:
            self.fetch("get_result_round", i, job)
        self.post("post_cached", payload)
        return wall

    def after_requests(self):
        posts, gets, stats = self.scale.reads
        rng = random.Random(self.seed)
        for _ in range(posts):
            self.post("post_cached", rng.choice(self.batches)[1])
        every = [
            (i, job) for i, (jobs, _) in enumerate(self.batches) for job in jobs
        ]
        for _ in range(gets):
            self.fetch("get_result", *rng.choice(every))
        for _ in range(stats):
            self.call("cache_stats", "get", "/cache/stats", 200)
            self.call("healthz", "get", "/healthz", 200)

    def finish(self):
        state = self.app.extensions["repro"]
        self.executed = state.pool.executed
        state.shutdown()

    def results(self):
        for round_no, job, payload in self.fetched:
            stats = None if payload is None else json.loads(payload)["stats"]
            yield round_no, job, stats


WORKLOADS = {
    cls.name: cls
    for cls in (Fig5ColdObject, SweepColdArray, ReplayCachedCli,
                ServiceClosedLoop, PoolFanout)
}


# ------------------------------------------------------------------ driver


def drive(workload, seconds, first=0):
    """Repeat the request for ``seconds`` (at least ``min_requests``
    times, numbered from ``first``), then the workload's trailing phase.
    Returns per-request
    ``(wall, cpu, whole)`` samples: the request wall the workload
    defines, the process tree's CPU and the whole call's wall."""
    samples = []
    begin = time.perf_counter()
    while True:
        with workload.span(tracing.REQUEST):
            cpu, start = cpu_seconds(), time.perf_counter()
            wall = workload.request(first + len(samples))
            whole = time.perf_counter() - start
            samples.append(
                (whole if wall is None else wall, cpu_seconds() - cpu, whole)
            )
        workload.requests += 1
        if (
            len(samples) >= workload.min_requests
            and time.perf_counter() - begin >= seconds
        ):
            break
    workload.after_requests()
    return samples


def cross_check(seed, scale):
    """Object and array kernels must agree byte for byte on one shared
    4x4 job; returns an error string or None."""
    job = JobSpec(config=proposed_network(), mix=MIXED_TRAFFIC, rate=0.11,
                  seed=job_seed(seed, "cross"), **windows(scale.service))
    one = stats_digest(job.run().to_dict())
    other = stats_digest(replace(job, backend="array").run().to_dict())
    return None if one == other else "object and array results differ"


def verify(workload, pins, seed):
    """Check every result the workload left behind, and the backends
    against each other.  Returns ``(checked, good, errors)``: how many
    results were checked, the stats dicts that passed, and every
    failure of the run, operations included."""
    errors = list(workload.errors)
    checked, good = 0, []
    for request, job, stats in workload.results():
        checked += 1
        if job is None:
            why = "missing entry"
        else:
            pinned = request < workload.pinned_requests
            why = check_result(job, stats, pins if pinned else None)
        if why is None:
            good.append(stats)
        else:
            errors.append(f"{job.cache_key[:12] if job else '?'}: {why}")
    why = cross_check(seed, workload.scale)
    if why is not None:
        errors.append(why)
    return checked, good, errors


def collect_spans(workload, rec):
    """The recorder's spans with the CLI children's grafted under the
    request span that spawned them."""
    open_at = {id(span): i for i, span in enumerate(rec.spans)}
    records = rec.records()
    for parent, children in workload.child_spans:
        tracing.graft(records, children, open_at.get(id(parent)))
    for path in sorted(workload.work.glob("worker-*.jsonl")):
        tracing.graft(records, tracing.read_jsonl(path), None)
    return records


def span_metrics(records):
    """Per-layer numbers that only the traced workload can give."""

    def total(name, field):
        return sum(
            r["args"][field] * r["args"].get("lanes", 1)
            for r in records
            if r["name"] == name and "args" in r
        )

    def seconds(name):
        return sum(r["end"] - r["start"] for r in records if r["name"] == name)

    shares, accounted = tracing.layer_shares(records)
    object_cycles = total("noc.simulator.run_experiment", "cycles")
    array_cycles = sum(
        total(f"noc.array_backend.{name}", "cycles")
        for name in ("run_experiment", "run_experiment_batch")
    )
    out = {
        "trace.spans": len(records),
        "trace.accounted_share": accounted,
        "noc.simulator.sim_cycles": object_cycles,
        "noc.simulator.us_per_sim_cycle": (
            1e6 * seconds("noc.simulator.run_experiment") / object_cycles
            if object_cycles else 0.0
        ),
        "noc.array_backend.sim_cycles": array_cycles,
        "engine.executor.batch_groups": sum(
            r["name"] == "engine.jobspec.run_batch" for r in records
        ),
    }
    for layer in tracing.LAYERS:
        out[f"trace.share.{layer}"] = shares.get(layer, 0.0)
    return out


def drive_traced(workload, seconds):
    """A second timed phase under the span recorder; returns its
    samples and the spans, children's and pool workers' included."""
    rec = tracing.Recorder(spill=workload.work)
    tracing.install(rec, array=workload.array, service=workload.service)
    workload.rec = rec
    try:
        samples = drive(
            workload, seconds, 0 if workload.repeatable else workload.requests
        )
    finally:
        workload.rec = None
        rec.uninstall()
    return samples, collect_spans(workload, rec)


def per_layer(workload, records, overhead, results, errors, ladder_metrics):
    """The ladder's metrics plus the ones only the traced workload gives."""
    counters = {"hits": 0, "misses": 0, "puts": 0}
    for _, root in workload.caches:
        # what the program itself flushed to counters.meta, not our reads
        for key, value in ResultCache(root).lifetime_counters().items():
            counters[key] += value
    lookups = counters["hits"] + counters["misses"]
    out = dict(ladder_metrics)
    out.update(span_metrics(records))
    out.update(
        {
            "trace.overhead_ratio": overhead,
            "engine.cache.hits": counters["hits"],
            "engine.cache.misses": counters["misses"],
            "engine.cache.puts": counters["puts"],
            "engine.cache.hit_ratio": (
                counters["hits"] / lookups if lookups else 0.0
            ),
            "engine.executor.failures": sum(
                "stop_reason failed" in e for e in errors
            ),
            "engine.executor.retried": out.pop("pool.retried") + sum(
                ex.last_batch["retried"] for ex in workload.executors
            ),
            "traffic.messages_submitted": sum(
                s["messages_measured"] + s["incomplete_messages"]
                for s in results
            ),
        }
    )
    return out


def run(args):
    spawned = args.spawned if args.spawned is not None else time.time()
    workload = WORKLOADS[args.workload](
        args.seed, SCALES[args.scale], args.work
    )
    try:
        workload.setup()
        setup_s = time.time() - spawned
        if args.phase == "setup":
            workload.finish()
            return {"setup_s": setup_s}
        # a traced run: a third untraced, a third traced, then the ladder
        budget = args.seconds / 3.0 if args.trace else args.seconds
        if args.digests:
            workload.min_requests = max(
                workload.min_requests, workload.pinned_requests
            )
        samples = drive(workload, budget)
        rss = peak_rss_mb()
        if args.trace:
            traced, records = drive_traced(workload, budget)
        workload.finish()
        pins = None
        if args.seed == DEFAULT_SEED and not args.no_pins:
            with open(args.expected) as fh:
                pins = json.load(fh)[args.scale].get(args.workload, {})
        checked, results, errors = verify(workload, pins, args.seed)
        walls, cpus, wholes = zip(*samples)
        out = {
            "workload": args.workload,
            "seed": args.seed,
            # operations, result checks and the object-vs-array check
            "attempted": workload.attempted + checked + 1,
            "failed": len(errors),
            "errors": errors[:10],
            "samples": len(samples),
            "end_to_end": {
                "setup_s": setup_s,
                "request_wall_s": floor_quartile(walls),
                "request_cpu_s": floor_quartile(cpus),
                "points_per_s": (
                    workload.points_per_request * len(results) / checked
                    / floor_quartile(wholes)
                ),
                "peak_rss_mb": rss,
            },
            "digests": {
                job.cache_key: stats_digest(stats)
                for request, job, stats in workload.results()
                if request < workload.pinned_requests
            } if args.digests else None,
        }
        if args.trace:
            ladder_metrics = {"pool.retried": 0}
            if not args.no_ladder:
                import ladder

                ladder_metrics = ladder.run(args.seed, workload.work / "ladder")
            overhead = (
                floor_quartile(wall for wall, _, _ in traced)
                / floor_quartile(walls)
            )
            out["per_layer"] = per_layer(
                workload, records, overhead, results, errors, ladder_metrics
            )
            if args.spans_out:
                tracing.write_jsonl(records, args.spans_out + ".jsonl")
                with open(args.spans_out + ".chrome.json", "w") as fh:
                    json.dump(tracing.chrome_trace(records), fh)
        return out
    finally:
        shutil.rmtree(workload.work, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument("--phase", choices=("run", "setup"), default="run")
    parser.add_argument("--work", required=True)
    parser.add_argument("--expected", default=str(HERE / "expected.json"))
    parser.add_argument("--no-pins", action="store_true")
    parser.add_argument("--digests", action="store_true")
    parser.add_argument("--no-ladder", action="store_true")
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("--spawned", type=float, default=None)
    args = parser.parse_args(argv)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
