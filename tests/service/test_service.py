"""End-to-end exercise of the sweep service through Flask's test client.

The headline assertion is DESIGN.md §10's identity contract: a result
computed *by the service* is byte-for-byte the entry an equivalent CLI
run writes, lives under the same content address, and each side's cache
hits cover the other's work.
"""

import time
from types import SimpleNamespace

import pytest

flask = pytest.importorskip("flask")

from repro.core.presets import proposed_network
from repro.engine import cli
from repro.engine.cache import ResultCache
from repro.engine.executor import Executor
from repro.engine.jobspec import JobSpec
from repro.service.app import create_app
from repro.service.workers import JobRecord, SweepStore, WorkerPool
from repro.traffic.mix import MIXED_TRAFFIC

#: tiny but non-degenerate measurement window, matching the CLI flags
#: used in test_byte_identity_with_a_cli_run below
WINDOW = dict(warmup=100, measure=300, drain=400)

RATES = (0.02, 0.05)


def make_spec(rate, **overrides):
    kwargs = dict(
        config=proposed_network(),
        mix=MIXED_TRAFFIC,
        rate=rate,
        name="proposed",
        **WINDOW,
    )
    kwargs.update(overrides)
    return JobSpec(**kwargs)


def sweep_body(rates=RATES, **overrides):
    return {"jobs": [make_spec(r, **overrides).to_dict() for r in rates]}


@pytest.fixture
def service(tmp_path):
    """``(client, cache_root)`` over a started app; workers stopped after."""
    cache_root = tmp_path / "cache"
    app = create_app(cache_root=cache_root, workers=2)
    try:
        yield app.test_client(), cache_root
    finally:
        app.extensions["repro"].shutdown()


def poll_complete(client, sweep_id, deadline=60.0):
    """The sweep body once every job reached a terminal status."""
    give_up = time.monotonic() + deadline
    while True:
        response = client.get(f"/sweeps/{sweep_id}")
        assert response.status_code == 200
        body = response.get_json()
        if body["summary"]["complete"]:
            return body
        assert time.monotonic() < give_up, f"sweep never completed: {body}"
        time.sleep(0.05)


class TestSweepLifecycle:
    def test_miss_then_run_then_serve(self, service):
        client, cache_root = service
        posted = client.post("/sweeps", json=sweep_body())
        assert posted.status_code == 201
        body = posted.get_json()
        assert posted.headers["Location"] == f"/sweeps/{body['id']}"
        assert body["summary"]["cached"] == 0
        assert body["summary"]["hit_rate"] == 0.0

        done = poll_complete(client, body["id"])
        assert done["summary"]["done"] == len(RATES)
        assert done["summary"]["failed"] == 0
        for job in done["jobs"]:
            served = client.get(job["result_url"])
            assert served.status_code == 200
            entry = served.get_json()
            assert entry["key"] == job["key"]
            assert entry["stats"]["injection_rate"] == job["rate"]

    def test_repost_is_all_cache_hits_with_zero_executions(self, service):
        client, _ = service
        first = client.post("/sweeps", json=sweep_body()).get_json()
        poll_complete(client, first["id"])
        executed = client.get("/healthz").get_json()["executed"]
        assert executed == len(RATES)

        again = client.post("/sweeps", json=sweep_body()).get_json()
        assert again["id"] != first["id"]
        summary = again["summary"]
        assert summary["cached"] == summary["total"] == len(RATES)
        assert summary["hit_rate"] == 1.0
        assert summary["complete"] is True
        # nothing was enqueued, so nothing ran
        assert client.get("/healthz").get_json()["executed"] == executed

    def test_byte_identity_with_a_cli_run(self, service, tmp_path, capsys):
        """Service-computed bytes == CLI-computed bytes, same address."""
        client, cache_root = service
        sweep = client.post("/sweeps", json=sweep_body()).get_json()
        poll_complete(client, sweep["id"])

        cli_root = tmp_path / "cli-cache"
        rc = cli.main([
            "sweep", "--config", "proposed", "--mix", "mixed",
            "--rates", ",".join(str(r) for r in RATES),
            "--warmup", str(WINDOW["warmup"]),
            "--measure", str(WINDOW["measure"]),
            "--drain", str(WINDOW["drain"]),
            "--cache-dir", str(cli_root),
        ])
        assert rc == 0
        capsys.readouterr()

        for job in sweep["jobs"]:
            name = f"{job['key']}.json"
            service_bytes = (cache_root / name).read_bytes()
            assert (cli_root / name).read_bytes() == service_bytes
            assert client.get(job["result_url"]).data == service_bytes

    def test_cli_warmed_cache_answers_the_service(self, service, capsys):
        """The other direction: the service front-door hits CLI entries."""
        client, cache_root = service
        rc = cli.main([
            "sweep", "--config", "proposed", "--mix", "mixed",
            "--rates", "0.02", "--warmup", "100", "--measure", "300",
            "--drain", "400", "--cache-dir", str(cache_root),
        ])
        assert rc == 0
        capsys.readouterr()
        body = client.post(
            "/sweeps", json=sweep_body(rates=(0.02,))
        ).get_json()
        assert body["summary"]["cached"] == 1
        assert client.get("/healthz").get_json()["executed"] == 0

    def test_process_executor_smoke(self, tmp_path):
        app = create_app(
            cache_root=tmp_path / "cache", workers=1,
            executor="process", exec_workers=1,
        )
        try:
            client = app.test_client()
            sweep = client.post(
                "/sweeps", json=sweep_body(rates=(0.02,))
            ).get_json()
            done = poll_complete(client, sweep["id"])
            assert done["summary"]["done"] == 1
            key = done["jobs"][0]["key"]
            assert client.get(f"/results/{key}").status_code == 200
        finally:
            app.extensions["repro"].shutdown()


class TestValidationAndErrors:
    def test_malformed_json_is_a_400(self, service):
        client, _ = service
        response = client.post(
            "/sweeps", data="not json", content_type="application/json"
        )
        assert response.status_code == 400
        assert "JSON object" in response.get_json()["error"]

    def test_bad_job_is_a_400_naming_the_index(self, service):
        client, _ = service
        good = make_spec(0.02).to_dict()
        response = client.post("/sweeps", json={"jobs": [good, {}]})
        assert response.status_code == 400
        assert "jobs[1]" in response.get_json()["error"]

    def test_dead_seed_is_a_400_not_a_failed_job(self, service):
        client, _ = service
        good = make_spec(0.02).to_dict()
        response = client.post(
            "/sweeps", json={"jobs": [good, dict(good, seed=0)]}
        )
        assert response.status_code == 400
        error = response.get_json()["error"]
        assert "jobs[1]" in error and "seed must be within" in error

    def test_unknown_sweep_is_a_404(self, service):
        client, _ = service
        assert client.get("/sweeps/sweep-999").status_code == 404

    def test_results_refuses_non_addresses(self, service):
        client, _ = service
        for key in ("deadbeef", "..%2f..%2fetc%2fpasswd", "a" * 63):
            assert client.get(f"/results/{key}").status_code == 404

    def test_uncomputed_address_is_a_404(self, service):
        client, _ = service
        assert client.get(f"/results/{'0' * 64}").status_code == 404


class _FailingExecutor:
    """Stands in for Executor: every job fails with a structured error."""

    def __init__(self):
        self.executed = 0
        self.last_batch = None

    def run(self, jobs):
        self.executed += len(jobs)
        self.last_batch = {"failures": [{"error": "kaboom"} for _ in jobs]}
        return [SimpleNamespace(stop_reason="failed") for _ in jobs]


class _ExplodingExecutor:
    """Stands in for Executor: run raises instead of returning."""

    executed = 0
    last_batch = None

    def run(self, jobs):
        raise RuntimeError("worker blew up")


class TestFailureHandling:
    def failing_app(self, tmp_path, factory):
        return create_app(
            cache_root=tmp_path / "cache", workers=1,
            executor_factory=lambda cache: factory(),
        )

    def test_structured_failures_mark_the_job_failed(self, tmp_path):
        app = self.failing_app(tmp_path, _FailingExecutor)
        try:
            client = app.test_client()
            sweep = client.post(
                "/sweeps", json=sweep_body(rates=(0.02,))
            ).get_json()
            done = poll_complete(client, sweep["id"])
            (job,) = done["jobs"]
            assert job["status"] == "failed"
            assert job["error"] == "kaboom"
            assert done["summary"]["failed"] == 1
            # failures are never cached, so the result stays a 404
            assert client.get(job["result_url"]).status_code == 404
        finally:
            app.extensions["repro"].shutdown()

    def test_a_raising_worker_fails_the_job_not_the_service(self, tmp_path):
        app = self.failing_app(tmp_path, _ExplodingExecutor)
        try:
            client = app.test_client()
            sweep = client.post(
                "/sweeps", json=sweep_body(rates=(0.02,))
            ).get_json()
            done = poll_complete(client, sweep["id"])
            (job,) = done["jobs"]
            assert job["status"] == "failed"
            assert "RuntimeError" in job["error"]
            # the worker thread survived its exception and serves again
            assert client.get("/healthz").get_json()["status"] == "ok"
        finally:
            app.extensions["repro"].shutdown()


class _RecordingExecutor(Executor):
    """The real engine, remembering the size of every batch it was
    handed; jobs at ``poison`` rates misbehave the way ``mode`` says."""

    def __init__(self, cache, batches, poison=(), mode=None):
        super().__init__(cache=cache)
        self.batches = batches
        self.poison = poison
        self.mode = mode

    def run(self, jobs):
        self.batches.append(len(jobs))
        bad = [job for job in jobs if job.rate in self.poison]
        if bad and self.mode == "raise":
            raise RuntimeError(f"cannot run rate {bad[0].rate}")
        if bad and self.mode == "fail":
            # a structured JobFailure: unknown backends are contained
            jobs = [
                _with_backend(job, "fpga") if job in bad else job
                for job in jobs
            ]
        return super().run(jobs)


def _with_backend(job, backend):
    object.__setattr__(job, "backend", backend)  # skips validation
    return job


class TestWorkerDrain:
    """A worker takes everything queued when it wakes and hands it to
    one ``Executor.run`` (DESIGN.md §10), keeping the per-job
    contract."""

    RATES = (0.02, 0.04, 0.06, 0.08, 0.1, 0.12, 0.14, 0.16)

    def drain(self, tmp_path, **executor_kwargs):
        """Queue one job per rate *before* the single worker starts;
        returns ``(records, batch sizes)`` once the pool has stopped."""
        batches = []
        store = SweepStore()
        pool = WorkerPool(
            tmp_path / "cache", store, workers=1, backend="array",
            executor_factory=lambda cache: _RecordingExecutor(
                cache, batches, **executor_kwargs
            ),
        )
        records = [JobRecord(make_spec(r), "queued") for r in self.RATES]
        for record in records:
            pool.submit(record)
        pool.start()
        pool.stop(timeout=60.0)  # the sentinel queues behind the jobs
        assert not any(t.is_alive() for t in pool._threads)
        return records, batches, pool

    def test_queued_jobs_reach_the_executor_as_one_batch(self, tmp_path):
        records, batches, pool = self.drain(tmp_path)
        assert batches == [len(self.RATES)]
        assert [r.status for r in records] == ["done"] * len(self.RATES)
        assert pool.executed == len(self.RATES)
        cache = ResultCache(tmp_path / "cache")
        for record in records:  # under the ordinary content addresses
            solo = record.spec.run()
            assert cache.get(record.spec).to_dict() == solo.to_dict()

    def test_a_structured_failure_fails_that_job_alone(self, tmp_path):
        records, batches, _ = self.drain(
            tmp_path, poison=(0.06,), mode="fail"
        )
        assert batches == [len(self.RATES)]
        for record in records:
            if record.spec.rate == 0.06:
                assert record.status == "failed"
                assert "fpga" in record.error
            else:
                assert record.status == "done" and record.error is None

    def test_an_exception_out_of_the_batch_falls_back_to_one_by_one(
        self, tmp_path
    ):
        records, batches, _ = self.drain(
            tmp_path, poison=(0.06,), mode="raise"
        )
        # the whole batch once, then each of its jobs alone
        assert batches == [len(self.RATES)] + [1] * len(self.RATES)
        for record in records:
            if record.spec.rate == 0.06:
                assert record.status == "failed"
                assert "RuntimeError" in record.error
            else:
                assert record.status == "done"


class TestIntrospection:
    def test_healthz_shape(self, service):
        client, cache_root = service
        body = client.get("/healthz").get_json()
        assert body["status"] == "ok"
        assert body["workers"] == 2
        assert body["queue_depth"] == 0
        assert body["executed"] == 0
        assert body["cache_root"] == str(cache_root)

    def test_cache_stats_reuses_resultcache_stats(self, service):
        client, cache_root = service
        sweep = client.post(
            "/sweeps", json=sweep_body(rates=(0.02,))
        ).get_json()
        poll_complete(client, sweep["id"])
        served = client.get("/cache/stats").get_json()
        expected = ResultCache(cache_root).stats()
        # instance-local session counters differ per handle; the disk
        # truth (occupancy, lifetime totals) must agree
        for key in ("root", "entries", "bytes", "quarantined", "lifetime"):
            assert served[key] == expected[key]
        assert served["entries"] == 1
        assert served["lifetime"]["puts"] == 1
