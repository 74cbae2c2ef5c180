"""Cache-key compatibility across the pluggable-axis PRs.

The engine's contract is that adding a workload axis must not move any
*default* job's content address: the new field is omitted from the
canonical encoding at its default, so every pre-existing
``.repro_cache/`` entry keeps hashing to the same file.  These keys
were captured by running ``JobSpec.cache_key`` at the commit *before*
the injection-process PR (which itself preserved the pre-pattern and
pre-routing keys); any refactor that silently grows the default
encoding — a new always-present field, a changed sort order, a float
formatting change — breaks them and invalidates every user's on-disk
cache.
"""

import json

import pytest

from repro.core.presets import baseline_network, proposed_network
from repro.engine.jobspec import JobSpec
from repro.noc.routing import make_routing
from repro.traffic.mix import BROADCAST_ONLY, MIXED_TRAFFIC
from repro.traffic.patterns import make_pattern
from repro.traffic.processes import BernoulliProcess, OnOffProcess

#: (job factory, sha256 of the canonical JSON) captured pre-PR.
PINNED = {
    "golden_fig5_default": (
        lambda: JobSpec(
            config=proposed_network(),
            mix=MIXED_TRAFFIC,
            rate=0.11,
            seed=7,
            warmup=300,
            measure=1500,
            drain=1500,
            name="golden",
        ),
        "8359ee25040e8095c732424c3bee742036c63de396f75c3910133fbcb1e7ce3a",
    ),
    "baseline_broadcast_defaults": (
        lambda: JobSpec(
            config=baseline_network(),
            mix=BROADCAST_ONLY,
            rate=0.02,
            name="baseline",
        ),
        "e141b4d29b9c6a21766ab290240dc0c260f1e7e9dc9ea4a92aef18470add196f",
    ),
    "non_default_pattern": (
        lambda: JobSpec(
            config=proposed_network(),
            mix=MIXED_TRAFFIC,
            rate=0.08,
            pattern=make_pattern("transpose"),
        ),
        "fc9c22347bae973de89e8d19aba9934cb0aae10b2718d379b271980c6965e0e1",
    ),
    "non_default_routing": (
        lambda: JobSpec(
            config=proposed_network(routing=make_routing("o1turn")),
            mix=MIXED_TRAFFIC,
            rate=0.08,
        ),
        "f17a6755431f536cdc7edcda9dcd95f473f68efc25549a7bba6ab151b1f27648",
    ),
}


class TestPinnedKeys:
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pre_process_cache_keys_are_unchanged(self, name):
        factory, key = PINNED[name]
        assert factory().cache_key == key

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_default_encodings_have_no_injection_field(self, name):
        factory, _ = PINNED[name]
        data = json.loads(factory().canonical_json())
        assert "injection" not in data

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_default_encodings_have_no_faults_field(self, name):
        # fault-free jobs (faults=None) must omit the key entirely, so
        # every pre-fault cache entry keeps its content address
        factory, _ = PINNED[name]
        data = json.loads(factory().canonical_json())
        assert "faults" not in data


class TestDefaultNormalisation:
    def test_explicit_bernoulli_hashes_like_the_default(self):
        factory, key = PINNED["golden_fig5_default"]
        default = factory()
        explicit = JobSpec(
            config=default.config,
            mix=default.mix,
            rate=default.rate,
            seed=default.seed,
            warmup=default.warmup,
            measure=default.measure,
            drain=default.drain,
            name=default.name,
            injection=BernoulliProcess(),
        )
        assert explicit == default
        assert explicit.cache_key == key

    def test_bursty_jobs_get_fresh_content_addresses(self):
        factory, key = PINNED["golden_fig5_default"]
        default = factory()
        keys = {key}
        for process in (
            OnOffProcess(),
            OnOffProcess(burst_length=16.0),
            OnOffProcess(burst_length=8.0, on_rate=0.5),
        ):
            bursty = JobSpec(
                config=default.config,
                mix=default.mix,
                rate=default.rate,
                seed=default.seed,
                warmup=default.warmup,
                measure=default.measure,
                drain=default.drain,
                name=default.name,
                injection=process,
            )
            data = json.loads(bursty.canonical_json())
            assert data["injection"]["name"] == "onoff"
            keys.add(bursty.cache_key)
        assert len(keys) == 4  # every parameterisation is its own entry

    def test_round_trip_preserves_bursty_keys(self):
        job = JobSpec(
            config=proposed_network(),
            mix=MIXED_TRAFFIC,
            rate=0.08,
            injection=OnOffProcess(burst_length=12.0),
        )
        clone = JobSpec.from_dict(json.loads(job.canonical_json()))
        assert clone == job
        assert clone.cache_key == job.cache_key

    def test_fault_jobs_get_fresh_content_addresses(self):
        from repro.noc.faults import BitErrorFaults, RandomFaults

        factory, key = PINNED["golden_fig5_default"]
        default = factory()
        keys = {key}
        for faults in (
            BitErrorFaults(rate=1e-3),
            BitErrorFaults(rate=1e-2),
            RandomFaults(count=4),
        ):
            faulty = JobSpec(
                config=default.config,
                mix=default.mix,
                rate=default.rate,
                seed=default.seed,
                warmup=default.warmup,
                measure=default.measure,
                drain=default.drain,
                name=default.name,
                faults=faults,
            )
            data = json.loads(faulty.canonical_json())
            assert data["faults"]["name"] == faults.name
            keys.add(faulty.cache_key)
        assert len(keys) == 4

    def test_round_trip_preserves_fault_keys(self):
        from repro.noc.faults import LinkFaults

        job = JobSpec(
            config=proposed_network(),
            mix=MIXED_TRAFFIC,
            rate=0.08,
            faults=LinkFaults(links=((1, 2, 500),), routers=((5, 900),)),
        )
        clone = JobSpec.from_dict(json.loads(job.canonical_json()))
        assert clone == job
        assert clone.cache_key == job.cache_key


class TestBackendIsNotAnIdentityAxis:
    """The simulation backend is an *execution* detail (DESIGN.md §9):
    equal jobs produce byte-identical stats on every backend that
    accepts them, so the content address must never see it — not even
    as an omitted-when-default key."""

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_default_encodings_have_no_backend_field(self, name):
        factory, _ = PINNED[name]
        data = json.loads(factory().canonical_json())
        assert "backend" not in data

    def test_array_backend_shares_the_pinned_content_address(self):
        from repro.traffic.mix import UNIFORM_UNICAST

        base = dict(
            config=proposed_network(), mix=UNIFORM_UNICAST, rate=0.08
        )
        obj = JobSpec(**base)
        arr = JobSpec(**base, backend="array")
        assert arr.cache_key == obj.cache_key
        assert "backend" not in json.loads(arr.canonical_json())
        # but the worker payload does carry it (omitted-when-default),
        # and deserializing the payload restores the selection
        assert "backend" not in obj.to_payload()
        assert arr.to_payload()["backend"] == "array"
        assert JobSpec.from_dict(arr.to_payload()).backend == "array"

    def test_object_cached_result_hits_for_an_array_job(self, tmp_path):
        from repro.engine.cache import ResultCache
        from repro.engine.executor import Executor
        from repro.traffic.mix import UNIFORM_UNICAST

        base = dict(
            config=proposed_network(),
            mix=UNIFORM_UNICAST,
            rate=0.1,
            warmup=50,
            measure=150,
            drain=200,
        )
        cache = ResultCache(tmp_path / "cache")
        ex = Executor(cache=cache)
        stats = ex.run_one(JobSpec(**base))  # object backend, cached
        assert ex.executed == 1
        again = ex.run_one(JobSpec(**base, backend="array"))
        assert ex.executed == 1  # cache hit: no second simulation
        assert ex.cache_hits == 1
        assert again.to_dict() == stats.to_dict()

    def test_both_backends_produce_one_cache_entry(self, tmp_path):
        # run the same point fresh on each backend against separate
        # caches: byte-identical results under one content address
        from repro.engine.cache import ResultCache
        from repro.engine.executor import Executor
        from repro.traffic.mix import UNIFORM_UNICAST

        base = dict(
            config=proposed_network(),
            mix=UNIFORM_UNICAST,
            rate=0.1,
            warmup=50,
            measure=150,
            drain=200,
        )
        results = {}
        for backend in ("object", "array"):
            cache = ResultCache(tmp_path / backend)
            Executor(cache=cache).run_one(JobSpec(**base, backend=backend))
            entries = sorted(
                p for p in (tmp_path / backend).iterdir()
                if p.suffix == ".json"
            )
            assert len(entries) == 1
            results[backend] = (entries[0].name, entries[0].read_bytes())
        assert results["object"] == results["array"]

    def test_unknown_backend_in_deserialized_payload_names_choices(self):
        from repro.traffic.mix import UNIFORM_UNICAST

        payload = JobSpec(
            config=proposed_network(), mix=UNIFORM_UNICAST, rate=0.1
        ).to_payload()
        payload["backend"] = "fpga"
        with pytest.raises(ValueError, match=r"fpga.*array.*object"):
            JobSpec.from_dict(payload)

    def test_unknown_backend_job_fails_structurally_not_with_traceback(self):
        # a sick payload surfaces as a JobFailure naming the job's
        # content address, and the rest of the batch stands
        from repro.engine.executor import Executor
        from repro.traffic.mix import UNIFORM_UNICAST

        good = JobSpec(
            config=proposed_network(), mix=UNIFORM_UNICAST, rate=0.1,
            warmup=50, measure=150, drain=200,
        )
        bad = object.__new__(JobSpec)
        object.__setattr__(bad, "__dict__", dict(good.__dict__))
        object.__setattr__(bad, "backend", "fpga")  # skips validation
        results = Executor().run([bad, good])
        assert results[0].stop_reason == "failed"
        assert results[1].stop_reason == "completed"
        failure = Executor().backend.run([bad])[0]
        assert bad.cache_key[:12] in failure.error
        assert "fpga" in failure.error


class TestBatchingIsNotAnIdentityAxis:
    """A batched run — lanes that differ by seed, by rate, or both — is
    an *execution* detail like the backend: it fans in to N ordinary
    single-job cache entries whose content addresses — and bytes — are
    identical to N solo runs.  JobSpec has no seeds/rates/batch field
    at all, so no encoding can ever grow one."""

    def _lanes(self):
        """Two replicas at each of three rates: one lane group."""
        from dataclasses import replace
        from repro.traffic.mix import UNIFORM_UNICAST

        base = JobSpec(
            config=proposed_network(),
            mix=UNIFORM_UNICAST,
            rate=0.1,
            warmup=50,
            measure=150,
            drain=200,
            backend="array",
        )
        return [
            replace(base, rate=rate, seed=7 + 100_003 * i)
            for rate in (0.04, 0.1, 0.22)
            for i in range(2)
        ]

    def test_batched_run_fans_into_per_job_cache_entries(self, tmp_path):
        from repro.engine.cache import ResultCache
        from repro.engine.executor import Executor

        jobs = self._lanes()
        cache = ResultCache(tmp_path / "cache")
        ex = Executor(cache=cache)
        batched = ex.run(jobs)
        assert ex.executed == len(jobs)
        # one ordinary entry per (seed, rate), under the address the
        # solo job hashes to, each hit by a later single run
        assert sorted(p.stem for p in (tmp_path / "cache").glob("*.json")) \
            == sorted(job.cache_key for job in jobs)
        for job, stats in zip(jobs, batched):
            assert cache.get(job).to_dict() == stats.to_dict()
        again = Executor(cache=cache).run(jobs)
        assert [s.to_dict() for s in again] == [
            s.to_dict() for s in batched
        ]

    def test_batched_entries_are_byte_identical_to_solo_entries(
        self, tmp_path
    ):
        from repro.engine.cache import ResultCache
        from repro.engine.executor import Executor

        jobs = self._lanes()
        Executor(cache=ResultCache(tmp_path / "batched")).run(jobs)
        for job in jobs:  # one job per batch: never grouped
            Executor(cache=ResultCache(tmp_path / "solo")).run([job])
        for job in jobs:
            name = f"{job.cache_key}.json"
            assert (tmp_path / "batched" / name).read_bytes() \
                == (tmp_path / "solo" / name).read_bytes()

    def test_run_batch_matches_per_lane_run(self):
        jobs = self._lanes()[1:4]
        lanes = jobs[0].run_batch([(j.seed, j.rate) for j in jobs])
        for job, lane in zip(jobs, lanes):
            assert lane.to_dict() == job.run().to_dict()
