"""ResultCache: persistence, corruption tolerance, stats and clearing."""

import dataclasses
import json
import math
import threading

import pytest

from repro.core.presets import proposed_network
from repro.engine import CACHE_VERSION, JobSpec, ResultCache
from repro.traffic.mix import MIXED_TRAFFIC

FAST = dict(warmup=100, measure=300, drain=400)


def make_job(**overrides):
    base = dict(
        config=proposed_network(), mix=MIXED_TRAFFIC, rate=0.03, **FAST
    )
    base.update(overrides)
    return JobSpec(**base)


def test_miss_on_empty_cache(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    assert cache.get(make_job()) is None
    assert cache.stats()["entries"] == 0
    assert cache.clear() == 0


def test_put_then_get_round_trips(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    job = make_job()
    stats = job.run()
    cache.put(job, stats)
    assert cache.get(job) == stats
    # a different job does not alias the entry
    assert cache.get(make_job(rate=0.05)) is None


def test_corrupt_entry_is_a_miss_and_quarantined(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    job = make_job()
    cache.put(job, job.run())
    cache.path_for(job).write_text("{ not json")
    assert cache.get(job) is None
    # the bad bytes survive for diagnosis instead of being overwritten
    corrupt = cache.path_for(job).with_suffix(".corrupt")
    assert corrupt.read_text() == "{ not json"
    assert not cache.path_for(job).exists()
    assert cache.stats()["quarantined"] == 1
    # and put() repairs it
    stats = job.run()
    cache.put(job, stats)
    assert cache.get(job) == stats


def test_truncated_entry_is_quarantined(tmp_path):
    # simulate a partially written / torn entry (e.g. a full disk)
    cache = ResultCache(tmp_path / "cache")
    job = make_job()
    cache.put(job, job.run())
    text = cache.path_for(job).read_text()
    cache.path_for(job).write_text(text[: len(text) // 2])
    assert cache.get(job) is None
    assert cache.path_for(job).with_suffix(".corrupt").exists()


def test_malformed_stats_are_quarantined(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    job = make_job()
    cache.put(job, job.run())
    entry = json.loads(cache.path_for(job).read_text())
    entry["stats"] = {"bogus": True}
    cache.path_for(job).write_text(json.dumps(entry))
    assert cache.get(job) is None
    assert cache.stats()["quarantined"] == 1


def test_version_mismatch_is_a_plain_miss(tmp_path):
    # a future-format entry is valid JSON from another era, not damage:
    # it must not be quarantined (a downgrade would destroy it)
    cache = ResultCache(tmp_path / "cache")
    job = make_job()
    cache.put(job, job.run())
    entry = json.loads(cache.path_for(job).read_text())
    entry["version"] = CACHE_VERSION + 1
    cache.path_for(job).write_text(json.dumps(entry))
    assert cache.get(job) is None
    assert cache.stats()["quarantined"] == 0
    assert cache.path_for(job).exists()


def test_job_mismatch_is_a_miss(tmp_path):
    # paranoia against hash collisions / hand-edited entries
    cache = ResultCache(tmp_path / "cache")
    job = make_job()
    cache.put(job, job.run())
    entry = json.loads(cache.path_for(job).read_text())
    entry["job"]["rate"] = 0.99
    cache.path_for(job).write_text(json.dumps(entry))
    assert cache.get(job) is None


def test_clear_sweeps_orphaned_tmp_files(tmp_path):
    # a SIGKILL between write and rename leaves a *.tmp behind; clear()
    # must sweep it up even though it is not a cache entry
    cache = ResultCache(tmp_path / "cache")
    job = make_job()
    cache.put(job, job.run())
    orphan = cache.root / "interrupted123.tmp"
    orphan.write_text("partial")
    assert cache.stats()["entries"] == 1
    assert cache.clear() == 1
    assert not orphan.exists()
    assert list(cache.root.iterdir()) == []


def test_nan_latency_serializes_as_strict_json(tmp_path):
    # a fully saturated window has avg_latency = NaN; json.dump would
    # happily emit a bare NaN token, which is not standard JSON
    cache = ResultCache(tmp_path / "cache")
    job = make_job()
    stats = dataclasses.replace(job.run(), avg_latency=float("nan"))
    cache.put(job, stats)
    text = cache.path_for(job).read_text()
    assert "NaN" not in text
    # strict parsers (which reject the NaN/Infinity extension) accept it

    def reject(token):
        raise AssertionError(f"non-strict JSON token {token!r}")

    entry = json.loads(text, parse_constant=reject)
    assert entry["stats"]["avg_latency"] is None
    restored = cache.get(job)
    assert math.isnan(restored.avg_latency)
    assert restored.messages_measured == stats.messages_measured


def test_stats_and_clear(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    jobs = [make_job(rate=r) for r in (0.02, 0.04)]
    for job in jobs:
        cache.put(job, job.run())
    info = cache.stats()
    assert info["entries"] == 2
    assert info["bytes"] > 0
    assert cache.clear() == 2
    assert cache.stats()["entries"] == 0
    assert all(cache.get(j) is None for j in jobs)


def test_concurrent_flushes_do_not_lose_counts(tmp_path):
    """Regression: ``flush_counters()`` did an unlocked read-modify-write
    of ``counters.meta``, so two executors sharing a cache root (exactly
    what the sweep service's worker pool does) lost each other's counts.
    ``flock`` locks are per open file description, so two threads in one
    process exercise the same interleaving as two processes would.
    """
    root = tmp_path / "cache"
    flushes, workers = 150, 3
    errors = []

    def churn():
        try:
            cache = ResultCache(root)
            for _ in range(flushes):
                cache.hits += 1
                cache.misses += 2
                cache.flush_counters()
        except Exception as exc:  # surfaced after join; threads may not fail a test
            errors.append(exc)

    threads = [threading.Thread(target=churn) for _ in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    totals = ResultCache(root).lifetime_counters()
    assert totals == {
        "hits": flushes * workers,
        "misses": 2 * flushes * workers,
        "puts": 0,
    }


def test_stats_tolerates_entries_vanishing_mid_scan(tmp_path, monkeypatch):
    """Regression: ``stats()`` called ``p.stat()`` on globbed entries, so
    a concurrent ``clear()``/quarantine from another process (or a
    service worker) that unlinked one between the glob and the stat made
    the whole scan raise ``FileNotFoundError``.
    """
    cache = ResultCache(tmp_path / "cache")
    jobs = [make_job(rate=r) for r in (0.02, 0.04)]
    for job in jobs:
        cache.put(job, job.run())
    victim = cache.path_for(jobs[0])
    survivor_bytes = cache.path_for(jobs[1]).stat().st_size
    real_entries = ResultCache._entries

    def glob_then_lose(self):
        paths = real_entries(self)
        victim.unlink(missing_ok=True)  # another process clears mid-scan
        return paths

    monkeypatch.setattr(ResultCache, "_entries", glob_then_lose)
    info = cache.stats()  # must not raise
    assert info["entries"] == 2  # the glob snapshot saw both
    assert info["bytes"] == survivor_bytes  # the vanished entry counts 0


def test_clear_tolerates_entries_vanishing_mid_scan(tmp_path, monkeypatch):
    """A second ``repro cache clear`` (or a quarantining service worker)
    may take an entry between the glob and the unlink: no traceback,
    and only the files this call removed are counted."""
    cache = ResultCache(tmp_path / "cache")
    jobs = [make_job(rate=r) for r in (0.02, 0.04)]
    for job in jobs:
        cache.put(job, job.run())
    victim = cache.path_for(jobs[0])
    real_entries = ResultCache._entries

    def glob_then_lose(self):
        paths = real_entries(self)
        victim.unlink(missing_ok=True)  # the other clear wins the race
        return paths

    monkeypatch.setattr(ResultCache, "_entries", glob_then_lose)
    assert cache.clear() == 1  # must not raise
    assert list(cache.root.iterdir()) == []


def test_a_lookup_hashes_the_job_once(tmp_path, monkeypatch):
    """The content address is computed once per ``get`` — hit or miss,
    whatever the log level — and handed down, not re-derived."""
    cache = ResultCache(tmp_path / "cache")
    hit, miss = make_job(), make_job(rate=0.05)
    cache.put(hit, hit.run())
    calls = []
    real = JobSpec.canonical_json

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(JobSpec, "canonical_json", counted)
    assert cache.get(hit) is not None
    assert calls == [hit]
    del calls[:]
    assert cache.get(miss) is None
    assert calls == [miss]


def test_clear_sweeps_the_counter_lock_file(tmp_path):
    pytest.importorskip("fcntl")  # no lock file on non-POSIX platforms
    cache = ResultCache(tmp_path / "cache")
    cache.hits += 1
    cache.flush_counters()
    assert (cache.root / "counters.lock").exists()
    cache.clear()
    assert list(cache.root.iterdir()) == []


def test_clear_sweeps_quarantined_entries(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    job = make_job()
    cache.put(job, job.run())
    cache.path_for(job).write_text("garbage")
    assert cache.get(job) is None  # quarantines
    assert cache.stats()["quarantined"] == 1
    assert cache.clear() == 0  # no live entries left
    assert cache.stats()["quarantined"] == 0
    assert list(cache.root.iterdir()) == []
