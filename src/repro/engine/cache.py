"""Persistent, content-addressed result cache.

Each entry is one JSON file under the cache root, named by the SHA-256
of the :class:`~repro.engine.jobspec.JobSpec`'s canonical encoding, and
stores both the job and its :class:`~repro.noc.metrics.WindowStats`.
Re-running any benchmark, example or CLI sweep therefore skips every
operating point that has already been computed with identical
parameters.  Stale entries are treated as misses and overwritten on
the next store; *damaged* entries (truncated or garbled JSON) are
also misses but are first quarantined as ``<key>.corrupt`` so the bad
bytes can be diagnosed.  The cache can always be deleted (or ``repro
cache clear``-ed) with no loss beyond recomputation time.

Key-compatibility policy: default-valued experiment axes are *omitted*
from the canonical job encoding (``JobSpec.pattern`` when uniform,
``NocConfig.routing`` when XY), so growing the experiment space never
invalidates previously cached entries; only non-default values extend
the encoding and get fresh content addresses.  ``CACHE_VERSION`` is
reserved for changes to the *meaning* of already-cached results.
"""

from __future__ import annotations

import json
import logging
import math
import os
from contextlib import contextmanager
from pathlib import Path

try:
    import fcntl
except ImportError:  # non-POSIX platform: no advisory file locking
    fcntl = None

from repro.noc.metrics import WindowStats

logger = logging.getLogger(__name__)


def _jsonify(value):
    """Replace non-finite floats with ``None``, recursively.

    ``json.dump`` would otherwise emit bare ``NaN``/``Infinity`` tokens
    (a saturated window has ``avg_latency = NaN``), which are not
    standard JSON and choke strict parsers.
    :meth:`WindowStats.from_dict` restores ``None`` back to NaN.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value

#: Bump when the cache entry layout or WindowStats semantics change;
#: entries with a different version are ignored.
CACHE_VERSION = 1

DEFAULT_CACHE_DIR = ".repro_cache"

#: Persistent hit/miss/put totals, accumulated across sessions.  The
#: ``.meta`` extension keeps it outside the ``*.json`` entry glob and
#: the ``*.telemetry`` sidecar glob.
COUNTERS_FILE = "counters.meta"

#: Lock file beside ``counters.meta`` serializing counter merges across
#: processes sharing one cache root (e.g. the sweep service's worker
#: pool).  The ``.lock`` extension keeps it outside every content glob.
COUNTERS_LOCK = "counters.lock"

_COUNTER_KEYS = ("hits", "misses", "puts")


class ResultCache:
    """JSON-file store mapping JobSpec content hashes to WindowStats.

    Besides the entries themselves the cache keeps two kinds of
    bookkeeping, neither of which participates in content addressing:

    * **counters** — per-instance ``hits``/``misses``/``puts`` tallies,
      folded into the persistent ``counters.meta`` totals by
      :meth:`flush_counters` (the executor flushes after each batch);
    * **telemetry sidecars** — optional ``<key>.telemetry`` files
      holding run telemetry (phase profile, wall-clock timing) for the
      entry with the same key.  Sidecars are written separately from
      entries and ignored by :meth:`get`, so enabling telemetry never
      changes a cache key or invalidates an existing result.
    """

    def __init__(self, root=DEFAULT_CACHE_DIR):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self._flushed = dict.fromkeys(_COUNTER_KEYS, 0)

    def path_for(self, job):
        return self.root / f"{job.cache_key}.json"

    def telemetry_path_for(self, job):
        return self.root / f"{job.cache_key}.telemetry"

    def get(self, job):
        """The cached WindowStats for ``job``, or None on a miss."""
        key = job.cache_key  # hashed once per lookup, then handed down
        stats = self._lookup(self.root / f"{key}.json", job)
        if stats is None:
            self.misses += 1
            logger.debug("cache miss for %s", key[:12])
        else:
            self.hits += 1
            logger.debug("cache hit for %s", key[:12])
        return stats

    def _lookup(self, path, job):
        try:
            with open(path) as fh:
                entry = json.load(fh)
        except OSError:  # absent (or unreadable): a plain miss
            return None
        except ValueError:  # truncated/garbled bytes on disk
            self._quarantine(path, "undecodable JSON")
            return None
        if not isinstance(entry, dict):
            self._quarantine(path, "not a JSON object")
            return None
        if entry.get("version") != CACHE_VERSION:
            return None
        if entry.get("job") != job.to_dict():  # hash collision or drift
            return None
        try:
            return WindowStats.from_dict(entry["stats"])
        except (KeyError, TypeError):
            self._quarantine(path, "malformed stats")
            return None

    def _quarantine(self, path, why):
        """Move a damaged entry aside as ``<key>.corrupt``.

        The miss then behaves like any other — the point is recomputed
        and re-stored — but the bad bytes survive for diagnosis instead
        of being silently overwritten, and the entry glob never serves
        them again.
        """
        target = path.with_suffix(".corrupt")
        try:
            os.replace(path, target)
        except OSError:  # vanished or unwritable root: stay a miss
            return
        logger.warning(
            "quarantined corrupt cache entry %s (%s) as %s",
            path.name, why, target.name,
        )

    def put(self, job, stats):
        """Store ``stats`` for ``job`` (atomically, last writer wins)."""
        entry = {
            "version": CACHE_VERSION,
            "key": job.cache_key,
            "job": job.to_dict(),
            "stats": stats.to_dict(),
        }
        self._write_atomic(self.path_for(job), entry)
        self.puts += 1

    def put_telemetry(self, job, telemetry):
        """Store run telemetry in the entry's ``.telemetry`` sidecar.

        The sidecar is keyed like the entry but written independently:
        it never touches the entry file, so the result's content
        address and bytes are identical with telemetry on or off.
        """
        self._write_atomic(
            self.telemetry_path_for(job),
            {
                "version": CACHE_VERSION,
                "key": job.cache_key,
                "telemetry": telemetry,
            },
        )

    def get_telemetry(self, job):
        """The telemetry sidecar for ``job``, or None."""
        try:
            with open(self.telemetry_path_for(job)) as fh:
                entry = json.load(fh)
        except (OSError, ValueError):
            return None
        if entry.get("version") != CACHE_VERSION:
            return None
        return entry.get("telemetry")

    def _write_atomic(self, path, entry):
        import tempfile  # only a writer pays for it (DESIGN.md §2)

        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(_jsonify(entry), fh, sort_keys=True, allow_nan=False)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # ----------------------------------------------------------- counters

    def counters(self):
        """This instance's hit/miss/put tallies."""
        return {"hits": self.hits, "misses": self.misses, "puts": self.puts}

    def lifetime_counters(self):
        """Persistent totals from ``counters.meta`` (zeros if absent),
        plus this instance's not-yet-flushed activity."""
        totals = self._read_counters_file()
        current = self.counters()
        return {
            key: totals[key] + current[key] - self._flushed[key]
            for key in _COUNTER_KEYS
        }

    def _read_counters_file(self):
        try:
            with open(self.root / COUNTERS_FILE) as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            data = {}
        return {key: int(data.get(key, 0)) for key in _COUNTER_KEYS}

    @contextmanager
    def _counters_lock(self):
        """Exclusive advisory lock over the ``counters.meta`` merge.

        The lock file lives beside ``counters.meta`` (never the counters
        file itself, which is replaced atomically and would drop the
        lock with the old inode).  ``flock`` locks are per open file
        description, so the guard serializes caches sharing one root
        both across processes and across threads in one process.
        """
        if fcntl is None:  # no flock: degrade to the unserialized merge
            yield
            return
        self.root.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.root / COUNTERS_LOCK, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            os.close(fd)  # closing the descriptor releases the lock

    def flush_counters(self):
        """Fold unflushed instance tallies into ``counters.meta``.

        Returns the persistent totals after the merge.  Called by the
        executor after each batch; safe to call at any time (flushing
        twice adds nothing).  The read-modify-write is serialized by an
        ``flock``-guarded lock file, so executors sharing a cache root
        (the sweep service's worker pool, or parallel CLI runs) never
        lose each other's counts to an interleaved merge.
        """
        current = self.counters()
        if all(current[key] == self._flushed[key] for key in _COUNTER_KEYS):
            return self._read_counters_file()
        with self._counters_lock():
            totals = self._read_counters_file()
            for key in _COUNTER_KEYS:
                totals[key] += current[key] - self._flushed[key]
            self._write_atomic(self.root / COUNTERS_FILE, totals)
        self._flushed = current
        return totals

    # -------------------------------------------------------- maintenance

    def _entries(self):
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*.json"))

    def _sidecars(self):
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*.telemetry"))

    def _quarantined(self):
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*.corrupt"))

    @staticmethod
    def _size(path):
        """``st_size``, tolerating files that vanished since the glob.

        Another process (a service worker, a concurrent ``repro cache
        clear``) may unlink or quarantine an entry between our glob and
        the stat; a vanished file simply no longer occupies bytes.
        """
        try:
            return path.stat().st_size
        except OSError:
            return 0

    def stats(self):
        """Occupancy and counter summary (read-only).

        ``session`` covers this :class:`ResultCache` instance;
        ``lifetime`` is the persistent total including the session's
        not-yet-flushed activity.
        """
        entries = self._entries()
        sidecars = self._sidecars()
        return {
            "root": str(self.root),
            "entries": len(entries),
            "bytes": sum(self._size(p) for p in entries),
            "telemetry_sidecars": len(sidecars),
            "telemetry_bytes": sum(self._size(p) for p in sidecars),
            "quarantined": len(self._quarantined()),
            "session": self.counters(),
            "lifetime": self.lifetime_counters(),
        }

    def clear(self):
        """Delete every cached result; returns the number removed.

        Telemetry sidecars, quarantined ``*.corrupt`` entries and the
        persistent counters go with the entries, and ``*.tmp`` files
        orphaned by an interrupted :meth:`put` (e.g. a SIGKILL between
        write and rename) are swept up too.
        """
        removed = 0
        for path in self._entries():
            # a concurrent clear or quarantine may take the entry first;
            # only files this call removed are counted
            try:
                path.unlink()
            except FileNotFoundError:
                continue
            removed += 1
        if self.root.is_dir():
            for orphan in (
                *self.root.glob("*.tmp"),
                *self._sidecars(),
                *self._quarantined(),
                *self.root.glob(COUNTERS_FILE),
                *self.root.glob(COUNTERS_LOCK),
            ):
                # missing_ok: a concurrent clear may have won the race
                orphan.unlink(missing_ok=True)
        self._flushed = self.counters()
        logger.debug("cleared %d cache entries under %s", removed, self.root)
        return removed
