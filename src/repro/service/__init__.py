"""HTTP sweep service over the result cache (DESIGN.md §10).

The content-addressed ``.repro_cache/`` makes every operating point a
shareable artifact; this package puts a small Flask API in front of it
so hot figures are near-always cache hits served from disk and only
novel points simulate:

* ``POST /sweeps`` — a batch of JobSpec dicts in; each job is validated,
  deduped against the :class:`~repro.engine.cache.ResultCache`, and the
  misses are enqueued for a background worker pool that drains them
  through the ordinary :class:`~repro.engine.executor.Executor`;
* ``GET /sweeps/<id>`` — per-job status (``cached``/``queued``/
  ``running``/``done``/``failed``) with a hit-rate and queue-depth
  summary;
* ``GET /results/<key>`` — the raw cache-entry bytes for a content
  address (service-computed and CLI-computed points are byte-identical
  and mutually cache-visible);
* ``GET /healthz`` and ``GET /cache/stats`` — liveness and occupancy.

Layering: :mod:`~repro.service.schemas` (Flask-free JSON value objects)
and :mod:`~repro.service.workers` (queue + worker pool, Flask-free) can
be imported without Flask installed; only :mod:`~repro.service.app` and
:mod:`~repro.service.blueprint` need it, which is why ``create_app`` is
re-exported lazily here.  Start the server with ``python -m repro serve``
or build an app in-process (tests use Flask's test client — no network):

    from repro.service import create_app
    app = create_app(cache_root=".repro_cache", workers=2)
"""

from __future__ import annotations

from repro._lazy import lazy_exports

# lazy so that `import repro.service` (and the Flask-free submodules)
# works on an installation without the service extra
__all__, __getattr__, __dir__ = lazy_exports(
    __name__, {"repro.service.app": ("create_app",)}
)
