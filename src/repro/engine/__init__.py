"""Parallel experiment engine with a persistent result cache.

Layers (bottom up):

* :class:`JobSpec` — one simulation point as a hashable, serializable
  value object with a stable content hash;
* :class:`Executor` + backends — batch execution, in-process serial
  (default, identical to the historical loop) or ``multiprocessing``
  process-pool fan-out;
* :class:`ResultCache` — content-addressed JSON store under
  ``.repro_cache/`` so repeated sweeps skip computed points;
* :mod:`repro.engine.cli` — the ``python -m repro`` command line
  (kept out of this namespace to avoid importing the harness eagerly).

See DESIGN.md for the architecture and the determinism argument.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.engine.cache": ("CACHE_VERSION", "DEFAULT_CACHE_DIR", "ResultCache"),
        "repro.engine.executor": (
            "DEFAULT_JOB_TIMEOUT",
            "Executor",
            "JobFailure",
            "ProcessPoolBackend",
            "SerialBackend",
            "make_backend",
        ),
        "repro.engine.jobspec": (
            "DEFAULT_DRAIN",
            "DEFAULT_MEASURE",
            "DEFAULT_SEED",
            "DEFAULT_WARMUP",
            "JobSpec",
        ),
    },
)
