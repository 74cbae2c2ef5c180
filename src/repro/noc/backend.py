"""The pluggable simulation-backend registry (DESIGN.md §9).

A *simulation backend* is an implementation of the ``Simulator``
surface — ``attach_traffic`` / ``run`` / ``run_experiment`` /
``activity`` plus the ``network`` stats facade — that produces
byte-identical :class:`~repro.noc.metrics.WindowStats` for any
workload it supports.  Two backends ship:

* ``object`` — the activity-gated object-per-flit cycle loop of
  :class:`repro.noc.simulator.Simulator`.  The default, the oracle,
  and the only backend that supports every workload axis.
* ``array`` — the struct-of-arrays numpy kernel of
  :mod:`repro.noc.array_backend`, which executes each DESIGN.md §1
  phase as a vectorized pass over all routers at once — and, given
  ``seeds=[...]`` (and optionally ``rates=[...]``), over all lanes at
  once (one batched kernel pass simulates N independent ``(seed,
  rate)`` points of one config and mix).  It supports a documented
  subset of the workload space (unicast and XY-tree multicast mixes on
  xy/yx/o1turn/valiant routing, any pattern and injection process) and
  *rejects* everything else — ``separate_st_lt``, faults, probes —
  with a clear error rather than silently diverging.

The registry is name → lazy loader, so nothing — :mod:`repro.noc`,
the engine, the ``repro`` CLI — pays for numpy unless the array
backend is actually selected (tests/engine/test_import_budget.py).
Backend choice is an *execution* detail, never an identity axis: a
:class:`~repro.engine.jobspec.JobSpec`'s canonical encoding (and hence
its cache key) is backend-free, because equal jobs produce equal bytes
on every backend that accepts them.
"""

from __future__ import annotations

_REGISTRY = {}


def register_backend(name, loader):
    """Register ``loader`` (a zero-arg callable returning the backend's
    simulator factory) under ``name``."""
    _REGISTRY[name] = loader


def backend_names():
    """Registered backend names, sorted (for argparse ``choices=``)."""
    return tuple(sorted(_REGISTRY))


def resolve_backend(name):
    """The simulator factory registered under ``name``.

    Raises a :class:`ValueError` naming the available backends for an
    unknown name, so a typo in ``--backend`` or a deserialized JobSpec
    surfaces as a diagnostic instead of a KeyError.
    """
    try:
        loader = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown simulation backend {name!r}; "
            f"choose from: {', '.join(backend_names())}"
        ) from None
    return loader()


def _load_object():
    from repro.noc.simulator import Simulator

    return Simulator


def _load_array():
    from repro.noc.array_backend import ArraySimulator

    return ArraySimulator


register_backend("object", _load_object)
register_backend("array", _load_array)
