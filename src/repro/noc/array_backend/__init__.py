"""Struct-of-arrays simulation backend (DESIGN.md §9).

The :class:`ArraySimulator` replaces the object-per-flit cycle loop
with preallocated numpy integer arrays indexed ``[router, port, vc,
slot]`` and executes each DESIGN.md §1 phase as one vectorized pass
over all routers.  It is registered as ``backend="array"`` in
:mod:`repro.noc.backend`; the object loop remains the oracle, and the
equivalence suite in ``tests/noc/test_array_backend.py`` asserts
byte-identical WindowStats and per-router counters on every supported
workload axis.

Every array also carries a leading *batch* axis: ``ArraySimulator(...,
seeds=[...], rates=[...])`` lays out ``B`` simulations lane by lane
(lane ``b`` owns routers ``[b*R, (b+1)*R)`` in the flattened index
space, runs at ``seeds[b]`` and ``rates[b]``) and advances all of them
in the same vectorized pass, so the ``N`` points of a rate x replica
sweep cost one kernel dispatch per cycle instead of ``N``.  Lanes share
the config, the mix, pattern and process, the static route/group
tables and the measurement windows, and nothing else; lane ``b`` of a
batched run is byte-identical to a solo run at its seed and rate.

Support matrix (anything outside raises a clear ``ValueError``):

==================  ==========================================
axis                 supported by ``backend="array"``
==================  ==========================================
traffic mixes        unicast, plus XY-tree broadcast/multicast
                     on ``multicast=True`` configs (multi-flit
                     broadcast bodies and the ``multicast=False``
                     per-destination replication fallback are
                     object-only)
routing              xy, yx, o1turn, valiant (yx rejects
                     multicast mixes: the trees are XY-only)
patterns             all registered patterns
injection processes  all (bernoulli, onoff, mmp)
batching             ``seeds=[...]`` (+ ``rates=[...]``) runs N
                     ``(seed, rate)`` lanes in one pass (object
                     backend is one point per run)
packet length        at most 127 flits (int8 packet table)
pipeline             combined ST+LT only (``separate_st_lt``
                     is object-only)
faults               object-only
observability        object-only (probes never touch the arrays)
==================  ==========================================
"""

from repro.noc.array_backend.kernel import ArraySimulator

__all__ = ["ArraySimulator"]
