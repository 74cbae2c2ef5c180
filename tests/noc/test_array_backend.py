"""Object-vs-array backend equivalence (DESIGN.md §9).

The array backend's contract is *byte identity*: for every workload it
accepts, ``Simulator(backend="array")`` must produce the same
WindowStats bytes — and the same per-router and per-NIC activity
counters — as the object-loop oracle.  These tests pin that contract
across the {injection} × {routing} × {pattern} matrix named in the
backend's support matrix, plus the adversarial axes the matrix hides
(multi-flit bodies, the no-bypass baseline pipeline, hotspot's
two-word destination draws, MMP's masked chain streams), and they pin
the *rejection* surface: everything outside the support matrix must
raise a clear ValueError instead of silently diverging.
"""

import gc
import json
import weakref

import pytest

from repro.noc.backend import backend_names, resolve_backend
from repro.noc.config import (
    NocConfig,
    proposed_vc_config,
    routed_vc_config,
)
from repro.noc.simulator import Simulator
from repro.noc.routing import make_routing
from repro.traffic import SyntheticBurst, SyntheticTraffic
from repro.traffic.mix import (
    MIXED_TRAFFIC,
    TrafficComponent,
    TrafficMix,
    UNIFORM_UNICAST,
)
from repro.noc.flit import MessageClass
from repro.traffic.patterns import HotspotPattern, make_pattern
from repro.traffic.processes import MMPProcess, make_process

FAST = dict(warmup=100, measure=300, drain=400)

#: unicast mix with 5-flit response bodies: exercises the body-flit
#: credit path and the NIC's class round-robin, which the single-flit
#: UNIFORM_UNICAST mix never touches
MULTI_FLIT = TrafficMix(
    "uni_multi",
    (
        TrafficComponent(
            "unicast_request", 0.5, MessageClass.REQUEST, 1, broadcast=False
        ),
        TrafficComponent(
            "unicast_response", 0.5, MessageClass.RESPONSE, 5, broadcast=False
        ),
    ),
)


def _point(routing="xy", pattern="uniform", injection="bernoulli",
           mix=UNIFORM_UNICAST, bypass=True, rate=0.14, k=4, seed=11):
    """(config, traffic) for one operating point of the matrix."""
    alg = make_routing(routing)
    vcs = (
        routed_vc_config()
        if routing in ("o1turn", "valiant")
        else proposed_vc_config()
    )
    cfg = NocConfig(k=k, vcs=vcs, bypass=bypass, routing=alg)
    traffic = SyntheticTraffic(
        mix,
        injection_rate=rate,
        seed=seed,
        pattern=None if pattern == "uniform" else make_pattern(pattern),
        process=None if injection == "bernoulli" else make_process(injection),
    )
    return cfg, traffic


def _observables(stats, network):
    return (
        json.dumps(stats.to_dict(), sort_keys=True),
        [s.as_dict() for s in network.router_stats],
        [s.as_dict() for s in network.nic_stats],
    )


def run_backend(backend, windows=FAST, **kwargs):
    """One experiment window; returns (stats bytes, router counters,
    NIC counters) so comparisons cover every observable surface."""
    cfg, traffic = _point(**kwargs)
    sim = Simulator(cfg, traffic=traffic, backend=backend)
    stats = sim.run_experiment(**windows)
    return _observables(stats, sim.network)


def run_batched(seeds, rates=None, windows=FAST, **kwargs):
    """One batched window, lane k at ``(seeds[k], rates[k])`` (the
    template's rate without ``rates``); returns the per-lane observable
    triples, in lane order."""
    cfg, traffic = _point(**kwargs)
    sim = Simulator(cfg, traffic=traffic, backend="array", seeds=seeds,
                    rates=rates)
    stats = sim.run_experiment_batch(**windows)
    return [
        _observables(st, sim.lane_network(b)) for b, st in enumerate(stats)
    ]


def assert_equivalent(**kwargs):
    assert run_backend("object", **kwargs) == run_backend("array", **kwargs)


class TestEquivalenceMatrix:
    """The ISSUE's {bernoulli,onoff} × {xy,o1turn,valiant} × {uniform,
    transpose,tornado} matrix, byte-identical on every surface."""

    @pytest.mark.parametrize("injection", ["bernoulli", "onoff"])
    @pytest.mark.parametrize("routing", ["xy", "o1turn", "valiant"])
    @pytest.mark.parametrize("pattern", ["uniform", "transpose", "tornado"])
    def test_window_stats_and_counters_byte_identical(
        self, injection, routing, pattern
    ):
        assert_equivalent(
            routing=routing, pattern=pattern, injection=injection
        )


class TestMulticastEquivalence:
    """XY-tree broadcast fanout (the k²-scaling traffic): the mixed
    broadcast/unicast mix, byte-identical on every observable,
    including when the unicasts route o1turn or valiant around the XY
    multicast trees."""

    @pytest.mark.parametrize("routing", ["xy", "o1turn", "valiant"])
    def test_mixed_mix_byte_identical(self, routing):
        assert_equivalent(mix=MIXED_TRAFFIC, routing=routing, rate=0.05)

    def test_mixed_mix_saturating(self):
        assert_equivalent(mix=MIXED_TRAFFIC, rate=0.12)

    def test_mixed_mix_no_bypass(self):
        assert_equivalent(mix=MIXED_TRAFFIC, rate=0.05, bypass=False)


class TestBatchedLanes:
    """The batch axis: a lane is a ``(seed, rate)`` pair, and lane *k*
    must be byte-identical — WindowStats JSON, per-router counters,
    per-NIC counters — to the solo array run at ``(seeds[k],
    rates[k])`` (and, transitively through the equivalence matrix
    above, to the object oracle)."""

    SEEDS = [3, 101, 7]
    RATES = [0.05, 0.2, 0.12]

    def assert_lanes_match_solo(self, backend="array", **kwargs):
        lanes = run_batched(self.SEEDS, self.RATES, **kwargs)
        for seed, rate, lane in zip(self.SEEDS, self.RATES, lanes):
            assert lane == run_backend(
                backend, seed=seed, rate=rate, **kwargs
            )

    @pytest.mark.parametrize("injection", ["bernoulli", "onoff", "mmp"])
    @pytest.mark.parametrize("routing", ["xy", "o1turn", "valiant"])
    @pytest.mark.parametrize("pattern", ["uniform", "transpose"])
    def test_lanes_match_solo_runs(self, injection, routing, pattern):
        self.assert_lanes_match_solo(
            routing=routing, pattern=pattern, injection=injection
        )

    def test_modulated_lanes_use_their_own_rate_tables(self):
        # on-off keeps the ON rate and moves the OFF->ON probability
        # with the mean rate: a kernel that shares lane 0's leave table
        # gives every lane lane 0's load
        lanes = run_batched([11, 11], [0.04, 0.3], injection="onoff")
        for rate, lane in zip([0.04, 0.3], lanes):
            assert lane == run_backend(
                "array", seed=11, rate=rate, injection="onoff"
            )
        assert lanes[0] != lanes[1]

    def test_rates_default_to_the_templates(self):
        lanes = run_batched(self.SEEDS, rate=0.09)
        for seed, lane in zip(self.SEEDS, lanes):
            assert lane == run_backend("array", seed=seed, rate=0.09)

    def test_multicast_lanes_match_solo_runs(self):
        self.assert_lanes_match_solo(mix=MIXED_TRAFFIC)

    def test_lanes_match_the_object_oracle(self):
        self.assert_lanes_match_solo("object", routing="valiant")

    def test_saturated_lane_beside_an_idle_one(self):
        # the drain budget is shared: the swamped lane exhausts it and
        # reports max-cycles, the idle lane went quiet long before and
        # must not notice
        windows = dict(warmup=50, measure=200, drain=40)
        seeds, rates = [5, 9], [0.0, 0.9]
        lanes = run_batched(seeds, rates, windows=windows)
        assert [json.loads(lane[0])["stop_reason"] for lane in lanes] \
            == ["completed", "max-cycles"]
        for seed, rate, lane in zip(seeds, rates, lanes):
            assert lane == run_backend(
                "array", windows=windows, seed=seed, rate=rate
            )

    def test_template_seed_is_ignored(self):
        cfg, traffic = _point(seed=999)
        sim = Simulator(cfg, traffic=traffic, backend="array", seeds=[3, 11])
        stats = sim.run_experiment_batch(**FAST)
        singles = [
            run_backend("array", seed=s)[0] for s in (3, 11)
        ]
        assert [
            json.dumps(st.to_dict(), sort_keys=True) for st in stats
        ] == singles

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            Simulator(NocConfig(k=4), backend="array", seeds=[])

    def test_object_backend_rejects_seeds(self):
        with pytest.raises(ValueError, match="backend='array'"):
            Simulator(NocConfig(k=4), seeds=[3, 11])

    @pytest.mark.parametrize("seeds", [None, [3], [3, 11, 42]])
    def test_rates_must_pair_with_seeds(self, seeds):
        with pytest.raises(ValueError, match="one injection rate per"):
            Simulator(NocConfig(k=4), backend="array", seeds=seeds,
                      rates=[0.1, 0.2])


class TestSimulatorLifetime:
    def test_a_finished_simulator_is_freed_without_the_cyclic_gc(self):
        # a batched simulator holds tens of MB of arrays; a reference
        # cycle through the network facade used to keep every finished
        # one alive until the collector happened to run
        gc.collect()
        gc.disable()
        try:
            cfg, traffic = _point()
            sim = Simulator(cfg, traffic=traffic, backend="array",
                            seeds=[3, 11])
            sim.run_experiment_batch(warmup=5, measure=20, drain=50)
            assert sim.network.cycles > 0
            ref = weakref.ref(sim)
            del sim
            assert ref() is None
        finally:
            gc.enable()


class TestEquivalenceEdges:
    def test_yx_routing(self):
        assert_equivalent(routing="yx", pattern="transpose")

    def test_multi_flit_bodies(self):
        assert_equivalent(mix=MULTI_FLIT, rate=0.2)

    def test_no_bypass_baseline_pipeline(self):
        assert_equivalent(bypass=False, rate=0.21, pattern="transpose")

    def test_mmp_injection_with_hotspot_pattern(self):
        # two-word destination draws + masked per-state chain streams
        cfg = NocConfig(k=4)
        results = []
        for backend in ("object", "array"):
            traffic = SyntheticTraffic(
                UNIFORM_UNICAST,
                injection_rate=0.14,
                seed=11,
                pattern=HotspotPattern(hot_nodes=(0, 5), fraction=0.3),
                process=MMPProcess(),
            )
            sim = Simulator(cfg, traffic=traffic, backend=backend)
            stats = sim.run_experiment(**FAST)
            results.append(json.dumps(stats.to_dict(), sort_keys=True))
        assert results[0] == results[1]

    def test_saturated_8x8(self):
        assert_equivalent(rate=0.21, k=8)

    def test_identical_generators_chip_artifact(self):
        cfg = NocConfig(k=4)
        results = []
        for backend in ("object", "array"):
            traffic = SyntheticTraffic(
                UNIFORM_UNICAST, 0.1, seed=7, identical_generators=True
            )
            sim = Simulator(cfg, traffic=traffic, backend=backend)
            results.append(
                json.dumps(
                    sim.run_experiment(**FAST).to_dict(), sort_keys=True
                )
            )
        assert results[0] == results[1]


class TestBackendSelection:
    def test_registry_names(self):
        assert backend_names() == ("array", "object")

    def test_unknown_backend_raises_with_choices(self):
        with pytest.raises(ValueError, match=r"array.*object"):
            Simulator(NocConfig(k=4), backend="vector")

    def test_resolve_unknown_names_available(self):
        with pytest.raises(ValueError, match="unknown simulation backend"):
            resolve_backend("cuda")

    def test_object_backend_is_default_class(self):
        sim = Simulator(NocConfig(k=4))
        assert type(sim) is Simulator
        assert sim.backend == "object"

    def test_array_backend_dispatches(self):
        sim = Simulator(NocConfig(k=4), backend="array")
        assert sim.backend == "array"
        assert type(sim) is not Simulator


class TestSupportMatrixRejections:
    """Everything outside the support matrix fails loudly, never
    silently diverges.  Broadcast mixes and valiant routing moved to
    the *supported* side (TestMulticastEquivalence /
    TestEquivalenceMatrix above); what remains rejected is
    ``separate_st_lt``, faults, probes, non-synthetic sources — and
    broadcast traffic on a config without router-level multicast,
    which would need per-destination flit replication."""

    def test_broadcast_on_multicast_free_config_rejected(self):
        sim = Simulator(NocConfig(k=4, multicast=False), backend="array")
        with pytest.raises(ValueError, match="multicast=False"):
            sim.attach_traffic(SyntheticTraffic(MIXED_TRAFFIC, 0.05, seed=7))

    def test_broadcast_under_yx_routing_rejected(self):
        # yx cannot share the network with XY multicast trees; the
        # array backend mirrors the object backend's rejection
        cfg = NocConfig(k=4, routing=make_routing("yx"))
        sim = Simulator(cfg, backend="array")
        with pytest.raises(ValueError, match="multicast trees are XY-only"):
            sim.attach_traffic(SyntheticTraffic(MIXED_TRAFFIC, 0.05, seed=7))

    def test_separate_st_lt_rejected(self):
        cfg = NocConfig(k=4, bypass=False, separate_st_lt=True)
        with pytest.raises(ValueError, match="separate_st_lt"):
            Simulator(cfg, backend="array")

    def test_faults_rejected(self):
        from repro.noc.faults import BitErrorFaults

        sim = Simulator(NocConfig(k=4), backend="array")
        with pytest.raises(ValueError, match="fault"):
            sim.attach_faults(BitErrorFaults(rate=0.01), seed=7)

    def test_packets_too_long_for_the_int8_table_rejected(self):
        mix = TrafficMix(
            "jumbo",
            (TrafficComponent("body", 1.0, MessageClass.RESPONSE, 128,
                              broadcast=False),),
        )
        with pytest.raises(ValueError, match="127 flits"):
            Simulator(
                NocConfig(k=4), backend="array",
                traffic=SyntheticTraffic(mix, 0.1, seed=3),
            )

    def test_scripted_burst_source_rejected(self):
        sim = Simulator(NocConfig(k=4), backend="array")
        with pytest.raises(ValueError, match="SyntheticTraffic"):
            sim.attach_traffic(SyntheticBurst({}))
