"""JobSpec identity: hashing, serialization round-trips, cache keys."""

import json

import pytest

from repro.core.presets import baseline_network, proposed_network
from repro.engine import JobSpec
from repro.noc.config import NocConfig
from repro.noc.metrics import WindowStats
from repro.traffic.mix import BROADCAST_ONLY, MIXED_TRAFFIC, TrafficMix
from repro.traffic.processes import OnOffProcess

FAST = dict(warmup=100, measure=300, drain=400)


def make_job(**overrides):
    base = dict(
        config=proposed_network(),
        mix=MIXED_TRAFFIC,
        rate=0.03,
        name="proposed",
        **FAST,
    )
    base.update(overrides)
    return JobSpec(**base)


class TestValueSemantics:
    def test_hashable_and_equal(self):
        assert make_job() == make_job()
        assert hash(make_job()) == hash(make_job())
        assert len({make_job(), make_job(rate=0.05)}) == 2

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            make_job(rate=1.5)
        with pytest.raises(ValueError):
            make_job(rate=-0.1)

    def test_rejects_negative_cycles(self):
        with pytest.raises(ValueError):
            make_job(measure=-1)

    def test_rejects_seeds_no_generator_can_start_from(self):
        # node n's PRBS-31 register starts at seed + n: zero and
        # anything that reaches 2**31 used to die at bind instead
        nodes = make_job().config.num_nodes
        top = (1 << 31) - nodes
        for seed in (0, -3, top + 1, 1 << 31):
            with pytest.raises(ValueError, match="seed must be within"):
                make_job(seed=seed)
        for seed in (1, top):
            assert make_job(seed=seed).run().stop_reason == "completed"
        # identical generators all start at the seed itself
        make_job(seed=(1 << 31) - 1, identical_generators=True)


class TestSerialization:
    def test_round_trip_preserves_identity(self):
        job = make_job()
        clone = JobSpec.from_dict(job.to_dict())
        assert clone == job
        assert clone.cache_key == job.cache_key

    def test_dict_is_json_safe(self):
        job = make_job()
        assert json.loads(json.dumps(job.to_dict())) == job.to_dict()

    def test_config_round_trip(self):
        for cfg in (proposed_network(), baseline_network(k=8, flit_bits=128)):
            assert NocConfig.from_dict(cfg.to_dict()) == cfg

    def test_mix_round_trip(self):
        for mix in (MIXED_TRAFFIC, BROADCAST_ONLY):
            assert TrafficMix.from_dict(mix.to_dict()) == mix

    def test_window_stats_round_trip(self):
        stats = make_job().run()
        clone = WindowStats.from_dict(stats.to_dict())
        assert clone == stats
        assert json.dumps(clone.to_dict(), sort_keys=True) == json.dumps(
            stats.to_dict(), sort_keys=True
        )


class TestCacheKey:
    def test_key_is_stable_across_instances(self):
        assert make_job().cache_key == make_job().cache_key

    def test_key_depends_on_every_field(self):
        reference = make_job()
        variants = [
            make_job(config=baseline_network()),
            make_job(mix=BROADCAST_ONLY),
            make_job(rate=0.05),
            make_job(seed=11),
            make_job(warmup=FAST["warmup"] + 1),
            make_job(measure=FAST["measure"] + 1),
            make_job(drain=FAST["drain"] + 1),
            make_job(identical_generators=True),
            make_job(name="other"),
            make_job(injection=OnOffProcess()),
            make_job(injection=OnOffProcess(burst_length=16.0)),
        ]
        keys = {reference.cache_key} | {v.cache_key for v in variants}
        assert len(keys) == len(variants) + 1
