"""The unit of work of the experiment engine.

A :class:`JobSpec` pins down everything that determines one simulated
operating point — network configuration, traffic mix, injection rate,
seed and cycle counts.  Because the simulator is fully deterministic
for a given seed (see DESIGN.md), a JobSpec is a *value*: running it
twice, on any backend, yields byte-identical :class:`WindowStats`.
That property is what makes both the process-pool fan-out and the
content-addressed result cache sound.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.noc.config import NocConfig
from repro.traffic.mix import TrafficMix
from repro.traffic.patterns import UniformPattern, pattern_from_dict
from repro.traffic.processes import BernoulliProcess, process_from_dict

#: The paper's Section 4.1 measurement methodology; the single source
#: for every layer that exposes window defaults (JobSpec, run_point,
#: the fig5/fig13 drivers and the CLI).
DEFAULT_SEED = 7
DEFAULT_WARMUP = 1_000
DEFAULT_MEASURE = 6_000
DEFAULT_DRAIN = 6_000


@dataclass(frozen=True)
class JobSpec:
    """One simulation point, as a hashable, serializable value object."""

    config: NocConfig
    mix: TrafficMix
    rate: float
    seed: int = DEFAULT_SEED
    warmup: int = DEFAULT_WARMUP
    measure: int = DEFAULT_MEASURE
    drain: int = DEFAULT_DRAIN
    identical_generators: bool = False
    name: str = ""
    #: spatial destination pattern for unicasts; ``None`` means the
    #: paper's uniform-random default (and an explicitly-passed
    #: UniformPattern is normalised to None, so equal jobs stay equal)
    pattern: object = None
    #: temporal injection process; ``None`` means the paper's Bernoulli
    #: default (and an explicitly-passed BernoulliProcess is normalised
    #: to None, so equal jobs stay equal)
    injection: object = None
    #: fault model (a :class:`repro.noc.faults.FaultModel` value);
    #: ``None`` means fault free and is omitted from the encoding, so
    #: pre-fault cache keys stay valid byte for byte
    faults: object = None
    #: simulation backend (see :mod:`repro.noc.backend`).  An
    #: *execution* detail, never an identity axis: it is excluded from
    #: :meth:`to_dict` / :meth:`canonical_json` entirely (not merely
    #: omitted-when-default), because equal jobs produce byte-identical
    #: stats on every backend that accepts them, and so must share one
    #: content address.  Worker payloads carry it via
    #: :meth:`to_payload`, where it *is* omitted-when-default.
    backend: str = "object"

    @property
    def routing(self):
        """The job's unicast routing algorithm (lives on the config,
        where the VC partition is validated; surfaced here because it
        is an axis of the experiment space like ``pattern``).  The
        config omits the XY default from its encoding, so pre-routing
        cache keys stay byte-identical.
        """
        return self.config.routing

    def __post_init__(self):
        if self.rate < 0 or self.rate > 1:
            raise ValueError("injection rate must be within [0, 1]")
        for attr in ("warmup", "measure", "drain"):
            if getattr(self, attr) < 0:
                raise ValueError(f"{attr} cycle count must be non-negative")
        # node n's PRBS-31 register starts at seed + n (every node at
        # seed under identical_generators) and must be a non-zero state
        span = 1 if self.identical_generators else self.config.num_nodes
        if not 1 <= self.seed <= (1 << 31) - span:
            raise ValueError(
                f"seed must be within [1, {(1 << 31) - span}] for a "
                f"{self.config.num_nodes}-node network, got {self.seed}"
            )
        if self.pattern == UniformPattern():
            object.__setattr__(self, "pattern", None)
        if self.pattern is not None:
            self.pattern.validate(self.config.k)
        if self.injection == BernoulliProcess():
            object.__setattr__(self, "injection", None)
        if self.injection is not None:
            self.injection.validate(self.rate)
        if self.faults is not None:
            self.faults.validate(self.config)
        if self.backend != "object":
            # surfaces a typo (or an unknown name in a deserialized
            # payload) as a ValueError naming the available backends
            from repro.noc.backend import resolve_backend

            resolve_backend(self.backend)

    # ------------------------------------------------------------ identity

    def to_dict(self):
        """A JSON-safe representation that :meth:`from_dict` inverts.

        The ``pattern`` key is omitted for the uniform default and the
        ``injection`` key for the Bernoulli default, so that
        pre-pattern and pre-process cache keys (and on-disk
        ``.repro_cache/`` entries) stay valid byte for byte.
        """
        data = {
            "config": self.config.to_dict(),
            "mix": self.mix.to_dict(),
            "rate": self.rate,
            "seed": self.seed,
            "warmup": self.warmup,
            "measure": self.measure,
            "drain": self.drain,
            "identical_generators": self.identical_generators,
            "name": self.name,
        }
        if self.pattern is not None:
            data["pattern"] = self.pattern.to_dict()
        if self.injection is not None:
            data["injection"] = self.injection.to_dict()
        if self.faults is not None:
            data["faults"] = self.faults.to_dict()
        return data

    def to_payload(self):
        """The worker-shipping representation: :meth:`to_dict` plus the
        execution-only ``backend`` key (omitted for the default), which
        :meth:`from_dict` accepts but :meth:`canonical_json` never
        sees."""
        data = self.to_dict()
        if self.backend != "object":
            data["backend"] = self.backend
        return data

    @classmethod
    def from_dict(cls, data):
        pattern = data.get("pattern")
        injection = data.get("injection")
        faults = data.get("faults")
        if faults is not None:
            # repro.noc.faults pulls in the recovery stack, which a
            # fault-free payload (every service POST, pool job and
            # cache read-back of the paper's exhibits) never needs
            from repro.noc.faults import fault_from_dict

            faults = fault_from_dict(faults)
        return cls(
            config=NocConfig.from_dict(data["config"]),
            mix=TrafficMix.from_dict(data["mix"]),
            rate=float(data["rate"]),
            seed=int(data["seed"]),
            warmup=int(data["warmup"]),
            measure=int(data["measure"]),
            drain=int(data["drain"]),
            identical_generators=bool(data["identical_generators"]),
            name=data["name"],
            pattern=pattern_from_dict(pattern) if pattern is not None else None,
            injection=(
                process_from_dict(injection) if injection is not None else None
            ),
            faults=faults,
            backend=data.get("backend", "object"),
        )

    def canonical_json(self):
        """A canonical encoding: the basis of the content address."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    @property
    def cache_key(self):
        """Stable content hash; the filename in :class:`ResultCache`."""
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    # ----------------------------------------------------------- execution

    def _simulator(self, seeds=None, rates=None):
        # imported where a job *runs*: hashing and cache lookup need
        # only the value types above (DESIGN.md §2)
        from repro.noc.simulator import Simulator
        from repro.traffic.generators import SyntheticTraffic

        traffic = SyntheticTraffic(
            self.mix,
            self.rate,
            seed=self.seed,
            identical_generators=self.identical_generators,
            pattern=self.pattern,
            process=self.injection,
        )
        sim = Simulator(self.config, name=self.name, backend=self.backend,
                        seeds=seeds, rates=rates)
        if self.faults is not None:
            # before the traffic: a hard model swaps the routing
            # runtime, which attach_traffic then validates against
            sim.attach_faults(self.faults, seed=self.seed)
        sim.attach_traffic(traffic)
        return sim

    def run(self):
        """Simulate this point on a fresh network; returns WindowStats."""
        return self._simulator().run_experiment(
            warmup=self.warmup, measure=self.measure, drain=self.drain
        )

    def run_batch(self, lanes):
        """Simulate one ``(seed, rate)`` lane per entry of ``lanes`` in
        one batched kernel pass; this job supplies everything else.

        Requires ``backend="array"`` (the batch axis lives in the
        struct-of-arrays kernel).  Returns one :class:`WindowStats` per
        lane, in order, each byte-identical to ``replace(self, seed=s,
        rate=r).run()`` — batching is an execution detail, never an
        identity axis, so callers (the Executor) cache each lane under
        its ordinary single-job content address.
        """
        if self.faults is not None:
            raise ValueError(
                "batched runs are fault-free only (faults are "
                "object-backend-only)"
            )
        seeds, rates = zip(*lanes)
        return self._simulator(seeds, rates).run_experiment_batch(
            warmup=self.warmup, measure=self.measure, drain=self.drain
        )

    def run_profiled(self):
        """Like :meth:`run` with the phase profiler attached; returns
        ``(WindowStats, telemetry dict)``.

        The stats are byte-identical to :meth:`run` — profiling is
        read-only observation (DESIGN.md §7) — so callers may cache
        them under the same content address.  The import is local to
        keep :mod:`repro.obs` off the unprofiled path entirely.
        """
        from repro.obs import Observer

        if self.backend != "object":
            raise ValueError(
                "phase profiling requires backend='object' (probes are "
                "object-only; see the support matrix in "
                "repro.noc.array_backend)"
            )
        sim = self._simulator()
        obs = Observer(trace=False, profile=True).attach(sim)
        stats = sim.run_experiment(
            warmup=self.warmup, measure=self.measure, drain=self.drain
        )
        telemetry = obs.report()
        obs.detach()
        telemetry["stop_reason"] = stats.stop_reason
        return stats, telemetry
