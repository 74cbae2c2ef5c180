"""The synchronous cycle loop and measurement harness.

Every cycle executes the same fixed phase order (arrivals, scheduled
crossbar traversals, mSA-II, mSA-I — see DESIGN.md); because all
cross-component state moves through fixed-delay channels, this order is
an implementation detail and the simulation is fully deterministic for
a given traffic seed.

The default loop is *activity gated* (DESIGN.md §3): each phase runs
only over the components that can do something this cycle — routers
woken by a channel delivery or re-armed while they hold local work,
NICs with pending deliveries, and NICs with a source or backlog.
Skipping a component outside those sets is exact (all its phase methods
would be no-ops), so gated and ungated stepping are byte-identical;
``Simulator(..., gated=False)`` keeps the exhaustive reference loop as
the oracle for that claim.

:meth:`Simulator.run_experiment` implements the methodology of
Section 4.1: a scan-chain-like warm-up that is excluded from
statistics, a measurement window in steady state, and a bounded drain
phase so in-flight packets can complete.
"""

from __future__ import annotations

from repro.noc.mesh import MeshNetwork
from repro.noc.metrics import aggregate, summarize_window

#: Cycles without a single ejection (while work is pending) that we
#: interpret as a hang; every routing algorithm keeps its VC
#: partitions' channel-dependency graphs acyclic (DESIGN.md §5), so
#: with conservative VC allocation this trips only on a simulator bug.
WATCHDOG_CYCLES = 10_000


class SimulationStalled(RuntimeError):
    """The watchdog found a busy network making no progress.

    :meth:`Simulator.run_experiment` converts this into the
    ``stop_reason="watchdog"`` field of its :class:`WindowStats` so
    sweeps report the cause structurally; a bare :meth:`Simulator.run`
    still propagates it (a stall outside the measurement harness is a
    bug the caller must see).
    """

    def __init__(self, cycle, window=WATCHDOG_CYCLES):
        super().__init__(
            f"network made no progress for {window} cycles at "
            f"cycle {cycle}: likely a flow-control bug"
        )
        self.cycle = cycle


class Simulator:
    """Drives a :class:`MeshNetwork` cycle by cycle.

    ``Simulator(...)`` is also the front door of the backend layer
    (DESIGN.md §9): ``backend="object"`` (the default) builds this
    object-per-flit loop, while any other registered name dispatches
    to that backend's simulator factory — e.g. ``backend="array"``
    returns a :class:`repro.noc.array_backend.ArraySimulator` with the
    same constructor and measurement surface.
    """

    def __new__(cls, config=None, traffic=None, name="", gated=True,
                backend="object", seeds=None, rates=None):
        if cls is Simulator and backend != "object":
            from repro.noc.backend import resolve_backend

            factory = resolve_backend(backend)
            # the factory's product is not a Simulator subclass, so
            # Python skips Simulator.__init__ on the returned instance
            return factory(config, traffic=traffic, name=name, gated=gated,
                           seeds=seeds, rates=rates)
        return super().__new__(cls)

    #: registry name of this backend (DESIGN.md §9)
    backend = "object"

    def __init__(self, config, traffic=None, name="", gated=True,
                 backend="object", seeds=None, rates=None):
        if seeds is not None or rates is not None:
            raise ValueError(
                "lane batching (seeds=[...], rates=[...]) requires "
                "backend='array'; the object loop runs one replica per "
                "Simulator"
            )
        self.cfg = config
        self.name = name or ("proposed" if config.bypass else "baseline")
        self.network = MeshNetwork(config)
        self.cycle = 0
        self.gated = gated
        self._last_progress = 0
        self._watchdog_start = 0
        self._watchdog_armed = False
        #: attached :class:`repro.obs.observer.Observer` (``None`` when
        #: unobserved).  The plain step functions carry no observer
        #: hooks at all; :meth:`_stepper` swaps in the observed
        #: variants while this is set, so an unobserved run pays
        #: nothing for the observability layer (DESIGN.md §7).
        self.obs = None
        #: attached :class:`repro.noc.faults.FaultState` (``None`` when
        #: fault free).  Like the observer, the plain step functions
        #: carry no fault hooks; :meth:`_stepper` wraps the chosen step
        #: variant with the fault engine's pre-cycle phase only while
        #: this is set, so a fault-free run pays nothing (DESIGN.md §8).
        self.faults = None
        #: gating effectiveness counters (diagnostics and tests):
        #: router-phase executions and NIC step/receive executions.
        self.router_cycles_executed = 0
        self.nic_steps_executed = 0
        self.nic_receives_executed = 0
        if traffic is not None:
            self.attach_traffic(traffic)

    def attach_traffic(self, traffic):
        """Install a traffic source on every NIC.

        Also binds the routing side of the workload: the network's
        header-draw streams are reseeded from the traffic seed (so a
        JobSpec's result is a pure function of its fields) and a
        multicast-bearing mix is rejected up front when the configured
        routing algorithm cannot share the network with the XY
        multicast trees (the ``yx`` restriction of DESIGN.md §5).
        """
        routing = self.cfg.routing
        mix = getattr(traffic, "mix", None)
        if (
            mix is not None
            and self.cfg.multicast
            and not routing.supports_multicast
            and any(c.broadcast for c in mix.components)
        ):
            raise ValueError(
                f"{routing.name} routing cannot carry router-level "
                f"multicast traffic (multicast trees are XY-only); use "
                f"xy routing or a multicast=False config"
            )
        if (
            mix is not None
            and self.cfg.multicast
            and self.faults is not None
            and self.faults.hard
            and any(c.broadcast for c in mix.components)
        ):
            raise ValueError(
                "hard fault models replace routing with spanning-tree "
                "rerouting, which cannot carry router-level multicast "
                "traffic; use a unicast mix or a soft fault model"
            )
        self.network.seed_routing(getattr(traffic, "seed", None))
        traffic.bind(self.cfg)
        for nic in self.network.nics:
            nic.source = traffic

    def attach_faults(self, model, seed=None):
        """Install a fault engine built from ``model`` (DESIGN.md §8).

        Must happen before the first cycle: a hard model swaps the
        network's routing runtime for fault-aware spanning-tree
        rerouting, which packets already in flight would not survive.
        ``seed`` (normally the traffic seed) keys the private PRBS
        fault streams so a JobSpec's result stays a pure function of
        its fields.
        """
        if self.faults is not None:
            raise RuntimeError("simulator already has a fault model attached")
        if self.cycle != 0:
            raise RuntimeError("faults must be attached before the first cycle")
        from repro.noc.faults import FaultState

        self.faults = FaultState(model, self, seed)
        return self.faults

    # ------------------------------------------------------------------
    # cycle loop
    # ------------------------------------------------------------------

    def step(self):
        """Advance the whole network by one clock cycle."""
        self._stepper()()

    def _stepper(self):
        """The bound step function for the current mode.

        Observed variants exist as separate functions (rather than
        ``if self.obs`` branches inside the plain ones) so an
        unobserved run executes exactly the pre-observability hot
        loop; the byte-identity tests in ``tests/obs`` guard the
        variants against drifting apart.
        """
        if self.obs is None:
            step = self._step_gated if self.gated else self._step_reference
        else:
            step = (
                self._step_gated_observed
                if self.gated
                else self._step_reference_observed
            )
        faults = self.faults
        if faults is None:
            return step

        def fault_step(step=step, faults=faults, sim=self):
            faults.pre_cycle(sim.cycle)
            step()

        return fault_step

    def _step_gated(self):
        """Activity-gated step: iterate only the active sets.

        The phase order is exactly that of :meth:`_step_reference`; the
        active sets are iterated in component-index order so even the
        (semantically irrelevant) intra-phase order matches.
        """
        t = self.cycle
        net = self.network
        routers = net.routers
        nics = net.nics

        woken = net.pop_router_wakes(t)
        active = sorted(woken) if woken else ()
        for i in active:
            routers[i].receive(t)
        rx = net.pop_nic_rx_wakes(t)
        if rx:
            self.nic_receives_executed += len(rx)
            for i in sorted(rx):
                nics[i].receive(t)
        live = net.live_nics()
        if live:
            self.nic_steps_executed += len(live)
            for i in live:
                nic = nics[i]
                nic.step(t)
                if nic.source is None and nic.backlog() == 0:
                    net.retire_nic_step(i)
        for i in active:
            routers[i].st_stage(t)
        for i in active:
            routers[i].msa2_stage(t)
        for i in active:
            routers[i].msa1_stage(t)
        if active:
            self.router_cycles_executed += len(active)
            for i in active:
                if routers[i].has_local_work():
                    net.schedule_router_wake(i, t + 1)
        net.cycles += 1
        self._check_watchdog(net.quiescent)
        self.cycle += 1

    def _step_reference(self):
        """The ungated reference loop: every component, every cycle.

        Kept as the oracle for the gating refactor — the determinism
        tests assert that gated runs are byte-identical to this loop.
        """
        t = self.cycle
        net = self.network
        # drop this cycle's wake entries so the schedules cannot grow
        # without bound; the reference loop visits everything anyway
        net.pop_router_wakes(t)
        net.pop_nic_rx_wakes(t)
        for router in net.routers:
            router.receive(t)
        for nic in net.nics:
            nic.receive(t)
        for nic in net.nics:
            nic.step(t)
        for router in net.routers:
            router.st_stage(t)
        for router in net.routers:
            router.msa2_stage(t)
        for router in net.routers:
            router.msa1_stage(t)
        net.cycles += 1
        self._check_watchdog(net.idle)
        self.cycle += 1

    def _step_gated_observed(self):
        """:meth:`_step_gated` with observer hooks (DESIGN.md §7).

        Identical phase structure and identical simulation side
        effects; the only additions are the begin/end cycle hooks and
        the optional phase-profiler marks.  The observed byte-identity
        tests assert this function never diverges from the plain one.
        """
        obs = self.obs
        prof = obs.profiler
        t = self.cycle
        obs.begin_cycle(t)
        net = self.network
        routers = net.routers
        nics = net.nics

        woken = net.pop_router_wakes(t)
        active = sorted(woken) if woken else ()
        for i in active:
            routers[i].receive(t)
        rx = net.pop_nic_rx_wakes(t)
        if rx:
            self.nic_receives_executed += len(rx)
            for i in sorted(rx):
                nics[i].receive(t)
        if prof is not None:
            prof.mark("receive")
        live = net.live_nics()
        if live:
            self.nic_steps_executed += len(live)
            for i in live:
                nic = nics[i]
                nic.step(t)
                if nic.source is None and nic.backlog() == 0:
                    net.retire_nic_step(i)
        if prof is not None:
            prof.mark("nic")
        for i in active:
            routers[i].st_stage(t)
        if prof is not None:
            prof.mark("st")
        for i in active:
            routers[i].msa2_stage(t)
        if prof is not None:
            prof.mark("msa2")
        for i in active:
            routers[i].msa1_stage(t)
        if active:
            self.router_cycles_executed += len(active)
            for i in active:
                if routers[i].has_local_work():
                    net.schedule_router_wake(i, t + 1)
        if prof is not None:
            prof.mark("msa1")
        net.cycles += 1
        self._check_watchdog(net.quiescent)
        obs.end_cycle(t, active)
        self.cycle += 1

    def _step_reference_observed(self):
        """:meth:`_step_reference` with observer hooks.

        The reference loop has no active set, so the end-cycle hook
        receives ``None`` (no wake/sleep events, ``nan`` active-set
        samples).
        """
        obs = self.obs
        prof = obs.profiler
        t = self.cycle
        obs.begin_cycle(t)
        net = self.network
        net.pop_router_wakes(t)
        net.pop_nic_rx_wakes(t)
        for router in net.routers:
            router.receive(t)
        for nic in net.nics:
            nic.receive(t)
        if prof is not None:
            prof.mark("receive")
        for nic in net.nics:
            nic.step(t)
        if prof is not None:
            prof.mark("nic")
        for router in net.routers:
            router.st_stage(t)
        if prof is not None:
            prof.mark("st")
        for router in net.routers:
            router.msa2_stage(t)
        if prof is not None:
            prof.mark("msa2")
        for router in net.routers:
            router.msa1_stage(t)
        if prof is not None:
            prof.mark("msa1")
        net.cycles += 1
        self._check_watchdog(net.idle)
        obs.end_cycle(t, None)
        self.cycle += 1

    def run(self, cycles):
        step = self._stepper()
        for _ in range(cycles):
            step()

    def _check_watchdog(self, quiet):
        """O(1) per cycle: compare the monotonic network ejection count.

        ``quiet`` (the mode's idle predicate) is only consulted on the
        slow path, once per WATCHDOG_CYCLES window, to distinguish a
        legitimately quiescent network from a hung one.  Because that
        probe is sparse, traffic injected *late* in a quiet window can
        look busy at the very first probe that sees it; a busy network
        therefore gets one full grace window (the *armed* state) and
        the run only aborts if it is still busy without a single
        ejection a whole window later — impossible for a healthy mesh,
        whose in-flight work ejects within its diameter in cycles.
        """
        net = self.network
        if net.ejections != self._last_progress:
            self._last_progress = net.ejections
            self._watchdog_start = self.cycle
            self._watchdog_armed = False
        elif self.cycle - self._watchdog_start > WATCHDOG_CYCLES:
            if quiet():
                self._watchdog_armed = False
            elif self._watchdog_armed:
                raise SimulationStalled(self.cycle, WATCHDOG_CYCLES)
            else:
                self._watchdog_armed = True
            self._watchdog_start = self.cycle

    # ------------------------------------------------------------------
    # measurement
    # ------------------------------------------------------------------

    def run_experiment(self, warmup=1_000, measure=10_000, drain=5_000):
        """Warm up, measure, drain; return :class:`WindowStats`.

        Latency statistics cover messages *created* inside the
        measurement window; throughput counts flits ejected inside it.
        The drain phase (with traffic switched off) lets in-flight
        messages finish so low-load latency is unbiased; at saturation
        the drain cap keeps runtime bounded and unfinished messages are
        reported as ``incomplete_messages``.

        Why the run ended is reported structurally in
        ``WindowStats.stop_reason``: ``completed`` normally,
        ``max-cycles`` when the drain cap expired with work in flight,
        and ``watchdog`` when the no-progress watchdog tripped (the
        :class:`SimulationStalled` is absorbed here — the numbers of a
        stalled run are still useful for diagnosing *where* it stuck).
        """
        net = self.network
        faults = self.faults
        stop_reason = "completed"
        try:
            self.run(warmup)
        except SimulationStalled:
            stop_reason = "watchdog"
        start_msgs = len(net.messages)
        start_activity = aggregate(net.router_stats).snapshot()
        start_nic = aggregate(net.nic_stats).snapshot()
        if faults is not None:
            start_dropped = faults.dropped_flits
            start_retx = faults.retransmissions
        if stop_reason == "completed":
            try:
                self.run(measure)
            except SimulationStalled:
                stop_reason = "watchdog"
        end_nic = aggregate(net.nic_stats)
        window_dropped = window_retx = 0
        if faults is not None:
            # mirror the NIC-counter timing: window deltas are taken
            # right after the measurement window, before the drain
            window_dropped = faults.dropped_flits - start_dropped
            window_retx = faults.retransmissions - start_retx
        window_msgs = net.messages[start_msgs : len(net.messages)]
        # stop generating traffic, then drain
        sources = [nic.source for nic in net.nics]
        for nic in net.nics:
            nic.source = None
        quiet = net.quiescent if self.gated else net.idle
        if faults is not None:
            base_quiet = quiet

            def quiet(base_quiet=base_quiet, faults=faults):
                # pending NACKs/backoffs keep the drain alive even
                # while the network itself is momentarily idle
                return base_quiet() and not faults.busy()

        step = self._stepper()
        drained = 0
        if stop_reason == "completed":
            try:
                while drained < drain and not quiet():
                    step()
                    drained += 1
            except SimulationStalled:
                stop_reason = "watchdog"
            else:
                if drained >= drain and not quiet():
                    stop_reason = "max-cycles"
        for nic, source in zip(net.nics, sources):
            nic.source = source
        if (
            faults is not None
            and faults.partitioned
            and stop_reason in ("completed", "max-cycles")
        ):
            stop_reason = "partitioned"
        end_activity = aggregate(net.router_stats)
        delta = end_activity - start_activity
        ejected = end_nic.ejected_flits - start_nic.ejected_flits
        rate = getattr(sources[0], "injection_rate", float("nan"))
        return summarize_window(
            self.cfg,
            self.name,
            rate,
            measure,
            window_msgs,
            ejected,
            delta.bypasses,
            delta.xbar_input_traversals,
            stop_reason=stop_reason,
            dropped_flits=window_dropped,
            retransmissions=window_retx,
        )

    def activity(self):
        """Aggregate router activity since construction (for power models)."""
        return self.network.total_router_activity()
