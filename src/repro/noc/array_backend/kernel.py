"""The struct-of-arrays cycle kernel (DESIGN.md §9).

Layout
------
Routers are flattened: with ``R = k*k`` routers per replica and ``P =
5`` ports, input port ``p`` of router ``r`` is flat index ``n = r*P +
p`` and the matching output port is the same flat index on the output
side.  A leading **batch axis** turns one kernel pass into ``B``
independent simulations of the same config, mix and windows, each
lane a ``(seed, rate)`` pair — the replicas of one operating point,
the points of one rate sweep, or both: lane ``b`` owns global nodes
``[b*R, (b+1)*R)`` and global ports ``[b*R*P, (b+1)*R*P)``, so every
per-port array is simply ``B`` times longer and every vectorized phase
sweeps all lanes at once.  Links and credit returns never cross a lane
boundary (the static ``DST_IN``/``CRED_TARGET`` tables are built per
lane and offset) and the injection probabilities are per node, so lane
``b`` of a batched run is bit-for-bit the solo simulation at its seed
and rate.  Credit trackers are unified: tracker ``m < B*R*P`` is
router output port ``m`` and tracker ``B*R*P + g`` is the NIC of
global node ``g``.

Channels collapse into receiver-indexed registers.  Flit, lookahead,
injection and ejection wires have delay one and at most one payload
per wire per cycle, and within a cycle every read of such a wire
(phase ``receive``) precedes every write (``st``/``msa2``/NIC step),
so a single slot per receiver is exact.  Credit wires have delay two
and at most one credit per wire per cycle, so a two-slot ping-pong
indexed by ``arrival_cycle % 2`` is exact for the same reason.

Valiant routing
---------------
A packet carries a second header word: ``p_w[pid]`` is the random
intermediate router (``-1`` once consumed, or when the draw landed on
the source and the packet was born in phase 1).  The packed flit word
grows an ``_ADV`` bit — the vectorized mirror of the object loop's
``RouteState.advance``: every flit arrival at its waypoint router
sets the bit *before* the route is derived, the lookahead pass
mirrors the advance one cycle ahead so the pre-allocated route and VC
phase match the flit exactly, and downstream VC allocation draws from
the ``(class, phase)`` partition selected by the advanced bit.

Multicast
---------
Broadcast mixes compile to XY multicast trees: ``MC_PORTS[src, r]``
is the output-port bitmask of the tree rooted at ``src`` as it passes
router ``r`` (precomputed from the same ``_xy_partition`` the object
router calls per flit).  mSA-II request vectors become a ``(candidate,
port)`` boolean matrix — the matrix arbiter generalises unchanged —
and the crossbar forks a winning flit to every granted branch as a
masked scatter over the port axis.  A partially granted multicast
keeps its buffer slot and re-asks for the remaining branches
(``mc_granted`` bitmask per input VC), traversing the crossbar once
per grant round exactly like the object router's repeated ``STOp``\\ s;
lookahead bypass stays all-or-nothing.

Performance notes
-----------------
At small radix the cost of a numpy pass is dominated by per-op
dispatch, not element count, so the kernel is written to minimise op
*count*: flit identity travels as one packed word (``pid << 3 |
adv | tail | head``), emptiness checks are plain Python integers
maintained at the mutation sites instead of array scans, activity
counters are per-port arrays bumped with unique-index fancy adds
(every event set touches each port at most once per cycle — a pinned
pipeline invariant) and folded to per-router view lazily, and the NIC
front end (injection draws, VC allocation, class round-robin) runs as
vectorized passes over numpy ring queues.  Batching multiplies the
work per pass without adding passes — which is the whole point: ``B``
lanes cost roughly one lane's dispatch overhead.

Draw-stream contract
--------------------
PRBS-31 streams live in int64 state arrays and are advanced with the
same two-shift/xor ``next_word(24)`` batch step as
:class:`repro.traffic.prbs.PRBSGenerator`, under masks that replicate
the object backend's *conditional* draws exactly: a zero-rate chain
state consumes no main-stream word, a ``leave == 0`` state consumes
no chain word, deterministic patterns consume no destination word,
broadcast packets consume no destination and no routing word, o1turn
consumes one routing-stream bit and valiant one routing-stream word
per *unicast* packet header.  Initial states are produced by the
tested scalar constructors (seed diffusion, the stationary-
distribution chain draw) when the traffic source binds, then lifted
into the arrays — so the very first draw already matches the oracle.

Everything observable — WindowStats, per-router and per-NIC
ActivityCounters, stop reasons, watchdog behaviour — is byte-identical
to ``backend="object"`` for every workload this kernel accepts; the
equivalence suite pins that claim across the injection x routing x
pattern matrix, including batch-lane extraction.
"""

from __future__ import annotations

import numpy as np

from repro.noc.metrics import ActivityCounters, summarize_window
from repro.noc.ports import EAST, LOCAL, NORTH, NUM_PORTS, OPPOSITE, SOUTH, WEST
from repro.noc.routing import (
    _ROUTING_STREAM_SALT,
    _xy_partition,
    coords,
    next_router,
    node_at,
)
from repro.noc.simulator import WATCHDOG_CYCLES, SimulationStalled
from repro.traffic.prbs import PRBSGenerator, salted_stream_seed

P = NUM_PORTS
_MASK31 = (1 << 31) - 1
#: packed flit word: ``pid << 3 | flags`` with HEAD/TAIL/ADV flag bits
_HEAD = 1
_TAIL = 2
_ADV = 4  # valiant header advanced past its intermediate waypoint
#: buf_stage encoding (mirrors Flit.stage None / "S2" / "GRANTED")
_ST_NONE, _ST_S2, _ST_GRANTED = 0, 1, 2

#: routing algorithms the kernel can compile
_SUPPORTED_ROUTING = ("o1turn", "valiant", "xy", "yx")


def _unsupported(what):
    return ValueError(
        f"backend=\"array\" does not support {what}; "
        f"use backend=\"object\" (see the support matrix in "
        f"repro/noc/array_backend/__init__.py and DESIGN.md §9)"
    )


def _word24(state):
    """Vectorized ``PRBSGenerator.next_word(24)`` on an int64 array."""
    word = ((state >> 7) ^ (state >> 4)) & 0xFFFFFF
    return word, ((state << 24) | word) & _MASK31


class _MsgView:
    """Lightweight stand-in for :class:`repro.noc.flit.Message` with
    exactly the surface :func:`summarize_window` consumes."""

    __slots__ = (
        "creation_cycle", "completion_cycle", "flits_per_packet",
        "is_multicast",
    )

    def __init__(self, creation, completion, flits, mcast=False):
        self.creation_cycle = creation
        self.completion_cycle = None if completion < 0 else completion
        self.flits_per_packet = flits
        self.is_multicast = mcast

    @property
    def complete(self):
        return self.completion_cycle is not None

    @property
    def latency(self):
        return self.completion_cycle - self.creation_cycle


class _ArrayNetwork:
    """Stats facade matching the ``Simulator.network`` surface.

    For a batched simulator this is a *per-lane* view; plain
    ``sim.network`` is lane 0 and ``sim.lane_network(b)`` the rest.
    """

    def __init__(self, sim, lane=0):
        self._sim = sim
        self._lane = lane

    @property
    def cfg(self):
        return self._sim.cfg

    @property
    def cycles(self):
        return self._sim._net_cycles

    @property
    def ejections(self):
        sim = self._sim
        if sim.B > 1:
            return int(sim._lane_ej_counts()[self._lane])
        return sim._net_ejections

    @property
    def router_stats(self):
        return self._sim._router_counters(self._lane)

    @property
    def nic_stats(self):
        return self._sim._nic_counters(self._lane)

    @property
    def messages(self):
        sim = self._sim
        return sim._message_views(0, sim._lane_count(self._lane),
                                  lane=self._lane)

    def total_router_activity(self):
        agg = ActivityCounters()
        for c in self.router_stats:
            agg = agg + c
        agg.cycles += self.cycles * self._sim.R
        return agg

    def total_nic_activity(self):
        agg = ActivityCounters()
        for c in self.nic_stats:
            agg = agg + c
        agg.cycles += self.cycles * self._sim.R
        return agg


class ArraySimulator:
    """Struct-of-arrays drop-in for :class:`repro.noc.simulator.Simulator`.

    Construct it directly or via ``Simulator(..., backend="array")``.
    The constructor surface, :meth:`run`, :meth:`run_experiment`,
    :meth:`activity` and the ``network`` stats facade match the object
    backend; unsupported workload axes raise ``ValueError`` at attach
    or construction time instead of silently diverging.

    ``seeds=[s0, s1, ...]`` builds a *batched* simulator: ``B`` lanes
    of the same configuration, each driven by its own traffic seed —
    and, with ``rates=[r0, r1, ...]``, its own injection rate (the
    attached template's rate when omitted) — advanced in lockstep by
    one vectorized pass per phase per cycle.
    :meth:`run_experiment_batch` returns one ``WindowStats`` per lane,
    each byte-identical to a solo run at that lane's seed and rate.
    """

    backend = "array"

    def __init__(self, config, traffic=None, name="", gated=True,
                 seeds=None, rates=None):
        if config.separate_st_lt:
            raise _unsupported("the split ST/LT pipeline (separate_st_lt)")
        if config.routing.name not in _SUPPORTED_ROUTING:
            raise _unsupported(f"{config.routing.name!r} routing")
        if seeds is not None:
            seeds = tuple(int(s) for s in seeds)
            if not seeds:
                raise ValueError("seeds must name at least one replica seed")
        if rates is not None:
            rates = tuple(rates)
            if seeds is None or len(rates) != len(seeds):
                raise ValueError(
                    "rates must give one injection rate per entry of seeds"
                )
        self.seeds = seeds
        self.rates = rates
        self.B = 1 if seeds is None else len(seeds)
        self.cfg = config
        self.name = name or ("proposed" if config.bypass else "baseline")
        self.gated = gated
        self.cycle = 0
        self.obs = None
        self.faults = None
        self._bypass = config.bypass
        self._mc = False
        self._o1turn = False
        self._valiant = False
        self._last_progress = 0
        self._watchdog_start = 0
        self._watchdog_armed = False
        self._build_static()
        self._build_state()
        #: the rate each lane reports in its WindowStats
        self._lane_rates = [float("nan")] * self.B
        self._sources_on = False
        if traffic is not None:
            self.attach_traffic(traffic)

    @property
    def network(self):
        """Lane 0's stats facade, built per access like
        :meth:`lane_network`: a stored facade would point back at the
        simulator, and that cycle keeps a finished simulator's arrays
        alive until the cyclic collector happens to run."""
        return _ArrayNetwork(self, 0)

    def lane_network(self, lane):
        """The ``network`` stats facade of one replica lane."""
        if not 0 <= lane < self.B:
            raise IndexError(f"lane {lane} out of range (batch size {self.B})")
        return _ArrayNetwork(self, lane)

    # ------------------------------------------------------------------
    # compilation: geometry, routing and VC tables
    # ------------------------------------------------------------------

    def _build_static(self):
        cfg = self.cfg
        k = cfg.k
        B = self.B
        R = self.R = k * k
        N1 = self.N1 = R * P  # ports per replica lane
        N = self.N = B * N1  # global ports, lane-major
        RT = self.RT = B * R  # global nodes
        self.T = N + RT  # trackers: router out ports, then NICs
        V = self.V = cfg.num_vcs
        self.D = max(spec.depth for spec in cfg.vcs)

        # link topology per lane: downstream input port of each output
        # port, the tracker each input port returns credits to (local
        # indices; NIC trackers encoded as N1 + r until the lift)
        dst1 = np.full(N1, -1, dtype=np.int64)
        ct1 = np.full(N1, -1, dtype=np.int64)
        for r in range(R):
            x, y = coords(r, k)
            ct1[r * P + LOCAL] = N1 + r  # NIC tracker
            for port, (nx, ny) in (
                (NORTH, (x, y + 1)),
                (EAST, (x + 1, y)),
                (SOUTH, (x, y - 1)),
                (WEST, (x - 1, y)),
            ):
                if not (0 <= nx < k and 0 <= ny < k):
                    continue
                nb = node_at(nx, ny, k)
                dst1[r * P + port] = nb * P + OPPOSITE[port]
                ct1[r * P + port] = nb * P + OPPOSITE[port]
        # lift into the lane-major global index space: lanes never
        # share a wire, so each lane gets the same tables offset by its
        # base port (mesh) or base node (NIC trackers)
        lanes = np.arange(B, dtype=np.int64)[:, None]
        self.DST_IN = np.where(
            dst1 >= 0, lanes * N1 + dst1, -1
        ).reshape(-1)
        self.CRED_TARGET = np.where(
            ct1 >= N1,
            N + lanes * R + (ct1 - N1),
            np.where(ct1 >= 0, lanes * N1 + ct1, -1),
        ).reshape(-1)

        # unicast route tables: output port by (dimension order, router,
        # destination); 0 = XY, 1 = YX — o1turn headers index into this,
        # valiant routes XY toward the waypoint then the destination
        route = np.empty((2, R, R), dtype=np.int64)
        for r in range(R):
            x, y = coords(r, k)
            for d in range(R):
                dx, dy = coords(d, k)
                if dx < x:
                    xy = WEST
                elif dx > x:
                    xy = EAST
                elif dy > y:
                    xy = NORTH
                elif dy < y:
                    xy = SOUTH
                else:
                    xy = LOCAL
                if dy > y:
                    yx = NORTH
                elif dy < y:
                    yx = SOUTH
                elif dx > x:
                    yx = EAST
                elif dx < x:
                    yx = WEST
                else:
                    yx = LOCAL
                route[0, r, d] = xy
                route[1, r, d] = yx
        self.ROUTE = route

        # VC free-queue groups keyed (message class, routing phase)
        phases = cfg.vc_phases
        groups = {}
        members = []
        vc_group = np.empty(V, dtype=np.int64)
        for i, spec in enumerate(cfg.vcs):
            key = (int(spec.mclass), phases[i])
            g = groups.get(key)
            if g is None:
                g = groups[key] = len(groups)
                members.append([])
            vc_group[i] = g
            members[g].append(i)
        G = self.G = len(groups)
        self.VC_GROUP = vc_group
        self.GROUP_CAP = np.array([len(m) for m in members], dtype=np.int64)
        n_phases = max(p for _, p in groups) + 1
        gid = np.full((2, n_phases), -1, dtype=np.int64)
        for (mc, ph), g in groups.items():
            gid[mc, ph] = g
        self.GROUP_ID = gid
        self.VC_DEPTH = np.array([spec.depth for spec in cfg.vcs],
                                 dtype=np.int64)
        self._freeq_init = np.zeros((G, V), dtype=np.int64)
        for g, mem in enumerate(members):
            self._freeq_init[g, : len(mem)] = mem
        self._vcidx = np.arange(V)
        self._pidx = np.arange(P)
        # round-robin rank of VC v seen from pointer p: one gather in
        # mSA-I instead of a subtract + modulo per call
        self.RANK_TAB = (self._vcidx[None, :] - self._vcidx[:, None]) % V

    def _build_state(self):
        N, V, D, T, RT, G = self.N, self.V, self.D, self.T, self.RT, self.G
        B = self.B
        z = np.zeros
        # input VC buffers (circular, per [port, vc])
        self.buf_pkt = z((N, V, D), dtype=np.int64)
        self.buf_stage = z((N, V, D), dtype=np.int64)
        self.bhead = z((N, V), dtype=np.int64)
        self.bocc = z((N, V), dtype=np.int64)
        # per-port registers
        self.s2_vc = np.full(N, -1, dtype=np.int64)
        self.s2_slot = z(N, dtype=np.int64)
        self.rrptr = z(N, dtype=np.int64)  # mSA-I round-robin pointers
        self.st_valid = z(N, dtype=bool)
        self.st_bypass = z(N, dtype=bool)
        self.st_vc = z(N, dtype=np.int64)
        self.st_port = z(N, dtype=np.int64)
        self.st_ovc = z(N, dtype=np.int64)
        # multicast ST registers: granted-branch bitmask, per-branch
        # output VC, whether this traversal pops the buffer slot
        self.st_pmask = z(N, dtype=np.int64)
        self.st_pop = z(N, dtype=bool)
        self.st_ovcp = z((N, P), dtype=np.int64)
        #: per input VC: tree branches already granted to the front flit
        self.mc_granted = z((N, V), dtype=np.int64)
        self.latch_pkt = z(N, dtype=np.int64)
        # channel registers (receiver indexed; delay-one single slot)
        self.fl_valid = z(N, dtype=bool)
        self.fl_pkt = z(N, dtype=np.int64)
        self.fl_vc = z(N, dtype=np.int64)
        self.lv_valid = z(N, dtype=bool)  # lookahead in flight
        self.lv_pkt = z(N, dtype=np.int64)
        self.lv_vc = z(N, dtype=np.int64)
        self.la_valid = z(N, dtype=bool)  # la_now latch
        self.la_pkt = z(N, dtype=np.int64)
        self.la_vc = z(N, dtype=np.int64)
        self.ej_valid = z(RT, dtype=bool)
        self.ej_pkt = z(RT, dtype=np.int64)
        self.ej_vc = z(RT, dtype=np.int64)
        # credit ping-pong (delay two)
        # slot-major layout: the per-cycle arrival scan touches one
        # whole slot row, so keeping slots contiguous makes the
        # nonzero/clear pass a sequential read instead of a stride-2 one
        self.cr_valid = z((2, T), dtype=bool)
        self.cr_vc = z((2, T), dtype=np.int64)
        self.cr_tail = z((2, T), dtype=bool)
        # unified credit trackers (router out ports + NICs)
        self.owner = np.full((T, V), -1, dtype=np.int64)
        self.credits = np.tile(self.VC_DEPTH, (T, 1))
        self.freeq = np.tile(self._freeq_init, (T, 1, 1))
        self.fq_head = z((T, G), dtype=np.int64)
        self.fq_len = np.tile(self.GROUP_CAP, (T, 1))
        # matrix arbiters as LRU rank vectors: the matrix state always
        # encodes a total order (winner drops to the bottom, everyone
        # else keeps relative order), so "beats all other requesters"
        # is just "minimum rank".  Ranks stay distinct per port because
        # every update assigns a fresh per-port counter value.
        self.arank = np.tile(np.arange(P, dtype=np.int64), (N, 1))
        self._rank_next = np.full(N, P, dtype=np.int64)
        # NIC state: ring queues per (node, message class)
        self.pend_valid = z(RT, dtype=bool)
        self.pend_pkt = z(RT, dtype=np.int64)
        self.pend_vc = z(RT, dtype=np.int64)
        self.nrr = z(RT, dtype=np.int64)  # message-class round robin
        self._qcap = 64
        self.q_pkt = z((RT, 2, self._qcap), dtype=np.int64)
        self.q_head = z((RT, 2), dtype=np.int64)
        self.q_len = z((RT, 2), dtype=np.int64)
        self.backlog = z(RT, dtype=bool)
        # packet/message tables (pid == mid; grown on demand)
        cap = 1024
        self._cap = cap
        self._mcount = 0
        # one row per message of every lane, so the dtypes are as
        # narrow as the values allow (flit words, ``pid << 3``, stay
        # int64; attach_traffic bounds flits per packet to int8)
        self.p_dest = z(cap, dtype=np.int32)
        self.p_ord = z(cap, dtype=np.int8)
        self.p_gid = z(cap, dtype=np.int8)
        self.p_nflits = z(cap, dtype=np.int8)
        self.p_creation = z(cap, dtype=np.int32)
        self.p_completion = z(cap, dtype=np.int32)
        self.p_w = np.full(cap, -1, dtype=np.int32)  # valiant waypoint
        self.p_src = z(cap, dtype=np.int32)  # lane-local source router
        self.p_mcls = z(cap, dtype=np.int8)
        self.p_mcast = z(cap, dtype=bool)
        self.p_pending = z(cap, dtype=np.int32)  # deliveries outstanding
        self.p_lane = z(cap, dtype=np.int16)
        # activity counters: per input/output port (folded per router
        # lazily); for unicast workloads c_st covers credits_sent ==
        # xbar_in == xbar_out, multicast splits out c_xout
        for cname in ("c_bw", "c_br", "c_st", "c_byp", "c_link",
                      "c_m1", "c_m2", "c_las", "c_lar", "c_xout"):
            setattr(self, cname, z(N, dtype=np.int64))
        for cname in ("c_ej", "n_inj", "n_ej", "n_sub", "n_las"):
            setattr(self, cname, z(RT, dtype=np.int64))
        self._net_cycles = 0
        self._net_ejections = 0
        # emptiness counters (maintained at the mutation sites so the
        # hot loop never scans an array just to find it empty)
        self._fl_n = 0
        self._lv_n = 0
        self._la_n = 0
        self._ej_n = 0
        self._st_n = 0
        self._pend_n = 0
        self._cr_n = [0, 0]
        self._bocc_n = 0
        self._s2_n = 0
        # arbitration scratch
        self._best = z(N, dtype=np.int64)
        self._used = z(N, dtype=bool)
        # GRANTED flits in flight (set at buffered grant, cleared at
        # the traversal next cycle) — lets mSA-I skip the stage gather;
        # the per-port count confines that gather to the few ports
        # actually holding one
        self._gr_n = 0
        self._gr_port = z(N, dtype=np.int64)
        self._bl_any = False
        # per-lane replica bookkeeping (batched runs only).  Progress
        # is derived from the per-router ejection counters on demand,
        # so the hot loop pays nothing for it; the watchdog check
        # itself is amortised to at most once per WATCHDOG_CYCLES via
        # _wd_next (see _check_watchdog_batch).
        self._lane_msgs = z(B, dtype=np.int64)
        self._lane_progress = z(B, dtype=np.int64)
        self._lane_wd_start = z(B, dtype=np.int64)
        self._lane_wd_armed = z(B, dtype=bool)
        self._wd_next = WATCHDOG_CYCLES + 1
        self._lane_alive = np.ones(B, dtype=bool)
        self._lane_stop = ["completed"] * B
        self._src_live = np.ones(RT, dtype=bool)
        self._any_dead = False

    # ------------------------------------------------------------------
    # workload attachment
    # ------------------------------------------------------------------

    def attach_traffic(self, traffic):
        """Compile a bound :class:`SyntheticTraffic` into array form.

        On a batched simulator (``seeds=[...]``) the attached source
        acts as the *template*: each lane gets its own clone with the
        lane's seed and rate (the template's own seed is not used, its
        rate only when ``rates`` was omitted).
        """
        mix = getattr(traffic, "mix", None)
        process = getattr(traffic, "process", None)
        if mix is None or process is None:
            raise _unsupported(
                f"traffic source {type(traffic).__name__} (only "
                f"SyntheticTraffic workloads compile to arrays)"
            )
        routing = self.cfg.routing
        bc = any(c.broadcast for c in mix.components)
        if bc:
            if not self.cfg.multicast:
                raise _unsupported(
                    "broadcast mixes on a multicast=False config "
                    "(per-destination flit replication)"
                )
            if not routing.supports_multicast:
                # mirror the object backend's rejection exactly
                raise ValueError(
                    f"{routing.name} routing cannot carry router-level "
                    f"multicast traffic (multicast trees are XY-only); "
                    f"use xy routing or a multicast=False config"
                )
            if any(c.broadcast and c.num_flits > 1 for c in mix.components):
                raise _unsupported("multi-flit broadcast packets")
        if max(c.num_flits for c in mix.components) > 127:
            raise _unsupported("packets longer than 127 flits")
        self._mc = bc
        lanes = [traffic]
        if self.seeds is not None:
            rates = self.rates or [traffic.injection_rate] * self.B
            lanes = [
                type(traffic)(
                    mix,
                    rate,
                    seed=seed,
                    identical_generators=traffic.identical_generators,
                    pattern=traffic.pattern,
                    process=traffic.process,
                )
                for seed, rate in zip(self.seeds, rates)
            ]
        for tr in lanes:
            tr.bind(self.cfg)
        self._lane_rates = [tr.injection_rate for tr in lanes]
        R, RT, B = self.R, self.RT, self.B
        nodes = range(R)
        # per-node injection probability: constant within a lane
        self._packet_rate = np.repeat(
            np.array([tr._packet_rate for tr in lanes], dtype=np.float64), R
        )
        # main traffic streams: bind built each node's generator (the
        # tested seed diffusion); lift its register state
        self.tstate = np.array(
            [tr._rngs[n]._state for tr in lanes for n in nodes],
            dtype=np.int64,
        )
        # modulated injection: lift each node's ChainState, and each
        # lane's per-state tables (both are functions of the lane's rate)
        if lanes[0]._steppers is None:
            self.cstate = None
        else:
            chains = [tr._steppers[n] for tr in lanes for n in nodes]
            self.cstate = np.array(
                [c.chain._state for c in chains], dtype=np.int64
            )
            self.chstate = np.array([c.state for c in chains], dtype=np.int64)
            self.probs_tab = np.array(
                [tr._steppers[0].probs for tr in lanes], dtype=np.float64
            )
            self.leave_tab = np.array(
                [tr._steppers[0].leave for tr in lanes], dtype=np.float64
            )
            self.n_states = self.probs_tab.shape[1]
            self._node_lane = np.repeat(np.arange(B), R)
        # mix selection: searchsorted over the cumulative weights plus
        # the oracle's fallback component as a trailing entry
        cum = list(mix.cumulative_weights())
        comps = [c for _, c in cum] + [mix.components[-1]]
        self._cum_arr = np.array([w for w, _ in cum], dtype=np.float64)
        self._comp_mclass = np.array([int(c.mclass) for c in comps],
                                     dtype=np.int64)
        self._comp_nflits = np.array([c.num_flits for c in comps],
                                     dtype=np.int64)
        self._comp_bcast = np.array([bool(c.broadcast) for c in comps],
                                    dtype=bool)
        # destination pattern (deterministic tables are seed-free, so
        # one lane's table serves every lane, tiled into global nodes)
        pattern = lanes[0].pattern
        if lanes[0]._dest_table is not None:
            base_tab = np.array(
                [next(iter(d)) for d in lanes[0]._dest_table],
                dtype=np.int64,
            )
            self._dest_arr = np.tile(base_tab, B)
            self._pattern_kind = "table"
        elif pattern.name == "uniform":
            self._pattern_kind = "uniform"
        elif pattern.name == "hotspot":
            self._pattern_kind = "hotspot"
            self._hot_arr = np.array(pattern.hot_nodes, dtype=np.int64)
            self._hot_fraction = pattern.fraction
        else:
            raise _unsupported(f"the stochastic {pattern.name!r} pattern")
        # routing header streams (o1turn and valiant draw from them)
        self._o1turn = routing.name == "o1turn"
        self._valiant = routing.name == "valiant"
        self._route_fixed = self.ROUTE[1 if routing.name == "yx" else 0]
        if self._o1turn or self._valiant:
            self.rstate = np.empty(RT, dtype=np.int64)
            for b, tr in enumerate(lanes):
                for node in range(R):
                    seed = salted_stream_seed(
                        tr.seed, _ROUTING_STREAM_SALT, node
                    )
                    self.rstate[b * R + node] = PRBSGenerator(
                        order=31, seed=seed
                    )._state
        # multicast trees: output-port bitmask of the XY tree rooted at
        # each source as it passes each router, found by walking the
        # same partition the object router evaluates per flit
        if self._mc:
            k = self.cfg.k
            mcp = np.zeros((R, R), dtype=np.int64)
            for src in range(R):
                frontier = [(src, frozenset(range(R)))]
                while frontier:
                    r, dests = frontier.pop()
                    mask = 0
                    for port, sub in _xy_partition(r, dests, k).items():
                        mask |= 1 << port
                        if port != LOCAL:
                            frontier.append((next_router(r, port, k), sub))
                    mcp[src, r] = mask
            self.MC_PORTS = mcp
        self._sources_on = True
        # queues start empty, so nothing is backlogged until a submit
        self.backlog[:] = False
        self._bl_any = False

    def attach_faults(self, model, seed=None):
        raise _unsupported("fault injection")

    # ------------------------------------------------------------------
    # cycle phases
    # ------------------------------------------------------------------

    def step(self):
        self._step()

    def _step(self):
        t = self.cycle
        self._receive(t)
        if self._ej_n:
            self._nic_receive(t)
        self._nic_step(t)
        if self._st_n:
            if self._mc:
                self._st_mc(t)
            else:
                self._st(t)
        if (self._bypass and self._la_n) or self._s2_n:
            self._msa2(t)
        if self._bocc_n:
            self._msa1(t)
        self._net_cycles += 1
        if self.B == 1:
            self._check_watchdog()
        else:
            self._check_watchdog_batch()
        self.cycle += 1

    def _receive(self, t):
        # credit arrivals (a credit sent at t-2 lands in slot t&1 now)
        slot = t & 1
        if self._cr_n[slot]:
            self._cr_n[slot] = 0
            cv = self.cr_valid[slot]
            tr = cv.nonzero()[0]
            cv[:] = False
            vcs = self.cr_vc[slot, tr]
            self.credits[tr, vcs] += 1
            tails = self.cr_tail[slot, tr]
            if tails.any():
                trt = tr[tails]
                vct = vcs[tails]
                self.owner[trt, vct] = -1
                g = self.VC_GROUP[vct]
                cap = self.GROUP_CAP[g]
                pos = (self.fq_head[trt, g] + self.fq_len[trt, g]) % cap
                self.freeq[trt, g, pos] = vct
                self.fq_len[trt, g] += 1
        # flit arrivals: bypass reservations latch, the rest buffer
        if self._fl_n:
            self._fl_n = 0
            narr = self.fl_valid.nonzero()[0]
            self.fl_valid[:] = False
            pkt = self.fl_pkt[narr]
            vcs = self.fl_vc[narr]
            if self._valiant:
                # the header advances (the waypoint is consumed) before
                # the route is derived — set the ADV bit on arrival at
                # the waypoint router, before latching or buffering
                adv = ((pkt & _ADV) == 0) & (
                    ((narr // P) % self.R) == self.p_w[pkt >> 3]
                )
                if adv.any():
                    pkt = pkt | (adv.astype(np.int64) << 2)
            byp = self.st_valid[narr] & self.st_bypass[narr]
            if byp.any():
                nb = narr[byp]
                self.latch_pkt[nb] = pkt[byp]
            buf = ~byp
            if buf.any():
                nw = narr[buf]
                vw = vcs[buf]
                slotw = (self.bhead[nw, vw] + self.bocc[nw, vw]) % self.D
                self.buf_pkt[nw, vw, slotw] = pkt[buf]
                self.buf_stage[nw, vw, slotw] = _ST_NONE
                self.bocc[nw, vw] += 1
                self.c_bw[nw] += 1
                self._bocc_n += len(nw)
        # lookahead arrivals replace the la_now latch (array swap: the
        # in-flight registers become the latch, the stale latch becomes
        # next cycle's in-flight registers)
        if self._la_n:
            self.la_valid[:] = False
            self._la_n = 0
        if self._lv_n:
            self.la_valid, self.lv_valid = self.lv_valid, self.la_valid
            self.la_pkt, self.lv_pkt = self.lv_pkt, self.la_pkt
            self.la_vc, self.lv_vc = self.lv_vc, self.la_vc
            self._la_n = self._lv_n
            self._lv_n = 0
            idx = self.la_valid.nonzero()[0]
            self.c_lar[idx] += 1

    def _nic_receive(self, t):
        self._ej_n = 0
        rs = self.ej_valid.nonzero()[0]
        self.ej_valid[:] = False
        pkt = self.ej_pkt[rs]
        self.n_ej[rs] += 1
        tails = (pkt & _TAIL) != 0
        if tails.any():
            mids = pkt[tails] >> 3
            if self._mc:
                # reception convention: visible at t, received at end
                # of t-1; a multicast completes at its *last* delivery
                np.subtract.at(self.p_pending, mids, 1)
                done = mids[self.p_pending[mids] == 0]
                if len(done):
                    self.p_completion[done] = t - 1
            else:
                self.p_completion[mids] = t - 1
        tracker = rs * P + LOCAL  # the router's LOCAL output tracker
        slot = t & 1
        self.cr_valid[slot, tracker] = True
        self.cr_vc[slot, tracker] = self.ej_vc[rs]
        self.cr_tail[slot, tracker] = tails
        self._cr_n[slot] += len(rs)

    def _nic_step(self, t):
        # 1) send last cycle's decision onto the injection wire
        if self._pend_n:
            self._pend_n = 0
            rs = self.pend_valid.nonzero()[0]
            self.pend_valid[:] = False
            n = rs * P + LOCAL
            self.fl_valid[n] = True
            self.fl_pkt[n] = self.pend_pkt[rs]
            self.fl_vc[n] = self.pend_vc[rs]
            self._fl_n += len(rs)
        # 2) generate traffic (batched PRBS draws) and submit
        if self._sources_on:
            inj = self._generate()
            if len(inj):
                self._submit_batch(inj, t)
        # 3) VC-allocate at most one flit per backlogged NIC
        if self._bl_any:
            self._decide_all()

    def _generate(self):
        """The per-cycle injection decisions of every node at once."""
        tstate = self.tstate
        if self.cstate is None:
            # Bernoulli fast path: one main-stream word per node
            word, ns = _word24(tstate)
            tstate[:] = ns
            inject = word / 16777216.0 < self._packet_rate
        else:
            # modulated: main word only in positive-rate states, chain
            # word only in states with a positive leave probability
            ch = self.chstate
            lane = self._node_lane
            p = self.probs_tab[lane, ch]
            active = p > 0.0
            word, ns = _word24(tstate)
            np.copyto(tstate, ns, where=active)
            inject = active & (word / 16777216.0 < p)
            leave = self.leave_tab[lane, ch]
            cact = leave > 0.0
            cword, cns = _word24(self.cstate)
            np.copyto(self.cstate, cns, where=cact)
            move = cact & (cword / 16777216.0 < leave)
            np.copyto(ch, (ch + 1) % self.n_states, where=move)
        if self._any_dead:
            # watchdog-killed replica lanes stop sourcing traffic
            inject &= self._src_live
        return inject.nonzero()[0]

    def _submit_batch(self, inj, t):
        """Draw one message per injecting node and enqueue its flits.

        Nodes are processed in ascending order (``nonzero`` order), so
        message ids are handed out exactly as the oracle's node loop
        does (lane-major within a cycle for batched runs).  For a given
        pattern every *unicast* draw consumes the same number of words
        at every node, and broadcast rows consume no destination and no
        routing word — which is what makes the batch exact.
        """
        m = len(inj)
        R = self.R
        inj_loc = inj % R if self.B > 1 else inj
        st = self.tstate[inj]
        word, st = _word24(st)
        pick = word / 16777216.0
        ci = np.searchsorted(self._cum_arr, pick, side="right")
        mcls = self._comp_mclass[ci]
        nfl = self._comp_nflits[ci]
        kind = self._pattern_kind
        if self._mc:
            bc = self._comp_bcast[ci]
            ui = (~bc).nonzero()[0]  # only unicast rows draw dests
        else:
            bc = None
            ui = None
        dest = np.empty(m, dtype=np.int64)
        if kind == "table":
            dest[:] = self._dest_arr[inj]
        elif kind == "uniform":
            if ui is None:
                w2, st = _word24(st)
                other = w2 % (R - 1)
                dest[:] = other + (other >= inj_loc)
            elif len(ui):
                su = st[ui]
                w2, su = _word24(su)
                st[ui] = su
                other = w2 % (R - 1)
                dest[ui] = other + (other >= inj_loc[ui])
        else:  # hotspot: two words per destination, both branches
            if ui is None:
                w2, st = _word24(st)
                w3, st = _word24(st)
                hd = self._hot_arr[w3 % len(self._hot_arr)]
                other = w3 % (R - 1)
                dest[:] = np.where(
                    w2 / 16777216.0 < self._hot_fraction,
                    hd,
                    other + (other >= inj_loc),
                )
            elif len(ui):
                su = st[ui]
                w2, su = _word24(su)
                w3, su = _word24(su)
                st[ui] = su
                hd = self._hot_arr[w3 % len(self._hot_arr)]
                other = w3 % (R - 1)
                dest[ui] = np.where(
                    w2 / 16777216.0 < self._hot_fraction,
                    hd,
                    other + (other >= inj_loc[ui]),
                )
        if bc is not None:
            # a broadcast's delivery set is implicit in the tree tables
            dest[bc] = inj_loc[bc]
        self.tstate[inj] = st
        pid0 = self._mcount
        while pid0 + m > self._cap:
            self._grow_tables()
        pids = pid0 + np.arange(m)
        self._mcount = pid0 + m
        adv = None
        phase = 0
        rows = np.arange(m) if ui is None else ui
        if self._o1turn:
            ordw = np.zeros(m, dtype=np.int64)
            if len(rows):
                rs_ = self.rstate[inj[rows]]
                fb = ((rs_ >> 30) ^ (rs_ >> 27)) & 1
                self.rstate[inj[rows]] = ((rs_ << 1) | fb) & _MASK31
                ordw[rows] = fb
            self.p_ord[pids] = ordw  # only consulted on the o1turn path
            phase = ordw
        elif self._valiant:
            pw = np.full(m, -1, dtype=np.int64)
            adv = np.zeros(m, dtype=np.int64)
            if len(rows):
                rs_ = self.rstate[inj[rows]]
                w24, rs2 = _word24(rs_)
                self.rstate[inj[rows]] = rs2
                w = w24 % R
                born = (w == inj_loc[rows]).astype(np.int64)
                # a draw landing on the source is consumed immediately:
                # the packet is born in phase 1 with no waypoint
                pw[rows] = np.where(born == 1, -1, w)
                adv[rows] = born
            self.p_w[pids] = pw
            phase = adv
        self.p_dest[pids] = dest
        self.p_gid[pids] = self.GROUP_ID[mcls, phase]
        self.p_nflits[pids] = nfl
        self.p_creation[pids] = t
        self.p_completion[pids] = -1
        self.p_src[pids] = inj_loc
        self.p_mcls[pids] = mcls
        if bc is not None:
            self.p_mcast[pids] = bc
            self.p_pending[pids] = np.where(bc, R, 1)
        else:
            self.p_mcast[pids] = False
            self.p_pending[pids] = 1
        if self.B > 1:
            lane = inj // R
            self.p_lane[pids] = lane
            self._lane_msgs += np.bincount(lane, minlength=self.B)
        self.n_sub[inj] += 1
        self.backlog[inj] = True
        self._bl_any = True
        nmax = int(nfl.max())
        while int(self.q_len[inj, mcls].max()) + nmax > self._qcap:
            self._grow_queues()
        if nmax == 1:
            # single-flit fast path: one vector append per cycle
            pos = (self.q_head[inj, mcls] + self.q_len[inj, mcls]) \
                % self._qcap
            word_q = (pids << 3) | (_HEAD | _TAIL)
            if adv is not None:
                word_q |= adv << 2
            self.q_pkt[inj, mcls, pos] = word_q
            self.q_len[inj, mcls] += 1
        else:
            qcap = self._qcap
            for j in range(m):
                node = int(inj[j])
                mc = int(mcls[j])
                f = int(nfl[j])
                base = int(pids[j]) << 3
                if adv is not None:
                    base |= int(adv[j]) << 2
                head = int(self.q_head[node, mc])
                length = int(self.q_len[node, mc])
                for seq in range(f):
                    flags = (_HEAD if seq == 0 else 0) \
                        | (_TAIL if seq == f - 1 else 0)
                    self.q_pkt[node, mc, (head + length + seq) % qcap] = \
                        base | flags
                self.q_len[node, mc] = length + f

    def _grow_tables(self):
        new = self._cap * 2
        for name in ("p_dest", "p_ord", "p_gid", "p_nflits",
                     "p_creation", "p_completion", "p_w", "p_src",
                     "p_mcls", "p_mcast", "p_pending", "p_lane"):
            old = getattr(self, name)
            arr = np.zeros(new, dtype=old.dtype)
            arr[: self._cap] = old
            setattr(self, name, arr)
        self._cap = new

    def _grow_queues(self):
        old_cap = self._qcap
        new_cap = old_cap * 2
        # relinearise every ring so the new tail space is contiguous
        order = (self.q_head[:, :, None] + np.arange(old_cap)) % old_cap
        new_q = np.zeros((self.RT, 2, new_cap), dtype=np.int64)
        new_q[:, :, :old_cap] = np.take_along_axis(self.q_pkt, order, axis=2)
        self.q_pkt = new_q
        self.q_head[:] = 0
        self._qcap = new_cap

    def _decide_all(self):
        """Mirror ``Nic._decide`` for every backlogged NIC at once:
        class round robin, then head/body VC allocation."""
        nodes = self.backlog.nonzero()[0]
        rr = self.nrr[nodes]
        trackers = self.N + nodes
        remaining = np.ones(len(nodes), dtype=bool)
        for i in (0, 1):
            mc = (rr + i) & 1
            cand = remaining & (self.q_len[nodes, mc] > 0)
            ci = cand.nonzero()[0]
            if len(ci) == 0:
                continue
            cn = nodes[ci]
            cmc = mc[ci]
            ctr = trackers[ci]
            pkt = self.q_pkt[cn, cmc, self.q_head[cn, cmc]]
            is_head = (pkt & _HEAD) != 0
            if is_head.all():
                # single-flit fast path: every queue head is a header
                g = self.p_gid[pkt >> 3]
                ok = self.fq_len[ctr, g] > 0
                vc = np.zeros(len(ci), dtype=np.int64)
                fi = ok.nonzero()[0]
                if len(fi):
                    ftr = ctr[fi]
                    fg = g[fi]
                    head = self.fq_head[ftr, fg]
                    v = self.freeq[ftr, fg, head]
                    self.fq_head[ftr, fg] = (head + 1) % self.GROUP_CAP[fg]
                    self.fq_len[ftr, fg] -= 1
                    self.owner[ftr, v] = pkt[fi] >> 3
                    self.credits[ftr, v] -= 1
                    vc[fi] = v
                wi = fi
                if len(wi) == 0:
                    continue
                self._decide_commit(rr, remaining, ci, cn, cmc,
                                    pkt, vc, wi, i)
                if not remaining.any():
                    break
                continue
            ok = np.zeros(len(ci), dtype=bool)
            vc = np.zeros(len(ci), dtype=np.int64)
            hi = is_head.nonzero()[0]
            if len(hi):
                htr = ctr[hi]
                g = self.p_gid[pkt[hi] >> 3]
                free = self.fq_len[htr, g] > 0
                fi = hi[free]
                if len(fi):
                    ftr = ctr[fi]
                    fg = g[free]
                    head = self.fq_head[ftr, fg]
                    v = self.freeq[ftr, fg, head]
                    self.fq_head[ftr, fg] = (head + 1) % self.GROUP_CAP[fg]
                    self.fq_len[ftr, fg] -= 1
                    self.owner[ftr, v] = pkt[fi] >> 3
                    self.credits[ftr, v] -= 1
                    ok[fi] = True
                    vc[fi] = v
            bi = (~is_head).nonzero()[0]
            if len(bi):
                btr = ctr[bi]
                own = self.owner[btr] == (pkt[bi] >> 3)[:, None]
                v = own.argmax(axis=1)
                good = self.credits[btr, v] > 0
                gi = bi[good]
                if len(gi):
                    self.credits[ctr[gi], v[good]] -= 1
                    ok[gi] = True
                    vc[gi] = v[good]
            wi = ok.nonzero()[0]
            if len(wi) == 0:
                continue
            self._decide_commit(rr, remaining, ci, cn, cmc, pkt, vc, wi, i)
            if not remaining.any():
                break
        # a full fruitless scan leaves the rotation where it started.
        # Drop satisfied NICs from the backlog eagerly (an empty-queue
        # decide has no side effects, so pruning is invisible) — the
        # steady-state backlog is then just this cycle's submitters
        # plus genuinely blocked NICs.
        still = self.q_len[nodes].any(axis=1)
        self.backlog[nodes] = still
        self._bl_any = bool(still.any())

    def _decide_commit(self, rr, remaining, ci, cn, cmc, pkt, vc, wi, i):
        """Pop the winners' queue heads and stage flit + lookahead."""
        wn = cn[wi]
        wmc = cmc[wi]
        self.q_head[wn, wmc] = (self.q_head[wn, wmc] + 1) % self._qcap
        self.q_len[wn, wmc] -= 1
        wpkt = pkt[wi]
        wvc = vc[wi]
        if self._bypass:
            n = wn * P + LOCAL
            self.lv_valid[n] = True
            self.lv_pkt[n] = wpkt
            self.lv_vc[n] = wvc
            self.n_las[wn] += 1
            self._lv_n += len(wn)
        self.pend_valid[wn] = True
        self.pend_pkt[wn] = wpkt
        self.pend_vc[wn] = wvc
        self._pend_n += len(wn)
        self.n_inj[wn] += 1
        self.nrr[wn] = (rr[ci[wi]] + i + 1) & 1
        remaining[ci[wi]] = False

    def _st(self, t):
        self._st_n = 0
        ns = self.st_valid.nonzero()[0]
        self.st_valid[:] = False
        byp = self.st_bypass[ns]
        pkt = np.empty(len(ns), dtype=np.int64)
        bi = byp.nonzero()[0]
        if len(bi):
            nb = ns[bi]
            pkt[bi] = self.latch_pkt[nb]
            self.c_byp[nb] += 1
        fi = (~byp).nonzero()[0]
        if len(fi):
            nn = ns[fi]
            vcn = self.st_vc[nn]
            # a granted buffered flit is always at its VC's head by the
            # time its traversal fires (one ST per port per cycle)
            h = self.bhead[nn, vcn]
            pkt[fi] = self.buf_pkt[nn, vcn, h]
            self.bhead[nn, vcn] = (h + 1) % self.D
            self.bocc[nn, vcn] -= 1
            self.c_br[nn] += 1
            self._bocc_n -= len(nn)
            self._gr_n -= len(nn)  # every buffered traversal was GRANTED
            self._gr_port[nn] -= 1
        # one credit upstream per traversal (pop is unconditional for
        # unicast: a granted flit always leaves its buffer/latch)
        target = self.CRED_TARGET[ns]
        slot = t & 1
        self.cr_valid[slot, target] = True
        self.cr_vc[slot, target] = self.st_vc[ns]
        self.cr_tail[slot, target] = (pkt & _TAIL) != 0
        self._cr_n[slot] += len(ns)
        self.c_st[ns] += 1
        # crossbar output: eject locally or forward on the mesh link
        q = self.st_port[ns]
        ovc = self.st_ovc[ns]
        loc = q == LOCAL
        li = loc.nonzero()[0]
        if len(li):
            re = ns[li] // P
            self.ej_valid[re] = True
            self.ej_pkt[re] = pkt[li]
            self.ej_vc[re] = ovc[li]
            self.c_ej[re] += 1
            self._net_ejections += len(li)
            self._ej_n += len(li)
        wi = (~loc).nonzero()[0]
        if len(wi):
            nf = ns[wi]
            dst = self.DST_IN[nf - nf % P + q[wi]]
            self.fl_valid[dst] = True
            self.fl_pkt[dst] = pkt[wi]
            self.fl_vc[dst] = ovc[wi]
            self.c_link[nf] += 1
            self._fl_n += len(wi)

    def _st_mc(self, t):
        """Switch traversal with per-port fanout (multicast configs).

        ``st_pmask`` holds this cycle's granted port set per input
        port; a buffered flit pops only when the cycle's grants
        completed its route (``st_pop``), mirroring the oracle's
        ``STOp(pop=...)``.  Credits flow only when the flit actually
        leaves (pop or bypass) and the crossbar-output counter grows by
        the branch count, not by one.
        """
        self._st_n = 0
        ns = self.st_valid.nonzero()[0]
        self.st_valid[:] = False
        byp = self.st_bypass[ns]
        pop = self.st_pop[ns]
        vcn = self.st_vc[ns]
        pkt = np.empty(len(ns), dtype=np.int64)
        bi = byp.nonzero()[0]
        if len(bi):
            nb = ns[bi]
            pkt[bi] = self.latch_pkt[nb]
            self.c_byp[nb] += 1
        fi = (~byp).nonzero()[0]
        if len(fi):
            nn = ns[fi]
            # the front flit sits at its VC's head whether this round
            # pops it or leaves it for the remaining branches
            pkt[fi] = self.buf_pkt[nn, vcn[fi], self.bhead[nn, vcn[fi]]]
        pi = ((~byp) & pop).nonzero()[0]
        if len(pi):
            nq = ns[pi]
            vp = vcn[pi]
            h = self.bhead[nq, vp]
            self.bhead[nq, vp] = (h + 1) % self.D
            self.bocc[nq, vp] -= 1
            self.c_br[nq] += 1
            self.mc_granted[nq, vp] = 0  # grant set dies with the flit
            self._bocc_n -= len(nq)
            self._gr_n -= len(nq)
            self._gr_port[nq] -= 1
        ci = (byp | pop).nonzero()[0]
        if len(ci):
            nc = ns[ci]
            target = self.CRED_TARGET[nc]
            slot = t & 1
            self.cr_valid[slot, target] = True
            self.cr_vc[slot, target] = vcn[ci]
            self.cr_tail[slot, target] = (pkt[ci] & _TAIL) != 0
            self._cr_n[slot] += len(nc)
        self.c_st[ns] += 1
        pm = self.st_pmask[ns]
        nout = np.zeros(len(ns), dtype=np.int64)
        for p in range(P):
            nout += (pm >> p) & 1
        self.c_xout[ns] += nout
        for p in range(P):
            rows = (((pm >> p) & 1) != 0).nonzero()[0]
            if len(rows) == 0:
                continue
            nr = ns[rows]
            ovc = self.st_ovcp[nr, p]
            if p == LOCAL:
                re = nr // P
                self.ej_valid[re] = True
                self.ej_pkt[re] = pkt[rows]
                self.ej_vc[re] = ovc
                self.c_ej[re] += 1
                self._net_ejections += len(re)
                self._ej_n += len(re)
            else:
                dst = self.DST_IN[nr - nr % P + p]
                self.fl_valid[dst] = True
                self.fl_pkt[dst] = pkt[rows]
                self.fl_vc[dst] = ovc
                self.c_link[nr] += 1
                self._fl_n += len(rows)

    # ------------------------------------------------------------ mSA-II

    def _check_resources(self, m, pids, heads, gids):
        """Vectorized ``_port_resources_ok``: heads need a free VC in
        their (class, phase) group, bodies need their owner VC to have
        a credit.  Returns the mask plus each body's owner VC so the
        commit step need not search again."""
        bvc = np.zeros(len(m), dtype=np.int64)
        if heads.all():
            # single-flit mixes never present body flits
            return self.fq_len[m, gids] > 0, bvc
        ok = np.empty(len(m), dtype=bool)
        hi = heads.nonzero()[0]
        if len(hi):
            ok[hi] = self.fq_len[m[hi], gids[hi]] > 0
        bi = (~heads).nonzero()[0]
        if len(bi):
            bm = m[bi]
            own = self.owner[bm] == pids[bi, None]
            hasv = own.any(axis=1)
            v = own.argmax(axis=1)
            ok[bi] = hasv & (self.credits[bm, v] > 0)
            bvc[bi] = v
        return ok, bvc

    def _commit_alloc(self, m, pids, heads, bvc, gids):
        """``alloc_head`` / ``consume_body`` for winners (their out
        ports are distinct, so the scatters cannot collide)."""
        if heads.all():
            head = self.fq_head[m, gids]
            v = self.freeq[m, gids, head]
            self.fq_head[m, gids] = (head + 1) % self.GROUP_CAP[gids]
            self.fq_len[m, gids] -= 1
            self.owner[m, v] = pids
            self.credits[m, v] -= 1
            return v
        ovc = np.empty(len(m), dtype=np.int64)
        hi = heads.nonzero()[0]
        if len(hi):
            hm = m[hi]
            g = gids[hi]
            head = self.fq_head[hm, g]
            v = self.freeq[hm, g, head]
            self.fq_head[hm, g] = (head + 1) % self.GROUP_CAP[g]
            self.fq_len[hm, g] -= 1
            self.owner[hm, v] = pids[hi]
            self.credits[hm, v] -= 1
            ovc[hi] = v
        bi = (~heads).nonzero()[0]
        if len(bi):
            self.credits[m[bi], bvc[bi]] -= 1
            ovc[bi] = bvc[bi]
        return ovc

    def _arbitrate(self, cand_n, cand_m):
        """Matrix-arbitrate requests; returns the winner mask.

        Mirrors ``MatrixArbiter.grant``: every *requested* output port
        elects exactly one dominating input port and rotates it to the
        lowest priority, whether or not the caller uses the grant.  The
        matrix state is a total order throughout (initially i beats j
        for i < j; the winner drops to the bottom while everyone else
        keeps relative order), so the dominating requester is simply
        the one with the minimum LRU rank.
        """
        ip = cand_n % P
        r = self.arank[cand_m, ip]
        best = self._best
        best[cand_m] = 1 << 62
        np.minimum.at(best, cand_m, r)
        win = r == best[cand_m]
        wm = cand_m[win]
        self.arank[wm, ip[win]] = self._rank_next[wm]
        self._rank_next[wm] += 1
        return win

    def _msa2(self, t):
        used = self._used
        used[:] = False
        if self._mc:
            if self._bypass and self._la_n:
                self._lookahead_pass_mc(used)
            if self._s2_n:
                self._buffered_pass_mc(used)
            return
        if self._bypass and self._la_n:
            self._lookahead_pass(used)
        if self._s2_n:
            self._buffered_pass(used)

    def _route_ports(self, nsel, pids, pkt, mirror_adv=False):
        """Output port of each candidate plus its valiant phase.

        ``mirror_adv`` replays the receive-time phase advance for
        lookahead candidates: the lookahead word travels one hop ahead
        of its flit, so it reaches the waypoint router before the flit
        has been advanced.
        """
        r = (nsel // P) % self.R
        if self._o1turn:
            return self.ROUTE[self.p_ord[pids], r, self.p_dest[pids]], None
        if self._valiant:
            adv = (pkt & _ADV) != 0
            if mirror_adv:
                adv = adv | (r == self.p_w[pids])
            tgt = np.where(adv, self.p_dest[pids], self.p_w[pids])
            return self.ROUTE[0, r, tgt], adv
        return self._route_fixed[r, self.p_dest[pids]], None

    def _lookahead_pass(self, used):
        nsel = self.la_valid.nonzero()[0]
        vcs = self.la_vc[nsel]
        pkt = self.la_pkt[nsel]
        pids = pkt >> 3
        q, adv = self._route_ports(nsel, pids, pkt, mirror_adv=True)
        if adv is not None:
            # forward the advanced word so the next hop sees phase 1
            pkt = pkt | (adv.astype(np.int64) << 2)
            gids = self.GROUP_ID[self.p_mcls[pids], adv.astype(np.int64)]
        else:
            gids = self.p_gid[pids]
        m = nsel - nsel % P + q
        heads = (pkt & _HEAD) != 0
        # bypass preserves intra-VC order: the VC must be empty (the
        # bypass latch is always clear by mSA-II — ST precedes it).
        # Combined with the resource check into one filter round.
        ok, bvc = self._check_resources(m, pids, heads, gids)
        ok &= self.bocc[nsel, vcs] == 0
        oi = ok.nonzero()[0]
        if len(oi) == 0:
            return
        nsel, vcs, pkt, pids, q, m, heads, bvc, gids = (
            nsel[oi], vcs[oi], pkt[oi], pids[oi], q[oi], m[oi],
            heads[oi], bvc[oi], gids[oi],
        )
        win = self._arbitrate(nsel, m)
        wi = win.nonzero()[0]
        if len(wi) == 0:
            return
        nw = nsel[wi]
        mw = m[wi]
        qw = q[wi]
        ovc = self._commit_alloc(mw, pids[wi], heads[wi], bvc[wi], gids[wi])
        used[mw] = True
        self._forward_la(mw, qw, pkt[wi], ovc)
        self.st_valid[nw] = True
        self.st_bypass[nw] = True
        self.st_vc[nw] = vcs[wi]
        self.st_port[nw] = qw
        self.st_ovc[nw] = ovc
        self._st_n += len(nw)
        self.c_m2[nw] += 1

    def _buffered_pass(self, used):
        nsel = (self.s2_vc >= 0).nonzero()[0]
        if self._bypass and self._la_n:
            # the port's mSA-II mux selected the lookahead
            nsel = nsel[~self.la_valid[nsel]]
            if len(nsel) == 0:
                return
        vcs = self.s2_vc[nsel]
        slots = self.s2_slot[nsel]
        pkt = self.buf_pkt[nsel, vcs, slots]
        pids = pkt >> 3
        # buffered words were advanced on arrival, so no mirror here
        q, adv = self._route_ports(nsel, pids, pkt)
        if adv is not None:
            gids = self.GROUP_ID[self.p_mcls[pids], adv.astype(np.int64)]
        else:
            gids = self.p_gid[pids]
        m = nsel - nsel % P + q
        heads = (pkt & _HEAD) != 0
        ok, bvc = self._check_resources(m, pids, heads, gids)
        askable = ok & ~used[m]
        # nothing available: release the S2 register so mSA-I can pick
        # a different VC next cycle (no head-of-line squatting)
        ri = (~askable).nonzero()[0]
        if len(ri):
            self.buf_stage[nsel[ri], vcs[ri], slots[ri]] = _ST_NONE
            self.s2_vc[nsel[ri]] = -1
            self._s2_n -= len(ri)
        ai = askable.nonzero()[0]
        if len(ai) == 0:
            return
        nsel, vcs, slots, pkt, pids, q, m, heads, bvc, gids = (
            nsel[ai], vcs[ai], slots[ai], pkt[ai], pids[ai], q[ai],
            m[ai], heads[ai], bvc[ai], gids[ai],
        )
        win = self._arbitrate(nsel, m)
        wi = win.nonzero()[0]
        if len(wi) == 0:
            return
        nw = nsel[wi]
        mw = m[wi]
        qw = q[wi]
        ovc = self._commit_alloc(mw, pids[wi], heads[wi], bvc[wi], gids[wi])
        # unicast grants are always complete: mark GRANTED, free the S2
        # register, schedule the traversal
        self.buf_stage[nw, vcs[wi], slots[wi]] = _ST_GRANTED
        self._gr_n += len(wi)
        self._gr_port[nw] += 1
        self.s2_vc[nw] = -1
        self._s2_n -= len(wi)
        if self._bypass:
            self._forward_la(mw, qw, pkt[wi], ovc)
        self.st_valid[nw] = True
        self.st_bypass[nw] = False
        self.st_vc[nw] = vcs[wi]
        self.st_port[nw] = qw
        self.st_ovc[nw] = ovc
        self._st_n += len(nw)
        self.c_m2[nw] += 1

    def _lookahead_pass_mc(self, used):
        """Lookahead mSA-II with multicast candidates in the mix.

        A multicast lookahead asks for *every* port of its XY tree and
        bypasses all-or-nothing: resources are checked on the full port
        set before any arbitration (a failed candidate never requests,
        so no arbiter rotates for it), every per-port winner rotates
        its arbiter, and only candidates that won every requested port
        latch, allocate and mark their ports used.
        """
        nsel = self.la_valid.nonzero()[0]
        vcs = self.la_vc[nsel]
        pkt = self.la_pkt[nsel]
        pids = pkt >> 3
        base = nsel - nsel % P
        r_loc = (nsel // P) % self.R
        mcm = self.p_mcast[pids]
        heads = (pkt & _HEAD) != 0
        gids = self.p_gid[pids]
        C = len(nsel)
        bvc = np.zeros(C, dtype=np.int64)
        ok = np.zeros(C, dtype=bool)
        reqm = np.zeros((C, P), dtype=bool)
        ui = (~mcm).nonzero()[0]
        if len(ui):
            q_u, adv_u = self._route_ports(
                nsel[ui], pids[ui], pkt[ui], mirror_adv=True
            )
            if adv_u is not None:
                advw = adv_u.astype(np.int64)
                pkt[ui] = pkt[ui] | (advw << 2)
                gids[ui] = self.GROUP_ID[self.p_mcls[pids[ui]], advw]
            reqm[ui, q_u] = True
            ok_u, bvc_u = self._check_resources(
                base[ui] + q_u, pids[ui], heads[ui], gids[ui]
            )
            ok[ui] = ok_u
            bvc[ui] = bvc_u
        mi = mcm.nonzero()[0]
        if len(mi):
            masks = self.MC_PORTS[self.p_src[pids[mi]], r_loc[mi]]
            reqm[mi] = ((masks[:, None] >> self._pidx) & 1) != 0
            ptr = base[mi][:, None] + self._pidx
            fq = self.fq_len[ptr, gids[mi][:, None]] > 0
            ok[mi] = (fq | ~reqm[mi]).all(axis=1)
        ok &= self.bocc[nsel, vcs] == 0
        oi = ok.nonzero()[0]
        if len(oi) == 0:
            return
        nsel, vcs, pkt, pids, heads, gids, bvc, base, reqm = (
            nsel[oi], vcs[oi], pkt[oi], pids[oi], heads[oi], gids[oi],
            bvc[oi], base[oi], reqm[oi],
        )
        rows_c, rows_p = reqm.nonzero()
        win = self._arbitrate(nsel[rows_c], base[rows_c] + rows_p)
        nwon = np.zeros(len(nsel), dtype=np.int64)
        np.add.at(nwon, rows_c[win], 1)
        full = nwon == reqm.sum(axis=1)
        wr = win & full[rows_c]
        wrc = rows_c[wr]
        wrp = rows_p[wr]
        if len(wrc) == 0:
            return
        m_rows = base[wrc] + wrp
        ovc = self._commit_alloc(
            m_rows, pids[wrc], heads[wrc], bvc[wrc], gids[wrc]
        )
        used[m_rows] = True
        self._forward_la(m_rows, wrp, pkt[wrc], ovc)
        self.st_ovcp[nsel[wrc], wrp] = ovc
        pm = np.zeros(len(nsel), dtype=np.int64)
        np.add.at(pm, wrc, np.int64(1) << wrp)
        wc = full.nonzero()[0]
        nw = nsel[wc]
        self.st_valid[nw] = True
        self.st_bypass[nw] = True
        self.st_pop[nw] = True
        self.st_vc[nw] = vcs[wc]
        self.st_pmask[nw] = pm[wc]
        self._st_n += len(nw)
        self.c_m2[nw] += 1

    def _buffered_pass_mc(self, used):
        """Buffered mSA-II with incremental multicast grants.

        A buffered multicast asks only for the not-yet-granted ports of
        its tree (``mc_granted`` per input VC persists across rounds),
        wins them incrementally, and pops its buffer slot only on the
        round that completes the set.  An empty askable set releases
        the S2 register (the grant set persists on the flit).
        """
        nsel = (self.s2_vc >= 0).nonzero()[0]
        if self._bypass and self._la_n:
            # the port's mSA-II mux selected the lookahead
            nsel = nsel[~self.la_valid[nsel]]
            if len(nsel) == 0:
                return
        vcs = self.s2_vc[nsel]
        slots = self.s2_slot[nsel]
        pkt = self.buf_pkt[nsel, vcs, slots]
        pids = pkt >> 3
        base = nsel - nsel % P
        r_loc = (nsel // P) % self.R
        mcm = self.p_mcast[pids]
        heads = (pkt & _HEAD) != 0
        gids = self.p_gid[pids]
        C = len(nsel)
        bvc = np.zeros(C, dtype=np.int64)
        routem = np.zeros((C, P), dtype=bool)
        reqm = np.zeros((C, P), dtype=bool)
        ui = (~mcm).nonzero()[0]
        if len(ui):
            q_u, adv_u = self._route_ports(nsel[ui], pids[ui], pkt[ui])
            if adv_u is not None:
                gids[ui] = self.GROUP_ID[
                    self.p_mcls[pids[ui]], adv_u.astype(np.int64)
                ]
            routem[ui, q_u] = True
            ok_u, bvc_u = self._check_resources(
                base[ui] + q_u, pids[ui], heads[ui], gids[ui]
            )
            bvc[ui] = bvc_u
            reqm[ui, q_u] = ok_u & ~used[base[ui] + q_u]
        mi = mcm.nonzero()[0]
        if len(mi):
            masks = self.MC_PORTS[self.p_src[pids[mi]], r_loc[mi]]
            routem[mi] = ((masks[:, None] >> self._pidx) & 1) != 0
            granted = self.mc_granted[nsel[mi], vcs[mi]]
            remaining = routem[mi] \
                & (((granted[:, None] >> self._pidx) & 1) == 0)
            ptr = base[mi][:, None] + self._pidx
            fq = self.fq_len[ptr, gids[mi][:, None]] > 0
            reqm[mi] = remaining & fq & ~used[ptr]
        askany = reqm.any(axis=1)
        ri = (~askany).nonzero()[0]
        if len(ri):
            self.buf_stage[nsel[ri], vcs[ri], slots[ri]] = _ST_NONE
            self.s2_vc[nsel[ri]] = -1
            self._s2_n -= len(ri)
        ai = askany.nonzero()[0]
        if len(ai) == 0:
            return
        nsel, vcs, slots, pkt, pids, heads, gids, bvc, base, routem, \
            reqm = (
                nsel[ai], vcs[ai], slots[ai], pkt[ai], pids[ai],
                heads[ai], gids[ai], bvc[ai], base[ai], routem[ai],
                reqm[ai],
            )
        rows_c, rows_p = reqm.nonzero()
        win = self._arbitrate(nsel[rows_c], base[rows_c] + rows_p)
        wrc = rows_c[win]
        wrp = rows_p[win]
        m_rows = base[wrc] + wrp
        ovc = self._commit_alloc(
            m_rows, pids[wrc], heads[wrc], bvc[wrc], gids[wrc]
        )
        if self._bypass:
            self._forward_la(m_rows, wrp, pkt[wrc], ovc)
        self.st_ovcp[nsel[wrc], wrp] = ovc
        grantm = np.zeros(len(nsel), dtype=np.int64)
        np.add.at(grantm, wrc, np.int64(1) << wrp)
        gi = (grantm != 0).nonzero()[0]
        ng = nsel[gi]
        gvc = vcs[gi]
        newg = self.mc_granted[ng, gvc] | grantm[gi]
        self.mc_granted[ng, gvc] = newg
        routebits = (routem[gi] * (np.int64(1) << self._pidx)) \
            .sum(axis=1)
        fully = (routebits & ~newg) == 0
        fi = fully.nonzero()[0]
        if len(fi):
            nf = ng[fi]
            self.buf_stage[nf, gvc[fi], slots[gi][fi]] = _ST_GRANTED
            self._gr_n += len(fi)
            self._gr_port[nf] += 1
            self.s2_vc[nf] = -1
            self._s2_n -= len(fi)
        self.st_valid[ng] = True
        self.st_bypass[ng] = False
        self.st_pop[ng] = fully
        self.st_vc[ng] = gvc
        self.st_pmask[ng] = grantm[gi]
        self._st_n += len(ng)
        self.c_m2[ng] += 1

    def _forward_la(self, m, q, pkt, ovc):
        """NRC + lookahead generation for granted non-local branches."""
        fwd = (q != LOCAL).nonzero()[0]
        if len(fwd) == 0:
            return
        mf = m[fwd]
        dst = self.DST_IN[mf]
        self.lv_valid[dst] = True
        self.lv_pkt[dst] = pkt[fwd]
        self.lv_vc[dst] = ovc[fwd]
        self.c_las[mf] += 1
        self._lv_n += len(fwd)

    def _msa1(self, t):
        ports = ((self.s2_vc < 0) & self.bocc.any(axis=1)).nonzero()[0]
        if len(ports) == 0:
            return
        heads = self.bhead[ports]
        occ = self.bocc[ports]
        ar = np.arange(len(ports))
        grp = self._gr_port[ports] if self._gr_n else None
        if grp is None or not grp.any():
            # no GRANTED flit at any candidate port: every occupied VC
            # is eligible, and every selected port has one (bocc.any)
            elig = occ > 0
            rank = self.RANK_TAB[self.rrptr[ports]]
            rank[~elig] = self.V
            win = rank.argmin(axis=1)
            slot = heads[ar, win]
        else:
            # a leading GRANTED flit (awaiting next cycle's traversal)
            # is skipped by oldest_unrequested; anything behind it
            # bids.  Only ports actually holding a GRANTED flit pay
            # the stage gather.
            granted = np.zeros(occ.shape, dtype=bool)
            gi = grp.nonzero()[0]
            pg = ports[gi]
            stage_h = self.buf_stage[
                pg[:, None], self._vcidx[None, :], heads[gi]
            ]
            granted[gi] = (stage_h == _ST_GRANTED) & (occ[gi] > 0)
            elig = occ > granted
            emask = elig.any(axis=1)
            ei = emask.nonzero()[0]
            if len(ei) == 0:
                return
            if len(ei) < len(ports):
                ports = ports[ei]
                heads = heads[ei]
                granted = granted[ei]
                elig = elig[ei]
                ar = ar[: len(ei)]
            rank = self.RANK_TAB[self.rrptr[ports]]
            rank[~elig] = self.V
            win = rank.argmin(axis=1)
            slot = (heads[ar, win] + granted[ar, win]) % self.D
        self.buf_stage[ports, win, slot] = _ST_S2
        self.s2_vc[ports] = win
        self.s2_slot[ports] = slot
        self.rrptr[ports] = (win + 1) % self.V
        self._s2_n += len(ports)
        self.c_m1[ports] += 1

    # ------------------------------------------------------------------
    # drain predicate and watchdog
    # ------------------------------------------------------------------

    def _quiet(self):
        """Exact equivalent of ``MeshNetwork.quiescent``: no payload in
        flight on any wire, no router-local work, no NIC backlog."""
        return (
            self._fl_n == 0 and self._lv_n == 0 and self._la_n == 0
            and self._ej_n == 0 and self._st_n == 0 and self._pend_n == 0
            and self._cr_n[0] == 0 and self._cr_n[1] == 0
            and self._s2_n == 0 and self._bocc_n == 0
            and not self.q_len.any()
        )

    def _lane_quiet(self, b):
        """The quiescence predicate restricted to one replica lane."""
        s = slice(b * self.N1, (b + 1) * self.N1)
        r = slice(b * self.R, (b + 1) * self.R)
        tr = slice(self.N + b * self.R, self.N + (b + 1) * self.R)
        return (
            not self.fl_valid[s].any()
            and not self.lv_valid[s].any()
            and not self.la_valid[s].any()
            and not self.st_valid[s].any()
            and not self.ej_valid[r].any()
            and not self.pend_valid[r].any()
            and not self.cr_valid[:, s].any()
            and not self.cr_valid[:, tr].any()
            and not (self.s2_vc[s] >= 0).any()
            and not self.bocc[s].any()
            and not self.q_len[r].any()
        )

    def _check_watchdog(self):
        if self._net_ejections != self._last_progress:
            self._last_progress = self._net_ejections
            self._watchdog_start = self.cycle
            self._watchdog_armed = False
        elif self.cycle - self._watchdog_start > WATCHDOG_CYCLES:
            if self._quiet():
                self._watchdog_armed = False
            elif self._watchdog_armed:
                raise SimulationStalled(self.cycle, WATCHDOG_CYCLES)
            else:
                self._watchdog_armed = True
            self._watchdog_start = self.cycle

    def _lane_ej_counts(self):
        """Total flits ejected per lane (from the per-router counters,
        so the hot loop carries no extra bookkeeping)."""
        return self.c_ej.reshape(self.B, self.R).sum(axis=1)

    def _check_watchdog_batch(self):
        """Per-lane watchdog: a stalled replica is killed (its state
        zeroed, its sources masked) instead of raising, so the other
        lanes keep running lockstep.  The killed lane's counters stay
        frozen at their trip-time values and its stop reason is
        recorded for the per-lane summaries.

        The check is amortised: no lane can trip before ``_wd_next``
        (the earliest stale horizon observed last time), so the hot
        loop pays a single integer compare per cycle.  A lane that
        made progress inside a skipped span is re-timestamped at check
        time — later than the actual ejection, which only makes the
        safety net more lenient, never byte-visible on healthy runs.
        """
        if self.cycle < self._wd_next:
            return
        counts = self._lane_ej_counts()
        prog = counts != self._lane_progress
        if prog.any():
            self._lane_progress[prog] = counts[prog]
            self._lane_wd_start[prog] = self.cycle
            self._lane_wd_armed[prog] = False
        stale = (
            self._lane_alive & ~prog
            & (self.cycle - self._lane_wd_start > WATCHDOG_CYCLES)
        )
        for b in stale.nonzero()[0]:
            if self._lane_quiet(b):
                self._lane_wd_armed[b] = False
            elif self._lane_wd_armed[b]:
                self._lane_stop[b] = "watchdog"
                self._kill_lane(int(b))
                continue
            else:
                self._lane_wd_armed[b] = True
            self._lane_wd_start[b] = self.cycle
        alive = self._lane_alive
        if alive.any():
            self._wd_next = (
                int(self._lane_wd_start[alive].min()) + WATCHDOG_CYCLES + 1
            )
        else:
            self._wd_next = self.cycle + WATCHDOG_CYCLES + 1

    def _kill_lane(self, b):
        """Zero one lane's in-flight state and mask its sources,
        keeping the global emptiness counters consistent."""
        s = slice(b * self.N1, (b + 1) * self.N1)
        r = slice(b * self.R, (b + 1) * self.R)
        tr = slice(self.N + b * self.R, self.N + (b + 1) * self.R)
        self._fl_n -= int(self.fl_valid[s].sum())
        self.fl_valid[s] = False
        self._lv_n -= int(self.lv_valid[s].sum())
        self.lv_valid[s] = False
        self._la_n -= int(self.la_valid[s].sum())
        self.la_valid[s] = False
        self._st_n -= int(self.st_valid[s].sum())
        self.st_valid[s] = False
        self._ej_n -= int(self.ej_valid[r].sum())
        self.ej_valid[r] = False
        self._pend_n -= int(self.pend_valid[r].sum())
        self.pend_valid[r] = False
        for slot in (0, 1):
            self._cr_n[slot] -= int(self.cr_valid[slot, s].sum())
            self._cr_n[slot] -= int(self.cr_valid[slot, tr].sum())
        self.cr_valid[:, s] = False
        self.cr_valid[:, tr] = False
        self._s2_n -= int((self.s2_vc[s] >= 0).sum())
        self.s2_vc[s] = -1
        # count the GRANTED flits actually held in this lane's rings
        ring = (np.arange(self.D)[None, None, :]
                - self.bhead[s][:, :, None]) % self.D
        held = ring < self.bocc[s][:, :, None]
        self._gr_n -= int(
            (held & (self.buf_stage[s] == _ST_GRANTED)).sum()
        )
        self._gr_port[s] = 0
        self._bocc_n -= int(self.bocc[s].sum())
        self.bocc[s] = 0
        self.buf_stage[s] = _ST_NONE
        self.mc_granted[s] = 0
        self.q_len[r] = 0
        self.backlog[r] = False
        self._bl_any = bool(self.backlog.any())
        self._src_live[r] = False
        self._any_dead = True
        self._lane_alive[b] = False

    # ------------------------------------------------------------------
    # measurement surface
    # ------------------------------------------------------------------

    def run(self, cycles):
        step = self._step
        for _ in range(cycles):
            step()

    def run_experiment(self, warmup=1_000, measure=10_000, drain=5_000):
        """Byte-identical mirror of ``Simulator.run_experiment``."""
        if self.B > 1:
            raise ValueError(
                "run_experiment on a batched ArraySimulator is "
                "ambiguous; use run_experiment_batch for per-seed "
                "WindowStats"
            )
        stop_reason = "completed"
        try:
            self.run(warmup)
        except SimulationStalled:
            stop_reason = "watchdog"
        start_msgs = self._mcount
        start_byp = int(self.c_byp.sum())
        start_xin = int(self.c_st.sum())
        start_ej = int(self.n_ej.sum())
        if stop_reason == "completed":
            try:
                self.run(measure)
            except SimulationStalled:
                stop_reason = "watchdog"
        end_ej = int(self.n_ej.sum())
        end_msgs = self._mcount
        # stop generating traffic, then drain
        had_sources = self._sources_on
        self._sources_on = False
        drained = 0
        if stop_reason == "completed":
            try:
                while drained < drain and not self._quiet():
                    self._step()
                    drained += 1
            except SimulationStalled:
                stop_reason = "watchdog"
            else:
                if drained >= drain and not self._quiet():
                    stop_reason = "max-cycles"
        self._sources_on = had_sources
        delta_byp = int(self.c_byp.sum()) - start_byp
        delta_xin = int(self.c_st.sum()) - start_xin
        return summarize_window(
            self.cfg,
            self.name,
            self._lane_rates[0],
            measure,
            self._message_views(start_msgs, end_msgs),
            end_ej - start_ej,
            delta_byp,
            delta_xin,
            stop_reason=stop_reason,
        )

    def run_experiment_batch(self, warmup=1_000, measure=10_000,
                             drain=5_000):
        """One window per replica lane, all lanes stepped in lockstep.

        Lane *k*'s ``WindowStats`` is byte-identical to a solo run at
        ``seeds[k]`` and ``rates[k]``: the lanes share no draw streams
        and no router state, only the python/numpy dispatch overhead.  A
        stalled lane is killed by the per-lane watchdog (reported as
        ``stop_reason="watchdog"``); the drain budget is shared, so a
        lane still busy when it runs out reports ``"max-cycles"``.
        """
        if self.B == 1:
            return [self.run_experiment(
                warmup=warmup, measure=measure, drain=drain
            )]
        self.run(warmup)
        start_msgs = self._lane_msgs.copy()
        start_byp = self._lane_port_sums(self.c_byp)
        start_xin = self._lane_port_sums(self.c_st)
        start_ej = self._lane_node_sums(self.n_ej)
        self.run(measure)
        end_ej = self._lane_node_sums(self.n_ej)
        end_msgs = self._lane_msgs.copy()
        had_sources = self._sources_on
        self._sources_on = False
        drained = 0
        while drained < drain and not self._quiet():
            self._step()
            drained += 1
        exhausted = drained >= drain and not self._quiet()
        self._sources_on = had_sources
        delta_byp = self._lane_port_sums(self.c_byp) - start_byp
        delta_xin = self._lane_port_sums(self.c_st) - start_xin
        out = []
        for b in range(self.B):
            stop = self._lane_stop[b]
            if stop == "completed" and exhausted \
                    and not self._lane_quiet(b):
                stop = "max-cycles"
            out.append(summarize_window(
                self.cfg,
                self.name,
                self._lane_rates[b],
                measure,
                self._message_views(
                    int(start_msgs[b]), int(end_msgs[b]), lane=b
                ),
                int(end_ej[b] - start_ej[b]),
                int(delta_byp[b]),
                int(delta_xin[b]),
                stop_reason=stop,
            ))
        return out

    def activity(self):
        """Aggregate router activity since construction (power models)."""
        return self.network.total_router_activity()

    # ------------------------------------------------------------------
    # stats materialisation
    # ------------------------------------------------------------------

    def _lane_port_sums(self, arr):
        return arr.reshape(self.B, self.N1).sum(axis=1)

    def _lane_node_sums(self, arr):
        return arr.reshape(self.B, self.R).sum(axis=1)

    def _lane_count(self, b):
        return int(self._lane_msgs[b]) if self.B > 1 else self._mcount

    def _message_views(self, start, end, lane=0):
        creation = self.p_creation
        completion = self.p_completion
        nflits = self.p_nflits
        mcast = self.p_mcast
        if self.B > 1:
            sel = (self.p_lane[: self._mcount] == lane).nonzero()[0]
            idx = sel[start:end]
        else:
            idx = range(start, end)
        return [
            _MsgView(int(creation[i]), int(completion[i]),
                     int(nflits[i]), bool(mcast[i]))
            for i in idx
        ]

    def _fold(self, arr, lane):
        lo = lane * self.N1
        return arr[lo:lo + self.N1].reshape(self.R, P).sum(axis=1)

    def _router_counters(self, lane=0):
        bw = self._fold(self.c_bw, lane)
        br = self._fold(self.c_br, lane)
        st = self._fold(self.c_st, lane)
        byp = self._fold(self.c_byp, lane)
        link = self._fold(self.c_link, lane)
        m1 = self._fold(self.c_m1, lane)
        m2 = self._fold(self.c_m2, lane)
        las = self._fold(self.c_las, lane)
        lar = self._fold(self.c_lar, lane)
        ej0 = lane * self.R
        if self._mc:
            xout = self._fold(self.c_xout, lane)
            credits = byp + br
        else:
            # unicast: every traversal has one branch and pops
            xout = st
            credits = st
        out = []
        for r in range(self.R):
            out.append(ActivityCounters(
                buffer_writes=int(bw[r]),
                buffer_reads=int(br[r]),
                xbar_input_traversals=int(st[r]),
                xbar_output_traversals=int(xout[r]),
                link_traversals=int(link[r]),
                ejections=int(self.c_ej[ej0 + r]),
                bypasses=int(byp[r]),
                msa1_grants=int(m1[r]),
                msa2_grants=int(m2[r]),
                la_sent=int(las[r]),
                la_received=int(lar[r]),
                credits_sent=int(credits[r]),
            ))
        return out

    def _nic_counters(self, lane=0):
        lo = lane * self.R
        out = []
        for r in range(self.R):
            out.append(ActivityCounters(
                injections=int(self.n_inj[lo + r]),
                ejected_flits=int(self.n_ej[lo + r]),
                messages_submitted=int(self.n_sub[lo + r]),
                la_sent=int(self.n_las[lo + r]),
            ))
        return out
