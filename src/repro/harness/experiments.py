"""One driver per table and figure of the paper.

Every public function regenerates the data behind one exhibit and
returns plain data structures (dicts/lists/dataclasses) that the
benchmarks assert on and the examples print.  Simulation-backed
figures accept ``measure``/``warmup`` cycle counts so benchmarks can
trade fidelity for runtime; the defaults match the paper's 10^4-cycle
methodology.
"""

from __future__ import annotations

import sys

from repro.analysis.limits import MeshLimits
from repro.analysis.replicas import aggregate_replicas
from repro.analysis.saturation import find_saturation, saturation_throughput
from repro.core.presets import (
    baseline_network,
    proposed_network,
    strawman_network,
)
from repro.engine.jobspec import (
    DEFAULT_DRAIN,
    DEFAULT_MEASURE,
    DEFAULT_SEED,
    DEFAULT_WARMUP,
)
from repro.harness.sweep import default_rates, run_sweep_batch
from repro.noc.metrics import aggregate
from repro.traffic.mix import BROADCAST_ONLY, MIXED_TRAFFIC

# Only what every exhibit needs is imported here (DESIGN.md §2): the
# circuit, power and physical models, the prototype table and the
# simulator load inside the one exhibit that uses them, so a cached
# fig5 re-plot never pays for numpy or the object loop.

#: offered broadcast rate delivering ~653 Gb/s (the Fig. 6/8 point)
FIG6_RATE = 653 / 64 / 256


# ----------------------------------------------------------------- tables


def table1_limits(ks=(2, 4, 8, 16)):
    """Table 1: theoretical limits for a range of mesh radices."""
    rows = []
    for k in ks:
        lim = MeshLimits(k)
        rows.append(
            {
                "k": k,
                "unicast_hops": lim.unicast_hops,
                "broadcast_hops": lim.broadcast_hops_paper,
                "unicast_bisection_load": lim.bisection_load("unicast", 1.0),
                "broadcast_bisection_load": lim.bisection_load("broadcast", 1.0),
                "unicast_ejection_load": lim.ejection_load("unicast", 1.0),
                "broadcast_ejection_load": lim.ejection_load("broadcast", 1.0),
                "unicast_max_rate": lim.max_injection_rate("unicast"),
                "broadcast_max_rate": lim.max_injection_rate("broadcast"),
                "unicast_energy_xbar_link": lim.energy_limit("unicast", 1.0, 1.0),
                "broadcast_energy_xbar_link": lim.energy_limit(
                    "broadcast", 1.0, 1.0
                ),
            }
        )
    return rows


def table2_prototypes():
    """Table 2: chip prototype comparison."""
    from repro.analysis.prototypes import prototype_comparison

    return prototype_comparison()


def table3_critical_path():
    """Table 3: pre/post-layout and measured critical paths."""
    from repro.physical.critical_path import CriticalPathAnalysis

    return CriticalPathAnalysis().report()


def table4_area():
    """Table 4: full-swing vs low-swing crossbar and router area."""
    from repro.physical.area import AreaModel

    return AreaModel()


# ---------------------------------------------------------------- figures


def _paired_sweeps(mix, rates, executor=None, routing=None, seeds=1,
                   **kwargs):
    """Proposed + baseline sweeps, submitted as one engine batch so a
    process-pool backend can overlap the two.  ``routing`` swaps the
    unicast routing algorithm into both configs (multicast trees stay
    XY — the baseline expands broadcasts into unicasts anyway);
    ``seeds`` runs that many replicas per rate (see
    :func:`~repro.harness.sweep.run_sweep_batch`)."""
    configs = {"proposed": proposed_network(), "baseline": baseline_network()}
    if routing is not None:
        configs = {
            name: cfg.with_(routing=routing) for name, cfg in configs.items()
        }
    return run_sweep_batch(
        configs, mix, rates, executor=executor, replicas=seeds, **kwargs
    )


def _fold_replicas(result, sweeps, seeds):
    """Fan a replicated sweep dict into the figure result: the plain
    ``proposed``/``baseline`` series stay the base-seed runs (so every
    downstream consumer — ``summarize_sweeps``, the benchmarks — sees
    exactly what a ``seeds=1`` run produces), and per-rate mean/std/CI
    aggregates land next to them under ``*_replicas``."""
    for name in ("proposed", "baseline"):
        groups = sweeps[name]
        result[name] = [g[0] for g in groups]
        result[f"{name}_replicas"] = [aggregate_replicas(g) for g in groups]
    result["seeds"] = seeds
    return result


def fig5_mixed_traffic(
    rates=None,
    warmup=DEFAULT_WARMUP,
    measure=DEFAULT_MEASURE,
    drain=DEFAULT_DRAIN,
    seed=DEFAULT_SEED,
    executor=None,
    backend="object",
    pattern=None,
    routing=None,
    injection=None,
    seeds=1,
):
    """Fig. 5: latency vs injection for mixed traffic at 1 GHz.

    Returns the proposed and baseline sweeps plus the theoretical
    latency and throughput limit lines.  ``executor`` (an
    :class:`~repro.engine.Executor`) selects the execution backend and
    result cache; the default is serial and uncached.  ``pattern``
    replaces the paper's uniform unicast destinations with a spatial
    :class:`~repro.traffic.patterns.DestinationPattern`, ``routing``
    swaps the unicast routing algorithm (a
    :class:`~repro.noc.routing.RoutingAlgorithm`), and ``injection``
    swaps the temporal process (an
    :class:`~repro.traffic.processes.InjectionProcess` — bursty
    processes offer the same mean load but reach saturation earlier);
    the limit lines are only exact for the uniform-XY-Bernoulli
    default.  ``seeds`` runs each rate under that many replica seeds
    (cheap on ``backend="array"``, which folds them into one batched
    kernel pass): the ``proposed``/``baseline`` series stay the
    base-seed runs, and per-rate mean/std/95%-CI aggregates appear
    under ``proposed_replicas``/``baseline_replicas``.
    """
    lim = MeshLimits(4)
    if rates is None:
        if pattern is None and routing is None and injection is None:
            rates = [0.02, 0.05, 0.08, 0.11, 0.14, 0.16, 0.18, 0.21]
        else:
            # adversarial patterns (or non-default routing) saturate
            # away from the uniform grid; bracket their own ceiling,
            # clamped to what the injection process can express
            rates = default_rates(
                MIXED_TRAFFIC,
                16,
                pattern=pattern,
                routing=routing,
                injection=injection,
            )
    sweeps = _paired_sweeps(
        MIXED_TRAFFIC,
        rates,
        executor=executor,
        backend=backend,
        routing=routing,
        seeds=seeds,
        warmup=warmup,
        measure=measure,
        drain=drain,
        seed=seed,
        pattern=pattern,
        injection=injection,
    )
    weights = {c.name: c.weight for c in MIXED_TRAFFIC.components}
    latency_limit = (
        weights["broadcast_request"] * lim.latency_limit("broadcast")
        + weights["unicast_request"] * lim.latency_limit("unicast")
        + weights["unicast_response"] * (lim.latency_limit("unicast") + 4)
    )
    result = {
        "traffic": "mixed",
        "rates": list(rates),
        "proposed": sweeps["proposed"],
        "baseline": sweeps["baseline"],
        "latency_limit_cycles": latency_limit,
        "throughput_limit_gbps": lim.mix_throughput_limit_gbps(MIXED_TRAFFIC),
        "saturation_rate_limit": lim.mix_saturation_rate(MIXED_TRAFFIC),
    }
    if seeds > 1:
        _fold_replicas(result, sweeps, seeds)
    return result


def fig13_broadcast_traffic(
    rates=None,
    warmup=DEFAULT_WARMUP,
    measure=DEFAULT_MEASURE,
    drain=DEFAULT_DRAIN,
    seed=DEFAULT_SEED,
    executor=None,
    backend="object",
    pattern=None,
    routing=None,
    injection=None,
    seeds=1,
):
    """Fig. 13 / Appendix D: broadcast-only latency vs injection.

    ``pattern`` and ``routing`` are accepted for CLI symmetry but
    *ignored*: broadcast messages always address every node and route
    along the XY multicast tree under every algorithm, and this mix
    has no unicast component, so neither knob can change a single
    flit — honouring them would only fork the cache keys and
    re-simulate identical results.  ``injection`` is honoured: the
    temporal process decides *when* broadcasts are injected, so bursty
    processes genuinely change this figure.
    """
    lim = MeshLimits(4)
    if rates is None:
        rates = [0.005, 0.015, 0.025, 0.035, 0.045, 0.055, 0.065, 0.072]
        if injection is not None:
            kept = [r for r in rates if r <= injection.max_rate()]
            if not kept:
                raise ValueError(
                    f"the {injection.name} process cannot express any of "
                    f"fig13's default rates (max "
                    f"{injection.max_rate():.4g} flits/node/cycle); pass "
                    f"explicit rates within its range"
                )
            if len(kept) < len(rates):
                # never truncate silently: a shorter grid changes what
                # find_saturation can see, and that must read as a
                # coverage limit, not a workload effect
                print(
                    f"note: fig13 rates above the {injection.name} "
                    f"process's expressible mean "
                    f"({injection.max_rate():.4g}) dropped: "
                    f"{[r for r in rates if r not in kept]}",
                    file=sys.stderr,
                )
            rates = kept
    sweeps = _paired_sweeps(
        BROADCAST_ONLY,
        rates,
        executor=executor,
        backend=backend,
        seeds=seeds,
        warmup=warmup,
        measure=measure,
        drain=drain,
        seed=seed,
        injection=injection,
    )
    result = {
        "traffic": "broadcast_only",
        "rates": list(rates),
        "proposed": sweeps["proposed"],
        "baseline": sweeps["baseline"],
        "latency_limit_cycles": lim.latency_limit("broadcast"),
        "throughput_limit_gbps": lim.mix_throughput_limit_gbps(BROADCAST_ONLY),
        "saturation_rate_limit": lim.mix_saturation_rate(BROADCAST_ONLY),
    }
    if seeds > 1:
        _fold_replicas(result, sweeps, seeds)
    return result


def summarize_sweeps(result):
    """Section 4.1 headline numbers from a Fig. 5/13 result dict.

    Low-load latency reduction, saturation throughputs by the paper's
    3x-zero-load rule, their ratio, and the fraction of the theoretical
    throughput limit attained.
    """
    proposed, baseline = result["proposed"], result["baseline"]
    lat_red = 1.0 - proposed[0].avg_latency / baseline[0].avg_latency
    sat_prop = saturation_throughput(proposed)
    sat_base = saturation_throughput(baseline)
    return {
        "low_load_latency_reduction": lat_red,
        "proposed_saturation_gbps": sat_prop,
        "baseline_saturation_gbps": sat_base,
        "throughput_ratio": sat_prop / sat_base,
        "fraction_of_limit": sat_prop / result["throughput_limit_gbps"],
        "proposed_saturation_rate": find_saturation(proposed),
        "baseline_saturation_rate": find_saturation(baseline),
        "max_delivered_gbps": max(p.throughput_gbps for p in proposed),
    }


def _window_activity(config, rate, low_swing, warmup, measure, seed=7):
    from repro.noc.simulator import Simulator
    from repro.power.meter import PowerMeter
    from repro.traffic.generators import BernoulliTraffic

    traffic = BernoulliTraffic(BROADCAST_ONLY, rate, seed=seed)
    sim = Simulator(config, traffic)
    sim.run(warmup)
    start = aggregate(sim.network.router_stats).snapshot()
    start_ej = sum(s.ejected_flits for s in sim.network.nic_stats)
    sim.run(measure)
    activity = aggregate(sim.network.router_stats) - start
    ejected = sum(s.ejected_flits for s in sim.network.nic_stats) - start_ej
    meter = PowerMeter(low_swing=low_swing, num_routers=config.num_nodes)
    return activity, meter.evaluate(activity, measure), ejected


def fig6_power_reduction(rate=FIG6_RATE, warmup=1_000, measure=4_000, seed=7):
    """Fig. 6: the A->B->C->D power waterfall at ~653 Gb/s broadcast.

    A: full-swing unicast network, B: low-swing unicast network,
    C: low-swing broadcast network without bypass, D: with bypass.
    """
    configs = {
        "A": (baseline_network(), False),
        "B": (baseline_network(), True),
        "C": (strawman_network(), True),
        "D": (proposed_network(), True),
    }
    out = {}
    for label, (cfg, low_swing) in configs.items():
        activity, breakdown, ejected = _window_activity(
            cfg, rate, low_swing, warmup, measure, seed
        )
        out[label] = {
            "breakdown": breakdown,
            "delivered_gbps": 64.0 * ejected / measure,
        }
    a, b = out["A"]["breakdown"], out["B"]["breakdown"]
    c, d = out["C"]["breakdown"], out["D"]["breakdown"]
    out["reductions"] = {
        "datapath_low_swing": 1 - b.datapath_mw / a.datapath_mw,
        "logic_multicast": 1 - c.logic_mw / b.logic_mw,
        "buffers_bypass": 1 - d.buffers_mw / c.buffers_mw,
        "total": 1 - d.total_mw / a.total_mw,
    }
    return out


def fig8_power_models(rate=FIG6_RATE, warmup=1_000, measure=4_000, seed=7):
    """Fig. 8: ORION vs post-layout vs 'measured' power estimates."""
    from repro.power.orion import OrionPowerModel
    from repro.power.postlayout import PostLayoutPowerModel

    base_cfg, prop_cfg = baseline_network(), proposed_network()
    act_b, meas_b, _ = _window_activity(base_cfg, rate, False, warmup, measure, seed)
    act_p, meas_p, _ = _window_activity(prop_cfg, rate, True, warmup, measure, seed)
    rows = {
        "measured": {"baseline": meas_b, "proposed": meas_p},
        "orion": {
            "baseline": OrionPowerModel(base_cfg).evaluate(act_b, measure),
            "proposed": OrionPowerModel(prop_cfg).evaluate(act_p, measure),
        },
        "postlayout": {
            "baseline": PostLayoutPowerModel(low_swing=False).evaluate(
                act_b, measure
            ),
            "proposed": PostLayoutPowerModel(low_swing=True).evaluate(
                act_p, measure
            ),
        },
    }
    summary = {}
    for model in ("orion", "postlayout"):
        summary[f"{model}_baseline_ratio"] = (
            rows[model]["baseline"].total_mw / rows["measured"]["baseline"].total_mw
        )
        summary[f"{model}_proposed_ratio"] = (
            rows[model]["proposed"].total_mw / rows["measured"]["proposed"].total_mw
        )
        summary[f"{model}_relative_reduction"] = 1 - (
            rows[model]["proposed"].total_mw / rows[model]["baseline"].total_mw
        )
    summary["measured_relative_reduction"] = 1 - (
        meas_p.total_mw / meas_b.total_mw
    )
    rows["summary"] = summary
    return rows


def fig7_lowswing_energy(lengths_mm=(1.0, 2.0), alpha=0.5):
    """Fig. 7: RSD vs full-swing repeater energy on PRBS-like data."""
    from repro.circuits.repeater import FullSwingRepeatedLink
    from repro.circuits.rsd import TriStateRSD

    rows = []
    for length in lengths_mm:
        rsd = TriStateRSD(length)
        full = FullSwingRepeatedLink(length)
        rows.append(
            {
                "length_mm": length,
                "rsd_energy_fj": rsd.energy_per_bit_fj(alpha),
                "full_swing_energy_fj": full.energy_per_bit_fj(alpha),
                "advantage": rsd.energy_advantage(alpha),
                "rsd_max_clock_ghz": rsd.max_clock_ghz(),
            }
        )
    return rows


def fig10_reliability(swings_mv=(100, 150, 200, 250, 300, 350, 400), runs=1000):
    """Fig. 10: energy vs failure probability across voltage swings."""
    from repro.circuits.rsd import TriStateRSD
    from repro.circuits.sense_amp import SenseAmplifier

    amp = SenseAmplifier()
    rows = []
    for swing in swings_mv:
        rsd = TriStateRSD(1.0).with_swing(swing / 1000.0)
        rows.append(
            {
                "swing_mv": swing,
                "energy_fj": rsd.energy_per_bit_fj(),
                "failure_analytic": amp.failure_probability(swing),
                "failure_monte_carlo": amp.monte_carlo_failures(swing, runs=runs),
                "sigma_margin": amp.sigma_margin(swing),
            }
        )
    return rows


def fig11_multicast_power(data_rate_gbps=5.0):
    """Fig. 11: RSD crossbar dynamic power vs multicast fanout."""
    from repro.circuits.crossbar import LowSwingCrossbar

    xbar = LowSwingCrossbar()
    return [
        {
            "fanout": m,
            "power_uw": xbar.dynamic_power_uw(data_rate_gbps, fanout=m),
        }
        for m in range(1, xbar.ports + 1)
    ]


def fig12_eye_margin(runs=1000):
    """Fig. 12: repeated vs direct 2mm low-swing transmission."""
    from repro.circuits.eye import repeated_vs_direct

    return repeated_vs_direct(runs=runs)


def low_load_power_breakdown(rate=3 / 255, warmup=1_000, measure=4_000):
    """Section 4.1's per-router low-load analysis vs the 5.6 mW floor."""
    from repro.noc.simulator import Simulator
    from repro.power.meter import PowerMeter
    from repro.traffic.generators import BernoulliTraffic

    cfg = proposed_network()
    traffic = BernoulliTraffic(
        BROADCAST_ONLY, rate, seed=7, identical_generators=True
    )
    sim = Simulator(cfg, traffic)
    sim.run(warmup)
    start = aggregate(sim.network.router_stats).snapshot()
    sim.run(measure)
    activity = aggregate(sim.network.router_stats) - start
    meter = PowerMeter(low_swing=True, num_routers=cfg.num_nodes)
    breakdown = meter.evaluate(activity, measure)
    n = cfg.num_nodes
    return {
        "per_router_dynamic_mw": breakdown.dynamic_mw / n,
        "floor_mw": meter.theoretical_floor_mw(activity, measure) / n,
        "vc_state_mw": meter.model.vc_state_pj_per_cycle,
        "buffers_mw": breakdown.buffers_mw / n,
        "allocators_mw": (
            (activity.msa1_grants + activity.msa2_grants)
            * meter.model.arbitration_pj
            / measure
            + meter.model.allocator_state_pj_per_cycle * n
        )
        / n,
        "lookaheads_mw": activity.la_sent * meter.model.lookahead_pj / measure / n,
        "breakdown": breakdown,
    }


def zero_load_model_check(config=None, traffic="unicast"):
    """Analytic zero-load latency for a design point (sanity helper)."""
    from repro.analysis.zero_load import zero_load_latency_config

    cfg = config or proposed_network()
    return zero_load_latency_config(cfg, traffic=traffic)
