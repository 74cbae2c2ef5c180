"""The ``repro`` command line (also reachable as ``python -m repro``).

Six subcommands drive the experiment engine:

* ``repro sweep``  — run a latency-throughput sweep for any preset
  config and traffic mix, on the serial or process-pool backend, with
  results cached under ``.repro_cache/``;
* ``repro figure`` — regenerate a paper exhibit via the drivers in
  :mod:`repro.harness.experiments` (fig5/fig13 route through the
  engine and benefit from caching and parallelism), or the
  ``reliability`` exhibit of :mod:`repro.analysis.reliability`
  (delivered throughput vs dead links and vs voltage swing);
* ``repro trace``  — run one operating point with event tracing and
  export the capture as Chrome trace-event JSON (``chrome://tracing``
  / Perfetto) and optionally JSONL;
* ``repro stats``  — run one operating point with the periodic metrics
  sampler and print link-utilization heatmaps and congestion figures;
* ``repro cache``  — inspect (``stats``) or empty (``clear``) the
  persistent result cache;
* ``repro serve``  — put the :mod:`repro.service` sweep API in front of
  the cache: POSTed JobSpec batches dedup against it and the misses run
  on a background worker pool (requires Flask, an optional dependency).

Diagnostics go through :mod:`logging` (stderr, ``repro:`` prefix;
``-v``/``-q`` select the level); figure and table output — the data a
script would parse — stays on stdout, byte-stable.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from repro.core.presets import (
    baseline_network,
    proposed_network,
    strawman_network,
    textbook_network,
)
from repro.engine.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.engine.executor import Executor
from repro.engine.jobspec import (
    DEFAULT_DRAIN,
    DEFAULT_MEASURE,
    DEFAULT_SEED,
    DEFAULT_WARMUP,
)
from repro.harness import experiments
from repro.harness.sweep import default_rates, run_sweep, run_sweep_replicated
from repro.harness.tables import format_series
from repro.noc.backend import backend_names
from repro.noc.routing import routing_names
from repro.traffic.mix import BROADCAST_ONLY, MIXED_TRAFFIC, UNIFORM_UNICAST
from repro.traffic.patterns import pattern_names
from repro.traffic.processes import process_names

# Top level holds what building the parser and replaying a cached
# exhibit need; a subcommand imports the rest where it uses it
# (DESIGN.md §2).

logger = logging.getLogger(__name__)

CONFIGS = {
    "proposed": proposed_network,
    "baseline": baseline_network,
    "strawman": strawman_network,
    "textbook": textbook_network,
}

MIXES = {
    "mixed": MIXED_TRAFFIC,
    "broadcast_only": BROADCAST_ONLY,
    "uniform_unicast": UNIFORM_UNICAST,
}

#: Exhibits whose drivers accept engine keywords (rates/cycles/executor).
SWEEP_FIGURES = {
    "fig5": experiments.fig5_mixed_traffic,
    "fig13": experiments.fig13_broadcast_traffic,
}

#: Closed-form or single-run exhibits; regenerated as-is.
PLAIN_FIGURES = {
    "fig6": experiments.fig6_power_reduction,
    "fig7": experiments.fig7_lowswing_energy,
    "fig8": experiments.fig8_power_models,
    "fig10": experiments.fig10_reliability,
    "fig11": experiments.fig11_multicast_power,
    "fig12": experiments.fig12_eye_margin,
    "table1": experiments.table1_limits,
    "table2": experiments.table2_prototypes,
    "table3": experiments.table3_critical_path,
    "table4": experiments.table4_area,
}


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _parse_floats(text, what="value"):
    try:
        values = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}"
        ) from None
    if not values:
        raise argparse.ArgumentTypeError(f"at least one {what} is required")
    return values


def _parse_rates(text):
    return list(_parse_floats(text, what="rate"))


def _parse_nodes(text):
    try:
        nodes = tuple(int(n) for n in text.split(",") if n.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"hot nodes must be comma-separated node ids, got {text!r}"
        ) from None
    if not nodes:
        raise argparse.ArgumentTypeError("at least one hot node is required")
    return nodes


def _add_pattern_args(parser):
    group = parser.add_argument_group("spatial traffic pattern")
    group.add_argument(
        "--pattern",
        choices=pattern_names(),
        default="uniform",
        help="unicast destination pattern (default: uniform)",
    )
    group.add_argument(
        "--hotspot",
        type=_parse_nodes,
        default=None,
        metavar="N1,N2,...",
        help="hot node ids (requires --pattern hotspot)",
    )
    group.add_argument(
        "--hotspot-fraction",
        type=float,
        default=None,
        metavar="F",
        help="fraction of unicasts aimed at the hot nodes (default: 0.5)",
    )


def _add_injection_args(parser):
    group = parser.add_argument_group("temporal injection process")
    group.add_argument(
        "--injection",
        choices=process_names(),
        default="bernoulli",
        help="temporal injection process (default: bernoulli, the "
        "paper's memoryless workload)",
    )
    group.add_argument(
        "--burst-length",
        type=float,
        default=None,
        metavar="L",
        help="mean ON-burst length in cycles (requires --injection "
        "onoff; default: 8)",
    )
    group.add_argument(
        "--on-rate",
        type=float,
        default=None,
        metavar="R1",
        help="flit rate while ON (requires --injection onoff; "
        "default: 1.0, full speed)",
    )
    group.add_argument(
        "--mmp-levels",
        type=_parse_floats,
        default=None,
        metavar="L1,L2,...",
        help="relative rate of each MMP state (requires --injection mmp)",
    )
    group.add_argument(
        "--mmp-dwells",
        type=_parse_floats,
        default=None,
        metavar="D1,D2,...",
        help="mean dwell cycles of each MMP state (requires "
        "--injection mmp)",
    )


def _make_injection(args):
    """The InjectionProcess selected by the CLI flags (None = the
    Bernoulli default, so default cache keys stay byte-identical)."""
    if args.injection == "onoff":
        from repro.traffic.processes import OnOffProcess

        if args.mmp_levels is not None or args.mmp_dwells is not None:
            raise ValueError(
                "--mmp-levels/--mmp-dwells only apply to --injection mmp"
            )
        kwargs = {}
        if args.burst_length is not None:
            kwargs["burst_length"] = args.burst_length
        if args.on_rate is not None:
            kwargs["on_rate"] = args.on_rate
        return OnOffProcess(**kwargs)
    if args.injection == "mmp":
        from repro.traffic.processes import MMPProcess

        if args.burst_length is not None or args.on_rate is not None:
            raise ValueError(
                "--burst-length/--on-rate only apply to --injection onoff"
            )
        kwargs = {}
        if args.mmp_levels is not None:
            kwargs["levels"] = args.mmp_levels
        if args.mmp_dwells is not None:
            kwargs["dwells"] = args.mmp_dwells
        return MMPProcess(**kwargs)
    for flag, value in (
        ("--burst-length", args.burst_length),
        ("--on-rate", args.on_rate),
        ("--mmp-levels", args.mmp_levels),
        ("--mmp-dwells", args.mmp_dwells),
    ):
        if value is not None:
            raise ValueError(
                f"{flag} only applies to a bursty --injection process, "
                f"not {args.injection!r}"
            )
    return None


def _parse_fault_links(text):
    """``"1-2@500,3-7"`` -> ``((1, 2, 500), (3, 7, 0))``."""
    links = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        pair, _, cycle = part.partition("@")
        try:
            a, _, b = pair.partition("-")
            links.append((int(a), int(b), int(cycle) if cycle else 0))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"fault links are A-B[@CYCLE] terms, got {part!r}"
            ) from None
    if not links:
        raise argparse.ArgumentTypeError("at least one fault link is required")
    return tuple(links)


def _parse_fault_routers(text):
    """``"5@400,12"`` -> ``((5, 400), (12, 0))``."""
    routers = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        node, _, cycle = part.partition("@")
        try:
            routers.append((int(node), int(cycle) if cycle else 0))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"fault routers are N[@CYCLE] terms, got {part!r}"
            ) from None
    if not routers:
        raise argparse.ArgumentTypeError(
            "at least one fault router is required"
        )
    return tuple(routers)


#: ``--faults`` model name -> the fault flags that apply to it.  The
#: keys are also the flag's ``choices=``: repro.noc.faults (the whole
#: recovery stack) is imported only once a model is selected, so the
#: names are listed here and tests/engine/test_import_budget.py pins
#: them equal to ``("none",) + fault_names()``.
FAULT_FLAGS = {
    "none": (),
    "biterror": ("--link-error-rate",),
    "links": ("--link-error-rate", "--fault-links", "--fault-routers"),
    "random": ("--link-error-rate", "--fault-count", "--fault-at"),
    "swing": ("--fault-swing",),
}


def _add_fault_args(parser):
    group = parser.add_argument_group("fault injection")
    group.add_argument(
        "--faults",
        choices=tuple(FAULT_FLAGS),
        default="none",
        help="fault model (default: none, the fault-free fast path)",
    )
    group.add_argument(
        "--link-error-rate",
        type=float,
        default=None,
        metavar="P",
        help="per-flit corruption probability on each live link "
        "(biterror/links/random models)",
    )
    group.add_argument(
        "--fault-swing",
        type=float,
        default=None,
        metavar="MV",
        help="link voltage swing in mV; the error rate follows the "
        "Fig. 10 swing -> P(fail) model (requires --faults swing)",
    )
    group.add_argument(
        "--fault-links",
        type=_parse_fault_links,
        default=None,
        metavar="A-B@C,...",
        help="links to kill, as node pairs with optional death cycles "
        "(requires --faults links)",
    )
    group.add_argument(
        "--fault-routers",
        type=_parse_fault_routers,
        default=None,
        metavar="N@C,...",
        help="routers to kill, with optional death cycles "
        "(requires --faults links)",
    )
    group.add_argument(
        "--fault-count",
        type=_positive_int,
        default=None,
        metavar="N",
        help="how many random links to kill (requires --faults random)",
    )
    group.add_argument(
        "--fault-at",
        type=int,
        default=None,
        metavar="CYCLE",
        help="death cycle of the random links (requires --faults random)",
    )


def _make_faults(args):
    """The FaultModel selected by the CLI flags (None = fault free, so
    fault-free cache keys stay byte-identical)."""
    name = args.faults
    flags = {
        "--link-error-rate": args.link_error_rate,
        "--fault-swing": args.fault_swing,
        "--fault-links": args.fault_links,
        "--fault-routers": args.fault_routers,
        "--fault-count": args.fault_count,
        "--fault-at": args.fault_at,
    }
    applies = FAULT_FLAGS[name]
    for flag, value in flags.items():
        if value is not None and flag not in applies:
            raise ValueError(
                f"{flag} does not apply to --faults {name}"
                if name != "none"
                else f"{flag} requires a fault model (--faults)"
            )
    if name == "none":
        return None
    from repro.noc.faults import (
        BitErrorFaults,
        LinkFaults,
        RandomFaults,
        SwingFaults,
    )

    if name == "biterror":
        kwargs = {}
        if args.link_error_rate is not None:
            kwargs["rate"] = args.link_error_rate
        return BitErrorFaults(**kwargs)
    if name == "swing":
        kwargs = {}
        if args.fault_swing is not None:
            kwargs["swing_mv"] = args.fault_swing
        return SwingFaults(**kwargs)
    if name == "links":
        if args.fault_links is None and args.fault_routers is None:
            raise ValueError(
                "--faults links needs --fault-links and/or --fault-routers"
            )
        return LinkFaults(
            links=args.fault_links or (),
            routers=args.fault_routers or (),
            rate=args.link_error_rate or 0.0,
        )
    kwargs = {}
    if args.fault_count is not None:
        kwargs["count"] = args.fault_count
    if args.fault_at is not None:
        kwargs["at"] = args.fault_at
    if args.link_error_rate is not None:
        kwargs["rate"] = args.link_error_rate
    return RandomFaults(**kwargs)


def _add_routing_args(parser):
    # choices= so a typo lists the valid names at the argparse layer
    # instead of surfacing as a KeyError from the registry downstream
    parser.add_argument(
        "--routing",
        choices=routing_names(),
        default="xy",
        help="unicast routing algorithm (default: xy; multicast trees "
        "always route xy — see DESIGN.md §5)",
    )


def _make_routing(args):
    """The RoutingAlgorithm selected by --routing (None = the XY
    default, so default cache keys stay byte-identical)."""
    if args.routing == "xy":
        return None
    from repro.noc.routing import make_routing

    return make_routing(args.routing)


def _make_traffic_pattern(args):
    """The DestinationPattern selected by the CLI flags (None = uniform)."""
    if args.pattern == "hotspot":
        if args.hotspot is None:
            raise ValueError(
                "--pattern hotspot needs --hotspot N1,N2,... to name "
                "the hot nodes"
            )
        from repro.traffic.patterns import HotspotPattern

        fraction = 0.5 if args.hotspot_fraction is None else args.hotspot_fraction
        return HotspotPattern(args.hotspot, fraction)
    if args.hotspot is not None or args.hotspot_fraction is not None:
        raise ValueError(
            f"--hotspot/--hotspot-fraction only apply to --pattern hotspot, "
            f"not {args.pattern!r}"
        )
    if args.pattern == "uniform":
        return None
    from repro.traffic.patterns import make_pattern

    return make_pattern(args.pattern)


def _add_engine_args(parser):
    group = parser.add_argument_group("engine")
    group.add_argument(
        "--executor",
        choices=("serial", "process"),
        default="serial",
        help="execution strategy: in-process serial or a process pool "
        "(default: serial)",
    )
    group.add_argument(
        "--backend",
        choices=backend_names(),
        default="object",
        help="simulation backend (default: object, the oracle; 'array' "
        "is the vectorized numpy kernel — see the support matrix in "
        "repro.noc.array_backend)",
    )
    group.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="process-pool size (default: all cores)",
    )
    group.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        metavar="DIR",
        help=f"result cache location (default: {DEFAULT_CACHE_DIR})",
    )
    group.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every point; do not read or write the cache",
    )
    group.add_argument(
        "--telemetry",
        action="store_true",
        help="profile fresh runs and store run telemetry in .telemetry "
        "sidecars next to the cached results (results stay "
        "byte-identical; see DESIGN.md §7)",
    )


def _add_cycle_args(parser, defaults=True):
    group = parser.add_argument_group("measurement window")
    kw = dict(type=int, metavar="CYCLES")
    if defaults:
        group.add_argument("--warmup", default=DEFAULT_WARMUP, **kw)
        group.add_argument("--measure", default=DEFAULT_MEASURE, **kw)
        group.add_argument("--drain", default=DEFAULT_DRAIN, **kw)
    else:  # None = keep the driver's paper-methodology defaults
        group.add_argument("--warmup", default=None, **kw)
        group.add_argument("--measure", default=None, **kw)
        group.add_argument("--drain", default=None, **kw)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)


def _add_seeds_arg(parser):
    parser.add_argument(
        "--seeds",
        type=_positive_int,
        default=1,
        metavar="N",
        help="replica seeds per operating point (--seed plus N-1 "
        "strided follow-ons); results are reported as mean ± 95%% CI, "
        "and on --backend array the sweep's rates and replicas run as "
        "lanes of one batched kernel pass (default: 1)",
    )


def _add_verbosity_args(parser, root=False):
    # the flags are accepted both before and after the subcommand; the
    # subparser copies use SUPPRESS so an absent flag does not clobber
    # a value already parsed by the root parser
    default = 0 if root else argparse.SUPPRESS
    group = parser.add_argument_group("diagnostics")
    group.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=default,
        help="more diagnostics on stderr (DEBUG level)",
    )
    group.add_argument(
        "-q",
        "--quiet",
        action="count",
        default=default,
        help="fewer diagnostics on stderr (-q warnings only, -qq errors)",
    )


def _configure_logging(args):
    """Point the ``repro`` package logger at stderr per ``-v``/``-q``.

    Only the package logger is touched (never the root logger), and the
    handler is replaced on every invocation so back-to-back ``main()``
    calls — the test suite, or an embedding REPL — always log to the
    *current* ``sys.stderr``.
    """
    verbosity = getattr(args, "verbose", 0) - getattr(args, "quiet", 0)
    if verbosity > 0:
        level = logging.DEBUG
    elif verbosity == 0:
        level = logging.INFO
    elif verbosity == -1:
        level = logging.WARNING
    else:
        level = logging.ERROR
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("repro: %(levelname)s: %(message)s"))
    package = logging.getLogger("repro")
    package.handlers[:] = [handler]
    package.setLevel(level)


def _make_executor(args):
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    return Executor(
        backend=args.executor,
        workers=args.workers,
        cache=cache,
        telemetry=args.telemetry,
    )


def _log_engine_summary(executor):
    logger.info(
        "[engine] executor=%s executed=%d cache_hits=%d cache_misses=%d",
        executor.backend.name,
        executor.executed,
        executor.cache_hits,
        executor.cache_misses,
    )
    batch = executor.last_batch
    if batch is not None:
        logger.debug(
            "[engine] last batch: %d job(s) in %.2fs wall",
            batch["jobs"],
            batch["wall_seconds"],
        )


def _print_replica_aggregates(named_aggs, rates, seeds):
    """Mean ± 95% CI per rate, per series (the ``--seeds N`` output).

    ``named_aggs`` maps series name to per-rate aggregate dicts from
    :func:`repro.analysis.replicas.aggregate_replicas`.
    """
    print()
    print(f"replicas: {seeds} seeds per point; mean ± 95% CI")
    for name, aggs in named_aggs.items():
        print(f"  {name}:")
        print("        rate      latency (cyc)            Gb/s")
        for rate, agg in zip(rates, aggs):
            lat, thr = agg["avg_latency"], agg["throughput_gbps"]
            print(
                f"    {rate:>8g}  {lat['mean']:9.2f} ± {lat['ci95']:<7.2f}"
                f"  {thr['mean']:8.1f} ± {thr['ci95']:<6.1f}"
            )


def _print_sweep(points, title):
    latency = {
        name: [(p.injection_rate, p.avg_latency) for p in series]
        for name, series in points.items()
    }
    throughput = {
        name: [(p.injection_rate, p.throughput_gbps) for p in series]
        for name, series in points.items()
    }
    print(format_series(latency, "R (flits/node/cyc)", "latency (cyc)", title))
    print()
    print(format_series(throughput, "R", "Gb/s", title=f"{title}: delivered"))


# -------------------------------------------------------------- subcommands


def cmd_sweep(args):
    config = CONFIGS[args.config]()
    routing = _make_routing(args)
    if routing is not None:
        config = config.with_(routing=routing)
    mix = MIXES[args.mix]
    pattern = _make_traffic_pattern(args)
    injection = _make_injection(args)
    faults = _make_faults(args)
    rates = args.rates or default_rates(
        mix,
        config.num_nodes,
        points=args.points,
        headroom=args.headroom,
        pattern=pattern,
        routing=routing,
        injection=injection,
    )
    executor = _make_executor(args)
    kwargs = dict(
        name=args.config,
        executor=executor,
        backend=args.backend,
        seed=args.seed,
        warmup=args.warmup,
        measure=args.measure,
        drain=args.drain,
        pattern=pattern,
        injection=injection,
        faults=faults,
    )
    groups = None
    if args.seeds > 1:
        # the serial executor folds the rate x replica grid into one
        # batched array-kernel pass
        groups = run_sweep_replicated(config, mix, rates, args.seeds,
                                      **kwargs)
        points = [g[0] for g in groups]
    else:
        points = run_sweep(config, mix, rates, **kwargs)
    _print_sweep(
        {args.config: points},
        f"{args.config} / {mix.name} / {args.pattern} / {args.routing} / "
        f"{args.injection} / {args.faults} latency-throughput sweep",
    )
    if groups is not None:
        from repro.analysis.replicas import aggregate_replicas

        _print_replica_aggregates(
            {args.config: [aggregate_replicas(g) for g in groups]},
            rates,
            args.seeds,
        )
    if faults is not None:
        print()
        print("reliability (per rate):")
        for p in points:
            print(
                f"  R={p.injection_rate:<6g} delivered={p.delivered_fraction:6.1%} "
                f"dropped={p.dropped_flits} retransmissions={p.retransmissions} "
                f"stop={p.stop_reason}"
            )
    _log_engine_summary(executor)
    return 0


def _print_reliability(result):
    print(f"reliability (injection rate {result['injection_rate']:g})")
    print()
    print("delivered throughput vs dead links:")
    print("  faults  delivered   Gb/s    latency  dropped  retx  stop")
    for r in result["vs_faults"]:
        print(
            f"  {r['fault_count']:>6d}  {r['delivered_fraction']:8.1%}  "
            f"{r['delivered_throughput_gbps']:7.1f}  {r['avg_latency']:7.2f}  "
            f"{r['dropped_flits']:>7d}  {r['retransmissions']:>4d}  "
            f"{r['stop_reason']}"
        )
    print()
    print("delivered throughput vs link voltage swing:")
    print("  swing_mv  P(flit err)  delivered   Gb/s    latency  retx")
    for r in result["vs_swing"]:
        print(
            f"  {r['swing_mv']:>8g}  {r['flit_error_rate']:11.3e}  "
            f"{r['delivered_fraction']:8.1%}  "
            f"{r['delivered_throughput_gbps']:7.1f}  {r['avg_latency']:7.2f}  "
            f"{r['retransmissions']:>4d}"
        )


def cmd_figure(args):
    if args.name == "reliability":
        from repro.analysis.reliability import reliability_figure

        executor = _make_executor(args)
        if (
            args.faults != "none"
            or args.pattern != "uniform"
            or args.routing != "xy"
            or args.injection != "bernoulli"
            or args.backend != "object"
            or args.seeds != 1
        ):
            logger.warning(
                "the reliability figure fixes its own fault models and "
                "uniform-XY-Bernoulli workload on the object backend "
                "(faults are object-only); --faults/--pattern/--routing/"
                "--injection/--backend/--seeds are ignored (use "
                "--fault-counts/--fault-swings/--link-error-rate to "
                "shape the grids)"
            )
        kwargs = dict(seed=args.seed, executor=executor)
        if args.fault_counts is not None:
            kwargs["counts"] = args.fault_counts
        if args.fault_swings is not None:
            kwargs["swings_mv"] = args.fault_swings
        if args.link_error_rate is not None:
            kwargs["link_error_rate"] = args.link_error_rate
        if args.rates is not None:
            if len(args.rates) != 1:
                raise ValueError(
                    "the reliability figure runs its fault grids at one "
                    "injection rate; pass a single value to --rates"
                )
            kwargs["rate"] = args.rates[0]
        for attr in ("warmup", "measure", "drain"):
            if getattr(args, attr) is not None:
                kwargs[attr] = getattr(args, attr)
        result = reliability_figure(**kwargs)
        _print_reliability(result)
        _log_engine_summary(executor)
        return 0
    if args.name in SWEEP_FIGURES:
        if _make_faults(args) is not None:
            raise ValueError(
                "fault injection applies to 'repro sweep' and the "
                "reliability figure, not fig5/fig13"
            )
        executor = _make_executor(args)
        kwargs = dict(
            seed=args.seed,
            executor=executor,
            backend=args.backend,
            pattern=_make_traffic_pattern(args),
            routing=_make_routing(args),
            injection=_make_injection(args),
        )
        if args.seeds > 1:
            kwargs["seeds"] = args.seeds
        if args.rates is not None:
            kwargs["rates"] = args.rates
        for attr in ("warmup", "measure", "drain"):
            if getattr(args, attr) is not None:
                kwargs[attr] = getattr(args, attr)
        result = SWEEP_FIGURES[args.name](**kwargs)
        _print_sweep(
            {name: result[name] for name in ("proposed", "baseline")},
            f"{args.name} ({result['traffic']} traffic)",
        )
        summary = experiments.summarize_sweeps(result)
        print()
        for key, value in summary.items():
            shown = f"{value:.4g}" if isinstance(value, float) else value
            print(f"{key:32s}: {shown}")
        if "proposed_replicas" in result:
            _print_replica_aggregates(
                {
                    name: result[f"{name}_replicas"]
                    for name in ("proposed", "baseline")
                },
                result["rates"],
                result["seeds"],
            )
        _log_engine_summary(executor)
    else:
        engine_flags = (
            args.executor != "serial"
            or args.backend != "object"
            or args.workers is not None
            or args.no_cache
            or args.cache_dir != DEFAULT_CACHE_DIR
        )
        window_flags = (
            args.rates is not None
            or args.seeds != 1
            or args.warmup is not None
            or args.measure is not None
            or args.drain is not None
            or args.seed != DEFAULT_SEED
            or args.pattern != "uniform"
            or args.routing != "xy"
            or args.injection != "bernoulli"
            or args.hotspot is not None
            or args.hotspot_fraction is not None
            or args.burst_length is not None
            or args.on_rate is not None
            or args.mmp_levels is not None
            or args.mmp_dwells is not None
            or args.faults != "none"
            or args.link_error_rate is not None
            or args.fault_swing is not None
            or args.fault_links is not None
            or args.fault_routers is not None
            or args.fault_count is not None
            or args.fault_at is not None
            or args.fault_counts is not None
            or args.fault_swings is not None
        )
        if engine_flags or window_flags:
            logger.warning(
                "engine and measurement-window options only apply to %s; "
                "ignored for %s",
                "/".join(sorted(SWEEP_FIGURES) + ["reliability"]),
                args.name,
            )
        from pprint import pformat

        result = PLAIN_FIGURES[args.name]()
        print(pformat(result))
    return 0


def cmd_cache(args):
    cache = ResultCache(args.cache_dir)
    if args.action == "stats":
        info = cache.stats()
        print(
            f"{info['entries']} cached result(s), {info['bytes']} bytes "
            f"in {info['root']}"
        )
        print(
            f"{info['telemetry_sidecars']} telemetry sidecar(s), "
            f"{info['telemetry_bytes']} bytes"
        )
        if info["quarantined"]:
            print(f"{info['quarantined']} quarantined corrupt entr(y/ies)")
        life = info["lifetime"]
        print(
            f"lifetime counters: {life['hits']} hit(s), "
            f"{life['misses']} miss(es), {life['puts']} put(s)"
        )
    else:  # clear
        removed = cache.clear()
        print(f"removed {removed} cached result(s) from {cache.root}")
    return 0


def cmd_serve(args):
    try:
        from repro.service import create_app
    except ImportError as exc:  # flask absent: a clean message, not a trace
        raise ValueError(str(exc)) from None
    app = create_app(
        cache_root=args.cache_dir,
        workers=args.workers,
        executor=args.executor,
        backend=args.backend,
        exec_workers=args.exec_workers,
        telemetry=args.telemetry,
    )
    logger.info(
        "sweep service on http://%s:%d (cache %s, %d worker thread(s), "
        "%s executor, %s backend)",
        args.host, args.port, args.cache_dir, args.workers,
        args.executor, args.backend,
    )
    try:
        # threaded so a long-running simulation never blocks /healthz
        app.run(host=args.host, port=args.port, threaded=True)
    finally:
        app.extensions["repro"].shutdown()
    return 0


# ------------------------------------------------------- observed points


def _run_observed_point(args, trace):
    """Simulate one operating point with an Observer attached.

    Shared by ``repro trace`` (tracing + sampling) and ``repro stats``
    (sampling only); both also profile, so the run reports cycles/s.
    Returns ``(sim, observer, window_stats)``.
    """
    from repro.noc.simulator import Simulator
    from repro.obs import Observer
    from repro.traffic.generators import SyntheticTraffic

    config = CONFIGS[args.config]()
    routing = _make_routing(args)
    if routing is not None:
        config = config.with_(routing=routing)
    traffic = SyntheticTraffic(
        MIXES[args.mix],
        args.rate,
        seed=args.seed,
        pattern=_make_traffic_pattern(args),
        process=_make_injection(args),
    )
    sim = Simulator(config, traffic, name=args.config)
    obs = Observer(
        trace=trace,
        capacity=getattr(args, "ring", None) or 65_536,
        sample=args.sample_interval,
        profile=True,
    ).attach(sim)
    logger.info(
        "observed run: %s / %s / rate=%g / %d+%d+%d cycles",
        args.config, args.mix, args.rate,
        args.warmup, args.measure, args.drain,
    )
    stats = sim.run_experiment(
        warmup=args.warmup, measure=args.measure, drain=args.drain
    )
    obs.detach()
    profile = obs.profiler.report(
        obs.tracer.recorded if obs.tracer is not None else 0
    )
    logger.info(
        "simulated %d cycles in %.2fs (%.0f cycles/s), stop_reason=%s",
        profile["cycles"], profile["wall_seconds"],
        profile["cycles_per_second"], stats.stop_reason,
    )
    return sim, obs, stats


def _print_point_summary(stats):
    latency = (
        f"{stats.avg_latency:.1f}" if stats.avg_latency == stats.avg_latency
        else "n/a"
    )
    print(
        f"stop_reason={stats.stop_reason} messages={stats.messages_measured} "
        f"avg_latency={latency} "
        f"throughput={stats.throughput_flits_per_cycle:.4f} flits/cyc"
    )


def cmd_trace(args):
    from repro.obs.tracer import EVENT_KINDS

    sim, obs, stats = _run_observed_point(args, trace=True)
    tracer = obs.tracer
    _print_point_summary(stats)
    print(
        f"events: {tracer.recorded} recorded, {len(tracer)} buffered, "
        f"{tracer.dropped} dropped (ring capacity {tracer.capacity})"
    )
    counts = tracer.counts()
    for kind in EVENT_KINDS:
        if counts[kind]:
            print(f"  {kind:10s} {counts[kind]}")
    written = obs.export_chrome_trace(args.out)
    print(f"chrome trace: {args.out} ({written} trace events)")
    if args.events is not None:
        lines = obs.export_jsonl(args.events)
        print(f"event log: {args.events} ({lines} records)")
    print()
    print(obs.sampler.heatmap_text(sim.cfg.k))
    return 0


def cmd_stats(args):
    sim, obs, stats = _run_observed_point(args, trace=False)
    sampler = obs.sampler
    _print_point_summary(stats)
    summary = sampler.summary()
    print(
        f"samples={summary['samples']} (every {summary['interval']} cycles) "
        f"mean_active_routers={summary.get('mean_active_routers', 0):.2f} "
        f"peak_occupancy={summary.get('peak_occupancy', 0)} "
        f"peak_backlog={summary.get('peak_backlog', 0)}"
    )
    print()
    print(obs.sampler.heatmap_text(sim.cfg.k))
    print()
    print("hottest links (utilization, src -> dst):")
    for util, src, dst in sampler.hottest_links(args.top):
        print(f"  {util:6.1%}  {src} -> {dst}")
    if args.plot is not None:
        try:
            sampler.heatmap_figure(sim.cfg.k, args.plot)
        except RuntimeError as exc:
            raise ValueError(str(exc)) from None
        print(f"heatmap figure: {args.plot}")
    return 0


# ------------------------------------------------------------------ parser


def _add_point_args(parser):
    """Arguments selecting a single observed operating point (shared by
    ``repro trace`` and ``repro stats``)."""
    parser.add_argument("--config", choices=sorted(CONFIGS), default="proposed")
    parser.add_argument("--mix", choices=sorted(MIXES), default="mixed")
    parser.add_argument(
        "--rate",
        type=float,
        default=0.05,
        metavar="R",
        help="injection rate in flits/node/cycle (default: 0.05)",
    )
    _add_pattern_args(parser)
    _add_routing_args(parser)
    _add_injection_args(parser)
    _add_cycle_args(parser, defaults=True)
    parser.add_argument(
        "--sample-interval",
        type=_positive_int,
        default=64,
        metavar="CYCLES",
        help="metrics-sampling period (default: 64)",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel, cached experiment engine for the DAC'12 "
        "mesh-NoC reproduction.",
    )
    _add_verbosity_args(parser, root=True)
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser(
        "sweep", help="run a latency-throughput sweep for one design point"
    )
    sweep.add_argument("--config", choices=sorted(CONFIGS), default="proposed")
    sweep.add_argument("--mix", choices=sorted(MIXES), default="mixed")
    sweep.add_argument(
        "--rates",
        type=_parse_rates,
        default=None,
        metavar="R1,R2,...",
        help="explicit injection rates (default: an auto grid)",
    )
    sweep.add_argument(
        "--points",
        type=_positive_int,
        default=8,
        help="auto-grid size (default: 8)",
    )
    sweep.add_argument(
        "--headroom",
        type=float,
        default=1.15,
        help="auto-grid top as a multiple of the mix ceiling",
    )
    _add_pattern_args(sweep)
    _add_routing_args(sweep)
    _add_injection_args(sweep)
    _add_fault_args(sweep)
    _add_cycle_args(sweep, defaults=True)
    _add_seeds_arg(sweep)
    _add_engine_args(sweep)
    _add_verbosity_args(sweep)
    sweep.set_defaults(func=cmd_sweep)

    figure = sub.add_parser(
        "figure", help="regenerate one table or figure of the paper"
    )
    figure.add_argument(
        "name",
        choices=sorted(SWEEP_FIGURES) + ["reliability"] + sorted(PLAIN_FIGURES),
    )
    figure.add_argument(
        "--rates",
        type=_parse_rates,
        default=None,
        metavar="R1,R2,...",
        help="override the sweep grid (fig5/fig13; a single rate for "
        "reliability)",
    )
    figure.add_argument(
        "--fault-counts",
        type=lambda t: tuple(int(v) for v in _parse_floats(t, "count")),
        default=None,
        metavar="N1,N2,...",
        help="dead-link grid of the reliability figure "
        "(default: 0,1,2,4,8,12)",
    )
    figure.add_argument(
        "--fault-swings",
        type=_parse_floats,
        default=None,
        metavar="MV1,MV2,...",
        help="voltage-swing grid of the reliability figure in mV "
        "(default: 180,220,260,300,340)",
    )
    _add_pattern_args(figure)
    _add_routing_args(figure)
    _add_injection_args(figure)
    _add_fault_args(figure)
    _add_cycle_args(figure, defaults=False)
    _add_seeds_arg(figure)
    _add_engine_args(figure)
    _add_verbosity_args(figure)
    figure.set_defaults(func=cmd_figure)

    trace = sub.add_parser(
        "trace", help="trace one operating point and export a Chrome "
        "trace-event capture"
    )
    _add_point_args(trace)
    trace.add_argument(
        "--out",
        default="trace.json",
        metavar="PATH",
        help="Chrome trace-event output file (default: trace.json)",
    )
    trace.add_argument(
        "--events",
        default=None,
        metavar="PATH",
        help="also write the raw event records as JSON lines",
    )
    trace.add_argument(
        "--ring",
        type=_positive_int,
        default=None,
        metavar="N",
        help="trace ring-buffer capacity in events (default: 65536; "
        "oldest events drop first)",
    )
    _add_verbosity_args(trace)
    trace.set_defaults(func=cmd_trace)

    stats = sub.add_parser(
        "stats", help="sample one operating point and print congestion "
        "heatmaps and figures"
    )
    _add_point_args(stats)
    stats.add_argument(
        "--top",
        type=_positive_int,
        default=8,
        metavar="N",
        help="how many hottest links to list (default: 8)",
    )
    stats.add_argument(
        "--plot",
        default=None,
        metavar="PATH",
        help="save a matplotlib heatmap figure (requires matplotlib)",
    )
    _add_verbosity_args(stats)
    stats.set_defaults(func=cmd_stats)

    serve = sub.add_parser(
        "serve",
        help="serve the sweep API over the result cache "
        "(HTTP; requires flask)",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="listen address (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8080,
        help="listen port (default: 8080)",
    )
    serve.add_argument(
        "--workers",
        type=_positive_int,
        default=2,
        metavar="N",
        help="service worker threads draining the sweep queue "
        "(default: 2)",
    )
    serve.add_argument(
        "--executor",
        choices=("serial", "process"),
        default="serial",
        help="engine executor each worker thread runs jobs through "
        "(default: serial)",
    )
    serve.add_argument(
        "--exec-workers",
        type=_positive_int,
        default=None,
        metavar="N",
        help="process-pool size per worker thread (requires "
        "--executor process; default: all cores)",
    )
    serve.add_argument(
        "--backend",
        choices=backend_names(),
        default="object",
        help="simulation backend for queued jobs (default: object; an "
        "execution detail — results and content addresses are "
        "backend-independent)",
    )
    serve.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        metavar="DIR",
        help=f"result cache location (default: {DEFAULT_CACHE_DIR})",
    )
    serve.add_argument(
        "--telemetry",
        action="store_true",
        help="profile fresh runs and store .telemetry sidecars "
        "(results stay byte-identical)",
    )
    _add_verbosity_args(serve)
    serve.set_defaults(func=cmd_serve)

    cache = sub.add_parser("cache", help="inspect or clear the result cache")
    cache.add_argument("action", choices=("stats", "clear"))
    cache.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        metavar="DIR",
        help=f"result cache location (default: {DEFAULT_CACHE_DIR})",
    )
    _add_verbosity_args(cache)
    cache.set_defaults(func=cmd_cache)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    _configure_logging(args)
    try:
        return args.func(args)
    except ValueError as exc:  # domain validation (rates, workers, ...)
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout went to a pager/head that closed early; die quietly
        # like coreutils do (and keep the shutdown flush from crying)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE


if __name__ == "__main__":
    raise SystemExit(main())
