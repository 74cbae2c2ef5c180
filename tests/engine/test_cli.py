"""The ``python -m repro`` command line, exercised in-process."""

import json

import pytest

from repro.engine.cli import main

FAST_WINDOW = [
    "--warmup", "100", "--measure", "300", "--drain", "400",
]

FAST_POINT = [
    "--rate", "0.05", *FAST_WINDOW,
]


def run_cli(capsys, *argv):
    rc = main(list(argv))
    assert rc == 0
    return capsys.readouterr()


def test_sweep_prints_tables_and_counters(tmp_path, capsys):
    captured = run_cli(
        capsys,
        "sweep",
        "--config", "proposed",
        "--mix", "mixed",
        "--rates", "0.02,0.05",
        *FAST_WINDOW,
        "--cache-dir", str(tmp_path / "cache"),
    )
    assert "latency (cyc)" in captured.out
    assert "Gb/s" in captured.out
    # diagnostics go to stderr, keeping stdout parseable
    assert "executed=2" in captured.err and "cache_hits=0" in captured.err


def test_sweep_rerun_hits_cache(tmp_path, capsys):
    argv = [
        "sweep", "--rates", "0.02", *FAST_WINDOW,
        "--cache-dir", str(tmp_path / "cache"),
    ]
    run_cli(capsys, *argv)
    err = run_cli(capsys, *argv).err
    assert "executed=0" in err and "cache_hits=1" in err


def test_sweep_no_cache_leaves_no_files(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    run_cli(
        capsys,
        "sweep", "--rates", "0.02", *FAST_WINDOW,
        "--cache-dir", str(cache_dir), "--no-cache",
    )
    assert not cache_dir.exists()


def test_sweep_auto_grid_uses_points(tmp_path, capsys):
    captured = run_cli(
        capsys,
        "sweep", "--mix", "broadcast_only", "--points", "2",
        "--warmup", "50", "--measure", "150", "--drain", "200",
        "--cache-dir", str(tmp_path / "cache"),
    )
    assert "executed=2" in captured.err


def test_quiet_silences_engine_summary(tmp_path, capsys):
    captured = run_cli(
        capsys,
        "-q",
        "sweep", "--rates", "0.02", *FAST_WINDOW,
        "--cache-dir", str(tmp_path / "cache"),
    )
    assert "latency (cyc)" in captured.out  # data output is untouched
    assert "executed=" not in captured.err


def test_verbosity_flag_works_after_the_subcommand(tmp_path, capsys):
    captured = run_cli(
        capsys,
        "sweep", "--rates", "0.02", *FAST_WINDOW,
        "--cache-dir", str(tmp_path / "cache"), "-v",
    )
    assert "last batch" in captured.err  # DEBUG detail


def test_figure_fig5_process_executor(tmp_path, capsys):
    captured = run_cli(
        capsys,
        "figure", "fig5",
        "--rates", "0.02,0.05",
        *FAST_WINDOW,
        "--executor", "process", "--workers", "2",
        "--cache-dir", str(tmp_path / "cache"),
    )
    assert "fig5" in captured.out
    assert "low_load_latency_reduction" in captured.out
    assert "executor=process" in captured.err and "executed=4" in captured.err


def test_figure_table1_prints_rows(capsys):
    captured = run_cli(capsys, "figure", "table1")
    assert "broadcast_hops" in captured.out
    assert captured.err == ""


def test_figure_warns_when_engine_flags_ignored(capsys):
    assert main(["figure", "table1", "--executor", "process"]) == 0
    err = capsys.readouterr().err
    assert "ignored for table1" in err


def test_sweep_rejects_nonpositive_points(capsys):
    with pytest.raises(SystemExit):
        main(["sweep", "--points", "0"])
    assert "must be at least 1" in capsys.readouterr().err


def test_cache_stats_and_clear(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    run_cli(
        capsys,
        "sweep", "--rates", "0.02", *FAST_WINDOW, "--cache-dir", cache_dir,
    )
    out = run_cli(capsys, "cache", "stats", "--cache-dir", cache_dir).out
    assert "1 cached result(s)" in out
    assert "lifetime counters: 0 hit(s), 1 miss(es), 1 put(s)" in out
    out = run_cli(capsys, "cache", "clear", "--cache-dir", cache_dir).out
    assert "removed 1" in out
    out = run_cli(capsys, "cache", "stats", "--cache-dir", cache_dir).out
    assert "0 cached result(s)" in out
    assert "0 hit(s), 0 miss(es), 0 put(s)" in out


def test_sweep_telemetry_writes_sidecars(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    run_cli(
        capsys,
        "sweep", "--rates", "0.02", *FAST_WINDOW,
        "--cache-dir", cache_dir, "--telemetry",
    )
    out = run_cli(capsys, "cache", "stats", "--cache-dir", cache_dir).out
    assert "1 telemetry sidecar(s)" in out


def test_trace_exports_valid_chrome_trace(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    events_path = tmp_path / "events.jsonl"
    captured = run_cli(
        capsys,
        "trace", *FAST_POINT,
        "--out", str(trace_path), "--events", str(events_path),
    )
    assert "stop_reason=completed" in captured.out
    assert "link utilization" in captured.out
    data = json.loads(trace_path.read_text())
    assert data["traceEvents"]
    records = [
        json.loads(line) for line in events_path.read_text().splitlines()
    ]
    assert records and all("kind" in r for r in records)


def test_stats_prints_heatmap_and_hottest_links(capsys):
    captured = run_cli(
        capsys,
        "stats", *FAST_POINT, "--pattern", "transpose", "--top", "3",
    )
    assert "link utilization" in captured.out
    assert "hottest links" in captured.out
    assert "stop_reason=completed" in captured.out


def test_bad_rates_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["sweep", "--rates", "fast"])
    capsys.readouterr()


def test_domain_errors_exit_cleanly(capsys):
    # out-of-range rate and zero workers are domain errors, not crashes
    assert main(["sweep", "--rates", "1.5", "--no-cache"]) == 2
    err = capsys.readouterr().err
    assert "repro: error:" in err and "injection rate" in err
    assert (
        main(
            ["sweep", "--rates", "0.02", "--executor", "process",
             "--workers", "0", "--no-cache"]
        )
        == 2
    )
    assert "worker count" in capsys.readouterr().err


def test_dead_seeds_are_domain_errors(capsys):
    for seed in ("0", str(2**31 - 3)):
        assert main(["sweep", "--rates", "0.02", "--seed", seed,
                     "--no-cache"]) == 2
        err = capsys.readouterr().err
        assert "repro: error:" in err and "seed must be within" in err


def test_figure_fig10_default_grid(capsys):
    # the default grid ends at 400 mV, the LVDD rail itself
    captured = run_cli(capsys, "figure", "fig10")
    assert "swing_mv" in captured.out and "400" in captured.out


def test_serve_parser_wiring():
    # the serve subcommand parses its engine axes without needing (or
    # importing) flask; actually running the server is exercised by
    # tests/service/test_service.py through the app factory
    from repro.engine.cli import build_parser, cmd_serve

    args = build_parser().parse_args(
        ["serve", "--port", "9090", "--workers", "3",
         "--executor", "process", "--exec-workers", "2",
         "--backend", "array", "--cache-dir", "somewhere"]
    )
    assert args.func is cmd_serve
    assert args.host == "127.0.0.1"
    assert args.port == 9090
    assert args.workers == 3
    assert args.executor == "process"
    assert args.exec_workers == 2
    assert args.backend == "array"
    assert args.cache_dir == "somewhere"


def test_serve_rejects_bad_worker_counts(capsys):
    with pytest.raises(SystemExit):
        main(["serve", "--workers", "0"])
    capsys.readouterr()
