#!/usr/bin/env python3
"""End-to-end benchmark: request-to-result wall time on five workloads.

    python benchmarks/e2e/run.py [--workload W ...] [--seed N]
        [--seconds S] [--trace [0|1]] [--repeat R] [--out FILE]
    python benchmarks/e2e/run.py compare A.json B.json
    python benchmarks/e2e/run.py --smoke
    python benchmarks/e2e/run.py --update-expected   # only with a PR that says why

A single-process, single-client load generator.  Each workload runs in
its own child interpreter (``workloads.py``) with a pinned environment;
this file starts the children one after another, prints every metric of
``BENCHMARK.json`` by name with its unit, and ends with one JSON line
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``
for the last workload run.  End-to-end metrics are measured with
tracing off; ``--trace`` re-runs the workload under the span recorder
of ``trace.py`` and reports the per-layer metrics instead.

See README.md beside this file for the workloads, the metrics and what
each is predicted to move.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]

#: how often set-up is measured per untraced run (each in a fresh
#: interpreter; ``setup_s`` is the median)
SETUP_REPEATS = 3

#: the seed expected.json pins (workloads.DEFAULT_SEED; not imported —
#: this file must start without the program on its path)
DEFAULT_SEED = 1

_work_ids = itertools.count()


def load_spec():
    with open(REPO / "BENCHMARK.json") as fh:
        return json.load(fh)


def environment(seed):
    """What every output is stamped with."""

    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "absent"

    commit = "unknown"  # the driver's checkout is not a git repository
    if (REPO / ".git").exists():
        found = subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True,
        )
        if found.returncode == 0:
            commit = found.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "flask": version("flask"),
        "commit": commit,
        "seed": seed,
    }


def run_child(workload, seed, seconds, *flags):
    """One ``workloads.py`` child to completion; returns its result.

    The environment is pinned (hash seed, import path, one BLAS thread)
    and everything the child writes lands under ``.work/`` beside this
    file, which it removes again.
    """
    work = HERE / ".work" / f"{os.getpid()}-{next(_work_ids)}"
    work.mkdir(parents=True)
    env = dict(
        os.environ,
        PYTHONHASHSEED="0",
        PYTHONPATH=str(REPO / "src"),
        TMPDIR=str(work),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
    )
    cmd = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--work", str(work), *flags,
        "--spawned", repr(time.time()),
    ]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: child exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(spec, workload, seed, seconds, trace, scale="full", flags=()):
    """One run of one workload as a result record."""
    flags = ["--scale", scale, "--trace", str(int(trace)), *flags]
    setups = []
    if not trace and scale == "full":
        setups = [
            run_child(workload, seed, seconds, *flags, "--phase", "setup")
            ["setup_s"]
            for _ in range(SETUP_REPEATS - 1)
        ]
    result = run_child(workload, seed, seconds, *flags)
    values = dict(result["end_to_end"])
    values["setup_s"] = statistics.median(setups + [values["setup_s"]])
    units = {
        m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]
    }
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "errors": result["errors"],
        "samples": result["samples"],
        # a name BENCHMARK.json lacks gets no unit; check_names reports it
        "end_to_end": {
            name: {"value": value, "unit": units.get(name)}
            for name, value in values.items()
        },
    }
    if trace:
        record["per_layer"] = {
            name: {"value": value, "unit": units.get(name)}
            for name, value in sorted(result["per_layer"].items())
        }
    return record


def check_names(spec, record):
    """A record must carry exactly the metrics BENCHMARK.json names."""
    groups = ("end_to_end", "per_layer") if record["trace"] else ("end_to_end",)
    for group in groups:
        want = {m["name"] for m in spec[group]}
        if set(record[group]) != want:
            raise SystemExit(
                f"{record['workload']}: {group} metrics differ from "
                f"BENCHMARK.json: {sorted(want ^ set(record[group]))}"
            )


def show(record):
    kind = "traced" if record["trace"] else "untraced"
    print(f"== {record['workload']}  seed={record['seed']}  {kind}")
    for name, m in record["end_to_end"].items():
        note = ""
        if name in ("request_wall_s", "request_cpu_s"):
            note = f"   (lower quartile of {record['samples']} requests)"
        if record["trace"]:
            note += "   [untraced third of a traced run]"
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']}{note}")
    for name, m in record.get("per_layer", {}).items():
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']}")
    done = record["attempted"] - record["failed"]
    print(f"  operations: {done}/{record['attempted']} correct, "
          f"failed_fraction {record['failed'] / record['attempted']:.4g}")
    for error in record["errors"]:
        print(f"  FAILED: {error}")


def contract_line(record):
    """The last line of stdout: the four keys the driver reads."""
    metrics = record["per_layer"] if record["trace"] else record["end_to_end"]
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": metrics,
        }
    )


def append_runs(path, env, records):
    """Add ``records`` to the JSON document at ``path`` (created when
    absent), so repeated invocations accumulate runs for ``compare``."""
    path = Path(path)
    doc = {"env": env, "runs": []}
    if path.exists():
        with open(path) as fh:
            doc = json.load(fh)
    doc["runs"].extend(records)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


# ----------------------------------------------------------------- compare


def spread(values):
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(spec, path_a, path_b):
    """One row per workload x end-to-end metric, B against base A.

    Every run in a file counts, so keep traced runs (whose end-to-end
    numbers come from a third of the time) in files of their own.

    ``worse``: B's median is worse than A's by more than the metric's
    bound.  ``unresolved``: the run-to-run spread of either side is
    wider than the bound, unless every run of B reads better than every
    run of A.  Returns the process exit code: non-zero on any ``worse``
    row or a higher failed fraction.
    """
    docs = []
    for path in (path_a, path_b):
        with open(path) as fh:
            docs.append(json.load(fh))

    def values(doc, workload, metric):
        return [
            run["end_to_end"][metric]["value"]
            for run in doc["runs"]
            if run["workload"] == workload
        ]

    def failed_fraction(doc, workload):
        runs = [r for r in doc["runs"] if r["workload"] == workload]
        attempted = sum(r["attempted"] for r in runs)
        return sum(r["failed"] for r in runs) / attempted if attempted else 0.0

    code = 0
    print(f"base A = {path_a} ({docs[0]['env']['commit']}), "
          f"B = {path_b} ({docs[1]['env']['commit']})")
    print(f"{'workload':22s} {'metric':16s} {'A median':>12s} {'B median':>12s} "
          f"{'B/A':>7s} {'bound':>6s} {'spread A':>9s} {'spread B':>9s}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            a = values(docs[0], workload, metric["name"])
            b = values(docs[1], workload, metric["name"])
            if not a or not b:
                continue
            med_a, med_b = statistics.median(a), statistics.median(b)
            lower = metric["better"] == "lower"
            change = (med_b - med_a) / med_a * (1 if lower else -1)
            all_better = max(b) < min(a) if lower else min(b) > max(a)
            if change > metric["bound"]:
                verdict = "worse"
                code = 1
            elif max(spread(a), spread(b)) > metric["bound"] and not all_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{workload:22s} {metric['name']:16s} {med_a:12.5g} "
                  f"{med_b:12.5g} {med_b / med_a:7.3f} {metric['bound']:6.2f} "
                  f"{spread(a):9.3f} {spread(b):9.3f}  {verdict}")
        fa = failed_fraction(docs[0], workload)
        fb = failed_fraction(docs[1], workload)
        if fb > fa:
            print(f"{workload:22s} failed_fraction rose {fa:.4g} -> {fb:.4g}  "
                  f"worse")
            code = 1
    return code


# -------------------------------------------------------------------- main


def update_expected(names):
    """Regenerate the named workloads' pinned digests at the default
    seed, both scales; other workloads' pins are kept."""
    path = HERE / "expected.json"
    pins = {"seed": DEFAULT_SEED, "full": {}, "smoke": {}}
    if path.exists():
        with open(path) as fh:
            pins = json.load(fh)
    for scale in ("full", "smoke"):
        for name in names:
            result = run_child(name, DEFAULT_SEED, 0, "--scale", scale,
                               "--digests", "--no-pins")
            if result["failed"]:
                raise SystemExit(f"{name}: {result['errors']}")
            pins[scale][name] = result["digests"]
            print(f"{scale:6s} {name:22s} {len(result['digests'])} digests")
    with open(path, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            raise SystemExit("usage: run.py compare A.json B.json")
        return compare(spec, argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: all five")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="how long each run repeats its request")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=None,
                        choices=(0, 1),
                        help="default: 0, or 1 under --smoke")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload")
    parser.add_argument("--out", help="append the runs to this JSON file")
    parser.add_argument("--spans-out", metavar="PREFIX",
                        help="with --trace: write PREFIX.<workload>.jsonl "
                        "and .chrome.json")
    parser.add_argument("--expected", default=str(HERE / "expected.json"))
    parser.add_argument("--smoke", action="store_true",
                        help="every workload once at ~1/10 scale, traced")
    parser.add_argument("--update-expected", action="store_true")
    args = parser.parse_args(argv)
    chosen = args.workload or names
    if not (REPO / "src" / "repro").is_dir():
        raise SystemExit(f"no program to benchmark: {REPO / 'src' / 'repro'}")
    if args.update_expected:
        update_expected(chosen)
        return 0
    env = environment(args.seed)
    print("environment: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    records = []
    flags = ["--expected", args.expected]
    trace = args.smoke if args.trace is None else bool(args.trace)
    if args.smoke:
        # a check of shape, not a measurement: children run two abreast,
        # and the ladder (the same whatever the workload) is climbed once
        with ThreadPoolExecutor(max_workers=2) as pool:
            records = list(pool.map(
                lambda name: measure(
                    spec, name, args.seed, 0, trace, "smoke",
                    flags + ([] if name == chosen[0] else ["--no-ladder"]),
                ),
                chosen,
            ))
        if trace:
            for record in records[1:]:
                record["per_layer"] = {
                    **records[0]["per_layer"], **record["per_layer"]
                }
    else:
        for name, _ in itertools.product(chosen, range(args.repeat)):
            extra = list(flags)
            if trace and args.spans_out:
                extra += ["--spans-out", f"{args.spans_out}.{name}"]
            records.append(
                measure(spec, name, args.seed, args.seconds, trace, "full",
                        extra)
            )
    for record in records:
        check_names(spec, record)
        show(record)
    if args.out:
        append_runs(args.out, env, records)
    print(contract_line(records[-1]))
    return 0  # a failed operation is reported in the line, not the exit code


if __name__ == "__main__":
    raise SystemExit(main())
