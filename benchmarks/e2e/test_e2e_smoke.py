"""Tier-1 smoke test of the end-to-end benchmark harness.

Runs ``run.py --smoke`` once (every workload at ~1/10 scale, traced,
the layer ladder climbed once) and checks the *shape* of what comes
out — no timing is asserted, so the test is as steady as the suite.
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
RUN = [sys.executable, str(HERE / "run.py")]

with open(HERE.parents[1] / "BENCHMARK.json") as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
METRICS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def run(*args):
    return subprocess.run(
        RUN + list(args), capture_output=True, text=True, timeout=600
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    proc = run("--smoke", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    with open(out) as fh:
        return proc.stdout, out, json.load(fh)


def test_every_workload_prints_every_metric_once(smoke):
    stdout, _, _ = smoke
    sections = re.split(r"^== ", stdout, flags=re.M)[1:]
    assert [s.split()[0] for s in sections] == WORKLOADS
    for section in sections:
        printed = [
            line.split()[0] for line in section.splitlines()[1:]
            if line.startswith("  ") and line.split()[0] in METRICS
        ]
        assert sorted(printed) == sorted(METRICS), section.split()[0]


def test_metrics_are_named_united_and_finite(smoke):
    _, _, doc = smoke
    assert {"nproc", "python", "numpy", "flask", "commit", "seed"} <= set(doc["env"])
    assert [r["workload"] for r in doc["runs"]] == WORKLOADS
    for record in doc["runs"]:
        assert record["correct"] and record["failed"] == 0, record["errors"]
        emitted = {**record["end_to_end"], **record["per_layer"]}
        assert set(emitted) == set(METRICS)
        for name, metric in emitted.items():
            assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)
            assert metric["unit"] == METRICS[name]
            assert math.isfinite(metric["value"]), name
        for name in SPEC["end_to_end"]:
            assert record["end_to_end"][name["name"]]["value"] > 0


def test_last_line_is_the_contract_object(smoke):
    stdout, _, _ = smoke
    line = json.loads(stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_compare_of_a_file_with_itself_is_all_ok(smoke):
    _, out, _ = smoke
    proc = run("compare", str(out), str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    verdicts = [line.split()[-1] for line in proc.stdout.splitlines()[2:]]
    assert len(verdicts) == len(WORKLOADS) * len(SPEC["end_to_end"])
    assert set(verdicts) == {"ok"}


def test_a_corrupted_digest_counts_as_a_failure(tmp_path):
    with open(HERE / "expected.json") as fh:
        pins = json.load(fh)
    for key in pins["smoke"]["fig5_cold_object"]:
        pins["smoke"]["fig5_cold_object"][key] = "0" * 64
    bad = tmp_path / "expected.json"
    bad.write_text(json.dumps(pins))
    proc = run("--smoke", "--trace", "0", "--workload", "fig5_cold_object",
               "--expected", str(bad))
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    # one request ran: each of its 16 points has the wrong digest
    assert line["correct"] is False and line["failed"] == 16
    assert "digest differs from the pinned one" in proc.stdout
