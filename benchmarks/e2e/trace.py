"""Span recorder of the end-to-end benchmark (installed only under ``--trace``).

Spans live in memory — name, start, end, parent, request id — and are
written out as JSONL (and Chrome trace-event JSON, in the shape of
:mod:`repro.obs.export`) when the run ends.  Nothing under ``src/`` is
edited: :func:`install` wraps the *public entry points* of each layer
(``repro.engine.cli.main``, ``JobSpec.run``, ``ResultCache.get``, ...)
and :meth:`Recorder.uninstall` puts the originals back.  A span's name
is ``<layer>.<function>`` with the layer spelled as the module path
under ``repro`` (``engine.cache.get``), so self time folds by layer
with one ``rpartition``.

Run as a script it is the traced twin of ``python -m repro``::

    python trace.py <spans.jsonl> <spawn-time> figure fig5 ...

which is how the CLI workloads get spans from inside their child
interpreters: interpreter start-up (spawn time to first line), the
``repro.engine.cli`` import and everything under ``cli.main``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import threading
import time
from contextlib import contextmanager

#: spans the harness itself opens around one timed request; their self
#: time is what the named layer spans failed to account for
REQUEST = "request"

#: the layers spans are named after (module paths under ``repro``)
LAYERS = (
    "engine.cli", "engine.jobspec", "engine.cache", "engine.executor",
    "harness", "noc.simulator", "noc.array_backend", "noc.metrics",
    "traffic", "service.blueprint", "service.schemas", "service.workers",
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "thread", "args")

    def __init__(self, name, parent, request):
        self.name = name
        self.parent = parent
        # a span without its own request id belongs to its parent's
        self.request = (
            request if request is not None or parent is None
            else parent.request
        )
        self.thread = threading.current_thread().name
        self.args = None
        self.start = self.end = 0.0


class Recorder:
    """In-memory span store with a per-thread stack of open spans.

    Times are ``time.time()`` seconds, so spans recorded by a child
    interpreter line up with the parent's without clock translation.

    A process forked while the recorder is installed (a pool worker)
    inherits the wrappers but not a way back into this memory, so its
    spans are appended to ``<spill>/worker-<pid>.jsonl`` as they close;
    pool workers are terminated, never asked to flush.
    """

    def __init__(self, spill=None):
        self.spans = []  # closed spans, in order of closing
        self._local = threading.local()
        self._patched = []
        self._pid = os.getpid()
        self._spill = spill

    def current(self):
        """The innermost open span of the calling thread, or None."""
        return getattr(self._local, "top", None)

    @contextmanager
    def span(self, name, request=None):
        parent = self.current()
        span = Span(name, parent, request)
        self._local.top = span
        span.start = time.time()
        try:
            yield span
        finally:
            span.end = time.time()
            self._local.top = parent
            if os.getpid() == self._pid:
                self.spans.append(span)  # list.append is atomic under the GIL
            elif self._spill is not None:
                worker = f"worker-{os.getpid()}"
                record = _record(span, None)
                record["thread"] = worker
                with open(os.path.join(self._spill, worker + ".jsonl"), "a") as fh:
                    fh.write(json.dumps(record) + "\n")

    def add(self, name, start, end, request=None):
        """Record an interval measured elsewhere (e.g. process start-up)."""
        span = Span(name, self.current(), request)
        span.start, span.end = start, end
        self.spans.append(span)

    # ----------------------------------------------------------- wrapping

    def _wrapped(self, fn, name, request, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rid = request(*args, **kwargs) if request is not None else None
            with self.span(name, rid) as span:
                result = fn(*args, **kwargs)
                if after is not None:
                    span.args = after(result, *args, **kwargs)
                return result

        return wrapper

    def patch(self, owner, attr, name, request=None, after=None):
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``owner`` is a class, a module or a dict; properties and
        classmethods are re-wrapped as what they were.  ``request``
        maps the call's arguments to a request id, ``after`` maps
        ``(result, *args)`` to a dict of counts kept on the span.
        """
        # vars(): the raw property/classmethod object, not what it binds to
        original = owner[attr] if isinstance(owner, dict) else vars(owner)[attr]
        if isinstance(original, property):
            new = property(self._wrapped(original.fget, name, request, after))
        elif isinstance(original, classmethod):
            new = classmethod(
                self._wrapped(original.__func__, name, request, after)
            )
        else:
            new = self._wrapped(original, name, request, after)
        self._patched.append((owner, attr, original))
        _assign(owner, attr, new)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            _assign(owner, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------- export

    def records(self):
        """The spans as JSON-safe dicts; ``parent`` is an index or None."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        # a parent still open when the records are taken (the script's
        # own top level) is simply not in the list
        return [_record(s, index.get(id(s.parent))) for s in self.spans]


def _assign(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


def _record(span, parent):
    record = {
        "name": span.name,
        "start": span.start,
        "end": span.end,
        "parent": parent,
        "request": span.request,
        "thread": span.thread,
    }
    if span.args:
        record["args"] = span.args
    return record


def write_jsonl(records, path):
    """One span per line."""
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True))
            fh.write("\n")


def read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def graft(records, children, parent):
    """Append a child interpreter's ``children`` records under
    ``records[parent]`` (their roots become its children)."""
    base = len(records)
    for child in children:
        child = dict(child)
        child["parent"] = (
            parent if child["parent"] is None else child["parent"] + base
        )
        records.append(child)


def chrome_trace(records):
    """Chrome trace-event JSON (``chrome://tracing`` / Perfetto), the
    same ``{"traceEvents": [...]}`` shape :mod:`repro.obs.export`
    writes: one complete ``"X"`` slice per span, one track per thread,
    microsecond timestamps from the first span's start."""
    if not records:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    origin = min(r["start"] for r in records)
    tids = {}
    events = []
    for r in records:
        tid = tids.setdefault(r["thread"], len(tids))
        args = dict(r.get("args") or {})
        if r["request"] is not None:
            args["request"] = r["request"]
        events.append(
            {
                "ph": "X",
                "name": r["name"],
                "cat": layer_of(r["name"]),
                "ts": (r["start"] - origin) * 1e6,
                "dur": (r["end"] - r["start"]) * 1e6,
                "pid": 0,
                "tid": tid,
                "args": args,
            }
        )
    for thread, tid in tids.items():
        events.append(
            {"ph": "M", "name": "thread_name", "pid": 0, "tid": tid,
             "args": {"name": thread}}
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# --------------------------------------------------------------- analysis


def layer_of(name):
    return name.rpartition(".")[0] or name


def self_times(records):
    """Per-span self time: duration minus what direct children cover."""
    out = [r["end"] - r["start"] for r in records]
    for r in records:
        if r["parent"] is not None:
            out[r["parent"]] -= r["end"] - r["start"]
    return out


def layer_shares(records):
    """``(shares, accounted)``: each layer's self time as a share of the
    total duration of the ``request`` spans, and the share all named
    layers cover together.  Only spans under a request span count (the
    main thread's; worker-thread spans overlap the client's waiting and
    would double-book the wall)."""
    selfs = self_times(records)
    wall = sum(
        r["end"] - r["start"] for r in records if r["name"] == REQUEST
    )
    under = [False] * len(records)
    for i in range(len(records)):
        j = i
        while j is not None and records[j]["name"] != REQUEST:
            j = records[j]["parent"]
        under[i] = j is not None
    by_layer = {}
    for r, own, inside in zip(records, selfs, under):
        if inside and r["name"] != REQUEST:
            layer = layer_of(r["name"])
            by_layer[layer] = by_layer.get(layer, 0.0) + own
    if wall <= 0:
        return {}, 0.0
    shares = {layer: t / wall for layer, t in by_layer.items()}
    return shares, sum(shares.values())


# ---------------------------------------------------------------- install


def install(rec, array=False, service=False):
    """Wrap the public entry points of each layer with ``rec`` spans.

    ``array`` and ``service`` gate the wrappers whose modules pull in
    numpy and Flask: an object-backend CLI run must not pay an import
    under tracing that it does not pay without.
    """
    from repro.engine import cache, cli, executor, jobspec
    from repro.harness import experiments, sweep
    from repro.noc import metrics, simulator
    from repro.traffic import generators

    key_of = vars(jobspec.JobSpec)["cache_key"].fget  # the unwrapped hash

    def job_key(job, *args, **kwargs):
        return key_of(job)

    def second_arg_key(_self, job, *args, **kwargs):
        return key_of(job)

    def sim_cycles(_result, sim, *args, **kwargs):
        # a batched array run advances every replica lane each cycle
        lanes = len(getattr(sim, "seeds", None) or (0,))
        return {"cycles": sim.cycle, "lanes": lanes}

    rec.patch(cli, "main", "engine.cli.main")
    rec.patch(cli, "build_parser", "engine.cli.build_parser")
    # the parser is built per call, so parse_args is wrapped on the class
    rec.patch(argparse.ArgumentParser, "parse_args", "engine.cli.parse_args")
    for name in ("fig5", "fig13"):
        rec.patch(cli.SWEEP_FIGURES, name, f"harness.{name}")
    rec.patch(experiments, "summarize_sweeps", "harness.summarize_sweeps")
    for name in ("run_sweep", "run_sweep_replicated"):
        rec.patch(sweep, name, f"harness.{name}")
    rec.patch(jobspec.JobSpec, "run", "engine.jobspec.run", job_key)
    rec.patch(jobspec.JobSpec, "run_batch", "engine.jobspec.run_batch", job_key)
    rec.patch(jobspec.JobSpec, "cache_key", "engine.jobspec.cache_key")
    rec.patch(cache.ResultCache, "get", "engine.cache.get", second_arg_key)
    rec.patch(cache.ResultCache, "put", "engine.cache.put", second_arg_key)
    rec.patch(cache.ResultCache, "flush_counters", "engine.cache.flush_counters")
    rec.patch(executor.Executor, "run", "engine.executor.run")
    rec.patch(metrics.WindowStats, "to_dict", "noc.metrics.to_dict")
    rec.patch(metrics.WindowStats, "from_dict", "noc.metrics.from_dict")
    rec.patch(generators.SyntheticTraffic, "bind", "traffic.bind")
    rec.patch(simulator.Simulator, "__init__", "noc.simulator.build")
    rec.patch(simulator.Simulator, "run_experiment",
              "noc.simulator.run_experiment", after=sim_cycles)
    if array:
        from repro.noc.array_backend import ArraySimulator

        rec.patch(ArraySimulator, "__init__", "noc.array_backend.build")
        for name in ("run_experiment", "run_experiment_batch"):
            rec.patch(ArraySimulator, name, f"noc.array_backend.{name}",
                      after=sim_cycles)
    if service:
        from repro.service import schemas

        rec.patch(schemas, "parse_sweep_request",
                  "service.schemas.parse_sweep_request")


def main(argv):
    """The traced ``python -m repro``: see the module docstring."""
    entered = time.time()
    out, spawned, cli_argv = argv[0], float(argv[1]), argv[2:]
    rec = Recorder()
    rec.add("engine.cli.interp_start", spawned, entered)
    with rec.span("engine.cli.import") as span:
        from repro.engine import cli

        span.args = {"modules": len(sys.modules)}
    install(rec, array="array" in cli_argv)
    try:
        return cli.main(cli_argv)
    finally:
        write_jsonl(rec.records(), out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
