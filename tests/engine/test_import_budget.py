"""Imports follow use (DESIGN.md §2): start-up budget and lazy surface.

The budget cases run ``python -m repro`` in a child interpreter — this
process has long since imported everything, so only a fresh one can
say what a command loads — through a probe that hands back
``sys.modules`` once the command is done.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

TINY_WINDOW = ["--warmup", "10", "--measure", "30", "--drain", "30"]

#: ``python -m repro <argv>`` with the module table reported on the
#: last stdout line; ``BLOCK`` names modules whose import must fail
PROBE = """
import json, os, runpy, sys
for name in os.environ.get("BLOCK", "").split():
    sys.modules[name] = None  # `import name` now raises ImportError
code = 0
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print("MODULES", json.dumps(sorted(n for n, m in sys.modules.items() if m)))
sys.exit(code)
"""


def run_repro(*argv, block=""):
    """Run the CLI in a child; returns ``(CompletedProcess, modules)``."""
    env = dict(os.environ, PYTHONPATH=SRC, BLOCK=block)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    modules = None
    last = proc.stdout.rstrip().rpartition("\n")[2]
    if last.startswith("MODULES "):
        modules = set(json.loads(last[len("MODULES "):]))
    return proc, modules


def run_python(code):
    """Run ``code`` in a child interpreter; returns its stdout."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# ------------------------------------------------------------ the budget

#: what a fully cached re-plot has no use for
NOT_ON_A_REPLAY = (
    "numpy",
    "repro.noc.faults",
    "repro.noc.simulator",
    "repro.noc.mesh",
    "repro.noc.router",
    "repro.circuits",
    "repro.power",
    "repro.physical",
    "repro.obs",
    "repro.service",
    "flask",
    "multiprocessing",
)


def test_cached_replay_stays_inside_the_import_budget(tmp_path):
    argv = [
        "figure", "fig5", "--rates", "0.02,0.05", *TINY_WINDOW,
        "--cache-dir", str(tmp_path / "cache"),
    ]
    cold, _ = run_repro(*argv)
    assert cold.returncode == 0, cold.stderr
    assert "executed=4 cache_hits=0" in cold.stderr
    replay, modules = run_repro(*argv)
    assert replay.returncode == 0, replay.stderr
    assert "executed=0 cache_hits=4" in replay.stderr
    # the figure itself is unchanged by where the imports sit
    assert replay.stdout.rpartition("MODULES")[0] == \
        cold.stdout.rpartition("MODULES")[0]
    loaded = [name for name in NOT_ON_A_REPLAY if name in modules]
    assert loaded == []
    assert len(modules) <= 150, sorted(modules)


def test_cold_object_figure_runs_without_numpy(tmp_path):
    proc, modules = run_repro(
        "figure", "fig5", "--rates", "0.02", *TINY_WINDOW,
        "--cache-dir", str(tmp_path / "cache"), block="numpy",
    )
    assert proc.returncode == 0, proc.stderr
    assert "executed=2" in proc.stderr
    assert "repro.noc.simulator" in modules and "numpy" not in modules


def test_array_backend_still_loads_numpy(tmp_path):
    """Positive control for the two cases above: the module probe sees
    numpy when a command uses it, and the block bites when it does."""
    argv = [
        "sweep", "--rates", "0.05", "--backend", "array", *TINY_WINDOW,
        "--cache-dir", str(tmp_path / "cache"),
    ]
    blocked, _ = run_repro(*argv, block="numpy")
    assert blocked.returncode != 0 and "numpy" in blocked.stderr
    proc, modules = run_repro(*argv)
    assert proc.returncode == 0, proc.stderr
    assert "numpy" in modules and "repro.noc.array_backend" in modules


def test_fault_free_from_dict_leaves_the_fault_stack_unloaded():
    out = run_python(
        "import json, sys\n"
        "from repro.core.presets import proposed_network\n"
        "from repro.engine.jobspec import JobSpec\n"
        "from repro.traffic.mix import UNIFORM_UNICAST\n"
        "job = JobSpec(proposed_network(), UNIFORM_UNICAST, 0.05)\n"
        "again = JobSpec.from_dict(json.loads(json.dumps(job.to_payload())))\n"
        "assert again == job and again.cache_key == job.cache_key\n"
        "print('repro.noc.faults' in sys.modules)\n"
        "payload = dict(job.to_dict(), faults={'name': 'biterror', 'rate': 0.01})\n"
        "faulted = JobSpec.from_dict(payload)\n"
        "assert JobSpec.from_dict(faulted.to_dict()) == faulted\n"
        "assert faulted.faults.rate == 0.01\n"
        "print('repro.noc.faults' in sys.modules)\n"
    )
    assert out.split() == ["False", "True"]


def test_pool_workers_are_preloaded_before_the_fork():
    """The engine imports stop at the value types, so the pool backend
    loads the simulator stack itself *before* ``Pool(...)``: forked
    workers inherit it instead of importing it once each per pool."""
    out = run_python(
        "import sys\n"
        "from repro.core.presets import proposed_network\n"
        "from repro.engine.executor import Executor\n"
        "from repro.engine.jobspec import JobSpec\n"
        "from repro.traffic.mix import UNIFORM_UNICAST\n"
        "stack = ('repro.noc.simulator', 'repro.traffic.generators')\n"
        "print([m in sys.modules for m in (*stack, 'multiprocessing')])\n"
        "import multiprocessing\n"
        "real, at_fork = multiprocessing.Pool, []\n"
        "def spy(*args, **kwargs):\n"
        "    at_fork.append([m in sys.modules for m in stack])\n"
        "    return real(*args, **kwargs)\n"
        "multiprocessing.Pool = spy\n"
        "job = JobSpec(proposed_network(), UNIFORM_UNICAST, 0.05,\n"
        "              warmup=10, measure=30, drain=30)\n"
        "stats, = Executor('process', workers=1).run([job])\n"
        "print(at_fork, stats.stop_reason)\n"
    )
    assert out.splitlines() == [
        "[False, False, False]", "[[True, True]] completed",
    ]


def test_fault_choices_match_the_registry():
    """``--faults`` lists its names without importing repro.noc.faults
    (the budget above); they must still be the registry's."""
    from repro.engine.cli import FAULT_FLAGS
    from repro.noc.faults import fault_names

    assert tuple(FAULT_FLAGS) == ("none", *fault_names())


# ------------------------------------------------------- the lazy surface

PACKAGES = [
    "repro", "repro.analysis", "repro.circuits", "repro.core",
    "repro.engine", "repro.harness", "repro.noc", "repro.obs",
    "repro.physical", "repro.power", "repro.traffic",
]


def _direct(package, name, value):
    """``name`` fetched straight from the submodule that defines it,
    found without consulting the export table under test."""
    if isinstance(value, types.ModuleType):  # a submodule exported as itself
        return importlib.import_module(f"{package.__name__}.{name}")
    home = getattr(value, "__module__", None)
    if home is not None:  # classes, functions, dataclass instances
        return getattr(importlib.import_module(home), name)
    for info in pkgutil.iter_modules(package.__path__):  # plain constants
        module = importlib.import_module(f"{package.__name__}.{info.name}")
        if name in vars(module):
            return vars(module)[name]
    raise AssertionError(f"{package.__name__}.{name} is defined nowhere")


@pytest.mark.parametrize("package_name", PACKAGES)
def test_lazy_exports_are_the_submodule_objects(package_name):
    package = importlib.import_module(package_name)
    assert package.__all__ and set(package.__all__) <= set(dir(package))
    starred = {}
    exec(f"from {package_name} import *", starred)
    for name in package.__all__:
        value = getattr(package, name)
        assert starred[name] is value
        if name != "__version__":
            assert _direct(package, name, value) is value, name
    with pytest.raises(AttributeError, match=package_name.replace(".", r"\.")):
        package.no_such_export


def test_import_repro_loads_no_subpackage():
    out = run_python(
        "import sys, repro\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.')))\n"
    )
    assert out.strip() == "['repro._lazy']"


def test_concurrent_first_access_binds_one_object():
    """The service resolves lazy names from its worker and request
    threads at once; every thread must get the object the submodule
    holds, never a half-initialised module's."""
    out = run_python(
        "import sys, threading\n"
        "import repro.noc\n"
        "sys.setswitchinterval(1e-6)\n"
        "threads, got, errors = 8, [], []\n"
        "barrier = threading.Barrier(threads)\n"
        "def resolve():\n"
        "    barrier.wait(10)\n"
        "    try:\n"
        "        got.append(repro.noc.Simulator)\n"
        "    except BaseException as exc:\n"
        "        errors.append(repr(exc))\n"
        "pool = [threading.Thread(target=resolve) for _ in range(threads)]\n"
        "for t in pool: t.start()\n"
        "for t in pool: t.join(30)\n"
        "assert not any(t.is_alive() for t in pool)\n"
        "from repro.noc.simulator import Simulator\n"
        "print(errors, len(got), all(g is Simulator for g in got))\n"
    )
    assert out.strip() == "[] 8 True"
