"""Packaging for the DAC'12 mesh-NoC reproduction.

All metadata lives here (there is intentionally no pyproject.toml: the
execution environment has no network access and no `wheel` package, so
PEP-517 editable installs fail with `invalid command 'bdist_wheel'`).
This shim lets `pip install -e . --no-build-isolation --no-use-pep517`
(and plain `python setup.py develop`) work offline, and registers the
`repro` console script; without installing, the same CLI is available
as `PYTHONPATH=src python -m repro`.
"""

import os
import re

from setuptools import find_packages, setup


def read_version():
    init = os.path.join(os.path.dirname(__file__), "src", "repro", "__init__.py")
    with open(init) as fh:
        return re.search(r'__version__ = "([^"]+)"', fh.read()).group(1)


setup(
    name="repro-noc-dac12",
    version=read_version(),
    description=(
        "Reproduction of Park et al., 'Approaching the Theoretical Limits "
        "of a Mesh NoC with a 16-Node Chip Prototype in 45nm SOI' (DAC 2012)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    # numpy is a real runtime dependency: the circuit models
    # (circuits/eye.py, circuits/sense_amp.py — fig10/fig12) and the
    # array simulation backend (repro.noc.array_backend) are built on
    # it.  It loads only when one of those is used (DESIGN.md §2), but
    # it stays declared — see the packaging note in README.md.
    install_requires=["numpy"],
    extras_require={
        # the HTTP sweep service (repro.service, `repro serve`); the
        # engine and CLI below it are fully usable without it
        "service": ["flask"],
    },
    entry_points={
        "console_scripts": [
            "repro = repro.engine.cli:main",
        ],
    },
)
