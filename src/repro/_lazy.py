"""Lazy package exports (PEP 562), shared by every package ``__init__``.

A package's public names are declared once, as a table from defining
module to the names it contributes; nothing is imported until a name is
first touched (``pkg.Name``, ``from pkg import Name``, ``from pkg
import *``), so ``import repro.noc.config`` costs the config module and
not the mesh, router, NIC and simulator beside it (DESIGN.md §2).
"""

from __future__ import annotations

import sys
from importlib import import_module


def lazy_exports(package, table, submodules=()):
    """``(__all__, __getattr__, __dir__)`` for the package named
    ``package``.

    ``table`` maps an absolute module path to the names re-exported
    from it; ``submodules`` names child modules that are public
    attributes in their own right (``repro.harness.experiments``).  A
    resolved name is stored in the package namespace, so only the first
    access pays the lookup.  Concurrent first accesses are safe: the
    import system serialises the module load, and every caller binds
    the one object the loaded module holds.
    """
    origin = {name: module for module, names in table.items() for name in names}
    origin.update((name, f"{package}.{name}") for name in submodules)
    namespace = vars(sys.modules[package])

    def __getattr__(name):
        if name not in origin:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        module = import_module(origin[name])
        value = module if name in submodules else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(namespace.keys() | origin.keys())

    return sorted(origin), __getattr__, __dir__
