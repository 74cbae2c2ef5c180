"""Experiment drivers that regenerate every table and figure."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.harness.sweep": ("run_point", "run_sweep", "run_sweep_batch"),
        "repro.harness.tables": ("format_series", "format_table"),
    },
    submodules=("experiments",),
)
