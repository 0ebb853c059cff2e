"""Experiment harness: the table and series renderers the figures use.

Runs go through the declarative facade :mod:`repro.api`
(``Engine().run(QuerySpec, Workload, Deployment)``).
"""

from repro.harness.reporting import format_series, format_table

__all__ = [
    "format_series",
    "format_table",
]
