"""Capacity reports: the artifact one saturation sweep writes.

A :class:`CapacityReport` is the machine-readable result of one
saturation sweep (``BENCH_capacity.json`` at the repo root): the
scenario, the database and service it ran against, the per-step rows,
and the knee/capacity analysis.  Every step ran on the wall clock, so
the figures belong to the engine and the machine that produced them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

__all__ = ["CapacityReport"]

_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class CapacityReport:
    """One sweep's full result set (see module docstring).

    ``steps`` are :meth:`~repro.load.runner.RunReport.to_dict` rows in
    ascending offered-rate order; ``knee`` is the
    :func:`~repro.load.sweep.detect_knee` analysis block.
    """

    scenario: dict
    duration_seconds: float
    database: dict
    service: dict
    steps: list[dict]
    knee: dict
    schema_version: int = _SCHEMA_VERSION

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "scenario": dict(self.scenario),
            "duration_seconds": self.duration_seconds,
            "database": dict(self.database),
            "service": dict(self.service),
            "steps": [dict(step) for step in self.steps],
            "knee": dict(self.knee),
        }

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, 2-space indent, trailing newline."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def write(self, path) -> Path:
        """Write the canonical JSON to ``path`` and return it."""
        target = Path(path)
        target.write_text(self.to_json())
        return target
