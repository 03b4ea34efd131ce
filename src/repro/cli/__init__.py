"""Command-line interface: ``python -m repro <command> ...``.

Commands, one module per family (each declares its flags next to its body):

:mod:`repro.cli.query`
    ``demo`` runs one query with every strategy combination on generated
    data; ``query`` runs one query, or a ``--batch`` JSON workload,
    against a saved database (a ``.soa`` store or a legacy ``.npz``) in
    any kind (``--kind prq|uncertain|mixture|knn``, ``docs/query_types.md``),
    optionally ``--shards N`` ways; ``explain`` prints the plan — strategy
    regions, BF radii and predicted Phase-3 candidates — without Phase 3.
:mod:`repro.cli.serve`
    ``serve`` answers a JSON-lines request stream through the embedded
    service, one response line per request (``docs/serving.md``);
    ``monitor`` drives a fleet of standing queries along random walks and
    reports the safe-region outcome mix (``docs/monitoring.md``); ``load``
    runs an open-loop scenario at one rate or a ``--sweep`` that writes the
    capacity report, optionally trend-gated (``docs/load.md``).
:mod:`repro.cli.tools`
    ``dataset`` writes a synthetic ``.soa`` store; ``catalog`` builds an
    r_θ or BF U-catalog; ``kernels`` shows the kernel backend per kernel;
    ``experiment`` prints one of the paper's tables (``all``: the full
    report); ``figures`` renders Figs. 13-17 and the road network as SVG;
    ``trace`` renders a ``--trace-out`` file as a span tree and summary.

``query``, ``serve`` and ``monitor`` take ``--trace-out FILE`` (JSON-lines
spans) and ``--metrics-out FILE`` (Prometheus-style text); neither changes
any answer (``docs/observability.md``).  Every bad input ends as one
``error: ...`` line on stderr and exit status 2.
"""

from __future__ import annotations

import argparse

from repro import __version__
from repro.cli import query, serve, tools  # noqa: F401  (registers the verbs)
from repro.cli.common import add_verbs, run
from repro.cli.serve import _monitor_row  # noqa: F401  (repro serve's row helper)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Probabilistic spatial range queries for Gaussian-based "
        "imprecise query objects (ICDE 2009 reproduction)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    add_verbs(parser.add_subparsers(dest="command", required=True))
    return parser


def main(argv: list[str] | None = None) -> int:
    return run(build_parser().parse_args(argv))
