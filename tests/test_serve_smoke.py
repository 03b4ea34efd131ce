"""The CI ``serve-smoke`` / ``monitor-smoke`` logic (``benchmarks/serve_smoke.py``).

A shrunken request file goes through ``repro.cli.main(["serve", ...])`` and
the same checkers CI runs; canned edits show each guard firing.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro import SpatialDatabase
from repro.cli import main

_SPEC = importlib.util.spec_from_file_location(
    "serve_smoke", Path(__file__).parent.parent / "benchmarks" / "serve_smoke.py"
)
serve_smoke = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(serve_smoke)


@pytest.fixture(scope="module")
def store(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("serve-smoke") / "db.soa"
    assert main(["dataset", "uniform", str(path), "--size", "5000", "--seed", "3"]) == 0
    return path


def serve(store: Path, requests: list[dict], capsys, *flags: str):
    """Run ``repro serve`` over ``requests``; return what CI would capture."""
    request_file = store.parent / "requests.jsonl"
    metrics_file = store.parent / "metrics.txt"
    request_file.write_text("".join(json.dumps(r) + "\n" for r in requests))
    capsys.readouterr()
    code = main(["serve", str(store), "--requests", str(request_file),
                 "--metrics-out", str(metrics_file), *flags])  # fmt: skip
    captured = capsys.readouterr()
    assert code == 0
    rows = [json.loads(line) for line in captured.out.splitlines()]
    return rows, captured.err, metrics_file.read_text()


def test_serve_smoke_passes_and_each_guard_fires(store, capsys):
    requests = serve_smoke.serve_requests(n=20)
    rows, err, metrics = serve(
        store, requests, capsys, "--max-batch", "16", "--window-ms", "5"
    )
    assert serve_smoke.check_serve(requests, rows, err, metrics) == []
    assert serve_smoke.check_serve(requests, rows[1:], err, metrics)
    failed = [{**rows[0], "status": "failed"}, *rows[1:]]
    assert serve_smoke.check_serve(requests, failed, err, metrics)
    assert serve_smoke.check_serve(requests, rows, "", metrics)
    assert len(serve_smoke.check_serve(requests, rows, err, "")) == 2


def test_monitor_smoke_passes_and_each_guard_fires(store, capsys):
    requests = serve_smoke.monitor_storm(n_subs=8, n_ticks=2)
    rows, err, metrics = serve(store, requests, capsys, "--integrator", "cascade")
    database = SpatialDatabase.load(store)
    assert serve_smoke.check_monitor(requests, rows, err, metrics, database) == []

    degraded = next(r for r in rows if r.get("outcome") == "degraded")

    def edited(row_id, **fields):
        return [{**r, **fields} if r["id"] == row_id else r for r in rows]

    def problems(changed_rows, stderr=err):
        return serve_smoke.check_monitor(
            requests, changed_rows, stderr, metrics, database
        )

    assert problems(rows[:-1])
    assert problems(rows, stderr="")
    # The object farthest from the degraded query cannot qualify.
    center = next(r for r in requests if r["id"] == degraded["id"])["center"]
    distances = np.linalg.norm(np.asarray(database.points) - center, axis=1)
    far = int(np.asarray(database.ids)[np.argmax(distances)])
    assert any(
        "does not qualify" in p
        for p in problems(edited(degraded["id"], ids=[far], bounds=[]))
    )
    assert any(
        "unsound interval" in p
        for p in problems(edited(degraded["id"], bounds=[[far, 0.39, 0.41]]))
    )
    note = f"note-{degraded['subscription_id']}"
    assert any("stale" in p for p in problems(edited(note, stale=False)))
