"""The CI ``serve-smoke`` / ``monitor-smoke`` / ``query-kinds-smoke`` logic
(``benchmarks/serve_smoke.py``).

A shrunken run (fewer requests; for the kinds workload the CI request file
against the shrunken store) goes through ``repro.cli.main(["serve", ...])``
and the same checkers CI runs; canned edits show each guard firing.
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


def test_kinds_smoke_passes_and_each_guard_fires(store, capsys):
    batch_file = store.parent / "kinds-batch.json"
    request_file = store.parent / "kinds-requests.jsonl"
    response_file = store.parent / "kinds-responses.jsonl"
    generate = ["generate", "kinds", str(batch_file), str(request_file)]
    assert serve_smoke.main(generate) == 0
    specs = json.loads(batch_file.read_text())
    assert specs == serve_smoke.kinds_specs()
    assert [s["kind"] for s in specs[:4]] == list(serve_smoke.KINDS)
    requests = [json.loads(line) for line in request_file.read_text().splitlines()]
    assert requests == [dict(spec, id=i) for i, spec in enumerate(specs)]

    rows, _, _ = serve(
        store, requests, capsys, "--integrator", "cascade",
        "--target-sigma-scale", "40", "--max-batch", "8", "--window-ms", "5",
    )  # fmt: skip
    response_file.write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert serve_smoke.main(["check", "kinds", "--responses", str(response_file)]) == 0
    assert "kinds smoke OK: 12 responses" in capsys.readouterr().out

    def edited(keep, **fields):
        return [{**r, **fields} if keep(i) else r for i, r in enumerate(rows)]

    assert any("got 11" in p for p in serve_smoke.check_kinds(rows[:-1]))
    failed = serve_smoke.check_kinds(edited(lambda i: i == 0, status="failed"))
    assert "unhandled failure" in failed
    (problem,) = serve_smoke.check_kinds(edited(lambda i: i == 5, status="degraded"))
    assert "answered ok" in problem
    for offset, kind in enumerate(serve_smoke.KINDS):
        (problem,) = serve_smoke.check_kinds(edited(lambda i: i % 4 == offset, ids=[]))
        assert problem == f"every {kind} response empty"
    response_file.write_text(json.dumps({**rows[0], "status": "failed"}) + "\n")
    assert serve_smoke.main(["check", "kinds", "--responses", str(response_file)]) == 1
