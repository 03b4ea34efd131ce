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


def test_shard_batch_generator_writes_the_ci_batch(tmp_path):
    """``generate shard-batch`` writes, byte for byte, what the inline CI
    script it replaced wrote (SHA-256 of that file recorded here)."""
    import hashlib

    batch_file = tmp_path / "shard-batch.json"
    assert serve_smoke.main(["generate", "shard-batch", str(batch_file)]) == 0
    assert hashlib.sha256(batch_file.read_bytes()).hexdigest() == (
        "dd3b381cc0df6bf7b16966665e5767d726d8cbde5662f6f83efce60a79ded965"
    )
    specs = json.loads(batch_file.read_text())
    assert specs == serve_smoke.shard_batch_specs()
    assert len(specs) == 12
    assert all(list(s) == ["center", "sigma_scale", "delta", "theta"] for s in specs)


def test_load_smoke_passes_and_each_guard_fires(store, tmp_path, capsys):
    """A shrunken ``repro load --sweep`` report passes ``check load``; canned
    edits show each of the five-status and knee guards firing.  A 16-slot
    queue at 4000 req/s sheds on any machine."""
    report_file = tmp_path / "capacity.json"
    code = main(["load", str(store), "--scenario", "uniform", "--sweep",
                 "--rates", "250,4000", "--queue-size", "16",
                 "--duration", "1", "--cache-size", "0",
                 "--out", str(report_file)])  # fmt: skip
    assert code == 0
    capsys.readouterr()
    assert serve_smoke.main(["check", "load", "--report", str(report_file)]) == 0
    assert "load smoke OK: {" in capsys.readouterr().out
    report = json.loads(report_file.read_text())
    assert serve_smoke.check_load(report) == []

    def edited_step(**statuses):
        first = report["steps"][0]
        step = {**first, "statuses": {**first["statuses"], **statuses}}
        return {**report, "steps": [step, *report["steps"][1:]]}

    first = report["steps"][0]["statuses"]
    assert "step 0: statuses are" in serve_smoke.check_load(edited_step(shed=0))[0]
    (problem,) = serve_smoke.check_load(edited_step(ok=first["ok"] + 1))
    assert "do not sum" in problem
    moved = edited_step(ok=first["ok"] - 1, failed=first["failed"] + 1)
    assert serve_smoke.check_load(moved) == ["step 0: 1 failed"]
    unsaturated = {**report, "knee": {**report["knee"], "saturated": False}}
    assert any("not saturated" in p for p in serve_smoke.check_load(unsaturated))
    no_knee = {**report, "knee": {**report["knee"], "knee_qps": None}}
    assert "no knee_qps" in serve_smoke.check_load(no_knee)
    calm = {
        **report,
        "steps": [
            {**s, "statuses": {**s["statuses"], "overloaded": 0}}
            for s in report["steps"]
        ],
    }
    assert "sweep never shed" in serve_smoke.check_load(calm)
    report_file.write_text(json.dumps(unsaturated))
    assert serve_smoke.main(["check", "load", "--report", str(report_file)]) == 1
