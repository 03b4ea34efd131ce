"""Tests for the command-line interface."""

from __future__ import annotations

import argparse

import pytest

from repro.cli import build_parser, main


def subcommands() -> list[str]:
    """Every verb ``build_parser()`` registers."""
    parser = build_parser()
    action = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return sorted(action.choices)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    @pytest.mark.parametrize("command", subcommands())
    def test_every_verb_has_help(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        assert f"usage: repro {command}" in capsys.readouterr().out


class TestBadInput:
    """Every bad input is one ``error:`` line and exit status 2 — returned
    by ``main`` or raised as argparse's ``SystemExit`` — never a traceback."""

    @pytest.fixture(scope="class")
    def db_path(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("bad-input") / "data.soa")
        assert main(["dataset", "uniform", path, "--size", "200"]) == 0
        return path

    @pytest.mark.parametrize("argv", [
        ["monitor", "{db}", "--theta", "1.5"],
        ["monitor", "{db}", "--delta", "-1"],
        ["monitor", "{db}", "--subscriptions", "-1"],
        ["catalog", "rtheta", "{out}/cat.json", "--dim", "0"],
        ["catalog", "rtheta", "{out}/cat.json", "--dim", "2", "--resolution", "0"],
        ["dataset", "uniform", "{out}/x.soa", "--size", "-3"],
        ["dataset", "uniform", "{out}/x.soa", "--size", "0"],
        ["experiment", "table1", "--trials", "0"],
        ["monitor", "{db}", "--steps", "0"],
        ["query", "{db}", "--center", "1", "1", "--delta", "5", "--shards", "0"],
        ["query", "{db}", "--center", "1", "1", "--delta", "5"],
        ["explain", "{db}", "--center", "1", "1", "--theta", "0.1"],
        ["query", "{db}", "--batch", "{out}/absent.json"],
        ["load", "{db}", "--sweep", "--rates", "fast"],
        ["load", "{db}", "--scenario", "{out}/absent.json"],
        ["load", "{db}"],
    ], ids=lambda argv: " ".join(argv))
    def test_error_line_and_exit_2(self, argv, db_path, tmp_path, capsys):
        argv = [a.format(db=db_path, out=tmp_path) for a in argv]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x.soa").exists()


class TestDemo:
    def test_runs_and_prints_table(self, capsys):
        assert main(["demo", "--points", "1500", "--delta", "25",
                     "--theta", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "strategies" in out
        assert "all" in out
        # Six combination rows.
        assert sum(1 for line in out.splitlines() if "rr" in line or "bf" in line or "all" in line) >= 6


class TestDatasetAndQuery:
    def test_dataset_then_query(self, tmp_path, capsys):
        db_path = str(tmp_path / "data.soa")
        assert main(["dataset", "uniform", db_path, "--size", "400"]) == 0
        assert main([
            "query", db_path,
            "--center", "500", "500",
            "--sigma-scale", "900",
            "--delta", "60", "--theta", "0.05",
            "--exact",
        ]) == 0
        out = capsys.readouterr().out
        assert "objects qualify" in out

    def test_query_with_auto_strategies(self, tmp_path, capsys):
        db_path = str(tmp_path / "data.soa")
        assert main(["dataset", "uniform", db_path, "--size", "400"]) == 0
        assert main([
            "query", db_path,
            "--center", "500", "500",
            "--sigma-scale", "900",
            "--delta", "60", "--theta", "0.05",
            "--strategies", "auto", "--exact",
        ]) == 0
        assert "objects qualify" in capsys.readouterr().out

    def test_explain_renders_plan(self, tmp_path, capsys):
        """The default ``auto`` explain is the ``all`` explain, byte for
        byte: the rule runs the paper's ALL for a PRQ."""
        db_path = str(tmp_path / "data.soa")
        assert main(["dataset", "uniform", db_path, "--size", "400"]) == 0
        capsys.readouterr()
        shape = [
            "--center", "500", "500",
            "--sigma-scale", "900",
            "--delta", "60", "--theta", "0.05",
        ]
        assert main(["explain", db_path, *shape]) == 0
        out = capsys.readouterr().out
        assert "strategies: RR + BF + OR" in out
        assert "plan: strategies=RR+BF+OR" in out
        assert "predicted phase-3 candidates:" in out
        assert main(["explain", db_path, *shape, "--strategies", "all"]) == 0
        assert capsys.readouterr().out == out

    def test_explain_fixed_strategies(self, tmp_path, capsys):
        db_path = str(tmp_path / "data.soa")
        assert main(["dataset", "uniform", db_path, "--size", "400"]) == 0
        assert main([
            "explain", db_path,
            "--center", "500", "500",
            "--sigma-scale", "900",
            "--delta", "60", "--theta", "0.05",
            "--strategies", "rr+bf",
        ]) == 0
        out = capsys.readouterr().out
        assert "strategies: RR + BF" in out
        assert "plans considered" not in out

    def test_explain_dim_mismatch_fails_cleanly(self, tmp_path, capsys):
        db_path = str(tmp_path / "data.soa")
        main(["dataset", "uniform", db_path, "--size", "100"])
        code = main([
            "explain", db_path, "--center", "1", "2", "3",
            "--delta", "1", "--theta", "0.1",
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_query_dim_mismatch_fails_cleanly(self, tmp_path, capsys):
        db_path = str(tmp_path / "data.soa")
        main(["dataset", "uniform", db_path, "--size", "100"])
        code = main([
            "query", db_path, "--center", "1", "2", "3",
            "--delta", "1", "--theta", "0.1",
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_road_dataset_generation(self, tmp_path, capsys):
        db_path = str(tmp_path / "road.soa")
        assert main(["dataset", "road", db_path, "--size", "3000"]) == 0
        from repro import SpatialDatabase

        assert SpatialDatabase.load(db_path).points.shape == (3000, 2)


class TestCatalog:
    def test_rtheta_catalog(self, tmp_path, capsys):
        out_path = str(tmp_path / "cat.json")
        assert main(["catalog", "rtheta", out_path, "--dim", "3",
                     "--resolution", "7"]) == 0
        from repro.catalog import load_catalog, RThetaCatalog

        catalog = load_catalog(out_path)
        assert isinstance(catalog, RThetaCatalog)
        assert catalog.dim == 3

    def test_bf_catalog_monte_carlo(self, tmp_path):
        out_path = str(tmp_path / "bf.json")
        assert main([
            "catalog", "bf", out_path, "--dim", "2", "--resolution", "4",
            "--deltas", "1.0", "2.0", "--monte-carlo",
        ]) == 0
        from repro.catalog import load_catalog, BFCatalog

        assert isinstance(load_catalog(out_path), BFCatalog)


class TestMonitorAndFigures:
    def test_monitor_outcomes_sum_to_the_updates(self, tmp_path, capsys):
        db_path = str(tmp_path / "data.soa")
        assert main(["dataset", "uniform", db_path, "--size", "500"]) == 0
        capsys.readouterr()
        assert main(["monitor", db_path, "--subscriptions", "20", "--steps", "2",
                     "--deadline-ms", "0"]) == 0
        outcomes = ("survived", "reintegrated", "replanned", "degraded")
        rows = {
            words[0]: int(words[1])
            for words in map(str.split, capsys.readouterr().out.splitlines())
            if words and words[0] in outcomes
        }
        assert set(rows) == set(outcomes)
        assert sum(rows.values()) == 20 * 2

    def test_figures_writes_five_svgs(self, tmp_path, capsys):
        assert main(["figures", str(tmp_path)]) == 0
        written = sorted(p.name for p in tmp_path.glob("*.svg"))
        assert written == ["fig13_14.svg", "fig15.svg", "fig16.svg",
                           "fig17.svg", "road_network.svg"]
        assert all("<svg" in p.read_text() for p in tmp_path.glob("*.svg"))


class TestExperiment:
    def test_fig17(self, capsys):
        assert main(["experiment", "fig17"]) == 0
        assert "Fig. 17" in capsys.readouterr().out

    def test_regions(self, capsys):
        assert main(["experiment", "regions"]) == 0
        out = capsys.readouterr().out
        assert "23.4" in out  # the Fig. 13 half-width anchor


class TestObservabilityCLI:
    """`repro query --trace-out/--metrics-out` and `repro trace`."""

    @pytest.fixture()
    def db_path(self, tmp_path):
        path = str(tmp_path / "data.soa")
        assert main(["dataset", "uniform", path, "--size", "400"]) == 0
        return path

    def test_query_writes_trace_and_metrics(self, db_path, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        metrics = tmp_path / "m.txt"
        assert main([
            "query", db_path,
            "--center", "500", "500", "--sigma-scale", "900",
            "--delta", "60", "--theta", "0.3",
            "--strategies", "auto", "--integrator", "cascade",
            "--trace-out", str(trace), "--metrics-out", str(metrics),
        ]) == 0
        out = capsys.readouterr().out
        assert "objects qualify" in out
        assert f"wrote metrics to {metrics}" in out

        from repro.obs import Tracer

        names = {s.name for s in Tracer.load_jsonl(trace)}
        # The acceptance bar: all three phases plus the planner span.
        assert {"query", "phase:plan", "phase:search", "phase:filter",
                "phase:integrate"} <= names

        text = metrics.read_text()
        assert "repro_queries_total 1" in text
        assert "repro_planner_" not in text
        assert 'repro_phase_seconds_count{phase="plan"} 1' in text

    def test_query_cascade_tier_metrics(self, db_path, tmp_path):
        metrics = tmp_path / "m.txt"
        assert main([
            "query", db_path,
            "--center", "500", "500", "--sigma-scale", "900",
            "--delta", "60", "--theta", "0.3",
            "--strategies", "rr", "--integrator", "cascade",
            "--metrics-out", str(metrics),
        ]) == 0
        text = metrics.read_text()
        assert 'repro_phase3_decisions_total{method="cascade-' in text

    def test_trace_command_renders_tree(self, db_path, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        assert main([
            "query", db_path,
            "--center", "500", "500", "--sigma-scale", "900",
            "--delta", "60", "--theta", "0.05",
            "--strategies", "all", "--exact",
            "--trace-out", str(trace),
        ]) == 0
        capsys.readouterr()
        assert main(["trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "query" in out and "phase:search" in out
        assert "total ms" in out  # the summary table

        assert main(["trace", str(trace), "--summary-only"]) == 0
        out = capsys.readouterr().out
        assert "phase:" in out and "wall=" not in out

    def test_trace_rejects_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["trace", str(bad)]) == 2
        assert "error" in capsys.readouterr().err
        assert main(["trace", str(tmp_path / "missing.jsonl")]) == 2

    def test_batch_query_with_observability(self, db_path, tmp_path, capsys):
        import json

        batch_file = tmp_path / "batch.json"
        batch_file.write_text(json.dumps([
            {"center": [500, 500], "delta": 60, "theta": 0.05},
            {"center": [250, 250], "delta": 40, "theta": 0.1},
        ]))
        trace = tmp_path / "t.jsonl"
        metrics = tmp_path / "m.txt"
        assert main([
            "query", db_path, "--sigma-scale", "900",
            "--batch", str(batch_file), "--workers", "2",
            "--strategies", "auto", "--integrator", "cascade",
            "--trace-out", str(trace), "--metrics-out", str(metrics),
        ]) == 0
        out = capsys.readouterr().out
        assert "batch:" in out

        from repro.obs import Tracer

        spans = Tracer.load_jsonl(trace)
        assert sum(s.name == "batch" for s in spans) == 1
        assert sum(s.name == "query" for s in spans) == 2
        text = metrics.read_text()
        assert "repro_batch_queries_total 2" in text
        assert "repro_batch_workers 2" in text


class TestDatabaseLoadErrors:
    """Store-load failures surface as ``error: ...`` + exit 2, no traceback."""

    @pytest.mark.parametrize("command", ["query", "explain"])
    def test_unreadable_store_is_a_cli_error(self, command, tmp_path, capsys):
        bad = tmp_path / "torn.soa"
        bad.write_bytes(b"RPROSOA1\x01")  # 9 bytes of a 64-byte header
        with pytest.raises(SystemExit) as excinfo:
            main([command, str(bad),
                  "--center", "1", "1", "--delta", "5", "--theta", "0.1"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert str(bad) in err

    def test_missing_database_is_a_cli_error(self, tmp_path, capsys):
        absent = tmp_path / "absent.soa"
        with pytest.raises(SystemExit) as excinfo:
            main(["query", str(absent),
                  "--center", "1", "1", "--delta", "5", "--theta", "0.1"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "does not exist" in err and str(absent) in err


class TestServiceFlagErrors:
    """Invalid service flags of ``repro serve`` / ``repro load`` are an
    ``error: ...`` line and exit 2, not a ``ServiceError`` traceback."""

    BAD_FLAGS = [
        (["--window-ms", "-1"], "batch_window"),
        (["--window-ms", "nan"], "batch_window"),
        (["--workers", "0"], "workers"),
    ]

    @pytest.fixture()
    def db_path(self, tmp_path):
        path = str(tmp_path / "data.soa")
        assert main(["dataset", "uniform", path, "--size", "200"]) == 0
        return path

    @pytest.mark.parametrize("flags, field", BAD_FLAGS)
    def test_serve_rejects_bad_service_flags(
        self, db_path, tmp_path, capsys, flags, field
    ):
        requests = tmp_path / "requests.jsonl"
        requests.write_text("")
        capsys.readouterr()
        assert main(["serve", db_path, "--requests", str(requests), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags, field", BAD_FLAGS)
    def test_load_rejects_bad_service_flags(self, db_path, capsys, flags, field):
        capsys.readouterr()
        assert main(["load", db_path, "--rate", "50", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err
        assert "Traceback" not in err


class TestServeMonitorLines:
    """Monitor lines of ``repro serve`` call the verbs directly."""

    def test_rejected_verb_is_an_in_order_failed_row(self, tmp_path, capsys):
        """A line the verb rejects (duplicate ``sub``, wrong dimension)
        answers a ``failed`` row in its place, carrying the verb's error;
        the monitor's ``failed`` counter counts only what the monitor
        itself answered, as the service's counters do."""
        import json

        db_path = str(tmp_path / "data.soa")
        assert main(["dataset", "uniform", db_path, "--size", "200"]) == 0
        subscribe = {"type": "subscribe", "sub": "a", "center": [500.0, 500.0],
                     "delta": 50.0, "theta": 0.3}  # fmt: skip
        lines = [
            {**subscribe, "id": "first"},
            {**subscribe, "id": "again"},
            {**subscribe, "sub": "b", "center": [1.0, 2.0, 3.0],
             "sigma": [[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]], "id": "3d"},
            {"type": "notify", "sub": "a", "id": "note"},
            {"type": "notify", "sub": "ghost", "id": "ghost"},
        ]
        requests = tmp_path / "requests.jsonl"
        requests.write_text("".join(json.dumps(line) + "\n" for line in lines))
        capsys.readouterr()
        assert main(["serve", db_path, "--requests", str(requests)]) == 0
        captured = capsys.readouterr()
        rows = [json.loads(line) for line in captured.out.splitlines()]
        assert [row["id"] for row in rows] == [line["id"] for line in lines]
        assert [row["status"] for row in rows] == [
            "ok", "failed", "failed", "ok", "failed"
        ]
        failed = {"type": "subscribe", "status": "failed", "ids": [],
                  "stale": False, "service_ms": 0.0}  # fmt: skip
        assert rows[1] == {**failed, "id": "again", "subscription_id": "a",
                           "error": "subscription 'a' already exists"}  # fmt: skip
        assert rows[2] == {
            **failed, "id": "3d", "subscription_id": "b",
            "error": "subscription dimension 3 does not match database "
                     "dimension 2",
        }  # fmt: skip
        assert rows[4]["error"] == "unknown subscription 'ghost'"
        monitor = next(
            json.loads(line.split("monitor:", 1)[1])
            for line in captured.err.splitlines()
            if line.startswith("monitor:")
        )
        assert monitor["subscribed"] == 1 and monitor["notified"] == 1
        assert monitor["failed"] == 1  # the unknown sub; not the two rejects
