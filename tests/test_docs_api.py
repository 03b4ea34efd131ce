"""Docs drift guard: the public API must be documented.

Every name exported from ``repro.__init__`` (``repro.__all__``) has to
appear in ``docs/api.md`` — by name, anywhere in the page.  The check is
deliberately a substring test, not a structural one: it cannot rot when
the docs are reorganised, but it does fail the moment someone exports a
new symbol without documenting it (or renames one without updating the
docs).  The knob tables of serving.md / monitoring.md and the
constructor rows of the one-configuration classes are the exception:
they are checked against the code, so a removed option cannot be
advertised again.
"""

from __future__ import annotations

import dataclasses
import inspect
import re
from pathlib import Path

import pytest

import repro

DOCS = Path(__file__).resolve().parent.parent / "docs"


@pytest.fixture(scope="module")
def api_doc() -> str:
    path = DOCS / "api.md"
    assert path.is_file(), "docs/api.md is missing"
    return path.read_text()


@pytest.mark.parametrize("name", sorted(n for n in repro.__all__ if n != "__version__"))
def test_exported_name_is_documented(api_doc, name):
    assert name in api_doc, (
        f"repro.{name} is exported from repro.__init__ but never mentioned "
        f"in docs/api.md — document it (or stop exporting it)"
    )


def test_all_names_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.__all__ lists missing name {name!r}"


@pytest.mark.parametrize(
    "name",
    sorted(__import__("repro.serve", fromlist=["__all__"]).__all__),
)
def test_serve_export_is_documented(name):
    """Every ``repro.serve.__all__`` name must appear in the API docs."""
    import repro.serve

    assert hasattr(repro.serve, name), (
        f"repro.serve.__all__ lists missing name {name!r}"
    )
    api = (DOCS / "api.md").read_text()
    serving = (DOCS / "serving.md").read_text()
    assert name in api or name in serving, (
        f"repro.serve.{name} is exported but appears in neither docs/api.md "
        f"nor docs/serving.md — document it (or stop exporting it)"
    )


def test_serving_doc_cross_links():
    """The serving contract must stay linked from the doc hub pages."""
    serving = DOCS / "serving.md"
    assert serving.is_file(), "docs/serving.md is missing"
    for hub in ("api.md", "architecture.md"):
        text = (DOCS / hub).read_text()
        assert "serving.md" in text, f"docs/{hub} lost its serving link"
    readme = (DOCS.parent / "README.md").read_text()
    assert "serving.md" in readme, "README lost its serving link"


@pytest.mark.parametrize(
    "name",
    sorted(__import__("repro.serve.monitor", fromlist=["__all__"]).__all__),
)
def test_monitor_export_is_documented(name):
    """Every ``repro.serve.monitor.__all__`` name must appear in the docs."""
    import repro.serve.monitor

    assert hasattr(repro.serve.monitor, name), (
        f"repro.serve.monitor.__all__ lists missing name {name!r}"
    )
    api = (DOCS / "api.md").read_text()
    monitoring = (DOCS / "monitoring.md").read_text()
    assert name in api or name in monitoring, (
        f"repro.serve.monitor.{name} is exported but appears in neither "
        f"docs/api.md nor docs/monitoring.md — document it (or stop "
        f"exporting it)"
    )


def test_monitoring_doc_cross_links():
    """The monitoring contract must stay linked from the doc hub pages."""
    monitoring = DOCS / "monitoring.md"
    assert monitoring.is_file(), "docs/monitoring.md is missing"
    for hub in ("api.md", "architecture.md", "serving.md"):
        text = (DOCS / hub).read_text()
        assert "monitoring.md" in text, f"docs/{hub} lost its monitoring link"
    readme = (DOCS.parent / "README.md").read_text()
    assert "monitoring.md" in readme, "README lost its monitoring link"


def test_monitoring_doc_covers_the_wire_vocabulary():
    """The contract page must spell out every request type, outcome and
    status *value* a monitor response can carry — these strings are the
    wire format ``repro serve`` emits, so the doc must track them."""
    from repro.serve import REQUEST_TYPES, STATUS_DEGRADED
    from repro.serve.monitor import (
        OUTCOME_DEGRADED,
        OUTCOME_REINTEGRATED,
        OUTCOME_REPLANNED,
        OUTCOME_SURVIVED,
    )

    monitoring = (DOCS / "monitoring.md").read_text()
    for value in REQUEST_TYPES:
        assert f"`{value}`" in monitoring, (
            f"docs/monitoring.md never mentions request type `{value}`"
        )
    for value in (
        OUTCOME_SURVIVED,
        OUTCOME_REINTEGRATED,
        OUTCOME_REPLANNED,
        OUTCOME_DEGRADED,
        STATUS_DEGRADED,
    ):
        assert f"`{value}`" in monitoring, (
            f"docs/monitoring.md never mentions outcome/status `{value}`"
        )
    for metric in (
        "repro_monitor_updates_total",
        "repro_monitor_update_seconds",
        "repro_monitor_rechecked_candidates",
        "repro_monitor_subscriptions",
    ):
        assert metric in monitoring, (
            f"docs/monitoring.md lost the {metric} metric row"
        )
    assert "monitor:update" in monitoring, (
        "docs/monitoring.md lost the monitor:update span"
    )


@pytest.mark.parametrize(
    "name",
    sorted(__import__("repro.load", fromlist=["__all__"]).__all__),
)
def test_load_export_is_documented(name):
    """Every ``repro.load.__all__`` name must appear in the docs."""
    import repro.load

    assert hasattr(repro.load, name), (
        f"repro.load.__all__ lists missing name {name!r}"
    )
    api = (DOCS / "api.md").read_text()
    load_doc = (DOCS / "load.md").read_text()
    assert name in api or name in load_doc, (
        f"repro.load.{name} is exported but appears in neither docs/api.md "
        f"nor docs/load.md — document it (or stop exporting it)"
    )


def test_load_doc_cross_links():
    """The load-harness contract must stay linked from the doc hub pages."""
    load_doc = DOCS / "load.md"
    assert load_doc.is_file(), "docs/load.md is missing"
    for hub in ("api.md", "architecture.md", "serving.md"):
        text = (DOCS / hub).read_text()
        assert "load.md" in text, f"docs/{hub} lost its load-harness link"
    readme = (DOCS.parent / "README.md").read_text()
    assert "load.md" in readme, "README lost its load-harness link"


def test_load_doc_covers_the_report_vocabulary():
    """The contract page must spell out the capacity-report fields and the
    five-status response vocabulary the harness aggregates — these are the
    ``BENCH_capacity.json`` wire format CI trend-gates."""
    load_doc = (DOCS / "load.md").read_text()
    for field in (
        "offered_qps",
        "goodput_qps",
        "shed_rate",
        "degraded_rate",
        "deadline_exceeded_rate",
        "latency_ms",
        "knee_qps",
        "capacity_qps",
        "schema_version",
    ):
        assert f"`{field}`" in load_doc, (
            f"docs/load.md never mentions report field `{field}`"
        )
    for status in ("ok", "degraded", "overloaded", "deadline_exceeded",
                   "failed"):
        assert f"`{status}`" in load_doc, (
            f"docs/load.md never mentions response status `{status}`"
        )
    assert "coordinated omission" in load_doc, (
        "docs/load.md lost the open-loop/coordinated-omission rationale"
    )
    assert "BENCH_capacity.json" in load_doc, (
        "docs/load.md lost the BENCH_capacity.json artifact contract"
    )


@pytest.mark.parametrize(
    "name",
    sorted(__import__("repro.shard", fromlist=["__all__"]).__all__),
)
def test_shard_export_is_documented(name):
    """Every ``repro.shard.__all__`` name must appear in the API docs."""
    import repro.shard

    assert hasattr(repro.shard, name), (
        f"repro.shard.__all__ lists missing name {name!r}"
    )
    api = (DOCS / "api.md").read_text()
    sharding = (DOCS / "sharding.md").read_text()
    assert name in api or name in sharding, (
        f"repro.shard.{name} is exported but appears in neither docs/api.md "
        f"nor docs/sharding.md — document it (or stop exporting it)"
    )


def test_sharding_doc_cross_links():
    """The sharding contract must stay linked from the doc hub pages."""
    sharding = DOCS / "sharding.md"
    assert sharding.is_file(), "docs/sharding.md is missing"
    for hub in ("api.md", "architecture.md"):
        text = (DOCS / hub).read_text()
        assert "sharding.md" in text, f"docs/{hub} lost its sharding link"
    readme = (DOCS.parent / "README.md").read_text()
    assert "sharding.md" in readme, "README lost its sharding link"


def test_observability_doc_cross_links():
    """The telemetry contract must stay linked from the doc hub pages."""
    obs_doc = DOCS / "observability.md"
    assert obs_doc.is_file(), "docs/observability.md is missing"
    for hub in ("api.md", "architecture.md"):
        text = (DOCS / hub).read_text()
        assert "observability.md" in text, f"docs/{hub} lost its observability link"
    assert "Measuring the paper's claims" in (DOCS / "paper_mapping.md").read_text()


@pytest.mark.parametrize(
    "name",
    sorted(__import__("repro.kernels", fromlist=["__all__"]).__all__),
)
def test_kernels_export_is_documented(name):
    """Every ``repro.kernels.__all__`` name must appear in the API docs."""
    import repro.kernels

    assert hasattr(repro.kernels, name), (
        f"repro.kernels.__all__ lists missing name {name!r}"
    )
    api = (DOCS / "api.md").read_text()
    arch = (DOCS / "architecture.md").read_text()
    assert name in api or name in arch, (
        f"repro.kernels.{name} is exported but appears in neither "
        f"docs/api.md nor docs/architecture.md — document it (or stop "
        f"exporting it)"
    )


@pytest.mark.parametrize(
    "name",
    sorted(__import__("repro.core.storage", fromlist=["__all__"]).__all__),
)
def test_storage_export_is_documented(name):
    """Every ``repro.core.storage.__all__`` name must appear in the docs."""
    import repro.core.storage

    assert hasattr(repro.core.storage, name), (
        f"repro.core.storage.__all__ lists missing name {name!r}"
    )
    api = (DOCS / "api.md").read_text()
    assert name in api, (
        f"repro.core.storage.{name} is exported but never mentioned in "
        f"docs/api.md — document it (or stop exporting it)"
    )


def test_kernels_and_storage_architecture_sections_exist():
    """The hub page must keep the kernels + storage design sections."""
    arch = (DOCS / "architecture.md").read_text()
    assert "## Compiled kernels" in arch
    assert "## Storage format" in arch
    assert "REPRO_NO_JIT" in arch
    mapping = (DOCS / "paper_mapping.md").read_text()
    assert "compiled kernels" in mapping


def _knob_table_names(page: str) -> list[str]:
    """Option names in the first column of a page's ``| Knob |`` table."""
    lines = (DOCS / page).read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| Knob |"))
    names: list[str] = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        names.extend(re.findall(r"`(\w+)`", line.split("|")[1]))
    return names


def test_serving_knob_table_matches_service_config():
    """docs/serving.md documents exactly the ``ServiceConfig`` fields: a
    removed knob cannot be advertised, a new one cannot go undocumented."""
    from repro.serve import ServiceConfig

    fields = {f.name for f in dataclasses.fields(ServiceConfig)}
    documented = _knob_table_names("serving.md")
    assert set(documented) <= fields, (
        f"docs/serving.md advertises non-knobs {set(documented) - fields}"
    )
    assert fields <= set(documented), (
        f"ServiceConfig fields missing from docs/serving.md: "
        f"{fields - set(documented)}"
    )


def test_monitoring_knob_table_matches_manager_signature():
    from repro.serve import SubscriptionManager

    params = set(inspect.signature(SubscriptionManager.__init__).parameters)
    documented = set(_knob_table_names("monitoring.md"))
    assert documented, "docs/monitoring.md lost its knob table"
    assert documented <= params, (
        f"docs/monitoring.md advertises non-knobs {documented - params}"
    )


@pytest.mark.parametrize(
    "cls", [repro.QueryPlanner, repro.CascadeIntegrator, repro.ExactIntegrator],
    ids=lambda cls: cls.__name__,
)
def test_api_constructor_rows_match_signatures(api_doc, cls):
    """The ``| `Name(…)` |`` row of api.md lists the constructor's
    parameters, no more and no fewer."""
    rows = re.findall(rf"^\| `{cls.__name__}\(([^)]*)\)`", api_doc, re.M)
    assert len(rows) == 1, f"docs/api.md needs one `{cls.__name__}(…)` row"
    documented = [p.split("=")[0].strip() for p in rows[0].split(",") if p.strip()]
    assert documented == list(inspect.signature(cls).parameters)


#: ``QueryService.name`` / ``SubscriptionManager.name`` and the call forms
#: ``service.name(`` / ``service.monitor.name(`` the serving pages use.
_SERVING_REFERENCE = re.compile(
    r"\b(QueryService|SubscriptionManager)\.(\w+)"
    r"|\bservice\.(monitor\.)?(\w+)\("
)


def _serving_references() -> list[tuple[str, str, str]]:
    """``(page, class name, member)`` for every serving reference."""
    found = []
    for path in sorted([*DOCS.glob("*.md"), DOCS.parent / "README.md"]):
        for match in _SERVING_REFERENCE.finditer(path.read_text()):
            cls, member, monitor, called = match.groups()
            if cls is None:
                cls = "SubscriptionManager" if monitor else "QueryService"
                member = called
            found.append((path.name, cls, member))
    return found


def test_serving_references_resolve():
    """A doc page cannot call a service or monitor method that is gone."""
    import repro.serve

    references = _serving_references()
    assert references, "the serving pages lost every method reference"
    missing = [
        f"{page}: {cls}.{member}"
        for page, cls, member in references
        if not hasattr(getattr(repro.serve, cls), member)
    ]
    assert not missing, f"docs name methods that do not exist: {missing}"


def test_command_line_block_names_every_verb(api_doc):
    """The ``## Command line`` block of api.md lists every CLI verb."""
    from tests.test_cli import subcommands

    block = api_doc.split("## Command line", 1)[1].split("```")[1]
    listed = set(re.findall(r"^python -m repro (\S+)", block, re.M))
    assert listed == set(subcommands())
