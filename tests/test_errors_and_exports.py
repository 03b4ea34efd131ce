"""Tests for the exception hierarchy and the public API surface."""

from __future__ import annotations

import pytest

import repro
from repro import errors


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                if obj is not errors.ReproError:
                    assert issubclass(obj, errors.ReproError), name

    def test_dimension_mismatch_message(self):
        err = errors.DimensionMismatchError(2, 3, "point")
        assert "point" in str(err)
        assert err.expected == 2 and err.actual == 3

    def test_invalid_threshold_message(self):
        err = errors.InvalidThresholdError(1.5)
        assert "1.5" in str(err)
        assert err.theta == 1.5

    def test_catalog_lookup_is_catalog_error(self):
        assert issubclass(errors.CatalogLookupError, errors.CatalogError)

    def test_geometry_errors_catchable_as_base(self):
        from repro.geometry.mbr import Rect

        with pytest.raises(errors.ReproError):
            Rect([1.0], [0.0])


class TestPublicApi:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"missing export {name}"

    def test_version_is_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_subpackage_all_exports_resolve(self):
        import repro.catalog
        import repro.core
        import repro.datasets
        import repro.gaussian
        import repro.geometry
        import repro.index
        import repro.integrate
        import repro.robotics

        for module in (
            repro.core,
            repro.gaussian,
            repro.geometry,
            repro.index,
            repro.integrate,
            repro.catalog,
            repro.datasets,
            repro.robotics,
        ):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"

    def test_import_does_not_load_scipy_stats(self):
        """Radii come from ``scipy.special`` directly; the generic
        distribution layer (~0.3 s, ~20 MB) stays out of the process."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(repro.__file__).parent.parent
        env = {**os.environ, "PYTHONPATH": str(src)}
        code = "import sys, repro, repro.cli; sys.exit('scipy.stats' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_every_public_module_has_docstring(self):
        import importlib
        import pkgutil

        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            module = importlib.import_module(info.name)
            assert module.__doc__, f"{info.name} lacks a module docstring"


def _tiny_database():
    import numpy as np

    return repro.SpatialDatabase(np.random.default_rng(0).random((50, 2)))


def _manager(**knob):
    from repro.serve import SubscriptionManager

    database = _tiny_database()
    return SubscriptionManager(database, database.engine(), **knob)


def _removed_knob_calls():
    """One call per option that became a module constant: each must be a
    ``TypeError`` (unexpected keyword), never a silent no-op."""
    import numpy as np

    from repro.core.kinds import adapt_pipeline
    from repro.core.saferegion import SafeRegion
    from repro.serve import CostTracker, ServiceConfig
    from repro.shard import ShardedDatabase

    points = np.random.default_rng(0).random((50, 2))
    return {
        "planner-combos": lambda: repro.QueryPlanner(points, combos=("rr",)),
        "planner-cache_size": lambda: repro.QueryPlanner(points, cache_size=2),
        "planner-cost_model": lambda: repro.QueryPlanner(
            points, **{"cost_model": None}
        ),
        "planner-total_points": lambda: repro.QueryPlanner(total_points=50),
        "planner-data_bounds": lambda: repro.QueryPlanner(
            points, data_bounds=None
        ),
        "planner-estimator": lambda: repro.QueryPlanner(points, estimator=None),
        "planner-targets": lambda: repro.QueryPlanner(points, targets=None),
        "adapt_pipeline-targets": lambda: adapt_pipeline(
            None, [], None, index=None, targets=None
        ),
        "db.planner-kwargs": lambda: _tiny_database().planner(cache_size=2),
        "sharded.planner-kwargs": lambda: ShardedDatabase.planner(
            None, cache_size=2
        ),
        "cascade-tol": lambda: repro.CascadeIntegrator(tol=1e-9),
        "cascade-max_terms": lambda: repro.CascadeIntegrator(max_terms=10),
        "exact-method": lambda: repro.ExactIntegrator(method="imhof"),
        "exact-positional-method": lambda: repro.ExactIntegrator("ruben"),
        "monitor-margin": lambda: _manager(margin=0.5),
        "monitor-replan_fraction": lambda: _manager(replan_fraction=0.35),
        "monitor-replan_min": lambda: _manager(replan_min=8),
        "monitor-degrade_safety": lambda: _manager(degrade_safety=2.0),
        "monitor-cost_prior": lambda: _manager(cost_prior=0.005),
        "saferegion.build-margin": lambda: SafeRegion.build(
            None, (), anchor_rect=None, superset=None, margin=0.5
        ),
        "saferegion.classify-replan_fraction": lambda: SafeRegion.classify(
            None, None, replan_fraction=0.35
        ),
        "saferegion.classify-replan_min": lambda: SafeRegion.classify(
            None, None, replan_min=8
        ),
        "service-degrade_safety": lambda: ServiceConfig(degrade_safety=2.0),
        "service-cost_prior": lambda: ServiceConfig(cost_prior=0.05),
        "serve-knob-cost_prior": lambda: _tiny_database().serve(cost_prior=5.0),
        "costtracker-alpha": lambda: CostTracker(alpha=0.2, prior=1.0),
        "costtracker-safety": lambda: CostTracker(prior=1.0).would_exceed(
            1.0, safety=2.0
        ),
    }


class TestOneConfiguration:
    @pytest.mark.parametrize("knob", sorted(_removed_knob_calls()))
    def test_removed_knob_is_a_type_error(self, knob):
        with pytest.raises(TypeError):
            _removed_knob_calls()[knob]()

    def test_engine_run_alias_is_gone(self):
        from repro.core.engine import QueryEngine
        from repro.shard import ShardedEngine

        assert not hasattr(QueryEngine, "run")
        assert not hasattr(ShardedEngine, "run")
        engine = _tiny_database().engine()
        with pytest.raises(AttributeError):
            engine.run([])

    def test_cost_model_class_is_gone(self):
        import repro.core

        assert "PlannerCostModel" not in repro.__all__
        assert "PlannerCostModel" not in repro.core.__all__
        assert not hasattr(repro.core.planner, "PlannerCostModel")


def _removed_entry_calls():
    """One call per second way into (or report out of) the service and
    the monitor: each must fail loudly, never fall back silently."""
    from repro.serve import QueryService, ServiceConfig, SubscriptionManager
    from repro.shard import ShardedDatabase

    def import_monitor_request():
        from repro.serve import MonitorRequest  # noqa: F401

    def import_convolve():
        import repro.gaussian.convolve  # noqa: F401

    return {
        # Uncertain targets run as ordinary PRQ legs; the second pipeline
        # that used to run them is gone.
        "ConvolvedTargetStrategy": lambda: repro.core.kinds.ConvolvedTargetStrategy,
        "UncertainTargetDecider": lambda: repro.core.kinds.UncertainTargetDecider,
        "conservative_reach_alpha": lambda: repro.gaussian.conservative_reach_alpha,
        "gaussian.convolve": import_convolve,
        "MonitorRequest": import_monitor_request,
        "monitor-MonitorRequest": lambda: repro.serve.monitor.MonitorRequest,
        "handle": lambda: SubscriptionManager.handle,
        "monitor-stats": lambda: SubscriptionManager.stats,
        "service-stats": lambda: QueryService.stats,
        "query": lambda: QueryService.query,
        "serve-config": lambda: _tiny_database().serve(ServiceConfig()),
        "serve-config-keyword": lambda: _tiny_database().serve(
            config=ServiceConfig()
        ),
        "sharded.serve-config": lambda: ShardedDatabase.serve(
            None, ServiceConfig()
        ),
        "QueryService-config": lambda: QueryService(
            _tiny_database(), ServiceConfig()
        ),
    }


class TestOneEntryPoint:
    @pytest.mark.parametrize("name", sorted(_removed_entry_calls()))
    def test_removed_entry_point_fails(self, name):
        with pytest.raises((AttributeError, ImportError, TypeError)):
            _removed_entry_calls()[name]()

    def test_monitor_request_left_the_exports(self):
        import repro.serve

        assert "MonitorRequest" not in repro.serve.__all__
        assert "MonitorRequest" not in repro.serve.monitor.__all__
