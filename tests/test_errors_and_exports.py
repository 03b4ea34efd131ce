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
