"""Public API integrity checks.

Locks in the package contract: everything in ``__all__`` is importable,
public objects are documented, and the version is sane.
"""

import ast
import pathlib
import re

import repro

SRC = pathlib.Path(repro.__file__).parent


class TestAllExports:
    def test_every_name_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_no_duplicate_exports(self):
        assert len(repro.__all__) == len(set(repro.__all__))

    def test_version_present(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)

    def test_key_queries_exported(self):
        for name in (
            "ObstacleDatabase",
            "obstacle_range",
            "obstacle_nearest",
            "obstacle_distance_join",
            "obstacle_closest_pairs",
            "obstacle_semijoin",
            "RStarTree",
            "VisibilityGraph",
        ):
            assert name in repro.__all__, name

    def test_persistence_exported(self):
        for name in ("save_database", "load_database", "snapshot_info"):
            assert name in repro.__all__, name

    def test_compatibility_names_stay_removed(self):
        """Facades and aliases nothing in ``src/`` calls are deleted,
        not kept: one name for one thing (CHANGES.md "Removed")."""
        import repro.core.range
        import repro.runtime
        import repro.visibility

        assert not hasattr(repro, "ObstructedDistanceComputer")
        assert not hasattr(repro.core, "ObstructedDistanceComputer")
        assert not hasattr(repro.runtime, "bounded_expansion")
        assert not hasattr(repro.core.range, "expand_within_range")
        for name in (
            "compute_obstructed_distance",
            "shortest_path",
            "shortest_path_dist",
        ):
            assert not hasattr(repro, name), name
        assert not hasattr(repro.core, "compute_obstructed_distance")
        for name in ("dijkstra", "bounded_dijkstra", "shortest_path"):
            assert not hasattr(repro.visibility, name), name
        # One pool, two lifecycles: the metric-closure batch path went.
        import importlib.util

        import repro.runtime.batch
        from repro.runtime.policy import AdaptiveCachePolicy, CachePolicy
        from repro.serve.pool import PersistentWorkerPool

        assert importlib.util.find_spec("repro.runtime.executor") is None
        for name in ("BatchExecutor", "batch_nearest", "batch_range", "batch_distance"):
            assert not hasattr(repro.runtime, name), name
            assert not hasattr(repro.runtime.batch, name), name
        for owner in (repro.QueryContext, CachePolicy, AdaptiveCachePolicy):
            assert not hasattr(owner, "spawn"), owner
        for name in ("batch_nearest", "batch_range"):
            assert not hasattr(PersistentWorkerPool, name), name
        # Moving clients ask ``db.nearest`` again: the continuous family
        # no workload ran went.
        import repro.serve

        for module in ("repro.core.continuous", "repro.serve.continuous"):
            assert importlib.util.find_spec(module) is None, module
        for name in (
            "ContinuousQueryHub",
            "Subscription",
            "ResultDelta",
            "path_nearest",
            "PathNearestNeighbor",
            "NNInterval",
        ):
            assert not hasattr(repro, name), name
            assert not hasattr(repro.serve, name), name
        assert not hasattr(repro.ObstacleDatabase, "path_nearest")
        # One metric: the queries run on the QueryContext itself.
        assert importlib.util.find_spec("repro.runtime.metric") is None
        assert importlib.util.find_spec("repro.runtime.queries") is None
        for name in (
            "EuclideanMetric",
            "ObstructedMetric",
            "DistanceOracle",
            "resolve_metric",
            "metric_range",
        ):
            assert not hasattr(repro, name), name
            assert not hasattr(repro.runtime, name), name


class TestPersistenceSurface:
    """Pins the snapshot-store API added with the persist subsystem."""

    def test_database_save_load_methods(self):
        from repro import ObstacleDatabase

        assert callable(ObstacleDatabase.save)
        assert callable(ObstacleDatabase.load)
        assert ObstacleDatabase.save.__doc__
        assert ObstacleDatabase.load.__doc__
        assert isinstance(ObstacleDatabase.__dict__["load"], classmethod)

    def test_persist_package_surface(self):
        import repro.persist as persist

        for name in persist.__all__:
            assert hasattr(persist, name), name
        assert persist.FORMAT_VERSION >= 1
        assert len(persist.MAGIC) == 8

    def test_cli_entry_point(self):
        from repro.persist import cli

        assert callable(cli.main)
        # The console-script hook must stay wired in the project metadata.
        pyproject = (SRC.parent.parent / "pyproject.toml").read_text()
        assert 'repro-snapshot = "repro.persist.cli:main"' in pyproject

    def test_restore_hooks_documented(self):
        from repro.index.pagestore import LRUBuffer, PageStore
        from repro.index.rstar import RStarTree
        from repro.visibility.graph import VisibilityGraph

        for hook in (
            PageStore.restore,
            LRUBuffer.load_pages,
            RStarTree.install_pages,
            VisibilityGraph.registration,
        ):
            assert hook.__doc__

    def test_content_hash_exported_from_datasets(self):
        from repro.datasets.io import content_hash

        assert callable(content_hash)


class TestServingSurface:
    """Pins the serving-tier API added with the persistent pool."""

    def test_serve_exports(self):
        for name in (
            "PersistentWorkerPool",
            "QueryServer",
            "ServeStats",
            "LatencyHistogram",
        ):
            assert name in repro.__all__, name

    def test_serve_package_surface(self):
        import repro.serve as serve

        for name in serve.__all__:
            assert hasattr(serve, name), name

    def test_database_serving_methods(self):
        from repro import ObstacleDatabase

        for method in (
            ObstacleDatabase.serving_pool,
            ObstacleDatabase.batch_distance,
            ObstacleDatabase.close,
        ):
            assert callable(method)
            assert method.__doc__


class TestConfigurationSurface:
    """Configuration is an argument: the knob count is a gate."""

    def test_environment_knobs_are_exactly_two(self):
        """Only the deployment-observability variables are read from
        the environment, and only by their own modules; a new
        ``REPRO_*`` mention anywhere in ``src/`` fails here."""
        mentioned: set[str] = set()
        readers: set[str] = set()
        for path in SRC.rglob("*.py"):
            text = path.read_text()
            mentioned.update(re.findall(r"REPRO_[A-Z_]+", text))
            if "os.environ" in text or "getenv" in text:
                readers.add(path.relative_to(SRC).as_posix())
        assert mentioned == {"REPRO_TRACE_SAMPLE", "REPRO_SLOW_QUERY_MS"}
        assert readers == {"obs/trace.py", "obs/slowlog.py"}


class TestDocumentation:
    def test_all_modules_have_docstrings(self):
        for path in SRC.rglob("*.py"):
            tree = ast.parse(path.read_text())
            assert ast.get_docstring(tree), f"{path} lacks a module docstring"

    def test_public_classes_and_functions_documented(self):
        undocumented = []
        for path in SRC.rglob("*.py"):
            tree = ast.parse(path.read_text())
            for node in tree.body:  # top-level only
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    if node.name.startswith("_"):
                        continue
                    if not ast.get_docstring(node):
                        undocumented.append(f"{path.name}:{node.name}")
                if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                    for member in node.body:
                        if isinstance(member, ast.FunctionDef):
                            if member.name.startswith("_"):
                                continue
                            if not ast.get_docstring(member):
                                undocumented.append(
                                    f"{path.name}:{node.name}.{member.name}"
                                )
        assert undocumented == []

    def test_exported_objects_have_docstrings(self):
        for name in repro.__all__:
            if name == "__version__":
                continue
            obj = getattr(repro, name)
            if isinstance(obj, type) or callable(obj):
                assert obj.__doc__, f"{name} lacks a docstring"


class TestPackagingMetadata:
    def test_py_typed_marker_shipped(self):
        assert (SRC / "py.typed").exists()

    def test_no_top_level_side_effects(self):
        # importing repro must not create files or mutate cwd state;
        # (a re-import exercising the module cache is a cheap proxy)
        import importlib

        importlib.reload(repro)
