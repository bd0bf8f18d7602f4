"""Guards on the shape of the telemetry API.

The store read surface keeps one signature on the store, the sharded
store, the federation engine and the worker-member proxy; the benchmark
tracer wraps entry points by dotted name from outside ``src/``; and the
component benchmarks call private store methods as their uninstrumented
baselines.  None of that is checked by anything that runs the code, so
all three are pinned here.  So is the parallel tier's transport: the
worker's command set and what its ``member`` command may reach on a
member store, so a new RPC op or a wider reach is a reviewed change.
So is the single self-metrics accessor: a component's registry is reached
as ``.metrics``, never through a dict view or a second accessor name.
And so are the constructor parameter lists of the store stack: a new
setting has to show up as a reviewed change to the golden lists below.
"""

from __future__ import annotations

import ast
import glob
import importlib
import importlib.util
import inspect
import os
import pkgutil

import pytest

import repro
import repro.telemetry as telemetry
from repro.oda import DataCenter
from repro.telemetry import (
    ArchiveTier,
    ParallelShardRuntime,
    ReplicaSet,
    RollupEngine,
    ShardedStore,
    TelemetrySystem,
    TimeSeriesStore,
    WriteAheadJournal,
    durability,
)
from repro.telemetry import archive as archive_module
from repro.telemetry import rollup as rollup_module
from repro.telemetry import store as store_module
from repro.telemetry.distributed.federation import FederatedQueryEngine
from repro.telemetry.runtime.parallel import RemoteStoreProxy
from repro.telemetry.runtime.worker import MEMBER_CALLS, OPS, ShardWorker

READ_SURFACE = (
    "query", "resample", "align", "latest", "value_at", "select", "names",
)
STORE_LIKE = (
    TimeSeriesStore, ShardedStore, FederatedQueryEngine, RemoteStoreProxy,
)
TRACING_PY = os.path.join(
    os.path.dirname(__file__), os.pardir, "bench_e2e", "tracing.py"
)
BENCHMARKS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks")


def _params(fn):
    return [
        (p.name, p.kind, p.default)
        for p in inspect.signature(fn).parameters.values()
    ]


class TestReadSurfaceParity:
    @pytest.mark.parametrize("method", READ_SURFACE)
    def test_signatures_match_the_plain_store(self, method):
        reference = _params(getattr(TimeSeriesStore, method))
        defined = [c for c in STORE_LIKE if method in vars(c)]
        assert len(defined) >= 3, f"{method}: expected on most store classes"
        for cls in defined:
            assert _params(vars(cls)[method]) == reference, (
                f"{cls.__name__}.{method} drifted from TimeSeriesStore"
            )

    def test_no_public_callable_takes_an_engine(self):
        # Covers the query dataclasses too: their fields are the
        # parameters of the generated ``__init__``.
        offenders = []
        exported = [getattr(telemetry, name) for name in telemetry.__all__]
        for obj in exported + [RemoteStoreProxy]:
            export = getattr(obj, "__name__", repr(obj))
            members = (
                [(f"{export}.{n}", m) for n, m in vars(obj).items()
                 if not n.startswith("_") or n == "__init__"]
                if inspect.isclass(obj) else [(export, obj)]
            )
            for label, fn in members:
                fn = getattr(fn, "__func__", fn)  # static/class methods
                if inspect.isfunction(fn) and "engine" in (
                    inspect.signature(fn).parameters
                ):
                    offenders.append(label)
        assert offenders == []


class TestTracerTargetsResolve:
    """A rename under ``src/`` must not silently zero a layer row of the
    end-to-end benchmark (``Tracer.install`` skips what it cannot find)."""

    @pytest.fixture(scope="class")
    def tracing(self):
        spec = importlib.util.spec_from_file_location(
            "_bench_e2e_tracing", TRACING_PY
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_every_target_and_probe_resolves(self, tracing):
        wanted = [t[:3] for t in tracing.TARGETS] + [
            p[:3] for p in tracing.PROBES
        ]
        assert wanted
        missing = []
        for module, cls, attr in wanted:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls, None)
            if not callable(getattr(owner, attr, None)):
                missing.append(".".join(p for p in (module, cls, attr) if p))
        assert missing == []


class TestBenchmarkSeamsResolve:
    """A benchmark baseline that calls a private store method must keep
    measuring: a rename or a dropped parameter under ``src/`` otherwise
    makes the gate raise before it measures anything."""

    @staticmethod
    def _private_store_calls():
        for path in sorted(glob.glob(os.path.join(BENCHMARKS_DIR, "*.py"))):
            with open(path) as fh:
                tree = ast.parse(fh.read(), path)
            for node in ast.walk(tree):
                func = getattr(node, "func", None)
                if (
                    isinstance(node, ast.Call)
                    and isinstance(func, ast.Attribute)
                    and func.attr.startswith("_")
                    and not func.attr.startswith("__")
                    and "store" in ast.unparse(func.value).lower()
                ):
                    yield f"{os.path.basename(path)}:{node.lineno}", node

    def test_private_store_calls_resolve_with_their_arity(self):
        calls = list(self._private_store_calls())
        assert calls  # the observability bench's baselines
        broken = []
        for where, call in calls:
            method = getattr(TimeSeriesStore, call.func.attr, None)
            if not callable(method):
                broken.append(f"{where}: no TimeSeriesStore.{call.func.attr}")
                continue
            keywords = {k.arg: None for k in call.keywords if k.arg}
            try:
                inspect.signature(method).bind(None, *call.args, **keywords)
            except TypeError as exc:
                broken.append(f"{where}: {call.func.attr}: {exc}")
        assert broken == []


class TestOneSelfMetricsAccessor:
    RETIRED = ("health_metrics", "metrics_registry")

    def test_no_public_class_keeps_a_retired_accessor(self):
        offenders = []
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if info.name.endswith("__main__"):
                continue
            module = importlib.import_module(info.name)
            for name, cls in vars(module).items():
                if (
                    inspect.isclass(cls)
                    and not name.startswith("_")
                    and cls.__module__ == module.__name__
                ):
                    offenders.extend(
                        f"{cls.__module__}.{name}.{attr}"
                        for attr in self.RETIRED if hasattr(cls, attr)
                    )
        assert offenders == []


class TestImportsPointOneWay:
    def test_telemetry_imports_nothing_from_oda(self):
        # repro.oda composes the telemetry stack; an import back, even a
        # deferred one inside a function, makes the two a cycle.
        offenders = []
        root = os.path.dirname(telemetry.__file__)
        for path in sorted(glob.glob(os.path.join(root, "**", "*.py"), recursive=True)):
            with open(path) as fh:
                tree = ast.parse(fh.read(), path)
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                elif isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                else:
                    continue
                offenders.extend(
                    f"{os.path.relpath(path, root)}:{node.lineno}"
                    for module in modules
                    if module == "repro.oda" or module.startswith("repro.oda.")
                )
        assert offenders == []


class TestNoNewKnobs:
    GOLDEN = {
        TimeSeriesStore: ["retention", "rollups", "archive", "journal"],
        ShardedStore: [
            "shards", "replication", "partitioner", "retention", "parallel",
            "rollups", "archive", "journal",
        ],
        TelemetrySystem: [
            "store_retention", "health_period", "shards", "replication",
            "parallel", "rollups", "archive", "journal",
        ],
        DataCenter: [
            "seed", "racks", "nodes_per_rack", "policy", "telemetry_period",
            "scheduler_tick", "facility_tick", "cluster_tick",
            "enable_faults", "noisy_node_fraction", "catalog",
            "store_retention", "cooling_loops", "start_time",
            "sensor_noise_floor_w", "health_period", "shards", "replication",
            "parallel", "rollups", "archive", "journal",
        ],
        ParallelShardRuntime: ["shards", "replication", "store_config"],
        ReplicaSet: [
            "shard_id", "replication", "retention", "rollups", "archive",
            "journal",
        ],
        WriteAheadJournal: ["directory", "start_seq"],
        RollupEngine: ["raw_answerable"],
        ArchiveTier: [],
    }

    @pytest.mark.parametrize("cls", list(GOLDEN), ids=lambda c: c.__name__)
    def test_constructor_parameters_are_pinned(self, cls):
        params = list(inspect.signature(cls.__init__).parameters)[1:]
        assert params == self.GOLDEN[cls]

    def test_runtime_exports_no_config_object(self):
        # The parallel tier is configured by ShardedStore's own arguments.
        exported = [n for n in telemetry.__all__ if "Runtime" in n]
        assert exported == ["ParallelShardRuntime"]

    @pytest.mark.parametrize("module", [telemetry, durability],
                             ids=lambda m: m.__name__)
    def test_journal_exports_no_tuning_object(self, module):
        # A directory is the journal's only setting.
        for name in ("JournalConfig", "SYNC_POLICIES"):
            assert name not in module.__all__
            assert not hasattr(module, name)

    @pytest.mark.parametrize(
        "module", [telemetry, store_module, rollup_module, archive_module],
        ids=lambda m: m.__name__,
    )
    def test_tiers_export_no_tuning_object(self, module):
        # A bool is each tier's only setting; its shape is a module constant.
        for name in ("RollupConfig", "ArchiveConfig", "tier_config"):
            assert name not in module.__all__
            assert not hasattr(module, name)


class TestTransportIsPinned:
    OPS = [
        "ping", "member", "flush", "append_many", "mark_down", "degrade",
        "revive", "rs_stats", "anti_entropy", "sync_journal", "crash", "stop",
    ]
    MEMBER_CALLS = [
        "__contains__", "__len__", "align", "flush",
        "latest", "latest_time", "names", "query", "resample",
        "resample_column", "retention", "samples_ingested",
        "select", "series", "staged_samples", "value_at", "version_stamp",
    ]

    def test_worker_ops_are_pinned(self):
        assert list(OPS) == self.OPS
        assert all(callable(getattr(ShardWorker, f"_{op}")) for op in OPS)

    def test_member_call_allow_list_is_pinned(self):
        assert sorted(MEMBER_CALLS) == self.MEMBER_CALLS
        store = TimeSeriesStore()
        assert all(hasattr(store, attr) for attr in MEMBER_CALLS)


class TestProxyIsGenerated:
    """``MEMBER_CALLS`` is the only declaration of the member surface: the
    proxy carries exactly those names, with the store's signatures."""

    def test_proxy_surface_is_the_allow_list(self):
        surface = {
            name for name in vars(RemoteStoreProxy)
            if not name.startswith("_") or name in MEMBER_CALLS
        }
        assert surface == set(MEMBER_CALLS)

    @pytest.mark.parametrize("name", sorted(MEMBER_CALLS))
    def test_member_has_the_store_signature(self, name):
        member = vars(RemoteStoreProxy)[name]
        reference = getattr(TimeSeriesStore, name, None)
        if callable(reference):
            assert _params(member) == _params(reference)
        else:
            assert isinstance(member, property) and member.fset is None
