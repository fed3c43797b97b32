"""The program surface the repository benchmark reaches into from outside.

``benchmarks/perf/layers.py`` wraps several dozen ``src/`` callables by name,
``benchmarks/perf/workloads.py`` builds engines through
``Pipeline.engine_for`` keywords and reads ``kv_pool_stats()`` keys, and
``benchmarks/perf/probes.py`` builds a ``Router`` whose workers call
``repro.serving.worker.engine_from_pipeline`` with a dict of keywords.  The
benchmark directory is frozen, so a rename or deletion under ``src/`` that
breaks it would otherwise surface only when the benchmark runs.  These tests
resolve that surface without wrapping or editing anything under
``benchmarks/``.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.core.pipeline import VerilogSpecPipeline
from repro.nn.kv_cache import KVCache
from repro.nn.kv_pool import PagedKVCache
from repro.serving.worker import engine_from_pipeline

PERF_DIR = Path(__file__).resolve().parents[1] / "benchmarks" / "perf"

#: The kv_pool_stats() keys the workloads read.
WORKLOAD_KV_KEYS = {"kv_bytes_in_use", "peak_kv_bytes", "block_size", "prefix_copy_tokens"}


@pytest.fixture
def layers(monkeypatch):
    """``benchmarks/perf/layers.py``, imported the way ``run.py`` imports it."""
    monkeypatch.syspath_prepend(str(PERF_DIR))
    try:
        yield importlib.import_module("layers")
    finally:
        for name in ("layers", "spans"):
            sys.modules.pop(name, None)


def test_every_name_the_layer_tracer_wraps_resolves(layers):
    wrapped = []

    def traced(owner, attr, name, hook=None, extra_kwargs=None):
        assert callable(getattr(owner, attr, None)), f"{getattr(owner, '__name__', owner)}.{attr} is gone"
        wrapped.append((owner, attr))

    tracer = layers.LayerTracer()
    tracer.recorder = SimpleNamespace(traced=traced)
    tracer.install()  # layers._install plus the SpeculativeDecoder.generate wrap
    assert len(wrapped) > 30
    assert "generate" in {attr for _, attr in wrapped}


#: The K/V ops only the benchmark calls: ROADMAP 2(d) deletes them once layers.py stops wrapping by name.
BENCHMARK_ONLY_KV_OPS = {"truncate", "truncate_rows", "expand_batch", "keep_row", "keep_path", "repeat_rows", "compact_rows"}


def _public_methods(cls):
    return {
        name
        for name, value in vars(cls).items()
        if not name.startswith("_") and (inspect.isfunction(value) or isinstance(value, (classmethod, staticmethod)))
    }


def test_every_public_kv_op_has_a_package_caller_or_is_wrapped_by_the_benchmark(layers):
    """A new public K/V op that nothing in ``src/`` calls fails here, not in a later clean-up."""
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    kv_modules = {src / "nn" / "kv_cache.py", src / "nn" / "kv_pool.py"}
    referenced = {
        node.attr
        for path in src.rglob("*.py")
        if path not in kv_modules
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
    }
    wrapped = set(layers._ROW_RESHAPE) | set(layers._PAGED_RESHAPE)
    public = _public_methods(KVCache) | _public_methods(PagedKVCache)
    assert public <= referenced | wrapped, f"public K/V ops with no caller: {sorted(public - referenced - wrapped)}"
    assert public - referenced == BENCHMARK_ONLY_KV_OPS


def _engine_for_calls():
    tree = ast.parse((PERF_DIR / "workloads.py").read_text())
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "engine_for"
    ]


def test_engine_for_accepts_every_call_the_workloads_make():
    calls = _engine_for_calls()
    assert calls, "benchmarks/perf/workloads.py no longer builds engines through engine_for"
    signature = inspect.signature(VerilogSpecPipeline.engine_for)
    for call in calls:
        keywords = {keyword.arg: None for keyword in call.keywords}
        signature.bind(None, *[None] * len(call.args), **keywords)


def test_engine_from_pipeline_accepts_every_router_factory_the_probes_build():
    tree = ast.parse((PERF_DIR / "probes.py").read_text())
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "Router"
    ]
    assert calls, "benchmarks/perf/probes.py no longer builds a Router"
    signature = inspect.signature(engine_from_pipeline)
    for call in calls:
        factory, factory_kwargs = call.args[:2]
        assert ast.literal_eval(factory) == "repro.serving.worker:engine_from_pipeline"
        assert isinstance(factory_kwargs, ast.Dict)
        signature.bind(**{ast.literal_eval(key): None for key in factory_kwargs.keys})

def test_engine_for_takes_only_the_paged_kv_memory(tiny_pipeline):
    literal = {
        keyword.value.value
        for call in _engine_for_calls()
        for keyword in call.keywords
        if keyword.arg == "kv_memory"
    }
    assert literal == {"paged"}
    tiny_pipeline.engine_for("ours", kv_memory="paged")
    with pytest.raises(ValueError, match="paged"):
        tiny_pipeline.engine_for("ours", kv_memory="row")


def test_kv_pool_stats_has_the_keys_the_workloads_read(tiny_pipeline):
    engine = tiny_pipeline.engine_for("ours", kv_block_size=16)
    engine.submit_text("module m (input clk);")
    engine.run()
    stats = engine.kv_pool_stats()
    assert WORKLOAD_KV_KEYS <= set(stats)
    assert stats["block_size"] == 16
    assert stats["prefix_copy_tokens"] == 0
    assert stats["peak_kv_bytes"] > 0
