"""Ops dashboard tests: pure rendering, snapshots, the one builder.

The dashboard's testability contract is that :func:`render_frame` is a pure
function of a :class:`DashboardSnapshot` — no TTY, no timers, no global
state.  These tests render frames headless, assert byte-stability and the
color toggle, round-trip snapshots through JSON, and build snapshots with
:func:`build_snapshot` from what replays through the synchronous engine,
the async server and a router reported.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.serving import Router, RouterConfig
from repro.serving.server import AsyncServingEngine
from repro.traffic import (
    DashboardSnapshot,
    SimulatedClock,
    Trace,
    TraceConfig,
    TraceRequest,
    build_snapshot,
    render_frame,
    replay_trace,
    replay_trace_async,
    replay_trace_router,
)


def _snapshot(**overrides) -> DashboardSnapshot:
    base = dict(
        timestamp=12.5,
        active_requests=3,
        prefilling_requests=1,
        finished_requests=40,
        requests_per_second=8.25,
        tokens_per_second=410.0,
        ttft_p50=0.031,
        ttft_p95=0.104,
        itl_p50=0.008,
        itl_p95=0.02,
        kv_occupancy=0.62,
        kv_blocks_in_use=181,
        kv_blocks_total=292,
        prefix_hit_rate=0.45,
        prefill_savings=0.3,
    )
    base.update(overrides)
    return DashboardSnapshot(**base)


class TestRenderFrame:
    def test_pure_and_byte_stable(self):
        a = render_frame(_snapshot())
        b = render_frame(_snapshot())
        assert a == b
        assert render_frame(_snapshot(active_requests=4)) != a

    def test_plain_by_default_no_ansi(self):
        frame = render_frame(_snapshot())
        assert "\x1b[" not in frame
        assert frame.isascii()

    def test_color_opt_in(self):
        frame = render_frame(_snapshot(), color=True)
        assert "\x1b[1m" in frame  # bold header
        assert frame.endswith("\x1b[0m") or "\x1b[0m" in frame

    def test_core_rows_present(self):
        frame = render_frame(_snapshot())
        assert "8.25 req/s" in frame
        assert "410.0 tok/s" in frame
        assert "p95    104.0 ms" in frame  # ttft row in milliseconds
        assert "(181/292 blocks)" in frame
        assert "hit rate  45.0%" in frame

    def test_occupancy_bar_clamped(self):
        over = render_frame(_snapshot(kv_occupancy=3.5))
        under = render_frame(_snapshot(kv_occupancy=-1.0))
        assert "#-" not in over.splitlines()[7]  # fully filled bar
        assert "-#" not in under.splitlines()[7]  # fully empty bar

    def test_slo_row_only_with_target(self):
        assert " slo " not in render_frame(_snapshot())
        frame = render_frame(
            _snapshot(slo_target_p95_ttft=0.05, slo_window_p95_ttft=0.01, slo_breached=False)
        )
        assert "[ok]" in frame
        breach = render_frame(
            _snapshot(slo_target_p95_ttft=0.05, slo_window_p95_ttft=0.2, slo_breached=True)
        )
        assert "[BREACH]" in breach

    def test_tenant_table_sorted_and_complete(self):
        frame = render_frame(
            _snapshot(
                tenants={
                    "tenant-1": {"admitted": 5, "deferred": 1, "shed": 0},
                    "tenant-0": {"admitted": 9, "deferred": 0, "shed": 2},
                }
            )
        )
        lines = frame.splitlines()
        rows = [line for line in lines if line.lstrip().startswith("tenant-")]
        assert len(rows) == 2
        assert rows[0].lstrip().startswith("tenant-0")
        assert "2" in rows[0]  # shed count rendered

    def test_width_floor(self):
        frame = render_frame(_snapshot(), width=10)
        assert all(len(line) <= 80 for line in frame.splitlines())
        assert frame.splitlines()[0] == "=" * 40


class TestSnapshotRoundTrip:
    def test_json_round_trip_renders_identically(self):
        snapshot = _snapshot(
            slo_target_p95_ttft=0.05,
            slo_window_p95_ttft=0.02,
            tenants={"tenant-0": {"admitted": 3, "deferred": 0, "shed": 1}},
        )
        payload = json.loads(json.dumps(snapshot.to_dict()))
        again = DashboardSnapshot.from_dict(payload)
        assert again == snapshot
        assert render_frame(again) == render_frame(snapshot)


def _trace(pipeline, count: int) -> Trace:
    requests = [
        TraceRequest(f"d{index}", 0.01 * index, "tenant-0", "interactive", example.prompt_text(), max_new_tokens=8)
        for index, example in enumerate(pipeline.examples[:count])
    ]
    return Trace(config=TraceConfig(num_requests=count), requests=requests)


def _engine(pipeline, clock=None):
    return pipeline.engine_for("ours", clock=clock)


class TestBuildSnapshot:
    """One builder, fed the plain payloads every front-end reports."""

    def test_replay_report_feeds_snapshot(self, tiny_pipeline):
        clock = SimulatedClock()
        report = replay_trace(_engine(tiny_pipeline, clock), _trace(tiny_pipeline, 3), clock=clock)
        snapshot = build_snapshot(
            report.stream_metrics.values(),
            window_seconds=2.0,
            kv_pool=report.kv_pool,
            prefix_cache=report.prefix_cache,
        )
        assert snapshot.finished_requests == 3
        assert snapshot.requests_per_second == pytest.approx(1.5)
        assert snapshot.tokens_per_second * 2.0 == pytest.approx(report.total_tokens)
        assert snapshot.ttft_p95 >= snapshot.ttft_p50 >= 0.0
        assert snapshot.kv_blocks_total > 0
        assert 0.0 <= snapshot.kv_occupancy <= 1.0
        assert "finished     3" in render_frame(snapshot)

    def test_zero_window_means_zero_rates(self):
        snapshot = build_snapshot([], window_seconds=0.0)
        assert snapshot.finished_requests == 0
        assert snapshot.requests_per_second == 0.0
        assert snapshot.tokens_per_second == 0.0

    def test_async_server_payloads_feed_snapshot(self, tiny_pipeline):
        trace = _trace(tiny_pipeline, 2)

        async def main():
            async with AsyncServingEngine(_engine(tiny_pipeline)) as server:
                report = await replay_trace_async(server, trace)
                return report, await server.query("stats")

        report, stats = asyncio.run(main())
        snapshot = build_snapshot(
            report.stream_metrics.values(),
            window_seconds=report.duration_seconds,
            stats=stats,
            kv_pool=report.kv_pool,
            prefix_cache=report.prefix_cache,
        )
        assert snapshot.finished_requests == 2
        assert snapshot.active_requests == snapshot.prefilling_requests == 0
        assert snapshot.ttft_p50 > 0.0
        assert snapshot.kv_blocks_total > 0
        # Frames are pure renders of snapshots: the same snapshot renders the same frame.
        assert render_frame(snapshot) == render_frame(DashboardSnapshot.from_dict(snapshot.to_dict()))

    def test_router_payloads_feed_snapshot(self, tiny_pipeline):
        trace = _trace(tiny_pipeline, 2)
        router = Router(lambda: _engine(tiny_pipeline), config=RouterConfig(num_workers=1, start_method="fork"))
        with router:
            report = replay_trace_router(router, trace, tiny_pipeline.tokenizer)
            fleet = router.fleet_stats()["aggregate"]
        snapshot = build_snapshot(
            report.stream_metrics.values(),
            window_seconds=report.duration_seconds,
            stats=fleet,
            kv_pool=report.kv_pool,
            prefix_cache=report.prefix_cache,
        )
        assert snapshot.finished_requests == 2
        assert snapshot.ttft_p50 > 0.0
        assert snapshot.tokens_per_second > 0.0
        assert snapshot.kv_blocks_total > 0
        assert "finished     2" in render_frame(snapshot)
