"""Trace replay tests: simulated-clock determinism and churn coverage.

The headline assertion is the harness's CI guarantee: generating the same
trace twice and replaying it on fresh engines with fresh simulated clocks
produces **identical** trace JSON, per-request token streams, statuses and
report metrics — virtual time makes the whole latency surface (TTFT,
inter-token, deadline expiry) part of the deterministic contract, not just
the tokens.  The churn tests exercise the cancellation and deadline paths
in virtual time, and one wall-clock test replays through the async
front-end to cover the non-deterministic regime's plumbing.
"""

from __future__ import annotations

import asyncio
import sys
import threading
from types import SimpleNamespace

import pytest

from repro.models.generation import GenerationConfig
from repro.serving import PrefixCache, PriorityConfig, Router, RouterConfig, RouterRequest, SchedulerConfig
from repro.serving.messages import FinishedEvent
from repro.serving.server import AsyncServingEngine
from repro.traffic import (
    AdmissionController,
    SimulatedClock,
    SLOConfig,
    StepCostModel,
    Trace,
    TraceConfig,
    TraceRequest,
    WallClock,
    build_snapshot,
    generate_trace,
    replay_trace,
    replay_trace_async,
    replay_trace_router,
)


def _engine(pipeline, clock=None, max_active=4, prefix_cache=None, priorities=None):
    return pipeline.engine_for(
        "ours",
        scheduler_config=SchedulerConfig(
            max_active_requests=max_active, priorities=priorities or PriorityConfig()
        ),
        prefix_cache=prefix_cache,
        clock=clock,
    )


def _trace(**overrides) -> Trace:
    base = dict(
        num_requests=10,
        seed=3,
        requests_per_second=50.0,
        max_new_token_choices=(4, 8),
        prompt_sentence_choices=(1, 2),
    )
    base.update(overrides)
    return generate_trace(TraceConfig(**base))


def _manual_trace(requests) -> Trace:
    return Trace(config=TraceConfig(num_requests=len(requests)), requests=list(requests))


class TestSimulatedDeterminism:
    def test_same_seed_identical_replay(self, tiny_pipeline):
        config = TraceConfig(
            num_requests=12,
            seed=7,
            requests_per_second=40.0,
            arrival_process="bursty",
            deadline_fraction=0.2,
            cancel_fraction=0.15,
            max_new_token_choices=(4, 8),
            prompt_sentence_choices=(1, 2),
        )

        def run_once():
            trace = generate_trace(config)
            clock = SimulatedClock()
            engine = _engine(tiny_pipeline, clock=clock)
            report = replay_trace(engine, trace, clock=clock, cost_model=StepCostModel())
            return trace.to_json(), report.to_dict()

        trace_a, report_a = run_once()
        trace_b, report_b = run_once()
        assert trace_a == trace_b
        # Full-report equality: token streams, statuses, TTFT/latency
        # series, admission-free counters — everything, to the byte.
        assert report_a == report_b
        assert report_a["clock_mode"] == "simulated"
        assert report_a["num_requests"] == 12

    def test_report_schema_and_accounting(self, tiny_pipeline):
        trace = _trace()
        clock = SimulatedClock()
        engine = _engine(tiny_pipeline, clock=clock)
        report = replay_trace(engine, trace, clock=clock)
        payload = report.to_dict()
        assert payload["schema"] == "repro.traffic.replay.v1"
        assert payload["by_status"] == {"finished": 10}
        assert payload["total_tokens"] == sum(len(o["token_ids"]) for o in payload["outcomes"])
        assert payload["duration_seconds"] > 0
        assert payload["steps"] == report.steps > 0
        for cls in payload["classes"].values():
            assert set(cls["ttft"]) == {"count", "mean", "p50", "p95"}
        # Finished requests expose TTFT and latency in virtual seconds.
        for outcome in report.outcomes:
            assert outcome.ttft_seconds is not None
            assert outcome.latency_seconds >= outcome.ttft_seconds >= 0.0
            assert outcome.token_ids

    def test_token_streams_match_direct_engine_run(self, tiny_pipeline):
        # The replayer adds timing and admission, never token semantics:
        # greedy streams equal a plain engine run over the same prompts.
        trace = _trace(num_requests=6)
        clock = SimulatedClock()
        engine = _engine(tiny_pipeline, clock=clock)
        report = replay_trace(engine, trace, clock=clock)

        reference = _engine(tiny_pipeline)
        from repro.models.generation import GenerationConfig

        for request in trace.requests:
            reference.submit(
                reference.decoder.tokenizer.encode(request.prompt, add_bos=True),
                config=GenerationConfig.greedy_config(max_new_tokens=request.max_new_tokens),
                request_id=request.request_id,
            )
        expected = reference.run()
        for outcome in report.outcomes:
            assert outcome.token_ids == expected[outcome.request_id].token_ids

    def test_prefix_cache_reuse_shows_up_in_report(self, tiny_pipeline):
        trace = _trace(num_requests=8, num_tenants=2, preamble_groups=1, preamble_sentences=4)
        clock = SimulatedClock()
        engine = _engine(tiny_pipeline, clock=clock, prefix_cache=PrefixCache(max_tokens=4096))
        report = replay_trace(engine, trace, clock=clock)
        assert report.prefix_cache["enabled"] is True
        assert report.prefix_cache["prompt_tokens_reused"] > 0

    def test_timestamps_at_virtual_time_zero(self, tiny_pipeline):
        """t=0.0 is a real instant on a simulated clock, not "not yet"."""
        clock = SimulatedClock()
        engine = _engine(tiny_pipeline, clock=clock)
        rid = engine.submit_text("the counter updates.", GenerationConfig.greedy_config(6))
        assert engine.stream_metrics(rid)["ttft_seconds"] is None
        engine.step()  # admitted, prefilled and first burst committed, all at t=0
        first = engine.stream_metrics(rid)
        assert [t for t, _ in first["commit_events"]] == [0.0]
        assert first["ttft_seconds"] == 0.0
        while engine.has_work:
            clock.advance(0.5)
            engine.step()
        metrics = engine.stream_metrics(rid)
        assert len(metrics["commit_events"]) > 1
        assert metrics["ttft_seconds"] == 0.0  # still the first burst, not the second
        # Admitted at t=0, so time in the engine equals time since submission.
        assert engine.result(rid).wall_time_seconds == engine.scheduler_latency(rid) == clock.now > 0

    def test_simulated_clock_mismatch_rejected(self, tiny_pipeline):
        engine = _engine(tiny_pipeline)  # wall clock inside
        with pytest.raises(ValueError, match="share the replay clock"):
            replay_trace(engine, _trace(), clock=SimulatedClock())


class TestChurn:
    def test_scheduled_cancellation_yields_partial_stream(self, tiny_pipeline):
        requests = [
            TraceRequest(
                request_id="keep", arrival_seconds=0.0, tenant="tenant-0",
                traffic_class="interactive", prompt="the counter updates.",
                max_new_tokens=12,
            ),
            TraceRequest(
                request_id="cut", arrival_seconds=0.0, tenant="tenant-0",
                traffic_class="bulk", prompt="the fifo resets on overflow.",
                max_new_tokens=64, cancel_after=0.05,
            ),
        ]
        clock = SimulatedClock()
        engine = _engine(tiny_pipeline, clock=clock)
        report = replay_trace(
            engine,
            _manual_trace(requests),
            clock=clock,
            cost_model=StepCostModel(decode_token_seconds=0.01),
        )
        by_id = {o.request_id: o for o in report.outcomes}
        assert by_id["keep"].status == "finished"
        assert by_id["cut"].status == "cancelled"
        assert len(by_id["cut"].token_ids) < 64
        assert report.by_status() == {"finished": 1, "cancelled": 1}

    def test_deadline_expires_in_virtual_time(self, tiny_pipeline):
        requests = [
            TraceRequest(
                request_id="slow", arrival_seconds=0.0, tenant="tenant-0",
                traffic_class="bulk", prompt="the alu shifts in the next cycle.",
                max_new_tokens=64, deadline_seconds=0.08,
            ),
        ]
        clock = SimulatedClock()
        engine = _engine(tiny_pipeline, clock=clock)
        report = replay_trace(
            engine,
            _manual_trace(requests),
            clock=clock,
            cost_model=StepCostModel(decode_token_seconds=0.02),
        )
        outcome = report.outcomes[0]
        assert outcome.status == "deadline"
        assert len(outcome.token_ids) < 64
        # Virtual expiry is deterministic: the same replay repeats exactly.
        clock2 = SimulatedClock()
        engine2 = _engine(tiny_pipeline, clock=clock2)
        report2 = replay_trace(
            engine2,
            _manual_trace(requests),
            clock=clock2,
            cost_model=StepCostModel(decode_token_seconds=0.02),
        )
        assert report2.to_dict() == report.to_dict()

    @pytest.mark.parametrize(
        "deadline_seconds, cancel_after, expected",
        [(0.04, 0.12, "deadline"), (0.12, 0.04, "cancelled")],
    )
    def test_status_names_what_cut_the_request(
        self, tiny_pipeline, deadline_seconds, cancel_after, expected
    ):
        # The trace generator draws deadlines and cancels independently, so
        # one request can carry both; whichever fires first is the status.
        # "keep" outlives both times, so the replay loop is still running
        # when the later one comes due against an already-settled request.
        requests = [
            TraceRequest(
                request_id="keep", arrival_seconds=0.0, tenant="tenant-0",
                traffic_class="interactive", prompt="the counter updates.",
                max_new_tokens=64,
            ),
            TraceRequest(
                request_id="cut", arrival_seconds=0.0, tenant="tenant-0",
                traffic_class="bulk", prompt="the fifo resets on overflow.",
                max_new_tokens=64, deadline_seconds=deadline_seconds,
                cancel_after=cancel_after,
            ),
        ]
        clock = SimulatedClock()
        engine = _engine(tiny_pipeline, clock=clock)
        report = replay_trace(
            engine,
            _manual_trace(requests),
            clock=clock,
            cost_model=StepCostModel(decode_token_seconds=0.01),
        )
        assert report.duration_seconds > 0.12, "keep must outlive both scheduled times"
        by_id = {o.request_id: o for o in report.outcomes}
        assert by_id["keep"].status == "finished"
        assert by_id["cut"].status == expected
        assert by_id["cut"].latency_seconds < 0.12, "cut at the earlier time"

        reference = _engine(tiny_pipeline)
        for request in requests:
            reference.submit_text(
                request.prompt,
                GenerationConfig.greedy_config(request.max_new_tokens),
                request_id=request.request_id,
            )
        uncut = reference.run()
        assert by_id["keep"].token_ids == uncut["keep"].token_ids
        partial = by_id["cut"].token_ids
        assert len(partial) < len(uncut["cut"].token_ids)
        assert partial == uncut["cut"].token_ids[: len(partial)]

    def test_router_replay_reads_the_record_not_the_trace(self, tiny_pipeline):
        # The router surface the replay touches, with every request already
        # cut: the record, not the trace, says the deadline cut "late".
        records = {}

        def submit(prompt_ids, config, request_id, priority, deadline):
            event = FinishedEvent(
                request_id=request_id, result={"token_ids": [7]}, cancelled=True,
                timed_out=request_id == "late", stream_metrics={"ttft_seconds": 0.5},
                latency_seconds=1.0,
            )
            records[request_id] = RouterRequest(
                request_id, prompt_ids, None, priority, deadline, worker_index=0,
                finished=event, submitted_at=10.0, finished_at=12.5,
            )

        router = SimpleNamespace(
            submit=submit, cancel=lambda rid: False, poll=lambda: None,
            drain=lambda timeout: {}, request_record=records.__getitem__,
            kv_pool_stats=dict, prefix_cache_stats=dict,
        )
        requests = [
            TraceRequest(
                request_id=rid, arrival_seconds=0.0, tenant="tenant-0",
                traffic_class="bulk", prompt="the fifo resets on overflow.",
                max_new_tokens=8, deadline_seconds=5.0, cancel_after=0.0,
            )
            for rid in ("late", "cut")
        ]
        report = replay_trace_router(router, _manual_trace(requests), tiny_pipeline.tokenizer)
        assert {o.request_id: o.status for o in report.outcomes} == {
            "late": "deadline", "cut": "cancelled",
        }
        # The router's own span, which counts a crash requeue; the worker's
        # latency_seconds (1.0) does not.
        assert {o.latency_seconds for o in report.outcomes} == {2.5}
        assert {o.ttft_seconds for o in report.outcomes} == {0.5}


class TestOneStatusRule:
    def test_front_ends_agree_on_statuses_and_tokens(self, tiny_pipeline):
        """The synchronous, async and router replays read each request's
        finished event through one rule, so one trace gives one outcome."""
        cut = TraceRequest(
            request_id="cut", arrival_seconds=0.0, tenant="tenant-0",
            traffic_class="bulk", prompt="the fifo resets on overflow.",
            max_new_tokens=200, cancel_after=0.0,
        )
        trace = _manual_trace(_trace(num_requests=4, requests_per_second=200.0).requests + [cut])

        async def in_process():
            async with AsyncServingEngine(_engine(tiny_pipeline)) as server:
                return await replay_trace_async(server, trace)

        router = Router(lambda: _engine(tiny_pipeline), config=RouterConfig(num_workers=1, start_method="fork"))
        with router:
            routed = replay_trace_router(router, trace, tiny_pipeline.tokenizer)
        reports = [replay_trace(_engine(tiny_pipeline), trace, clock=WallClock()), asyncio.run(in_process()), routed]

        reference = _engine(tiny_pipeline)
        for request in trace.requests:
            reference.submit_text(
                request.prompt,
                GenerationConfig.greedy_config(request.max_new_tokens),
                request_id=request.request_id,
            )
        uncut = reference.run()
        expected = {request.request_id: "finished" for request in trace.requests}
        expected["cut"] = "cancelled"
        uncut_totals = []
        for report in reports:
            assert {o.request_id: o.status for o in report.outcomes} == expected
            # One view serves every front-end: the dashboard built from each
            # report counts the same settled requests and committed tokens.
            # How much "cut" commits before its cancel lands depends on the
            # front-end's timing, so its stream is set aside.
            snapshot = build_snapshot(report.stream_metrics.values(), window_seconds=report.duration_seconds)
            assert snapshot.finished_requests == len(trace.requests)
            committed = snapshot.tokens_per_second * report.duration_seconds
            assert committed == pytest.approx(report.total_tokens)
            cut_tokens = next(len(o.token_ids) for o in report.outcomes if o.request_id == "cut")
            uncut_totals.append(committed - cut_tokens)
            for outcome in report.outcomes:
                whole = uncut[outcome.request_id].token_ids
                if outcome.status == "finished":
                    assert outcome.token_ids == whole
                else:
                    assert len(outcome.token_ids) < len(whole)
                    assert outcome.token_ids == whole[: len(outcome.token_ids)]
                assert outcome.latency_seconds is not None
        assert uncut_totals == pytest.approx([uncut_totals[0]] * 3)
        assert snapshot.ttft_p50 > 0.0, "the router's events carry their stream metrics"


class TestAdmissionInReplay:
    def test_overload_sheds_only_bulk(self, tiny_pipeline):
        # Poisson 16 req/s over a 2-slot engine, 40 % interactive: bulk is
        # what overloads it.  aging_rounds=1 lets a queued bulk backlog age
        # into the interactive band, which is the degradation shedding bulk
        # prevents; the detector trips at 0.03 s, well inside the 0.5 s
        # operator-facing target.  Virtual time, so exact per seed.
        target = 0.5
        trace = _trace(
            num_requests=32,
            seed=42,
            requests_per_second=16.0,
            interactive_fraction=0.4,
            max_new_token_choices=(8, 16),
        )

        def replay(admission):
            clock = SimulatedClock()
            return replay_trace(
                _engine(
                    tiny_pipeline, clock=clock, max_active=2,
                    priorities=PriorityConfig(aging_rounds=1),
                ),
                trace,
                clock=clock,
                cost_model=StepCostModel(decode_token_seconds=0.004),
                admission=admission,
            )

        report = replay(
            AdmissionController(
                SLOConfig(
                    target_p95_ttft=0.03, window_seconds=5.0, recover_under=0.5,
                    min_samples=2, tenant_rate=400.0, tenant_burst=128.0,
                )
            )
        )
        shed = [o for o in report.outcomes if o.status == "shed"]
        assert shed, "overload scenario should shed some bulk traffic"
        assert all(o.traffic_class == "bulk" for o in shed)
        interactive = report.class_summary("interactive")
        assert interactive["shed"] == 0
        assert report.admission is not None
        assert report.admission["breach_count"] >= 1
        # Every request is accounted for exactly once.
        assert len(report.outcomes) == 32

        # The SLO holds only with admission: the same trace with every
        # request accepted sheds nothing and blows the target.
        without = replay(None)
        assert without.by_status().get("shed", 0) == 0
        assert (
            interactive["ttft"]["p95"]
            <= target
            < without.class_summary("interactive")["ttft"]["p95"]
        )

    def test_defer_retries_eventually_admit(self, tiny_pipeline):
        # Tight per-tenant bucket, no SLO pressure: requests defer, then
        # admit as the bucket refills — nobody is lost or shed.
        trace = _trace(num_requests=6, num_tenants=1, preamble_groups=1,
                       requests_per_second=500.0, max_new_token_choices=(8,))
        clock = SimulatedClock()
        engine = _engine(tiny_pipeline, clock=clock)
        admission = AdmissionController(
            SLOConfig(target_p95_ttft=10.0, tenant_rate=40.0, tenant_burst=16.0)
        )
        report = replay_trace(engine, trace, clock=clock, admission=admission)
        assert report.by_status() == {"finished": 6}
        assert sum(o.defer_count for o in report.outcomes) > 0
        tenants = report.admission["tenants"]
        assert tenants["tenant-0"]["deferred"] > 0
        assert tenants["tenant-0"]["shed"] == 0


class TestTtftFeed:
    def test_each_interactive_ttft_is_read_once(self, tiny_pipeline, monkeypatch):
        """The admission feed reads a request's TTFT once, when it first commits.

        One slot, a long bulk request first, interactive requests queued
        behind it: polling every queued flight after every step would read
        each of them once per step while they wait.
        """
        from repro.traffic import replay as replay_module

        requests = [
            TraceRequest(
                request_id="long", arrival_seconds=0.0, tenant="tenant-0",
                traffic_class="bulk", prompt="the fifo resets on overflow.",
                max_new_tokens=48,
            )
        ] + [
            TraceRequest(
                request_id=f"i{index}", arrival_seconds=0.001 * (index + 1), tenant="tenant-1",
                traffic_class="interactive", prompt="the counter updates.", max_new_tokens=4,
            )
            for index in range(4)
        ]
        clock = SimulatedClock()
        engine = _engine(tiny_pipeline, clock=clock, max_active=1)
        from_replay = []
        original = engine.stream_metrics

        def spy(request_id):
            if sys._getframe(1).f_code.co_filename == replay_module.__file__:
                from_replay.append(request_id)
            return original(request_id)

        monkeypatch.setattr(engine, "stream_metrics", spy)
        admission = AdmissionController(SLOConfig(target_p95_ttft=10.0, tenant_rate=1e6, tenant_burst=1e6))
        observed = []
        monkeypatch.setattr(admission, "observe_ttft", lambda ttft, now: observed.append(ttft))
        report = replay_trace(engine, _manual_trace(requests), clock=clock, admission=admission)
        assert report.by_status() == {"finished": 5}
        assert report.steps > 10, "the interactive requests must wait behind the long one"
        assert len(from_replay) <= 4
        assert len(set(from_replay)) == len(from_replay)
        assert set(from_replay) <= {"i0", "i1", "i2", "i3"}
        assert observed == [o.ttft_seconds for o in report.outcomes if o.traffic_class == "interactive"]


class TestWallClockReplay:
    def test_wall_clock_sync_replay(self, tiny_pipeline):
        trace = _trace(num_requests=4, requests_per_second=200.0)
        engine = _engine(tiny_pipeline)
        report = replay_trace(engine, trace, clock=WallClock())
        assert report.clock_mode == "wall"
        assert report.by_status() == {"finished": 4}

    def test_async_front_end_replay(self, tiny_pipeline):
        generated = _trace(num_requests=4, requests_per_second=200.0)
        churn = [
            TraceRequest(
                request_id="cut", arrival_seconds=0.0, tenant="tenant-0",
                traffic_class="bulk", prompt="the fifo resets on overflow.",
                max_new_tokens=200, cancel_after=0.0,
            ),
            TraceRequest(
                request_id="late", arrival_seconds=0.0, tenant="tenant-0",
                traffic_class="bulk", prompt="the alu shifts in the next cycle.",
                max_new_tokens=200, deadline_seconds=5.0,
            ),
        ]
        trace = _manual_trace(generated.requests + churn)

        def clock() -> float:
            # Engine time stands still until "late" has committed its first
            # burst, then jumps past its deadline: the expiry lands
            # mid-decode whatever the host's speed.
            state = engine._states.get("late")
            return 10.0 if state is not None and state.output_ids else 0.0

        engine = _engine(tiny_pipeline, clock=clock)

        async def main():
            server = AsyncServingEngine(engine)
            server.start()
            try:
                return await replay_trace_async(server, trace)
            finally:
                await server.close(cancel_pending=True)

        report = asyncio.run(main())
        assert report.clock_mode == "wall"
        assert report.by_status() == {"finished": 4, "cancelled": 1, "deadline": 1}
        by_id = {o.request_id: o for o in report.outcomes}
        for request in generated.requests:
            outcome = by_id[request.request_id]
            assert outcome.token_ids
            assert outcome.ttft_seconds is not None
        assert by_id["cut"].status == "cancelled"
        assert by_id["late"].status == "deadline"
        # Greedy decoding is batch-invariant, so each partial stream is a
        # prefix of what the same request commits when left alone.
        reference = _engine(tiny_pipeline)
        for request in churn:
            reference.submit_text(
                request.prompt,
                GenerationConfig.greedy_config(request.max_new_tokens),
                request_id=request.request_id,
            )
        uncut = reference.run()
        for rid in ("cut", "late"):
            partial = by_id[rid].token_ids
            assert len(partial) < len(uncut[rid].token_ids)
            assert partial == uncut[rid].token_ids[: len(partial)]
        assert by_id["late"].token_ids, "the deadline expired after the first burst"

    def test_async_replay_reads_the_engine_only_on_the_step_thread(self, tiny_pipeline, monkeypatch):
        """Metrics and stats go through the server's inbox, answered by the thread that owns the engine."""
        trace = _trace(num_requests=4, requests_per_second=200.0)
        engine = _engine(tiny_pipeline)
        calls = []
        for name in ("stream_metrics", "scheduler_latency", "kv_pool_stats", "prefix_cache_stats"):
            original = getattr(engine, name)

            def spy(*args, _name=name, _original=original):
                calls.append((_name, threading.current_thread()))
                return _original(*args)

            monkeypatch.setattr(engine, name, spy)

        async def main():
            server = AsyncServingEngine(engine)
            server.start()
            try:
                return await replay_trace_async(server, trace), server._thread
            finally:
                await server.close(cancel_pending=True)

        report, step_thread = asyncio.run(main())
        assert report.by_status() == {"finished": 4}
        # stream_metrics is read once per request, to build its finished
        # event; latency comes from that event, not from a query.
        assert {name for name, _ in calls} == {"stream_metrics", "kv_pool_stats", "prefix_cache_stats"}
        assert step_thread is not None
        assert [name for name, thread in calls if thread is not step_thread] == []
        with pytest.raises(ValueError, match="unknown query kind 'scheduler_latency'"):
            asyncio.run(_query(engine, "scheduler_latency"))


async def _query(engine, kind):
    async with AsyncServingEngine(engine) as server:
        await server.query(kind)
