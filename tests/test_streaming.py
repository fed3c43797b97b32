"""Tests for the async streaming front-end, cancellation and priorities.

The streaming layer's core guarantee is that it is **observation-only**: the
concatenation of streamed bursts equals the batch ``result().token_ids``
byte-for-byte, for every decode mode the engine supports (NTP/Medusa/Ours ×
greedy/sampling × chunked prefill × prefix reuse).
Cancellation must free a request's scheduler budget and cache rows in the
same step whatever its status — queued, mid-prefill or mid-decode — and
deadlines surface as :class:`RequestDeadlineExceeded` on the handle.
"""

from __future__ import annotations

import asyncio
import sys
import threading

import pytest

from repro.core.decoding import DecodeResult, DecodingStrategy, SpeculativeDecoder
from repro.models.generation import GenerationConfig
from repro.serving import (
    AsyncServingEngine,
    PrefixCache,
    PriorityConfig,
    RequestCancelled,
    RequestDeadlineExceeded,
    RequestStatus,
    SchedulerConfig,
    ServingEngine,
    StreamHandle,
)
from repro.serving.messages import CancelCommand, FinishedEvent, QueryCommand, QueryReply, encode_result
from repro.traffic import SimulatedClock

METHODS = [
    ("ntp", DecodingStrategy.NTP),
    ("medusa", DecodingStrategy.MEDUSA),
    ("ours", DecodingStrategy.OURS),
]

LONG_PROMPT = (
    "module long_streaming_block (input clk, input rst, input [7:0] data_in, "
    "output reg [7:0] data_out);"
)


def _prompts(pipeline, count):
    prompts = [example.prompt_text() for example in pipeline.examples]
    return (prompts * (count // max(len(prompts), 1) + 1))[:count]


def _engine(pipeline, method, strategy, prefix_cache=None, clock=None, **scheduler_kwargs):
    return ServingEngine(
        SpeculativeDecoder(pipeline.models[method], pipeline.tokenizer, strategy=strategy),
        scheduler_config=SchedulerConfig(**scheduler_kwargs) if scheduler_kwargs else None,
        prefix_cache=prefix_cache,
        clock=clock,
    )


async def _stream_all(engine, prompts, configs):
    """Submit every prompt, consume every stream concurrently; return streams+results."""
    streamed = [[] for _ in prompts]
    async with AsyncServingEngine(engine) as server:
        handles = [await server.submit_text(p, c) for p, c in zip(prompts, configs)]

        async def consume(index, handle):
            async for burst in handle.stream():
                assert burst, "empty burst streamed"
                streamed[index].extend(burst)
            return await handle.result()

        results = list(await asyncio.gather(*(consume(i, h) for i, h in enumerate(handles))))
    return streamed, results


class TestStreamingEquivalence:
    """Streamed bursts must concatenate to exactly the batch result tokens."""

    @pytest.mark.parametrize("method,strategy", METHODS)
    def test_stream_matches_result_greedy_and_sampling(self, tiny_pipeline, method, strategy):
        prompts = _prompts(tiny_pipeline, 6)
        configs = [
            GenerationConfig.greedy_config(18)
            if index % 2 == 0
            else GenerationConfig.sampling_config(0.8, 16, seed=index)
            for index in range(len(prompts))
        ]
        decoder = tiny_pipeline.decoder_for(method)
        sequential = [decoder.generate_from_text(p, c) for p, c in zip(prompts, configs)]

        engine = _engine(tiny_pipeline, method, strategy, max_active_requests=3)
        streamed, results = asyncio.run(_stream_all(engine, prompts, configs))

        for tokens, result, expected in zip(streamed, results, sequential):
            assert tokens == result.token_ids == expected.token_ids
            assert not result.cancelled

    @pytest.mark.parametrize("method,strategy", METHODS)
    def test_stream_matches_result_chunked_prefill_and_prefix_reuse(
        self, tiny_pipeline, method, strategy
    ):
        preamble = "// Task: implement the following Verilog module exactly as specified.\n"
        prompts = [preamble + p for p in _prompts(tiny_pipeline, 4)] * 2
        config = GenerationConfig.greedy_config(12)
        decoder = tiny_pipeline.decoder_for(method)
        sequential = [decoder.generate_from_text(p, config) for p in prompts]

        engine = _engine(
            tiny_pipeline, method, strategy,
            prefix_cache=PrefixCache(max_tokens=4096),
            max_active_requests=2, max_prefill_tokens_per_step=5,
        )
        streamed, results = asyncio.run(_stream_all(engine, prompts, [config] * len(prompts)))
        for tokens, result, expected in zip(streamed, results, sequential):
            assert tokens == result.token_ids == expected.token_ids
        assert engine.prefix_cache_stats()["hits"] > 0

    def test_bursts_match_step_records(self, tiny_pipeline):
        """Each streamed burst is exactly one step's committed run."""
        engine = _engine(tiny_pipeline, "ours", DecodingStrategy.OURS)
        config = GenerationConfig.greedy_config(16)

        async def run():
            async with AsyncServingEngine(engine) as server:
                handle = await server.submit_text(_prompts(tiny_pipeline, 1)[0], config)
                bursts = [burst async for burst in handle.stream()]
                return bursts, await handle.result()

        bursts, result = asyncio.run(run())
        assert [len(burst) for burst in bursts] == [r.committed for r in result.step_records]

    def test_stream_metrics_series(self, tiny_pipeline):
        """TTFT is positive and the inter-token series covers every token
        after the first burst (the series is the smoothed per-token rate)."""
        engine = _engine(tiny_pipeline, "ours", DecodingStrategy.OURS)
        config = GenerationConfig.greedy_config(12)
        request_id = engine.submit_text(_prompts(tiny_pipeline, 1)[0], config)
        engine.run()
        metrics = engine.stream_metrics(request_id)
        result = engine.result(request_id)
        assert metrics["ttft_seconds"] > 0.0
        first_burst = metrics["commit_events"][0][1]
        assert len(metrics["inter_token_seconds"]) == result.tokens_generated - first_burst
        assert sum(n for _, n in metrics["commit_events"]) == result.tokens_generated
        # The series integrates back to the first-to-last commit span.
        span = metrics["commit_events"][-1][0] - metrics["commit_events"][0][0]
        assert abs(sum(metrics["inter_token_seconds"]) - span) < 1e-9


class TestCancellation:
    """Cancellation frees budget and rows immediately, in every status."""

    def test_cancel_queued_releases_slot_same_step(self, tiny_pipeline):
        engine = _engine(tiny_pipeline, "ours", DecodingStrategy.OURS, max_active_requests=1)
        config = GenerationConfig.greedy_config(8)
        first = engine.submit_text(_prompts(tiny_pipeline, 1)[0], config)
        queued = engine.submit_text(LONG_PROMPT, config)
        engine.step()
        assert engine.request_status(queued) is RequestStatus.QUEUED
        assert engine.cancel(queued)
        assert engine.request_status(queued) is RequestStatus.CANCELLED
        assert engine.scheduler.num_waiting == 0
        result = engine.run()[queued]
        assert result.cancelled and result.token_ids == []
        # Regression: a request cancelled before admission never started, so
        # its wall time is 0.0 — not finished_at minus an unstamped 0.0
        # started_at (which froze the absolute perf_counter value).
        assert result.wall_time_seconds == 0.0
        assert engine.result(first).tokens_generated > 0

    def test_cancel_prefilling_releases_budget_and_prefix_pin_same_step(self, tiny_pipeline):
        """Regression (satellite fix): a PREFILLING cancel must free its
        ``tokens_in_flight`` footprint and drop the private row holding the
        spliced prefix-cache K/V immediately — not wait for retirement."""
        cache = PrefixCache(max_tokens=4096)
        engine = _engine(
            tiny_pipeline, "ours", DecodingStrategy.OURS,
            prefix_cache=cache,
            max_active_requests=1, max_prefill_tokens_per_step=2,
        )
        config = GenerationConfig.greedy_config(6)
        # Seed the prefix cache so the victim's admission splices a segment.
        seed = engine.submit_text(LONG_PROMPT, config)
        engine.run()
        assert engine.result(seed).tokens_generated >= 0

        # Shares the retained preamble but has a long unshared suffix, so it
        # stays PREFILLING for many 2-token chunks after the splice.
        victim = engine.submit_text(
            LONG_PROMPT + " always @(posedge clk) begin data_out <= data_in; end endmodule",
            config,
        )
        engine.step()  # admits; 2-token chunks keep it PREFILLING
        state = engine._states[victim]
        assert state.status is RequestStatus.PREFILLING
        assert state.tokens_reused > 0, "prefix splice did not happen"
        assert state.row_cache is not None
        assert engine.scheduler.tokens_in_flight > 0

        waiting = engine.submit_text(_prompts(tiny_pipeline, 1)[0], config)
        assert engine.cancel(victim)
        # Same step: footprint freed, private row (and its spliced prefix
        # copy) dropped, prefill queue emptied.
        assert engine.scheduler.tokens_in_flight == 0
        assert state.row_cache is None
        assert engine.num_prefilling == 0
        assert state.status is RequestStatus.CANCELLED
        # The freed budget admits the queued request on the very next step.
        engine.step()
        assert engine.request_status(waiting) in (RequestStatus.PREFILLING, RequestStatus.RUNNING)
        results = engine.run()
        assert results[victim].cancelled
        assert not results[waiting].cancelled

    def test_cancel_running_keeps_prefix_of_sequential(self, tiny_pipeline):
        prompts = _prompts(tiny_pipeline, 2)
        config = GenerationConfig.greedy_config(24)
        decoder = tiny_pipeline.decoder_for("ours")
        expected = decoder.generate_from_text(prompts[0], config)

        engine = _engine(tiny_pipeline, "ours", DecodingStrategy.OURS, max_active_requests=2)
        victim = engine.submit_text(prompts[0], config)
        survivor = engine.submit_text(prompts[1], config)
        for _ in range(3):
            engine.step()
        assert engine.request_status(victim) is RequestStatus.RUNNING
        rows_before = engine._cache.batch
        assert engine.cancel(victim)
        # The shared-cache row is reclaimed in the same step, not at retirement.
        assert engine._cache.batch == rows_before - 1
        assert engine.num_active == 1
        results = engine.run()
        partial = results[victim]
        assert partial.cancelled
        assert 0 < partial.tokens_generated < expected.tokens_generated or partial.token_ids == expected.token_ids
        assert partial.token_ids == expected.token_ids[: len(partial.token_ids)]
        # The surviving request is unaffected by its neighbour's cancellation.
        assert results[survivor].token_ids == decoder.generate_from_text(prompts[1], config).token_ids

    def test_cancel_finished_is_noop_and_double_cancel(self, tiny_pipeline):
        engine = _engine(tiny_pipeline, "ntp", DecodingStrategy.NTP)
        config = GenerationConfig.greedy_config(4)
        done = engine.submit_text("module m", config)
        engine.run()
        assert engine.cancel(done) is False  # already finished: no-op
        assert not engine.result(done).cancelled

        victim = engine.submit_text("module n", GenerationConfig.greedy_config(64))
        engine.step()
        assert engine.cancel(victim) is True
        assert engine.cancel(victim) is False  # double-cancel: no-op
        assert engine.result(victim).cancelled

    def test_cancel_unknown_id_raises(self, tiny_pipeline):
        engine = _engine(tiny_pipeline, "ntp", DecodingStrategy.NTP)
        with pytest.raises(KeyError):
            engine.cancel("nope")

    def test_forget_releases_settled_state(self, tiny_pipeline):
        """Long-lived servers can drop settled bookkeeping via engine.forget."""
        engine = _engine(tiny_pipeline, "ntp", DecodingStrategy.NTP)
        config = GenerationConfig.greedy_config(3)
        rid = engine.submit_text("module m", config)
        with pytest.raises(ValueError, match="in flight"):
            engine.forget(rid)  # still queued
        engine.run()
        result = engine.forget(rid)
        assert result.tokens_generated > 0
        with pytest.raises(KeyError):
            engine.result(rid)
        with pytest.raises(KeyError):
            engine.stream_metrics(rid)
        # The id is unknown again; auto-ids may legitimately reuse it.
        rid2 = engine.submit_text("module m", config, request_id=rid)
        engine.run()
        assert engine.result(rid2).tokens_generated > 0

    def test_forget_prunes_deadline_watch_list(self, tiny_pipeline):
        """Deadline-carrying requests leave the watch list on forget, not
        only at the next step (an idle server never steps)."""
        engine = _engine(tiny_pipeline, "ntp", DecodingStrategy.NTP)
        rid = engine.submit_text("module m", GenerationConfig.greedy_config(3), deadline=60.0)
        assert len(engine._deadlined) == 1
        engine.run()
        engine.forget(rid)
        assert engine._deadlined == []

    def test_broken_commit_listener_does_not_abort_the_step(self, tiny_pipeline):
        """Observation-only is enforced: a raising listener is dropped and
        the batch (including other requests) completes normally."""
        prompts = _prompts(tiny_pipeline, 2)
        config = GenerationConfig.greedy_config(8)
        decoder = tiny_pipeline.decoder_for("ours")
        expected = [decoder.generate_from_text(p, config) for p in prompts]

        engine = _engine(tiny_pipeline, "ours", DecodingStrategy.OURS, max_active_requests=2)
        ids = [engine.submit_text(p, config) for p in prompts]
        calls = []

        def broken(burst):
            calls.append(burst)
            raise RuntimeError("observer exploded")

        engine.attach_listeners(ids[0], on_commit=broken)
        results = engine.run()
        assert len(calls) == 1  # dropped after its first failure
        for rid, exp in zip(ids, expected):
            assert results[rid].token_ids == exp.token_ids

    def test_deadline_expires_queued_request(self, tiny_pipeline):
        """A deadline fires even while the request is still waiting in queue."""
        engine = _engine(tiny_pipeline, "ours", DecodingStrategy.OURS, max_active_requests=1)
        blocker = engine.submit_text(_prompts(tiny_pipeline, 1)[0], GenerationConfig.greedy_config(48))
        doomed = engine.submit_text(LONG_PROMPT, GenerationConfig.greedy_config(8), deadline=1e-6)
        results = engine.run()
        assert results[doomed].cancelled and results[doomed].token_ids == []
        assert engine._states[doomed].timed_out
        assert not results[blocker].cancelled

    def test_submit_rejects_non_positive_deadline(self, tiny_pipeline):
        engine = _engine(tiny_pipeline, "ntp", DecodingStrategy.NTP)
        with pytest.raises(ValueError, match="deadline"):
            engine.submit([1, 2], deadline=0.0)


class TestAsyncCancellation:
    """Handle-level cancellation/timeout semantics of the async front-end.

    The mid-decode cancels below are issued relative to the request's own
    progress (a burst has arrived), never after a wall-clock sleep, and run
    on the NTP engine: one token per step leaves ~200 steps of the context
    window still to go, and the step thread drains its inbox before every
    step, so the cancel lands after at most one of them, however fast the
    machine or the decode kernel is.
    """

    def test_own_cancel_ends_stream_quietly_result_raises(self, tiny_pipeline):
        engine = _engine(tiny_pipeline, "ntp", DecodingStrategy.NTP)

        async def run():
            async with AsyncServingEngine(engine) as server:
                handle = await server.submit_text(
                    _prompts(tiny_pipeline, 1)[0], GenerationConfig.greedy_config(500)
                )
                collected = []
                cancelled = False
                async for burst in handle.stream():
                    collected.extend(burst)
                    # Bursts committed before the cancel landed may still
                    # arrive afterwards; only the first cancel returns True.
                    if len(collected) >= 4 and not cancelled:
                        assert handle.cancel()
                        cancelled = True
                with pytest.raises(RequestCancelled) as info:
                    await handle.result()
                return collected, info.value

        collected, error = asyncio.run(run())
        assert error.partial.cancelled
        # The stream delivered every committed burst, including any that
        # landed in the same step the cancel raced with.
        assert collected == error.partial.token_ids[: len(collected)]
        assert error.partial.tokens_generated >= len(collected)

    def test_foreign_cancel_raises_in_stream(self, tiny_pipeline):
        engine = _engine(tiny_pipeline, "ntp", DecodingStrategy.NTP)

        async def run():
            async with AsyncServingEngine(engine) as server:
                handle = await server.submit_text(
                    _prompts(tiny_pipeline, 1)[0], GenerationConfig.greedy_config(500)
                )
                decoding = asyncio.Event()

                async def chop():
                    # The cancel comes from outside the handle (an operator
                    # or admission-control path) through the step thread's
                    # inbox, so the stream must raise.
                    await decoding.wait()
                    reply = await asyncio.wrap_future(server._send(CancelCommand(request_id=handle.request_id)))
                    assert reply.cancelled

                async def consume():
                    with pytest.raises(RequestCancelled):
                        async for _ in handle.stream():
                            decoding.set()

                await asyncio.gather(chop(), consume())

        asyncio.run(run())

    def test_deadline_raises_deadline_exceeded(self, tiny_pipeline):
        # The engine's clock stands still until the first burst has arrived
        # and then jumps past the deadline, so the expiry lands mid-decode on
        # any machine.
        clock = SimulatedClock()
        engine = _engine(tiny_pipeline, "ntp", DecodingStrategy.NTP, clock=clock)

        async def run():
            async with AsyncServingEngine(engine) as server:
                handle = await server.submit_text(
                    _prompts(tiny_pipeline, 1)[0],
                    GenerationConfig.greedy_config(5000),
                    deadline=0.03,
                )
                async for _ in handle.stream():
                    break
                clock.advance(1.0)
                with pytest.raises(RequestDeadlineExceeded) as info:
                    await handle.result()
                return info.value

        error = asyncio.run(run())
        assert isinstance(error, RequestCancelled)  # subclass: one except catches both
        assert error.partial.cancelled
        assert 1 <= error.partial.tokens_generated < 200

    def test_cancel_after_finish_returns_false(self, tiny_pipeline):
        engine = _engine(tiny_pipeline, "ntp", DecodingStrategy.NTP)

        async def run():
            async with AsyncServingEngine(engine) as server:
                handle = await server.submit_text("module m", GenerationConfig.greedy_config(3))
                result = await handle.result()
                assert handle.cancel() is False
                assert (await handle.result()).token_ids == result.token_ids

        asyncio.run(run())

    def test_step_crash_fails_handles_instead_of_hanging(self, tiny_pipeline):
        """An exception inside engine.step() must propagate to consumers —
        a silently dead step thread would strand result()/stream() forever."""
        engine = _engine(tiny_pipeline, "ours", DecodingStrategy.OURS)

        def bad_step():
            raise RuntimeError("boom: forward exploded")

        engine.step = bad_step

        async def run():
            server = AsyncServingEngine(engine)
            server.start()
            handle = await server.submit_text("module m", GenerationConfig.greedy_config(4))
            with pytest.raises(RuntimeError, match="boom"):
                await handle.result()
            with pytest.raises(RuntimeError, match="boom"):
                async for _ in handle.stream():
                    pass
            assert server._registry == {}  # failed handles are not retained
            # A crashed server refuses new work instead of queueing it forever.
            with pytest.raises(RuntimeError, match="crashed"):
                await server.submit_text("module n", GenerationConfig.greedy_config(4))
            with pytest.raises(RuntimeError, match="crashed"):
                server.start()
            await server.close()

        asyncio.run(run())

    def test_crash_in_the_first_step_after_a_submit_fails_its_handle(self, tiny_pipeline):
        """The step thread answers a submit and steps in one pump: the handle
        is registered before the crash is dispatched, so the crash fails it
        instead of stranding it, and every later call is refused."""
        engine = _engine(tiny_pipeline, "ours", DecodingStrategy.OURS)

        async def run():
            async with AsyncServingEngine(engine) as server:
                first = await server.submit_text("module m", GenerationConfig.greedy_config(4))
                assert (await first.result()).token_ids  # a healthy step thread first
                assert not engine.has_work  # so the next step is the submit's own

                def bad_step():
                    raise RuntimeError("boom: first step after the submit")

                engine.step = bad_step
                handle = await server.submit_text("module n", GenerationConfig.greedy_config(4))
                with pytest.raises(RuntimeError, match="boom"):
                    await handle.result()
                assert server._registry == {}
                with pytest.raises(RuntimeError, match="crashed"):
                    await server.submit_text("module o", GenerationConfig.greedy_config(4))
                with pytest.raises(RuntimeError, match="crashed"):
                    server._send(CancelCommand(request_id=handle.request_id))

        asyncio.run(run())

    def test_a_crash_outside_the_step_fails_every_handle(self, tiny_pipeline, monkeypatch):
        """Anything that escapes the step thread's loop, not only a failing
        engine step, takes the crash path: every in-flight handle fails with
        it and every later call is refused instead of waiting forever."""
        engine = _engine(tiny_pipeline, "ntp", DecodingStrategy.NTP)
        real_on_done = StreamHandle._on_done

        def on_done(handle, event):
            if event.request_id == "short":
                raise RuntimeError("boom: fan-out exploded")
            real_on_done(handle, event)

        monkeypatch.setattr(StreamHandle, "_on_done", on_done)

        async def run():
            async with AsyncServingEngine(engine) as server:
                long = await server.submit_text(
                    _prompts(tiny_pipeline, 1)[0], GenerationConfig.greedy_config(500)
                )
                short = await server.submit_text("module m", GenerationConfig.greedy_config(2), request_id="short")
                for handle in (short, long):
                    with pytest.raises(RuntimeError, match="boom"):
                        await handle.result()
                assert server._registry == {}
                assert long.cancel() is False  # settled by the crash: no round trip
                with pytest.raises(RuntimeError, match="crashed"):
                    await server.submit_text("module n", GenerationConfig.greedy_config(2))

        asyncio.run(asyncio.wait_for(run(), 60))

    def test_cancel_async_matches_sync_cancel(self, tiny_pipeline):
        engine = _engine(tiny_pipeline, "ntp", DecodingStrategy.NTP)

        async def run():
            async with AsyncServingEngine(engine) as server:
                handle = await server.submit_text(
                    _prompts(tiny_pipeline, 1)[0], GenerationConfig.greedy_config(500)
                )
                stream = handle.stream()
                assert await stream.__anext__()  # a burst arrived: mid-decode
                assert await handle.cancel_async() is True
                assert await handle.cancel_async() is False  # double-cancel no-op
                # Own cancel: the stream ends quietly, result raises.
                async for _ in stream:
                    pass
                with pytest.raises(RequestCancelled):
                    await handle.result()

        asyncio.run(run())

    def test_settled_handles_are_not_retained(self, tiny_pipeline):
        """A long-lived server forgets handles as they settle (no leak)."""
        engine = _engine(tiny_pipeline, "ntp", DecodingStrategy.NTP)

        async def run():
            async with AsyncServingEngine(engine) as server:
                for index in range(3):
                    handle = await server.submit_text("module m", GenerationConfig.greedy_config(2))
                    await handle.result()
                    assert handle not in server._registry.values()
                assert server._registry == {}

        asyncio.run(run())

    def test_a_running_server_retains_nothing_it_settled(self, tiny_pipeline):
        """Every request a running server settles — finished, past its
        deadline or cancelled mid-decode — is forgotten on the engine; its
        handle keeps the finished event."""
        # Engine time stands still until "late" has its first burst, then
        # jumps past its deadline, so the expiry lands mid-decode.
        clock = SimulatedClock()
        engine = _engine(tiny_pipeline, "ntp", DecodingStrategy.NTP, clock=clock)
        prompt = _prompts(tiny_pipeline, 1)[0]

        async def run():
            async with AsyncServingEngine(engine) as server:
                short = [
                    await server.submit_text(text, GenerationConfig.greedy_config(6))
                    for text in _prompts(tiny_pipeline, 6)
                ]
                victim = await server.submit_text(prompt, GenerationConfig.greedy_config(500))
                late = await server.submit_text(prompt, GenerationConfig.greedy_config(500), deadline=0.03)
                async for _ in victim.stream():
                    break
                assert await victim.cancel_async()
                async for _ in late.stream():
                    break
                clock.advance(1.0)
                for handle in short:
                    await handle.result()
                with pytest.raises(RequestDeadlineExceeded):
                    await late.result()
                with pytest.raises(RequestCancelled):
                    await victim.result()
                stats = await server.query("stats")
                assert stats["queue_depth"] == stats["num_active"] == 0 and not stats["has_work"]
                return short, victim, late

        short, victim, late = asyncio.run(run())
        assert [h.finished.cancelled for h in short] == [False] * 6
        assert victim.finished.cancelled and not victim.finished.timed_out
        assert late.finished.cancelled and late.finished.timed_out
        assert all(h.finished.latency_seconds >= 0.0 for h in short + [victim, late])
        assert not engine._states and not engine._results and not engine._deadlined
        assert not engine.scheduler.waiting and not engine.scheduler.running
        assert engine.scheduler.tokens_in_flight == 0
        assert engine.kv_pool_stats()["blocks_in_use"] == 0
        with pytest.raises(KeyError):
            engine.result(short[0].request_id)

    def test_close_cancels_pending(self, tiny_pipeline):
        """Closing the server unblocks consumers instead of hanging them."""
        engine = _engine(tiny_pipeline, "ours", DecodingStrategy.OURS, max_active_requests=1)

        async def run():
            server = AsyncServingEngine(engine)
            server.start()
            blocker = await server.submit_text(
                _prompts(tiny_pipeline, 1)[0], GenerationConfig.greedy_config(2000)
            )
            async for _ in blocker.stream():
                break  # decoding has begun; most of the context window is still to go
            await server.close()
            with pytest.raises(RequestCancelled):
                await blocker.result()

        asyncio.run(run())


class TestOneOwner:
    """While it runs, the step thread owns the engine; after a close joins
    it, the caller does, and answers whatever was still queued."""

    def test_close_answers_the_calls_still_queued(self, tiny_pipeline):
        engine = _engine(tiny_pipeline, "ntp", DecodingStrategy.NTP)
        config = GenerationConfig.greedy_config(500)
        prompt = _prompts(tiny_pipeline, 1)[0]
        inside, release = threading.Event(), threading.Event()
        real_step = engine.step

        def held_step():
            inside.set()
            release.wait()
            return real_step()

        engine.step = held_step

        async def run():
            loop = asyncio.get_running_loop()
            server = AsyncServingEngine(engine)
            server.start()
            first = asyncio.ensure_future(server.submit_text(prompt, config))
            await loop.run_in_executor(None, inside.wait)  # the step thread is mid-step
            second = asyncio.ensure_future(server.submit_text(prompt, config))
            await asyncio.sleep(0)  # the second submit is queued behind that step
            closing = loop.run_in_executor(None, server.shutdown)
            while server._inbox._open:  # shutdown closed the inbox; the thread is still mid-step
                await asyncio.sleep(0)
            release.set()
            await closing
            handles = [await first, await second]  # answered by the thread, then by shutdown
            for handle in handles:
                with pytest.raises(RequestCancelled):
                    await handle.result()
            assert server._registry == {}
            assert not engine.has_work
            with pytest.raises(RuntimeError, match="not running"):
                await server.submit_text(prompt, config)

        asyncio.run(run())

    def test_a_second_closer_waits_for_the_step_thread(self, tiny_pipeline):
        """A shutdown() from another thread while close() awaits the join
        joins the step thread too: neither closer pumps the engine while the
        step thread still owns it."""
        engine = _engine(tiny_pipeline, "ntp", DecodingStrategy.NTP)
        server = AsyncServingEngine(engine)
        inside, release = threading.Event(), threading.Event()
        real_step, real_pump = engine.step, server.control.pump
        foreign_pumps = []

        def held_step():
            inside.set()
            release.wait()
            return real_step()

        def spied_pump(commands):
            if threading.current_thread() is not step_thread and step_thread.is_alive():
                foreign_pumps.append(commands)
                release.set()  # let the test finish and report the overlap
            return real_pump(commands)

        engine.step, server.control.pump = held_step, spied_pump
        server.start()
        step_thread = server._thread
        real_join, joins = step_thread.join, []

        def counted_join(*args):
            joins.append(threading.current_thread())
            if len(joins) == 2:  # both closers are joining: let the step finish
                release.set()
            return real_join(*args)

        step_thread.join = counted_join

        async def run():
            loop = asyncio.get_running_loop()
            prompt = _prompts(tiny_pipeline, 1)[0]
            submitting = asyncio.ensure_future(server.submit_text(prompt, GenerationConfig.greedy_config(500)))
            await loop.run_in_executor(None, inside.wait)  # the step thread is mid-step
            closing = asyncio.ensure_future(server.close())
            await asyncio.sleep(0)  # close() closed the inbox and awaits the join
            await loop.run_in_executor(None, server.shutdown)
            await closing
            with pytest.raises(RequestCancelled):
                await (await submitting).result()

        asyncio.run(asyncio.wait_for(run(), 60))
        assert foreign_pumps == []
        assert len(joins) == 2 and not step_thread.is_alive()
        assert server._registry == {} and not engine.has_work

    def test_concurrent_callers_lose_no_call(self, tiny_pipeline):
        """Threads and tasks share the inbox under a tiny switch interval:
        every call is answered exactly once and every request settles."""
        engine = _engine(tiny_pipeline, "ntp", DecodingStrategy.NTP)
        config = GenerationConfig.greedy_config(6)
        replies = []

        async def run():
            async with AsyncServingEngine(engine) as server:

                def query(count):
                    for _ in range(count):
                        replies.append(server._send(QueryCommand(kind="stats")).result(timeout=60))

                async def submit(index):
                    handle = await server.submit_text("module m", config)
                    if index % 3 == 0:
                        await handle.cancel_async()
                    try:
                        return list((await handle.result()).token_ids)
                    except RequestCancelled:
                        return None

                loop = asyncio.get_running_loop()
                queries = [loop.run_in_executor(None, query, 50) for _ in range(4)]
                results = await asyncio.gather(*(submit(index) for index in range(12)), *queries)
                assert server._registry == {}
                return results[:12]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = asyncio.run(asyncio.wait_for(run(), 120))
        finally:
            sys.setswitchinterval(interval)
        assert len(replies) == 200 and all(isinstance(reply, QueryReply) for reply in replies)
        finished = [tokens for tokens in results if tokens is not None]
        assert finished and all(tokens == finished[0] for tokens in finished)  # greedy: one answer
        assert not engine.has_work and engine.scheduler.tokens_in_flight == 0

    def test_calls_are_refused_unless_the_server_runs(self, tiny_pipeline):
        engine = _engine(tiny_pipeline, "ntp", DecodingStrategy.NTP)
        server = AsyncServingEngine(engine)
        # Steps after the submit's own wait until the submitting loop has
        # closed, so the handle settles in place rather than on a loop that
        # is shutting down and would drop the callback.
        loop_closed = threading.Event()
        real_step, steps = engine.step, []

        def gated_step():
            steps.append(None)
            if len(steps) > 1:
                loop_closed.wait()
            return real_step()

        engine.step = gated_step

        async def submit():
            return await server.submit_text("module m", GenerationConfig.greedy_config(4))

        with pytest.raises(RuntimeError, match="not running"):
            asyncio.run(submit())
        with server:
            handle = asyncio.run(submit())
            loop_closed.set()
        assert handle.done  # settled by the shutdown at with-exit
        assert handle.cancel() is False  # a settled handle needs no step thread
        assert not engine.has_work


class TestSyncLifecycle:
    """Explicit shutdown semantics: join the thread, settle handles — never
    rely on daemon-thread teardown to "clean up"."""

    def test_sync_context_manager_joins_thread(self, tiny_pipeline):
        engine = _engine(tiny_pipeline, "ntp", DecodingStrategy.NTP)
        server = AsyncServingEngine(engine)
        with server:
            assert server.running
            thread = server._thread
        assert not server.running
        assert thread is not None and not thread.is_alive()

    def test_shutdown_fails_pending_handles_after_loop_exit(self, tiny_pipeline):
        """A handle whose event loop already closed is settled in place by
        the sync shutdown instead of being stranded mid-stream."""
        engine = _engine(tiny_pipeline, "ours", DecodingStrategy.OURS, max_active_requests=1)
        server = AsyncServingEngine(engine)

        async def submit():
            server.start()
            return await server.submit_text(
                _prompts(tiny_pipeline, 1)[0], GenerationConfig.greedy_config(2000)
            )

        handle = asyncio.run(submit())  # loop is closed when this returns
        assert not handle.done
        server.shutdown()
        assert not server.running
        assert handle.done
        assert isinstance(handle._error, RequestCancelled)
        assert server._registry == {}  # settled handles are dropped, not leaked

    def test_shutdown_is_idempotent(self, tiny_pipeline):
        engine = _engine(tiny_pipeline, "ntp", DecodingStrategy.NTP)
        server = AsyncServingEngine(engine)
        with server:
            pass
        server.shutdown()  # again, after the with-block already shut down
        server.shutdown()
        assert not server.running

    def test_shutdown_without_cancel_leaves_engine_resumable(self, tiny_pipeline):
        """``cancel_pending=False`` hands the in-flight work back to the
        caller: the engine can be drained synchronously afterwards."""
        engine = _engine(tiny_pipeline, "ntp", DecodingStrategy.NTP)
        server = AsyncServingEngine(engine)

        async def submit():
            server.start()
            handle = await server.submit_text(
                _prompts(tiny_pipeline, 1)[0], GenerationConfig.greedy_config(500)
            )
            async for _ in handle.stream():
                break  # decoding has begun; ~200 NTP steps of the context window are still to go
            return handle

        handle = asyncio.run(submit())
        server.shutdown(cancel_pending=False)
        results = engine.run()
        assert results[handle.request_id].token_ids

    def test_close_without_cancel_leaves_the_unfinished_request_retained(self, tiny_pipeline):
        """A request still running at ``close(cancel_pending=False)`` stays
        on the engine: its finished event is buffered in the control, so a
        synchronous ``engine.run()`` returns its result."""
        engine = _engine(tiny_pipeline, "ntp", DecodingStrategy.NTP)

        async def run():
            server = AsyncServingEngine(engine)
            server.start()
            handle = await server.submit_text(
                _prompts(tiny_pipeline, 1)[0], GenerationConfig.greedy_config(500)
            )
            async for burst in handle.stream():
                break
            # The step thread drains its inbox before every step, so the
            # close lands after at most one more.
            await server.close(cancel_pending=False)
            return handle, burst

        handle, first = asyncio.run(run())
        assert not handle.done
        results = engine.run()
        result = results[handle.request_id]
        assert not result.cancelled and result.token_ids[: len(first)] == first
        assert engine.result(handle.request_id) is result

    def test_a_handle_settles_on_a_stopped_loop(self):
        """The owner records the terminal state before it schedules the
        wake-up, so ``done`` does not wait for a loop that has stopped but
        is not closed."""
        loop = asyncio.new_event_loop()
        try:
            handle = StreamHandle(None, loop)
            loop.run_until_complete(asyncio.sleep(0))  # the loop ran, and stopped
            partial = DecodeResult(
                token_ids=[5], text="", code="", steps=1, tokens_generated=1,
                wall_time_seconds=0.0, cancelled=True,
            )
            event = FinishedEvent(
                request_id="r", result=encode_result(partial), cancelled=True, timed_out=True,
                stream_metrics={"ttft_seconds": 0.0}, latency_seconds=0.5,
            )
            handle._on_done(event)
            assert handle.done
            assert handle.finished is event
            assert isinstance(handle._error, RequestDeadlineExceeded)
            assert handle._error.partial.token_ids == [5]
        finally:
            loop.close()


class TestPriorityScheduling:
    """Priority classes admit latency-sensitive work first; aging stops starvation."""

    def _engine(self, tiny_pipeline, aging_rounds=8, **kwargs):
        return _engine(
            tiny_pipeline, "ntp", DecodingStrategy.NTP,
            priorities=PriorityConfig(aging_rounds=aging_rounds),
            **kwargs,
        )

    def test_high_priority_overtakes_queue(self, tiny_pipeline):
        engine = self._engine(tiny_pipeline, max_active_requests=1)
        config = GenerationConfig.greedy_config(4)
        blocker = engine.submit_text("module a", config, priority=0)
        engine.step()  # blocker admitted and running
        bulk = engine.submit_text("module b", config, priority=0)
        urgent = engine.submit_text("module c", config, priority=5)
        finished_order = []
        while engine.has_work:
            engine.step()
            for rid in (blocker, bulk, urgent):
                if engine.request_status(rid) is RequestStatus.FINISHED and rid not in finished_order:
                    finished_order.append(rid)
        assert finished_order.index(urgent) < finished_order.index(bulk)

    def test_fcfs_within_priority_class(self, tiny_pipeline):
        engine = self._engine(tiny_pipeline, max_active_requests=1)
        config = GenerationConfig.greedy_config(2)
        ids = [engine.submit_text(f"module m{i}", config, priority=3) for i in range(4)]
        order = []
        while engine.has_work:
            engine.step()
            for rid in ids:
                if engine.request_status(rid) is RequestStatus.FINISHED and rid not in order:
                    order.append(rid)
        assert order == ids

    def test_aging_prevents_starvation(self, tiny_pipeline):
        """Low-priority work overtakes an endless stream of fresh high-priority
        arrivals once its aging bonus closes the class gap."""
        engine = self._engine(tiny_pipeline, aging_rounds=2, max_active_requests=1)
        config = GenerationConfig.greedy_config(1)
        low = engine.submit_text("module low", config, priority=0)
        hot = 0
        steps = 0
        while engine.request_status(low) is not RequestStatus.FINISHED:
            steps += 1
            assert steps < 200, "low-priority request starved despite aging"
            # Keep the high-priority queue non-empty forever.
            while engine.scheduler.num_waiting < 2:
                engine.submit_text(f"module hot{hot}", config, priority=3)
                hot += 1
            engine.step()
        # Drain what's left so the engine ends clean.
        while engine.has_work:
            engine.step()
        assert engine.result(low).tokens_generated >= 0

    def test_priorities_ignored_without_policy(self, tiny_pipeline):
        """Plain FCFS config: priority hints change nothing (seed behaviour)."""
        engine = _engine(tiny_pipeline, "ntp", DecodingStrategy.NTP, max_active_requests=1)
        config = GenerationConfig.greedy_config(2)
        first = engine.submit_text("module a", config, priority=0)
        second = engine.submit_text("module b", config, priority=9)
        order = []
        while engine.has_work:
            engine.step()
            for rid in (first, second):
                if engine.request_status(rid) is RequestStatus.FINISHED and rid not in order:
                    order.append(rid)
        assert order == [first, second]

    def test_priority_config_validation(self):
        with pytest.raises(ValueError, match="aging_rounds"):
            PriorityConfig(aging_rounds=0)
