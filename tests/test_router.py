"""Tests for the multi-process sharded serving stack.

Three layers under test (``docs/sharding.md``):

* the plain-data message vocabulary and its codecs
  (:mod:`repro.serving.messages`) — round-trips must be lossless, and the
  preamble hash must be stable across processes;
* :class:`~repro.serving.control.EngineControl` — the transport-agnostic
  command surface whose symmetry underwrites the identity guarantee;
* :class:`~repro.serving.router.Router` + worker processes — the headline
  contracts: a **single-worker router is token-identical to the in-process
  engine** across decoding strategies, sampling modes, chunked prefill and
  prefix reuse; a **worker killed mid-run loses and duplicates nothing**
  (deterministic per-request rngs make the requeued replay byte-identical);
  and randomized submit/cancel/kill traces under tiny KV pools always settle
  every request and drain the pools to zero.

Workers fork by default here (fast, callable factories); one test runs the
full ``spawn`` path with the importable ``engine_from_pipeline`` factory to
prove spawn safety.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from proptest import Cases, for_all, num_cases

from repro.core.decoding import DecodingStrategy, SpeculativeDecoder
from repro.models.generation import GenerationConfig
from repro.serving import (
    EngineControl,
    PrefixCache,
    RequestStatus,
    Router,
    RouterConfig,
    SchedulerConfig,
    ServingEngine,
    derive_request_rng,
    save_pipeline,
)
from repro.serving.messages import (
    CancelCommand,
    DrainCommand,
    DrainReply,
    QueryCommand,
    QueryReply,
    StepCommand,
    StepReply,
    SubmitCommand,
    SubmitReply,
    decode_config,
    decode_result,
    encode_config,
    encode_result,
    preamble_key,
    reply_type_for,
)
from repro.serving.request import GenerationRequest
from repro.traffic import SimulatedClock

METHODS = [
    ("ntp", DecodingStrategy.NTP),
    ("medusa", DecodingStrategy.MEDUSA),
    ("ours", DecodingStrategy.OURS),
]


@pytest.fixture(scope="session")
def pipeline_file(tiny_pipeline, tmp_path_factory):
    """The trained tiny pipeline pickled for spawn-safe worker factories."""
    path = tmp_path_factory.mktemp("sharding") / "pipeline.pkl"
    return str(save_pipeline(tiny_pipeline, path))


def _engine(pipeline, method, strategy, **kwargs):
    return ServingEngine(SpeculativeDecoder(pipeline.models[method], pipeline.tokenizer, strategy=strategy), **kwargs)


def _engine_factory(pipeline, method, strategy, prefix_cache_tokens=None, **kwargs):
    """A fork-safe factory closure building a fresh engine inside the worker."""

    def factory():
        prefix_cache = (
            None if prefix_cache_tokens is None else PrefixCache(max_tokens=prefix_cache_tokens)
        )
        return _engine(pipeline, method, strategy, prefix_cache=prefix_cache, **kwargs)

    return factory


def _router(pipeline, method, strategy, num_workers=1, config=None, **factory_kwargs):
    config = config or RouterConfig(num_workers=num_workers, start_method="fork")
    return Router(_engine_factory(pipeline, method, strategy, **factory_kwargs), config=config)


def _prompt_ids(pipeline, count):
    prompts = [example.prompt_text() for example in pipeline.examples]
    prompts = (prompts * (count // max(len(prompts), 1) + 1))[:count]
    return [pipeline.tokenizer.encode(p, add_bos=True) for p in prompts]


class TestMessages:
    def test_config_roundtrip(self):
        config = GenerationConfig.sampling_config(0.7, 33, seed=5, grammar="verilog")
        assert decode_config(encode_config(config)) == config
        config = replace(GenerationConfig.greedy_config(12), seed=None)
        assert decode_config(encode_config(config)) == config

    def test_config_decode_rejects_unknown_keys(self):
        payload = encode_config(GenerationConfig())
        payload["future_knob"] = 1
        with pytest.raises(TypeError):
            decode_config(payload)

    def test_result_roundtrip(self, tiny_pipeline):
        engine = _engine(tiny_pipeline, "ours", DecodingStrategy.OURS)
        request_id = engine.submit_text(
            tiny_pipeline.examples[0].prompt_text(), GenerationConfig.greedy_config(12)
        )
        result = engine.run()[request_id]
        decoded = decode_result(encode_result(result))
        assert decoded == result
        assert decoded.step_records == result.step_records

    def test_preamble_key_is_stable_and_prefix_scoped(self):
        key = preamble_key([1, 2, 3, 4, 5, 6], 4)
        assert key == preamble_key([1, 2, 3, 4, 99, 98], 4)  # only the window counts
        assert key != preamble_key([1, 2, 3, 5, 5, 6], 4)
        # Stable constant: the same preamble must hash identically in every
        # process and interpreter session (built-in hash is salted; this
        # value is pinned so a regression is loud).
        assert preamble_key([1, 2, 3], 3) == 9974032063344415273

    def test_reply_type_pairing(self):
        assert reply_type_for(SubmitCommand(prompt_ids=[1])) is not None
        assert reply_type_for(StepCommand()) is StepReply
        assert reply_type_for(DrainCommand()) is DrainReply
        with pytest.raises(TypeError):
            reply_type_for(object())


class TestEngineControl:
    def test_drain_reports_all_tokens_and_finish(self, tiny_pipeline):
        engine = _engine(tiny_pipeline, "ours", DecodingStrategy.OURS)
        control = EngineControl(engine)
        prompt = _prompt_ids(tiny_pipeline, 1)[0]
        submit = control.handle(
            SubmitCommand(prompt_ids=prompt, config=encode_config(GenerationConfig.greedy_config(16)))
        )
        assert submit.error is None
        reply = control.handle(DrainCommand())
        committed = [t for event in reply.commits for t in event.tokens]
        assert len(reply.finished) == 1
        finished = reply.finished[0]
        assert finished.request_id == submit.request_id
        result = decode_result(finished.result)
        assert committed == list(result.token_ids)
        assert not reply.stats.has_work

    def test_queries(self, tiny_pipeline):
        engine = _engine(tiny_pipeline, "ours", DecodingStrategy.OURS)
        control = EngineControl(engine)
        stats = control.handle(QueryCommand(kind="stats")).payload
        assert stats["queue_depth"] == 0 and not stats["has_work"]
        assert control.handle(QueryCommand(kind="kv_pool_stats")).payload["blocks_in_use"] == 0
        assert "hit_rate" in control.handle(QueryCommand(kind="prefix_cache_stats")).payload
        with pytest.raises(ValueError):
            control.handle(QueryCommand(kind="nonsense"))

    def test_cancel_unknown_id_is_false_not_error(self, tiny_pipeline):
        engine = _engine(tiny_pipeline, "ours", DecodingStrategy.OURS)
        control = EngineControl(engine)
        assert control.handle(CancelCommand(request_id="ghost")).cancelled is False

    def test_forget_on_done_releases_engine_state(self, tiny_pipeline):
        engine = _engine(tiny_pipeline, "ours", DecodingStrategy.OURS)
        control = EngineControl(engine, forget_on_done=True)
        prompt = _prompt_ids(tiny_pipeline, 1)[0]
        submit = control.handle(SubmitCommand(prompt_ids=prompt))
        reply = control.handle(DrainCommand())
        assert reply.finished[0].stream_metrics["ttft_seconds"] is not None
        with pytest.raises(KeyError):
            engine.result(submit.request_id)  # worker retains nothing
        # Nothing accumulates over many submit→drain cycles either, whatever
        # way the requests leave: finished, past their deadline, or cancelled
        # mid-decode.
        clock = SimulatedClock()
        prefix_cache = PrefixCache(max_tokens=4096)
        engine = _engine(
            tiny_pipeline, "ours", DecodingStrategy.OURS, prefix_cache=prefix_cache, clock=clock
        )
        control = EngineControl(engine, forget_on_done=True)
        prompts = _prompt_ids(tiny_pipeline, 3)
        long_config = encode_config(GenerationConfig.greedy_config(200))
        for cycle in range(4):
            control.handle(SubmitCommand(prompt_ids=prompts[0], deadline=5.0))
            expiring = control.handle(
                SubmitCommand(prompt_ids=prompts[1], config=long_config, deadline=1.0)
            ).request_id
            finished = control.handle(StepCommand(max_steps=2)).finished
            if cycle == 0:
                doomed = control.handle(SubmitCommand(prompt_ids=prompts[2], config=long_config))
                finished += control.handle(StepCommand(max_steps=2)).finished
                assert engine.request_status(doomed.request_id) is RequestStatus.RUNNING
                assert control.handle(CancelCommand(request_id=doomed.request_id)).cancelled
            clock.advance(2.0)
            finished += control.handle(DrainCommand()).finished
            timed_out = [event.request_id for event in finished if event.timed_out]
            assert timed_out == [expiring]
            assert len(finished) == (3 if cycle == 0 else 2)
        assert not engine._states and not engine._results and not engine._deadlined
        assert not engine.has_work and not engine.scheduler.waiting and not engine.scheduler.running
        assert engine.scheduler.tokens_in_flight == 0
        assert engine._active == [] and engine._prefilling == []
        # The only pages still held are the ones prefix retention pins.
        retained = {block for entry in prefix_cache._entries.values() for block in entry.prefix.block_ids}
        assert engine.kv_pool_stats()["blocks_in_use"] == len(retained) > 0
        prefix_cache.clear()
        assert engine.kv_pool_stats()["blocks_in_use"] == 0

    def test_commit_events_carry_engine_clock_time(self, tiny_pipeline):
        clock = SimulatedClock(start=3.0)
        engine = _engine(tiny_pipeline, "ours", DecodingStrategy.OURS, clock=clock)
        control = EngineControl(engine)
        request_id = control.handle(
            SubmitCommand(
                prompt_ids=_prompt_ids(tiny_pipeline, 1)[0],
                config=encode_config(GenerationConfig.greedy_config(12)),
            )
        ).request_id
        commits = []
        while engine.has_work:
            commits += control.handle(StepCommand(max_steps=1)).commits
            clock.advance(0.25)
        timeline = engine.stream_metrics(request_id)["commit_events"]
        assert len(commits) == len(timeline) > 1
        assert [event.timestamp for event in commits] == [3.0 + offset for offset, _ in timeline]
        assert [len(event.tokens) for event in commits] == [count for _, count in timeline]


class TestDeterministicRequestRng:
    """Satellite: per-request rngs derive from (seed, request_id)."""

    def _request(self, request_id, seed):
        config = replace(GenerationConfig.sampling_config(0.8, 8), seed=seed)
        return GenerationRequest(request_id=request_id, prompt_ids=[1, 2], config=config)

    def test_explicit_seed_ignores_request_id(self):
        a = derive_request_rng(self._request("a", seed=7)).integers(0, 1 << 30, 8)
        b = derive_request_rng(self._request("b", seed=7)).integers(0, 1 << 30, 8)
        assert list(a) == list(b)

    def test_seed_none_derives_from_request_id(self):
        a1 = derive_request_rng(self._request("a", seed=None)).integers(0, 1 << 30, 8)
        a2 = derive_request_rng(self._request("a", seed=None)).integers(0, 1 << 30, 8)
        b = derive_request_rng(self._request("b", seed=None)).integers(0, 1 << 30, 8)
        assert list(a1) == list(a2)  # resubmission replays the same stream
        assert list(a1) != list(b)  # distinct requests draw independently

    def test_resubmission_on_fresh_engine_reproduces_tokens(self, tiny_pipeline):
        """The crash-requeue guarantee, without processes: the same request id
        resubmitted to a *different* engine samples identical tokens."""
        prompt = _prompt_ids(tiny_pipeline, 1)[0]
        config = replace(GenerationConfig.sampling_config(0.9, 20), seed=None)
        runs = []
        for _ in range(2):
            engine = _engine(tiny_pipeline, "ours", DecodingStrategy.OURS)
            engine.submit(prompt, config=config, request_id="replayed")
            runs.append(engine.run()["replayed"].token_ids)
        assert runs[0] == runs[1]


class TestSingleWorkerIdentity:
    """One-worker router output must equal the in-process engine, per config."""

    def _compare(self, pipeline, method, strategy, configs, engine_kwargs=None, router_kwargs=None):
        prompts = _prompt_ids(pipeline, len(configs))
        engine = _engine(pipeline, method, strategy, **(engine_kwargs or {}))
        for index, (prompt, config) in enumerate(zip(prompts, configs)):
            engine.submit(prompt, config=config, request_id=f"r{index}")
        expected = engine.run()

        router = _router(pipeline, method, strategy, **(router_kwargs or {}))
        with router:
            for index, (prompt, config) in enumerate(zip(prompts, configs)):
                router.submit(prompt, config=config, request_id=f"r{index}")
            results = router.drain(timeout=300)
        assert sorted(results) == sorted(expected)
        for request_id, result in results.items():
            assert result.token_ids == expected[request_id].token_ids
            assert result.text == expected[request_id].text
            assert result.steps == expected[request_id].steps
            # The streamed view agrees with the final result: exactly-once.
            assert router.request_record(request_id).tokens == list(result.token_ids)

    @pytest.mark.parametrize("method,strategy", METHODS)
    def test_greedy(self, tiny_pipeline, method, strategy):
        self._compare(tiny_pipeline, method, strategy, [GenerationConfig.greedy_config(20)] * 4)

    @pytest.mark.parametrize("method,strategy", METHODS)
    def test_sampling(self, tiny_pipeline, method, strategy):
        configs = [GenerationConfig.sampling_config(0.8, 16, seed=i) for i in range(4)]
        self._compare(tiny_pipeline, method, strategy, configs)

    def test_chunked_prefill(self, tiny_pipeline):
        scheduler = SchedulerConfig(max_active_requests=4, max_prefill_tokens_per_step=16)
        self._compare(
            tiny_pipeline,
            "ours",
            DecodingStrategy.OURS,
            [GenerationConfig.greedy_config(16)] * 4,
            engine_kwargs={"scheduler_config": scheduler},
            router_kwargs={"scheduler_config": scheduler},
        )

    def test_prefix_reuse(self, tiny_pipeline):
        preamble = "// Task: implement the following Verilog module exactly.\n"
        prompts = [
            tiny_pipeline.tokenizer.encode(preamble + ex.prompt_text(), add_bos=True)
            for ex in tiny_pipeline.examples[:4]
        ]
        config = GenerationConfig.greedy_config(14)
        engine = _engine(
            tiny_pipeline, "ours", DecodingStrategy.OURS, prefix_cache=PrefixCache(max_tokens=2048)
        )
        for index, prompt in enumerate(prompts):
            engine.submit(prompt, config=config, request_id=f"r{index}")
        expected = engine.run()

        router = _router(tiny_pipeline, "ours", DecodingStrategy.OURS, prefix_cache_tokens=2048)
        with router:
            # Complete the first request before submitting the rest: retention
            # happens when a prefill finishes, so if all four submits landed in
            # one admission step every lookup would miss and reuse would be 0.
            router.submit(prompts[0], config=config, request_id="r0")
            router.result("r0", timeout=300)
            for index, prompt in enumerate(prompts[1:], start=1):
                router.submit(prompt, config=config, request_id=f"r{index}")
            results = router.drain(timeout=300)
            for request_id in results:
                assert results[request_id].token_ids == expected[request_id].token_ids
            # Reuse actually happened on the worker: later prompts hit the
            # preamble entry the first one retained.
            stats = router.prefix_cache_stats()
            assert stats["aggregate"]["prompt_tokens_reused"] > 0


def _poll_until_streaming(router, worker_index):
    """Pump the router until a request on ``worker_index`` has delivered tokens.

    The kill that follows then lands mid-run relative to the worker's own
    progress (its first burst of a 48+-token budget), not after a wall-clock
    sleep the worker may have outrun.
    """
    owned = [record for record in router._requests.values() if record.worker_index == worker_index]
    assert owned, f"no request was routed to worker {worker_index}"
    while not any(record.tokens for record in owned):
        router.poll()


class TestCrashRecovery:
    def test_worker_kill_mid_run_completes_everything(self, tiny_pipeline):
        prompts = _prompt_ids(tiny_pipeline, 6)
        config = replace(GenerationConfig.sampling_config(0.8, 64), seed=None)
        engine = _engine(tiny_pipeline, "ours", DecodingStrategy.OURS)
        for index, prompt in enumerate(prompts):
            engine.submit(prompt, config=config, request_id=f"r{index}")
        expected = engine.run()

        router = _router(
            tiny_pipeline,
            "ours",
            DecodingStrategy.OURS,
            config=RouterConfig(num_workers=2, start_method="fork", max_restarts=3),
        )
        with router:
            for index, prompt in enumerate(prompts):
                router.submit(prompt, config=config, request_id=f"r{index}")
            _poll_until_streaming(router, worker_index=0)
            router.workers[0].kill()
            results = router.drain(timeout=300)
            # No request lost...
            assert sorted(results) == sorted(expected)
            for request_id, result in results.items():
                # ...every replay token-identical to the uninterrupted run...
                assert result.token_ids == expected[request_id].token_ids
                record = router.request_record(request_id)
                # ...and none duplicated: the delivered stream equals the
                # final result exactly, with no replayed residue pending.
                assert record.tokens == list(result.token_ids)
                assert record.replay_skip == 0
            assert sum(router._restarts) >= 1

    def test_streaming_callback_sees_each_token_once(self, tiny_pipeline):
        prompts = _prompt_ids(tiny_pipeline, 4)
        config = replace(GenerationConfig.sampling_config(0.8, 48), seed=None)
        router = _router(
            tiny_pipeline,
            "ours",
            DecodingStrategy.OURS,
            config=RouterConfig(num_workers=2, start_method="fork", max_restarts=3),
        )
        streamed = {}
        with router:
            for index, prompt in enumerate(prompts):
                request_id = router.submit(prompt, config=config, request_id=f"r{index}")
                streamed[request_id] = []
                router.request_record(request_id).on_tokens = (
                    lambda rid, tokens: streamed[rid].extend(tokens)
                )
            _poll_until_streaming(router, worker_index=1)
            router.workers[1].kill()
            results = router.drain(timeout=300)
        for request_id, result in results.items():
            assert streamed[request_id] == list(result.token_ids)


class TestRouterFuzz:
    """Randomized submit/cancel/kill traces under tiny KV pools (satellite)."""

    def _trace(self, pipeline, case: Cases) -> None:
        config = RouterConfig(
            num_workers=case.choice([1, 2]),
            start_method="fork",
            max_restarts=4,
            imbalance_threshold=case.choice([0, 2]),
        )
        router = _router(
            pipeline,
            "ours",
            DecodingStrategy.OURS,
            config=config,
            kv_block_size=16,
            kv_pool_blocks=24,  # tiny pool: a few requests' worth of pages
            scheduler_config=SchedulerConfig(max_active_requests=3),
        )
        prompts = _prompt_ids(pipeline, 8)
        submitted, cancelled = [], set()
        with router:
            kills = case.integer(0, 1)
            for op in range(case.integer(6, 10)):
                kind = case.choice(["submit", "submit", "submit", "cancel", "kill", "poll"])
                if kind == "submit":
                    request_id = f"c{case.case_index}-{op}"
                    router.submit(
                        case.choice(prompts),
                        config=GenerationConfig.sampling_config(
                            0.8, case.integer(4, 16), seed=case.integer(0, 3)
                        ),
                        request_id=request_id,
                    )
                    submitted.append(request_id)
                elif kind == "cancel" and submitted:
                    target = case.choice(submitted)
                    if router.cancel(target):
                        cancelled.add(target)
                elif kind == "kill" and kills > 0:
                    kills -= 1
                    router.workers[case.integer(0, len(router.workers) - 1)].kill()
                else:
                    router.poll()
            router.drain(timeout=300)
            # Exactly-once settlement: every submitted id is done, none lost.
            for request_id in submitted:
                record = router.request_record(request_id)
                assert record.done, request_id
                assert record.error is None
                assert record.replay_skip == 0
                if request_id not in cancelled and not record.cancelled:
                    result = decode_result(record.result_payload)
                    assert record.tokens == list(result.token_ids)
            # Pools drain to zero once the fleet is idle; sizes and ratios are
            # fleet-level, not sums over workers.
            pool = router.kv_pool_stats()
            assert pool["aggregate"]["blocks_in_use"] == 0
            assert pool["aggregate"]["num_blocks"] == 24 * len(pool["workers"])
            assert pool["aggregate"]["block_size"] == 16
            assert pool["aggregate"]["occupancy"] == 0.0
            fleet = router.fleet_stats()["aggregate"]
            assert fleet["queue_depth"] == 0 and fleet["num_active"] == 0

    def test_random_router_traces_quick(self, tiny_pipeline):
        for_all(num_cases(3, 10), lambda case: self._trace(tiny_pipeline, case), seed=11)

    @pytest.mark.slow
    def test_random_router_traces_full(self, tiny_pipeline):
        for_all(10, lambda case: self._trace(tiny_pipeline, case), seed=12)


class _StubWorker:
    """A worker answered in process: submits are accepted, queries return ``payload``."""

    alive = True

    def __init__(self, worker_id, payload=None):
        self.worker_id = worker_id
        self.payload = payload or {}

    def request(self, command):
        if isinstance(command, SubmitCommand):
            return SubmitReply(request_id=command.request_id)
        return QueryReply(kind=command.kind, payload=self.payload)

    def collect(self):
        return []


def _stub_router(workers, threshold=4):
    router = Router(factory=None, config=RouterConfig(num_workers=len(workers), imbalance_threshold=threshold))
    router.workers = list(workers)
    router._started = True
    return router


class TestAffinityRouting:
    def _stub_router(self, num_workers, threshold=4):
        return _stub_router([object() for _ in range(num_workers)], threshold)  # routing only

    def test_same_preamble_sticks_to_one_worker(self):
        router = self._stub_router(4)
        preamble = list(range(16))
        picks = {router._route(preamble + [extra]) for extra in range(20)}
        assert len(picks) == 1

    def test_imbalance_falls_back_to_least_loaded(self):
        from repro.serving.router import RouterRequest

        router = self._stub_router(2, threshold=0)
        preamble = list(range(16))
        first = router._route(preamble + [0])
        # Pin outstanding load on the affinity choice; threshold 0 must move
        # the next same-preamble request to the empty worker.
        router._requests["x"] = RouterRequest(
            request_id="x", prompt_ids=[], config=None, priority=0,
            deadline=None, worker_index=first,
        )
        second = router._route(preamble + [1])
        assert second != first
        # ...and stickiness remembers the rebalanced placement.
        assert router._affinity[preamble_key(preamble + [2], 16)] == second

    def test_end_to_end_shared_preambles_colocate(self, tiny_pipeline):
        preamble = "// Task: implement the following Verilog module exactly.\n"
        prompts = [
            tiny_pipeline.tokenizer.encode(preamble + ex.prompt_text(), add_bos=True)
            for ex in tiny_pipeline.examples[:4]
        ]
        router = _router(
            tiny_pipeline,
            "ours",
            DecodingStrategy.OURS,
            config=RouterConfig(num_workers=2, start_method="fork", imbalance_threshold=16),
        )
        with router:
            ids = [router.submit(p, config=GenerationConfig.greedy_config(6)) for p in prompts]
            router.drain(timeout=300)
            workers = {router.request_record(request_id).worker_index for request_id in ids}
        assert len(workers) == 1


class TestSpawnSafety:
    def test_spawn_worker_with_importable_factory(self, tiny_pipeline, pipeline_file):
        prompt = _prompt_ids(tiny_pipeline, 1)[0]
        config = GenerationConfig.greedy_config(16)
        engine = _engine(tiny_pipeline, "ours", DecodingStrategy.OURS)
        engine.submit(prompt, config=config, request_id="r0")
        expected = engine.run()["r0"]

        router = Router(
            "repro.serving.worker:engine_from_pipeline",
            factory_kwargs={"pipeline_path": pipeline_file, "method": "ours"},
            config=RouterConfig(num_workers=1, start_method="spawn", hello_timeout=300.0),
        )
        with router:
            router.submit(prompt, config=config, request_id="r0")
            result = router.result("r0", timeout=300)
        assert result.token_ids == expected.token_ids


class TestRouterBehaviour:
    def test_submit_error_surfaces_and_leaves_router_usable(self, tiny_pipeline):
        router = _router(tiny_pipeline, "ours", DecodingStrategy.OURS)
        with router:
            with pytest.raises(ValueError):
                router.submit([], config=GenerationConfig.greedy_config(4))
            prompt = _prompt_ids(tiny_pipeline, 1)[0]
            request_id = router.submit(prompt, config=GenerationConfig.greedy_config(6))
            assert router.result(request_id, timeout=300).token_ids

    def test_duplicate_request_id_rejected(self, tiny_pipeline):
        router = _router(tiny_pipeline, "ours", DecodingStrategy.OURS)
        with router:
            prompt = _prompt_ids(tiny_pipeline, 1)[0]
            router.submit(prompt, config=GenerationConfig.greedy_config(4), request_id="dup")
            with pytest.raises(ValueError):
                router.submit(prompt, config=GenerationConfig.greedy_config(4), request_id="dup")
            router.drain(timeout=300)

    def test_auto_ids_skip_caller_chosen_ids(self):
        router = _stub_router([_StubWorker("w0")])
        assert router.submit([1, 2, 3], request_id="r0") == "r0"
        assert router.submit([1, 2, 3]) == "r1"
        assert router.submit([1, 2, 3], request_id="r3") == "r3"
        assert [router.submit([1, 2, 3]) for _ in range(2)] == ["r2", "r4"]

    def test_fleet_kv_stats_are_fleet_ratios_not_sums(self):
        """Counts sum across workers; occupancy and sharing are recomputed from
        the sums, and the block size is the workers' common one."""
        payloads = [
            {"block_size": 16, "num_blocks": 100, "blocks_in_use": 80, "occupancy": 0.8,
             "shared_blocks": 40, "shared_block_ratio": 0.5, "cow_events": 3},
            {"block_size": 16, "num_blocks": 100, "blocks_in_use": 60, "occupancy": 0.6,
             "shared_blocks": 10, "shared_block_ratio": 10 / 60, "cow_events": 4},
        ]
        router = _stub_router([_StubWorker(f"w{index}", payload) for index, payload in enumerate(payloads)])
        aggregate = router.kv_pool_stats()["aggregate"]
        assert aggregate["block_size"] == 16
        assert aggregate["num_blocks"] == 200 and aggregate["blocks_in_use"] == 140
        assert aggregate["occupancy"] == 140 / 200
        assert aggregate["shared_block_ratio"] == 50 / 140
        assert aggregate["cow_events"] == 7

    def test_cancel_and_forget(self, tiny_pipeline):
        router = _router(tiny_pipeline, "ours", DecodingStrategy.OURS)
        with router:
            prompt = _prompt_ids(tiny_pipeline, 1)[0]
            request_id = router.submit(prompt, config=GenerationConfig.greedy_config(64))
            router.cancel(request_id)
            record = router._wait(request_id, timeout=300)
            assert record.done
            assert record.cancelled
            assert router.cancel(request_id) is False  # settled: no-op
            router.forget(request_id)
            with pytest.raises(KeyError):
                router.tokens(request_id)

    def test_stream_metrics_survive_worker_forgetting(self, tiny_pipeline):
        router = _router(tiny_pipeline, "ours", DecodingStrategy.OURS)
        with router:
            prompt = _prompt_ids(tiny_pipeline, 1)[0]
            request_id = router.submit(prompt, config=GenerationConfig.greedy_config(12))
            router.result(request_id, timeout=300)
            metrics = router.stream_metrics(request_id)
        assert metrics["ttft_seconds"] is not None
        assert len(metrics["inter_token_seconds"]) >= 0

    def test_fleet_stats_shape(self, tiny_pipeline):
        router = _router(
            tiny_pipeline,
            "ours",
            DecodingStrategy.OURS,
            config=RouterConfig(num_workers=2, start_method="fork"),
        )
        with router:
            stats = router.fleet_stats()
            assert set(stats["workers"]) == {"w0", "w1"}
            assert stats["aggregate"]["num_workers"] == 2
            assert stats["aggregate"]["workers_alive"] == 2

    def test_closed_router_refuses_traffic(self, tiny_pipeline):
        router = _router(tiny_pipeline, "ours", DecodingStrategy.OURS)
        with router:
            pass
        with pytest.raises(RuntimeError):
            router.submit([1, 2], config=GenerationConfig.greedy_config(4))
