"""Tests for the continuous-batching serving subsystem.

The engine's core guarantee — batched serving commits exactly the token
sequences sequential ``generate`` commits — is asserted for all three
decoding strategies at 8 concurrent requests, under greedy decoding and
temperature sampling, and with constrained concurrency (so admission happens
mid-flight).  Scheduler admission/eviction ordering is tested in isolation.
"""

from __future__ import annotations

import numpy as np
import pytest

from proptest import Cases, for_all, num_cases

from repro.core.acceptance import TypicalAcceptance
from repro.core.decoding import DecodingStrategy, SpeculativeDecoder
from repro.models.generation import GenerationConfig
from repro.nn.kv_pool import PagedKVCache, blocks_for
from repro.serving import (
    GenerationRequest,
    PrefixCache,
    PriorityConfig,
    RequestState,
    RequestStatus,
    Scheduler,
    SchedulerConfig,
    ServingEngine,
)

METHODS = [
    ("ntp", DecodingStrategy.NTP),
    ("medusa", DecodingStrategy.MEDUSA),
    ("ours", DecodingStrategy.OURS),
]


def _prompts(pipeline, count):
    prompts = [example.prompt_text() for example in pipeline.examples]
    return (prompts * (count // max(len(prompts), 1) + 1))[:count]


def _engine(
    pipeline,
    method,
    strategy,
    prefix_cache=None,
    kv_block_size=16,
    kv_pool_blocks=None,
    **scheduler_kwargs,
):
    return ServingEngine(
        SpeculativeDecoder(pipeline.models[method], pipeline.tokenizer, strategy=strategy),
        scheduler_config=SchedulerConfig(**scheduler_kwargs) if scheduler_kwargs else None,
        prefix_cache=prefix_cache,
        kv_block_size=kv_block_size,
        kv_pool_blocks=kv_pool_blocks,
    )


def _shared_prefix_prompts(pipeline, count):
    """N prompts over 2 distinct task preambles — the reuse-friendly workload."""
    preambles = [
        "// Task: implement the following Verilog module exactly as specified.\n",
        "// You are a careful hardware engineer; write synthesizable Verilog.\n",
    ]
    bodies = _prompts(pipeline, count)
    return [preambles[index % 2] + body for index, body in enumerate(bodies)]


class TestServingEquivalence:
    """Batched outputs must be token-identical to sequential generate."""

    @pytest.mark.parametrize("method,strategy", METHODS)
    def test_eight_concurrent_greedy(self, tiny_pipeline, method, strategy):
        prompts = _prompts(tiny_pipeline, 8)
        config = GenerationConfig.greedy_config(24)
        decoder = tiny_pipeline.decoder_for(method)
        sequential = [decoder.generate_from_text(prompt, config) for prompt in prompts]

        engine = _engine(tiny_pipeline, method, strategy, max_active_requests=8)
        request_ids = [engine.submit_text(prompt, config) for prompt in prompts]
        results = engine.run()

        for request_id, expected in zip(request_ids, sequential):
            assert results[request_id].token_ids == expected.token_ids
            assert results[request_id].text == expected.text
            assert results[request_id].stopped_by_eos == expected.stopped_by_eos
            assert results[request_id].steps == expected.steps

    @pytest.mark.parametrize("method,strategy", METHODS)
    def test_eight_concurrent_sampling(self, tiny_pipeline, method, strategy):
        prompts = _prompts(tiny_pipeline, 8)
        decoder = tiny_pipeline.decoder_for(method)
        configs = [GenerationConfig.sampling_config(0.8, 20, seed=i) for i in range(len(prompts))]
        sequential = [decoder.generate_from_text(p, c) for p, c in zip(prompts, configs)]

        engine = _engine(tiny_pipeline, method, strategy, max_active_requests=8)
        request_ids = [engine.submit_text(p, c) for p, c in zip(prompts, configs)]
        results = engine.run()

        for request_id, expected in zip(request_ids, sequential):
            assert results[request_id].token_ids == expected.token_ids

    @pytest.mark.parametrize("method,strategy", METHODS)
    def test_constrained_concurrency_continuous_admission(self, tiny_pipeline, method, strategy):
        """With max_active=2 the engine admits mid-flight; outputs are unchanged."""
        prompts = _prompts(tiny_pipeline, 5)
        config = GenerationConfig.greedy_config(16)
        decoder = tiny_pipeline.decoder_for(method)
        sequential = [decoder.generate_from_text(prompt, config) for prompt in prompts]

        engine = _engine(tiny_pipeline, method, strategy, max_active_requests=2)
        request_ids = [engine.submit_text(prompt, config) for prompt in prompts]
        results = engine.run()

        for request_id, expected in zip(request_ids, sequential):
            assert results[request_id].token_ids == expected.token_ids

    @pytest.mark.parametrize("method,strategy", METHODS)
    def test_mixed_greedy_and_sampling_batch(self, tiny_pipeline, method, strategy):
        """Greedy and sampling requests sharing one batched forward commit the
        same tokens, in the same number of steps, as sequential generate."""
        prompts = _prompts(tiny_pipeline, 6)
        configs = [
            GenerationConfig.greedy_config(20)
            if index % 2 == 0
            else GenerationConfig.sampling_config(0.8, 18, seed=index)
            for index in range(len(prompts))
        ]
        decoder = tiny_pipeline.decoder_for(method)
        sequential = [decoder.generate_from_text(p, c) for p, c in zip(prompts, configs)]

        engine = _engine(tiny_pipeline, method, strategy, max_active_requests=6)
        request_ids = [engine.submit_text(p, c) for p, c in zip(prompts, configs)]
        results = engine.run()
        for request_id, expected in zip(request_ids, sequential):
            assert results[request_id].token_ids == expected.token_ids
            assert results[request_id].steps == expected.steps

    def test_mixed_budgets_per_request(self, tiny_pipeline):
        """Requests with different max_new_tokens finish independently."""
        prompts = _prompts(tiny_pipeline, 4)
        budgets = [4, 9, 16, 25]
        decoder = tiny_pipeline.decoder_for("ours")
        sequential = [
            decoder.generate_from_text(p, GenerationConfig.greedy_config(b)) for p, b in zip(prompts, budgets)
        ]

        engine = _engine(tiny_pipeline, "ours", DecodingStrategy.OURS, max_active_requests=4)
        request_ids = [
            engine.submit_text(p, GenerationConfig.greedy_config(b)) for p, b in zip(prompts, budgets)
        ]
        results = engine.run()
        for request_id, expected, budget in zip(request_ids, sequential, budgets):
            assert results[request_id].token_ids == expected.token_ids
            assert results[request_id].tokens_generated <= budget

    def test_engine_follows_its_decoders_whole_policy(self, tiny_pipeline):
        """A non-default acceptance rule and head cap reach served requests
        through the decoder the engine serves: tokens and whole step records
        equal that decoder's generate, sampling and grammar lanes alike."""
        model = tiny_pipeline.models["ours"]
        assert model.num_medusa_heads > 1
        decoder = SpeculativeDecoder(
            model,
            tiny_pipeline.tokenizer,
            strategy=DecodingStrategy.OURS,
            acceptance=TypicalAcceptance(epsilon=0.05, delta=0.5),
            max_speculative_heads=1,
        )
        prompts = _prompts(tiny_pipeline, 4)
        configs = [GenerationConfig.sampling_config(0.9, 20, seed=seed) for seed in (3, 5, 7)]
        configs.append(GenerationConfig.sampling_config(0.9, 20, seed=11, grammar="verilog"))
        sequential = [decoder.generate_from_text(p, c) for p, c in zip(prompts, configs)]

        engine = ServingEngine(decoder, scheduler_config=SchedulerConfig(max_active_requests=4))
        request_ids = [engine.submit_text(p, c) for p, c in zip(prompts, configs)]
        results = engine.run()
        for request_id, expected in zip(request_ids, sequential):
            assert results[request_id].token_ids == expected.token_ids
            assert results[request_id].step_records == expected.step_records
            # One speculative head: every candidate is at most two tokens.
            assert all(record.proposed <= 2 for record in expected.step_records)


class TestServingEngineBehaviour:
    def test_rejects_encoder_decoder_models(self, tiny_pipeline):
        from repro.models.medusa import MedusaLM
        from repro.nn.transformer import EncoderDecoderTransformer

        backbone = EncoderDecoderTransformer(
            vocab_size=64, dim=32, num_encoder_layers=1, num_decoder_layers=1, num_heads=2, max_seq_len=64
        )
        model = MedusaLM(backbone, vocab_size=64, num_medusa_heads=2)
        with pytest.raises(ValueError, match="decoder-only"):
            ServingEngine(SpeculativeDecoder(model, tiny_pipeline.tokenizer))

    def test_rejects_zero_kv_block_size(self, tiny_pipeline):
        """Regression: the default pool sizing divided by the block size
        before the pool could validate it (ZeroDivisionError)."""
        with pytest.raises(ValueError, match="kv_block_size"):
            tiny_pipeline.engine_for("ours", kv_block_size=0)

    def test_rejects_zero_kv_pool_blocks(self, tiny_pipeline):
        """Regression: ``kv_pool_blocks=0`` silently meant "size it for me";
        only ``None`` derives the pool size."""
        with pytest.raises(ValueError, match="kv_pool_blocks"):
            tiny_pipeline.engine_for("ours", kv_pool_blocks=0)

    def test_rejects_empty_prompt_and_duplicate_ids(self, tiny_pipeline):
        engine = _engine(tiny_pipeline, "ours", DecodingStrategy.OURS)
        with pytest.raises(ValueError, match="empty"):
            engine.submit([])
        engine.submit([1, 2, 3], request_id="dup")
        with pytest.raises(ValueError, match="duplicate"):
            engine.submit([1, 2, 3], request_id="dup")

    def test_overlong_prompt_finishes_empty(self, tiny_pipeline):
        """A prompt that fills the context window returns an empty result,
        exactly like sequential generate."""
        max_seq_len = tiny_pipeline.models["ours"].backbone.max_seq_len
        prompt = [2] * max_seq_len
        decoder = tiny_pipeline.decoder_for("ours")
        expected = decoder.generate(prompt, GenerationConfig.greedy_config(8))
        assert expected.token_ids == []

        engine = _engine(tiny_pipeline, "ours", DecodingStrategy.OURS)
        request_id = engine.submit(prompt, GenerationConfig.greedy_config(8))
        results = engine.run()
        assert results[request_id].token_ids == []
        assert not engine.has_work

    def test_results_and_latency_accessors(self, tiny_pipeline):
        engine = _engine(tiny_pipeline, "ntp", DecodingStrategy.NTP)
        request_id = engine.submit_text("module m", GenerationConfig.greedy_config(4))
        with pytest.raises(KeyError):
            engine.result(request_id)
        engine.run()
        assert engine.result(request_id).tokens_generated <= 4
        assert engine.scheduler_latency(request_id) >= 0.0


def _state(request_id: str, prompt_len: int, max_new: int, priority: int = 0) -> RequestState:
    request = GenerationRequest(
        request_id=request_id,
        prompt_ids=list(range(prompt_len)),
        config=GenerationConfig.greedy_config(max_new),
        priority=priority,
    )
    return RequestState(request=request)


class TestScheduler:
    def test_fcfs_admission_order(self):
        scheduler = Scheduler(SchedulerConfig(max_active_requests=2, max_batch_tokens=1000))
        for name in ("a", "b", "c"):
            scheduler.submit(_state(name, prompt_len=10, max_new=10))
        admitted = scheduler.admit()
        assert [s.request.request_id for s in admitted] == ["a", "b"]
        assert scheduler.num_waiting == 1
        # Admission moves requests into PREFILLING; the engine flips them to
        # RUNNING once their prompt has fully entered the cache.
        assert all(s.status is RequestStatus.PREFILLING for s in admitted)

    def test_token_budget_blocks_admission(self):
        scheduler = Scheduler(SchedulerConfig(max_active_requests=8, max_batch_tokens=50))
        scheduler.submit(_state("big", prompt_len=20, max_new=20))   # footprint 40
        scheduler.submit(_state("small", prompt_len=5, max_new=10))  # footprint 15
        admitted = scheduler.admit()
        # "small" would fit the leftover budget but must NOT overtake FCFS order.
        assert [s.request.request_id for s in admitted] == ["big"]
        assert scheduler.tokens_in_flight == 40
        assert scheduler.num_waiting == 1

    def test_release_frees_budget_for_next_in_line(self):
        scheduler = Scheduler(SchedulerConfig(max_active_requests=8, max_batch_tokens=50))
        first = _state("first", prompt_len=20, max_new=20)
        scheduler.submit(first)
        scheduler.submit(_state("second", prompt_len=20, max_new=20))
        assert [s.request.request_id for s in scheduler.admit()] == ["first"]
        assert scheduler.admit() == []  # budget exhausted
        scheduler.release(first)
        assert first.status is RequestStatus.FINISHED
        assert [s.request.request_id for s in scheduler.admit()] == ["second"]

    def test_oversized_head_admitted_when_idle(self):
        """Progress guarantee: an over-budget request runs when nothing else does."""
        scheduler = Scheduler(SchedulerConfig(max_active_requests=4, max_batch_tokens=10))
        scheduler.submit(_state("huge", prompt_len=100, max_new=100))
        admitted = scheduler.admit()
        assert [s.request.request_id for s in admitted] == ["huge"]
        # ... but it blocks everything behind it until released.
        scheduler.submit(_state("next", prompt_len=1, max_new=1))
        assert scheduler.admit() == []

    def test_concurrency_cap(self):
        scheduler = Scheduler(SchedulerConfig(max_active_requests=3, max_batch_tokens=10_000))
        for index in range(5):
            scheduler.submit(_state(f"r{index}", prompt_len=1, max_new=1))
        assert len(scheduler.admit()) == 3
        assert scheduler.num_running == 3
        assert scheduler.num_waiting == 2

    def test_page_budget_defers_admission(self):
        """The free-page gate defers requests the token budget would admit."""
        scheduler = Scheduler(SchedulerConfig(max_active_requests=8, max_batch_tokens=10_000))
        scheduler.submit(_state("a", prompt_len=20, max_new=20))  # footprint 40
        scheduler.submit(_state("b", prompt_len=20, max_new=20))
        admitted = scheduler.admit(free_page_tokens=50)
        assert [s.request.request_id for s in admitted] == ["a"]
        assert scheduler.num_waiting == 1
        # The deferred head is admitted once pages free up (FCFS preserved).
        admitted = scheduler.admit(free_page_tokens=64)
        assert [s.request.request_id for s in admitted] == ["b"]

    def test_page_overhead_charged_per_request(self):
        """Each admission charges footprint + per-request page overhead."""
        scheduler = Scheduler(SchedulerConfig(max_active_requests=8, max_batch_tokens=10_000))
        for name in ("a", "b"):
            scheduler.submit(_state(name, prompt_len=10, max_new=10))  # footprint 20
        # Two footprints fit 40 free page tokens, but overhead 15 means the
        # second request's 20 + 15 no longer fits the 40 - 35 = 5 left.
        admitted = scheduler.admit(free_page_tokens=40, page_overhead_tokens=15)
        assert [s.request.request_id for s in admitted] == ["a"]

    def test_page_budget_progress_guarantee(self):
        """An idle scheduler admits the head even over the page budget, so a
        pool smaller than one request cannot deadlock admission."""
        scheduler = Scheduler(SchedulerConfig(max_active_requests=4, max_batch_tokens=10_000))
        scheduler.submit(_state("huge", prompt_len=100, max_new=100))
        scheduler.submit(_state("next", prompt_len=1, max_new=1))
        admitted = scheduler.admit(free_page_tokens=10)
        assert [s.request.request_id for s in admitted] == ["huge"]
        # ... but with the pool drained nothing squeezes in behind it.
        assert scheduler.admit(free_page_tokens=0) == []
        # Once pages free up again, small requests resume flowing.
        assert [s.request.request_id for s in scheduler.admit(free_page_tokens=16)] == ["next"]

    def test_head_is_the_request_admit_tries_first(self):
        scheduler = Scheduler(SchedulerConfig(priorities=PriorityConfig(aging_rounds=8)))
        assert scheduler.head() is None
        low = _state("low", prompt_len=1, max_new=1)
        high = _state("high", prompt_len=1, max_new=1, priority=5)
        scheduler.submit(low)
        scheduler.submit(high)
        assert scheduler.head() is high
        assert scheduler.head() is high  # reordering again changes nothing
        assert scheduler.admit(free_page_tokens=2)[0] is high


class TestSchedulerFuzz:
    """Random admission/eviction traces must uphold the scheduler invariants.

    * the concatenated admission order is exactly the submission order (FCFS,
      no overtaking — a small request never starves a big one, and vice
      versa);
    * the token budget is respected at every instant, with the single
      documented exception: one oversized head-of-queue request admitted
      while the scheduler was idle (the progress guarantee);
    * the concurrency cap is never exceeded;
    * every trace drains — no request waits forever once releases keep
      happening (no starvation).
    """

    def _check_invariants(self, scheduler: Scheduler, config: SchedulerConfig) -> None:
        assert scheduler.num_running <= config.max_active_requests
        if scheduler.tokens_in_flight > config.max_batch_tokens:
            assert scheduler.num_running == 1, (
                f"budget exceeded with {scheduler.num_running} running: "
                f"{scheduler.tokens_in_flight} > {config.max_batch_tokens}"
            )

    def _run_trace(self, cases: Cases) -> None:
        config = SchedulerConfig(
            max_active_requests=cases.integer(1, 4),
            max_batch_tokens=cases.integer(10, 120),
        )
        scheduler = Scheduler(config)
        total = cases.integer(1, 20)
        submitted: list = []
        admitted: list = []
        pending = total
        steps = 0
        while scheduler.has_work or pending > 0:
            steps += 1
            assert steps <= 20 * total + 20, "trace did not drain: starvation or deadlock"
            action = cases.integer(0, 2)
            if action == 0 and pending > 0:
                state = _state(
                    f"r{len(submitted)}",
                    prompt_len=cases.integer(1, 60),
                    max_new=cases.integer(1, 60),
                )
                submitted.append(state)
                scheduler.submit(state)
                pending -= 1
            elif action == 1:
                admitted.extend(scheduler.admit())
                self._check_invariants(scheduler, config)
            elif scheduler.running:
                scheduler.release(cases.choice(scheduler.running))
                self._check_invariants(scheduler, config)

        assert pending == 0 and not scheduler.has_work
        # FCFS end to end: every request was admitted, in submission order.
        assert [s.request.request_id for s in admitted] == [s.request.request_id for s in submitted]
        assert all(state.status is RequestStatus.FINISHED for state in submitted)

    def test_random_traces_quick(self):
        for_all(num_cases(50, 50), self._run_trace, seed=41)

    @pytest.mark.slow
    def test_random_traces_full(self):
        for_all(1500, self._run_trace, seed=42)

    def _run_trace_pages(self, cases: Cases) -> None:
        """Page-gated traces against a simulated block pool.

        Models exactly what the engine does: every ``admit`` passes the
        pool's current free pages (in tokens) plus a per-request overhead;
        an admitted request holds ``footprint + overhead`` page tokens until
        released.  Invariants: the pool never goes negative except for the
        one documented progress-guarantee admission (an oversized head on an
        idle scheduler), every page is returned by drain time (no page
        leaks), and page exhaustion only ever *defers* — the trace still
        drains without starvation or deadlock.
        """
        config = SchedulerConfig(
            max_active_requests=cases.integer(1, 4),
            max_batch_tokens=10_000,  # pages, not tokens, are the binding gate
        )
        scheduler = Scheduler(config)
        capacity = cases.integer(20, 200)
        overhead = cases.integer(0, 12)
        free = capacity
        page_cost: dict = {}
        total = cases.integer(1, 20)
        submitted: list = []
        admitted: list = []
        pending = total
        steps = 0
        while scheduler.has_work or pending > 0:
            steps += 1
            assert steps <= 20 * total + 20, "trace did not drain: page-gate deadlock"
            action = cases.integer(0, 2)
            if action == 0 and pending > 0:
                state = _state(
                    f"r{len(submitted)}",
                    prompt_len=cases.integer(1, 60),
                    max_new=cases.integer(1, 60),
                )
                submitted.append(state)
                scheduler.submit(state)
                pending -= 1
            elif action == 1:
                batch = scheduler.admit(free_page_tokens=free, page_overhead_tokens=overhead)
                for state in batch:
                    page_cost[state.request.request_id] = state.request.footprint_tokens + overhead
                    free -= page_cost[state.request.request_id]
                admitted.extend(batch)
                if free < 0:
                    assert scheduler.num_running == 1, (
                        f"pool overdrawn ({free}) with {scheduler.num_running} running: "
                        f"only the idle-scheduler progress guarantee may overshoot"
                    )
            elif scheduler.running:
                victim = cases.choice(scheduler.running)
                scheduler.release(victim)
                free += page_cost.pop(victim.request.request_id)

        assert pending == 0 and not scheduler.has_work
        assert free == capacity, f"page leak: {capacity - free} page tokens never returned"
        assert [s.request.request_id for s in admitted] == [s.request.request_id for s in submitted]
        assert all(state.status is RequestStatus.FINISHED for state in submitted)

    def test_page_gated_traces_quick(self):
        for_all(num_cases(50, 50), self._run_trace_pages, seed=47)

    @pytest.mark.slow
    def test_page_gated_traces_full(self):
        for_all(1500, self._run_trace_pages, seed=48)


class TestServingStats:
    def test_step_records_match_sequential(self, tiny_pipeline):
        """Per-step bookkeeping matches field for field, the verified and
        verified-unpruned position counts included (constrained and not)."""
        prompts = _prompts(tiny_pipeline, 4)
        configs = [
            GenerationConfig.greedy_config(16),
            GenerationConfig.greedy_config(16, grammar="verilog"),
            GenerationConfig.sampling_config(0.8, 16, seed=2),
            GenerationConfig.sampling_config(0.8, 16, seed=3, grammar="verilog"),
        ]
        decoder = tiny_pipeline.decoder_for("ours")
        sequential = [decoder.generate_from_text(p, c) for p, c in zip(prompts, configs)]

        engine = _engine(tiny_pipeline, "ours", DecodingStrategy.OURS, max_active_requests=4)
        request_ids = [engine.submit_text(p, c) for p, c in zip(prompts, configs)]
        results = engine.run()
        for request_id, expected in zip(request_ids, sequential):
            assert results[request_id].step_records == expected.step_records
            assert results[request_id].tokens_verified == expected.tokens_verified
            assert results[request_id].tokens_verified_unpruned == expected.tokens_verified_unpruned
        constrained = [r for r in sequential[1].step_records if r.verified_unpruned is not None]
        assert constrained and all(r.verified <= r.verified_unpruned for r in constrained)

    def test_prefill_time_recorded(self, tiny_pipeline):
        engine = _engine(tiny_pipeline, "ours", DecodingStrategy.OURS)
        request_id = engine.submit_text("module adder", GenerationConfig.greedy_config(4))
        results = engine.run()
        assert results[request_id].prefill_seconds > 0.0
        assert results[request_id].wall_time_seconds >= results[request_id].prefill_seconds


class TestRaggedBatchedForward:
    """The shared forward must treat each ragged row like its own batch-1 run."""

    def test_ragged_rows_match_isolated_forwards(self, tiny_pipeline):
        model = tiny_pipeline.models["ntp"]
        tokenizer = tiny_pipeline.tokenizer
        from repro.nn.kv_cache import KVCache

        prompts = [
            tokenizer.encode("module a", add_bos=True),
            tokenizer.encode("module bigger_block (input clk)", add_bos=True),
        ]
        # Isolated: prefill each prompt in its own cache, then step one token.
        isolated = []
        caches = []
        for ids in prompts:
            cache = model.new_cache()
            base, _ = model.forward_hidden(np.asarray([ids], dtype=np.int64), cache=cache)
            isolated.append(base[0, -1])
            caches.append(cache)
        merged = KVCache.concat(caches)
        assert merged.batch == 2
        assert merged.lengths.tolist() == [len(prompts[0]), len(prompts[1])]

        step_tokens = np.asarray([[5], [7]], dtype=np.int64)
        batched_base, _ = model.forward_hidden(step_tokens, cache=merged)

        for row, (ids, token) in enumerate(zip(prompts, step_tokens[:, 0])):
            cache = model.new_cache()
            model.forward_hidden(np.asarray([ids], dtype=np.int64), cache=cache)
            single_base, _ = model.forward_hidden(np.asarray([[token]], dtype=np.int64), cache=cache)
            np.testing.assert_allclose(batched_base[row, -1], single_base[0, -1], atol=1e-5)


class TestChunkedPrefill:
    """Chunked prefill is a pure compute-layout change: token-identical outputs."""

    @pytest.mark.parametrize("method,strategy", METHODS)
    @pytest.mark.parametrize("chunk", [1, 3, 8])
    def test_chunked_matches_whole_prefill(self, tiny_pipeline, method, strategy, chunk):
        prompts = _prompts(tiny_pipeline, 4)
        config = GenerationConfig.greedy_config(12)
        decoder = tiny_pipeline.decoder_for(method)
        sequential = [decoder.generate_from_text(prompt, config) for prompt in prompts]

        engine = _engine(
            tiny_pipeline, method, strategy,
            max_active_requests=2, max_prefill_tokens_per_step=chunk,
        )
        request_ids = [engine.submit_text(prompt, config) for prompt in prompts]
        results = engine.run()
        for request_id, expected in zip(request_ids, sequential):
            assert results[request_id].token_ids == expected.token_ids

    def test_chunked_matches_whole_prefill_sampling(self, tiny_pipeline):
        prompts = _prompts(tiny_pipeline, 4)
        configs = [GenerationConfig.sampling_config(0.8, 14, seed=i) for i in range(len(prompts))]
        decoder = tiny_pipeline.decoder_for("ours")
        sequential = [decoder.generate_from_text(p, c) for p, c in zip(prompts, configs)]

        engine = _engine(
            tiny_pipeline, "ours", DecodingStrategy.OURS,
            max_active_requests=2, max_prefill_tokens_per_step=4,
        )
        request_ids = [engine.submit_text(p, c) for p, c in zip(prompts, configs)]
        results = engine.run()
        for request_id, expected in zip(request_ids, sequential):
            assert results[request_id].token_ids == expected.token_ids

    def test_prefilling_status_and_interleaving(self, tiny_pipeline):
        """A long prompt under a small per-step budget sits in PREFILLING
        across steps while already-running requests keep decoding."""
        engine = _engine(
            tiny_pipeline, "ours", DecodingStrategy.OURS,
            max_active_requests=2, max_prefill_tokens_per_step=2,
        )
        first = engine.submit_text("module adder (input clk);", GenerationConfig.greedy_config(20))
        engine.step()  # first request starts prefilling
        long_id = engine.submit_text(
            "module long_preamble_block (input clk, input rst, input [7:0] data_in);",
            GenerationConfig.greedy_config(4),
        )
        saw_prefilling = False
        saw_concurrent_decode = False
        for _ in range(200):
            if not engine.has_work:
                break
            state = engine._states[long_id]
            if state.status is RequestStatus.PREFILLING:
                saw_prefilling = True
                if len(engine._states[first].output_ids) > 0:
                    saw_concurrent_decode = True
            engine.step()
        assert not engine.has_work
        assert saw_prefilling, "long prompt never entered PREFILLING under a 2-token budget"
        assert saw_concurrent_decode, "decode did not interleave with chunked prefill"
        assert engine._states[long_id].status is RequestStatus.FINISHED

    def test_first_token_waits_for_one_prompt_not_the_batch(self, tiny_pipeline):
        """Whole-prompt prefill runs every admitted prompt through the model
        before any first token lands; a per-step budget serves the queue FCFS,
        so the first request's first token waits for about its own prompt.
        Stated in prefilled tokens, so no clock is read."""
        config = GenerationConfig.greedy_config(8)
        prompts = ["\n".join(_prompts(tiny_pipeline, 6)[i:i + 3]) for i in range(3)]
        lengths = [len(tiny_pipeline.tokenizer.encode(p, add_bos=True)) for p in prompts]

        def serve(chunk):
            engine = _engine(
                tiny_pipeline, "ours", DecodingStrategy.OURS,
                max_active_requests=3, max_prefill_tokens_per_step=chunk,
            )
            request_ids = [engine.submit_text(prompt, config) for prompt in prompts]
            prefilled_at_first_token = []
            engine.attach_listeners(
                request_ids[0],
                on_commit=lambda burst: prefilled_at_first_token.append(engine.tokens_prefilled_total),
            )
            results = engine.run()
            return prefilled_at_first_token[0], [results[rid].token_ids for rid in request_ids]

        whole_ahead, whole_tokens = serve(None)
        chunked_ahead, chunked_tokens = serve(16)
        assert chunked_tokens == whole_tokens
        assert whole_ahead == sum(lengths)
        assert lengths[0] <= chunked_ahead < lengths[0] + 16

    def test_chunk_budget_validation(self):
        with pytest.raises(ValueError, match="max_prefill_tokens_per_step"):
            SchedulerConfig(max_prefill_tokens_per_step=0)


class TestPrefixReuse:
    """Cross-request prefix reuse: identical tokens, less prefill compute."""

    @pytest.mark.parametrize("method,strategy", METHODS)
    def test_reuse_matches_sequential(self, tiny_pipeline, method, strategy):
        prompts = _shared_prefix_prompts(tiny_pipeline, 4) * 2
        config = GenerationConfig.greedy_config(12)
        decoder = tiny_pipeline.decoder_for(method)
        sequential = [decoder.generate_from_text(prompt, config) for prompt in prompts]

        engine = _engine(
            tiny_pipeline, method, strategy,
            prefix_cache=PrefixCache(max_tokens=4096), max_active_requests=2,
        )
        request_ids = [engine.submit_text(prompt, config) for prompt in prompts]
        results = engine.run()
        for request_id, expected in zip(request_ids, sequential):
            assert results[request_id].token_ids == expected.token_ids
        stats = engine.prefix_cache_stats()
        assert stats["hits"] > 0
        assert stats["prompt_tokens_reused"] > 0
        assert 0.0 < stats["prefill_savings"] < 1.0

    def test_reuse_with_chunked_prefill_and_sampling(self, tiny_pipeline):
        prompts = _shared_prefix_prompts(tiny_pipeline, 4) * 2
        configs = [GenerationConfig.sampling_config(0.8, 12, seed=i) for i in range(len(prompts))]
        decoder = tiny_pipeline.decoder_for("ours")
        sequential = [decoder.generate_from_text(p, c) for p, c in zip(prompts, configs)]

        engine = _engine(
            tiny_pipeline, "ours", DecodingStrategy.OURS,
            prefix_cache=PrefixCache(max_tokens=4096),
            max_active_requests=2, max_prefill_tokens_per_step=5,
        )
        request_ids = [engine.submit_text(p, c) for p, c in zip(prompts, configs)]
        results = engine.run()
        for request_id, expected in zip(request_ids, sequential):
            assert results[request_id].token_ids == expected.token_ids
        assert engine.prefix_cache_stats()["hits"] > 0

    def test_reuse_prefills_fewer_tokens_than_baseline(self, tiny_pipeline):
        prompts = _shared_prefix_prompts(tiny_pipeline, 4) * 2
        config = GenerationConfig.greedy_config(8)

        baseline = _engine(tiny_pipeline, "ours", DecodingStrategy.OURS, max_active_requests=2)
        for prompt in prompts:
            baseline.submit_text(prompt, config)
        baseline.run()

        reuse = _engine(
            tiny_pipeline, "ours", DecodingStrategy.OURS,
            prefix_cache=PrefixCache(max_tokens=4096), max_active_requests=2,
        )
        for prompt in prompts:
            reuse.submit_text(prompt, config)
        reuse.run()

        baseline_prefilled = baseline.prefix_cache_stats()["prompt_tokens_prefilled"]
        reuse_stats = reuse.prefix_cache_stats()
        assert reuse_stats["prompt_tokens_prefilled"] < baseline_prefilled
        assert (
            reuse_stats["prompt_tokens_prefilled"] + reuse_stats["prompt_tokens_reused"]
            == baseline_prefilled
        )

    def test_reuse_survives_eviction_pressure(self, tiny_pipeline):
        """A tiny retention budget forces evictions mid-run; outputs stay right."""
        prompts = _shared_prefix_prompts(tiny_pipeline, 6)
        config = GenerationConfig.greedy_config(8)
        decoder = tiny_pipeline.decoder_for("ours")
        sequential = [decoder.generate_from_text(prompt, config) for prompt in prompts]

        cache = PrefixCache(max_tokens=40)  # holds roughly one prompt
        engine = _engine(
            tiny_pipeline, "ours", DecodingStrategy.OURS,
            prefix_cache=cache, max_active_requests=1,
        )
        request_ids = [engine.submit_text(prompt, config) for prompt in prompts]
        results = engine.run()
        for request_id, expected in zip(request_ids, sequential):
            assert results[request_id].token_ids == expected.token_ids
        assert cache.num_tokens <= 40

    def test_per_request_reuse_surfaces_in_results(self, tiny_pipeline):
        """DecodeResult.prompt_tokens_reused sums to the engine-level total."""
        prompts = _shared_prefix_prompts(tiny_pipeline, 4) * 2
        config = GenerationConfig.greedy_config(6)
        engine = _engine(
            tiny_pipeline, "ours", DecodingStrategy.OURS,
            prefix_cache=PrefixCache(max_tokens=4096), max_active_requests=2,
        )
        request_ids = [engine.submit_text(prompt, config) for prompt in prompts]
        results = engine.run()
        per_request = [results[request_id].prompt_tokens_reused for request_id in request_ids]
        assert sum(per_request) == engine.tokens_reused_total > 0
        # Sequential decoding never reuses.
        sequential = tiny_pipeline.decoder_for("ours").generate_from_text(prompts[0], config)
        assert sequential.prompt_tokens_reused == 0

    def test_prefix_cache_rejects_sharing_across_models(self, tiny_pipeline):
        """Retained K/V is model-specific: one cache cannot serve two models."""
        cache = PrefixCache(max_tokens=1024)
        _engine(tiny_pipeline, "ours", DecodingStrategy.OURS, prefix_cache=cache)
        with pytest.raises(ValueError, match="different model"):
            _engine(tiny_pipeline, "ntp", DecodingStrategy.NTP, prefix_cache=cache)
        # Each engine builds its own block pool, so even an engine over the
        # same model cannot take a cache another engine is bound to.
        with pytest.raises(ValueError, match="different model or engine"):
            _engine(tiny_pipeline, "ours", DecodingStrategy.OURS, prefix_cache=cache)

    def test_prefix_cache_rejects_a_second_engine_after_a_hit(self, tiny_pipeline):
        """Regression: an engine over a cache whose entries live in another
        engine's pool used to be built, then crash in ``splice_prefix`` on its
        first hit.  It is now refused at construction."""
        cache = PrefixCache(max_tokens=4096)
        first = _engine(
            tiny_pipeline, "ours", DecodingStrategy.OURS, prefix_cache=cache, max_active_requests=1
        )
        config = GenerationConfig.greedy_config(4)
        for prompt in _shared_prefix_prompts(tiny_pipeline, 3):
            first.submit_text(prompt, config)
        first.run()
        assert first.prefix_cache_stats()["hits"] >= 1
        with pytest.raises(ValueError, match="each engine needs its own cache"):
            _engine(tiny_pipeline, "ours", DecodingStrategy.OURS, prefix_cache=cache)

    def test_one_token_prompts_never_reuse(self, tiny_pipeline):
        """At least one prompt token is always prefilled (it produces the
        last-position logits), so a 1-token prompt cannot hit the cache."""
        engine = _engine(
            tiny_pipeline, "ntp", DecodingStrategy.NTP,
            prefix_cache=PrefixCache(max_tokens=4096),
        )
        config = GenerationConfig.greedy_config(4)
        bos = tiny_pipeline.tokenizer.vocab.bos_id
        first = engine.submit([bos], config)
        second = engine.submit([bos], config)
        results = engine.run()
        assert results[first].token_ids == results[second].token_ids
        stats = engine.prefix_cache_stats()
        assert stats["prompt_tokens_reused"] == 0


class TestFootprintClamp:
    """Regression: footprints are clamped to the context window (satellite fix)."""

    def test_request_footprint_clamped(self):
        request = GenerationRequest(
            request_id="r",
            prompt_ids=list(range(10)),
            config=GenerationConfig.greedy_config(10_000),
            context_limit=128,
        )
        assert request.footprint_tokens == 128

    def test_unclamped_without_context_limit(self):
        request = GenerationRequest(
            request_id="r",
            prompt_ids=list(range(10)),
            config=GenerationConfig.greedy_config(10_000),
        )
        assert request.footprint_tokens == 10_010

    def test_engine_submit_stamps_context_limit(self, tiny_pipeline):
        engine = _engine(tiny_pipeline, "ours", DecodingStrategy.OURS)
        max_seq_len = tiny_pipeline.models["ours"].backbone.max_seq_len
        request_id = engine.submit([2, 3, 4], GenerationConfig.greedy_config(10_000))
        state = engine._states[request_id]
        assert state.request.context_limit == max_seq_len
        assert state.request.footprint_tokens == max_seq_len

    def test_clamp_prevents_admission_starvation(self, tiny_pipeline):
        """Two requests with absurd max_new_tokens both fit a budget sized
        for two context windows; before the clamp the first one's inflated
        footprint starved the second forever."""
        max_seq_len = tiny_pipeline.models["ours"].backbone.max_seq_len
        engine = _engine(
            tiny_pipeline, "ours", DecodingStrategy.OURS,
            max_active_requests=8, max_batch_tokens=2 * max_seq_len,
        )
        config = GenerationConfig.greedy_config(10 * max_seq_len)
        for _ in range(2):
            engine.submit([2, 3, 4, 5], config)
        engine.step()
        assert engine.scheduler.num_running == 2, (
            "clamped footprints must both fit a 2-window budget"
        )
        assert engine.scheduler.tokens_in_flight == 2 * max_seq_len
        engine.run()
        assert not engine.has_work


class TestSubmitValidation:
    """Satellite fix: requests are validated at the submission boundary."""

    def test_out_of_vocab_token_rejected(self, tiny_pipeline):
        engine = _engine(tiny_pipeline, "ours", DecodingStrategy.OURS)
        vocab_size = tiny_pipeline.models["ours"].vocab_size
        with pytest.raises(ValueError, match="vocabulary"):
            engine.submit([1, vocab_size])
        with pytest.raises(ValueError, match="vocabulary"):
            engine.submit([-1, 2])

    def test_empty_request_id_rejected(self, tiny_pipeline):
        engine = _engine(tiny_pipeline, "ours", DecodingStrategy.OURS)
        with pytest.raises(ValueError, match="non-empty"):
            engine.submit([1, 2], request_id="")

    def test_auto_ids_skip_caller_collisions(self, tiny_pipeline):
        """Auto-assigned ids must not collide with ids the caller picked."""
        engine = _engine(tiny_pipeline, "ntp", DecodingStrategy.NTP)
        engine.submit([2, 3], GenerationConfig.greedy_config(2), request_id="req-0")
        auto_id = engine.submit([2, 3], GenerationConfig.greedy_config(2))
        assert auto_id != "req-0"
        results = engine.run()
        assert set(results) == {"req-0", auto_id}

    def test_failed_submission_leaves_engine_clean(self, tiny_pipeline):
        engine = _engine(tiny_pipeline, "ntp", DecodingStrategy.NTP)
        with pytest.raises(ValueError):
            engine.submit([])
        assert not engine.has_work


class TestPrefillTiming:
    """Satellite fix: prefill_seconds times the model forward only, and does
    so identically whether prefill is whole, chunked, or partially reused."""

    def test_prefill_seconds_bounded_by_wall_time(self, tiny_pipeline):
        engine = _engine(
            tiny_pipeline, "ours", DecodingStrategy.OURS,
            prefix_cache=PrefixCache(max_tokens=4096),
            max_prefill_tokens_per_step=3,
        )
        config = GenerationConfig.greedy_config(6)
        prompts = _shared_prefix_prompts(tiny_pipeline, 2)
        request_ids = [engine.submit_text(prompt, config) for prompt in prompts]
        results = engine.run()
        for request_id in request_ids:
            result = results[request_id]
            assert result.prefill_seconds > 0.0
            assert result.wall_time_seconds >= result.prefill_seconds


def _mixed_configs(count):
    """Greedy / sampling configs interleaved."""
    return [
        GenerationConfig.greedy_config(14) if index % 3 == 0 else GenerationConfig.sampling_config(0.8, 12, seed=index)
        for index in range(count)
    ]


class TestPagedKVMemory:
    """The paged block pool: token identity with sequential generate (whose
    row cache is the oracle), zero-copy prefix hits, peak memory that tracks
    cached tokens, and no page leaks across completion and cancellation."""

    @pytest.mark.parametrize("method,strategy", METHODS)
    def test_row_oracle_matches_paged_default(self, tiny_pipeline, method, strategy):
        """The engine commits the tokens sequential generate commits over its
        contiguous row cache, under mixed greedy/sampling/tree configs,
        chunked prefill and prefix reuse — the tests' strongest cross-storage
        identity statement."""
        prompts = _shared_prefix_prompts(tiny_pipeline, 6)
        configs = _mixed_configs(len(prompts))
        decoder = tiny_pipeline.decoder_for(method)
        sequential = [decoder.generate_from_text(p, c).token_ids for p, c in zip(prompts, configs)]

        engine = _engine(
            tiny_pipeline, method, strategy,
            prefix_cache=PrefixCache(max_tokens=4096),
            max_active_requests=3, max_prefill_tokens_per_step=7,
        )
        request_ids = [engine.submit_text(p, c) for p, c in zip(prompts, configs)]
        results = engine.run()
        assert engine.prefix_cache_stats()["hits"] > 0
        assert [results[request_id].token_ids for request_id in request_ids] == sequential

    def test_prefix_hits_are_zero_copy(self, tiny_pipeline, monkeypatch):
        """Prefix hits alias pool pages: every splice the engine makes leaves
        the hit row's table equal to the retained block ids, allocates no
        block and copies none, and the copy counter stays 0."""
        splices = []
        original = PagedKVCache.splice_prefix

        def checked_splice(cache, row, prefix):
            pool = cache.pool
            before = (pool.blocks_in_use, pool.cow_events)
            original(cache, row, prefix)
            assert cache._tables[row] == list(prefix.block_ids)
            assert (pool.blocks_in_use, pool.cow_events) == before
            splices.append(prefix.length)

        monkeypatch.setattr(PagedKVCache, "splice_prefix", checked_splice)
        prompts = _shared_prefix_prompts(tiny_pipeline, 4) * 2
        config = GenerationConfig.greedy_config(8)
        engine = _engine(
            tiny_pipeline, "ours", DecodingStrategy.OURS,
            prefix_cache=PrefixCache(max_tokens=4096), max_active_requests=2,
        )
        for prompt in prompts:
            engine.submit_text(prompt, config)
        engine.run()
        stats = engine.prefix_cache_stats()
        assert stats["hits"] == len(splices) > 0
        assert stats["prompt_tokens_reused"] == sum(splices)
        assert engine.kv_pool_stats()["prefix_copy_tokens"] == 0

    def test_paged_peak_kv_bytes_lower_on_shared_prefixes(self, tiny_pipeline):
        """The headline memory claim, at test scale: on a shared-prefix
        workload the pool's peak K/V bytes stay strictly below what
        contiguous rows would reserve for the concurrently running requests
        alone (one full context window each)."""
        prompts = _shared_prefix_prompts(tiny_pipeline, 4) * 2
        config = GenerationConfig.greedy_config(8)
        engine = _engine(
            tiny_pipeline, "ours", DecodingStrategy.OURS,
            prefix_cache=PrefixCache(max_tokens=4096), max_active_requests=4,
        )
        for prompt in prompts:
            engine.submit_text(prompt, config)
        max_running = 0
        while engine.has_work:
            engine.step()
            max_running = max(max_running, engine.num_active)
        pool = engine._pool
        bytes_per_token = pool.block_nbytes // pool.block_size
        row_reservation = max_running * engine.max_seq_len * bytes_per_token
        assert max_running == 4
        assert 0 < engine.kv_pool_stats()["peak_kv_bytes"] < row_reservation

    def test_pool_drains_after_run(self, tiny_pipeline):
        """No page leaks: after a run every block reference is back at zero
        (prefix-cache retention pins pages only until clear())."""
        config = GenerationConfig.greedy_config(6)
        engine = _engine(tiny_pipeline, "ours", DecodingStrategy.OURS, max_active_requests=3)
        for prompt in _prompts(tiny_pipeline, 5):
            engine.submit_text(prompt, config)
        engine.run()
        assert engine._pool.blocks_in_use == 0
        assert np.all(engine._pool.refcounts == 0)

        cache = PrefixCache(max_tokens=4096)
        engine = _engine(
            tiny_pipeline, "ours", DecodingStrategy.OURS,
            prefix_cache=cache, max_active_requests=3,
        )
        for prompt in _shared_prefix_prompts(tiny_pipeline, 5):
            engine.submit_text(prompt, config)
        engine.run()
        assert engine._pool.blocks_in_use > 0  # retention legitimately pins pages
        cache.clear()
        assert engine._pool.blocks_in_use == 0
        assert np.all(engine._pool.refcounts == 0)

    def test_no_prefix_cache_copies_no_block(self, tiny_pipeline):
        """Copy-on-write happens only where a writer shares a block.  Without
        a prefix cache no two rows ever share one, and the step's in-place
        compaction creates no sharing, so a whole run copies nothing."""
        engine = _engine(tiny_pipeline, "ours", DecodingStrategy.OURS)
        for prompt in _prompts(tiny_pipeline, 6):
            engine.submit_text(prompt, GenerationConfig.greedy_config(40))
        results = engine.run()
        assert sum(result.steps for result in results.values()) > 6
        assert engine.kv_pool_stats()["cow_events"] == 0
        assert engine._pool.blocks_in_use == 0

    def test_cancel_frees_pages(self, tiny_pipeline):
        """Cancelling an in-flight request releases its pages immediately."""
        engine = _engine(tiny_pipeline, "ours", DecodingStrategy.OURS, max_active_requests=2)
        victim = engine.submit_text(
            "module cancel_me (input clk, input rst);", GenerationConfig.greedy_config(200)
        )
        survivor = engine.submit_text("module keeper;", GenerationConfig.greedy_config(6))
        for _ in range(3):
            engine.step()
        held_before = engine._pool.blocks_in_use
        assert held_before > 0
        assert engine.cancel(victim)
        assert engine._pool.blocks_in_use < held_before
        engine.run()
        assert engine.result(victim).cancelled
        assert engine.result(survivor).tokens_generated > 0
        assert engine._pool.blocks_in_use == 0

    def test_tiny_pool_defers_admission_without_deadlock(self, tiny_pipeline):
        """A pool barely bigger than one request's worst case forces the
        page gate to serialise admission; every request still finishes with
        the tokens the sequential decoder commits."""
        prompts = _prompts(tiny_pipeline, 5)
        config = GenerationConfig.greedy_config(8)
        decoder = tiny_pipeline.decoder_for("ours")
        sequential = [decoder.generate_from_text(prompt, config) for prompt in prompts]

        engine = _engine(
            tiny_pipeline, "ours", DecodingStrategy.OURS,
            kv_block_size=16, max_active_requests=8,
        )
        # One request's worst case: its clamped footprint plus the engine's
        # per-request page overhead, in blocks — plus two blocks of slack.
        overhead_tokens = engine._admission_kwargs()["page_overhead_tokens"]
        ids = [tiny_pipeline.tokenizer.encode(p, add_bos=True) for p in prompts]
        worst = max(len(i) for i in ids) + 8 + overhead_tokens
        engine = _engine(
            tiny_pipeline, "ours", DecodingStrategy.OURS,
            kv_block_size=16, kv_pool_blocks=-(-worst // 16) + 2, max_active_requests=8,
        )
        request_ids = [engine.submit(i, config) for i in ids]
        max_running = 0
        for _ in range(10_000):
            if not engine.has_work:
                break
            engine.step()
            max_running = max(max_running, engine.scheduler.num_running)
        assert not engine.has_work, "tiny pool deadlocked admission"
        assert max_running < len(prompts), "page gate never deferred anything"
        for request_id, expected in zip(request_ids, sequential):
            assert engine.result(request_id).token_ids == expected.token_ids
        assert engine._pool.blocks_in_use == 0

    def test_pre_eviction_sizes_for_the_priority_head(self, tiny_pipeline):
        """Retention never starves admission, with priorities on too: the
        engine pre-evicts retained prefixes for the request admission will try
        first (the high-priority one), not for the oldest queued request."""
        engine = _engine(
            tiny_pipeline, "ours", DecodingStrategy.OURS,
            prefix_cache=PrefixCache(max_tokens=4096),
            kv_block_size=16, kv_pool_blocks=40,
            priorities=PriorityConfig(aging_rounds=8),
        )
        # Distinct leading tokens, so no prompt reuses another's blocks.
        engine.submit([5] * 64, GenerationConfig.greedy_config(1))
        engine.run()  # retains 64 prompt tokens: 4 blocks only the prefix cache holds
        engine.submit([6] * 8, GenerationConfig.greedy_config(200))
        engine.step()
        assert engine.num_active == 1
        kwargs = engine._admission_kwargs()
        free, overhead = kwargs["free_page_tokens"], kwargs["page_overhead_tokens"]
        # The small request (footprint 4) fits as is; the large one only once
        # eviction frees more than the 8 tokens it lacks.
        assert free >= 4 + overhead
        small = engine.submit([7] * 3, GenerationConfig.greedy_config(1), priority=0)
        large_footprint = free - overhead + 8
        large = engine.submit([8] * 10, GenerationConfig.greedy_config(large_footprint - 10), priority=5)
        engine.step()
        waiting = [state.request.request_id for state in engine.scheduler.waiting]
        assert large not in waiting
        assert engine.prefix_cache.stats.evictions > 0
        assert small in waiting  # what eviction freed went to the large request


def _check_pool_invariants(engine) -> None:
    """The engine's page bookkeeping between steps: every block's refcount is
    exactly its occurrences in the shared cache's tables, the prefilling rows'
    tables and the prefix cache's retained block ids, the free list is
    exactly the unreferenced blocks, each once, and no row's table holds a
    block past the ones its length needs (in-place compaction and
    truncation must release what they vacate)."""
    pool = engine._pool
    rows = [engine._cache] + [state.row_cache for state in engine._prefilling]
    for cache in rows:
        for table, length in zip(cache._tables, cache.lengths):
            assert len(table) <= blocks_for(int(length), pool.block_size), "a row holds a block past its length"
    tables = [table for cache in rows for table in cache._tables]
    if engine.prefix_cache is not None:
        tables += [entry.prefix.block_ids for entry in engine.prefix_cache._entries.values()]
    held = np.zeros(pool.num_blocks, dtype=np.int64)
    for table in tables:
        np.add.at(held, list(table), 1)
    np.testing.assert_array_equal(pool.refcounts, held)
    assert len(set(pool._free)) == len(pool._free), "a block is on the free list twice"
    assert sorted(pool._free) == np.flatnonzero(held == 0).tolist()


class TestPagedEngineChurnFuzz:
    """Random submit/step/cancel churn against a deliberately small pool.

    The paged invariants under adversarial scheduling: after every step and
    cancellation the pool's refcounts and free list match the engine's tables
    and retention (:func:`_check_pool_invariants`), the engine always drains
    (page exhaustion defers, never deadlocks), and every pool block reference
    returns to zero afterwards (no leaks through cancellation, retention, or
    mid-flight eviction)."""

    def _run_trace(self, cases: Cases, pipeline) -> None:
        prompts = _prompts(pipeline, 6)
        cache = PrefixCache(max_tokens=cases.integer(40, 512)) if cases.boolean() else None
        # The page overhead does not depend on the prefix cache, and a cache
        # binds to the one engine (pool) it serves.
        probe = _engine(pipeline, "ours", DecodingStrategy.OURS)
        overhead_tokens = probe._admission_kwargs()["page_overhead_tokens"]
        ids = [pipeline.tokenizer.encode(p, add_bos=True) for p in prompts]
        worst = max(len(i) for i in ids) + 8 + overhead_tokens
        pool_blocks = -(-worst // 16) + cases.integer(2, 12)
        engine = _engine(
            pipeline, "ours", DecodingStrategy.OURS,
            prefix_cache=cache,
            kv_block_size=16, kv_pool_blocks=pool_blocks,
            max_active_requests=cases.integer(1, 4),
        )
        pending = list(range(cases.integer(2, 5)))
        submitted: list = []
        for _ in range(4000):
            if not pending and not engine.has_work:
                break
            action = cases.integer(0, 5)
            if action == 0 and pending:
                index = pending.pop()
                config = GenerationConfig.greedy_config(cases.integer(1, 8))
                submitted.append(engine.submit(ids[index % len(ids)], config))
            elif action == 1 and submitted and cases.boolean(0.3):
                engine.cancel(cases.choice(submitted))
                _check_pool_invariants(engine)
            elif engine.has_work:
                engine.step()
                _check_pool_invariants(engine)
        assert not pending and not engine.has_work, "churn trace did not drain"
        for request_id in submitted:
            engine.result(request_id)  # every request produced a result
        if cache is not None:
            cache.clear()
        assert engine._pool.blocks_in_use == 0, "leaked pool blocks"
        assert np.all(engine._pool.refcounts == 0)

    def test_churn_traces(self, tiny_pipeline):
        for_all(num_cases(6, 12), lambda cases: self._run_trace(cases, tiny_pipeline), seed=51)
