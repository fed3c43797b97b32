"""The step kernel against the full-recompute oracle, and its own invariants.

``SpeculativeDecoder.generate`` and ``ServingEngine.step`` both reach the model
only through prefill and the two kernel functions of
:mod:`repro.core.decoding`, so what is pinned down here holds for sequential
and served generation alike:

* **equivalence** — kernel output equals ``reference_decoder`` (no KV cache,
  no token tree, no batching) in tokens, steps, ``stopped_by_eos`` and the
  per-step ``(proposed, accepted, committed, ends_at_boundary)``, for
  NTP/Medusa/Ours x greedy/sampling on both backbones, and at the context
  window's edges;
* **batch invariance** — lanes stepped together commit what each commits
  stepped alone, whatever configs share the batch and whichever KV backend
  holds the rows; ``generate_many``'s lanes of one prompt, which share one
  prefill, equal per-config ``generate`` on both backbones;
* the two accounting fixes that ride along: NTP runs never evaluate the
  Medusa heads, and grammar-closure tokens stay out of the per-step and
  per-second rates.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from proptest import Cases, for_all, num_cases
from reference_decoder import reference_generate

from repro.constrained.mask import grammar_mask
from repro.core.decoding import (
    DecodingStrategy,
    SpeculativeDecoder,
    tree_headroom,
)
from repro.models.generation import GenerationConfig
from repro.nn.kv_cache import KVCache
from repro.nn.kv_pool import PagedKVCache
from repro.serving import GenerationRequest, RequestState, ServingEngine

METHODS = ("ntp", "medusa", "ours")
CONFIGS = {
    "greedy": GenerationConfig.greedy_config(48),
    "sampling": GenerationConfig.sampling_config(0.8, 48, seed=13),
}


def _step_fields(records):
    return [(r.proposed, r.accepted, r.committed, r.ends_at_boundary) for r in records]


def assert_matches_reference(decoder, prompt_ids, config):
    got = decoder.generate(prompt_ids, config)
    expected = reference_generate(decoder, list(prompt_ids), config)
    assert got.token_ids == expected.token_ids
    assert got.steps == expected.steps
    assert got.stopped_by_eos == expected.stopped_by_eos
    assert _step_fields(got.step_records) == _step_fields(expected.step_records)
    assert got.closure_tokens == expected.closure_tokens
    return got


class TestKernelMatchesReference:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("mode", sorted(CONFIGS))
    def test_decoder_only(self, tiny_pipeline, method, mode):
        decoder = tiny_pipeline.decoder_for(method)
        for example in tiny_pipeline.examples[:2]:
            prompt_ids = tiny_pipeline.tokenizer.encode(example.prompt_text(), add_bos=True)
            assert_matches_reference(decoder, prompt_ids, CONFIGS[mode])

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("mode", sorted(CONFIGS))
    def test_encoder_decoder(self, encdec_pipeline, method, mode):
        decoder = encdec_pipeline.decoder_for(method)
        for example in encdec_pipeline.examples[:2]:
            prompt_ids = encdec_pipeline.tokenizer.encode(example.prompt_text(), add_bos=True)
            assert_matches_reference(decoder, prompt_ids, CONFIGS[mode])

    def test_rollback_keeps_later_steps_identical(self, tiny_pipeline):
        """Compaction after rejected candidates leaves no trace in later steps."""
        decoder = tiny_pipeline.decoder_for("ours")
        for example in tiny_pipeline.examples[:3]:
            prompt_ids = tiny_pipeline.tokenizer.encode(example.prompt_text(), add_bos=True)
            assert_matches_reference(decoder, prompt_ids, GenerationConfig.greedy_config(64))

    @pytest.mark.parametrize("method", ["ntp", "ours"])
    def test_under_grammar(self, tiny_pipeline, method):
        decoder = tiny_pipeline.decoder_for(method)
        prompt_ids = tiny_pipeline.tokenizer.encode(tiny_pipeline.examples[0].prompt_text(), add_bos=True)
        for config in (
            GenerationConfig.greedy_config(40, grammar="verilog"),
            GenerationConfig.sampling_config(0.8, 40, seed=7, grammar="verilog"),
        ):
            assert_matches_reference(decoder, prompt_ids, config)

    @pytest.mark.slow
    @pytest.mark.parametrize("method", METHODS)
    def test_full_sweep(self, tiny_pipeline, method):
        decoder = tiny_pipeline.decoder_for(method)
        configs = [
            GenerationConfig.greedy_config(24),
            GenerationConfig.sampling_config(0.8, 20, seed=5),
            GenerationConfig.sampling_config(1.2, 24, seed=9),
            GenerationConfig.greedy_config(48),
        ]
        for example in tiny_pipeline.examples[:6]:
            prompt_ids = tiny_pipeline.tokenizer.encode(example.prompt_text(), add_bos=True)
            for config in configs:
                assert_matches_reference(decoder, prompt_ids, config)


class TestContextWindowEdges:
    @pytest.mark.parametrize("method", ["ntp", "ours"])
    def test_prompt_fills_the_window(self, tiny_pipeline, method):
        decoder = tiny_pipeline.decoder_for(method)
        max_len = decoder.model.backbone.max_seq_len
        for length in (max_len - 2, max_len):
            result = assert_matches_reference(decoder, [5] * length, GenerationConfig.greedy_config(8))
            assert result.token_ids == []
            assert result.prefill_seconds == 0.0

    @pytest.mark.parametrize("method", ["ntp", "ours"])
    def test_one_token_of_window_left(self, tiny_pipeline, method):
        decoder = tiny_pipeline.decoder_for(method)
        max_len = decoder.model.backbone.max_seq_len
        result = assert_matches_reference(decoder, [5] * (max_len - 3), GenerationConfig.greedy_config(8))
        assert result.tokens_generated == 1

    @pytest.mark.parametrize("method", ["ntp", "ours"])
    def test_zero_token_budget(self, tiny_pipeline, method):
        config = GenerationConfig.greedy_config(0)
        decoder = tiny_pipeline.decoder_for(method)
        assert assert_matches_reference(decoder, [5, 6, 7], config).token_ids == []
        engine = tiny_pipeline.engine_for(method)
        request_id = engine.submit([5, 6, 7], config)
        assert engine.run()[request_id].token_ids == []

    def test_tree_may_extend_past_the_window(self, tiny_pipeline):
        """Tree nodes sit at ``prefix + depth``, so a tree whose node count
        carries the cache row past ``max_seq_len`` still verifies."""
        decoder = tiny_pipeline.decoder_for("ours")
        max_len = decoder.model.backbone.max_seq_len
        prompt_ids = tiny_pipeline.tokenizer.encode(tiny_pipeline.examples[0].prompt_text(), add_bos=True)
        prompt_ids = (prompt_ids * (max_len // len(prompt_ids) + 1))[: max_len - 8]
        result = assert_matches_reference(decoder, prompt_ids, GenerationConfig.sampling_config(0.8, 16, seed=3))
        prefix = len(prompt_ids)
        overshoot = []
        for record in result.step_records:
            overshoot.append(prefix + record.verified > max_len)
            prefix += record.committed
        assert any(overshoot)
        assert prefix < max_len


def _run_together(decoder, jobs, paged):
    """Drive the kernel directly over all ``jobs`` as one batch; returns the lanes."""
    model = decoder.model
    pool = model.new_block_pool(block_size=8, num_blocks=64 * len(jobs)) if paged else None
    row_capacity = model.backbone.max_seq_len + tree_headroom(decoder.num_candidates, decoder.max_speculative_heads)
    lanes, caches = [], []
    for index, (prompt_ids, config) in enumerate(jobs):
        lane = RequestState(
            GenerationRequest(f"lane-{index}", list(prompt_ids), config),
            rng=np.random.default_rng(config.seed),
            grammar_mask=grammar_mask(config.grammar, decoder.tokenizer),
        )
        cache = PagedKVCache(pool, batch=1) if paged else model.new_cache(capacity=row_capacity)
        decoder.prefill(lane, cache, prompt_ids, final=True, clock=time.perf_counter)
        lanes.append(lane)
        caches.append(cache)
    cache = PagedKVCache.concat(caches) if paged else KVCache.concat(caches)
    running = lanes
    while running:
        # The kernel keeps its cache: every step updates this one object in place.
        running, _ = decoder.step(cache, running, time.perf_counter)
        assert cache.batch == len(running)
    if paged:
        # Retiring the last lanes dropped their rows, so every block is back.
        assert pool.blocks_in_use == 0
    return lanes


class TestBatchInvariance:
    def _prop(self, cases: Cases, pipeline) -> None:
        decoder = pipeline.decoder_for(cases.choice(METHODS))
        prompts = [example.prompt_text() for example in pipeline.examples]
        jobs = []
        for _ in range(cases.integer(1, 4)):
            grammar = "verilog" if cases.boolean(0.4) else None
            budget = cases.integer(1, 24)
            if cases.boolean():
                config = GenerationConfig.greedy_config(budget, grammar=grammar)
            else:
                config = GenerationConfig.sampling_config(
                    cases.choice([0.6, 0.9, 1.2]), budget, seed=cases.integer(0, 10_000), grammar=grammar
                )
            jobs.append((pipeline.tokenizer.encode(cases.choice(prompts), add_bos=True), config))
        together = _run_together(decoder, jobs, paged=cases.boolean())
        for lane, (prompt_ids, config) in zip(together, jobs):
            alone = decoder.generate(prompt_ids, config)
            # generate() also commits the grammar closure, which is not a step.
            decoded = alone.token_ids[: len(alone.token_ids) - alone.closure_tokens]
            assert lane.output_ids == decoded, config
            assert lane.step_records == alone.step_records, config
            assert lane.stopped_by_eos == alone.stopped_by_eos

    def test_lanes_together_match_lanes_alone(self, tiny_pipeline):
        for_all(num_cases(10, 120), lambda cases: self._prop(cases, tiny_pipeline), seed=61)


#: Greedy, sampling and grammar lanes with different budgets, one of them 0.
MIXED_CONFIGS = [
    GenerationConfig.greedy_config(32),
    GenerationConfig.sampling_config(0.8, 20, seed=3),
    GenerationConfig.greedy_config(28, grammar="verilog"),
    GenerationConfig.greedy_config(0),
    GenerationConfig.sampling_config(1.2, 12, seed=11, grammar="verilog"),
    GenerationConfig.sampling_config(0.6, 40, seed=5),
]


def _counting(monkeypatch, obj, name, calls):
    """Record the first argument of every call to ``obj.name``."""
    original = getattr(obj, name)
    monkeypatch.setattr(obj, name, lambda first, *args, **kwargs: calls.append(first) or original(first, *args, **kwargs))


class TestGenerateMany:
    """One prompt under several configs: one prefill, then every lane in each step's forward."""

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("backbone", ["tiny_pipeline", "encdec_pipeline"])
    def test_lanes_equal_generate_alone(self, request, backbone, method):
        pipeline = request.getfixturevalue(backbone)
        decoder = pipeline.decoder_for(method)
        for example in pipeline.examples[:2]:
            prompt_ids = pipeline.tokenizer.encode(example.prompt_text(), add_bos=True)
            results = decoder.generate_many(prompt_ids, MIXED_CONFIGS)
            assert len(results) == len(MIXED_CONFIGS)
            for result, config in zip(results, MIXED_CONFIGS):
                alone = decoder.generate(prompt_ids, config)
                assert result.token_ids == alone.token_ids, config
                assert result.step_records == alone.step_records, config
                assert result.stopped_by_eos == alone.stopped_by_eos
                assert result.closure_tokens == alone.closure_tokens
            assert results[3].token_ids == [] and results[3].steps == 0
            assert len({result.steps for result in results}) > 2  # lanes retire at different steps

    @pytest.mark.parametrize("method", ["ntp", "ours"])
    def test_prompt_fills_the_window(self, tiny_pipeline, method):
        decoder = tiny_pipeline.decoder_for(method)
        prompt_ids = [5] * decoder.model.backbone.max_seq_len
        results = decoder.generate_many(prompt_ids, MIXED_CONFIGS)
        for result, config in zip(results, MIXED_CONFIGS):
            assert result.token_ids == decoder.generate(prompt_ids, config).token_ids
            assert result.tokens_decoded == 0 and result.steps == 0
            assert result.prefill_seconds == 0.0

    def test_no_configs(self, tiny_pipeline):
        assert tiny_pipeline.decoder_for("ours").generate_many([5, 6, 7], []) == []

    def test_one_prefill_forward_for_all_lanes(self, tiny_pipeline, monkeypatch):
        decoder = tiny_pipeline.decoder_for("ours")
        prompt_ids = tiny_pipeline.tokenizer.encode(tiny_pipeline.examples[0].prompt_text(), add_bos=True)
        # No verification window can be as wide as the prompt.
        assert len(prompt_ids) > tree_headroom(decoder.num_candidates, decoder.max_speculative_heads)
        inputs = []
        _counting(monkeypatch, decoder.model, "forward_hidden", inputs)
        results = decoder.generate_many(prompt_ids, MIXED_CONFIGS)
        shapes = [np.asarray(input_ids).shape for input_ids in inputs]
        assert [shape for shape in shapes if shape[1] == len(prompt_ids)] == [(1, len(prompt_ids))]
        # Every later forward is one step's verification, shared by the running lanes.
        assert len(shapes) == 1 + max(result.steps for result in results)
        assert shapes[1][0] == sum(1 for config in MIXED_CONFIGS if config.max_new_tokens > 0)

    def test_one_encoder_pass_for_all_lanes(self, encdec_pipeline, monkeypatch):
        decoder = encdec_pipeline.decoder_for("ours")
        prompt_ids = encdec_pipeline.tokenizer.encode(encdec_pipeline.examples[0].prompt_text(), add_bos=True)
        encoded, inputs = [], []
        _counting(monkeypatch, decoder.model.backbone, "encode", encoded)
        _counting(monkeypatch, decoder.model, "forward_hidden", inputs)
        results = decoder.generate_many(prompt_ids, MIXED_CONFIGS)
        assert len(encoded) == 1
        assert np.asarray(inputs[0]).shape == (1, 1)  # BOS alone: the encoder holds the prompt
        assert len(inputs) == 1 + max(result.steps for result in results)


class TestNtpNeverEvaluatesHeads:
    """Regression: prefill used to evaluate the Medusa heads whatever the strategy."""

    @pytest.fixture()
    def counted_model(self, tiny_pipeline, monkeypatch):
        model = tiny_pipeline.models["ours"]
        assert model.num_medusa_heads > 0
        calls = []
        original = model.head_logits_at
        monkeypatch.setattr(model, "head_logits_at", lambda hidden: calls.append(1) or original(hidden))
        return model, calls

    def test_sequential(self, tiny_pipeline, counted_model):
        model, calls = counted_model
        prompt = tiny_pipeline.examples[0].prompt_text()
        ntp = SpeculativeDecoder(model, tiny_pipeline.tokenizer, strategy=DecodingStrategy.NTP)
        assert ntp.generate_from_text(prompt, GenerationConfig.greedy_config(6)).steps == 6
        assert calls == []
        no_heads = SpeculativeDecoder(model, tiny_pipeline.tokenizer, max_speculative_heads=0)
        assert no_heads.generate_from_text(prompt, GenerationConfig.greedy_config(6)).steps == 6
        assert calls == []
        SpeculativeDecoder(model, tiny_pipeline.tokenizer).generate_from_text(prompt, GenerationConfig.greedy_config(6))
        assert calls  # the counter itself works

    def test_engine(self, tiny_pipeline, counted_model):
        model, calls = counted_model
        engine = ServingEngine(SpeculativeDecoder(model, tiny_pipeline.tokenizer, strategy=DecodingStrategy.NTP))
        for example in tiny_pipeline.examples[:2]:
            engine.submit_text(example.prompt_text(), GenerationConfig.greedy_config(5))
        engine.run()
        assert calls == []


class TestClosureTokensStayOutOfRates:
    """Regression: closure tokens are committed by no step, so they count toward
    neither tokens/step nor tokens/second (``steps`` never counted them)."""

    def _budget_truncated(self, pipeline, generate):
        for example in pipeline.examples:
            for budget in (6, 10, 14):
                result = generate(example.prompt_text(), GenerationConfig.greedy_config(budget, grammar="verilog"))
                if result.closure_tokens:
                    return result
        pytest.fail("no constrained run hit the grammar closure")

    def _check(self, result):
        decoded = result.tokens_generated - result.closure_tokens
        assert decoded == sum(record.committed for record in result.step_records)
        assert result.tokens_per_step == pytest.approx(decoded / result.steps)
        assert result.tokens_per_second == pytest.approx(decoded / result.decode_seconds)

    def test_sequential(self, tiny_pipeline):
        self._check(self._budget_truncated(tiny_pipeline, tiny_pipeline.decoder_for("ours").generate_from_text))

    def test_engine(self, tiny_pipeline):
        def generate(prompt, config):
            engine = tiny_pipeline.engine_for("ours")
            request_id = engine.submit_text(prompt, config)
            return engine.run()[request_id]

        self._check(self._budget_truncated(tiny_pipeline, generate))


class TestSequentialDecoderShape:
    def test_one_cache_row_start_to_finish(self, tiny_pipeline, monkeypatch):
        """Verification never tiles the cache per candidate: one row per lane."""
        model = tiny_pipeline.models["ours"]
        batches = []
        original = model.forward_hidden

        def tracking(input_ids, *args, **kwargs):
            batches.append(np.asarray(input_ids).shape[0])
            return original(input_ids, *args, **kwargs)

        monkeypatch.setattr(model, "forward_hidden", tracking)
        prompt = tiny_pipeline.examples[0].prompt_text()
        tiny_pipeline.decoder_for("ours").generate_from_text(prompt, GenerationConfig.greedy_config(16))
        assert set(batches) == {1}

    def test_prefill_time_reported_and_excluded(self, tiny_pipeline):
        prompt = tiny_pipeline.examples[0].prompt_text()
        result = tiny_pipeline.decoder_for("ntp").generate_from_text(prompt, GenerationConfig.greedy_config(8))
        assert result.prefill_seconds > 0.0
        assert result.wall_time_seconds > result.decode_seconds
        assert result.tokens_per_second == pytest.approx(result.tokens_generated / result.decode_seconds)
