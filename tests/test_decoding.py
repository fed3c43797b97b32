"""Tests for the speculative decoding loop (integration with the tiny pipeline)."""

import numpy as np
import pytest

import repro.core.acceptance as acceptance_module
from proptest import Cases, for_all, num_cases
from reference_decoder import greedy_match_length
from repro.core.acceptance import TypicalAcceptance
from repro.core.decoding import DecodingStrategy, SpeculativeDecoder, StepRecord, score_tree
from repro.core.token_tree import TokenTree
from repro.models.generation import GenerationConfig
from repro.verilog.fragments import FRAG


@pytest.fixture(scope="module")
def decoders(tiny_pipeline):
    return {
        "ours": tiny_pipeline.decoder_for("ours"),
        "medusa": tiny_pipeline.decoder_for("medusa"),
        "ntp": tiny_pipeline.decoder_for("ntp"),
    }


@pytest.fixture(scope="module")
def sample_prompt(tiny_pipeline):
    return tiny_pipeline.examples[0].prompt_text()


class TestNTPDecoding:
    def test_one_token_per_step(self, decoders, sample_prompt):
        result = decoders["ntp"].generate_from_text(sample_prompt, GenerationConfig.greedy_config(12))
        assert result.steps == result.tokens_generated
        assert all(r.committed == 1 for r in result.step_records)

    def test_respects_max_new_tokens(self, decoders, sample_prompt):
        result = decoders["ntp"].generate_from_text(sample_prompt, GenerationConfig.greedy_config(5))
        assert result.tokens_generated <= 5

    def test_greedy_deterministic(self, decoders, sample_prompt):
        first = decoders["ntp"].generate_from_text(sample_prompt, GenerationConfig.greedy_config(10))
        second = decoders["ntp"].generate_from_text(sample_prompt, GenerationConfig.greedy_config(10))
        assert first.token_ids == second.token_ids

    def test_sampling_seed_deterministic(self, decoders, sample_prompt):
        config = GenerationConfig.sampling_config(0.8, 10, seed=11)
        first = decoders["ntp"].generate_from_text(sample_prompt, config)
        second = decoders["ntp"].generate_from_text(sample_prompt, config)
        assert first.token_ids == second.token_ids


class TestSpeculativeDecoding:
    def test_fewer_steps_than_tokens(self, decoders, sample_prompt):
        result = decoders["ours"].generate_from_text(sample_prompt, GenerationConfig.greedy_config(40))
        assert result.steps <= result.tokens_generated
        assert result.tokens_per_step >= 1.0

    def test_medusa_also_speculative(self, decoders, sample_prompt):
        result = decoders["medusa"].generate_from_text(sample_prompt, GenerationConfig.greedy_config(40))
        assert result.steps <= result.tokens_generated

    def test_ours_step_records_end_at_boundary_or_single_token(self, decoders, sample_prompt):
        decoder = decoders["ours"]
        result = decoder.generate_from_text(sample_prompt, GenerationConfig.greedy_config(40))
        frag_id = decoder.frag_id
        eos_id = decoder.eos_id
        position = 0
        for record in result.step_records:
            committed = result.token_ids[position : position + record.committed]
            position += record.committed
            if len(committed) > 1:
                # Multi-token commits must close a fragment (or end the sequence).
                assert committed[-1] in (frag_id, eos_id)

    def test_respects_token_budget(self, decoders, sample_prompt):
        result = decoders["ours"].generate_from_text(sample_prompt, GenerationConfig.greedy_config(16))
        assert result.tokens_generated <= 16 + decoders["ours"].model.num_medusa_heads

    def test_code_property_strips_frag(self, decoders, sample_prompt):
        result = decoders["ours"].generate_from_text(sample_prompt, GenerationConfig.greedy_config(30))
        assert FRAG not in result.code
        assert FRAG in result.text or result.text == result.code

    def test_tokens_per_second_positive(self, decoders, sample_prompt):
        result = decoders["ours"].generate_from_text(sample_prompt, GenerationConfig.greedy_config(10))
        assert result.tokens_per_second > 0
        assert result.wall_time_seconds > 0

    def test_stops_on_eos(self, decoders, tiny_pipeline):
        # Force EOS to be the most likely token by prompting with a complete example output.
        decoder = decoders["ours"]
        example = tiny_pipeline.examples[0]
        prompt = example.prompt_text() + example.output_with_frag
        result = decoder.generate_from_text(prompt, GenerationConfig.greedy_config(60))
        if result.stopped_by_eos:
            assert result.token_ids.count(decoder.eos_id) >= 1

    def test_strategy_recorded(self, decoders):
        assert decoders["ours"].strategy is DecodingStrategy.OURS
        assert decoders["medusa"].strategy is DecodingStrategy.MEDUSA
        assert decoders["ntp"].strategy is DecodingStrategy.NTP

    def test_max_speculative_heads_clamped(self, tiny_pipeline):
        model = tiny_pipeline.models["ours"]
        decoder = SpeculativeDecoder(model, tiny_pipeline.tokenizer, max_speculative_heads=100)
        assert decoder.max_speculative_heads == model.num_medusa_heads

    def test_negative_max_speculative_heads_clamped_to_zero(self, tiny_pipeline, sample_prompt):
        """A negative cap means no speculation; kept as is, it shrank the row cache below the context window."""
        model = tiny_pipeline.models["ours"]
        decoder = SpeculativeDecoder(model, tiny_pipeline.tokenizer, max_speculative_heads=-3)
        assert decoder.max_speculative_heads == 0
        ids = tiny_pipeline.tokenizer.encode(sample_prompt, add_bos=True)
        long_prompt = (ids * (model.backbone.max_seq_len // len(ids) + 1))[: model.backbone.max_seq_len - 4]
        result = decoder.generate(long_prompt, GenerationConfig.greedy_config(8))
        assert 0 < result.tokens_generated <= 4

    def test_generate_accepts_raw_ids(self, decoders, tiny_pipeline, sample_prompt):
        ids = tiny_pipeline.tokenizer.encode(sample_prompt, add_bos=True)
        result = decoders["ours"].generate(ids, GenerationConfig.greedy_config(8))
        assert result.tokens_generated > 0


class TestStepAccounting:
    def test_ours_uses_fewer_steps_than_ntp(self, decoders, sample_prompt):
        """The core speed claim: speculative decoding commits >1 token/step on average."""
        budget = 40
        ours = decoders["ours"].generate_from_text(sample_prompt, GenerationConfig.greedy_config(budget))
        ntp = decoders["ntp"].generate_from_text(sample_prompt, GenerationConfig.greedy_config(budget))
        tokens = min(ours.tokens_generated, ntp.tokens_generated)
        assert tokens > 0
        # Normalise to the same number of tokens: steps per token must be lower for ours.
        assert ours.steps / ours.tokens_generated <= ntp.steps / ntp.tokens_generated

    def test_step_record_fields(self):
        record = StepRecord(proposed=5, accepted=3, committed=2, ends_at_boundary=True)
        assert record.proposed >= record.accepted >= record.committed - 1


class TestTreeScoring:
    """One scoring per tree equals the per-position definitions, candidate by candidate."""

    def _prop(self, cases: Cases, seen) -> None:
        rng = np.random.default_rng(cases.integer(0, 2**31))
        # A small alphabet makes candidates share prefixes (and siblings share a parent row).
        candidates = cases.candidate_set(
            cases.integer(1, 4), cases.integer(1, 7), cases.integer(2, 8),
            shared_prefix=cases.boolean(), with_duplicates=cases.boolean(0.2),
        )
        tree = TokenTree.from_candidates(candidates)
        scale = cases.choice([0.1, 0.5, 1.0, 2.0, 4.0, 8.0])
        logits = (rng.normal(size=(tree.size, 700)) * scale).astype(np.float32)
        for node, parent in enumerate(tree.parents):  # lift some tokens so runs get accepted too
            if parent >= 0 and cases.boolean(0.7):
                logits[parent, tree.tokens[node]] += np.float32(scale * cases.integer(1, 12))
        acceptance = TypicalAcceptance()
        sampled = score_tree(tree, logits, acceptance, None)
        greedy = score_tree(tree, logits, acceptance, np.argmax(logits, axis=-1))
        for candidate, nodes, sampled_tail, greedy_tail in zip(candidates, tree.candidate_nodes, sampled, greedy):
            # Candidate token i is predicted by the node spelling token i - 1.
            rows = [logits[node] for node in nodes[:-1]]
            assert sampled_tail == acceptance.accepted_prefix_length(rows, candidate[1:])
            assert greedy_tail == greedy_match_length(rows, candidate[1:])
            for rule, tail in (("sampled", sampled_tail), ("greedy", greedy_tail)):
                if rows:
                    seen.add((rule, "none" if tail == 0 else "full" if tail == len(rows) else "partial"))

    def test_matches_the_per_position_definitions(self):
        seen = set()
        for_all(num_cases(300, 2000), lambda cases: self._prop(cases, seen), seed=24)
        # Immediate rejections, partial runs and full runs all occurred, under both rules.
        assert seen == {(rule, run) for rule in ("sampled", "greedy") for run in ("none", "partial", "full")}

    def test_one_softmax_per_sampling_lane_per_step(self, tiny_pipeline, monkeypatch):
        calls = []
        softmax = acceptance_module.softmax
        monkeypatch.setattr(acceptance_module, "softmax", lambda *a, **k: calls.append(1) or softmax(*a, **k))
        engine = tiny_pipeline.engine_for("ours")
        prompts = [example.prompt_text() for example in tiny_pipeline.examples[:3]]
        sampling = [engine.submit_text(p, GenerationConfig.sampling_config(0.8, 24, seed=i)) for i, p in enumerate(prompts)]
        engine.submit_text(prompts[0], GenerationConfig.greedy_config(24))  # greedy lanes score with no softmax
        results = engine.run()
        lane_steps = sum(len(results[request_id].step_records) for request_id in sampling)
        assert lane_steps > len(sampling)
        assert len(calls) == lane_steps
