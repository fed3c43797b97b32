"""The oracle: cache-free, tree-free full-recompute decoding (no production caller).

Every step re-runs the whole forward over ``prompt + output``; speculative
verification gives each candidate its own right-padded batch row under the
plain causal mask.  It shares no KV cache, token tree, attention bias or
batching with the step kernel in :mod:`repro.core.decoding`, so the
equivalence suites compare the kernel against it (and against the unchanged
``tests/golden/*.json``) token for token and step for step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.constrained.mask import closure_token_ids, grammar_mask, masked_sample
from repro.core.decoding import (
    DecodingStrategy,
    SpeculativeDecoder,
    StepRecord,
    decoder_budget_exceeded,
    dedupe_candidates,
    propose_candidates,
    select_best_candidate,
)
from repro.core.token_tree import prefilter_candidates
from repro.models.generation import GenerationConfig


@dataclass
class ReferenceResult:
    token_ids: List[int]
    step_records: List[StepRecord]
    stopped_by_eos: bool
    closure_tokens: int

    @property
    def steps(self) -> int:
        return len(self.step_records)


def greedy_match_length(logits_per_position: Sequence[np.ndarray], candidate_tokens: Sequence[int]) -> int:
    """Length of the prefix whose tokens equal the base model's argmax.

    This is the lossless verification used for greedy decoding: a speculated
    token is kept only if the base model itself would have produced it, so
    the committed sequence is identical to what plain next-token prediction
    would generate.
    """
    matched = 0
    for logits, token_id in zip(logits_per_position, candidate_tokens):
        if int(np.argmax(logits)) != int(token_id):
            break
        matched += 1
    return matched


def reference_generate(decoder: SpeculativeDecoder, prompt_ids: List[int], config: GenerationConfig) -> ReferenceResult:
    """Decode with ``decoder``'s model and settings, recomputing everything each step."""
    model = decoder.model
    rng = np.random.default_rng(config.seed)
    mask = grammar_mask(config.grammar, decoder.tokenizer)
    max_seq_len = model.backbone.max_seq_len
    # Encoder-decoder models spend decoder positions only on BOS + output.
    context = [decoder.bos_id] if model.is_encoder_decoder else list(prompt_ids)
    encoder = np.asarray(prompt_ids, dtype=np.int64) if model.is_encoder_decoder else None
    speculative = decoder.strategy is not DecodingStrategy.NTP and decoder.max_speculative_heads > 0

    def over_budget(extra: int) -> bool:
        return decoder_budget_exceeded(len(context), len(output_ids), extra, max_seq_len)

    output_ids: List[int] = []
    records: List[StepRecord] = []
    stopped = False
    while len(output_ids) < config.max_new_tokens and not over_budget(1) and not stopped:
        base_logits, hidden = model.forward_hidden(np.asarray(context + output_ids, dtype=np.int64), encoder)
        if not speculative:
            tokens = [masked_sample(base_logits[0, -1], config, rng, mask)]
            records.append(StepRecord(proposed=1, accepted=1, committed=1, ends_at_boundary=True))
        else:
            heads = [h[0] for h in model.head_logits_at(hidden[:, -1])]
            candidates = propose_candidates(
                base_logits[0, -1], heads, config, rng, decoder.num_candidates, decoder.max_speculative_heads, mask
            )
            max_extra = config.max_new_tokens - len(output_ids)
            while over_budget(max_extra) and max_extra > 1:
                max_extra -= 1
            candidates = dedupe_candidates([candidate[:max_extra] for candidate in candidates])
            if mask is not None:
                candidates = dedupe_candidates(prefilter_candidates(candidates, mask))
            # One padded row per candidate (the padding repeats its last token and is never read).
            width = max(len(candidate) for candidate in candidates)
            rows = [context + output_ids + c + [c[-1]] * (width - len(c)) for c in candidates]
            encoder_rows = None if encoder is None else np.tile(encoder[None, :], (len(rows), 1))
            verify_logits, _ = model.forward_hidden(np.asarray(rows, dtype=np.int64), encoder_rows)
            # The position predicting candidate token i is prefix_len - 1 + i.
            prefix_len = len(context) + len(output_ids)
            # Token 0 is the base model's own commit; only the tail is scored.
            greedy = config.greedy or config.temperature <= 0.0
            score = greedy_match_length if greedy else decoder.acceptance.accepted_prefix_length
            tails = [
                score([verify_logits[row, prefix_len - 1 + i] for i in range(1, len(candidate))], candidate[1:])
                for row, candidate in enumerate(candidates)
            ]
            tokens, accepted, _ = select_best_candidate(
                candidates, tails, decoder.strategy, frag_id=decoder.frag_id, eos_id=decoder.eos_id
            )
            records.append(
                StepRecord(
                    proposed=len(candidates[0]),
                    accepted=accepted,
                    committed=len(tokens),
                    ends_at_boundary=tokens[-1] in (decoder.frag_id, decoder.eos_id),
                )
            )
        if mask is not None:
            for token_id in tokens:
                mask.advance(token_id)
        output_ids.extend(tokens)
        stopped = decoder.eos_id in tokens
    closure = closure_token_ids(mask, decoder.tokenizer) if mask is not None else []
    return ReferenceResult(output_ids + closure, records, stopped, len(closure))
