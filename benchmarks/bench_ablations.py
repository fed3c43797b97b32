"""Ablations of the design choices called out in paper Sec. III.

Three ablations on the quality oracle's "ours" model, each decoding the six
oracle prompts with temperature-0.8 sampling (the regime in which the
typical-acceptance rule matters):

1. **Fragment-integrity check** — decode with and without the truncation step
   (i.e. Ours vs plain Medusa decoding of the same syntax-enriched model).
2. **Typical-acceptance hyper-parameters** — vary epsilon/delta and report
   tokens per step.
3. **Number of speculative heads** — cap the heads used at decode time and
   measure tokens per step (more heads = more tokens per step, the property
   the paper exploits by training more robust later heads).

Plus a micro-benchmark of the parallel label-construction algorithm against
its per-column reference implementation (the paper's "parallel algorithm"
claim in Fig. 4).

Measured (three model seeds): the integrity check costs at most 0.05
tokens/step (about 4.0 with it); 1 / 2 / 4 heads commit about 1.8 / 2.2 /
4.0 tokens/step. The acceptance thresholds show no ordering that holds on
all three seeds (within 3.8-4.1 tokens/step), so only that each commits
more than one token per step is asserted.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.acceptance import TypicalAcceptance
from repro.core.decoding import DecodingStrategy, SpeculativeDecoder
from repro.core.labels import apply_syntax_enrichment, apply_syntax_enrichment_reference, build_shifted_labels
from repro.models.generation import GenerationConfig

from conftest import MAX_NEW_TOKENS, emit_bench_json


def _mean_tokens_per_step(decoder, prompts, temperature=0.8):
    """Mean committed tokens per decoding step over ``prompts``, sampled at ``temperature``."""
    configs = [GenerationConfig.sampling_config(temperature, MAX_NEW_TOKENS, seed=i) for i in range(len(prompts))]
    results = [decoder.generate_from_text(p, c) for p, c in zip(prompts, configs)]
    return float(np.mean([r.tokens_per_step for r in results]))


def _ours(oracle, **decoder_kwargs):
    """A decoder over the oracle's trained "ours" model."""
    trained = oracle.decoder("ours")
    return SpeculativeDecoder(trained.model, trained.tokenizer, **decoder_kwargs)


@pytest.mark.benchmark(group="ablations")
def test_ablation_integrity_check(benchmark, oracle):
    """Ours vs. the same model decoded without the fragment-integrity truncation."""
    prompts = [p.prompt for p in oracle.problems]
    with_integrity = _ours(oracle, strategy=DecodingStrategy.OURS)
    without_integrity = _ours(oracle, strategy=DecodingStrategy.MEDUSA)

    tps_with = _mean_tokens_per_step(with_integrity, prompts)
    tps_without = _mean_tokens_per_step(without_integrity, prompts)

    print("\n=== Ablation: fragment-integrity check ===")
    print(f"with integrity check    : {tps_with:.2f} tokens/step")
    print(f"without integrity check : {tps_without:.2f} tokens/step")
    print("(the check trades a little per-step progress for fragment-complete outputs)")
    emit_bench_json(
        "ablation_integrity_check",
        {"with_integrity_tokens_per_step": tps_with, "without_integrity_tokens_per_step": tps_without},
    )

    benchmark.pedantic(
        lambda: with_integrity.generate_from_text(prompts[0], GenerationConfig.greedy_config(32)), rounds=1, iterations=1
    )
    assert tps_with > 1.0
    # Integrity truncation can only remove tokens from an accepted run.
    assert tps_with <= tps_without + 1e-9


@pytest.mark.benchmark(group="ablations")
def test_ablation_acceptance_threshold(benchmark, oracle):
    """Tokens per step under three typical-acceptance thresholds."""
    prompts = [p.prompt for p in oracle.problems]
    settings = {
        "permissive (eps=0.05, delta=0.2)": TypicalAcceptance(epsilon=0.05, delta=0.2),
        "paper default (eps=0.09, delta=0.3)": TypicalAcceptance(epsilon=0.09, delta=0.3),
        "strict (eps=0.5, delta=0.9)": TypicalAcceptance(epsilon=0.5, delta=0.9),
    }
    rates = {
        label: _mean_tokens_per_step(_ours(oracle, strategy=DecodingStrategy.OURS, acceptance=acceptance), prompts)
        for label, acceptance in settings.items()
    }

    print("\n=== Ablation: typical-acceptance threshold ===")
    for label, rate in rates.items():
        print(f"{label:<38}: {rate:.2f} tokens/step")
    emit_bench_json("ablation_acceptance_threshold", rates)

    decoder = _ours(oracle, strategy=DecodingStrategy.OURS)
    benchmark.pedantic(
        lambda: decoder.generate_from_text(prompts[0], GenerationConfig.greedy_config(32)), rounds=1, iterations=1
    )
    assert all(rate > 1.0 for rate in rates.values())


@pytest.mark.benchmark(group="ablations")
def test_ablation_head_count(benchmark, oracle):
    """More speculative heads commit more tokens per decoding step."""
    prompts = [p.prompt for p in oracle.problems]
    rates = {
        heads: _mean_tokens_per_step(
            _ours(oracle, strategy=DecodingStrategy.OURS, max_speculative_heads=heads), prompts
        )
        for heads in (1, 2, 4)
    }

    print("\n=== Ablation: number of speculative heads used at decode time ===")
    for heads, rate in rates.items():
        print(f"{heads:>2} heads: {rate:.2f} tokens/step")
    emit_bench_json("ablation_head_count", {str(heads): rate for heads, rate in rates.items()})

    decoder = _ours(oracle, strategy=DecodingStrategy.OURS, max_speculative_heads=1)
    benchmark.pedantic(
        lambda: decoder.generate_from_text(prompts[0], GenerationConfig.greedy_config(32)), rounds=1, iterations=1
    )
    assert rates[1] < rates[2] < rates[4]


@pytest.mark.benchmark(group="ablations")
def test_parallel_label_algorithm_speed(benchmark):
    """The vectorised Fig. 4 algorithm against the per-column reference (same output, faster)."""
    rng = np.random.default_rng(0)
    frag_id, pad_id, ignore_id = 4, 0, 5
    base = rng.choice([frag_id, 10, 11, 12, 13], size=2048, p=[0.4, 0.15, 0.15, 0.15, 0.15])
    labels = build_shifted_labels(base, num_heads=10, pad_id=pad_id)

    fast = benchmark(lambda: apply_syntax_enrichment(labels, frag_id, ignore_id))
    slow = apply_syntax_enrichment_reference(labels, frag_id, ignore_id)
    np.testing.assert_array_equal(fast, slow)
