"""Fig. 1 — quality vs. speed overview (Ours vs Medusa vs NTP on RTLLM).

The paper's Fig. 1 is a scatter of functional pass@5 against generation speed
for the CodeLlama model on RTLLM, showing that Ours sits in the top-right
corner (fastest *and* most accurate), Medusa is fast but loses accuracy, and
NTP is accurate but slow.  This bench regenerates the three points, at the
largest of pass@1 / pass@5 its samples per prompt can estimate (pass@5 needs
``REPRO_BENCH_FULL=1``; the default and smoke sizes report pass@1).
"""

from __future__ import annotations

import pytest

from repro.evalbench.runner import EvaluationRunner
from repro.evalbench.speed import measure_speed
from repro.models.generation import GenerationConfig

from conftest import MAX_NEW_TOKENS, SAMPLES_PER_PROMPT, SMOKE, emit_bench_json, pass_k_values

K_VALUES = pass_k_values((1, 5), SAMPLES_PER_PROMPT)
K = K_VALUES[-1]


@pytest.mark.benchmark(group="fig1-overview")
def test_fig1_quality_vs_speed(benchmark, trained_pipeline, rtllm_subset):
    """Regenerate the three (speed, pass@K) points of Fig. 1."""
    points = {}
    prompts = [p.prompt for p in rtllm_subset]
    for method in ("ours", "medusa", "ntp"):
        decoder = trained_pipeline.decoder_for(method)
        runner = EvaluationRunner(
            decoder, samples_per_prompt=SAMPLES_PER_PROMPT, max_new_tokens=MAX_NEW_TOKENS, k_values=K_VALUES
        )
        quality = runner.evaluate_suite(rtllm_subset, label=method)
        speed = measure_speed(decoder, prompts[:3], max_new_tokens=80, include_sampling=True, label=method)
        points[method] = {
            f"pass@{K}_function": 100.0 * quality.function_pass_at_k[K],
            f"pass@{K}_syntax": 100.0 * quality.syntax_pass_at_k[K],
            "tokens_per_step": speed.mean_tokens_per_step,
            "tokens_per_second": speed.mean_tokens_per_second,
        }

    print("\n=== Fig. 1 (RTLLM, decoder-only backbone) ===")
    header = f"{'method':<8} {f'func pass@{K}':>12} {f'syn pass@{K}':>11} {'tokens/step':>12} {'tokens/s':>10}"
    print(header)
    print("-" * len(header))
    for method, point in points.items():
        print(
            f"{method:<8} {point[f'pass@{K}_function']:>12.2f} {point[f'pass@{K}_syntax']:>11.2f} "
            f"{point['tokens_per_step']:>12.2f} {point['tokens_per_second']:>10.1f}"
        )

    emit_bench_json("fig1_overview", points)

    decoder = trained_pipeline.decoder_for("ours")
    benchmark.pedantic(
        lambda: decoder.generate_from_text(prompts[0], GenerationConfig.greedy_config(32)), rounds=1, iterations=1
    )

    # Shape: the speculative methods are faster per step than NTP (needs a
    # properly trained model, so not asserted in CI smoke mode).
    if not SMOKE:
        assert points["ours"]["tokens_per_step"] > points["ntp"]["tokens_per_step"]
        assert points["medusa"]["tokens_per_step"] > points["ntp"]["tokens_per_step"]
