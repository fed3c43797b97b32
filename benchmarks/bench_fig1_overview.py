"""Fig. 1 — quality vs. speed overview (Ours vs Medusa vs NTP on RTLLM).

The paper's Fig. 1 plots functional pass@5 against generation speed for
the CodeLlama model on RTLLM: Ours sits in the top-right corner (fastest
*and* most accurate), Medusa is fast but loses accuracy, and NTP is accurate
but slow. This bench regenerates the three points on the quality oracle:
Table I's pass@1 (one greedy sample per problem, unconstrained) against
Table II's step rates, in tokens and in code characters.

Measured (three model seeds): NTP at pass@1 1.00 and 1 token/step, Medusa at
1.00 and 4.80-4.91, Ours at 0.00 and 4.06-4.13 (its quality waits for
ROADMAP item 1(a)).
"""

from __future__ import annotations

import pytest

from repro.evalbench.speed import measure_speed
from repro.models.generation import GenerationConfig

from conftest import MAX_NEW_TOKENS, METHODS, emit_bench_json


@pytest.mark.benchmark(group="fig1-overview")
def test_fig1_quality_vs_speed(benchmark, oracle):
    """Regenerate the three (speed, pass@1) points of Fig. 1."""
    prompts = [problem.prompt for problem in oracle.problems]
    points = {}
    for method in METHODS:
        speed = measure_speed(oracle.decoder(method), prompts, max_new_tokens=MAX_NEW_TOKENS, label=method)
        points[method] = {
            "pass@1_function": oracle.score(method).functional / len(prompts),
            "pass@1_syntax": oracle.score(method).parses / len(prompts),
            "tokens_per_step": speed.mean_tokens_per_step,
            "code_chars_per_step": speed.mean_code_chars_per_step,
            "tokens_per_second": speed.mean_tokens_per_second,
        }

    print("\n=== Fig. 1 (RTLLM oracle problems, decoder-only backbone) ===")
    header = (
        f"{'method':<8} {'func pass@1':>12} {'syn pass@1':>11} {'tokens/step':>12} "
        f"{'code chars/step':>16} {'tokens/s':>10}"
    )
    print(header)
    print("-" * len(header))
    for method, point in points.items():
        print(
            f"{method:<8} {point['pass@1_function']:>12.2f} {point['pass@1_syntax']:>11.2f} "
            f"{point['tokens_per_step']:>12.2f} {point['code_chars_per_step']:>16.2f} {point['tokens_per_second']:>10.1f}"
        )
    emit_bench_json("fig1_overview", points)

    decoder = oracle.decoder("ours")
    config = GenerationConfig.greedy_config(MAX_NEW_TOKENS)
    benchmark.pedantic(lambda: decoder.generate_from_text(prompts[0], config), rounds=1, iterations=1)

    # NTP is accurate but slow; Medusa is as accurate and faster per step.
    assert points["ntp"]["pass@1_function"] == points["medusa"]["pass@1_function"] == 1.0
    for method in ("medusa", "ours"):
        assert points[method]["tokens_per_step"] > points["ntp"]["tokens_per_step"]
        assert points[method]["code_chars_per_step"] > points["ntp"]["code_chars_per_step"]
