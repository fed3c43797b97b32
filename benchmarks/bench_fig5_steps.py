"""Fig. 5 — decoding steps for one prompt.

The paper's Fig. 5 decodes one prompt (a 4-bit ``data_register``) with the
three methods and counts decoding steps, and shows that only Ours keeps
complete code fragments at every step. This bench regenerates the same table
on one quality-oracle problem, the sequential ``up_counter_4``, decoded
greedily: steps, tokens, tokens/step, code characters/step and the steps
that end on a fragment boundary.

Measured (three model seeds): NTP needs one step per token (65 steps);
Medusa needs 13 and Ours 34-35, and every Ours step ends on a fragment
boundary.
"""

from __future__ import annotations

import pytest

from repro.models.generation import GenerationConfig

from conftest import MAX_NEW_TOKENS, METHODS, emit_bench_json

PROBLEM = "up_counter_4"


@pytest.mark.benchmark(group="fig5-steps")
def test_fig5_decoding_steps(benchmark, oracle):
    """Regenerate Fig. 5's step counts for one oracle prompt."""
    prompt = oracle.suite.get(PROBLEM).prompt
    config = GenerationConfig.greedy_config(MAX_NEW_TOKENS)
    results = {method: oracle.decoder(method).generate_from_text(prompt, config) for method in METHODS}
    rows = {
        method: {
            "steps": result.steps,
            "tokens": result.tokens_generated,
            "tokens_per_step": result.tokens_per_step,
            "code_chars_per_step": result.code_chars / result.steps,
            "boundary_steps": sum(1 for record in result.step_records if record.ends_at_boundary),
        }
        for method, result in results.items()
    }

    print(f"\n=== Fig. 5 ({PROBLEM} example) ===")
    header = f"{'method':<8} {'steps':>6} {'tokens':>7} {'tokens/step':>12} {'code chars/step':>16} {'complete-fragment steps':>24}"
    print(header)
    print("-" * len(header))
    for method, row in rows.items():
        print(
            f"{method:<8} {row['steps']:>6} {row['tokens']:>7} {row['tokens_per_step']:>12.2f} "
            f"{row['code_chars_per_step']:>16.2f} {row['boundary_steps']:>20}/{row['steps']}"
        )
    emit_bench_json("fig5_steps", rows)

    decoder = oracle.decoder("ours")
    benchmark.pedantic(lambda: decoder.generate_from_text(prompt, config), rounds=1, iterations=1)

    assert rows["ntp"]["steps"] == rows["ntp"]["tokens"]
    assert rows["medusa"]["steps"] < rows["ntp"]["steps"]
    assert rows["ours"]["steps"] < rows["ntp"]["steps"]
    # Every Ours step ends on a fragment boundary: each multi-token commit
    # ends in a [FRAG] marker or the end of the output.
    ours = results["ours"]
    assert rows["ours"]["boundary_steps"] == ours.steps
    position = 0
    for record in ours.step_records:
        committed = ours.token_ids[position : position + record.committed]
        position += record.committed
        if len(committed) > 1:
            assert committed[-1] in (decoder.frag_id, decoder.eos_id)
