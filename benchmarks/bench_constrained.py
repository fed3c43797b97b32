"""Grammar-constrained decoding bench: syntax guarantee and verify savings.

Decodes the RTLLM benchmark prompts with and without ``grammar="verilog"``
(speculative tree verification on, greedy) and reports the constrained-mode
headline numbers:

* **syntax pass@1 = 1.0** — every constrained sample parses as standalone
  Verilog, by construction of the syntax mask (the unconstrained column shows
  what the model achieves on its own);
* **verified-position savings** — the grammar pre-filter rejects speculative
  tree branches before verification, so the constrained run verifies strictly
  fewer tree positions than the same steps would have verified unpruned.

Both properties are hard assertions, not just printed numbers.
"""

from __future__ import annotations

import pytest

from repro.evalbench.runner import EvaluationRunner
from repro.models.generation import GenerationConfig
from repro.verilog.syntax import check_syntax

from conftest import MAX_NEW_TOKENS, emit_bench_json


def _decode_all(decoder, prompts, grammar):
    config = GenerationConfig.greedy_config(MAX_NEW_TOKENS, grammar=grammar)
    return [decoder.generate_from_text(prompt, config) for prompt in prompts]


@pytest.mark.benchmark(group="constrained")
def test_constrained_decoding(benchmark, trained_pipeline, rtllm_subset):
    """Constrained vs. unconstrained speculative decoding on the same workload."""
    decoder = trained_pipeline.decoder_for("ours")
    prompts = rtllm_subset.prompts()

    unconstrained = _decode_all(decoder, prompts, grammar=None)
    constrained = _decode_all(decoder, prompts, grammar="verilog")

    syntax_pass_unconstrained = sum(check_syntax(r.code).ok for r in unconstrained) / len(prompts)
    syntax_pass_constrained = sum(check_syntax(r.code).ok for r in constrained) / len(prompts)
    verified = sum(r.tokens_verified for r in constrained)
    unpruned = sum(r.tokens_verified_unpruned for r in constrained)
    baseline_verified = sum(r.tokens_verified for r in unconstrained)
    closure = sum(r.closure_tokens for r in constrained)

    print("\n=== Grammar-constrained decoding (ours, tree verify, greedy) ===")
    header = f"{'mode':<14} {'syntax-pass@1':>14} {'verified':>9} {'unpruned':>9} {'closure':>8}"
    print(header)
    print("-" * len(header))
    print(f"{'unconstrained':<14} {syntax_pass_unconstrained:>14.2f} {baseline_verified:>9} {'-':>9} {'-':>8}")
    print(f"{'constrained':<14} {syntax_pass_constrained:>14.2f} {verified:>9} {unpruned:>9} {closure:>8}")
    savings = 1.0 - verified / unpruned if unpruned else 0.0
    print(f"grammar pre-filter pruned {savings:.1%} of speculative verification positions")

    # The syntax mask makes every sample a parsing design — pass@1 is 1.0 by
    # construction, independent of how well the model was trained.
    assert syntax_pass_constrained == 1.0
    # And the tree pre-filter verifies strictly fewer positions than the same
    # steps would have without it.
    assert verified < unpruned

    emit_bench_json(
        "constrained_decoding",
        {
            "syntax_pass_at_1": {
                "unconstrained": syntax_pass_unconstrained,
                "constrained": syntax_pass_constrained,
            },
            "tokens_verified": {"constrained": verified, "unpruned": unpruned, "unconstrained": baseline_verified},
            "verified_savings_ratio": savings,
            "closure_tokens": closure,
        },
    )

    config = GenerationConfig.greedy_config(MAX_NEW_TOKENS, grammar="verilog")
    benchmark.pedantic(lambda: decoder.generate_from_text(prompts[0], config), rounds=1, iterations=1)


@pytest.mark.benchmark(group="constrained")
def test_constrained_evalbench_mode(benchmark, trained_pipeline, rtllm_subset):
    """The evalbench runner's constrained mode: parse pass@1 pinned at 1.0."""
    runner = EvaluationRunner(
        trained_pipeline.decoder_for("ours"),
        samples_per_prompt=1,
        max_new_tokens=MAX_NEW_TOKENS,
        k_values=(1,),
        grammar="verilog",
    )
    report = benchmark.pedantic(lambda: runner.evaluate_suite(rtllm_subset, label="ours+grammar"), rounds=1, iterations=1)

    print("\n=== Evalbench constrained mode (ours, RTLLM subset) ===")
    print(f"parse pass@1      : {report.parse_pass_at_k[1]:.2f}")
    print(f"compile pass@1    : {report.syntax_pass_at_k[1]:.2f}")
    print(f"function pass@1   : {report.function_pass_at_k[1]:.2f}")
    print(f"verified savings  : {report.verified_savings_ratio:.1%}")

    assert report.grammar == "verilog"
    assert report.parse_pass_at_k[1] == 1.0
    assert report.parse_pass_rate == 1.0
    assert report.tokens_verified <= report.tokens_verified_unpruned
