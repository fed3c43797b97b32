"""Grammar-constrained decoding bench: syntax guarantee and verify savings.

Decodes the quality oracle's six prompts with and without
``grammar="verilog"`` (speculative tree verification on, greedy) with the
two speculative methods, Ours and Medusa, and reports the constrained-mode
headline numbers:

* **syntax pass@1 = 1.0** — every constrained sample parses as standalone
  Verilog, by construction of the syntax mask (the unconstrained column shows
  what the model achieves on its own);
* **verified-position savings** — the grammar pre-filter rejects speculative
  tree branches before verification, so the constrained run verifies strictly
  fewer tree positions than the same steps would have verified unpruned.

Both properties are hard assertions, not just printed numbers. Measured
(three model seeds), verified / unpruned positions: Ours 3911-6199 /
14022-23294, Medusa 482-499 / 854. Unconstrained, Medusa's samples all parse
and Ours' none (ROADMAP item 1(a)).
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
def test_constrained_decoding(benchmark, oracle):
    """Constrained vs. unconstrained speculative decoding on the same workload."""
    prompts = [problem.prompt for problem in oracle.problems]
    rows = {}
    for method in ("ours", "medusa"):
        decoder = oracle.decoder(method)
        unconstrained = _decode_all(decoder, prompts, grammar=None)
        constrained = _decode_all(decoder, prompts, grammar="verilog")
        verified = sum(r.tokens_verified for r in constrained)
        unpruned = sum(r.tokens_verified_unpruned for r in constrained)
        rows[method] = {
            "syntax_pass_at_1": {
                "unconstrained": sum(check_syntax(r.code).ok for r in unconstrained) / len(prompts),
                "constrained": sum(check_syntax(r.code).ok for r in constrained) / len(prompts),
            },
            "tokens_verified": {
                "constrained": verified,
                "unpruned": unpruned,
                "unconstrained": sum(r.tokens_verified for r in unconstrained),
            },
            "verified_savings_ratio": 1.0 - verified / unpruned if unpruned else 0.0,
            "closure_tokens": sum(r.closure_tokens for r in constrained),
        }

    print("\n=== Grammar-constrained decoding (tree verify, greedy) ===")
    header = f"{'method':<8} {'mode':<14} {'syntax-pass@1':>14} {'verified':>9} {'unpruned':>9} {'closure':>8} {'pruned':>7}"
    print(header)
    print("-" * len(header))
    for method, row in rows.items():
        syntax, verified = row["syntax_pass_at_1"], row["tokens_verified"]
        print(
            f"{method:<8} {'unconstrained':<14} {syntax['unconstrained']:>14.2f} {verified['unconstrained']:>9} "
            f"{'-':>9} {'-':>8} {'-':>7}"
        )
        print(
            f"{method:<8} {'constrained':<14} {syntax['constrained']:>14.2f} {verified['constrained']:>9} "
            f"{verified['unpruned']:>9} {row['closure_tokens']:>8} {row['verified_savings_ratio']:>7.1%}"
        )
    emit_bench_json("constrained_decoding", rows)

    decoder = oracle.decoder("ours")
    config = GenerationConfig.greedy_config(MAX_NEW_TOKENS, grammar="verilog")
    benchmark.pedantic(lambda: decoder.generate_from_text(prompts[0], config), rounds=1, iterations=1)

    for row in rows.values():
        # The syntax mask makes every sample a parsing design — pass@1 is 1.0
        # by construction, independent of how well the model was trained.
        assert row["syntax_pass_at_1"]["constrained"] == 1.0
        # And the tree pre-filter verifies strictly fewer positions than the
        # same steps would have without it.
        assert row["tokens_verified"]["constrained"] < row["tokens_verified"]["unpruned"]


@pytest.mark.benchmark(group="constrained")
def test_constrained_evalbench_mode(benchmark, oracle):
    """The evalbench runner's constrained mode: parse pass@1 pinned at 1.0."""
    runner = EvaluationRunner(
        oracle.decoder("ours"), samples_per_prompt=1, max_new_tokens=MAX_NEW_TOKENS, k_values=(1,), grammar="verilog"
    )
    report = benchmark.pedantic(
        lambda: runner.evaluate_suite(oracle.suite, label="ours+grammar", problems=oracle.problems),
        rounds=1,
        iterations=1,
    )

    print("\n=== Evalbench constrained mode (ours, oracle problems) ===")
    print(f"parse pass@1      : {report.parse_pass_at_k[1]:.2f}")
    print(f"compile pass@1    : {report.syntax_pass_at_k[1]:.2f}")
    print(f"function pass@1   : {report.function_pass_at_k[1]:.2f}")
    print(f"verified savings  : {report.verified_savings_ratio:.1%}")

    assert report.grammar == "verilog"
    assert report.parse_pass_at_k[1] == 1.0
    assert report.parse_pass_rate == 1.0
    assert report.tokens_verified < report.tokens_verified_unpruned
