"""Table I — quality of generated Verilog (functional and syntactic pass@1).

The paper's Table I reports pass@k and Pass Rate, functional and syntactic,
on RTLLM and VGen, for the three training methods (Ours / Medusa / NTP).
This bench regenerates its core on the quality oracle: pass@1 per method
(one greedy sample per problem) over the oracle's six RTLLM problems,
unconstrained and under ``grammar="verilog"``. VGen waits for a problem set
the oracle can memorise.

Measured (three model seeds): NTP and Medusa write all six designs in both
modes. Ours writes none: its ``[FRAG]``-annotated targets do not decode to
parsing code until the tokenizer keeps a chunk's trailing whitespace
(ROADMAP item 1(a)), and the grammar mask makes its samples parse but not
pass.
"""

from __future__ import annotations

import pytest

from repro.evalbench.runner import EvaluationRunner

from conftest import MAX_NEW_TOKENS, METHODS, emit_bench_json

MODES = {"unconstrained": None, "constrained": "verilog"}


@pytest.mark.benchmark(group="table1-quality")
def test_table1_rtllm_quality(benchmark, oracle):
    """Regenerate Table I's RTLLM rows; the timed kernel is one grading pass of one problem."""
    total = len(oracle.problems)
    rows = {
        method: {
            mode: {
                "function_pass@1": oracle.score(method, grammar).functional / total,
                "syntax_pass@1": oracle.score(method, grammar).parses / total,
            }
            for mode, grammar in MODES.items()
        }
        for method in METHODS
    }

    print(f"\n=== Table I (RTLLM, {total} oracle problems, decoder-only backbone) ===")
    header = f"{'method':<8} {'mode':<14} {'func pass@1':>12} {'syn pass@1':>11}"
    print(header)
    print("-" * len(header))
    for method, by_mode in rows.items():
        for mode, row in by_mode.items():
            print(f"{method:<8} {mode:<14} {row['function_pass@1']:>12.2f} {row['syntax_pass@1']:>11.2f}")
    emit_bench_json("table1_rtllm_quality", rows)

    runner = EvaluationRunner(
        oracle.decoder("ntp"), samples_per_prompt=1, max_new_tokens=MAX_NEW_TOKENS, k_values=(1,)
    )
    benchmark.pedantic(lambda: runner.evaluate_problem(oracle.problems[0]), rounds=1, iterations=1)

    for method in ("ntp", "medusa"):
        for row in rows[method].values():
            assert row["function_pass@1"] == 1.0
    for by_mode in rows.values():
        for row in by_mode.values():
            assert row["function_pass@1"] <= row["syntax_pass@1"]
        # The grammar mask makes every sample parse, however it was trained.
        assert by_mode["constrained"]["syntax_pass@1"] == 1.0
