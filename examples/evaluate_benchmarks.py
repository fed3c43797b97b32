"""Evaluate a trained model on the RTLLM- and VGen-style benchmark suites.

This example mirrors the paper's quality protocol (Table I): sample several
responses per benchmark prompt at multiple temperatures, grade syntax (compile)
and functionality (testbench simulation), and report pass@k plus Pass Rate for
each method.

Run with:  python examples/evaluate_benchmarks.py
"""

from __future__ import annotations

from repro.core.pipeline import PipelineConfig, VerilogSpecPipeline
from repro.evalbench.problems import ProblemSuite
from repro.evalbench.rtllm import rtllm_suite
from repro.evalbench.runner import EvaluationRunner
from repro.evalbench.vgen import vgen_suite

SAMPLES_PER_PROMPT = 5
#: pass@k is defined only for k <= samples per prompt (the paper's pass@10
#: needs n >= 10; raise SAMPLES_PER_PROMPT to report it).
K_VALUES = (1, 5)


def main() -> None:
    pipeline = VerilogSpecPipeline(
        PipelineConfig(corpus_items=160, vocab_size=700, model_dim=64, num_layers=2, num_medusa_heads=8, epochs=4)
    )
    pipeline.prepare()
    pipeline.train_all()

    # A small slice of each suite keeps the example quick; drop the slicing to
    # evaluate the full 29 + 17 problems.
    suites = []
    for suite in (rtllm_suite(), vgen_suite()):
        suites.append(ProblemSuite(name=suite.name, problems=list(suite)[:6]))

    for suite in suites:
        print(f"\n=== {suite.name} ({len(suite)} problems) ===")
        columns = " ".join(f"{f'pass@{k}':>8}" for k in K_VALUES)
        header = f"{'method':<8} {'metric':<9} {columns} {'PassRate':>9}"
        print(header)
        print("-" * len(header))
        for method in ("ours", "medusa", "ntp"):
            runner = EvaluationRunner(
                pipeline.decoder_for(method),
                samples_per_prompt=SAMPLES_PER_PROMPT,
                max_new_tokens=120,
                k_values=K_VALUES,
            )
            report = runner.evaluate_suite(suite, label=method)
            for metric, pass_at_k, rate in (
                ("function", report.function_pass_at_k, report.function_pass_rate),
                ("syntax", report.syntax_pass_at_k, report.syntax_pass_rate),
            ):
                cells = " ".join(f"{100.0 * pass_at_k[k]:>8.2f}" for k in K_VALUES)
                print(f"{method:<8} {metric:<9} {cells} {100.0 * rate:>9.2f}")


if __name__ == "__main__":
    main()
