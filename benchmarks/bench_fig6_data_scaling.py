"""Fig. 6 — pass@5 vs. training-data size for the CodeT5p-style architecture.

The paper's Fig. 6 plots pass@5 (function and syntax, RTLLM and VGen) for the
CodeT5p architecture trained on 32K/64K/96K/128K examples, showing that the
syntax-enriched method dominates the baselines at every data size and is
especially strong in the low-data regime.  This bench regenerates the series
with the encoder-decoder backbone trained on nested fractions of the corpus,
at the largest of pass@1 / pass@5 its samples per prompt can estimate (pass@5
needs ``REPRO_BENCH_FULL=1``; the default and smoke sizes report pass@1).
"""

from __future__ import annotations

import os

import pytest

from repro.core.pipeline import PipelineConfig, VerilogSpecPipeline
from repro.evalbench.problems import ProblemSuite
from repro.evalbench.rtllm import rtllm_suite
from repro.evalbench.runner import EvaluationRunner
from repro.evalbench.vgen import vgen_suite

from conftest import SMOKE, emit_bench_json, pass_k_values

FULL = os.environ.get("REPRO_BENCH_FULL", "0") == "1"
if SMOKE:
    FRACTIONS = (1.0,)
    PROBLEMS = 2
    SAMPLES = 1
else:
    FRACTIONS = (0.25, 0.5, 0.75, 1.0) if FULL else (0.5, 1.0)
    PROBLEMS = 6 if FULL else 3
    SAMPLES = 5 if FULL else 2
K_VALUES = pass_k_values((1, 5), SAMPLES)
K = K_VALUES[-1]


def _encdec_config(fraction: float) -> PipelineConfig:
    return PipelineConfig(
        corpus_items=200 if FULL else (60 if SMOKE else 120),
        vocab_size=700 if FULL else (450 if SMOKE else 600),
        architecture="encoder-decoder",
        model_dim=48 if FULL else 32,
        num_layers=1,
        num_attention_heads=2,
        num_medusa_heads=6 if not SMOKE else 4,
        max_seq_len=320,
        epochs=6 if FULL else (1 if SMOKE else 2),
        max_train_seq_len=224 if not SMOKE else 160,
        data_fraction=fraction,
    )


@pytest.mark.benchmark(group="fig6-data-scaling")
def test_fig6_pass5_vs_data_size(benchmark):
    """Regenerate Fig. 6's pass@K-vs-data-size series (encoder-decoder backbone)."""
    rtllm = ProblemSuite(name="RTLLM", problems=list(rtllm_suite())[:PROBLEMS])
    vgen = ProblemSuite(name="VGen", problems=list(vgen_suite())[:PROBLEMS])

    series = {}
    pipelines = {}
    for fraction in FRACTIONS:
        pipeline = VerilogSpecPipeline(_encdec_config(fraction))
        pipeline.prepare()
        pipeline.train_all()
        pipelines[fraction] = pipeline
        for method in ("ours", "medusa", "ntp"):
            runner = EvaluationRunner(
                pipeline.decoder_for(method), samples_per_prompt=SAMPLES, max_new_tokens=96, k_values=K_VALUES
            )
            for suite in (rtllm, vgen):
                report = runner.evaluate_suite(suite, label=method)
                series[(fraction, method, suite.name)] = {
                    f"function_pass@{K}": 100.0 * report.function_pass_at_k[K],
                    f"syntax_pass@{K}": 100.0 * report.syntax_pass_at_k[K],
                    "examples": len(pipeline.examples),
                }

    print(f"\n=== Fig. 6 (encoder-decoder backbone, pass@{K} vs data size) ===")
    header = f"{'fraction':<9} {'#examples':>9} {'suite':<6} {'method':<8} {f'func pass@{K}':>12} {f'syn pass@{K}':>11}"
    print(header)
    print("-" * len(header))
    for (fraction, method, suite_name), point in series.items():
        print(
            f"{fraction:<9} {point['examples']:>9} {suite_name:<6} {method:<8} "
            f"{point[f'function_pass@{K}']:>12.2f} {point[f'syntax_pass@{K}']:>11.2f}"
        )

    emit_bench_json(
        "fig6_data_scaling",
        {f"{fraction}/{method}/{suite}": point for (fraction, method, suite), point in series.items()},
    )

    # Timed kernel: one greedy decode with the largest-fraction "ours" model.
    decoder = pipelines[FRACTIONS[-1]].decoder_for("ours")
    prompt = rtllm[0].prompt
    from repro.models.generation import GenerationConfig

    benchmark.pedantic(lambda: decoder.generate_from_text(prompt, GenerationConfig.greedy_config(32)), rounds=1, iterations=1)

    # Sanity: every series entry is a valid percentage.
    for point in series.values():
        assert 0.0 <= point[f"function_pass@{K}"] <= 100.0
        assert 0.0 <= point[f"syntax_pass@{K}"] <= 100.0
