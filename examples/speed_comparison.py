"""Speed comparison across decoding strategies (the paper's Table II protocol).

Builds a paper-style speed prompt set (benchmark prompts plus template-augmented
prompts, the 575-prompt protocol scaled down), decodes each prompt with greedy
decoding and temperature-0.8 sampling under the three methods, and reports
tokens/second, tokens per decoding step and the speedup over the NTP baseline.

Run with:  python examples/speed_comparison.py
"""

from __future__ import annotations

from repro.core.pipeline import PipelineConfig, VerilogSpecPipeline
from repro.data.prompt_augmentation import build_speed_prompt_set
from repro.evalbench.rtllm import rtllm_suite
from repro.evalbench.speed import measure_speed, speedup
from repro.evalbench.vgen import vgen_suite


def main() -> None:
    pipeline = VerilogSpecPipeline(
        PipelineConfig(corpus_items=160, vocab_size=700, model_dim=64, num_layers=2, num_medusa_heads=8, epochs=4)
    )
    pipeline.prepare()
    pipeline.train_all()

    # The paper uses 575 prompts; 20 keeps this example quick.
    prompts = build_speed_prompt_set(total=20, suites=(rtllm_suite(), vgen_suite()))
    print(f"Measuring speed over {len(prompts)} prompts x 2 decoding modes ...")

    reports = {}
    for method in ("ours", "medusa", "ntp"):
        decoder = pipeline.decoder_for(method)
        reports[method] = measure_speed(decoder, prompts, max_new_tokens=96, include_sampling=True, label=method)

    baseline = reports["ntp"]
    header = f"{'method':<8} {'tokens/s':>10} {'speedup':>9} {'tokens/step':>12} {'step-speedup':>13}"
    print("\n" + header)
    print("-" * len(header))
    for method, report in reports.items():
        print(
            f"{method:<8} {report.mean_tokens_per_second:>10.1f} {speedup(report, baseline):>9.2f} "
            f"{report.mean_tokens_per_step:>12.2f} {speedup(report, baseline, use_steps=True):>13.2f}"
        )


if __name__ == "__main__":
    main()
