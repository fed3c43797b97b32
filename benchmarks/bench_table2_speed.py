"""Table II — generation speed and speedup over the NTP baseline.

The paper's Table II reports tokens/second and the speedup relative to the
NTP-trained model (eq. 3 and eq. 4) for CodeLlama and CodeT5p.  This bench
regenerates the decoder-only (CodeLlama-style) column: each prompt of the
speed set is decoded with greedy decoding and temperature-0.8 sampling, and
the mean speed is reported for the three methods.

Two speed figures are printed:

* wall-clock tokens/second (eq. 3 verbatim), measured over the decode loop
  with the one-off prompt prefill excluded;
* tokens per decoding step — the architecture-independent quantity the paper's
  speedup tracks (one step = one forward pass of the large model).

Expected shape: Ours > Medusa > NTP on tokens/step, with Ours and Medusa both
well above 1 token/step and NTP exactly 1.
"""

from __future__ import annotations

import pytest

from repro.evalbench.speed import measure_speed, speedup
from repro.models.generation import GenerationConfig

from conftest import SMOKE, SPEED_PROMPTS, emit_bench_json


def _speed_prompts(pipeline, rtllm_subset, vgen_subset, count):
    prompts = [p.prompt for p in rtllm_subset] + [p.prompt for p in vgen_subset]
    prompts += [e.prompt_text() for e in pipeline.examples]
    return prompts[:count]


@pytest.mark.benchmark(group="table2-speed")
def test_table2_generation_speed(benchmark, trained_pipeline, rtllm_subset, vgen_subset):
    """Regenerate Table II for the decoder-only backbone."""
    prompts = _speed_prompts(trained_pipeline, rtllm_subset, vgen_subset, SPEED_PROMPTS)
    max_new_tokens = 48 if SMOKE else 96

    reports = {}
    for method in ("ours", "medusa", "ntp"):
        decoder = trained_pipeline.decoder_for(method)
        reports[method] = measure_speed(
            decoder, prompts, max_new_tokens=max_new_tokens, sampling_temperature=0.8, include_sampling=True,
            label=method,
        )

    print("\n=== Table II (decoder-only backbone) ===")
    header = (
        f"{'method':<8} {'tokens/s':>10} {'speedup':>9} {'tokens/step':>12} {'step-speedup':>13} {'mean steps':>11}"
    )
    print(header)
    print("-" * len(header))
    baseline = reports["ntp"]
    for method, report in reports.items():
        print(
            f"{method:<8} {report.mean_tokens_per_second:>10.1f} {speedup(report, baseline):>9.2f} "
            f"{report.mean_tokens_per_step:>12.2f} {speedup(report, baseline, use_steps=True):>13.2f} "
            f"{report.mean_steps:>11.1f}"
        )

    emit_bench_json(
        "table2_speed",
        {
            "methods": {method: report.to_dict() for method, report in reports.items()},
            "ntp_speedup": {method: speedup(report, baseline) for method, report in reports.items()},
            "step_speedup": {method: speedup(report, baseline, use_steps=True) for method, report in reports.items()},
        },
    )

    # Timed kernel: a single greedy decode with the "ours" decoder.
    decoder = trained_pipeline.decoder_for("ours")
    benchmark.pedantic(
        lambda: decoder.generate_from_text(prompts[0], GenerationConfig.greedy_config(48)), rounds=1, iterations=1
    )

    assert reports["ntp"].mean_tokens_per_step == pytest.approx(1.0, abs=1e-6)
    if not SMOKE:
        # Shape assertions (paper: speculative methods commit >1 token per step;
        # NTP exactly 1).
        assert reports["ours"].mean_tokens_per_step > 1.0
        assert reports["medusa"].mean_tokens_per_step > 1.0
        assert speedup(reports["ours"], baseline, use_steps=True) > 1.0
