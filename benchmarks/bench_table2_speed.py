"""Table II — generation speed and speedup over the NTP baseline.

The paper's Table II reports tokens/second and the speedup relative to the
NTP-trained model (eq. 3 and eq. 4). This bench regenerates the decoder-only
column on the quality oracle: each of its six prompts is decoded with greedy
decoding and temperature-0.8 sampling (:func:`~repro.evalbench.speed.measure_speed`),
and the means are reported for the three methods.

Four rates are printed:

* wall-clock tokens/second (eq. 3 verbatim), over the decode loop with the
  one-off prompt prefill excluded;
* tokens per decoding step, the architecture-independent quantity the
  paper's speedup tracks (one step = one forward pass of the large model);
* code characters per step, the same rate in a unit every method shares:
  Ours' ``[FRAG]`` markers are tokens but not code;
* mean steps and tokens per output.

Measured (three model seeds): NTP commits exactly 1 token/step, Medusa
4.80-4.91 and Ours 4.06-4.13; in code characters per step NTP 2.78-2.81,
Medusa 13.5-13.9 and Ours 4.56-4.66. Ours commits fewer code characters per
step than Medusa because its targets spend tokens on ``[FRAG]`` markers and
on code split around them (ROADMAP item 3).
"""

from __future__ import annotations

import pytest

from repro.evalbench.speed import measure_speed, speedup
from repro.models.generation import GenerationConfig

from conftest import MAX_NEW_TOKENS, METHODS, emit_bench_json


@pytest.mark.benchmark(group="table2-speed")
def test_table2_generation_speed(benchmark, oracle):
    """Regenerate Table II for the decoder-only backbone."""
    prompts = [problem.prompt for problem in oracle.problems]
    reports = {
        method: measure_speed(oracle.decoder(method), prompts, max_new_tokens=MAX_NEW_TOKENS, label=method)
        for method in METHODS
    }
    baseline = reports["ntp"]

    print("\n=== Table II (decoder-only backbone) ===")
    header = (
        f"{'method':<8} {'tokens/s':>10} {'speedup':>9} {'tokens/step':>12} {'step-speedup':>13} "
        f"{'code chars/step':>16} {'mean steps':>11} {'mean tokens':>12}"
    )
    print(header)
    print("-" * len(header))
    for method, report in reports.items():
        print(
            f"{method:<8} {report.mean_tokens_per_second:>10.1f} {speedup(report, baseline):>9.2f} "
            f"{report.mean_tokens_per_step:>12.2f} {speedup(report, baseline, use_steps=True):>13.2f} "
            f"{report.mean_code_chars_per_step:>16.2f} {report.mean_steps:>11.1f} {report.mean_output_tokens:>12.1f}"
        )

    emit_bench_json(
        "table2_speed",
        {
            "methods": {method: report.to_dict() for method, report in reports.items()},
            "ntp_speedup": {method: speedup(report, baseline) for method, report in reports.items()},
            "step_speedup": {method: speedup(report, baseline, use_steps=True) for method, report in reports.items()},
        },
    )

    decoder = oracle.decoder("ours")
    benchmark.pedantic(
        lambda: decoder.generate_from_text(prompts[0], GenerationConfig.greedy_config(MAX_NEW_TOKENS)),
        rounds=1,
        iterations=1,
    )

    assert baseline.mean_tokens_per_step == pytest.approx(1.0, abs=1e-6)
    for method in ("medusa", "ours"):
        assert speedup(reports[method], baseline, use_steps=True) > 1.0
        assert reports[method].mean_code_chars_per_step > baseline.mean_code_chars_per_step
