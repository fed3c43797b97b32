"""Generation speed and speedup measurement (paper eq. 3 and eq. 4).

The paper measures generation speed as the mean over outputs of
``output token length / inference time`` (eq. 3), evaluating each prompt with
both greedy decoding and temperature-0.8 sampling, and reports speedup as the
ratio of a fine-tuned model's speed to the speed of its NTP-trained
counterpart (eq. 4).

Because the reproduction's models are tiny, wall-clock time is dominated by
Python/numpy overheads rather than model size; we therefore report both the
wall-clock speed (eq. 3 verbatim) and a *step-normalised* speed
(``tokens per decoding step``), which is the architecture-independent quantity
that the paper's speedup actually tracks (each decoding step costs one forward
pass of the large model).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.core.decoding import DecodeResult, SpeculativeDecoder
from repro.models.generation import GenerationConfig


@dataclass
class SpeedReport:
    """Aggregate speed statistics for one model/strategy."""

    label: str
    num_outputs: int
    mean_tokens_per_second: float
    mean_tokens_per_step: float
    mean_output_tokens: float
    mean_steps: float
    total_wall_time: float
    #: Total one-off prompt-prefill time, already excluded from the per-token rates.
    total_prefill_time: float = 0.0
    #: Total positions run through candidate verification across all outputs
    #: (see :class:`~repro.core.decoding.StepRecord`).
    total_verified_tokens: int = 0
    #: Mean over outputs of code characters per decoding step: the step rate
    #: in a unit that counts code only, so it compares all three methods.
    mean_code_chars_per_step: float = 0.0

    def to_dict(self) -> dict:
        """Machine-readable summary (benchmark JSON artifacts)."""
        return {
            "label": self.label,
            "num_outputs": self.num_outputs,
            "mean_tokens_per_second": self.mean_tokens_per_second,
            "mean_tokens_per_step": self.mean_tokens_per_step,
            "mean_output_tokens": self.mean_output_tokens,
            "mean_steps": self.mean_steps,
            "total_wall_time": self.total_wall_time,
            "total_prefill_time": self.total_prefill_time,
            "total_verified_tokens": self.total_verified_tokens,
            "mean_code_chars_per_step": self.mean_code_chars_per_step,
        }


def measure_speed(
    decoder: SpeculativeDecoder,
    prompts: Sequence[str],
    max_new_tokens: int = 96,
    sampling_temperature: float = 0.8,
    include_sampling: bool = True,
    label: str = "",
) -> SpeedReport:
    """Measure generation speed over ``prompts`` (eq. 3).

    Each prompt is decoded with greedy decoding and, when ``include_sampling``
    is True, additionally with temperature sampling — matching the paper's
    "575 x 2 outputs" protocol.

    Args:
        decoder: The decoder under measurement (any strategy).
        prompts: Prompt texts; each contributes one or two outputs.
        max_new_tokens: Per-output generation budget.
        sampling_temperature: Temperature of the sampling pass.
        include_sampling: Add the temperature-sampling output per prompt.
        label: Label recorded on the report.

    Returns:
        A :class:`SpeedReport` aggregating per-output rates.
    """
    results: List[DecodeResult] = []
    for index, prompt in enumerate(prompts):
        configs = [GenerationConfig.greedy_config(max_new_tokens)]
        if include_sampling:
            configs.append(GenerationConfig.sampling_config(sampling_temperature, max_new_tokens, seed=index))
        for config in configs:
            results.append(decoder.generate_from_text(prompt, config))

    num_outputs = len(results)
    if num_outputs == 0:
        return SpeedReport(label, 0, 0.0, 0.0, 0.0, 0.0, 0.0)
    mean_tps = sum(r.tokens_per_second for r in results) / num_outputs
    mean_tpstep = sum(r.tokens_per_step for r in results) / num_outputs
    mean_tokens = sum(r.tokens_generated for r in results) / num_outputs
    mean_steps = sum(r.steps for r in results) / num_outputs
    total_time = sum(r.wall_time_seconds for r in results)
    total_prefill = sum(r.prefill_seconds for r in results)
    total_verified = sum(r.tokens_verified for r in results)
    mean_code_chars_per_step = sum(r.code_chars / r.steps for r in results if r.steps) / num_outputs
    return SpeedReport(
        label=label,
        num_outputs=num_outputs,
        mean_tokens_per_second=mean_tps,
        mean_tokens_per_step=mean_tpstep,
        mean_output_tokens=mean_tokens,
        mean_steps=mean_steps,
        total_wall_time=total_time,
        total_prefill_time=total_prefill,
        total_verified_tokens=total_verified,
        mean_code_chars_per_step=mean_code_chars_per_step,
    )


def speedup(report: SpeedReport, baseline: SpeedReport, use_steps: bool = False) -> float:
    """Speedup of ``report`` relative to the NTP ``baseline`` (eq. 4)."""
    if use_steps:
        if baseline.mean_tokens_per_step <= 0:
            return 0.0
        return report.mean_tokens_per_step / baseline.mean_tokens_per_step
    if baseline.mean_tokens_per_second <= 0:
        return 0.0
    return report.mean_tokens_per_second / baseline.mean_tokens_per_second
