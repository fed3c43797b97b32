"""Speed-evaluation prompt augmentation (GPT-4 prompt-set substitute).

For the speed evaluation the paper supplements the RTLLM and VGen prompts with
additional GPT-4-generated prompts in the same formats, reaching 575 prompts
in total.  Offline, :func:`build_speed_prompt_set` produces an arbitrary-size
prompt set by combining:

* the benchmark prompts themselves (RTLLM free-form + VGen header style), and
* template-generated prompts over the corpus design families with randomised
  module names, widths and phrasings (the GPT-4 substitute).

The generated prompts are *specification only* — they have no testbench — which
is exactly how the paper uses them (speed measurement does not grade
correctness).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.data.alpaca import INSTRUCTION_PREFIX
from repro.data.corpus import CorpusConfig, SyntheticVerilogCorpus
from repro.data.descriptions import describe_design
from repro.evalbench.problems import ProblemSuite

#: Phrasing variants wrapped around the family description templates.
_WRAPPERS = (
    "{description}",
    "{description} Include all port declarations in the module header.",
    "{description} Use non-blocking assignments for all sequential logic.",
    "{description} Keep the implementation purely synthesizable.",
    "{description} Add a one-line comment describing each output.",
)


def augmented_prompts(count: int, seed: int = 0) -> List[str]:
    """Generate ``count`` RTLLM-style prompts over the corpus design families."""
    corpus = SyntheticVerilogCorpus(CorpusConfig(seed=seed))
    families = corpus.families()
    rng = np.random.default_rng(seed)
    prompts: List[str] = []
    index = 0
    while len(prompts) < count:
        family = families[index % len(families)]
        item = corpus.generate_item(family, index)
        description = describe_design(family, item.name, item.parameters)
        wrapper = _WRAPPERS[int(rng.integers(0, len(_WRAPPERS)))]
        prompts.append(INSTRUCTION_PREFIX + wrapper.format(description=description) + "\n")
        index += 1
    return prompts


def build_speed_prompt_set(
    total: int = 575,
    suites: Optional[Sequence[ProblemSuite]] = None,
    seed: int = 0,
) -> List[str]:
    """Build the paper-style speed prompt set.

    Args:
        total: target number of prompts (the paper uses 575).
        suites: benchmark suites whose prompts are included first; defaults to
            none (pure augmentation) so this module has no import cycle with
            :mod:`repro.evalbench` — callers normally pass the RTLLM and VGen
            suites.
        seed: seed for the augmentation generator.

    Returns:
        A list of exactly ``total`` prompts (benchmark prompts first, then
        template-augmented prompts).
    """
    prompts: List[str] = []
    if suites:
        for suite in suites:
            prompts.extend(suite.prompts())
    if len(prompts) >= total:
        return prompts[:total]
    prompts.extend(augmented_prompts(total - len(prompts), seed=seed))
    return prompts
