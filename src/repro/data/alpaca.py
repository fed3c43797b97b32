"""Alpaca-style instruction dataset (paper Sec. IV-A.1).

The refined corpus is formatted into Alpaca-style instruction/output pairs:
the natural-language description is the instruction, the Verilog code is the
output.  :func:`repro.data.refinement.refine_corpus` emits the
:class:`AlpacaExample` records directly.  The paper fine-tunes on the full
dataset and on random 1/4, 1/2 and 3/4 subsets to study data-efficiency;
:func:`subset_fractions` reproduces that split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

#: The instruction preamble of the paper's prompts: training prompts, the
#: RTLLM-style suite and the augmented speed prompts all start with it.
INSTRUCTION_PREFIX = "Please act as a professional Verilog designer.\n"


@dataclass
class AlpacaExample:
    """One instruction-tuning example in Alpaca format."""

    instruction: str
    output: str
    #: The output annotated with [FRAG] markers (used by the "ours" variant).
    output_with_frag: str
    name: str = ""

    def prompt_text(self) -> str:
        """The text presented to the model as the prompt."""
        return INSTRUCTION_PREFIX + self.instruction.strip() + "\n"


def subset_fractions(
    examples: Sequence[AlpacaExample],
    fractions: Sequence[float] = (0.25, 0.5, 0.75, 1.0),
    seed: int = 0,
) -> Dict[float, List[AlpacaExample]]:
    """Random nested subsets of the dataset, one per fraction.

    The subsets are nested (the 1/4 subset is contained in the 1/2 subset and
    so on), mirroring how increasing amounts of the same corpus are used in the
    paper's data-scaling study (Table I rows, Fig. 6).
    """
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(examples))
    subsets: Dict[float, List[AlpacaExample]] = {}
    for fraction in fractions:
        count = max(1, int(round(len(examples) * fraction))) if examples else 0
        subsets[fraction] = [examples[i] for i in order[:count]]
    return subsets
