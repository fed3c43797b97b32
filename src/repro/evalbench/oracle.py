"""Quality oracle: the paper's three training methods at memorisation scale.

Six RTLLM problems are small enough for a 48-dim model to memorise in a few
seconds. Each method is trained on the problems' own prompts and reference
designs, through the pipeline's training path (``train_method``, so its
choice of targets and its trainer), and then graded by
:class:`~repro.evalbench.EvaluationRunner` with one greedy sample per
problem, unconstrained and under the Verilog grammar mask. A working
data -> tokenizer -> training -> speculative decode -> integrity truncation
-> grading path writes all six designs; a defect anywhere on it shows as a
lost pass.

It is the one regime in which the methods write correct code, so it is the
model that ``tests/test_quality_oracle.py`` asserts on and that the paper
benches (``benchmarks/bench_*.py``) train.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.core.decoding import SpeculativeDecoder
from repro.core.pipeline import PipelineConfig, VerilogSpecPipeline
from repro.data.alpaca import AlpacaExample
from repro.evalbench.rtllm import rtllm_suite
from repro.evalbench.runner import EvaluationRunner
from repro.tokenizer.bpe import BPETokenizer
from repro.verilog.fragments import insert_frag_markers

ORACLE_PROBLEMS = ("mux2to1_8", "adder_8bit", "decoder_2to4", "half_adder", "dff_async_rst", "up_counter_4")


@dataclass
class _ProblemExample(AlpacaExample):
    """A training example prompted with a problem's own prompt text, so
    training and evaluation encode the same prompt ids."""

    prompt: str = ""

    def prompt_text(self) -> str:
        return self.prompt


@dataclass
class Score:
    """Passes out of the six problems for one trained model and grammar."""

    functional: int
    parses: int


class QualityOracle:
    """Trains each (architecture, epochs, method, prompt suffix) once and
    grades it under each grammar once."""

    def __init__(self) -> None:
        suite = rtllm_suite()
        self.suite = suite
        self.problems = [suite.get(name) for name in ORACLE_PROBLEMS]
        prompts = [problem.prompt for problem in self.problems]
        references = [problem.reference for problem in self.problems]
        self.tokenizer = BPETokenizer()
        self.tokenizer.train(
            prompts + references + [insert_frag_markers(reference) for reference in references], vocab_size=800
        )
        self._pipelines: Dict[Tuple[str, int, str], VerilogSpecPipeline] = {}
        self._scores: Dict[Tuple[str, int, str, str, object], Score] = {}

    def pipeline(self, architecture: str, epochs: int, prompt_suffix: str) -> VerilogSpecPipeline:
        """The pipeline of one set-up, sharing the oracle's tokenizer; its
        models train on first use."""
        key = (architecture, epochs, prompt_suffix)
        if key not in self._pipelines:
            pipeline = VerilogSpecPipeline(
                PipelineConfig(
                    architecture=architecture,
                    model_dim=48,
                    num_layers=2,
                    num_attention_heads=4,
                    num_medusa_heads=4,
                    learning_rate=3e-3,
                    warmup_steps=10,
                    max_train_seq_len=512,
                    max_seq_len=640,
                    epochs=epochs,
                )
            )
            pipeline.tokenizer = self.tokenizer
            pipeline.examples = [
                _ProblemExample(
                    instruction="",
                    output=problem.reference,
                    output_with_frag=insert_frag_markers(problem.reference),
                    name=problem.name,
                    prompt=problem.prompt + prompt_suffix,
                )
                for problem in self.problems
            ]
            self._pipelines[key] = pipeline
        return self._pipelines[key]

    def decoder(
        self, method: str, architecture: str = "decoder-only", epochs: int = 40, prompt_suffix: str = ""
    ) -> SpeculativeDecoder:
        """The decoder of one trained model, training it on first use."""
        pipeline = self.pipeline(architecture, epochs, prompt_suffix)
        if method not in pipeline.models:
            pipeline.train_method(method)
        return pipeline.decoder_for(method)

    def score(
        self, method: str, grammar=None, architecture: str = "decoder-only", epochs: int = 40, prompt_suffix: str = ""
    ) -> Score:
        """Passes of one method's greedy samples under ``grammar``, graded once."""
        key = (architecture, epochs, prompt_suffix, method, grammar)
        if key not in self._scores:
            runner = EvaluationRunner(
                self.decoder(method, architecture, epochs, prompt_suffix),
                samples_per_prompt=1,
                max_new_tokens=400,
                k_values=(1,),
                grammar=grammar,
            )
            report = runner.evaluate_suite(self.suite, label=method, problems=self.problems)
            self._scores[key] = Score(
                functional=sum(result.functional_flags[0] for result in report.prompt_results),
                parses=sum(result.parse_flags[0] for result in report.prompt_results),
            )
        return self._scores[key]


__all__ = ["ORACLE_PROBLEMS", "QualityOracle", "Score"]
