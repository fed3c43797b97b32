"""Quality oracle: paper Table I at memorisation scale.

Six RTLLM problems are small enough for a 48-dim model to memorise in a few
seconds. Each method is trained on the problems' own prompts and reference
designs, through the pipeline's training path (``train_method``, so its
choice of targets and its trainer), and then graded by
:class:`~repro.evalbench.EvaluationRunner` with one greedy sample per
problem, unconstrained and under the Verilog grammar mask. A working
data -> tokenizer -> training -> speculative decode -> integrity truncation
-> grading path writes all six designs; a defect anywhere on it shows as a
lost pass.

Measured (decoder-only, 40 epochs), functional passes unconstrained /
constrained: ntp 6/6 / 6/6, medusa 6/6 / 6/6, ours 0/6 / 0/6. Ours' samples
parse 0/6 unconstrained and 6/6 constrained: ``BPETokenizer._pre_tokenize``
drops the whitespace that ends a chunk, so code stripped of its ``[FRAG]``
markers glues tokens together (``inputa`` for ``input a``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import pytest

from repro.core.pipeline import PipelineConfig, VerilogSpecPipeline
from repro.data.alpaca import AlpacaExample
from repro.evalbench import EvaluationRunner, rtllm_suite
from repro.tokenizer.bpe import BPETokenizer
from repro.verilog.fragments import insert_frag_markers

ORACLE_PROBLEMS = ("mux2to1_8", "adder_8bit", "decoder_2to4", "half_adder", "dff_async_rst", "up_counter_4")

METHODS = ("ntp", "medusa", "ours")

GRAMMARS = (None, "verilog")

OURS_XFAIL = pytest.mark.xfail(
    strict=True,
    reason=(
        "BPETokenizer._pre_tokenize drops the whitespace that ends a chunk, so Ours' "
        "[FRAG]-annotated targets decode to code that does not parse (ROADMAP item 1(a))"
    ),
)


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

    def score(
        self, method: str, grammar=None, architecture: str = "decoder-only", epochs: int = 40, prompt_suffix: str = ""
    ) -> Score:
        key = (architecture, epochs, prompt_suffix, method, grammar)
        if key not in self._scores:
            pipeline = self.pipeline(architecture, epochs, prompt_suffix)
            if method not in pipeline.models:
                pipeline.train_method(method)
            runner = EvaluationRunner(
                pipeline.decoder_for(method), samples_per_prompt=1, max_new_tokens=400, k_values=(1,), grammar=grammar
            )
            report = runner.evaluate_suite(self.suite, label=method, problems=self.problems)
            self._scores[key] = Score(
                functional=sum(result.functional_flags[0] for result in report.prompt_results),
                parses=sum(result.parse_flags[0] for result in report.prompt_results),
            )
        return self._scores[key]


@pytest.fixture(scope="session")
def oracle() -> QualityOracle:
    return QualityOracle()


def _method_params() -> List:
    return [pytest.param(method, marks=OURS_XFAIL) if method == "ours" else method for method in METHODS]


def test_oracle_problems_and_tokenizer(oracle):
    assert [problem.name for problem in oracle.problems] == list(ORACLE_PROBLEMS)
    assert sum(problem.category == "sequential" for problem in oracle.problems) == 2
    # Training stops merging before the requested 800: the six problems hold
    # no more pairs worth a merge.
    assert oracle.tokenizer.vocab_size == 302


@pytest.mark.parametrize("grammar", GRAMMARS, ids=("unconstrained", "constrained"))
@pytest.mark.parametrize("method", _method_params())
def test_every_method_writes_all_six_designs(oracle, method, grammar):
    assert oracle.score(method, grammar).functional == 6


def test_ours_samples_parse_only_under_the_grammar(oracle):
    """Pins the tokenizer defect's signature: the grammar mask closes every
    Ours sample into a parse, but no unconstrained sample parses."""
    assert oracle.score("ours", None).parses == 0
    assert oracle.score("ours", "verilog").parses == 6


@pytest.mark.parametrize("method", ("ntp", "medusa"))
def test_a_training_prompt_format_mismatch_costs_unconstrained_passes(oracle, method):
    """Training prompts that end in a newline the evaluation prompts lack
    (measured: 0/6 for both methods) must cost passes, or the oracle could not
    see a prompt-format mismatch. Constrained, the grammar mask rescues most
    of them (measured: ntp 5/6, medusa 4/6), so only the unconstrained column
    is asserted."""
    assert oracle.score(method, None, prompt_suffix="\n").functional < 6


@pytest.mark.slow
@pytest.mark.parametrize("grammar", GRAMMARS, ids=("unconstrained", "constrained"))
@pytest.mark.parametrize("method", _method_params())
def test_encoder_decoder_writes_all_six_designs(oracle, method, grammar):
    assert oracle.score(method, grammar, architecture="encoder-decoder", epochs=100).functional == 6
