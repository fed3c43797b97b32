"""Quality oracle (``repro.evalbench.oracle``): paper Table I at memorisation
scale. Each method is trained on six RTLLM problems and graded with one
greedy sample per problem, unconstrained and under the Verilog grammar mask;
a defect anywhere on the data -> tokenizer -> training -> decode -> grading
path shows as a lost pass.

Measured (decoder-only, 40 epochs), functional passes unconstrained /
constrained: ntp 6/6 / 6/6, medusa 6/6 / 6/6, ours 0/6 / 0/6. Ours' samples
parse 0/6 unconstrained and 6/6 constrained: ``BPETokenizer._pre_tokenize``
drops the whitespace that ends a chunk, so code stripped of its ``[FRAG]``
markers glues tokens together (``inputa`` for ``input a``).
"""

from __future__ import annotations

from typing import List

import pytest

from repro.evalbench.oracle import ORACLE_PROBLEMS, QualityOracle

METHODS = ("ntp", "medusa", "ours")

GRAMMARS = (None, "verilog")

OURS_XFAIL = pytest.mark.xfail(
    strict=True,
    reason=(
        "BPETokenizer._pre_tokenize drops the whitespace that ends a chunk, so Ours' "
        "[FRAG]-annotated targets decode to code that does not parse (ROADMAP item 1(a))"
    ),
)


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
