"""Each decision on the decode path has one owner, and every caller defers to it.

* greedy or sample — ``GenerationConfig.greedy``, read from the temperature:
  a sampling config at temperature 0 commits the greedy tokens on the
  sequential, engine and grammar-constrained paths;
* prompt ids — ``BPETokenizer.encode_prompt``: the same instruction text
  becomes the same ids through every entry point that prompts a model, the
  training samples included.

Token text (the tokenizer's piece tables) and the ``[FRAG]`` literal are
covered in ``tests/test_tokenizer.py``.
"""

from __future__ import annotations

import asyncio
from typing import List

import pytest

from repro.core.decoding import SpeculativeDecoder
from repro.evalbench import EvaluationRunner
from repro.evalbench.problems import Problem
from repro.models.generation import GenerationConfig
from repro.serving import ServingEngine
from repro.serving.server import AsyncServingEngine
from repro.traffic.replay import replay_trace, replay_trace_async, replay_trace_router
from repro.traffic.trace import Trace, TraceConfig, TraceRequest


@pytest.mark.parametrize("method", ["ours", "ntp"])
def test_temperature_zero_sampling_commits_the_greedy_tokens(tiny_pipeline, method):
    decoder = tiny_pipeline.decoder_for(method)
    prompts = [example.prompt_text() for example in tiny_pipeline.examples[:3]]
    greedy = GenerationConfig.greedy_config(24)
    cold = GenerationConfig.sampling_config(0.0, 24, seed=5)
    assert cold.greedy

    # Sequential: the step kernel over a row cache.
    expected = [decoder.generate_from_text(prompt, greedy).token_ids for prompt in prompts]
    assert [decoder.generate_from_text(prompt, cold).token_ids for prompt in prompts] == expected

    # Engine: the same kernel over the paged pool, lanes batched together.
    engine = ServingEngine(decoder)
    request_ids = [engine.submit_text(prompt, cold) for prompt in prompts]
    results = engine.run()
    assert [results[request_id].token_ids for request_id in request_ids] == expected

    # Grammar-constrained: the mask takes its argmax branch.
    constrained = [
        decoder.generate_from_text(prompt, GenerationConfig.greedy_config(24, grammar="verilog")).token_ids
        for prompt in prompts
    ]
    cold_constrained = GenerationConfig.sampling_config(0.0, 24, seed=5, grammar="verilog")
    assert [decoder.generate_from_text(prompt, cold_constrained).token_ids for prompt in prompts] == constrained


class _Handed(Exception):
    """Raised by :class:`_PromptSpy` once it has the ids: the caller need not run on."""


class _PromptSpy:
    """Stands in for the layer below a prompt entry point.

    It is the decoder (``tokenizer``, ``generate``, ``generate_many``), the
    engine (``decoder``, ``submit``, and the ``has_work`` /
    ``tokens_prefilled_total`` an ``EngineControl`` pump reads), the async
    server (``engine``, ``submit``) and the router (``submit``) at once; it
    records the prompt ids it is handed and stops the caller.
    """

    has_work = False
    tokens_prefilled_total = 0

    def __init__(self, tokenizer) -> None:
        self.tokenizer = tokenizer
        self.decoder = self
        self.engine = self
        self.handed: List[List[int]] = []

    def _record(self, prompt_ids, *args, **kwargs):
        self.handed.append(list(prompt_ids))
        raise _Handed

    submit = generate = generate_many = _record


def test_every_prompt_entry_point_gives_the_training_ids(tiny_pipeline):
    example = tiny_pipeline.examples[0]
    text = example.prompt_text()
    trained_on = tiny_pipeline.training_samples("ours")[0].prompt_ids
    spy = _PromptSpy(tiny_pipeline.tokenizer)
    trace = Trace(
        config=TraceConfig(),
        requests=[TraceRequest("r0000", 0.0, "tenant-0", "interactive", text, max_new_tokens=4)],
    )
    problem = Problem(name=example.name, prompt=text, reference="", testbench="", module_name=example.name)

    entry_points = {
        "SpeculativeDecoder.generate_from_text": lambda: SpeculativeDecoder.generate_from_text(spy, text),
        "ServingEngine.submit_text": lambda: ServingEngine.submit_text(spy, text),
        "AsyncServingEngine.submit_text": lambda: asyncio.run(AsyncServingEngine.submit_text(spy, text)),
        "replay_trace": lambda: replay_trace(spy, trace),
        "replay_trace_async": lambda: asyncio.run(replay_trace_async(spy, trace)),
        "replay_trace_router": lambda: replay_trace_router(spy, trace, spy.tokenizer),
        "EvaluationRunner.generate_results": lambda: EvaluationRunner(
            spy, samples_per_prompt=1, k_values=(1,)
        ).generate_results(problem),
    }
    for name, call in entry_points.items():
        with pytest.raises(_Handed):
            call()
        assert spy.handed.pop() == trained_on, name
    assert trained_on == tiny_pipeline.tokenizer.encode_prompt(text)
