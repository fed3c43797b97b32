"""Golden-token regression tests: decoding refactors must not drift silently.

``tests/golden/*.json`` pins exact prompt -> output token sequences for all
three methods under greedy decoding and seeded sampling, generated by
``scripts/regen_golden.py`` from the same canonical pipeline configuration
the ``tiny_pipeline`` fixture uses.  The step kernel — driven sequentially
over the row cache, by the engine over the paged pool, through the async
front-end and through a one-worker router — and the full-recompute oracle
must all reproduce them bit-for-bit; a legitimate behaviour change regenerates the
fixtures (and the diff documents exactly which sequences moved).

``tests/golden/replay_overload.json`` pins one whole seeded replay report
(:func:`replay_golden`): a simulated-clock overload of a 2-slot engine with
a prefix cache and SLO admission, whose trace sheds and defers, cancels,
expires deadlines and mixes priorities.  Any change to the replay loop, the
engine's scheduling or the admission controller that moves a request's
tokens, status or virtual timing moves this file.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from conftest import tiny_pipeline_config
from reference_decoder import reference_generate

from repro.models.generation import GenerationConfig
from repro.serving import PrefixCache, PriorityConfig, SchedulerConfig
from repro.traffic import (
    AdmissionController,
    SimulatedClock,
    SLOConfig,
    StepCostModel,
    TraceConfig,
    generate_trace,
    replay_trace,
)

GOLDEN_DIR = Path(__file__).parent / "golden"
METHODS = ("ours", "medusa", "ntp")
REPLAY_GOLDEN = GOLDEN_DIR / "replay_overload.json"


def replay_golden(pipeline) -> dict:
    """The report of the seeded overload replay ``replay_overload.json`` pins."""
    trace = generate_trace(
        TraceConfig(
            num_requests=24,
            seed=1,
            requests_per_second=20.0,
            interactive_fraction=0.4,
            num_tenants=3,
            preamble_groups=1,
            prompt_sentence_choices=(1, 2),
            max_new_token_choices=(8, 16),
            deadline_fraction=0.2,
            deadline_seconds_range=(0.05, 0.3),
            cancel_fraction=0.15,
            cancel_after_range=(0.02, 0.2),
        )
    )
    clock = SimulatedClock()
    engine = pipeline.engine_for(
        "ours",
        scheduler_config=SchedulerConfig(max_active_requests=2, priorities=PriorityConfig(aging_rounds=1)),
        prefix_cache=PrefixCache(max_tokens=4096),
        clock=clock,
    )
    admission = AdmissionController(
        SLOConfig(
            target_p95_ttft=0.03, window_seconds=5.0, recover_under=0.5,
            min_samples=2, tenant_rate=100.0, tenant_burst=24.0,
        )
    )
    report = replay_trace(
        engine, trace, clock=clock, cost_model=StepCostModel(decode_token_seconds=0.004), admission=admission
    )
    return report.to_dict()


def load_fixture(method: str) -> dict:
    path = GOLDEN_DIR / f"{method}.json"
    if not path.is_file():
        pytest.fail(f"missing golden fixture {path}; run scripts/regen_golden.py")
    return json.loads(path.read_text())


def config_from_dict(data: dict) -> GenerationConfig:
    """The config a fixture case pins.

    The files keep ``top_k`` and ``greedy`` keys from when those were config
    fields; they must hold what the code now implies (no top-k truncation,
    greedy exactly when the temperature is not positive) and are otherwise
    ignored.
    """
    config = GenerationConfig(max_new_tokens=data["max_new_tokens"], temperature=data["temperature"], seed=data["seed"])
    assert data["top_k"] == 0
    assert data["greedy"] == config.greedy
    return config


def test_fixture_pipeline_matches_test_fixture(tiny_pipeline):
    """The goldens are only meaningful against the exact fixture pipeline."""
    assert tiny_pipeline.config == tiny_pipeline_config()
    fixture = load_fixture("ours")
    expected_prompts = [example.prompt_text() for example in tiny_pipeline.examples][: len(fixture["prompts"])]
    assert fixture["prompts"] == expected_prompts, "corpus drifted; rerun scripts/regen_golden.py"


@pytest.mark.parametrize("method", METHODS)
def test_golden_tokens_sequential(tiny_pipeline, method):
    fixture = load_fixture(method)
    decoder = tiny_pipeline.decoder_for(method)
    for case in fixture["cases"]:
        config = config_from_dict(case["config"])
        for prompt, expected in zip(fixture["prompts"], case["outputs"]):
            result = decoder.generate_from_text(prompt, config)
            assert result.token_ids == expected, (method, case["config"], prompt)


@pytest.mark.parametrize("method", METHODS)
def test_golden_tokens_reference_decoder(tiny_pipeline, method):
    """The oracle the kernel is tested against reproduces the goldens itself."""
    fixture = load_fixture(method)
    decoder = tiny_pipeline.decoder_for(method)
    for case in fixture["cases"]:
        config = config_from_dict(case["config"])
        for prompt, expected in zip(fixture["prompts"], case["outputs"]):
            prompt_ids = tiny_pipeline.tokenizer.encode(prompt, add_bos=True)
            assert reference_generate(decoder, prompt_ids, config).token_ids == expected


@pytest.mark.parametrize("method", METHODS)
def test_golden_tokens_engine(tiny_pipeline, method):
    fixture = load_fixture(method)
    for case in fixture["cases"]:
        config = config_from_dict(case["config"])
        engine = tiny_pipeline.engine_for(method)
        request_ids = [engine.submit_text(prompt, config) for prompt in fixture["prompts"]]
        results = engine.run()
        assert [results[request_id].token_ids for request_id in request_ids] == case["outputs"]


@pytest.mark.parametrize("method", METHODS)
def test_golden_tokens_serving_with_prefix_reuse(tiny_pipeline, method):
    """The serving engine reproduces the goldens with cross-request prefix
    reuse and chunked prefill enabled — reuse is a compute-layout change,
    never a behaviour change.  Constrained concurrency makes admission
    continuous, so later prompts actually hit prefixes retained from
    earlier ones within the same run."""
    from repro.serving import PrefixCache, SchedulerConfig

    fixture = load_fixture(method)
    for case in fixture["cases"]:
        config = config_from_dict(case["config"])
        engine = tiny_pipeline.engine_for(
            method,
            scheduler_config=SchedulerConfig(max_active_requests=2, max_prefill_tokens_per_step=7),
            prefix_cache=PrefixCache(max_tokens=4096),
        )
        request_ids = [engine.submit_text(prompt, config) for prompt in fixture["prompts"] * 2]
        results = engine.run()
        expected_twice = case["outputs"] * 2
        for request_id, expected in zip(request_ids, expected_twice):
            assert results[request_id].token_ids == expected, (method, case["config"])
        # The duplicated prompt set guarantees reusable prefixes existed.
        assert engine.prefix_cache_stats()["hits"] > 0


@pytest.mark.parametrize("method", METHODS)
def test_golden_tokens_async_front_end(tiny_pipeline, method):
    """Streamed bursts through ``AsyncServingEngine`` concatenate to the goldens."""
    import asyncio

    from repro.serving import AsyncServingEngine

    fixture = load_fixture(method)

    async def stream_all(config):
        async with AsyncServingEngine(tiny_pipeline.engine_for(method)) as server:
            handles = [await server.submit_text(prompt, config) for prompt in fixture["prompts"]]

            async def consume(handle):
                return [token async for burst in handle.stream() for token in burst]

            return list(await asyncio.gather(*(consume(handle) for handle in handles)))

    for case in fixture["cases"]:
        assert asyncio.run(stream_all(config_from_dict(case["config"]))) == case["outputs"]


@pytest.mark.parametrize("method", METHODS)
def test_golden_tokens_one_worker_router(tiny_pipeline, method):
    from repro.serving import Router, RouterConfig

    fixture = load_fixture(method)
    prompts = [tiny_pipeline.tokenizer.encode(prompt, add_bos=True) for prompt in fixture["prompts"]]
    with Router(lambda: tiny_pipeline.engine_for(method), config=RouterConfig(num_workers=1, start_method="fork")) as router:
        for case_index, case in enumerate(fixture["cases"]):
            config = config_from_dict(case["config"])
            request_ids = [
                router.submit(prompt, config=config, request_id=f"c{case_index}-p{index}")
                for index, prompt in enumerate(prompts)
            ]
            results = router.drain(timeout=300)
            assert [results[request_id].token_ids for request_id in request_ids] == case["outputs"]


def test_seeded_overload_replay_golden(tiny_pipeline):
    if not REPLAY_GOLDEN.is_file():
        pytest.fail(f"missing golden fixture {REPLAY_GOLDEN}; run scripts/regen_golden.py")
    expected = json.loads(REPLAY_GOLDEN.read_text())
    report = replay_golden(tiny_pipeline)
    # The trace covers every path the fixture is meant to pin.
    assert set(report["by_status"]) == {"finished", "cancelled", "deadline", "shed"}
    assert sum(outcome["defer_count"] for outcome in report["outcomes"]) > 0
    assert set(report["classes"]) == {"interactive", "bulk"}
    assert report["prefix_cache"]["hits"] > 0
    assert report == expected
