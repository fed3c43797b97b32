"""Stream-metrics parity: Router vs. in-process ServingEngine.

The ops dashboard and the replay report consume ``stream_metrics`` from
whichever front-end is serving; this suite pins the contract that makes
that interchangeable.  A single-worker router executes the same engine
core step-for-step, so for the same workload the two surfaces must report
the **same schema** and **equivalent values**: identical burst structure
(commit event count and per-event token counts, hence identical
inter-token series lengths) and the same completion semantics.  Wall-clock
timestamps differ between processes, so the time *values* are compared
only structurally (present, non-negative, consistent).
"""

from __future__ import annotations

from repro.models.generation import GenerationConfig
from repro.serving import Router, RouterConfig, ServingEngine


def _prompts(pipeline, count):
    prompts = [example.prompt_text() for example in pipeline.examples][:count]
    return [pipeline.tokenizer.encode(p, add_bos=True) for p in prompts]


def _engine_metrics(pipeline, prompts):
    engine = ServingEngine(pipeline.decoder_for("ours"))
    for index, prompt in enumerate(prompts):
        engine.submit(prompt, config=GenerationConfig.greedy_config(12), request_id=f"r{index}")
    results = engine.run()
    return results, {f"r{i}": engine.stream_metrics(f"r{i}") for i in range(len(prompts))}


def _router_metrics(pipeline, prompts):
    def factory():
        return ServingEngine(pipeline.decoder_for("ours"))

    router = Router(factory, config=RouterConfig(num_workers=1, start_method="fork"))
    with router:
        for index, prompt in enumerate(prompts):
            router.submit(prompt, config=GenerationConfig.greedy_config(12), request_id=f"r{index}")
        results = router.drain(timeout=300)
        metrics = {f"r{i}": router.stream_metrics(f"r{i}") for i in range(len(prompts))}
    return results, metrics


class TestStreamMetricsParity:
    def test_schema_and_equivalent_values(self, tiny_pipeline):
        prompts = _prompts(tiny_pipeline, 3)
        engine_results, engine_metrics = _engine_metrics(tiny_pipeline, prompts)
        router_results, router_metrics = _router_metrics(tiny_pipeline, prompts)

        for rid in engine_metrics:
            local, remote = engine_metrics[rid], router_metrics[rid]
            # Same schema.
            assert set(local) == set(remote) == {
                "ttft_seconds", "inter_token_seconds", "commit_events",
            }
            # Same tokens delivered (the single-worker identity guarantee).
            assert router_results[rid].token_ids == engine_results[rid].token_ids
            # Same burst structure: the router worker runs the same core
            # step-for-step, so commits land in the same per-step groups.
            local_bursts = [n for _, n in local["commit_events"]]
            remote_bursts = [n for _, n in remote["commit_events"]]
            assert remote_bursts == local_bursts
            assert sum(local_bursts) == len(engine_results[rid].token_ids)
            # Same derived series shape: one inter-token entry per token
            # after the first burst, on both surfaces.
            expected_itl = sum(local_bursts[1:])
            assert len(local["inter_token_seconds"]) == expected_itl
            assert len(remote["inter_token_seconds"]) == expected_itl
            # Timestamps are wall-clock and process-local: compare
            # structurally, not numerically.
            for metrics in (local, remote):
                assert metrics["ttft_seconds"] is not None
                assert metrics["ttft_seconds"] >= 0.0
                offsets = [t for t, _ in metrics["commit_events"]]
                assert offsets == sorted(offsets)
                assert all(gap >= 0.0 for gap in metrics["inter_token_seconds"])
