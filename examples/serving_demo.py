"""Multi-request serving demo: continuous batching vs. sequential decoding.

Trains the three model variants, submits N concurrent generation requests to
the continuous-batching :class:`~repro.serving.ServingEngine` (one shared
batched forward per step, FCFS admission under a token budget) and compares
throughput and latency against decoding the same prompts one after another.
The engine's outputs are checked token-identical to sequential ``generate``.

``--stream`` instead demonstrates the asyncio streaming front-end
(:class:`~repro.serving.AsyncServingEngine`): tokens printed as they commit,
priority-aware admission, a cooperative cancel and a per-request deadline,
with a TTFT/inter-token latency summary.  Streamed bursts are checked to
concatenate to exactly the batch ``result()`` tokens.

Run with:  python examples/serving_demo.py
Smoke:     python examples/serving_demo.py --smoke      (tiny model, seconds)
Streaming: python examples/serving_demo.py --smoke --stream
"""

from __future__ import annotations

import asyncio
import sys
import time

from repro.core.pipeline import PipelineConfig, VerilogSpecPipeline
from repro.evalbench.stats import percentile
from repro.models.generation import GenerationConfig
from repro.serving import (
    AsyncServingEngine,
    PrefixCache,
    PriorityConfig,
    RequestCancelled,
    RequestDeadlineExceeded,
    SchedulerConfig,
)


async def streaming_demo(pipeline: VerilogSpecPipeline, max_new_tokens: int) -> None:
    """Stream tokens live, then demonstrate priorities, cancel and deadline."""
    tokenizer = pipeline.tokenizer
    # prepare() always yields several examples; the demo uses the first four.
    prompts = [example.prompt_text() for example in pipeline.examples][:4]
    generation = GenerationConfig.greedy_config(max_new_tokens)

    # 1. Live token stream: bursts print the moment the engine commits them.
    engine = pipeline.engine_for("ours")
    print("Streaming one request (each [..] is one committed burst):\n")
    async with AsyncServingEngine(engine) as server:
        handle = await server.submit_text(prompts[0], generation)
        streamed: list[int] = []
        async for burst in handle.stream():
            streamed.extend(burst)
            print(f"[{tokenizer.decode(burst, keep_frag=True)}]", end="", flush=True)
        result = await handle.result()
    print("\n")
    if streamed != result.token_ids:
        raise SystemExit("streamed bursts diverged from the batch result")
    print(
        f"Streamed {len(streamed)} tokens in {len(result.step_records)} bursts; "
        "concatenation is identical to result().token_ids."
    )

    # 2. Priority classes: a high-priority request overtakes queued bulk work.
    engine = pipeline.engine_for(
        "ours",
        scheduler_config=SchedulerConfig(
            max_active_requests=1, priorities=PriorityConfig(aging_rounds=8)
        ),
    )
    async with AsyncServingEngine(engine) as server:
        bulk = [await server.submit_text(p, generation, priority=0) for p in prompts]
        urgent = await server.submit_text(prompts[0], generation, priority=5)
        order: list[str] = []

        async def watch(handle, name):
            try:
                await handle.result()
            except RequestCancelled:
                pass
            order.append(name)

        await asyncio.gather(
            *(watch(h, f"bulk-{i}") for i, h in enumerate(bulk)), watch(urgent, "urgent")
        )
    print(f"\nPriority admission (1 slot): completion order {order}")
    if order.index("urgent") >= len(order) - 1:
        raise SystemExit("urgent request did not overtake the bulk queue")

    # 3. Cooperative cancellation and a per-request deadline.
    engine = pipeline.engine_for("ours")
    long_config = GenerationConfig.greedy_config(max_new_tokens * 8)
    async with AsyncServingEngine(engine) as server:
        victim = await server.submit_text(prompts[1], long_config)
        collected = 0
        async for burst in victim.stream():
            collected += len(burst)
            if collected >= 4:
                victim.cancel()
        try:
            await victim.result()
            raise SystemExit("cancelled request still returned a result")
        except RequestCancelled as error:
            print(
                f"\nCancelled after {error.partial.tokens_generated} tokens; "
                "its KV row and scheduler budget were freed the same step."
            )
        deadlined = await server.submit_text(prompts[2], long_config, deadline=0.05)
        try:
            await deadlined.result()
            raise SystemExit("deadline did not fire")
        except RequestDeadlineExceeded as error:
            print(
                f"Deadline (50 ms) cancelled the next request after "
                f"{error.partial.tokens_generated} tokens."
            )

    # 4. TTFT / inter-token latency summary over a small concurrent batch.
    engine = pipeline.engine_for("ours")
    async with AsyncServingEngine(engine) as server:
        handles = [await server.submit_text(p, generation) for p in prompts]
        await asyncio.gather(*(h.result() for h in handles))
    print("\nPer-request streaming latencies:")
    print(f"{'request':<10} {'ttft (ms)':>10} {'bursts':>7} {'tokens':>7}")
    for handle in handles:
        metrics = engine.stream_metrics(handle.request_id)
        print(
            f"{handle.request_id:<10} {metrics['ttft_seconds'] * 1e3:>10.1f} "
            f"{len(metrics['commit_events']):>7} "
            f"{sum(n for _, n in metrics['commit_events']):>7}"
        )


def main() -> None:
    smoke = "--smoke" in sys.argv[1:]
    stream = "--stream" in sys.argv[1:]
    if smoke:
        config = PipelineConfig(
            corpus_items=40,
            vocab_size=400,
            model_dim=32,
            num_layers=1,
            num_attention_heads=2,
            num_medusa_heads=4,
            max_seq_len=288,
            epochs=1,
            max_train_seq_len=160,
        )
        num_requests, max_new_tokens = 6, 24
    else:
        config = PipelineConfig(
            corpus_items=160, vocab_size=700, model_dim=64, num_layers=2, num_medusa_heads=8, epochs=4
        )
        num_requests, max_new_tokens = 8, 64

    pipeline = VerilogSpecPipeline(config)
    pipeline.prepare()
    pipeline.train_all()

    if stream:
        asyncio.run(streaming_demo(pipeline, max_new_tokens))
        return

    prompts = [example.prompt_text() for example in pipeline.examples]
    prompts = (prompts * (num_requests // max(len(prompts), 1) + 1))[:num_requests]
    generation = GenerationConfig.greedy_config(max_new_tokens)
    scheduler = SchedulerConfig(max_active_requests=num_requests)

    def serve(engine, texts):
        """Submit every prompt at once and run the engine dry; results in order."""
        request_ids = [engine.submit_text(text, generation) for text in texts]
        completed = engine.run()
        return request_ids, [completed[request_id] for request_id in request_ids]

    print(f"Serving {num_requests} concurrent requests, {max_new_tokens} new tokens each ...")
    header = (
        f"{'method':<8} {'serve req/s':>12} {'seq req/s':>10} {'speedup':>8} "
        f"{'p50 serve':>10} {'p50 seq':>9} {'p95 serve':>10} {'p95 seq':>9} {'identical':>10}"
    )
    print("\n" + header)
    print("-" * len(header))
    all_identical = True
    for method in ("ours", "medusa", "ntp"):
        engine = pipeline.engine_for(method, scheduler_config=scheduler)
        start = time.perf_counter()
        request_ids, served = serve(engine, prompts)
        serve_wall = time.perf_counter() - start
        serve_latencies = [engine.scheduler_latency(request_id) for request_id in request_ids]

        # One after another, all "submitted" at time zero: request i's latency
        # includes decoding requests 0..i-1, the queueing batching removes.
        decoder = pipeline.decoder_for(method)
        sequential, seq_latencies = [], []
        start = time.perf_counter()
        for prompt in prompts:
            sequential.append(decoder.generate_from_text(prompt, generation))
            seq_latencies.append(time.perf_counter() - start)
        seq_wall = seq_latencies[-1]

        identical = [r.token_ids for r in served] == [r.token_ids for r in sequential]
        all_identical = all_identical and identical
        print(
            f"{method:<8} {num_requests / serve_wall:>12.1f} {num_requests / seq_wall:>10.1f} "
            f"{seq_wall / serve_wall:>8.2f} "
            f"{percentile(serve_latencies, 50):>10.3f} {percentile(seq_latencies, 50):>9.3f} "
            f"{percentile(serve_latencies, 95):>10.3f} {percentile(seq_latencies, 95):>9.3f} "
            f"{str(identical):>10}"
        )

    if not all_identical:
        raise SystemExit("serving outputs diverged from sequential generate")
    print(
        "\nAll serving outputs are token-identical to sequential generate; "
        "sequential p95 latency includes FCFS queueing behind earlier requests."
    )

    # Cross-request prefix reuse: N requests behind 2 shared task preambles.
    preambles = [
        "// Task: implement the following Verilog module exactly as specified.\n",
        "// You are a careful hardware engineer; write synthesizable Verilog.\n",
    ]
    shared = [preambles[i % 2] + prompt for i, prompt in enumerate(prompts * 2)]
    reuse_scheduler = SchedulerConfig(max_active_requests=2, max_prefill_tokens_per_step=32)
    # The baseline is the same engine without a prefix cache, so the
    # token-identity check below shows prefix reuse is behaviour-preserving.
    baseline_engine = pipeline.engine_for("ours", scheduler_config=SchedulerConfig(max_active_requests=2))
    _, baseline_results = serve(baseline_engine, shared)
    reuse_engine = pipeline.engine_for(
        "ours", scheduler_config=reuse_scheduler, prefix_cache=PrefixCache(max_tokens=8192)
    )
    _, reuse_results = serve(reuse_engine, shared)
    if [r.token_ids for r in reuse_results] != [r.token_ids for r in baseline_results]:
        raise SystemExit("prefix reuse changed the served outputs")
    baseline_stats = baseline_engine.prefix_cache_stats()
    stats = reuse_engine.prefix_cache_stats()
    # Each preamble spans more than one 16-token KV block, so every request
    # after the first two must reuse retained K/V.
    if stats["prompt_tokens_reused"] == 0:
        raise SystemExit("the prefix cache reused no prompt tokens")
    print(
        f"\nPrefix reuse over {len(shared)} shared-preamble requests: "
        f"{stats['prompt_tokens_prefilled']} prompt tokens prefilled vs "
        f"{baseline_stats['prompt_tokens_prefilled']} without reuse "
        f"(hit rate {stats['hit_rate']:.0%}, prefill savings {stats['prefill_savings']:.0%}); "
        "outputs token-identical."
    )

    # The paged block pool behind the reuse engine: retained preamble pages
    # stay pinned (occupancy), hits alias them instead of copying
    # (prefix_copy_tokens stays 0), and appends into shared blocks trigger
    # copy-on-write.  See docs/kv-memory.md for the full lifecycle.
    pool = reuse_engine.kv_pool_stats()
    baseline_pool = baseline_engine.kv_pool_stats()
    print(
        f"KV block pool ({pool['num_blocks']} blocks x {pool['block_size']} tokens): "
        f"{pool['blocks_in_use']} in use ({pool['occupancy']:.0%} occupancy, "
        f"retained prefixes), {pool['shared_blocks']} shared "
        f"({pool['shared_block_ratio']:.0%} of in-use), "
        f"{pool['cow_events']} copy-on-write copies."
    )
    print(
        f"Zero-copy reuse: {stats['prompt_tokens_reused']} prompt tokens reused, "
        f"{pool['prefix_copy_tokens']} K/V tokens copied doing it; "
        f"peak KV bytes {pool['peak_kv_bytes']:,} with reuse vs "
        f"{baseline_pool['peak_kv_bytes']:,} without."
    )


if __name__ == "__main__":
    main()
