"""Serving throughput measurement: batched engine vs. sequential baseline.

Where :mod:`repro.evalbench.speed` measures single-stream generation speed
(the paper's eq. 3), this module measures the *serving* quantities that matter
once many requests arrive concurrently:

* **requests/sec** — completed requests per wall-clock second;
* **tokens/sec** — aggregate generated tokens per wall-clock second;
* **latency p50/p95** — submission-to-completion latency per request.  For
  the sequential baseline all requests are treated as submitted at once and
  processed FCFS, so request ``i``'s latency includes the time spent decoding
  requests ``0..i-1`` — the queueing delay continuous batching exists to
  remove;
* **TTFT p50/p95** — submission to *first committed token*, the latency a
  streaming client actually perceives (queueing + prefill included);
* **inter-token latency p50/p95** — gaps between committed tokens.  Tokens
  land in per-step bursts, so the gap between consecutive commits is spread
  evenly over the later burst's tokens (the series sums exactly to
  last-commit minus first-commit).

:func:`compare_serving_modes` runs the same prompt set through a
:class:`~repro.serving.ServingEngine` and through sequential
:meth:`~repro.core.decoding.SpeculativeDecoder.generate` calls, checks the
outputs are token-identical, and reports the throughput/latency ratios.
:func:`measure_streaming_throughput` runs the prompts through the
:class:`~repro.serving.server.AsyncServingEngine` front-end instead,
consuming every request's burst stream concurrently — the numbers the
streaming bench tracks.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.decoding import DecodeResult, SpeculativeDecoder
from repro.evalbench.stats import percentile as _percentile
from repro.models.generation import GenerationConfig
from repro.serving.engine_core import ServingEngine
from repro.serving.server import AsyncServingEngine


@dataclass
class ThroughputReport:
    """Aggregate serving statistics for one run over a prompt set.

    Attributes:
        label: Human-readable run label (e.g. ``"ours+serving"``).
        num_requests: Completed request count.
        total_tokens: Generated tokens summed over requests.
        wall_seconds: Wall-clock time from first submission to last
            completion.
        requests_per_second: ``num_requests / wall_seconds``.
        tokens_per_second: ``total_tokens / wall_seconds``.
        mean_latency / p50_latency / p95_latency: Submission-to-completion
            latency statistics in seconds (queueing included).
        prefill_tokens: Prompt tokens actually run through prefill forwards.
        reused_tokens: Prompt tokens served from the cross-request prefix
            cache instead of being prefilled (0 without a prefix cache).
        prefix_hit_rate: Fraction of prefix-cache lookups that reused at
            least one token (0.0 when no prefix cache is attached).
        prefill_savings: ``reused / (reused + prefilled)`` — the fraction of
            prompt positions whose prefill compute was avoided.
        mean_ttft / p50_ttft / p95_ttft: Submission-to-first-token latency
            statistics in seconds (0.0 for runs without commit timelines,
            e.g. the sequential baseline).
        p50_itl / p95_itl: Inter-token latency percentiles in seconds,
            pooled over every request's per-token gap series.
        kv_memory: Engine K/V storage mode (``"paged"`` or ``"row"``; empty
            for the sequential baseline, which has no engine).
        kv_peak_bytes: Peak K/V bytes live at any point in the run —
            the memory-reduction number the paged-vs-row bench asserts on.
        kv_cow_events: Copy-on-write block copies triggered by appends into
            shared blocks (always 0 in row mode).
        kv_shared_block_ratio: Fraction of in-use pool blocks referenced by
            more than one block table at measurement time (paged only).
        kv_prefix_copy_tokens: Prompt-prefix tokens materialised by copying
            K/V rows on cache hits.  Paged engines alias pages instead, so
            this stays 0 there — the zero-copy guarantee the bench pins.
    """

    label: str
    num_requests: int
    total_tokens: int
    wall_seconds: float
    requests_per_second: float
    tokens_per_second: float
    mean_latency: float
    p50_latency: float
    p95_latency: float
    latencies: List[float] = field(default_factory=list)
    prefill_tokens: int = 0
    reused_tokens: int = 0
    prefix_hit_rate: float = 0.0
    prefill_savings: float = 0.0
    mean_ttft: float = 0.0
    p50_ttft: float = 0.0
    p95_ttft: float = 0.0
    p50_itl: float = 0.0
    p95_itl: float = 0.0
    kv_memory: str = ""
    kv_peak_bytes: int = 0
    kv_cow_events: int = 0
    kv_shared_block_ratio: float = 0.0
    kv_prefix_copy_tokens: int = 0

    @classmethod
    def from_latencies(
        cls, label: str, num_requests: int, total_tokens: int, wall_seconds: float, latencies: List[float]
    ) -> "ThroughputReport":
        """Build a report from per-request latencies and the run wall time."""
        return cls(
            label=label,
            num_requests=num_requests,
            total_tokens=total_tokens,
            wall_seconds=wall_seconds,
            requests_per_second=num_requests / wall_seconds if wall_seconds > 0 else 0.0,
            tokens_per_second=total_tokens / wall_seconds if wall_seconds > 0 else 0.0,
            mean_latency=sum(latencies) / len(latencies) if latencies else 0.0,
            p50_latency=_percentile(latencies, 50),
            p95_latency=_percentile(latencies, 95),
            latencies=latencies,
        )

    def attach_stream_latencies(self, ttfts: Sequence[float], inter_token: Sequence[float]) -> None:
        """Fill the TTFT / inter-token percentile columns from raw series."""
        ttfts = [t for t in ttfts if t is not None]
        self.mean_ttft = sum(ttfts) / len(ttfts) if ttfts else 0.0
        self.p50_ttft = _percentile(ttfts, 50)
        self.p95_ttft = _percentile(ttfts, 95)
        self.p50_itl = _percentile(list(inter_token), 50)
        self.p95_itl = _percentile(list(inter_token), 95)

    def to_dict(self) -> dict:
        """Machine-readable summary (benchmark JSON artifacts)."""
        return {
            "label": self.label,
            "num_requests": self.num_requests,
            "total_tokens": self.total_tokens,
            "wall_seconds": self.wall_seconds,
            "requests_per_second": self.requests_per_second,
            "tokens_per_second": self.tokens_per_second,
            "mean_latency": self.mean_latency,
            "p50_latency": self.p50_latency,
            "p95_latency": self.p95_latency,
            "prefill_tokens": self.prefill_tokens,
            "reused_tokens": self.reused_tokens,
            "prefix_hit_rate": self.prefix_hit_rate,
            "prefill_savings": self.prefill_savings,
            "mean_ttft": self.mean_ttft,
            "p50_ttft": self.p50_ttft,
            "p95_ttft": self.p95_ttft,
            "p50_itl": self.p50_itl,
            "p95_itl": self.p95_itl,
            "kv_memory": self.kv_memory,
            "kv_peak_bytes": self.kv_peak_bytes,
            "kv_cow_events": self.kv_cow_events,
            "kv_shared_block_ratio": self.kv_shared_block_ratio,
            "kv_prefix_copy_tokens": self.kv_prefix_copy_tokens,
        }


def measure_serving_throughput(
    engine: ServingEngine,
    prompts: Sequence[str],
    config: Optional[GenerationConfig] = None,
    label: str = "serving",
) -> Tuple[ThroughputReport, List[DecodeResult]]:
    """Submit every prompt to ``engine`` at once, run to completion, and measure.

    Args:
        engine: A fresh engine (no in-flight requests).
        prompts: Prompt texts; each becomes one request.
        config: Decoding configuration shared by all requests (defaults to
            greedy); per-request configs are an engine feature, not needed
            for the benchmark comparison.
        label: Report label.

    Returns:
        ``(report, results)`` with ``results`` in prompt order.
    """
    config = config or GenerationConfig.greedy_config()
    start = time.perf_counter()
    request_ids = [engine.submit_text(prompt, config) for prompt in prompts]
    completed = engine.run()
    wall = time.perf_counter() - start
    results = [completed[request_id] for request_id in request_ids]
    latencies = [engine.scheduler_latency(request_id) for request_id in request_ids]
    total_tokens = sum(result.tokens_generated for result in results)
    report = ThroughputReport.from_latencies(label, len(results), total_tokens, wall, latencies)
    _finalize_engine_report(report, engine, request_ids)
    return report, results


def _finalize_engine_report(
    report: ThroughputReport, engine: ServingEngine, request_ids: Sequence[str]
) -> None:
    """Fill the engine-derived columns: prefix-reuse stats and TTFT/ITL series.

    Shared by the batch and streaming harnesses so a new report column only
    has to be wired up once.
    """
    cache_stats = engine.prefix_cache_stats()
    report.prefill_tokens = cache_stats["prompt_tokens_prefilled"]
    report.reused_tokens = cache_stats["prompt_tokens_reused"]
    report.prefix_hit_rate = cache_stats["hit_rate"]
    report.prefill_savings = cache_stats["prefill_savings"]
    pool_stats = engine.kv_pool_stats()
    report.kv_memory = pool_stats["kv_memory"]
    report.kv_peak_bytes = pool_stats["peak_kv_bytes"]
    report.kv_cow_events = pool_stats["cow_events"]
    report.kv_shared_block_ratio = pool_stats["shared_block_ratio"] or 0.0
    report.kv_prefix_copy_tokens = pool_stats["prefix_copy_tokens"]
    ttfts: List[float] = []
    inter_token: List[float] = []
    for request_id in request_ids:
        metrics = engine.stream_metrics(request_id)
        if metrics["ttft_seconds"] is not None:
            ttfts.append(metrics["ttft_seconds"])
        inter_token.extend(metrics["inter_token_seconds"])
    report.attach_stream_latencies(ttfts, inter_token)


def measure_streaming_throughput(
    engine: ServingEngine,
    prompts: Sequence[str],
    config: Optional[GenerationConfig] = None,
    label: str = "streaming",
) -> Tuple[ThroughputReport, List[DecodeResult], List[List[int]]]:
    """Serve every prompt through the async streaming front-end and measure.

    Wraps ``engine`` in an :class:`~repro.serving.server.AsyncServingEngine`,
    submits all prompts, and consumes every request's burst stream
    concurrently — the closest in-process analogue of N streaming clients.
    TTFT / inter-token percentiles come from the engine-side commit
    timelines, so they are comparable with :func:`measure_serving_throughput`
    runs of the same engine configuration.

    Args:
        engine: A fresh engine (no in-flight requests; the async front-end
            owns its step loop for the duration).
        prompts: Prompt texts; each becomes one streamed request.
        config: Decoding configuration shared by all requests.
        label: Report label.

    Returns:
        ``(report, results, streamed)`` with ``results`` in prompt order and
        ``streamed[i]`` the concatenation of request ``i``'s bursts — always
        identical to ``results[i].token_ids`` (the streaming guarantee; the
        benches assert it).
    """
    config = config or GenerationConfig.greedy_config()

    async def _run():
        streamed: List[List[int]] = [[] for _ in prompts]
        server = AsyncServingEngine(engine)
        # Submit everything *before* the step thread starts: every request is
        # queued when stepping begins, so admission-round composition (and
        # therefore TTFT) reflects the scheduler configuration rather than
        # the race between the submitting loop and the polling step thread.
        handles = [await server.submit_text(prompt, config) for prompt in prompts]
        start = time.perf_counter()
        server.start()
        try:

            async def consume(index: int, handle) -> DecodeResult:
                async for burst in handle.stream():
                    streamed[index].extend(burst)
                return await handle.result()

            results = list(
                await asyncio.gather(*(consume(i, handle) for i, handle in enumerate(handles)))
            )
            wall = time.perf_counter() - start
        finally:
            await server.close()
        return handles, results, streamed, wall

    handles, results, streamed, wall = asyncio.run(_run())
    request_ids = [handle.request_id for handle in handles]
    latencies = [engine.scheduler_latency(request_id) for request_id in request_ids]
    total_tokens = sum(result.tokens_generated for result in results)
    report = ThroughputReport.from_latencies(label, len(results), total_tokens, wall, latencies)
    _finalize_engine_report(report, engine, request_ids)
    return report, results, streamed


def measure_sequential_throughput(
    decoder: SpeculativeDecoder,
    prompts: Sequence[str],
    config: Optional[GenerationConfig] = None,
    label: str = "sequential",
) -> Tuple[ThroughputReport, List[DecodeResult]]:
    """Decode the prompts one after another, as a serverless baseline would.

    All prompts are considered submitted at time zero, so request ``i``'s
    latency is the cumulative wall time through the end of its own decode —
    the FCFS queueing delay a single-stream server imposes.
    """
    config = config or GenerationConfig.greedy_config()
    results: List[DecodeResult] = []
    latencies: List[float] = []
    start = time.perf_counter()
    for prompt in prompts:
        results.append(decoder.generate_from_text(prompt, config))
        latencies.append(time.perf_counter() - start)
    wall = time.perf_counter() - start
    total_tokens = sum(result.tokens_generated for result in results)
    report = ThroughputReport.from_latencies(label, len(results), total_tokens, wall, latencies)
    return report, results


@dataclass
class ServingComparison:
    """Batched serving vs. sequential decoding on the same prompts."""

    serving: ThroughputReport
    sequential: ThroughputReport
    #: True when the engine committed exactly the token sequence sequential
    #: ``generate`` commits for every prompt — the engine's core guarantee.
    tokens_identical: bool

    @property
    def throughput_speedup(self) -> float:
        """Serving requests/sec over sequential requests/sec."""
        if self.sequential.requests_per_second <= 0:
            return 0.0
        return self.serving.requests_per_second / self.sequential.requests_per_second

    @property
    def p95_latency_ratio(self) -> float:
        """Sequential p95 latency over serving p95 latency (higher is better)."""
        if self.serving.p95_latency <= 0:
            return 0.0
        return self.sequential.p95_latency / self.serving.p95_latency

    def to_dict(self) -> dict:
        return {
            "serving": self.serving.to_dict(),
            "sequential": self.sequential.to_dict(),
            "throughput_speedup": self.throughput_speedup,
            "p95_latency_ratio": self.p95_latency_ratio,
            "tokens_identical": self.tokens_identical,
        }


def compare_serving_modes(
    engine: ServingEngine,
    decoder: SpeculativeDecoder,
    prompts: Sequence[str],
    config: Optional[GenerationConfig] = None,
    label: str = "",
) -> ServingComparison:
    """Measure the same prompts through the engine and sequentially.

    ``engine`` and ``decoder`` must wrap the same model and strategy; the
    comparison verifies the two commit identical token sequences and reports
    the throughput and tail-latency ratios.
    """
    serving_report, serving_results = measure_serving_throughput(
        engine, prompts, config, label=f"{label}+serving" if label else "serving"
    )
    sequential_report, sequential_results = measure_sequential_throughput(
        decoder, prompts, config, label=f"{label}-sequential" if label else "sequential"
    )
    tokens_identical = all(
        s.token_ids == q.token_ids for s, q in zip(serving_results, sequential_results)
    )
    return ServingComparison(
        serving=serving_report, sequential=sequential_report, tokens_identical=tokens_identical
    )


__all__ = [
    "ServingComparison",
    "ThroughputReport",
    "compare_serving_modes",
    "measure_sequential_throughput",
    "measure_serving_throughput",
    "measure_streaming_throughput",
]
