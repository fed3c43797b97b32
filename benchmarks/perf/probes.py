"""Side measurements a traced run adds: numbers with no workload of their own.

* ``core.medusa_tok_s`` (``table2_decode``): the Medusa baseline decoded over
  the same prompts.  It is the paper's third row, but no later claim is
  judged on it, so it does not spend every untraced run's time.
* ``serving.router.ttft_overhead_s`` and ``serving.messages.codec_us``
  (``serve_shared``): what one worker process behind a ``Router`` adds to
  time to first token, and the cost of the message codecs.  There is no
  fleet *workload*: three processes on two shared cores would gate later PRs
  on host scheduler noise (see README).
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path
from typing import Any, Dict, Sequence

from repro.serving import Router, RouterConfig, SchedulerConfig
from repro.serving.messages import decode_config, decode_result, encode_config, encode_result

from timing import MachineGauge


def medusa_tok_s(workload: Any, gauge: MachineGauge) -> float:
    """Eq. 3 for method ``medusa`` over the workload's prompts and decoding configs (machine seconds)."""
    decoder = workload.pipeline.decoder_for("medusa")
    starts, decode_wall, tokens = [], [], []
    for _, method, prompt, generation in workload.units:
        if method != "ours":  # one generation per (prompt, mode), not one per method
            continue
        starts.append(time.perf_counter())
        result = decoder.generate_from_text(prompt, generation)
        gauge.tick()
        decode_wall.append(result.decode_seconds)
        tokens.append(result.tokens_generated)
    gauge.sample()
    seconds = gauge.machine_seconds(starts, decode_wall)
    return statistics.mean(count / spent for count, spent in zip(tokens, seconds) if count and spent > 0)


def router_ttft_overhead_s(workload: Any, pipeline_path: Path, in_process_p50: float) -> float:
    """p50 TTFT of the first requests through ``Router(num_workers=1)`` minus the in-process p50 (wall seconds)."""
    count = min(workload.sizes.router_probe_requests, len(workload.prompt_ids))
    router = Router(
        "repro.serving.worker:engine_from_pipeline",
        {
            "pipeline_path": str(pipeline_path),
            "method": "ours",
            "scheduler_config": SchedulerConfig(max_prefill_tokens_per_step=64),
            "prefix_cache_tokens": 4096,
        },
        RouterConfig(num_workers=1),
    )
    # Leaving the block shuts the worker process down and joins it, also when a request fails.
    with router:
        requests = workload.trace.requests[:count]
        submitted = 0
        deadline = time.perf_counter() + 120.0
        finished = lambda: sum(  # noqa: E731
            1 for r in requests[:submitted] if router.request_record(r.request_id).finished_at is not None
        )
        while finished() < count:
            if time.perf_counter() > deadline:
                raise RuntimeError("router probe did not finish within 120 s")
            while submitted < count and submitted - finished() < workload.sizes.serve_clients:
                router.submit(
                    workload.prompt_ids[submitted], workload.configs[submitted], request_id=requests[submitted].request_id
                )
                submitted += 1
            router.poll()
            time.sleep(router.config.poll_interval)  # the worker needs the core more than this loop does
        records = [router.request_record(r.request_id) for r in requests]
    waits = [record.first_token_at - record.submitted_at for record in records if record.first_token_at is not None]
    return statistics.median(waits) - in_process_p50


def codec_round_trip_us(workload: Any, results: Sequence[Any]) -> float:
    """Mean microseconds to encode and decode one request's config plus its result."""
    start = time.perf_counter()
    for generation, result in zip(workload.configs, results):
        decode_config(encode_config(generation))
        decode_result(encode_result(result))
    return 1e6 * (time.perf_counter() - start) / len(results)


def run_probes(workload: Any, gauge: MachineGauge, untraced: Sequence[Any], pipeline_path: Path) -> Dict[str, float]:
    if workload.name == "table2_decode":
        return {"core.medusa_tok_s": medusa_tok_s(workload, gauge)}
    if workload.name == "serve_shared":
        first = untraced[0]
        # The router's clock is the wall, so the baseline is the first pass's wall timeline, same requests.
        count = min(workload.sizes.router_probe_requests, len(workload.prompt_ids))
        in_process = statistics.median(workload.ttft(first.raw, first)[:count])
        return {
            "serving.router.ttft_overhead_s": router_ttft_overhead_s(workload, pipeline_path, in_process),
            "serving.messages.codec_us": codec_round_trip_us(workload, first.extra["results"]),
        }
    return {}
