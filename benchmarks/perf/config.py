"""Frozen definition of the repo benchmark: pipeline config, workloads, metrics.

Everything a later performance claim refers to by name lives here, and
``BENCHMARK.json`` at the repo root is this file rendered as JSON
(``run.py check`` fails when the two disagree).  The pipeline configuration is
a literal copy of the default-size bench config, deliberately **not** imported
from ``benchmarks/conftest.py``: a change there must not silently move the
baseline every later PR is judged against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: ``PipelineConfig`` keyword arguments of the benchmark model.
BENCH_PIPELINE: Dict[str, object] = {
    "corpus_items": 160,
    "corpus_seed": 0,
    "vocab_size": 700,
    "architecture": "decoder-only",
    "model_dim": 48,
    "num_layers": 2,
    "num_attention_heads": 4,
    "num_medusa_heads": 8,
    "max_seq_len": 384,
    "model_seed": 0,
    "epochs": 3,
    "max_train_seq_len": 256,
}

#: ``--quick`` model: trains in a couple of seconds; its heads barely
#: speculate, so quick results are labelled non-comparable.
QUICK_PIPELINE: Dict[str, object] = {
    **BENCH_PIPELINE,
    "corpus_items": 40,
    "vocab_size": 450,
    "model_dim": 32,
    "num_layers": 1,
    "num_medusa_heads": 4,
    "epochs": 1,
    "max_train_seq_len": 160,
}

METHODS: Tuple[str, ...] = ("ours", "medusa", "ntp")

#: Seconds the driver measures one run for (``BENCHMARK.json: run_seconds``).
RUN_SECONDS = 16

#: Set-ups timed per run; ``setup_s`` takes their median.
SETUP_REPS = 3

#: End-to-end metrics whose spread over seeds is not tested, here as by the driver: half of
#: ``setup_s`` is the process's one import, which no run can repeat.
SPREAD_NOT_TESTED: Tuple[str, ...] = ("setup_s",)

#: Times the once-per-checkout build prepares the data and trains each method;
#: ``data.prepare_s`` and ``models.train_s.*`` are the medians.
BUILD_REPS = 3


@dataclass(frozen=True)
class Sizes:
    """How much work one pass of each workload holds."""

    problems: Optional[int]  # None = all 46 RTLLM + VGen problems
    max_new_tokens: int
    serve_requests: int
    serve_clients: int
    identity_subset: int  # engine-vs-sequential token-identity check
    check_prefill_savings: bool  # the serve workloads' validity thresholds need full-size traces
    overload_requests: int
    samples_per_prompt: int
    batch_candidates: int
    scalar_candidates: int
    router_probe_requests: int


FULL_SIZES = Sizes(
    problems=None,
    max_new_tokens=110,
    serve_requests=1200,
    serve_clients=8,
    identity_subset=8,
    check_prefill_savings=True,
    overload_requests=1500,
    samples_per_prompt=4,
    batch_candidates=12,
    scalar_candidates=3,
    router_probe_requests=200,
)

QUICK_SIZES = Sizes(
    problems=5,
    max_new_tokens=32,
    serve_requests=24,
    serve_clients=4,
    identity_subset=3,
    check_prefill_savings=False,
    overload_requests=40,
    samples_per_prompt=2,
    batch_candidates=4,
    scalar_candidates=2,
    router_probe_requests=6,
)

#: Virtual-time SLO of the overload workload: a request is *good* when its
#: first token lands within this many virtual seconds of its arrival.
OVERLOAD_TTFT_SLO = 0.5


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: Optional[float] = None  # end-to-end only; None = per-layer
    note: str = ""


# --------------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------------- #

WORKLOADS: Dict[str, str] = {
    "table2_decode": (
        "Paper Table II offline single-stream decode of 46 prompts (greedy and T=0.8), ours vs ntp interleaved: "
        "nn, models and core do all the work; scheduler, prefix cache, grammar mask and simulator none."
    ),
    "serve_shared": (
        "Closed loop, 8 clients, paged engine, two long shared preambles that fit the 4096-token prefix cache: "
        "prefix lookup/alias (KV reads), chunked prefill and batched verification dominate."
    ),
    "serve_unique": (
        "Same engine, driver and length mix, but each request has its own preamble, many times the cache: inserts, "
        "LRU evictions, fresh blocks, full prefill (KV writes); a prefix-reuse gain predicts no change."
    ),
    "overload_simclock": (
        "Open loop Poisson 16 req/s over a 2-slot engine with SLO admission on a simulated clock: the only place "
        "queueing, shedding and priority aging matter; results are a pure function of the trace."
    ),
    "passk_constrained": (
        "The evaluator's pass@k loop, 4 grammar-constrained samples per problem, generated, syntax-checked, graded: "
        "exercises the grammar mask and the parser, which table2_decode bypasses."
    ),
    "grade_sweep": (
        "No model: reference, operator mutants and a truncated source per problem through batch and per-design "
        "compiled simulation: sim and verilog do all the work and decode none."
    ),
}

# --------------------------------------------------------------------------- #
# End-to-end metrics — the same five on every workload (the driver requires
# every end-to-end metric from every run); what *rate* and *op* mean on each
# workload is fixed in WORKLOAD_SEMANTICS below and in the README.
# --------------------------------------------------------------------------- #

END_TO_END: Tuple[Metric, ...] = (
    Metric("rate_per_s", "1/s", "higher", 0.20, "work items completed per machine second"),
    Metric("op_p75_ms", "ms", "lower", 0.20, "the wait three operations in four stay within"),
    Metric("peak_rss_mb", "MB", "lower", 0.05, "ru_maxrss at exit"),
    Metric("setup_s", "s", "lower", 0.25, "imports + load trained pipeline + build inputs and program objects"),
)

#: workload -> (work item of rate_per_s, operation of op_p75_ms)
WORKLOAD_SEMANTICS: Dict[str, Tuple[str, str]] = {
    "table2_decode": (
        "output tokens of method ours per decode second (eq. 3: mean over outputs, prefill excluded)",
        "one ours generate_from_text call, tokenisation and prefill included",
    ),
    "serve_shared": ("committed output tokens, first submit to last finish", "time to first token of one request"),
    "serve_unique": ("committed output tokens, first submit to last finish", "time to first token of one request"),
    "overload_simclock": (
        "requests whose virtual TTFT met the 0.5 s limit, per virtual second (shed or expired = miss)",
        "virtual time to first token of one served interactive request",
    ),
    "passk_constrained": (
        "samples generated + syntax-checked + graded",
        "one problem evaluated (all its samples generated and graded)",
    ),
    "grade_sweep": (
        "designs through check_design_compiles + batched check_designs_functional",
        "one design through scalar check_design_functional",
    ),
}

# --------------------------------------------------------------------------- #
# Workload-specific headline numbers.  They cannot be driver-gated (not every
# workload has them), so they are emitted as per-layer metrics and gated by
# ``run.py compare`` with the bounds below.  ``0.0`` marks an exact count.
# --------------------------------------------------------------------------- #

DETAIL_BOUNDS: Dict[str, Tuple[Tuple[str, ...], float]] = {
    "decode.ours_tok_s": (("table2_decode",), 0.20),
    "decode.ntp_tok_s": (("table2_decode",), 0.20),
    "decode.ours_speedup": (("table2_decode",), 0.10),
    "decode.ours_tokens_per_step": (("table2_decode",), 0.0),
    "serving.tok_s": (("serve_shared", "serve_unique"), 0.20),
    "serving.ttft_p50_s": (("serve_shared", "serve_unique"), 0.20),
    "serving.ttft_p90_s": (("serve_shared", "serve_unique"), 0.20),
    "nn.kv.peak_bytes": (("serve_shared", "serve_unique"), 0.0),
    "traffic.vt_ttft_p95_s": (("overload_simclock",), 0.0),
    "traffic.vt_goodput_share": (("overload_simclock",), 0.0),
    "evalbench.samples_s": (("passk_constrained",), 0.20),
    "evalbench.parse_pass_rate": (("passk_constrained",), 0.0),
    "sim.batch_designs_s": (("grade_sweep",), 0.20),
    "sim.scalar_designs_s": (("grade_sweep",), 0.20),
    # The build's cost, measured once per checkout: every run that loads the model reports the same
    # values, so they are judged on one workload.  One value a side, so nothing averages out: two
    # builds of one commit differed by up to 10 %.
    "models.train_s.ours": (("table2_decode",), 0.25),
    "models.train_s.medusa": (("table2_decode",), 0.25),
    "models.train_s.ntp": (("table2_decode",), 0.25),
}

PER_LAYER: Tuple[Metric, ...] = (
    # The median and the 90th percentile of the series op_p75_ms is the 75th of.  Neither repeats on every
    # workload: on serve_shared the median falls in the gap between requests served in one engine step and
    # in two (10 % spread over ten seeds); under overload virtual p90 jumps between a few values (15 %).
    Metric("op_p50_ms", "ms", "lower"),
    Metric("op_p90_ms", "ms", "lower"),
    Metric("decode.ours_tok_s", "tok/s", "higher", note="eq. 3, method ours"),
    Metric("decode.ntp_tok_s", "tok/s", "higher", note="eq. 3, method ntp"),
    Metric("decode.ours_speedup", "ratio", "higher", note="eq. 4: ours_tok_s / ntp_tok_s, same pass"),
    Metric("decode.ours_tokens_per_step", "tok/step", "higher", note="exact count (Fig. 5)"),
    Metric("serving.tok_s", "tok/s", "higher"),
    Metric("serving.ttft_p50_s", "s", "lower"),
    Metric("serving.ttft_p90_s", "s", "lower"),
    Metric("serving.ttft_p99_s", "s", "lower", note="12 of 1200 samples beyond it; did not repeat, so never gated"),
    Metric("nn.kv.peak_bytes", "bytes", "lower", note="kv_pool_stats()['peak_kv_bytes'], exact"),
    Metric("traffic.vt_ttft_p95_s", "s", "lower", note="virtual seconds, interactive class"),
    Metric("traffic.vt_goodput_share", "share", "higher"),
    Metric("evalbench.samples_s", "1/s", "higher"),
    Metric("evalbench.parse_pass_rate", "share", "higher", note="1.0 by construction"),
    Metric("sim.batch_designs_s", "1/s", "higher"),
    Metric("sim.scalar_designs_s", "1/s", "higher"),
    # tokenizer
    Metric("tokenizer.encode_s", "s", "lower"),
    Metric("tokenizer.decode_s", "s", "lower"),
    # nn
    Metric("nn.forward_s", "s", "lower", note="self time of MedusaLM.forward / forward_hidden"),
    Metric("nn.forward_calls", "count", "lower"),
    Metric("nn.positions", "count", "lower", note="sum of batch x width over forwards"),
    Metric("nn.us_per_position", "us", "lower"),
    Metric("nn.kv.append_s", "s", "lower", note="PagedLayerKV / LayerKVCache append, gather included"),
    Metric("nn.kv.reshape_s", "s", "lower", note="select / repeat / truncate / compact / concat / keep ops"),
    Metric("nn.kv.gather_bytes", "bytes", "lower", note="computed from the sizes of the arrays append returns"),
    Metric("nn.kv.blocks_peak", "count", "lower"),
    Metric("nn.kv.cow_events", "count", "lower"),
    Metric("nn.kv.reserved_over_used", "ratio", "lower", note="mean over steps of reserved KV tokens / tokens in use"),
    Metric("nn.kv.prefix_copy_tokens", "count", "lower"),
    # models
    Metric("models.head_eval_s", "s", "lower", note="MedusaLM.head_logits_at"),
    Metric("models.head_eval_calls", "count", "lower", note="calls that evaluated at least one head"),
    Metric("models.head_eval_calls.ntp", "count", "lower", note="the same inside ntp generations: must be 0"),
    Metric("models.train_s.ours", "s", "lower", note="median of BUILD_REPS trainings when this checkout built its model cache"),
    Metric("models.train_s.medusa", "s", "lower"),
    Metric("models.train_s.ntp", "s", "lower"),
    # core
    Metric("core.steps", "count", "lower"),
    Metric("core.tokens_proposed", "count", "lower"),
    Metric("core.tokens_verified", "count", "lower"),
    Metric("core.tokens_accepted", "count", "higher"),
    Metric("core.accept_ratio", "ratio", "higher", note="accepted / proposed"),
    Metric("core.boundary_stop_share", "share", "higher", note="steps ending at a fragment boundary"),
    Metric("core.propose_s", "s", "lower"),
    Metric("core.select_s", "s", "lower"),
    Metric("core.tree_s", "s", "lower"),
    Metric("core.prefill_s", "s", "lower"),
    Metric("core.medusa_tok_s", "tok/s", "higher", note="eq. 3 for method medusa, probed in the traced run only"),
    # constrained
    Metric("constrained.mask_s", "s", "lower", note="SyntaxMaskState.allows / allowed_token_ids / advance"),
    Metric("constrained.mask_calls", "count", "lower"),
    Metric("constrained.classify_s", "s", "lower", note="classify_prefix"),
    Metric("constrained.classify_calls", "count", "lower"),
    Metric("constrained.pruned_ratio", "ratio", "higher", note="1 - verified / verified_unpruned"),
    Metric("constrained.closure_tokens", "count", "lower"),
    # serving
    Metric("serving.step_p50_s", "s", "lower"),
    Metric("serving.steps", "count", "lower"),
    Metric("serving.batch_mean", "count", "higher"),
    Metric("serving.queue_wait_p50_s", "s", "lower", note="admission time - submission time"),
    Metric("serving.admit_s", "s", "lower", note="Scheduler.admit"),
    Metric("serving.prefill_tokens", "count", "lower"),
    Metric("serving.reused_tokens", "count", "higher"),
    Metric("serving.prefill_savings", "share", "higher", note="reused / prompt tokens; tells shared from unique"),
    Metric("serving.prefix_hit_rate", "share", "higher", note="0.97+ on both serve workloads (template header)"),
    Metric("serving.prefix_lookup_s", "s", "lower"),
    Metric("serving.prefix_insert_s", "s", "lower"),
    Metric("serving.prefix_evictions", "count", "lower"),
    Metric("serving.itl_p50_s", "s", "lower"),
    Metric("serving.itl_p99_s", "s", "lower"),
    Metric("serving.router.ttft_overhead_s", "s", "lower", note="Router(num_workers=1) p50 TTFT minus in-process"),
    Metric("serving.messages.codec_us", "us", "lower", note="config + result encode/decode round trip"),
    # traffic
    Metric("traffic.decide_s", "s", "lower", note="AdmissionController.decide"),
    Metric("traffic.shed", "count", "lower"),
    Metric("traffic.deferred_attempts", "count", "lower"),
    Metric("traffic.breaches", "count", "lower"),
    Metric("traffic.steps_per_host_s", "1/s", "higher", note="engine steps per wall second of replay"),
    # verilog
    Metric("verilog.parse_s", "s", "lower", note="check_syntax / parse_source"),
    Metric("verilog.parse_calls", "count", "lower"),
    # sim
    Metric("sim.build_s", "s", "lower", note="CompiledSimulator(...): parse + elaborate + lower"),
    Metric("sim.run_s", "s", "lower"),
    Metric("sim.events", "count", "lower"),
    Metric("sim.events_s", "1/s", "higher", note="host events per second of sim.run_s"),
    Metric("sim.batch_s", "s", "lower", note="simulate_batch"),
    Metric("sim.batch_vectorized_share", "share", "higher"),
    Metric("sim.batch_fallbacks", "count", "lower"),
    Metric("sim.self_share", "share", "higher", note="sim.* self time / traced wall"),
    # evalbench
    Metric("evalbench.generate_s", "s", "lower"),
    Metric("evalbench.syntax_check_s", "s", "lower"),
    Metric("evalbench.grade_s", "s", "lower"),
    Metric("evalbench.syntax_pass_rate", "share", "higher"),
    Metric("evalbench.function_pass_rate", "share", "higher", note="0.0 at this model size; cannot gate"),
    # harness
    Metric("data.prepare_s", "s", "lower", note="corpus + tokenizer (VerilogSpecPipeline.prepare), measured by the build"),
    Metric("machine.factor", "ratio", "lower", note="median machine factor of the untraced passes (1 = nominal)"),
    Metric("trace.overhead_ratio", "ratio", "lower", note="traced pass / untraced pass"),
)
