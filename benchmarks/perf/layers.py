"""Which callables a traced run wraps, and how spans become per-layer metrics.

One span name per layer boundary, named after the module that owns it.  The
same set is installed for every workload, so a layer a workload bypasses
reads exactly 0 — which is how the traced runs show that the workloads
discriminate (``sim.*`` is 0 in ``table2_decode``, ``constrained.mask_calls``
is non-zero only in ``passk_constrained``).

Functions imported by name (``from x import f``) are bound in the importing
module's namespace, so they are wrapped there, at the call site's module.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence

import repro.constrained.mask as constrained_mask
import repro.constrained.viability as constrained_viability
import repro.core.decoding as core_decoding
import repro.evalbench.functional as evalbench_functional
import repro.evalbench.runner as evalbench_runner
import repro.evalbench.syntax_eval as evalbench_syntax
import repro.serving.engine_core as serving_engine_core
import repro.sim.testbench as sim_testbench
import repro.verilog.syntax as verilog_syntax
from repro.constrained.mask import SyntaxMaskState
from repro.core.decoding import SpeculativeDecoder
from repro.core.token_tree import TokenTree
from repro.evalbench.runner import EvaluationRunner
from repro.models.medusa import MedusaLM
from repro.nn.kv_cache import KVCache, LayerKVCache
from repro.nn.kv_pool import PagedKVCache, PagedLayerKV
from repro.serving.prefix_cache import PrefixCache
from repro.serving.scheduler import Scheduler
from repro.sim.compiled import BatchReport, CompiledSimulator
from repro.sim.simulator import Simulator
from repro.tokenizer.bpe import BPETokenizer
from repro.traffic.admission import AdmissionController

from spans import SpanRecorder

_PAGED_RESHAPE = ("select_rows", "repeat_rows", "truncate_rows", "compact_rows", "compact_paths", "concat")
_ROW_RESHAPE = _PAGED_RESHAPE + ("expand_batch", "keep_row", "keep_path", "truncate")


def _count_positions(recorder: SpanRecorder, args: tuple, kwargs: dict, result: Any) -> None:
    input_ids = args[1] if len(args) > 1 else kwargs["input_ids"]
    recorder.count("nn.positions", getattr(input_ids, "size", len(input_ids)))


def _count_head_evals(recorder: SpanRecorder, args: tuple, kwargs: dict, result: Any) -> None:
    # A model without Medusa heads (the ntp twin) is still asked, and evaluates none.
    if result:
        recorder.count("models.head_eval_calls")
        if (recorder.request or "").endswith("/ntp"):
            recorder.count("models.head_eval_calls.ntp")


def _count_gather(recorder: SpanRecorder, args: tuple, kwargs: dict, result: Any) -> None:
    keys, values = result
    recorder.count("nn.kv.gather_bytes", keys.nbytes + values.nbytes)


def _count_events(recorder: SpanRecorder, args: tuple, kwargs: dict, result: Any) -> None:
    recorder.count("sim.events", args[0].event_count)


def decode_counts(results: Sequence[Any], factor: float) -> Dict[str, float]:
    """core.* / constrained.* counters from DecodeResult.step_records; ``factor`` is the machine factor of
    the pass the results come from (the decoder's own prefill seconds become machine seconds)."""
    records = [record for result in results for record in result.step_records]
    proposed = sum(record.proposed for record in records)
    accepted = sum(record.accepted for record in records)
    verified = sum(result.tokens_verified for result in results)
    unpruned = sum(result.tokens_verified_unpruned for result in results)
    return {
        "core.steps": len(records),
        "core.tokens_proposed": proposed,
        "core.tokens_verified": verified,
        "core.tokens_accepted": accepted,
        "core.accept_ratio": accepted / proposed if proposed else 0.0,
        "core.boundary_stop_share": (sum(1 for r in records if r.ends_at_boundary) / len(records)) if records else 0.0,
        "core.prefill_s": sum(result.prefill_seconds for result in results) / factor,
        "constrained.pruned_ratio": 1.0 - verified / unpruned if unpruned else 0.0,
        "constrained.closure_tokens": sum(result.closure_tokens for result in results),
    }


class LayerTracer:
    """A span recorder plus the two things spans alone cannot carry."""

    def __init__(self) -> None:
        self.recorder = SpanRecorder()
        #: Request states Scheduler.admit returned, for serving.queue_wait_p50_s.
        self.admitted: List[Any] = []
        #: What SpeculativeDecoder.generate returned, for the core.* counters.
        self.decoded: List[Any] = []
        self.batch_report = BatchReport()

    def _note_admitted(self, recorder: SpanRecorder, args: tuple, kwargs: dict, result: Any) -> None:
        self.admitted.extend(result)

    def _note_decoded(self, recorder: SpanRecorder, args: tuple, kwargs: dict, result: Any) -> None:
        self.decoded.append(result)

    def install(self) -> None:
        """Wrap every layer boundary the benchmark reports on."""
        _install(self.recorder.traced, self._note_admitted, self.batch_report)
        self.recorder.traced(SpeculativeDecoder, "generate", "core.generate", self._note_decoded)

    def metrics(self, traced_wall: float, factor: float) -> Dict[str, float]:
        """Per-layer metrics of the traced pass: self times in machine seconds, call counts, ratios."""
        metrics = _span_metrics(self.recorder, traced_wall, factor)
        if self.decoded:
            metrics.update(decode_counts(self.decoded, factor))
        report = self.batch_report
        dispatched = report.vectorized + report.fallback
        metrics["sim.batch_vectorized_share"] = report.vectorized / dispatched if dispatched else 0.0
        metrics["sim.batch_fallbacks"] = report.fallback
        # The engine stamps started_at right after admit returns, from the clock submitted_at came from.
        waits = sorted(state.started_at - state.submitted_at for state in self.admitted)
        metrics["serving.queue_wait_p50_s"] = waits[len(waits) // 2] / factor if waits else 0.0
        return metrics


def _install(traced: Callable[..., None], note_admitted: Callable[..., None], batch_report: BatchReport) -> None:
    traced(BPETokenizer, "encode", "tokenizer.encode")
    traced(BPETokenizer, "decode", "tokenizer.decode")

    traced(MedusaLM, "forward", "nn.forward", _count_positions)
    traced(MedusaLM, "forward_hidden", "nn.forward", _count_positions)
    traced(MedusaLM, "head_logits_at", "models.head_eval", _count_head_evals)
    traced(PagedLayerKV, "append", "nn.kv.append", _count_gather)
    traced(LayerKVCache, "append", "nn.kv.append", _count_gather)
    for op in _PAGED_RESHAPE:
        traced(PagedKVCache, op, "nn.kv.reshape")
    for op in _ROW_RESHAPE:
        traced(KVCache, op, "nn.kv.reshape")

    for module in (core_decoding, serving_engine_core):
        traced(module, "propose_candidates", "core.propose")
        traced(module, "select_best_candidate", "core.select")
    traced(TokenTree, "from_candidates", "core.tree")

    for method in ("allows", "allowed_token_ids", "advance"):
        traced(SyntaxMaskState, method, "constrained.mask")
    for module in (constrained_mask, constrained_viability):
        traced(module, "classify_prefix", "constrained.classify")

    traced(Scheduler, "admit", "serving.admit", note_admitted)
    traced(PrefixCache, "lookup", "serving.prefix_lookup")
    traced(PrefixCache, "insert", "serving.prefix_insert")
    traced(AdmissionController, "decide", "traffic.decide")

    # Stand-alone syntax checks only: the parse inside a simulator's
    # constructor is part of sim.build (parse + elaborate + lower).
    for module in (verilog_syntax, evalbench_syntax, sim_testbench):
        traced(module, "check_syntax", "verilog.parse")

    traced(Simulator, "__init__", "sim.build")
    traced(CompiledSimulator, "__init__", "sim.build")
    traced(Simulator, "run", "sim.run", _count_events)
    # simulate_batch says how it dispatched its candidates only through an
    # out-parameter run_testbench_batch does not pass, so the wrapper supplies one.
    traced(sim_testbench, "simulate_batch", "sim.batch", extra_kwargs={"report": batch_report})

    traced(EvaluationRunner, "generate_results", "evalbench.generate")
    for module in (evalbench_runner, evalbench_syntax):
        traced(module, "check_design_compiles", "evalbench.syntax_check")
    for module in (evalbench_runner, evalbench_functional):
        traced(module, "check_designs_functional", "evalbench.grade")
    traced(evalbench_functional, "check_design_functional", "evalbench.grade")


#: per-layer metric -> (span name, "self" | "calls")
_SPAN_METRICS = {
    "tokenizer.encode_s": ("tokenizer.encode", "self"),
    "tokenizer.decode_s": ("tokenizer.decode", "self"),
    "nn.forward_s": ("nn.forward", "self"),
    "nn.forward_calls": ("nn.forward", "calls"),
    "nn.kv.append_s": ("nn.kv.append", "self"),
    "nn.kv.reshape_s": ("nn.kv.reshape", "self"),
    "models.head_eval_s": ("models.head_eval", "self"),
    "core.propose_s": ("core.propose", "self"),
    "core.select_s": ("core.select", "self"),
    "core.tree_s": ("core.tree", "self"),
    "constrained.mask_s": ("constrained.mask", "self"),
    "constrained.mask_calls": ("constrained.mask", "calls"),
    "constrained.classify_s": ("constrained.classify", "self"),
    "constrained.classify_calls": ("constrained.classify", "calls"),
    "serving.admit_s": ("serving.admit", "self"),
    "serving.prefix_lookup_s": ("serving.prefix_lookup", "self"),
    "serving.prefix_insert_s": ("serving.prefix_insert", "self"),
    "traffic.decide_s": ("traffic.decide", "self"),
    "verilog.parse_s": ("verilog.parse", "self"),
    "verilog.parse_calls": ("verilog.parse", "calls"),
    "sim.build_s": ("sim.build", "self"),
    "sim.run_s": ("sim.run", "self"),
    "sim.batch_s": ("sim.batch", "self"),
    "evalbench.generate_s": ("evalbench.generate", "self"),
    "evalbench.syntax_check_s": ("evalbench.syntax_check", "self"),
    "evalbench.grade_s": ("evalbench.grade", "self"),
}


def _span_metrics(recorder: SpanRecorder, traced_wall: float, factor: float) -> Dict[str, float]:
    totals = recorder.totals()
    metrics: Dict[str, float] = {}
    for metric, (span, kind) in _SPAN_METRICS.items():
        entry = totals.get(span)
        metrics[metric] = 0.0 if entry is None else (entry.self_time / factor if kind == "self" else entry.calls)
    counters = recorder.counters
    positions = counters.get("nn.positions", 0.0)
    metrics["nn.positions"] = positions
    metrics["nn.us_per_position"] = 1e6 * metrics["nn.forward_s"] / positions if positions else 0.0
    metrics["nn.kv.gather_bytes"] = counters.get("nn.kv.gather_bytes", 0.0)
    metrics["models.head_eval_calls"] = counters.get("models.head_eval_calls", 0.0)
    metrics["models.head_eval_calls.ntp"] = counters.get("models.head_eval_calls.ntp", 0.0)
    events = counters.get("sim.events", 0.0)
    metrics["sim.events"] = events
    metrics["sim.events_s"] = events / metrics["sim.run_s"] if metrics["sim.run_s"] else 0.0
    sim_self = sum(entry.self_time for name, entry in totals.items() if name.startswith("sim."))
    metrics["sim.self_share"] = sim_self / traced_wall if traced_wall > 0 else 0.0
    return metrics
