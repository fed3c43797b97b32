"""The six benchmark workloads: seeded inputs, one timed pass, metrics, checks.

Every workload follows one shape.  Constructing it is the *set-up* the run
times (inputs generated from the seed, program objects built from the trained
pipeline).  :meth:`Workload.run_pass` does one pass of fixed work, timing each
unit on its own and letting a :class:`~timing.MachineGauge` sample the machine
between units; the harness repeats passes over the same inputs until the
measuring time is spent.  :meth:`Workload.summarise` turns the passes into the
end-to-end metrics plus the workload's own headline numbers, and counts every
operation whose output was wrong.

The program only ever sees generated inputs: ``seed`` feeds prompt order,
sampling seeds, trace seeds and mutant choice, nothing under ``src/``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import re
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import repro.evalbench.functional as functional
import repro.evalbench.syntax_eval as syntax_eval
from repro.constrained import clear_viability_caches
from repro.evalbench import EvaluationRunner, rtllm_suite, vgen_suite
from repro.evalbench.problems import Problem
from repro.models.generation import GenerationConfig
from repro.serving import PrefixCache, PriorityConfig, SchedulerConfig
from repro.traffic import (
    AdmissionController,
    SimulatedClock,
    SLOConfig,
    StepCostModel,
    Trace,
    TraceConfig,
    generate_trace,
    replay_trace,
)
from repro.verilog import check_syntax

from config import OVERLOAD_TTFT_SLO, Sizes
from layers import decode_counts
from timing import MachineGauge, medians_by_unit, percentile


def digest(payload: Any) -> str:
    """SHA-256 of the canonical JSON form of ``payload``."""
    return hashlib.sha256(json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")).hexdigest()


#: Seed of the one trace each serving workload draws its requests from.  A
#: freshly drawn trace moves TTFT percentiles by tens of percent on its own
#: (preamble lengths, burst pattern), which would drown a change to the
#: program, so the run's ``--seed`` only swaps the prompts of a share of the
#: requests (``Workload.swap_share``).
TRACE_SEED = 0


def prompts_reassigned(trace: Trace, seed: int, share: float, keep_preamble: bool = True) -> Trace:
    """The same schedule, tenants, classes and budgets; some prompts swapped between like requests.

    Two requests are alike when they have the same budget and, with
    ``keep_preamble``, the same shared preamble: what the workload is judged
    on (the arrival schedule, the budget sequence, which request shares a
    prefix with which) stays as drawn, and only which text meets which slot
    changes with the seed: pairs of like requests trade prompts, ``share`` of
    the slots in all and one pair at least.
    """
    rng = random.Random(seed)
    alike: Dict[Tuple[str, int], List[int]] = {}
    for index, request in enumerate(trace.requests):
        preamble = request.prompt[: request.prompt.index(". ") + 2] if keep_preamble else ""
        alike.setdefault((preamble, request.max_new_tokens), []).append(index)
    prompts = [request.prompt for request in trace.requests]
    groups = [members for members in alike.values() if len(members) >= 2]
    sizes = [len(members) for members in groups]
    for _ in range(max(1, round(share * len(prompts) / 2))):
        first, second = rng.sample(rng.choices(groups, weights=sizes)[0], 2)
        prompts[first], prompts[second] = prompts[second], prompts[first]
    requests = [dataclasses.replace(request, prompt=prompt) for request, prompt in zip(trace.requests, prompts)]
    return Trace(config=trace.config, requests=requests)


def benchmark_problems(limit: Optional[int]) -> List[Problem]:
    """All 29 RTLLM + 17 VGen problems (``limit`` keeps a prefix of each suite for --quick)."""
    rtllm, vgen = list(rtllm_suite()), list(vgen_suite())
    if limit is not None:
        rtllm, vgen = rtllm[: limit - limit // 2], vgen[: limit // 2]
    return rtllm + vgen


@dataclass
class Pass:
    """One pass over a workload's units.

    Unit ``i`` began at ``starts[i]``, took ``raw[i]`` seconds of wall time
    and, once the pass is closed, ``seconds[i]`` machine seconds
    (:class:`~timing.MachineGauge`); a pass cut short by the deadline simply
    has fewer units.  ``outputs`` holds what the program produced, for the
    determinism and correctness checks.
    """

    raw: List[float] = field(default_factory=list)
    starts: List[float] = field(default_factory=list)
    seconds: List[float] = field(default_factory=list)
    outputs: List[Any] = field(default_factory=list)
    extra: Dict[str, Any] = field(default_factory=dict)
    #: Operations attempted, and units whose output differs from the first
    #: pass's (same inputs, so any difference is a failure); see Workload.settle.
    ops: int = 0
    mismatched: int = 0

    def time_unit(self, unit: Callable[[], Any]) -> Any:
        start = time.perf_counter()
        output = unit()
        self.raw.append(time.perf_counter() - start)
        self.starts.append(start)
        return output

    def close(self, gauge: MachineGauge) -> None:
        """One more sample, after the last unit, then every unit's machine seconds."""
        gauge.sample()
        self.seconds = gauge.machine_seconds(self.starts, self.raw)

    @property
    def factor(self) -> float:
        """How much slower than nominal the machine ran over the pass as a whole."""
        return sum(self.raw) / sum(self.seconds)

    @property
    def wall(self) -> float:
        return sum(self.raw)


@dataclass
class Summary:
    end_to_end: Dict[str, float]
    op_seconds: List[float]  # the series op_p75_ms summarises, one value per operation
    detail: Dict[str, float]  # workload headline numbers (config.DETAIL_BOUNDS)
    ops_attempted: int
    ops_failed: int
    outputs_sha256: str
    notes: List[str] = field(default_factory=list)


def _timed_units(
    gauge: MachineGauge,
    units: Sequence[Callable[[], Any]],
    keep_going: Callable[[], bool],
    on_unit: Optional[Callable[[int], None]] = None,
) -> Pass:
    """Time ``units`` one by one until ``keep_going`` says stop; ``on_unit(i)`` runs before unit ``i``, untimed."""
    result = Pass()
    for index, unit in enumerate(units):
        if not keep_going():
            break
        if on_unit is not None:
            on_unit(index)
        result.outputs.append(result.time_unit(unit))
        gauge.tick()
    result.close(gauge)
    return result


def _latency_metrics(rate: float, op_seconds: Sequence[float]) -> Dict[str, float]:
    return {
        "rate_per_s": rate,
        "op_p75_ms": 1e3 * percentile(op_seconds, 75.0),
    }


class Workload:
    """Base class; see the module docstring for the protocol."""

    name = ""
    #: True when a pass may be cut at a unit boundary once the time is spent.
    partial_passes = True
    #: Passes a run needs at least (two where passes are compared with each other).
    min_passes = 1
    #: False when nothing the workload reports depends on wall time.
    warm_up = True
    #: Keys of ``Pass.extra`` that summarise() reads from every pass, not only the first.
    kept_extra: Tuple[str, ...] = ()
    #: Trained methods the workload decodes with; none means it needs no pipeline at all.
    methods: Tuple[str, ...] = ("ours",)

    def __init__(self, pipeline: Any, sizes: Sizes, seed: int) -> None:
        self.pipeline = pipeline
        self.sizes = sizes
        self.seed = seed

    def inputs_digest(self) -> str:
        """Hash of the generated inputs (same seed, same bytes)."""
        raise NotImplementedError

    def ops_in(self, output: Any) -> int:
        """Operations one unit's output stands for."""
        return 1

    def settle(self, result: Pass, first: Optional[Pass]) -> None:
        """Count a finished pass's operations; compare a later pass with the first, then drop its bulk.

        Only the first pass keeps its outputs, so the memory a run peaks at
        does not grow with the number of passes the machine had time for.
        """
        result.ops = sum(self.ops_in(output) for output in result.outputs)
        if first is not None:
            result.mismatched = sum(1 for index, output in enumerate(result.outputs) if output != first.outputs[index])
            result.outputs = []
            result.extra = {key: value for key, value in result.extra.items() if key in self.kept_extra}

    def run_pass(self, gauge: MachineGauge, keep_going: Callable[[], bool], recorder: Any = None) -> Pass:
        raise NotImplementedError

    def summarise(self, passes: Sequence[Pass]) -> Summary:
        raise NotImplementedError

    def layer_counts(self, passes: Sequence[Pass]) -> Dict[str, float]:
        """Per-layer numbers the workload itself can count (no spans needed)."""
        return {}

    def traced_counts(self, traced: Pass) -> Dict[str, float]:
        """Per-layer numbers sampled only during the traced pass (sampling them costs time)."""
        return {}


# --------------------------------------------------------------------------- #
# table2_decode
# --------------------------------------------------------------------------- #


class Table2Decode(Workload):
    name = "table2_decode"
    #: ours and its NTP-trained twin, interleaved per prompt so machine drift cancels in ours_speedup.
    methods = ("ours", "ntp")
    kept_extra = ("decode_seconds",)

    def __init__(self, pipeline: Any, sizes: Sizes, seed: int) -> None:
        super().__init__(pipeline, sizes, seed)
        rng = random.Random(seed)
        problems = benchmark_problems(sizes.problems)
        rng.shuffle(problems)
        #: (unit key, method, prompt, config)
        self.units: List[Tuple[str, str, str, GenerationConfig]] = []
        for problem in problems:
            sampling_seed = rng.randrange(2**31)
            for mode, config in (
                ("greedy", GenerationConfig.greedy_config(max_new_tokens=sizes.max_new_tokens)),
                ("t0.8", GenerationConfig.sampling_config(0.8, max_new_tokens=sizes.max_new_tokens, seed=sampling_seed)),
            ):
                for method in self.methods:
                    self.units.append((f"{problem.name}/{mode}/{method}", method, problem.prompt, config))
        self.decoders = {method: pipeline.decoder_for(method) for method in self.methods}

    def inputs_digest(self) -> str:
        return digest([(key, prompt, config.seed, config.temperature) for key, _, prompt, config in self.units])

    def _unit(self, method: str, prompt: str, config: GenerationConfig) -> Callable[[], Any]:
        decoder = self.decoders[method]

        def run() -> Any:
            result = decoder.generate_from_text(prompt, config)
            return (tuple(result.token_ids), result.steps, result.decode_seconds, result.prefill_seconds, result)

        return run

    def run_pass(self, gauge: MachineGauge, keep_going: Callable[[], bool], recorder: Any = None) -> Pass:
        units = [self._unit(method, prompt, config) for _, method, prompt, config in self.units]
        on_unit = None
        if recorder is not None:
            on_unit = lambda index: setattr(recorder, "request", self.units[index][0])  # noqa: E731
        result = _timed_units(gauge, units, keep_going, on_unit)
        # Keep the heavy DecodeResult objects out of the comparable outputs.
        result.extra["decode_seconds"] = [output[2] for output in result.outputs]
        result.extra["results"] = [output[4] for output in result.outputs]
        result.outputs = [output[:2] for output in result.outputs]
        return result

    def summarise(self, passes: Sequence[Pass]) -> Summary:
        first = passes[0]
        # The decoder's own decode seconds are part of the unit's wall time; they shrink as it does.
        decode = medians_by_unit(
            [[d * s / r for d, s, r in zip(p.extra["decode_seconds"], p.seconds, p.raw)] for p in passes]
        )
        wall = medians_by_unit([p.seconds for p in passes])
        tokens = [len(output[0]) for output in first.outputs]
        steps = [output[1] for output in first.outputs]
        by_method: Dict[str, List[int]] = {method: [] for method in self.methods}
        for index, (_, method, _, _) in enumerate(self.units):
            by_method[method].append(index)

        def tok_s(method: str) -> float:
            return statistics.mean(tokens[i] / decode[i] for i in by_method[method] if tokens[i] and decode[i] > 0)

        ours = by_method["ours"]
        ours_tok_s, ntp_tok_s = tok_s("ours"), tok_s("ntp")
        ntp_steps = sum(steps[i] for i in by_method["ntp"])
        ntp_tokens = sum(tokens[i] for i in by_method["ntp"])
        failed = sum(p.mismatched for p in passes)
        notes = []
        empty = sum(1 for count in tokens if count == 0)
        if empty:
            failed += empty
            notes.append(f"{empty} generations produced no tokens")
        if ntp_steps != ntp_tokens:
            failed += len(by_method["ntp"])
            notes.append(f"ntp committed {ntp_tokens} tokens in {ntp_steps} steps (must be one per step)")
        return Summary(
            op_seconds=[wall[i] for i in ours],
            end_to_end=_latency_metrics(ours_tok_s, [wall[i] for i in ours]),
            detail={
                "decode.ours_tok_s": ours_tok_s,
                "decode.ntp_tok_s": ntp_tok_s,
                "decode.ours_speedup": ours_tok_s / ntp_tok_s,
                "decode.ours_tokens_per_step": sum(tokens[i] for i in ours) / sum(steps[i] for i in ours),
            },
            ops_attempted=sum(p.ops for p in passes),
            ops_failed=failed,
            outputs_sha256=digest([list(output[0]) for output in first.outputs]),
            notes=notes,
        )

    def layer_counts(self, passes: Sequence[Pass]) -> Dict[str, float]:
        first = passes[0]
        return decode_counts([r for r, unit in zip(first.extra["results"], self.units) if unit[1] == "ours"], first.factor)


# --------------------------------------------------------------------------- #
# serve_shared / serve_unique
# --------------------------------------------------------------------------- #


class ClosedLoopServe(Workload):
    """Closed loop at fixed concurrency, driven from the step loop of one in-process engine."""

    partial_passes = False
    kept_extra = ("commits",)
    shared_preambles = True
    #: Share of the requests whose prompts ``--seed`` swaps: keeps the seed's effect on TTFT to a few percent.
    swap_share = 0.25
    #: serving.prefill_savings must land on this side of the threshold, or
    #: the workload is not exercising what its *why* says.
    savings_check: Tuple[str, float] = (">=", 0.7)

    def __init__(self, pipeline: Any, sizes: Sizes, seed: int) -> None:
        super().__init__(pipeline, sizes, seed)
        count = sizes.serve_requests
        groups = (4, 2) if self.shared_preambles else (count, count)
        drawn = generate_trace(
            TraceConfig(
                num_requests=count,
                seed=TRACE_SEED,
                num_tenants=groups[0],
                preamble_groups=groups[1],
                preamble_sentences=6,
                prompt_sentence_choices=(1, 2, 4),
                max_new_token_choices=(16, 32, 64),
            )
        )
        self.trace = prompts_reassigned(drawn, seed, self.swap_share, keep_preamble=self.shared_preambles)
        tokenizer = pipeline.tokenizer
        self.prompt_ids = [tokenizer.encode(request.prompt, add_bos=True) for request in self.trace.requests]
        self.prompt_tokens = [len(ids) for ids in self.prompt_ids]
        self.configs = [
            GenerationConfig.greedy_config(max_new_tokens=request.max_new_tokens) for request in self.trace.requests
        ]
        config = pipeline.config
        #: K and V, float32, every layer: computed from tensor sizes, as is everything derived from it.
        self.kv_bytes_per_token = 2 * 4 * config.num_layers * config.model_dim

    def inputs_digest(self) -> str:
        return digest(self.trace.to_dict())

    def new_engine(self) -> Any:
        return self.pipeline.engine_for(
            "ours",
            scheduler_config=SchedulerConfig(max_prefill_tokens_per_step=64),
            prefix_cache=PrefixCache(max_tokens=4096),
            kv_memory="paged",
            kv_block_size=16,
        )

    def run_pass(self, gauge: MachineGauge, keep_going: Callable[[], bool], recorder: Any = None) -> Pass:
        engine = self.new_engine()
        requests = self.trace.requests
        total = len(requests)
        submit_iter = [0] * total
        commits: List[List[Tuple[int, int]]] = [[] for _ in range(total)]  # per request: (iteration, burst size)
        state = {"next": 0, "iteration": 0}
        live: Dict[int, int] = {}  # request index -> tokens committed so far, while in flight
        sampled: List[Tuple[int, float, int]] = []  # per step: batch size, reserved KV bytes, tokens in use

        def submit(index: int) -> None:
            request_id = requests[index].request_id
            if recorder is not None:
                with recorder.span("serving.submit", request=request_id):
                    engine.submit(self.prompt_ids[index], self.configs[index], request_id=request_id)
            else:
                engine.submit(self.prompt_ids[index], self.configs[index], request_id=request_id)
            submit_iter[index] = state["iteration"]
            live[index] = 0

            def on_commit(burst: List[int]) -> None:
                live[index] += len(burst)
                commits[index].append((state["iteration"], len(burst)))

            engine.attach_listeners(request_id, on_commit=on_commit, on_done=lambda _: live.pop(index))

        def iteration() -> None:
            # The next request is submitted when one finishes: 'clients' waiting callers.
            while state["next"] < total and len(live) < self.sizes.serve_clients:
                submit(state["next"])
                state["next"] += 1
            if recorder is None:
                engine.step()
                return
            with recorder.span("serving.step"):
                engine.step()
            in_use = sum(self.prompt_tokens[i] + done for i, done in live.items())
            sampled.append((engine.num_active, engine.kv_pool_stats()["kv_bytes_in_use"], in_use))

        result = Pass()
        while state["next"] < total or engine.has_work:
            if not keep_going():
                return Pass()  # only the warm-up is ever cut short; an unfinished loop has nothing to report
            result.time_unit(iteration)
            gauge.tick()
            state["iteration"] += 1
        result.close(gauge)
        results = [engine.result(request.request_id) for request in requests]
        result.outputs = [tuple(r.token_ids) for r in results]
        result.extra.update(
            submit_iter=submit_iter,
            commits=commits,
            kv=engine.kv_pool_stats(),
            prefix=engine.prefix_cache_stats(),
            evictions=engine.prefix_cache.stats.evictions,
            prefilled=engine.tokens_prefilled_total,
            reused=engine.tokens_reused_total,
            results=results,
            sampled=sampled,
        )
        return result

    # Every serving latency is read off one timeline: the end of iteration i is the sum of the
    # first i + 1 iteration times.  The engine's own stream_metrics would also count the gauge's
    # samples between iterations, and cannot take a median over passes.

    def step_seconds(self, passes: Sequence[Pass]) -> List[float]:
        """Machine seconds of each iteration: the median over passes (they repeat one schedule)."""
        return medians_by_unit([p.seconds for p in passes])

    def ttft(self, step_seconds: Sequence[float], reference: Pass) -> List[float]:
        """Per request: start of its submission iteration to the end of its first-commit iteration."""
        ends = [0.0]
        for seconds in step_seconds:
            ends.append(ends[-1] + seconds)
        return [
            ends[events[0][0] + 1] - ends[submitted]
            for submitted, events in zip(reference.extra["submit_iter"], reference.extra["commits"])
            if events
        ]

    def inter_token(self, step_seconds: Sequence[float], reference: Pass) -> List[float]:
        """Per token after a request's first burst: the gap between two bursts, spread over the later burst's
        tokens (the definition of ``ServingEngine.stream_metrics``)."""
        ends = [0.0]
        for seconds in step_seconds:
            ends.append(ends[-1] + seconds)
        gaps: List[float] = []
        for events in reference.extra["commits"]:
            for (before, _), (after, size) in zip(events, events[1:]):
                gaps.extend([(ends[after + 1] - ends[before + 1]) / size] * size)
        return gaps

    def check_identity(self, reference: Pass) -> int:
        """Greedy engine outputs must equal sequential SpeculativeDecoder outputs on a fixed subset."""
        decoder = self.pipeline.decoder_for("ours")
        mismatched = 0
        for index in range(min(self.sizes.identity_subset, len(self.prompt_ids))):
            expected = decoder.generate(self.prompt_ids[index], self.configs[index]).token_ids
            mismatched += tuple(expected) != reference.outputs[index]
        return mismatched

    def summarise(self, passes: Sequence[Pass]) -> Summary:
        first = passes[0]
        notes: List[str] = []
        failed = sum(p.mismatched for p in passes)
        if any(len(p.raw) != len(first.raw) or p.extra["commits"] != first.extra["commits"] for p in passes):
            failed += len(first.outputs)
            notes.append("the closed loop did not repeat the same step schedule in every pass")
        never = sum(1 for events in first.extra["commits"] if not events)
        if never:
            failed += never
            notes.append(f"{never} requests never committed a token")
        identity = self.check_identity(first)
        if identity:
            failed += identity
            notes.append(f"{identity} engine outputs differ from sequential SpeculativeDecoder outputs")
        savings = first.extra["prefix"]["prefill_savings"]
        relation, threshold = self.savings_check
        holds = savings >= threshold if relation == ">=" else savings <= threshold
        if self.sizes.check_prefill_savings and not holds:
            failed += len(first.outputs)
            notes.append(f"serving.prefill_savings = {savings:.3f}, workload requires {relation} {threshold}")
        tokens = sum(len(output) for output in first.outputs)
        steps = self.step_seconds(passes)
        ttft = self.ttft(steps, first)
        end_to_end = _latency_metrics(tokens / sum(steps), ttft)
        return Summary(
            op_seconds=ttft,
            end_to_end=end_to_end,
            detail={
                "serving.tok_s": end_to_end["rate_per_s"],
                "serving.ttft_p50_s": statistics.median(ttft),
                "serving.ttft_p90_s": percentile(ttft, 90.0),
                "nn.kv.peak_bytes": first.extra["kv"]["peak_kv_bytes"],
            },
            ops_attempted=sum(p.ops for p in passes),
            ops_failed=failed,
            outputs_sha256=digest([list(output) for output in first.outputs]),
            notes=notes,
        )

    def layer_counts(self, passes: Sequence[Pass]) -> Dict[str, float]:
        first = passes[0]
        extra = first.extra
        steps = self.step_seconds(passes)
        itl = self.inter_token(steps, first)
        counts = decode_counts(extra["results"], first.factor)
        counts.update(
            {
                "serving.ttft_p99_s": percentile(self.ttft(steps, first), 99.0),
                "serving.step_p50_s": statistics.median(steps),
                "serving.steps": len(first.raw),
                "serving.prefill_tokens": extra["prefilled"],
                "serving.reused_tokens": extra["reused"],
                "serving.prefill_savings": extra["prefix"]["prefill_savings"],
                "serving.prefix_hit_rate": extra["prefix"]["hit_rate"],
                "serving.prefix_evictions": extra["evictions"],
                "serving.itl_p50_s": statistics.median(itl) if itl else 0.0,
                "serving.itl_p99_s": percentile(itl, 99.0) if itl else 0.0,
                "nn.kv.blocks_peak": extra["kv"]["peak_kv_bytes"] // (self.kv_bytes_per_token * extra["kv"]["block_size"]),
                "nn.kv.cow_events": extra["kv"]["cow_events"],
                "nn.kv.prefix_copy_tokens": extra["kv"]["prefix_copy_tokens"],
            }
        )
        return counts

    def traced_counts(self, traced: Pass) -> Dict[str, float]:
        """Batch size and reserved-vs-used KV, sampled after every step of the traced pass.

        Reserved counts every live block, prefix-cache retention included;
        used counts the prompt and committed tokens of requests in flight.
        """
        sampled = traced.extra["sampled"]
        ratios = [reserved / self.kv_bytes_per_token / used for _, reserved, used in sampled if used > 0]
        return {
            "serving.batch_mean": statistics.mean(active for active, _, _ in sampled) if sampled else 0.0,
            "nn.kv.reserved_over_used": statistics.mean(ratios) if ratios else 0.0,
        }


class ServeShared(ClosedLoopServe):
    name = "serve_shared"
    shared_preambles = True
    savings_check = (">=", 0.7)


class ServeUnique(ClosedLoopServe):
    name = "serve_unique"
    shared_preambles = False
    savings_check = ("<=", 0.15)


# --------------------------------------------------------------------------- #
# overload_simclock
# --------------------------------------------------------------------------- #

#: The bench_traffic.py overload scenario, copied so that a change there does
#: not move this baseline.
OVERLOAD_COST_MODEL = StepCostModel(step_seconds=0.002, prefill_token_seconds=0.0005, decode_token_seconds=0.004)


def _overload_admission() -> AdmissionController:
    return AdmissionController(
        SLOConfig(
            target_p95_ttft=0.03,
            window_seconds=5.0,
            recover_under=0.5,
            min_samples=2,
            tenant_rate=400.0,
            tenant_burst=128.0,
        )
    )


class OverloadSimclock(Workload):
    name = "overload_simclock"
    partial_passes = False
    min_passes = 2  # the double-replay equality check
    warm_up = False
    #: Under overload one request's length flips admission breaches, and the virtual TTFTs with them.  Over ten
    #: seeds, trading a quarter of the 1500 prompts spread p50 / p75 / p90 by 7 % / 11 % / 30 %; a hundredth left
    #: p90 the same to the last digit in nine runs of ten; 3 % gives 3 % / 3 % / 15 %, ten different p75s.
    swap_share = 0.03

    def __init__(self, pipeline: Any, sizes: Sizes, seed: int) -> None:
        super().__init__(pipeline, sizes, seed)
        drawn = generate_trace(
            TraceConfig(
                num_requests=sizes.overload_requests,
                seed=TRACE_SEED,
                requests_per_second=16.0,
                arrival_process="poisson",
                num_tenants=4,
                preamble_groups=2,
                interactive_fraction=0.4,
                prompt_sentence_choices=(1, 2),
                max_new_token_choices=(8, 16),
            )
        )
        self.trace = prompts_reassigned(drawn, seed, self.swap_share)
        self.arrival = {request.request_id: request.arrival_seconds for request in self.trace.requests}

    def inputs_digest(self) -> str:
        return digest(self.trace.to_dict())

    def ops_in(self, output: Any) -> int:
        return output["num_requests"]

    def run_pass(self, gauge: MachineGauge, keep_going: Callable[[], bool], recorder: Any = None) -> Pass:
        def replay() -> Any:
            clock = SimulatedClock()
            engine = self.pipeline.engine_for(
                "ours",
                scheduler_config=SchedulerConfig(max_active_requests=2, priorities=PriorityConfig(aging_rounds=1)),
                clock=clock,
            )
            return replay_trace(
                engine, self.trace, clock=clock, cost_model=OVERLOAD_COST_MODEL, admission=_overload_admission()
            )

        result = Pass()
        report = result.time_unit(replay)
        result.close(gauge)
        result.outputs, result.extra = [report.to_dict()], {"report": report}
        return result

    def _virtual_ttft(self, report: Any) -> Dict[str, Optional[float]]:
        """Virtual TTFT from the moment each request was *due*, so time spent deferred counts."""
        waits: Dict[str, Optional[float]] = {}
        for outcome in report.outcomes:
            if outcome.status == "finished" and outcome.ttft_seconds is not None:
                waits[outcome.request_id] = outcome.submitted_at - self.arrival[outcome.request_id] + outcome.ttft_seconds
            else:
                waits[outcome.request_id] = None  # shed, expired or cancelled: misses every limit
        return waits

    def summarise(self, passes: Sequence[Pass]) -> Summary:
        report = passes[0].extra["report"]
        notes: List[str] = []
        failed = 0
        if len(passes) < 2 or any(p.mismatched for p in passes):
            failed = len(report.outcomes)
            notes.append("two replays of the same trace on the simulated clock did not give equal reports")
        waits = self._virtual_ttft(report)
        good = sum(1 for wait in waits.values() if wait is not None and wait <= OVERLOAD_TTFT_SLO)
        interactive = [
            waits[o.request_id] for o in report.outcomes if o.traffic_class == "interactive" and waits[o.request_id] is not None
        ]
        end_to_end = _latency_metrics(good / report.duration_seconds, interactive)
        return Summary(
            op_seconds=interactive,
            end_to_end=end_to_end,
            detail={
                "traffic.vt_ttft_p95_s": percentile(interactive, 95.0),
                "traffic.vt_goodput_share": good / len(report.outcomes),
            },
            ops_attempted=sum(p.ops for p in passes),
            ops_failed=failed,
            outputs_sha256=digest([o.token_ids for o in report.outcomes]),
            notes=notes,
        )

    def layer_counts(self, passes: Sequence[Pass]) -> Dict[str, float]:
        report = passes[0].extra["report"]
        admission = report.admission or {}
        wall = statistics.median(p.seconds[0] for p in passes)
        return {
            "serving.steps": report.steps,
            "serving.tok_s": report.total_tokens / wall,
            "serving.prefill_savings": report.prefix_cache.get("prefill_savings", 0.0),
            "serving.prefix_hit_rate": report.prefix_cache.get("hit_rate", 0.0),
            "nn.kv.peak_bytes": report.kv_pool.get("peak_kv_bytes", 0),
            "nn.kv.cow_events": report.kv_pool.get("cow_events", 0),
            "traffic.shed": report.by_status().get("shed", 0),
            "traffic.deferred_attempts": sum(o.defer_count for o in report.outcomes),
            "traffic.breaches": admission.get("breach_count", 0),
            "traffic.steps_per_host_s": report.steps / wall,
        }


# --------------------------------------------------------------------------- #
# passk_constrained
# --------------------------------------------------------------------------- #


class PasskConstrained(Workload):
    name = "passk_constrained"

    def __init__(self, pipeline: Any, sizes: Sizes, seed: int) -> None:
        super().__init__(pipeline, sizes, seed)
        self.problems = benchmark_problems(sizes.problems)
        random.Random(seed).shuffle(self.problems)
        self.runner = EvaluationRunner(
            pipeline.decoder_for("ours"),
            samples_per_prompt=sizes.samples_per_prompt,
            temperatures=(0.2, 0.4, 0.6, 0.8),
            max_new_tokens=sizes.max_new_tokens,
            k_values=(1,),
            grammar="verilog",
            sim_backend="compiled",
        )

    def inputs_digest(self) -> str:
        return digest([(problem.name, problem.prompt) for problem in self.problems])

    def ops_in(self, output: Any) -> int:
        return len(output[0])

    def run_pass(self, gauge: MachineGauge, keep_going: Callable[[], bool], recorder: Any = None) -> Pass:
        # Every pass starts cold, so every pass does identical cold-to-warm work.
        clear_viability_caches()

        def unit(problem: Problem) -> Callable[[], Any]:
            def run() -> Any:
                evaluation = self.runner.evaluate_problem(problem)
                return (
                    tuple(evaluation.samples),
                    tuple(evaluation.parse_flags),
                    tuple(evaluation.syntax_flags),
                    tuple(evaluation.functional_flags),
                    (evaluation.tokens_verified, evaluation.tokens_verified_unpruned, evaluation.closure_tokens),
                )

            return run

        on_unit = None
        if recorder is not None:
            on_unit = lambda index: setattr(recorder, "request", self.problems[index].name)  # noqa: E731
        return _timed_units(gauge, [unit(problem) for problem in self.problems], keep_going, on_unit)

    def summarise(self, passes: Sequence[Pass]) -> Summary:
        first = passes[0]
        per_problem = medians_by_unit([p.seconds for p in passes])
        samples = sum(len(output[0]) for output in first.outputs)
        parsed = sum(sum(output[1]) for output in first.outputs)
        failed = sum(p.mismatched for p in passes) + (samples - parsed)
        notes = [f"{samples - parsed} constrained samples do not parse"] if parsed != samples else []
        end_to_end = _latency_metrics(samples / sum(per_problem), per_problem)
        return Summary(
            op_seconds=per_problem,
            end_to_end=end_to_end,
            detail={"evalbench.samples_s": end_to_end["rate_per_s"], "evalbench.parse_pass_rate": parsed / samples},
            ops_attempted=sum(p.ops for p in passes),
            ops_failed=failed,
            outputs_sha256=digest([output[:4] for output in first.outputs]),
            notes=notes,
        )

    def layer_counts(self, passes: Sequence[Pass]) -> Dict[str, float]:
        outputs = passes[0].outputs
        samples = sum(len(output[0]) for output in outputs)
        verified = sum(output[4][0] for output in outputs)
        unpruned = sum(output[4][1] for output in outputs)
        return {
            "core.tokens_verified": verified,
            "constrained.pruned_ratio": 1.0 - verified / unpruned if unpruned else 0.0,
            "constrained.closure_tokens": sum(output[4][2] for output in outputs),
            "evalbench.syntax_pass_rate": sum(sum(output[2]) for output in outputs) / samples,
            "evalbench.function_pass_rate": sum(sum(output[3]) for output in outputs) / samples,
        }


# --------------------------------------------------------------------------- #
# grade_sweep
# --------------------------------------------------------------------------- #

_SWAPS = {
    "+": "-", "-": "+", "&": "|", "|": "&", "^": "|", "==": "!=", "!=": "==", "&&": "||", "||": "&&",
    "<<": ">>", ">>": "<<", "1'b0": "1'b1", "1'b1": "1'b0", "posedge": "negedge",
}  # fmt: skip
_SWAP_SITE = re.compile(r"1'b[01]|posedge|==|!=|&&|\|\||<<|>>|<=|>=|[+\-&|^]")
_INPUT_PORT = re.compile(r"\binput\s+(?:wire\s+)?(?:\[[^\]]*\]\s*)?(\w+)")


def mutants_of(reference: str) -> List[str]:
    """Every single-site mutant of ``reference`` that still parses: operator swaps and input-port swaps."""
    header_end = reference.find(");") + 2
    inputs = _INPUT_PORT.findall(reference[:header_end])
    sites: List[Tuple[int, int, str]] = []
    for match in _SWAP_SITE.finditer(reference, header_end):
        if match.group() in _SWAPS:
            sites.append((match.start(), match.end(), _SWAPS[match.group()]))
    for match in re.finditer(r"\b\w+\b", reference[header_end:]):
        if match.group() in inputs:
            for other in inputs:
                if other != match.group():
                    sites.append((header_end + match.start(), header_end + match.end(), other))
    mutants: List[str] = []
    for start, end, replacement in sites:
        candidate = reference[:start] + replacement + reference[end:]
        if candidate not in mutants and check_syntax(candidate).ok:
            mutants.append(candidate)
    return mutants


class GradeSweep(Workload):
    name = "grade_sweep"
    methods = ()  # no model at all: ``pipeline`` may be None

    def __init__(self, pipeline: Any, sizes: Sizes, seed: int) -> None:
        super().__init__(pipeline, sizes, seed)
        rng = random.Random(seed)
        self.problems = benchmark_problems(sizes.problems)
        rng.shuffle(self.problems)
        #: Per problem: reference first, then seed-chosen mutants, the
        #: truncated (non-parsing) source last.
        self.candidates: List[List[str]] = []
        for problem in self.problems:
            pool = mutants_of(problem.reference)
            wanted = sizes.batch_candidates - 2
            chosen = rng.sample(pool, wanted) if len(pool) >= wanted else list(pool)
            while len(chosen) < wanted:  # too few mutation sites: textual variants of the reference
                chosen.append(f"{problem.reference}\n// variant {len(chosen)}\n")
            truncated = problem.reference[: 2 * len(problem.reference) // 3]
            self.candidates.append([problem.reference] + chosen + [truncated])

    def inputs_digest(self) -> str:
        return digest([(problem.name, candidates) for problem, candidates in zip(self.problems, self.candidates)])

    def ops_in(self, output: Any) -> int:
        return self.sizes.batch_candidates if output[0] == "batch" else 1

    def _batch_unit(self, problem: Problem, candidates: List[str]) -> Callable[[], Any]:
        def run() -> Any:
            compiles = [syntax_eval.check_design_compiles(design, problem.testbench).compiles for design in candidates]
            graded = functional.check_designs_functional(candidates, problem, backend="compiled")
            return ("batch", tuple(compiles), tuple(result.passed for result in graded))

        return run

    def _scalar_unit(self, problem: Problem, design: str) -> Callable[[], Any]:
        def run() -> Any:
            return ("scalar", functional.check_design_functional(design, problem, backend="compiled").passed)

        return run

    def run_pass(self, gauge: MachineGauge, keep_going: Callable[[], bool], recorder: Any = None) -> Pass:
        units = [self._batch_unit(p, c) for p, c in zip(self.problems, self.candidates)]
        keys = [f"{p.name}/batch" for p in self.problems]
        for problem, candidates in zip(self.problems, self.candidates):
            for index in range(self.sizes.scalar_candidates):
                units.append(self._scalar_unit(problem, candidates[index]))
                keys.append(f"{problem.name}/scalar{index}")
        on_unit = None
        if recorder is not None:
            on_unit = lambda index: setattr(recorder, "request", keys[index])  # noqa: E731
        return _timed_units(gauge, units, keep_going, on_unit)

    def oracle_failures(self, outputs: Sequence[Any]) -> Tuple[int, List[str]]:
        """Interpreter verdicts are the oracle for the scalar candidates; batch must agree with scalar."""
        count = len(self.problems)
        scalar = self.sizes.scalar_candidates
        failed = 0
        notes: List[str] = []
        for index, (problem, candidates) in enumerate(zip(self.problems, self.candidates)):
            _, compiles, batch_passed = outputs[index]
            if not batch_passed[0]:
                failed += 1
                notes.append(f"{problem.name}: the reference design does not pass")
            if compiles[-1] or batch_passed[-1]:
                failed += 1
                notes.append(f"{problem.name}: the truncated source was accepted")
            for offset in range(scalar):
                expected = functional.check_design_functional(candidates[offset], problem, backend="interpreter").passed
                compiled = outputs[count + index * scalar + offset][1]
                if compiled != expected or batch_passed[offset] != expected:
                    failed += 1
                    notes.append(f"{problem.name}: candidate {offset} compiled/batch verdict differs from interpreter")
        return failed, notes

    def summarise(self, passes: Sequence[Pass]) -> Summary:
        first = passes[0]
        count = len(self.problems)
        seconds = medians_by_unit([p.seconds for p in passes])
        designs = count * self.sizes.batch_candidates
        scalar_designs = count * self.sizes.scalar_candidates
        failed, notes = self.oracle_failures(first.outputs)
        failed += sum(p.mismatched for p in passes)
        end_to_end = _latency_metrics(designs / sum(seconds[:count]), seconds[count:])
        return Summary(
            op_seconds=seconds[count:],
            end_to_end=end_to_end,
            detail={
                "sim.batch_designs_s": end_to_end["rate_per_s"],
                "sim.scalar_designs_s": scalar_designs / sum(seconds[count:]),
            },
            ops_attempted=sum(p.ops for p in passes),
            ops_failed=failed,
            outputs_sha256=digest([list(output) for output in first.outputs]),
            notes=notes,
        )


WORKLOAD_CLASSES: Dict[str, type] = {
    cls.name: cls
    for cls in (Table2Decode, ServeShared, ServeUnique, OverloadSimclock, PasskConstrained, GradeSweep)
}
