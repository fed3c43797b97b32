"""Request model for the multi-request serving engine.

A :class:`GenerationRequest` is the immutable description of one generation
job (prompt, per-request :class:`~repro.models.generation.GenerationConfig`).
The engine wraps each submitted request in a mutable :class:`RequestState`
that accumulates output tokens, per-step records and timing while the request
moves through the :class:`~repro.serving.scheduler.Scheduler` states:

``QUEUED`` (waiting for admission) → ``PREFILLING`` (admitted; prompt
entering its cache row, possibly one chunk per step) → ``RUNNING`` (owns a
row of the shared KV cache) → ``FINISHED`` (result available).  Requests
whose whole prompt prefills at admission pass through ``PREFILLING``
instantaneously.  Cancellation (explicit, or via an expired deadline) can
interrupt any pre-``FINISHED`` status and lands in ``CANCELLED``, with a
partial result frozen from whatever had committed.

Streaming observation rides on the same state: every committed token burst
is timestamped into :attr:`RequestState.commit_events` and forwarded to any
registered :attr:`RequestState.commit_listeners` — the hook the async
front-end (:mod:`repro.serving.server`) builds ``stream()`` on.  Listeners
observe commits; they never influence them, which is what keeps streamed
tokens byte-identical to the batch ``result()`` path.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core.decoding import DecodeResult, StepRecord
from repro.models.generation import GenerationConfig
from repro.nn.kv_pool import PagedKVCache


def derive_request_rng(request: "GenerationRequest") -> np.random.Generator:
    """Per-request random generator, reproducible under any placement.

    ``config.seed`` set (the default, 0) seeds the generator directly —
    byte-identical to the sequential decoder, which is what the
    engine-vs-``SpeculativeDecoder.generate`` identity tests pin down.

    ``config.seed=None`` derives the seed from SHA-256 of the *request id*
    instead.  That keeps concurrent sampling requests statistically
    independent (they no longer share one seed's stream) while staying fully
    deterministic: resubmitting the same request id — on any worker, in any
    batch, or after a worker crash — replays the exact same sampled tokens,
    which is what lets the router requeue in-flight requests without
    re-streaming different output.
    """
    seed = request.config.seed
    if seed is None:
        digest = hashlib.sha256(request.request_id.encode("utf-8")).digest()
        seed = int.from_bytes(digest[:8], "big")
    return np.random.default_rng(seed)


class RequestStatus(enum.Enum):
    """Lifecycle of a request inside the serving engine."""

    QUEUED = "queued"
    PREFILLING = "prefilling"
    RUNNING = "running"
    FINISHED = "finished"
    CANCELLED = "cancelled"


@dataclass
class GenerationRequest:
    """One generation job submitted to the serving engine.

    Attributes:
        request_id: Caller-visible identifier (engine-assigned if omitted at
            submission).
        prompt_ids: Tokenized prompt (BOS included, as produced by
            ``tokenizer.encode_prompt(...)``).
        config: Per-request decoding configuration; requests in the same
            batch may use different budgets, temperatures and seeds.
        context_limit: The serving model's context window (``max_seq_len``),
            stamped at submission.  Bounds :attr:`footprint_tokens`: a request
            can never occupy more cache positions than the window holds, so
            charging the scheduler beyond it would starve admission for
            budget the request cannot use.
        priority: Admission priority class (higher runs sooner).  Only
            meaningful when the scheduler was configured with
            ``SchedulerConfig(priorities=...)``; plain FCFS scheduling
            ignores it.  Aging prevents low classes from starving — see
            :class:`~repro.serving.scheduler.PriorityConfig`.
        deadline_seconds: Optional wall-clock budget measured from
            submission.  When it expires before the request finishes, the
            engine cancels the request at the next step boundary — whether it
            is still queued, mid-prefill or decoding — freeing its scheduler
            budget and cache row immediately and freezing a partial result.
    """

    request_id: str
    prompt_ids: List[int]
    config: GenerationConfig = field(default_factory=GenerationConfig.greedy_config)
    context_limit: Optional[int] = None
    priority: int = 0
    deadline_seconds: Optional[float] = None

    @property
    def footprint_tokens(self) -> int:
        """Worst-case context-window footprint used for budget admission.

        ``prompt_len + max_new_tokens``, clamped to :attr:`context_limit`
        (when known): generation stops at the context window regardless of
        ``max_new_tokens``, so the clamp is the true worst case — without it
        a request with an oversized token budget over-charges
        ``Scheduler.tokens_in_flight`` and blocks admissions that would fit.
        """
        footprint = len(self.prompt_ids) + self.config.max_new_tokens
        if self.context_limit is not None:
            footprint = min(footprint, self.context_limit)
        return footprint


@dataclass
class RequestState:
    """Mutable per-request state tracked by the engine.

    The held ``last_base``/``last_heads`` logits are the engine's analogue of
    the single-stream decoder's loop variables: the base/head logits at the
    request's last committed position, produced by the previous shared
    forward (or the prefill) and consumed by the next proposal.
    """

    request: GenerationRequest
    status: RequestStatus = RequestStatus.QUEUED
    output_ids: List[int] = field(default_factory=list)
    step_records: List[StepRecord] = field(default_factory=list)
    stopped_by_eos: bool = False
    #: Engine-clock timestamps: queue entry, admission (prefill start) and
    #: completion.  ``started_at`` stays ``None`` until admission — a
    #: simulated clock legitimately reads 0.0, so no timestamp value can
    #: stand for "not yet".
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: float = 0.0
    #: Cumulative model-forward time of the prompt prefill (all chunks plus
    #: the final Medusa-head evaluation) — the same region sequential
    #: decoding's ``DecodeResult.prefill_seconds`` times, so throughput
    #: columns compare like with like.  Prefix-cache lookups, K/V splicing
    #: and scheduler bookkeeping are excluded.
    prefill_seconds: float = 0.0
    #: Prompt tokens already present in :attr:`row_cache` (spliced prefix +
    #: prefilled chunks); prefill completes at ``prompt_len``.
    prefill_pos: int = 0
    #: Prompt tokens served from the cross-request prefix cache instead of
    #: being prefilled.
    tokens_reused: int = 0
    #: One ``(engine_clock_timestamp, num_tokens)`` entry per committed
    #: burst, in commit order — the raw series TTFT and inter-token-latency
    #: percentiles are computed from (:meth:`ServingEngine.stream_metrics`).
    commit_events: List[Tuple[float, int]] = field(default_factory=list)
    #: Observation-only streaming hooks, called with each committed token
    #: burst (a list of ids) right after it lands in :attr:`output_ids`.
    #: Listeners must not mutate engine state.
    commit_listeners: List[Callable[[List[int]], None]] = field(default_factory=list)
    #: Called exactly once when the request leaves the engine (``FINISHED``
    #: or ``CANCELLED``), after its result was frozen.
    done_listeners: List[Callable[["RequestState"], None]] = field(default_factory=list)
    #: True when the request was cancelled because its deadline expired
    #: (rather than by an explicit ``cancel`` call).
    timed_out: bool = False
    #: Admission rounds this request has waited in the queue; drives aging
    #: under priority scheduling (see ``PriorityConfig.aging_rounds``).
    waited_rounds: int = 0
    #: Monotonic submission sequence number stamped by the scheduler; the
    #: FCFS tie-breaker within an effective-priority level.
    submit_seq: int = 0
    #: Private batch-1 cache holding the prompt while the request is
    #: ``PREFILLING``; merged into the engine's shared cache (and dropped
    #: here) when prefill completes.
    row_cache: Optional[PagedKVCache] = None
    #: Base-head logits at the last committed position (``(V,)``).
    last_base: Optional[np.ndarray] = None
    #: Medusa-head logits at the last committed position.
    last_heads: List[np.ndarray] = field(default_factory=list)
    #: Per-request random generator, seeded from ``config.seed`` exactly like
    #: the sequential decoder so sampling runs are reproducible.
    rng: Optional[np.random.Generator] = None
    #: Per-request grammar mask (:class:`repro.constrained.mask
    #: .SyntaxMaskState`) built at admission from ``config.grammar``; ``None``
    #: for unconstrained requests, and every engine call site treats an
    #: absent mask as a strict no-op.
    grammar_mask: Optional[object] = None
    #: Trailing tokens appended by the grammar closure at finish (see
    #: :attr:`~repro.core.decoding.DecodeResult.closure_tokens`).
    closure_tokens: int = 0

    @property
    def prompt_len(self) -> int:
        return len(self.request.prompt_ids)

    @property
    def remaining_tokens(self) -> int:
        """New-token budget left before ``config.max_new_tokens`` is reached."""
        return self.request.config.max_new_tokens - len(self.output_ids)

    @property
    def latency_seconds(self) -> float:
        """Submission-to-completion latency (includes queueing delay)."""
        return max(self.finished_at - self.submitted_at, 0.0)

    @property
    def ttft_seconds(self) -> Optional[float]:
        """Submission-to-first-committed-token latency; None before any commit."""
        if not self.commit_events:
            return None
        return max(self.commit_events[0][0] - self.submitted_at, 0.0)

    def record_commit(self, tokens: List[int], timestamp: float) -> None:
        """Append a committed burst, stamp timing, and notify stream listeners.

        The single funnel every engine commit path goes through: tokens land
        in :attr:`output_ids` first, then the burst is timestamped and
        forwarded to listeners — so a listener always observes a state whose
        outputs already contain the burst it is being told about.

        Listeners are observation-only, and that isolation is enforced: a
        listener that raises (e.g. a stream consumer whose event loop was
        closed without detaching) is dropped, never allowed to abort the
        engine step mid-commit — one broken observer must not corrupt the
        shared cache or kill the other in-flight requests.
        """
        self.output_ids.extend(tokens)
        self.commit_events.append((timestamp, len(tokens)))
        broken = []
        for listener in self.commit_listeners:
            try:
                listener(list(tokens))
            except Exception:
                broken.append(listener)
        for listener in broken:
            self.commit_listeners.remove(listener)

    def notify_done(self) -> None:
        """Fire the done listeners (once; the engine calls this at finish/cancel).

        Like commit listeners, done listeners are isolated: one raising does
        not stop the others or propagate into the engine.
        """
        listeners, self.done_listeners = self.done_listeners, []
        for listener in listeners:
            try:
                listener(self)
            except Exception:
                pass

    def to_result(self, text: str, code: str) -> DecodeResult:
        """Freeze this request into the same result type sequential decoding returns.

        ``wall_time_seconds`` covers admission to completion (prefill +
        decode, excluding queueing) so per-token rates stay comparable with
        :meth:`SpeculativeDecoder.generate`; queueing delay is reported
        separately via :attr:`latency_seconds`.  A request cancelled before
        admission never started, so its wall time is 0.0 (``started_at`` is
        only stamped at admission).
        """
        started = self.finished_at if self.started_at is None else self.started_at
        return DecodeResult(
            token_ids=list(self.output_ids),
            text=text,
            code=code,
            steps=len(self.step_records),
            tokens_generated=len(self.output_ids),
            wall_time_seconds=max(self.finished_at - started, 0.0),
            step_records=list(self.step_records),
            stopped_by_eos=self.stopped_by_eos,
            prefill_seconds=self.prefill_seconds,
            prompt_tokens_reused=self.tokens_reused,
            cancelled=self.status is RequestStatus.CANCELLED,
            closure_tokens=self.closure_tokens,
        )
