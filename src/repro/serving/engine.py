"""Continuous-batching serving engine over the shared ragged KV cache.

:class:`ServingEngine` turns the single-stream speculative decoder into a
multi-request server: many in-flight requests advance through **one shared
batched forward per iteration**.  Each running request owns one row of a
shared cache; rows sit at different prefix lengths (the cache is *ragged*),
and every engine step:

1. **admits** queued requests the :class:`~repro.serving.scheduler.Scheduler`
   lets in, prefilling each prompt once and merging the new row into the
   shared cache (``KVCache.concat``).  With a
   :class:`~repro.serving.prefix_cache.PrefixCache` attached, the longest
   retained prefix of the prompt is spliced into the fresh row
   (``KVCache.splice_prefix``) and only the suffix is prefilled; with
   ``SchedulerConfig.max_prefill_tokens_per_step`` set, that prefill is
   paced in fixed-token chunks interleaved with decode steps (requests wait
   in the ``PREFILLING`` status) so long prompts never stall the in-flight
   batch;
2. **proposes** speculative candidates per request from the logits held at
   its last committed position (steps 2-4 are the step kernel in
   :mod:`repro.core.decoding`, the one the sequential decoder runs);
3. **verifies** all candidates of all requests in a single batched cached
   forward, one token tree per request;
4. **commits** each request's best accepted run and compacts the cache back
   to one row per request;
5. **retires** finished requests, reclaiming their cache rows and freeing
   scheduler budget so the next step can admit more work.

Since the multi-process sharding refactor, this class is a thin *front-end*:
all step execution, verification and K/V bookkeeping live in
:class:`~repro.serving.engine_core.EngineCore` (see its docstring for the
execution invariants), and ``ServingEngine`` adds exactly the in-process
serving boundary — request-id allocation, submission validation, result and
state retention (``result``/``forget``/``stream_metrics``/``request_status``),
and the streaming listener hooks.  The same core also sits behind the
message-driven :class:`~repro.serving.control.EngineControl`, which is how a
:class:`~repro.serving.worker.EngineWorker` process and the
:class:`~repro.serving.router.Router` drive it over a pipe; because all three
fronts share one core, the router with one worker is token-identical to this
class, which is token-identical to sequential
:meth:`SpeculativeDecoder.generate` per prompt (``tests/test_serving.py``
asserts the latter for all three strategies with 8 concurrent requests, in
both K/V memory modes; ``tests/test_router.py`` asserts the former).

**K/V memory** comes in two interchangeable flavours (``kv_memory``, see
``docs/kv-memory.md``): ``"paged"`` (the default; block tables over one
shared refcounted pool, zero-copy sharing with copy-on-write) and ``"row"``
(contiguous per-row buffers, the token-identity reference oracle).
:meth:`kv_pool_stats` reports occupancy, sharing and copy-on-write counters
either way.

Requests can be **cancelled** (:meth:`cancel`) or given a **deadline** at
submission; both free the request's scheduler budget, prefix-cache retention
copy and shared cache row in the same step, whether it was queued,
mid-prefill or decoding.  Every commit is funnelled through
:meth:`RequestState.record_commit`, the observation-only hook the async
front-end (:class:`~repro.serving.server.AsyncServingEngine`) turns into
``async for burst in handle.stream()``.

The engine serves decoder-only backbones; encoder-decoder models would
additionally need ragged cross-attention memories and are rejected at
construction.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.core.acceptance import TypicalAcceptance
from repro.core.decoding import DecodeResult, DecodingStrategy
from repro.models.generation import GenerationConfig
from repro.models.medusa import MedusaLM
from repro.serving.engine_core import EngineCore
from repro.serving.prefix_cache import PrefixCache
from repro.serving.request import GenerationRequest, RequestState, RequestStatus
from repro.serving.scheduler import Scheduler, SchedulerConfig
from repro.tokenizer.bpe import BPETokenizer


class ServingEngine:
    """Serves many generation requests through one shared batched forward per step.

    Args:
        model: A trained :class:`~repro.models.medusa.MedusaLM` with a
            decoder-only backbone.
        tokenizer: The tokenizer the model was trained with.
        strategy: Decoding regime applied to every request (``NTP`` commits
            one token per step; ``MEDUSA``/``OURS`` speculate with the extra
            heads).
        acceptance: Typical-acceptance rule for sampling runs (defaults to
            the paper's eq. 1 parameters).
        num_candidates: Speculative candidates proposed per request per step.
        max_speculative_heads: Cap on the Medusa heads used for speculation
            (defaults to all heads the model has).
        scheduler_config: Admission/fairness knobs; see
            :class:`~repro.serving.scheduler.SchedulerConfig`.
        prefix_cache: Optional cross-request
            :class:`~repro.serving.prefix_cache.PrefixCache`.  When given,
            admission reuses the longest retained prompt prefix instead of
            re-prefilling it, and every completed prefill is retained for
            later requests.  ``None`` (the default) disables reuse.
        kv_memory: K/V storage mode — ``"paged"`` (the default; block tables
            over one shared refcounted pool, zero-copy sharing with
            copy-on-write) or ``"row"`` (contiguous per-row buffers, the
            reference oracle).  Outputs are token-identical either way.
        kv_block_size: Tokens per physical block in paged mode.  Smaller
            blocks waste less capacity on partially-filled tails but cost
            more table indirection per gather.
        kv_pool_blocks: Total physical blocks in the paged pool.  ``None``
            sizes it from the scheduler budgets (worst-case committed
            context + speculative verification transient + prefix-cache
            retention); see :meth:`EngineCore._default_pool_blocks`.
        clock: Time source for every timestamp the engine stamps (defaults
            to ``time.perf_counter``).  The traffic harness
            (:mod:`repro.traffic`) injects a deterministic
            :class:`~repro.traffic.clock.SimulatedClock` so trace replays —
            TTFT/latency series, deadline expiry, admission timing — are
            reproducible in virtual time; see ``docs/traffic.md``.
    """

    def __init__(
        self,
        model: MedusaLM,
        tokenizer: BPETokenizer,
        strategy: DecodingStrategy = DecodingStrategy.OURS,
        acceptance: Optional[TypicalAcceptance] = None,
        num_candidates: int = 3,
        max_speculative_heads: Optional[int] = None,
        scheduler_config: Optional[SchedulerConfig] = None,
        prefix_cache: Optional[PrefixCache] = None,
        kv_memory: str = "paged",
        kv_block_size: int = 16,
        kv_pool_blocks: Optional[int] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.core = EngineCore(
            model=model,
            tokenizer=tokenizer,
            strategy=strategy,
            acceptance=acceptance,
            num_candidates=num_candidates,
            max_speculative_heads=max_speculative_heads,
            scheduler_config=scheduler_config,
            prefix_cache=prefix_cache,
            kv_memory=kv_memory,
            kv_block_size=kv_block_size,
            kv_pool_blocks=kv_pool_blocks,
            on_finish=self._on_core_finish,
            clock=clock,
        )
        self._states: Dict[str, RequestState] = {}
        self._results: Dict[str, DecodeResult] = {}
        self._next_id = 0

    def _on_core_finish(self, state: RequestState, result: DecodeResult) -> None:
        """Core completion hook: retain the frozen result under the request id."""
        self._results[state.request.request_id] = result

    # ------------------------------------------------------------------ #
    # Core delegation (the execution surface tests and tools poke at)
    # ------------------------------------------------------------------ #

    @property
    def model(self) -> MedusaLM:
        return self.core.model

    @property
    def tokenizer(self) -> BPETokenizer:
        return self.core.tokenizer

    @property
    def strategy(self) -> DecodingStrategy:
        return self.core.strategy

    @property
    def acceptance(self) -> TypicalAcceptance:
        return self.core.acceptance

    @property
    def num_candidates(self) -> int:
        return self.core.num_candidates

    @property
    def max_speculative_heads(self) -> int:
        return self.core.max_speculative_heads

    @property
    def scheduler(self) -> Scheduler:
        return self.core.scheduler

    @property
    def prefix_cache(self) -> Optional[PrefixCache]:
        return self.core.prefix_cache

    @property
    def kv_memory(self) -> str:
        return self.core.kv_memory

    @property
    def max_seq_len(self) -> int:
        return self.core.max_seq_len

    # Execution internals, delegated read-only so the serving tests keep
    # their white-box assertions (pool occupancy, live rows, deadline list).
    @property
    def _pool(self):
        return self.core._pool

    @property
    def _cache(self):
        return self.core._cache

    @property
    def _active(self) -> List[RequestState]:
        return self.core._active

    @property
    def _prefilling(self) -> List[RequestState]:
        return self.core._prefilling

    @property
    def _deadlined(self) -> List[RequestState]:
        return self.core._deadlined

    @property
    def prefix_copy_tokens(self) -> int:
        return self.core.prefix_copy_tokens

    @property
    def tokens_prefilled_total(self) -> int:
        return self.core.tokens_prefilled_total

    @property
    def tokens_reused_total(self) -> int:
        return self.core.tokens_reused_total

    @property
    def prefix_hits(self) -> int:
        return self.core.prefix_hits

    @property
    def prefix_misses(self) -> int:
        return self.core.prefix_misses

    def _admission_kwargs(self) -> dict:
        return self.core._admission_kwargs()

    def kv_pool_stats(self) -> dict:
        """K/V memory counters, uniform across both modes (see :meth:`EngineCore.kv_pool_stats`)."""
        return self.core.kv_pool_stats()

    # ------------------------------------------------------------------ #
    # Submission and results
    # ------------------------------------------------------------------ #

    def submit(
        self,
        prompt_ids: Sequence[int],
        config: Optional[GenerationConfig] = None,
        request_id: Optional[str] = None,
        priority: int = 0,
        deadline: Optional[float] = None,
    ) -> str:
        """Queue a tokenized prompt for generation; returns the request id.

        Validation happens here, at the submission boundary, rather than
        surfacing later as an obscure failure deep inside prefill: empty
        prompts and out-of-vocabulary token ids raise immediately (negative
        ids would otherwise wrap around the embedding table silently), and a
        duplicate ``request_id`` raises instead of clobbering the earlier
        request's result.  Auto-assigned ids skip over any ids the caller
        already used.

        Args:
            prompt_ids: Tokenized prompt (BOS included).
            config: Per-request decoding configuration (defaults to greedy).
            request_id: Caller-chosen id; auto-assigned when ``None``.
            priority: Admission priority class (higher admits sooner); only
                meaningful with ``SchedulerConfig(priorities=...)``.
            deadline: Optional wall-clock budget in seconds, measured from
                this call.  When it expires first, the request is cancelled
                at the next step boundary (``DecodeResult.cancelled`` with
                the partial output committed so far).
        """
        prompt = list(prompt_ids)
        if not prompt:
            raise ValueError("cannot serve an empty prompt")
        vocab_size = self.model.vocab_size
        for token in prompt:
            if not 0 <= int(token) < vocab_size:
                raise ValueError(
                    f"prompt token id {int(token)} outside the model vocabulary [0, {vocab_size})"
                )
        if request_id is None:
            while f"req-{self._next_id}" in self._states:
                self._next_id += 1
            request_id = f"req-{self._next_id}"
            self._next_id += 1
        elif not request_id:
            raise ValueError("request_id must be a non-empty string (or None to auto-assign)")
        if request_id in self._states:
            raise ValueError(f"duplicate request id {request_id!r}")
        if deadline is not None and deadline <= 0.0:
            raise ValueError(f"deadline must be positive (or None), got {deadline}")
        request = GenerationRequest(
            request_id=request_id,
            prompt_ids=prompt,
            config=config or GenerationConfig.greedy_config(),
            context_limit=self.max_seq_len,
            priority=priority,
            deadline_seconds=deadline,
        )
        state = RequestState(request=request, submitted_at=self.core.clock())
        self._states[request_id] = state
        self.core.enqueue(state)
        return request_id

    def submit_text(
        self,
        prompt: str,
        config: Optional[GenerationConfig] = None,
        request_id: Optional[str] = None,
        priority: int = 0,
        deadline: Optional[float] = None,
    ) -> str:
        """Tokenize ``prompt`` (adding BOS) and queue it for generation."""
        return self.submit(
            self.tokenizer.encode(prompt, add_bos=True), config, request_id, priority, deadline
        )

    @property
    def has_work(self) -> bool:
        """True while any request is queued or running."""
        return self.core.has_work

    @property
    def num_active(self) -> int:
        return self.core.num_active

    @property
    def num_prefilling(self) -> int:
        """Admitted requests whose prompts are still entering the cache."""
        return self.core.num_prefilling

    def prefix_cache_stats(self) -> dict:
        """Prefill accounting: reuse hit rate and prefilled-vs-reused tokens.

        Every number is scoped to *this engine's* traffic — a
        :class:`~repro.serving.prefix_cache.PrefixCache` may be shared
        between engines wrapping the same model, and mixing its
        cache-lifetime counters into a per-engine report would silently
        disagree with the per-engine token columns (the cache's own view
        stays available as ``engine.prefix_cache.stats``).  Meaningful with
        or without an attached cache: the no-reuse baseline reports its
        total prefilled prompt tokens here too, which is what the
        shared-prefix bench compares against.
        """
        reused = self.tokens_reused_total
        prefilled = self.tokens_prefilled_total
        total = reused + prefilled
        lookups = self.prefix_hits + self.prefix_misses
        return {
            "enabled": self.prefix_cache is not None,
            "prompt_tokens_prefilled": prefilled,
            "prompt_tokens_reused": reused,
            "prefill_savings": reused / total if total else 0.0,
            "hits": self.prefix_hits,
            "misses": self.prefix_misses,
            "hit_rate": self.prefix_hits / lookups if lookups else 0.0,
        }

    def result(self, request_id: str) -> DecodeResult:
        """Result of a finished request (KeyError while still in flight)."""
        return self._results[request_id]

    def forget(self, request_id: str) -> DecodeResult:
        """Drop a settled request's retained state; returns its final result.

        The engine keeps every request's :class:`RequestState` and result so
        ``result()``/``stream_metrics()`` work after completion — which on a
        long-lived server is an unbounded retention.  Callers that have
        consumed a request's result (e.g. a streaming front-end whose handle
        already holds it) call this to release the bookkeeping: the state,
        its commit timeline and the stored result are all dropped, and the
        request id becomes unknown again (reusable).  Only ``FINISHED`` or
        ``CANCELLED`` requests can be forgotten; forgetting an in-flight
        request raises ``ValueError``.
        """
        state = self._states[request_id]
        if state.status not in (RequestStatus.FINISHED, RequestStatus.CANCELLED):
            raise ValueError(f"request {request_id!r} is still in flight ({state.status.value})")
        del self._states[request_id]
        # The deadline watch list is otherwise pruned lazily inside step();
        # an idle server would retain the state through it indefinitely.
        if state.request.deadline_seconds is not None:
            self.core.forget_deadline(state)
        return self._results.pop(request_id)

    def scheduler_latency(self, request_id: str) -> float:
        """Submission-to-completion latency of a request, queueing included."""
        return self._states[request_id].latency_seconds

    def request_status(self, request_id: str) -> RequestStatus:
        """Current lifecycle status of a request (KeyError for unknown ids)."""
        return self._states[request_id].status

    def attach_listeners(
        self,
        request_id: str,
        on_commit: Optional[Callable[[List[int]], None]] = None,
        on_done: Optional[Callable[[RequestState], None]] = None,
    ) -> None:
        """Register observation-only streaming hooks on an in-flight request.

        ``on_commit`` receives each committed token burst right after it
        lands in the request's outputs; ``on_done`` fires once when the
        request leaves the engine (finished or cancelled), after its result
        was frozen.  Listeners must not mutate engine state — they exist so
        front-ends (like :class:`~repro.serving.server.AsyncServingEngine`)
        can observe commits without touching engine internals.  Attach
        before the first step that could advance the request, or the stream
        misses bursts.

        Raises:
            KeyError: Unknown ``request_id``.
            ValueError: The request already finished (its listeners would
                never fire).
        """
        state = self._states[request_id]
        if state.status in (RequestStatus.FINISHED, RequestStatus.CANCELLED):
            raise ValueError(f"request {request_id!r} already finished; listeners would never fire")
        if on_commit is not None:
            state.commit_listeners.append(on_commit)
        if on_done is not None:
            state.done_listeners.append(on_done)

    def stream_metrics(self, request_id: str) -> dict:
        """Streaming latency series of one request, from its commit timeline.

        Returns a dict with:

        * ``ttft_seconds`` — submission to first committed token (``None``
          until something commits; includes queueing and prefill, which is
          what a streaming client actually waits for);
        * ``inter_token_seconds`` — one entry per token after the *first
          burst*.  Tokens land in per-step bursts (simultaneously within a
          burst), so the gap between consecutive commit events is spread
          evenly over the later burst's tokens — the smoothed per-token
          rate, summing to last-commit minus first-commit exactly;
        * ``commit_events`` — the raw ``(seconds_since_submission,
          num_tokens)`` burst series.
        """
        state = self._states[request_id]
        events = [(t - state.submitted_at, n) for t, n in state.commit_events]
        inter_token: List[float] = []
        for (prev_t, _), (t, n) in zip(events, events[1:]):
            inter_token.extend([(t - prev_t) / n] * n)
        return {
            "ttft_seconds": state.ttft_seconds,
            "inter_token_seconds": inter_token,
            "commit_events": events,
        }

    def run(self) -> Dict[str, DecodeResult]:
        """Step until every submitted request has finished; return all results."""
        while self.has_work:
            self.step()
        return dict(self._results)

    def step(self) -> None:
        """Expire deadlines, admit what fits, advance prefills, step every running request."""
        self.core.step()

    def cancel(self, request_id: str, timed_out: bool = False) -> bool:
        """Cancel a request, releasing every resource it holds *immediately*.

        Works in any pre-finished state and frees, in the same step:

        * **queued** — its slot in the scheduler's waiting queue;
        * **prefilling** — its ``tokens_in_flight`` footprint and concurrency
          slot, plus its private prefill row (which also drops the retained
          prefix-cache K/V spliced into it at admission);
        * **running** — its footprint, concurrency slot and its row of the
          shared KV cache (compacted out right here, not deferred to the
          finished-request retirement path).

        A partial :class:`~repro.core.decoding.DecodeResult` (``cancelled``
        set, holding whatever tokens had committed) is frozen under the
        request id, and done-listeners fire so streaming consumers unblock.
        Returns True if the request was actually cancelled, False if it had
        already finished (or was already cancelled) — cancellation after
        completion is a no-op, never an error.

        Raises:
            KeyError: Unknown ``request_id``.
        """
        return self.core.cancel_state(self._states[request_id], timed_out=timed_out)


__all__ = ["ServingEngine"]
