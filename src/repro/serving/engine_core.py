"""Continuous-batching serving engine over one paged, ragged KV cache.

:class:`ServingEngine` serves a :class:`~repro.core.decoding.SpeculativeDecoder`
to many requests at once: in-flight requests advance through **one shared
batched forward per iteration**.  The decoder owns the decoding policy — the
model, tokenizer, strategy, acceptance rule, candidate count and head cap —
and the three operations that apply it to a lane: ``prefill``, ``step`` and
``finish``.  The engine owns only what serving adds: the request table,
admission, the paged K/V memory and the step loop.  Each running request owns
one row of a shared :class:`~repro.nn.kv_pool.PagedKVCache`; rows sit at
different prefix lengths (the cache is *ragged*), and every engine step:

1. **admits** queued requests the :class:`~repro.serving.scheduler.Scheduler`
   lets in, prefills each prompt once (``decoder.prefill``) and merges the
   new row into the shared cache (``PagedKVCache.concat``).  With a
   :class:`~repro.serving.prefix_cache.PrefixCache` attached, the longest
   retained prefix of the prompt is aliased into the fresh row
   (``PagedKVCache.splice_prefix``, zero K/V copies) and only the suffix is
   prefilled; with ``SchedulerConfig.max_prefill_tokens_per_step`` set, that
   prefill is paced in fixed-token chunks interleaved with decode steps
   (requests wait in the ``PREFILLING`` status) so long prompts never stall
   the in-flight batch;
2. **steps** every running request with one ``decoder.step`` call — the step
   kernel of :mod:`repro.core.decoding`, which proposes candidates from the
   logits held at each request's last committed position, verifies all of
   them in a single batched cached forward (one token tree per request),
   commits each request's best accepted run and compacts each row in place
   to its committed tokens;
3. **retires** finished requests (``decoder.finish`` freezes the result),
   reclaiming their pages and freeing scheduler budget so the next step can
   admit more work.

:meth:`SpeculativeDecoder.generate_many` drives the same three operations
over lanes of one prompt in a row cache (``generate`` is one lane), so there
is one decoding policy and one place it is written.

The one class owns both halves of serving a request: the request table (id
allocation, submission validation, result and state retention behind
``result``/``forget``/``stream_metrics``/``request_status``, the streaming
listener hooks) and the step loop above.  It never touches threads or pipes;
the message-driven :class:`~repro.serving.control.EngineControl` translates
the :mod:`repro.serving.messages` vocabulary into calls on it, and the
transports (:class:`~repro.serving.server.AsyncServingEngine` in process,
:class:`~repro.serving.worker.EngineWorker` behind a pipe, sharded by the
:class:`~repro.serving.router.Router`) drive that control.  Every row of the
shared batched forward computes exactly what a batch-1 forward over that row
would compute, so committed tokens are identical to sequential generation
regardless of batching, chunking or prefix reuse (``tests/test_serving.py``
asserts it for all three strategies with 8 concurrent requests;
``tests/test_router.py`` asserts the router with one worker is
token-identical to this class).

**K/V memory** is one refcounted block pool per engine (see
``docs/kv-memory.md``): block tables over shared pages, zero-copy prefix
sharing with copy-on-write, page-gated admission.
:meth:`ServingEngine.kv_pool_stats` reports occupancy, sharing and
copy-on-write counters.

Requests can be **cancelled** (:meth:`ServingEngine.cancel`) or given a
**deadline** at submission; both free the request's scheduler budget, its
pages and its row of the shared cache in the same step, whether it was
queued, mid-prefill or decoding.  Every commit is funnelled through
:meth:`RequestState.record_commit`, the observation-only hook the async
front-end turns into ``async for burst in handle.stream()``.

The engine serves decoder-only backbones; encoder-decoder models would
additionally need ragged cross-attention memories and are rejected at
construction.

This module keeps the file name ``engine_core`` only because the frozen
benchmark (``benchmarks/perf/layers.py``) imports it by path and wraps
``propose_candidates`` / ``select_best_candidate`` on it by name.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence

from repro.constrained.mask import grammar_mask
from repro.core.decoding import (
    DecodeResult,
    SpeculativeDecoder,
    lane_done,
    propose_candidates,  # noqa: F401 - benchmarks/perf/layers.py wraps this name on this module
    select_best_candidate,  # noqa: F401 - likewise
)
from repro.models.generation import GenerationConfig
from repro.nn.kv_pool import PagedKVCache, blocks_for
from repro.serving.prefix_cache import PrefixCache
from repro.serving.request import GenerationRequest, RequestState, RequestStatus, derive_request_rng
from repro.serving.scheduler import Scheduler, SchedulerConfig


class ServingEngine:
    """Serves many generation requests through one shared batched forward per step.

    Args:
        decoder: The :class:`~repro.core.decoding.SpeculativeDecoder` whose
            policy every request is decoded with — its model (decoder-only
            backbone), tokenizer, strategy, acceptance rule, candidate count
            and head cap.  The engine prefills, steps and finishes requests
            only through the decoder's ``prefill`` / ``step`` / ``finish``,
            so a served request commits what ``decoder.generate`` commits.
        scheduler_config: Admission/fairness knobs; see
            :class:`~repro.serving.scheduler.SchedulerConfig`.
        prefix_cache: Optional cross-request
            :class:`~repro.serving.prefix_cache.PrefixCache`.  When given,
            admission reuses the longest retained prompt prefix instead of
            re-prefilling it, and every completed prefill is retained for
            later requests.  The engine binds the cache to its K/V pool,
            so a cache serves one engine.  ``None`` (the default) disables
            reuse.
        kv_block_size: Tokens per physical block of the K/V pool.  Smaller
            blocks waste less capacity on partially-filled tails but cost
            more table indirection per gather.
        kv_pool_blocks: Total physical blocks in the K/V pool, at least 1.
            ``None`` sizes it from the scheduler budgets (worst-case
            committed context + speculative verification transient +
            prefix-cache retention); see :meth:`_default_pool_blocks`.
        clock: Time source for every timestamp the engine stamps —
            submission, admission, commits, completion, deadline expiry and
            the prefill timing accumulator.  Defaults to
            ``time.perf_counter`` (the wall clock).  The traffic harness
            (:mod:`repro.traffic`) injects a deterministic
            :class:`~repro.traffic.clock.SimulatedClock` so trace replays —
            TTFT/latency series, deadline expiry, admission timing — depend
            only on the trace and the replayer's cost model, never on host
            speed; see ``docs/traffic.md``.
    """

    def __init__(
        self,
        decoder: SpeculativeDecoder,
        *,
        scheduler_config: Optional[SchedulerConfig] = None,
        prefix_cache: Optional[PrefixCache] = None,
        kv_block_size: int = 16,
        kv_pool_blocks: Optional[int] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        model = decoder.model
        if model.is_encoder_decoder:
            raise ValueError(
                "serving supports decoder-only backbones; encoder-decoder "
                "serving needs ragged cross-attention memories (not implemented)"
            )
        if kv_block_size < 1:
            raise ValueError(f"kv_block_size must be at least 1, got {kv_block_size}")
        if kv_pool_blocks is not None and kv_pool_blocks < 1:
            raise ValueError(f"kv_pool_blocks must be at least 1 (or None to size it), got {kv_pool_blocks}")
        self.decoder = decoder
        self.scheduler = Scheduler(scheduler_config or SchedulerConfig())
        self.prefix_cache = prefix_cache
        #: Every timestamp the engine produces flows through this callable.
        self.clock: Callable[[], float] = clock or time.perf_counter
        self._pool = model.new_block_pool(
            block_size=kv_block_size,
            num_blocks=self._default_pool_blocks(kv_block_size) if kv_pool_blocks is None else kv_pool_blocks,
        )
        # Last-resort reclaim before the pool raises KVPoolExhausted:
        # drop retained prefix-cache entries so their unshared blocks
        # return to the free list mid-allocation.
        self._pool.on_pressure = self._reclaim_pages
        if prefix_cache is not None:
            # Retained K/V lives in this engine's pool (of this model), so
            # binding rejects a cache another engine already uses.
            prefix_cache.bind(self._pool)
        #: Prompt tokens actually run through prefill forwards / served from
        #: retained K/V instead — the prefill-savings numerator and
        #: denominator.
        self.tokens_prefilled_total = 0
        self.tokens_reused_total = 0
        self.prefix_hits = 0
        self.prefix_misses = 0
        self.max_seq_len = model.backbone.max_seq_len
        #: Shared ragged cache: one row per entry of ``_active`` (same order).
        self._cache = PagedKVCache(self._pool)
        self._active: List[RequestState] = []
        #: Admitted requests whose prompts are still entering their private
        #: batch-1 caches (chunked prefill); FCFS order.
        self._prefilling: List[RequestState] = []
        #: In-flight requests carrying a deadline; pruned as they finish.
        self._deadlined: List[RequestState] = []
        #: Every submitted request and every frozen result, by request id,
        #: until :meth:`forget` drops them.
        self._states: Dict[str, RequestState] = {}
        self._results: Dict[str, DecodeResult] = {}
        self._next_id = 0

    # ------------------------------------------------------------------ #
    # K/V memory
    # ------------------------------------------------------------------ #

    def _default_pool_blocks(self, block_size: int) -> int:
        """Size the paged pool from the scheduler budgets.

        Worst-case committed context (the scheduler's token budget, plus one
        partially-filled tail block per request), plus the speculative
        verification transient, plus full prefix-cache retention, plus a
        small slack so transient chunked-prefill tails never graze the
        ceiling.  The transient is :meth:`_speculative_blocks` per running
        request.
        """
        cfg = self.scheduler.config
        decode = blocks_for(cfg.max_batch_tokens, block_size) + cfg.max_active_requests
        speculative = cfg.max_active_requests * self._speculative_blocks(block_size)
        retention = blocks_for(self.prefix_cache.max_tokens, block_size) if self.prefix_cache is not None else 0
        return decode + speculative + retention + 8

    def _speculative_blocks(self, block_size: int) -> int:
        """Pool blocks one running request's speculative verification may add.

        Per candidate, one tail block and the blocks of a ``heads + 2`` token
        window.  The kernel actually appends one deduplicated tree to the
        request's own row (at most :func:`~repro.core.decoding.tree_headroom`
        positions), so this bounds that append from above.
        """
        window = self.decoder.max_speculative_heads + 2
        return self.decoder.num_candidates * (1 + blocks_for(window, block_size))

    def _reclaim_pages(self) -> bool:
        """Pool-pressure hook: free pages by dropping a retained prefix entry.

        Returns True when an entry was evicted (the pool retries the
        allocation; each eviction strictly shrinks the prefix cache, so the
        retry loop terminates), False when nothing is reclaimable — at which
        point the pool raises :class:`~repro.nn.kv_pool.KVPoolExhausted`.
        """
        if self.prefix_cache is None:
            return False
        return self.prefix_cache.evict_lru()

    def _admission_kwargs(self) -> dict:
        """Scheduler.admit budgets: the pool's free pages, in tokens.

        The per-request overhead charges the tail block its footprint
        rounds into plus the verification transient
        (:meth:`_speculative_blocks`, as in :meth:`_default_pool_blocks`),
        so an admitted batch can always complete a speculative step without
        tripping the pressure path.

        Free pages are reported net of the *outstanding* claims of requests
        admitted earlier: each in-flight request was admitted against its
        whole footprint-plus-overhead, but only holds the blocks its rows
        have grown into so far.  Handing the difference to a new admission
        would double-book the same pages across steps and drive a tight pool
        into :class:`~repro.nn.kv_pool.KVPoolExhausted` once both requests
        reach their peak.
        """
        block_size = self._pool.block_size
        overhead_tokens = (1 + self._speculative_blocks(block_size)) * block_size
        reserved = 0
        for row, state in enumerate(self._active):
            held = self._cache.blocks_held(row) * block_size
            reserved += max(0, state.request.footprint_tokens + overhead_tokens - held)
        for state in self._prefilling:
            held = state.row_cache.blocks_held(0) * block_size if state.row_cache is not None else 0
            reserved += max(0, state.request.footprint_tokens + overhead_tokens - held)
        return {
            "free_page_tokens": max(0, self._pool.num_free * block_size - reserved),
            "page_overhead_tokens": overhead_tokens,
        }

    def free_kv_tokens(self) -> int:
        """Unreserved page capacity in tokens.

        The backpressure number a worker reports to its router: how many
        prompt+output tokens new admissions could claim right now without
        deferral.
        """
        return self._admission_kwargs()["free_page_tokens"]

    def kv_pool_stats(self) -> dict:
        """K/V memory counters of this engine: the pool's physical truth.

        Block occupancy, cross-row sharing, copy-on-write events and peak
        blocks ever resident (see :meth:`KVBlockPool.stats
        <repro.nn.kv_pool.KVBlockPool.stats>`), plus ``prefix_copy_tokens``,
        always 0 because prefix hits alias pages instead of copying them.
        """
        # prefix_copy_tokens stays a key because benchmarks/perf/workloads.py
        # reports it as nn.kv.prefix_copy_tokens.
        return {**self._pool.stats(), "prefix_copy_tokens": 0}

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
        vocab_size = self.decoder.model.vocab_size
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
        state = RequestState(request=request, submitted_at=self.clock())
        self._states[request_id] = state
        self.scheduler.submit(state)
        if deadline is not None:
            self._deadlined.append(state)
        return request_id

    def submit_text(
        self,
        prompt: str,
        config: Optional[GenerationConfig] = None,
        request_id: Optional[str] = None,
        priority: int = 0,
        deadline: Optional[float] = None,
    ) -> str:
        """Tokenize ``prompt`` (:meth:`BPETokenizer.encode_prompt`) and queue it for generation."""
        return self.submit(self.decoder.tokenizer.encode_prompt(prompt), config, request_id, priority, deadline)

    @property
    def has_work(self) -> bool:
        """True while any request is queued or running."""
        return self.scheduler.has_work

    @property
    def num_active(self) -> int:
        return len(self._active)

    @property
    def num_prefilling(self) -> int:
        """Admitted requests whose prompts are still entering the cache."""
        return len(self._prefilling)

    def prefix_cache_stats(self) -> dict:
        """Prefill accounting: reuse hit rate and prefilled-vs-reused tokens.

        Every number is counted by the engine itself (the cache's own
        counters stay available as ``engine.prefix_cache.stats``), so the
        report is meaningful with or without an attached cache: the no-reuse
        baseline reports its total prefilled prompt tokens here too, which is
        what the shared-prefix bench compares against.
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
            self._deadlined = [s for s in self._deadlined if s is not state]
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

    # ------------------------------------------------------------------ #
    # One engine iteration
    # ------------------------------------------------------------------ #

    def step(self) -> None:
        """Expire deadlines, admit what fits, advance prefills, step every running request."""
        self._expire_deadlines()
        self._admit()
        self._advance_prefill()
        if not self._active:
            return
        self._active, finished = self.decoder.step(self._cache, self._active, self.clock)
        for state in finished:
            self._finish(state)

    # -- cancellation and deadlines --------------------------------------- #

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
        completion is a no-op, never an error.  ``timed_out`` marks the
        cancellation as a deadline expiry (what :meth:`step` passes).

        Raises:
            KeyError: Unknown ``request_id``.
        """
        state = self._states[request_id]
        if state.status in (RequestStatus.FINISHED, RequestStatus.CANCELLED):
            return False
        if state.status is RequestStatus.RUNNING:
            row = self._active.index(state)
            self._active.remove(state)
            self._cache.select_rows([r for r in range(len(self._active) + 1) if r != row])
        elif state.status is RequestStatus.PREFILLING:
            self._prefilling.remove(state)
        self.scheduler.remove(state)
        # Releasing the private row returns the block refs of the prefill K/V
        # computed so far, including any retained prefix spliced in at
        # admission, to the pool now (not at garbage collection).
        if state.row_cache is not None:
            state.row_cache.release()
        state.row_cache = None
        state.status = RequestStatus.CANCELLED
        state.timed_out = timed_out
        self._finish(state, release=False)
        return True

    def _expire_deadlines(self) -> None:
        """Cancel in-flight requests whose submission deadline has passed."""
        if not self._deadlined:
            return
        now = self.clock()
        still_waiting: List[RequestState] = []
        for state in self._deadlined:
            if state.status in (RequestStatus.FINISHED, RequestStatus.CANCELLED):
                continue
            if now - state.submitted_at >= state.request.deadline_seconds:
                self.cancel(state.request.request_id, timed_out=True)
            else:
                still_waiting.append(state)
        self._deadlined = still_waiting

    # -- admission and prefill ------------------------------------------- #

    def _admit(self) -> None:
        """Move newly admitted requests into prefill, splicing any reusable prefix.

        Each admitted request gets a fresh batch-1 row over the engine's
        pool.  With a prefix cache attached, the longest retained prefix of
        the prompt (capped at ``prompt_len - 1`` so the suffix forward always
        produces the last-position logits that seed decoding) is spliced in
        as a zero-copy block-table alias; the request then only prefills its
        suffix.

        Admission is gated on the pool's free pages
        (:meth:`_admission_kwargs`); before asking the scheduler, the request
        it will consider first (:meth:`Scheduler.head
        <repro.serving.scheduler.Scheduler.head>`, so priority order
        included) pre-evicts retained prefix entries while it would not fit,
        so retention never starves admission.
        """
        head = self.scheduler.head() if self.prefix_cache is not None else None
        if head is not None:
            needed = head.request.footprint_tokens + self._admission_kwargs()["page_overhead_tokens"]
            while (
                self._admission_kwargs()["free_page_tokens"] < needed
                and self.prefix_cache.evict_lru()
            ):
                pass
        for state in self.scheduler.admit(**self._admission_kwargs()):
            state.started_at = self.clock()
            prompt = state.request.prompt_ids
            # Built before the budget check so even a prompt-overflow finish
            # runs the grammar closure, exactly like sequential generate.
            state.grammar_mask = grammar_mask(state.request.config.grammar, self.decoder.tokenizer)
            if lane_done(state, self.max_seq_len):
                # Nothing to decode (the prompt already fills the context
                # window, or the token budget is zero): finish with an empty
                # output, exactly like sequential generate.
                self._finish(state)
                continue
            state.row_cache = PagedKVCache(self._pool, batch=1)
            state.rng = derive_request_rng(state.request)
            if self.prefix_cache is not None:
                matched, prefix = self.prefix_cache.lookup(tuple(prompt), limit=len(prompt) - 1)
                if matched:
                    state.row_cache.splice_prefix(0, prefix)
                    state.prefill_pos = matched
                    state.tokens_reused = matched
                    self.tokens_reused_total += matched
                    self.prefix_hits += 1
                else:
                    self.prefix_misses += 1
            self._prefilling.append(state)

    def _advance_prefill(self) -> None:
        """Prefill prompt chunks under the per-step budget; activate finished prompts.

        ``SchedulerConfig.max_prefill_tokens_per_step`` bounds the prompt
        tokens forwarded this step, FCFS across prefilling requests (``None``
        = prefill whole prompts immediately, the unchunked behaviour).
        Chunking is a pure compute-layout change: a chunk's forward attends
        over the cached earlier chunks exactly as those positions attend in a
        monolithic prefill, so the resulting K/V and last-position logits are
        identical.

        A request whose last prompt token was forwarded takes its Medusa-head
        logits from that final chunk, has its prompt retained in the prefix
        cache, and joins the running batch (its private row is merged into
        the shared cache).  ``prefill_seconds`` accumulates only the model
        forwards (plus the final head evaluation), matching sequential
        decoding's ``DecodeResult.prefill_seconds``; splicing, retention and
        scheduling bookkeeping are excluded.
        """
        if not self._prefilling:
            return
        budget = self.scheduler.prefill_budget_per_step
        still_prefilling: List[RequestState] = []
        ready: List[RequestState] = []
        for state in self._prefilling:
            prompt = state.request.prompt_ids
            # At most one forward per prefilling request per step: the chunk
            # either finishes the prompt or exhausts the step budget.
            if state.prefill_pos < len(prompt) and (budget is None or budget > 0):
                chunk_len = len(prompt) - state.prefill_pos
                if budget is not None:
                    chunk_len = min(chunk_len, budget)
                    budget -= chunk_len
                end = state.prefill_pos + chunk_len
                self.decoder.prefill(
                    state, state.row_cache, prompt[state.prefill_pos : end], final=end == len(prompt), clock=self.clock
                )
                state.prefill_pos += chunk_len
                self.tokens_prefilled_total += chunk_len
            if state.prefill_pos == len(prompt):
                ready.append(state)
            else:
                still_prefilling.append(state)
        self._prefilling = still_prefilling
        if not ready:
            return
        new_caches: List[PagedKVCache] = []
        for state in ready:
            if self.prefix_cache is not None:
                key = tuple(state.request.prompt_ids)
                if self.prefix_cache.would_retain(key):
                    # Retention pins the prompt's blocks by refcount (zero-copy).
                    self.prefix_cache.insert(key, state.row_cache.snapshot_prefix(0, len(key)))
            state.status = RequestStatus.RUNNING
            new_caches.append(state.row_cache)
            state.row_cache = None
            self._active.append(state)
        self._cache = PagedKVCache.concat([self._cache] + new_caches)

    # -- completion ------------------------------------------------------ #

    def _finish(self, state: RequestState, release: bool = True) -> None:
        """Freeze the request's result under its id, then notify done-listeners.

        ``release=True`` (the normal completion path) also evicts the request
        from the scheduler; cancellation passes ``release=False`` because
        :meth:`cancel` already removed it (and must not have its
        ``CANCELLED`` status overwritten by the scheduler's ``FINISHED``
        transition).
        """
        result = self.decoder.finish(state, self.clock)
        if release:
            self.scheduler.release(state)
        self._results[state.request.request_id] = result
        state.notify_done()


__all__ = ["ServingEngine"]
