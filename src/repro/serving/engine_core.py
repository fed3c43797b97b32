"""Pure step-execution core of the serving engine.

:class:`EngineCore` owns everything that happens *inside* an engine step —
admission, chunked prefill, the shared batched forward, speculative
verification, commit, KV/prefix-cache bookkeeping and retirement — and
nothing that happens at the serving boundary.  It never allocates request
ids, never validates prompts, never retains results beyond handing each
frozen :class:`~repro.core.decoding.DecodeResult` to its ``on_finish``
callback, and never touches threads or pipes.  The split is what lets the
same execution core sit behind three different fronts:

* :class:`~repro.serving.engine.ServingEngine` — the in-process façade
  (id allocation, validation, result retention, metrics);
* :class:`~repro.serving.control.EngineControl` — the message-driven surface
  (:mod:`repro.serving.messages`) the async server drives in-process;
* :class:`~repro.serving.worker.EngineWorker` — the same control surface
  behind a ``multiprocessing`` pipe, one core per process, sharded by the
  :class:`~repro.serving.router.Router`.

Decoding itself is not written here: once prompts are prefilled, each step
hands the running requests to the step kernel in :mod:`repro.core.decoding`
(:func:`~repro.core.decoding.ntp_step` /
:func:`~repro.core.decoding.speculative_step`), the same two functions
sequential :meth:`SpeculativeDecoder.generate` drives as a batch of one.
Every row of the shared batched forward computes exactly what a batch-1
forward over that row would compute, so committed tokens are identical to
sequential generation regardless of batching, chunking, prefix reuse or K/V
memory mode (see ``docs/serving.md``).
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional

import numpy as np

from repro.constrained.mask import grammar_mask
from repro.core.acceptance import TypicalAcceptance
from repro.core.decoding import (
    DecodeResult,
    DecodingStrategy,
    commit_grammar_closure,
    lane_done,
    ntp_step,
    propose_candidates,  # noqa: F401 - benchmarks/perf/layers.py wraps this name on this module
    select_best_candidate,  # noqa: F401 - likewise
    speculative_step,
    speculates,
    tree_headroom,
)
from repro.models.medusa import MedusaLM
from repro.nn.kv_cache import KVCache
from repro.nn.kv_pool import KVBlockPool, PagedKVCache
from repro.serving.prefix_cache import PrefixCache
from repro.serving.request import RequestState, RequestStatus, derive_request_rng
from repro.serving.scheduler import Scheduler, SchedulerConfig
from repro.tokenizer.bpe import BPETokenizer


class EngineCore:
    """Steps admitted requests through one shared batched forward per iteration.

    Args:
        model: A trained :class:`~repro.models.medusa.MedusaLM` with a
            decoder-only backbone.
        tokenizer: The tokenizer the model was trained with (grammar masks
            and final text decoding need it).
        strategy: Decoding regime applied to every request.
        acceptance: Typical-acceptance rule for sampling runs.
        num_candidates: Speculative candidates proposed per request per step.
        max_speculative_heads: Cap on the Medusa heads used for speculation.
        scheduler_config: Admission/fairness knobs.
        prefix_cache: Optional cross-request prefix cache.
        kv_memory: ``"paged"`` (block pool, the default) or ``"row"``
            (contiguous buffers, the token-identity oracle).
        kv_block_size: Tokens per physical block in paged mode.
        kv_pool_blocks: Paged pool capacity (``None`` sizes it from the
            scheduler budgets).
        on_finish: Called once per request as it leaves the core —
            ``on_finish(state, result)`` — with the frozen result.  The core
            itself retains nothing, which is what bounds a long-lived
            worker's memory.
        clock: Time source for every timestamp the core stamps — submission,
            admission, commits, completion, deadline expiry and the prefill
            timing accumulator.  Defaults to ``time.perf_counter`` (the wall
            clock).  The traffic harness injects a
            :class:`~repro.traffic.clock.SimulatedClock` here so whole load
            tests replay deterministically in virtual time: timestamps, TTFT
            series and deadline expiries then depend only on the trace and
            the replayer's cost model, never on host speed.
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
        on_finish: Optional[Callable[[RequestState, DecodeResult], None]] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if model.is_encoder_decoder:
            raise ValueError(
                "serving supports decoder-only backbones; encoder-decoder "
                "serving needs ragged cross-attention memories (not implemented)"
            )
        self.model = model
        self.tokenizer = tokenizer
        self.strategy = strategy
        self.acceptance = acceptance or TypicalAcceptance()
        self.num_candidates = max(1, num_candidates)
        self.max_speculative_heads = (
            model.num_medusa_heads
            if max_speculative_heads is None
            else min(max_speculative_heads, model.num_medusa_heads)
        )
        #: Which step kernel runs, and so whether prefill evaluates the heads.
        self.speculative = speculates(strategy, self.max_speculative_heads)
        self.scheduler = Scheduler(scheduler_config or SchedulerConfig())
        self.prefix_cache = prefix_cache
        self.on_finish = on_finish or (lambda state, result: None)
        #: Every timestamp the core produces flows through this callable.
        self.clock: Callable[[], float] = clock or time.perf_counter
        if kv_memory not in ("paged", "row"):
            raise ValueError(f"kv_memory must be 'paged' or 'row', got {kv_memory!r}")
        self.kv_memory = kv_memory
        self._pool: Optional[KVBlockPool] = None
        if kv_memory == "paged":
            self._pool = model.new_block_pool(
                block_size=kv_block_size,
                num_blocks=kv_pool_blocks or self._default_pool_blocks(kv_block_size),
            )
            # Last-resort reclaim before the pool raises KVPoolExhausted:
            # drop retained prefix-cache entries so their unshared blocks
            # return to the free list mid-allocation.
            self._pool.on_pressure = self._reclaim_pages
        #: Prompt tokens physically copied into cache rows by prefix-cache
        #: splices.  Row mode copies every reused position; paged mode
        #: aliases blocks, so this stays 0 — the zero-copy assertion the
        #: serving tests pin down.
        self.prefix_copy_tokens = 0
        #: Row-mode peak of summed live cache bytes (the paged pool tracks
        #: its own physical peak; see :meth:`kv_pool_stats`).
        self._kv_bytes_peak = 0
        if prefix_cache is not None:
            # Retained K/V is model-specific; binding rejects accidentally
            # sharing one cache across engines that wrap different models.
            prefix_cache.bind(model)
        #: Prompt tokens actually run through prefill forwards / served from
        #: retained K/V instead — the bench's prefill-savings numerator and
        #: denominator.  Counted per core (a shared PrefixCache carries its
        #: own cache-lifetime counters), so reports stay scoped to this
        #: core's traffic.
        self.tokens_prefilled_total = 0
        self.tokens_reused_total = 0
        self.prefix_hits = 0
        self.prefix_misses = 0
        vocab = tokenizer.vocab
        self.frag_id = vocab.frag_id
        self.eos_id = vocab.eos_id
        self.bos_id = vocab.bos_id
        self.max_seq_len = model.backbone.max_seq_len
        #: Shared ragged cache (``KVCache`` or ``PagedKVCache`` per
        #: ``kv_memory``): one row per entry of ``_active`` (same order).
        self._cache = None
        self._active: List[RequestState] = []
        #: Admitted requests whose prompts are still entering their private
        #: batch-1 caches (chunked prefill); FCFS order.
        self._prefilling: List[RequestState] = []
        #: In-flight requests carrying a deadline; pruned as they finish.
        self._deadlined: List[RequestState] = []

    # ------------------------------------------------------------------ #
    # K/V memory
    # ------------------------------------------------------------------ #

    def _default_pool_blocks(self, block_size: int) -> int:
        """Size the paged pool from the scheduler budgets.

        Worst-case committed context (the scheduler's token budget, plus one
        partially-filled tail block per request), plus the speculative
        verification transient (each request tiled once per candidate; every
        tile copy-on-writes its tail block and appends the speculative
        window), plus full prefix-cache retention, plus a small slack so
        transient chunked-prefill tails never graze the ceiling.
        """

        def blocks(tokens: int) -> int:
            return -(-tokens // block_size)

        cfg = self.scheduler.config
        decode = blocks(cfg.max_batch_tokens) + cfg.max_active_requests
        window = self.max_speculative_heads + 2
        speculative = cfg.max_active_requests * self.num_candidates * (1 + blocks(window))
        retention = blocks(self.prefix_cache.max_tokens) if self.prefix_cache is not None else 0
        return decode + speculative + retention + 8

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
        rounds into plus the verification transient (one copy-on-write tail
        block and a window's worth of fresh blocks per candidate tile), so
        an admitted batch can always complete a speculative step without
        tripping the pressure path.

        Free pages are reported net of the *outstanding* claims of requests
        admitted earlier: each in-flight request was admitted against its
        whole footprint-plus-overhead, but only holds the blocks its rows
        have grown into so far.  Handing the difference to a new admission
        would double-book the same pages across steps and drive a tight pool
        into :class:`~repro.nn.kv_pool.KVPoolExhausted` once both requests
        reach their peak.
        """
        if self._pool is None:
            return {}
        block_size = self._pool.block_size
        window = self.max_speculative_heads + 2
        overhead_blocks = 1 + self.num_candidates * (1 + -(-window // block_size))
        overhead_tokens = overhead_blocks * block_size
        reserved = 0
        for row, state in enumerate(self._active):
            held = self._cache.blocks_held(row) * block_size if self._cache is not None else 0
            reserved += max(0, state.request.footprint_tokens + overhead_tokens - held)
        for state in self._prefilling:
            held = state.row_cache.blocks_held(0) * block_size if state.row_cache is not None else 0
            reserved += max(0, state.request.footprint_tokens + overhead_tokens - held)
        return {
            "free_page_tokens": max(0, self._pool.num_free * block_size - reserved),
            "page_overhead_tokens": overhead_tokens,
        }

    def free_kv_tokens(self) -> Optional[int]:
        """Unreserved page capacity in tokens (``None`` in row mode).

        The backpressure number a worker reports to its router: how many
        prompt+output tokens new admissions could claim right now without
        deferral.
        """
        if self._pool is None:
            return None
        return self._admission_kwargs()["free_page_tokens"]

    def _new_row_cache(self):
        """Fresh single-row cache for a prefilling request, in the core's mode."""
        if self._pool is not None:
            return PagedKVCache(self._pool, batch=1)
        # Room for the candidate tree the step kernel appends before compaction.
        headroom = tree_headroom(self.num_candidates, self.max_speculative_heads)
        return self.model.new_cache(capacity=self.max_seq_len + headroom)

    def _concat(self, caches):
        """Merge caches into one shared batch, dispatching on the memory mode."""
        if self._pool is not None:
            return PagedKVCache.concat(caches)
        return KVCache.concat(caches)

    def _note_kv_bytes(self) -> None:
        """Track row-mode peak K/V bytes (paged mode: the pool tracks itself)."""
        if self._pool is None:
            self._kv_bytes_peak = max(self._kv_bytes_peak, self._row_kv_bytes())

    def _row_kv_bytes(self) -> int:
        total = self._cache.nbytes if self._cache is not None else 0
        for state in self._prefilling:
            if state.row_cache is not None:
                total += state.row_cache.nbytes
        return total

    def kv_pool_stats(self) -> dict:
        """K/V memory counters of this core, uniform across both modes.

        Paged mode reports the pool's physical truth — block occupancy,
        cross-row sharing, copy-on-write events, peak blocks ever resident —
        plus ``prefix_copy_tokens`` (always 0: prefix hits alias pages).
        Row mode reports the same keys with block fields ``None``/0, byte
        fields from the core-tracked sum of live contiguous buffers
        (*reserved* capacity, which is what row mode actually allocates),
        and ``prefix_copy_tokens`` counting every spliced position.  The
        shared-prefix memory bench compares ``peak_kv_bytes`` across modes.
        """
        if self._pool is not None:
            stats = self._pool.stats()
            stats["kv_memory"] = "paged"
            stats["prefix_copy_tokens"] = self.prefix_copy_tokens
            return stats
        in_use = self._row_kv_bytes()
        self._kv_bytes_peak = max(self._kv_bytes_peak, in_use)
        return {
            "kv_memory": "row",
            "block_size": None,
            "num_blocks": None,
            "blocks_in_use": None,
            "blocks_free": None,
            "occupancy": None,
            "shared_blocks": 0,
            "shared_block_ratio": 0.0,
            "cow_events": 0,
            "kv_bytes_in_use": in_use,
            "peak_kv_bytes": self._kv_bytes_peak,
            "prefix_copy_tokens": self.prefix_copy_tokens,
        }

    # ------------------------------------------------------------------ #
    # Intake
    # ------------------------------------------------------------------ #

    def enqueue(self, state: RequestState) -> None:
        """Hand a validated request state to the scheduler (front-ends call this).

        The front-end owns id allocation and validation; the core only takes
        custody — scheduler queue entry and, for deadlined requests, the
        expiry watch list.
        """
        state.submitted_at = self.clock()
        self.scheduler.submit(state)
        if state.request.deadline_seconds is not None:
            self._deadlined.append(state)

    def forget_deadline(self, state: RequestState) -> None:
        """Drop a settled request from the deadline watch list (see ``forget``)."""
        self._deadlined = [s for s in self._deadlined if s is not state]

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
        if self.speculative:
            self._cache, self._active, finished = speculative_step(
                self.model,
                self._cache,
                self._active,
                strategy=self.strategy,
                acceptance=self.acceptance,
                num_candidates=self.num_candidates,
                max_heads=self.max_speculative_heads,
                frag_id=self.frag_id,
                eos_id=self.eos_id,
                max_seq_len=self.max_seq_len,
                clock=self.clock,
            )
        else:
            self._cache, self._active, finished = ntp_step(
                self.model,
                self._cache,
                self._active,
                eos_id=self.eos_id,
                max_seq_len=self.max_seq_len,
                clock=self.clock,
            )
        for state in finished:
            self._finish(state)

    # -- cancellation and deadlines --------------------------------------- #

    def cancel_state(self, state: RequestState, timed_out: bool = False) -> bool:
        """Cancel a request, releasing every resource it holds *immediately*.

        Works in any pre-finished state and frees, in the same step: a queued
        request's slot in the waiting queue; a prefilling request's
        ``tokens_in_flight`` footprint, concurrency slot and private prefill
        row (including the retained prefix-cache K/V spliced into it); a
        running request's footprint, slot and its row of the shared KV cache
        (compacted out right here, not deferred to retirement).

        A partial :class:`~repro.core.decoding.DecodeResult` (``cancelled``
        set) is frozen through ``on_finish`` and done-listeners fire so
        streaming consumers unblock.  Returns True if the request was
        actually cancelled, False if it had already settled (cancellation
        after completion is a no-op, never an error).
        """
        if state.status in (RequestStatus.FINISHED, RequestStatus.CANCELLED):
            return False
        if state.status is RequestStatus.RUNNING:
            row = self._active.index(state)
            self._active.remove(state)
            if self._cache is not None:
                self._cache.select_rows([r for r in range(len(self._active) + 1) if r != row])
        elif state.status is RequestStatus.PREFILLING:
            self._prefilling.remove(state)
        self.scheduler.remove(state)
        # Dropping the private row releases the prefill K/V computed so far,
        # including any prefix-cache segment spliced in at admission; in
        # paged mode the explicit release returns its block refs to the pool
        # immediately (pages free now, not at garbage collection).
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
                self.cancel_state(state, timed_out=True)
            else:
                still_waiting.append(state)
        self._deadlined = still_waiting

    # -- admission and prefill ------------------------------------------- #

    def _admit(self) -> None:
        """Move newly admitted requests into prefill, splicing any reusable prefix.

        Each admitted request gets a fresh batch-1 cache row.  With a prefix
        cache attached, the longest retained prefix of the prompt (capped at
        ``prompt_len - 1`` so the suffix forward always produces the
        last-position logits that seed decoding) is spliced in — a zero-copy
        block-table alias in paged mode, a per-layer copy in row mode; the
        request then only prefills its suffix.

        In paged mode admission is additionally gated on the pool's free
        pages (:meth:`_admission_kwargs`); before asking the scheduler, the
        head-of-queue request pre-evicts retained prefix entries while it
        would not fit, so retention never starves admission.
        """
        if self._pool is not None and self.prefix_cache is not None and self.scheduler.waiting:
            head = self.scheduler.waiting[0]
            kwargs = self._admission_kwargs()
            needed = head.request.footprint_tokens + kwargs["page_overhead_tokens"]
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
            state.grammar_mask = grammar_mask(state.request.config.grammar, self.tokenizer)
            if lane_done(state, self.max_seq_len):
                # Nothing to decode (the prompt already fills the context
                # window, or the token budget is zero): finish with an empty
                # output, exactly like sequential generate.
                self._finish(state)
                continue
            state.row_cache = self._new_row_cache()
            state.rng = derive_request_rng(state.request)
            if self.prefix_cache is not None:
                matched, segment = self.prefix_cache.lookup(prompt, limit=len(prompt) - 1)
                if matched:
                    state.row_cache.splice_prefix(0, segment)
                    if self._pool is None:
                        # Row mode physically copies the reused positions;
                        # paged splices alias blocks and charge nothing here.
                        self.prefix_copy_tokens += matched
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
                chunk = np.asarray(
                    [prompt[state.prefill_pos : state.prefill_pos + chunk_len]], dtype=np.int64
                )
                forward_start = self.clock()
                base_logits, hidden = self.model.forward_hidden(chunk, cache=state.row_cache)
                if state.prefill_pos + chunk_len == len(prompt):
                    state.last_base = base_logits[0, -1]
                    if self.speculative:
                        state.last_heads = [h[0] for h in self.model.head_logits_at(hidden[:, -1])]
                state.prefill_seconds += self.clock() - forward_start
                state.prefill_pos += chunk_len
                self.tokens_prefilled_total += chunk_len
            if state.prefill_pos == len(prompt):
                ready.append(state)
            else:
                still_prefilling.append(state)
        self._prefilling = still_prefilling
        self._note_kv_bytes()
        if not ready:
            return
        new_caches: List = []
        for state in ready:
            prompt = state.request.prompt_ids
            if self.prefix_cache is not None and self.prefix_cache.would_retain(prompt):
                # snapshot_prefix is the mode-neutral retention hook: a
                # per-layer copy (KVSegment) in row mode, a refcounted block
                # pin (PagedPrefix, zero-copy) in paged mode.
                self.prefix_cache.insert(prompt, state.row_cache.snapshot_prefix(0, len(prompt)))
            state.status = RequestStatus.RUNNING
            new_caches.append(state.row_cache)
            state.row_cache = None
            self._active.append(state)
        existing = [self._cache] if self._cache is not None and self._cache.batch > 0 else []
        self._cache = self._concat(existing + new_caches)
        self._note_kv_bytes()

    # -- completion ------------------------------------------------------ #

    def _finish(self, state: RequestState, release: bool = True) -> None:
        """Freeze the request's result, hand it to ``on_finish``, notify listeners.

        ``release=True`` (the normal completion path) also evicts the request
        from the scheduler; cancellation passes ``release=False`` because
        :meth:`cancel_state` already removed it (and must not have its
        ``CANCELLED`` status overwritten by the scheduler's ``FINISHED``
        transition).
        """
        if state.status is not RequestStatus.CANCELLED:
            # Cancelled requests freeze their partial output untouched.
            commit_grammar_closure(state, self.tokenizer, self.clock())
        state.finished_at = self.clock()
        if release:
            self.scheduler.release(state)
        text = self.tokenizer.decode(state.output_ids, keep_frag=True)
        code = self.tokenizer.decode(state.output_ids, keep_frag=False)
        result = state.to_result(text, code)
        self.on_finish(state, result)
        # Drop the held logits so finished requests don't pin vocab-width
        # arrays for the core's lifetime.
        state.last_base = None
        state.last_heads = []
        state.notify_done()


__all__ = ["EngineCore"]
