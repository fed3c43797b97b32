"""Continuous-batching scheduler: admission and eviction under a token budget.

The scheduler decides *which* requests occupy rows of the shared KV cache;
the :class:`~repro.serving.ServingEngine` decides *what* happens to
the occupants each step.  The policy is deliberately simple and fair:

* **FCFS admission** — requests are admitted strictly in submission order;
  a large request at the head of the queue is never overtaken by a smaller
  one behind it (no starvation).  With
  :class:`SchedulerConfig.priorities <PriorityConfig>` configured, admission
  instead orders the queue by *effective priority* — the request's class
  plus an aging bonus that grows while it waits — so latency-sensitive
  traffic overtakes bulk traffic, but bulk traffic still cannot starve.
* **Token-budget cap** — each request's worst-case context footprint
  (``prompt_len + max_new_tokens``, clamped to the model's context window)
  is charged against ``max_batch_tokens`` while it is running, bounding the
  shared cache's memory and the width of the batched forward.
* **Concurrency cap** — at most ``max_active_requests`` rows run at once.
* **Prefill pacing** — ``max_prefill_tokens_per_step`` bounds how many
  prompt tokens the engine may prefill per engine step, so admitting a
  request with a long prompt cannot stall every in-flight decoder for the
  duration of one monolithic prefill (chunked prefill; requests sit in the
  ``PREFILLING`` status while their prompt enters the cache chunk by chunk).
* **Free-page gate** — with the engine's paged KV pool
  (:mod:`repro.nn.kv_pool`), admission is additionally capped by the pool's
  free pages: :meth:`Scheduler.admit` takes the engine-computed
  ``free_page_tokens`` budget and defers requests that would over-commit
  physical blocks, so page exhaustion surfaces as queueing (and resolves as
  running requests finish and free pages) instead of as a mid-step
  allocation failure.
* **Progress guarantee** — when nothing is running, the head-of-queue
  request is admitted even if it alone exceeds the token budget (or the
  free-page budget); otherwise an oversized request would deadlock the
  queue.

Eviction is cooperative: the engine calls :meth:`Scheduler.release` when a
request finishes (EOS, token budget, or context-window exhaustion), freeing
its budget so queued requests can be admitted at the next step boundary —
this is what makes the batching *continuous* rather than static.
Cancellation uses :meth:`Scheduler.remove`, which frees the same budget
whether the request was still queued or already admitted.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional

from repro.serving.request import RequestState, RequestStatus


@dataclass
class PriorityConfig:
    """Priority-class admission with aging (anti-starvation).

    Requests carry an integer :attr:`~repro.serving.request.GenerationRequest.priority`
    class (higher = more latency-sensitive).  At every admission round the
    queue is ordered by **effective priority**::

        effective = priority + waited_rounds // aging_rounds

    and ties (including everything within one class) break FCFS by
    submission order.  Because ``waited_rounds`` grows by one per admission
    round, a waiting request's effective priority rises without bound: after
    ``aging_rounds * gap`` rounds it overtakes fresh arrivals ``gap`` classes
    above it, so no class can starve another indefinitely — the aging knob
    trades how sharply priorities bite against how long bulk traffic may
    wait.

    Attributes:
        aging_rounds: Admission rounds a request must wait to gain one
            effective-priority level.  Smaller values age faster (weaker
            prioritisation, stronger fairness).
    """

    aging_rounds: int = 8

    def __post_init__(self) -> None:
        if self.aging_rounds < 1:
            raise ValueError(f"aging_rounds must be positive, got {self.aging_rounds}")

    def effective_priority(self, state: RequestState) -> int:
        """The request's priority class plus its accumulated aging bonus."""
        return state.request.priority + state.waited_rounds // self.aging_rounds


@dataclass
class SchedulerConfig:
    """Fairness/budget knobs of the continuous-batching scheduler.

    Attributes:
        max_active_requests: Upper bound on concurrently running requests
            (rows of the shared KV cache).
        max_batch_tokens: Upper bound on the summed worst-case footprints
            (``prompt_len + max_new_tokens``, clamped to the context window)
            of running requests.
        max_prefill_tokens_per_step: Per-step prefill-token budget.  When
            set, admitted prompts enter the cache in chunks of at most this
            many tokens per engine step (FCFS across ``PREFILLING``
            requests), interleaved with decode steps for the already-running
            batch; ``None`` prefills each admitted prompt whole at admission.
        priorities: Enable priority-class admission with aging
            (:class:`PriorityConfig`).  ``None`` (the default) keeps strict
            FCFS admission and ignores request priorities entirely.
    """

    max_active_requests: int = 8
    max_batch_tokens: int = 4096
    max_prefill_tokens_per_step: Optional[int] = None
    priorities: Optional[PriorityConfig] = None

    def __post_init__(self) -> None:
        if self.max_active_requests < 1:
            raise ValueError(f"max_active_requests must be positive, got {self.max_active_requests}")
        if self.max_batch_tokens < 1:
            raise ValueError(f"max_batch_tokens must be positive, got {self.max_batch_tokens}")
        if self.max_prefill_tokens_per_step is not None and self.max_prefill_tokens_per_step < 1:
            raise ValueError(
                f"max_prefill_tokens_per_step must be positive (or None), "
                f"got {self.max_prefill_tokens_per_step}"
            )


@dataclass
class Scheduler:
    """FCFS continuous-batching scheduler with a token-budget admission gate."""

    config: SchedulerConfig = field(default_factory=SchedulerConfig)
    waiting: Deque[RequestState] = field(default_factory=deque)
    running: List[RequestState] = field(default_factory=list)
    #: Monotonic submission counter; stamps ``RequestState.submit_seq`` (the
    #: FCFS tie-breaker under priority admission).
    submitted_count: int = 0

    # -- inspection ----------------------------------------------------------

    @property
    def num_waiting(self) -> int:
        return len(self.waiting)

    @property
    def num_running(self) -> int:
        return len(self.running)

    @property
    def tokens_in_flight(self) -> int:
        """Summed worst-case footprints of the currently running requests."""
        return sum(state.request.footprint_tokens for state in self.running)

    @property
    def has_work(self) -> bool:
        return bool(self.waiting or self.running)

    @property
    def prefill_budget_per_step(self) -> Optional[int]:
        """Prompt tokens the engine may prefill per step (``None`` = whole prompts)."""
        return self.config.max_prefill_tokens_per_step

    # -- transitions ---------------------------------------------------------

    def submit(self, state: RequestState) -> None:
        """Append a request to the admission queue (FCFS position stamped)."""
        state.status = RequestStatus.QUEUED
        state.submit_seq = self.submitted_count
        self.submitted_count += 1
        self.waiting.append(state)

    def head(self) -> Optional[RequestState]:
        """The queued request admission considers first (``None`` when idle).

        With ``SchedulerConfig.priorities`` set, this first reorders
        ``waiting`` by effective priority (class + aging bonus, FCFS within a
        level — see :class:`PriorityConfig`), exactly as :meth:`admit` does,
        so a caller sizing resources for the next admission sizes them for
        the request that will actually be tried.  The order is total and
        aging only advances inside :meth:`admit`, so calling this again
        before :meth:`admit` changes nothing.
        """
        policy = self.config.priorities
        if policy is not None and len(self.waiting) > 1:
            self.waiting = deque(
                sorted(self.waiting, key=lambda s: (-policy.effective_priority(s), s.submit_seq))
            )
        return self.waiting[0] if self.waiting else None

    def admit(
        self,
        free_page_tokens: Optional[int] = None,
        page_overhead_tokens: int = 0,
    ) -> List[RequestState]:
        """Pop queued requests that fit the concurrency, token and page budgets.

        Without priorities, admission is strictly in submission order and
        stops at the first request that does not fit, so later small requests
        cannot starve an earlier large one.  With
        ``SchedulerConfig.priorities`` set, the queue is first reordered by
        effective priority (:meth:`head`) and admission then proceeds
        identically over that order; every request still waiting afterwards
        ages by one round.
        Either way, if nothing is running the head request is admitted
        unconditionally (progress guarantee).

        Admitted requests enter the ``PREFILLING`` status (their prompt has
        yet to enter the cache); the engine flips them to ``RUNNING`` once
        prefill completes — instantly unless ``max_prefill_tokens_per_step``
        paces it.  They occupy budget and a ``running`` slot either way.

        Args:
            free_page_tokens: Paged-KV admission budget for *this round*:
                token capacity of the pool's currently-free blocks, minus any
                engine-held reserve.  Each admitted request is charged its
                worst-case footprint plus ``page_overhead_tokens`` against
                it; a request that does not fit is **deferred** (page
                exhaustion shows up as queueing, not as a mid-step
                allocation failure) until running requests finish and free
                their pages.  ``None`` disables the gate (the scheduler on
                its own, without an engine's pool behind it).
            page_overhead_tokens: Per-request page slack the engine reserves
                on top of the footprint: the partially-filled last block plus
                the transient copy-on-write blocks of speculative candidate
                tiling.
        """
        self.head()
        admitted: List[RequestState] = []
        tokens = self.tokens_in_flight
        pages_left = free_page_tokens
        while self.waiting:
            head = self.waiting[0]
            active = len(self.running)
            if active >= self.config.max_active_requests:
                break
            footprint = head.request.footprint_tokens
            fits_tokens = tokens + footprint <= self.config.max_batch_tokens
            page_cost = footprint + page_overhead_tokens
            fits_pages = pages_left is None or page_cost <= pages_left
            if not (fits_tokens and fits_pages) and active > 0:
                break
            self.waiting.popleft()
            head.status = RequestStatus.PREFILLING
            self.running.append(head)
            admitted.append(head)
            tokens += footprint
            if pages_left is not None:
                pages_left -= page_cost
        if self.config.priorities is not None:
            for state in self.waiting:
                state.waited_rounds += 1
        return admitted

    def release(self, state: RequestState) -> None:
        """Evict a finished request, freeing its token budget and cache row."""
        state.status = RequestStatus.FINISHED
        self.running.remove(state)

    def remove(self, state: RequestState) -> None:
        """Drop a request from the scheduler wherever it sits (cancellation).

        A queued request leaves the waiting queue; an admitted one
        (``PREFILLING`` or ``RUNNING``) leaves ``running``, immediately
        freeing its ``tokens_in_flight`` footprint and concurrency slot for
        the next admission round.  The caller owns the status transition.
        """
        if state in self.running:
            self.running.remove(state)
        else:
            try:
                self.waiting.remove(state)
            except ValueError:
                pass
