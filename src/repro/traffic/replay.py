"""Trace replay against the serving stack, on a wall or simulated clock.

:func:`replay_trace` drives a :class:`~repro.serving.ServingEngine`
through a :class:`~repro.traffic.trace.Trace` synchronously, with the serve
loop both transports use: each iteration turns the due arrivals (after the
optional :class:`~repro.traffic.admission.AdmissionController`) and the due
scheduled cancellations into commands, serves them with one
:meth:`EngineControl.pump <repro.serving.control.EngineControl.pump>`, and
reads the step's committed tokens, first commits and finished events from
what the pump hands back.  The pump forgets each request as it settles, so
the engine retains nothing after the replay.  Two clock regimes share the
one loop:

* **simulated** (:class:`~repro.traffic.clock.SimulatedClock`) — the engine
  must have been built with the *same* clock object.  After every engine
  step the loop advances virtual time by the :class:`StepCostModel` (a
  fixed per-step cost plus per-token prefill and decode costs, from the
  engine's prefill counter and the step's committed tokens), and idle gaps
  jump straight to the next due event.  Nothing reads the wall clock, so the
  entire replay — per-request token streams, TTFT/latency series, deadline
  expiries, admission decisions — is a deterministic function of
  ``(trace, cost model, SLO config)``.  This is the regime CI pins down
  (``tests/golden/replay_overload.json``).
* **wall** (:class:`~repro.traffic.clock.WallClock`, the default) — idle
  gaps become real sleeps and step costs are whatever the hardware does.
  Token streams are still deterministic (greedy decoding, seeded sampling);
  the latency columns are not.

:func:`replay_trace_async` replays the same trace against the
:class:`~repro.serving.server.AsyncServingEngine` front-end on the wall
clock (the background step thread owns stepping, so only arrivals are
paced), and :func:`replay_trace_router` does the same against a running
:class:`~repro.serving.router.Router`.  All three produce the same
:class:`ReplayReport` shape, so consumers read one schema regardless of
the serving front-end, and all three build each served request's
:class:`RequestOutcome` from its :class:`~repro.serving.messages.FinishedEvent`
with one function and one status rule, and keep the event's stream metrics
for the ops dashboard.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.evalbench.stats import summarize_series
from repro.models.generation import GenerationConfig
from repro.serving.control import EngineControl, Pumped
from repro.serving.engine_core import ServingEngine
from repro.serving.messages import CancelCommand, FinishedEvent, SubmitCommand, encode_config
from repro.traffic.admission import AdmissionController, AdmissionDecision
from repro.traffic.clock import SimulatedClock, WallClock
from repro.traffic.trace import Trace, TraceRequest

#: Seconds after which a request the admission gate deferred is offered again.
DEFER_RETRY_SECONDS = 0.05


@dataclass
class StepCostModel:
    """Virtual time charged per engine step under a simulated clock.

    Attributes:
        step_seconds: Fixed overhead per engine step.
        prefill_token_seconds: Cost per prompt token actually prefilled
            during the step (prefix-cache hits cost nothing, so reuse shows
            up as faster virtual TTFT — same shape as real serving).
        decode_token_seconds: Cost per token committed during the step.
    """

    step_seconds: float = 0.002
    prefill_token_seconds: float = 0.0005
    decode_token_seconds: float = 0.001

    def cost(self, prefill_tokens: int, committed_tokens: int) -> float:
        """Virtual seconds one step took given its token work."""
        return (
            self.step_seconds
            + self.prefill_token_seconds * prefill_tokens
            + self.decode_token_seconds * committed_tokens
        )


@dataclass
class RequestOutcome:
    """Final per-request record a replay produces.

    ``status`` is one of ``"finished"``, ``"cancelled"`` (the trace's
    scheduled cancel fired), ``"deadline"`` (the engine expired the
    request's deadline) or ``"shed"`` (the admission controller rejected
    it; such requests never reach the engine and have no token stream).
    """

    request_id: str
    tenant: str
    traffic_class: str
    status: str
    token_ids: List[int] = field(default_factory=list)
    submitted_at: Optional[float] = None
    ttft_seconds: Optional[float] = None
    latency_seconds: Optional[float] = None
    defer_count: int = 0

    def to_dict(self) -> Dict:
        return {
            "request_id": self.request_id,
            "tenant": self.tenant,
            "traffic_class": self.traffic_class,
            "status": self.status,
            "token_ids": list(self.token_ids),
            "submitted_at": self.submitted_at,
            "ttft_seconds": self.ttft_seconds,
            "latency_seconds": self.latency_seconds,
            "defer_count": self.defer_count,
        }


@dataclass
class ReplayReport:
    """Aggregate outcome of one trace replay.

    The latency columns use the shared
    :func:`~repro.evalbench.stats.summarize_series` shape
    (``count``/``mean``/``p50``/``p95``), keyed per traffic class.
    ``stream_metrics`` holds each served request's
    :attr:`FinishedEvent.stream_metrics <repro.serving.messages.FinishedEvent>`
    by request id, what the ops dashboard's snapshot is built from; it is
    left out of :meth:`to_dict`.
    """

    outcomes: List[RequestOutcome]
    duration_seconds: float
    steps: int
    clock_mode: str
    admission: Optional[Dict] = None
    kv_pool: Dict = field(default_factory=dict)
    prefix_cache: Dict = field(default_factory=dict)
    stream_metrics: Dict[str, Dict] = field(default_factory=dict)

    @property
    def total_tokens(self) -> int:
        return sum(len(o.token_ids) for o in self.outcomes)

    def by_status(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for outcome in self.outcomes:
            counts[outcome.status] = counts.get(outcome.status, 0) + 1
        return counts

    def class_summary(self, traffic_class: str) -> Dict:
        """TTFT/latency/shed summary for one traffic class."""
        members = [o for o in self.outcomes if o.traffic_class == traffic_class]
        served = [o for o in members if o.status != "shed"]
        return {
            "requests": len(members),
            "served": len(served),
            "shed": sum(1 for o in members if o.status == "shed"),
            "deferred_attempts": sum(o.defer_count for o in members),
            "tokens": sum(len(o.token_ids) for o in served),
            "ttft": summarize_series([o.ttft_seconds for o in served]),
            "latency": summarize_series([o.latency_seconds for o in served]),
        }

    def to_dict(self) -> Dict:
        """JSON-compatible report (deterministic under a simulated clock)."""
        classes = sorted({o.traffic_class for o in self.outcomes})
        duration = self.duration_seconds
        return {
            "schema": "repro.traffic.replay.v1",
            "clock_mode": self.clock_mode,
            "num_requests": len(self.outcomes),
            "duration_seconds": duration,
            "steps": self.steps,
            "total_tokens": self.total_tokens,
            "requests_per_second": len(self.outcomes) / duration if duration else 0.0,
            "tokens_per_second": self.total_tokens / duration if duration else 0.0,
            "by_status": self.by_status(),
            "classes": {c: self.class_summary(c) for c in classes},
            "admission": self.admission,
            "kv_pool": dict(self.kv_pool),
            "prefix_cache": dict(self.prefix_cache),
            "outcomes": [o.to_dict() for o in self.outcomes],
        }


@dataclass
class _Flight:
    """Replayer-side bookkeeping for one admitted request."""

    trace_request: TraceRequest
    submitted_at: float
    order: int  # submission order, which the TTFT feed follows
    defer_count: int = 0
    ttft_observed: bool = False


def _request_outcome(
    request: TraceRequest, submitted_at: float, event: FinishedEvent, defer_count: int = 0
) -> RequestOutcome:
    """The outcome of a served request, from the event that says how it ended.

    The one status rule of every replay: the engine, not the trace, says
    what cut a request — ``timed_out`` is ``"deadline"``, any other
    cancellation ``"cancelled"`` (the replay's scheduled cancel is the only
    other canceller), and a request that ran to completion ``"finished"``.
    Tokens, TTFT and latency are the event's, on the serving engine's clock.
    """
    if event.timed_out:
        status = "deadline"
    elif event.cancelled:
        status = "cancelled"
    else:
        status = "finished"
    return RequestOutcome(
        request_id=request.request_id,
        tenant=request.tenant,
        traffic_class=request.traffic_class,
        status=status,
        token_ids=list(event.result["token_ids"]),
        submitted_at=submitted_at,
        ttft_seconds=event.stream_metrics["ttft_seconds"],
        latency_seconds=event.latency_seconds,
        defer_count=defer_count,
    )


def _request_config(request: TraceRequest) -> GenerationConfig:
    """Greedy decoding sized to the trace request's budget (deterministic)."""
    return GenerationConfig.greedy_config(max_new_tokens=request.max_new_tokens)


def replay_trace(
    engine: ServingEngine,
    trace: Trace,
    clock: Optional[object] = None,
    cost_model: Optional[StepCostModel] = None,
    admission: Optional[AdmissionController] = None,
) -> ReplayReport:
    """Replay ``trace`` against a synchronous engine; returns the report.

    The engine is served through an :class:`EngineControl`, which forgets
    each request as it settles: afterwards ``engine.result(rid)`` raises
    ``KeyError``, and the report is the record.

    Args:
        engine: The serving engine to drive.  Under a
            :class:`SimulatedClock` it must have been constructed with the
            same clock object (``engine_for(..., clock=clock)``), or its
            timestamps would disagree with the replay's.
        trace: The trace to replay.
        clock: :class:`SimulatedClock` or :class:`WallClock` (default wall).
        cost_model: Virtual step costs (simulated clock only).
        admission: Optional SLO-aware gate consulted before every submit;
            deferred requests are retried every :data:`DEFER_RETRY_SECONDS`.

    Raises:
        ValueError: Simulated clock that the engine does not share.
    """
    clock = clock or WallClock()
    simulated = isinstance(clock, SimulatedClock)
    if simulated and engine.clock is not clock:
        raise ValueError(
            "simulated replay requires the engine to share the replay clock; "
            "construct it with engine_for(..., clock=clock)"
        )
    cost_model = cost_model or StepCostModel()
    control = EngineControl(engine)

    pending: List[TraceRequest] = sorted(trace.requests, key=lambda r: (r.arrival_seconds, r.request_id))
    next_pending = 0
    deferred: List[tuple] = []  # heap of (retry_at, request_id, TraceRequest, defer_count)
    cancels: List[tuple] = []  # heap of (cancel_at, submission order, request_id)
    flights: Dict[str, _Flight] = {}  # admitted and not yet settled
    outcomes: Dict[str, RequestOutcome] = {}
    stream_metrics: Dict[str, Dict] = {}
    submissions = itertools.count()
    start = clock()

    def admit(request: TraceRequest, defer_count: int) -> Optional[SubmitCommand]:
        """Consult admission, then submit / defer / shed one request."""
        now = clock()
        if admission is not None:
            decision = admission.decide(
                request.tenant, request.traffic_class, request.max_new_tokens, now
            )
            if decision is AdmissionDecision.SHED:
                outcomes[request.request_id] = RequestOutcome(
                    request_id=request.request_id,
                    tenant=request.tenant,
                    traffic_class=request.traffic_class,
                    status="shed",
                    defer_count=defer_count,
                )
                return None
            if decision is AdmissionDecision.DEFER:
                heapq.heappush(deferred, (now + DEFER_RETRY_SECONDS, request.request_id, request, defer_count + 1))
                return None
        order = next(submissions)
        flights[request.request_id] = _Flight(request, now, order, defer_count)
        if request.cancel_after is not None:
            heapq.heappush(cancels, (now + request.cancel_after, order, request.request_id))
        return SubmitCommand(
            prompt_ids=engine.decoder.tokenizer.encode_prompt(request.prompt),
            config=encode_config(_request_config(request)),
            request_id=request.request_id,
            priority=request.priority,
            deadline=request.deadline_seconds,
        )

    def pop_due(heap: List[tuple], now: float) -> List[tuple]:
        due = []
        while heap and heap[0][0] <= now + 1e-12:
            due.append(heapq.heappop(heap))
        return due

    def due_commands() -> List[object]:
        """Submits for the due arrivals and deferred retries, then the due cancels."""
        nonlocal next_pending
        submits = []
        now = clock()
        while next_pending < len(pending) and pending[next_pending].arrival_seconds <= now - start + 1e-12:
            submits.append(admit(pending[next_pending], 0))
            next_pending += 1
        # Retry in original trace order so recovery cannot starve an early
        # request behind later arrivals.
        for _, _, request, count in sorted(pop_due(deferred, now), key=lambda d: d[1]):
            submits.append(admit(request, count))
        # Cancels go in submission order.  One for a request that already
        # settled is a no-op: its finished event says what cut it.
        cancels_due = sorted(pop_due(cancels, clock()), key=lambda c: c[1])
        return [s for s in submits if s is not None] + [CancelCommand(request_id=c[2]) for c in cancels_due]

    def observe_ttfts(pumped: Pumped) -> None:
        """Feed the TTFT of each interactive request that first committed, in submission order."""
        settled = {event.request_id: event.stream_metrics for event in pumped.finished}
        first = []
        for commit in pumped.commits:
            flight = flights[commit.request_id]
            if not flight.ttft_observed and flight.trace_request.traffic_class == "interactive":
                flight.ttft_observed = True
                first.append(flight)
        now = clock()
        for flight in sorted(first, key=lambda f: f.order):
            rid = flight.trace_request.request_id
            metrics = settled[rid] if rid in settled else engine.stream_metrics(rid)
            admission.observe_ttft(metrics["ttft_seconds"], now)

    def next_event_time() -> Optional[float]:
        # Consulted only while the engine is idle, when every flight has
        # settled: a scheduled cancel still outstanding has nothing left to
        # cut, so it is not an event to advance the clock to.
        candidates = [deferred[0][0]] if deferred else []
        if next_pending < len(pending):
            candidates.append(start + pending[next_pending].arrival_seconds)
        return min(candidates, default=None)

    while next_pending < len(pending) or deferred or engine.has_work:
        steps_before = control.steps_executed
        prefilled_before = engine.tokens_prefilled_total
        pumped = control.pump(due_commands())
        for reply in pumped.replies:
            if isinstance(reply, Exception):
                raise reply
        if pumped.error is not None:
            raise pumped.error
        stepped = control.steps_executed != steps_before
        if stepped and simulated:
            clock.advance(
                cost_model.cost(
                    engine.tokens_prefilled_total - prefilled_before,
                    sum(len(commit.tokens) for commit in pumped.commits),
                )
            )
        if admission is not None:
            observe_ttfts(pumped)
        for event in pumped.finished:
            flight = flights.pop(event.request_id)
            outcomes[event.request_id] = _request_outcome(
                flight.trace_request, flight.submitted_at - start, event, flight.defer_count
            )
            stream_metrics[event.request_id] = event.stream_metrics
        if not stepped:
            target = next_event_time()
            if target is None:
                break
            if simulated:
                clock.advance_to(target)
            else:
                clock.sleep(max(0.0, target - clock()))

    duration = clock() - start
    return ReplayReport(
        outcomes=[outcomes[request.request_id] for request in trace.requests],
        duration_seconds=duration,
        steps=control.steps_executed,
        clock_mode="simulated" if simulated else "wall",
        admission=admission.snapshot(clock()) if admission is not None else None,
        kv_pool=engine.kv_pool_stats(),
        prefix_cache=engine.prefix_cache_stats(),
        stream_metrics=stream_metrics,
    )


async def replay_trace_async(server, trace: Trace) -> ReplayReport:
    """Replay ``trace`` against an :class:`AsyncServingEngine` (wall clock).

    The server's background step thread owns stepping, so the replay only
    paces arrivals with real sleeps, issues scheduled cancellations, and
    awaits every handle; each outcome comes from the handle's
    :attr:`~repro.serving.server.StreamHandle.finished` event, and the pool
    and prefix-cache stats from :meth:`AsyncServingEngine.query`, which the
    step thread answers between steps.  Latency columns are wall-clock
    (non-deterministic); token streams remain deterministic.
    """
    from repro.serving.server import RequestCancelled

    loop = asyncio.get_running_loop()
    start = loop.time()
    engine = server.engine

    async def run_one(request: TraceRequest) -> Tuple[float, FinishedEvent]:
        delay = start + request.arrival_seconds - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        submitted = loop.time() - start
        handle = await server.submit(
            engine.decoder.tokenizer.encode_prompt(request.prompt),
            config=_request_config(request),
            request_id=request.request_id,
            priority=request.priority,
            deadline=request.deadline_seconds,
        )
        cancel_task = None
        if request.cancel_after is not None:
            async def cancel_later() -> None:
                await asyncio.sleep(request.cancel_after)
                await handle.cancel_async()
            cancel_task = asyncio.ensure_future(cancel_later())
        try:
            await handle.result()
        except RequestCancelled:
            pass  # the event below says by what
        finally:
            if cancel_task is not None:
                cancel_task.cancel()
        return submitted, handle.finished

    settled = await asyncio.gather(*(run_one(r) for r in trace.requests))
    return ReplayReport(
        outcomes=[_request_outcome(request, *submitted_event) for request, submitted_event in zip(trace.requests, settled)],
        duration_seconds=loop.time() - start,
        steps=0,
        clock_mode="wall",
        kv_pool=await server.query("kv_pool_stats"),
        prefix_cache=await server.query("prefix_cache_stats"),
        stream_metrics={event.request_id: event.stream_metrics for _, event in settled},
    )


def replay_trace_router(router, trace: Trace, tokenizer) -> ReplayReport:
    """Replay ``trace`` against a running :class:`Router` (wall clock).

    Arrivals are paced with real sleeps relative to trace start; the
    router's workers step autonomously.  Scheduled cancellations are issued
    from the pacing loop; every request is settled with ``drain`` and its
    outcome read from the :class:`~repro.serving.messages.FinishedEvent` on
    its router record.  Latency is the router's own ``finished_at -
    submitted_at``: unlike the worker's event, that span counts the time a
    request lost to a crash requeue.  The router serves token ids, so the
    caller supplies the ``tokenizer`` its workers were built with.
    """
    wall = WallClock()
    start = wall()
    submitted_at: Dict[str, float] = {}
    cancel_at: List[tuple] = []
    for request in trace.requests:
        wall.sleep(start + request.arrival_seconds - wall())
        router.submit(
            tokenizer.encode_prompt(request.prompt),
            config=_request_config(request),
            request_id=request.request_id,
            priority=request.priority,
            deadline=request.deadline_seconds,
        )
        submitted_at[request.request_id] = wall() - start
        if request.cancel_after is not None:
            cancel_at.append((wall() + request.cancel_after, request.request_id))
        for due, rid in [c for c in cancel_at if c[0] <= wall()]:
            router.cancel(rid)
            cancel_at.remove((due, rid))
        router.poll()
    for due, rid in sorted(cancel_at):
        wall.sleep(due - wall())
        router.cancel(rid)
    router.drain(timeout=120.0)
    outcomes = []
    stream_metrics = {}
    for request in trace.requests:
        record = router.request_record(request.request_id)
        outcome = _request_outcome(request, submitted_at[request.request_id], record.finished)
        outcome.latency_seconds = record.finished_at - record.submitted_at
        outcomes.append(outcome)
        stream_metrics[request.request_id] = record.finished.stream_metrics
    return ReplayReport(
        outcomes=outcomes,
        duration_seconds=wall() - start,
        steps=0,
        clock_mode="wall",
        kv_pool=router.kv_pool_stats().get("aggregate", {}),
        prefix_cache=router.prefix_cache_stats().get("aggregate", {}),
        stream_metrics=stream_metrics,
    )


__all__ = [
    "StepCostModel",
    "RequestOutcome",
    "ReplayReport",
    "replay_trace",
    "replay_trace_async",
    "replay_trace_router",
]
