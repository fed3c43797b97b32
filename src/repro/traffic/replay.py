"""Trace replay against the serving stack, on a wall or simulated clock.

:func:`replay_trace` drives a :class:`~repro.serving.ServingEngine`
through a :class:`~repro.traffic.trace.Trace` synchronously: submit requests
as their arrival times come due, consult the optional
:class:`~repro.traffic.admission.AdmissionController` before each submit,
issue scheduled cancellations, and step the engine while advancing the
clock.  Two clock regimes share the one loop:

* **simulated** (:class:`~repro.traffic.clock.SimulatedClock`) — the engine
  must have been built with the *same* clock object.  After every
  ``engine.step()`` the loop advances virtual time by the
  :class:`StepCostModel` (a fixed per-step cost plus per-token prefill and
  decode costs measured from the engine's own counters), and idle gaps jump
  straight to the next due event.  Nothing reads the wall clock, so the
  entire replay — per-request token streams, TTFT/latency series, deadline
  expiries, admission decisions — is a deterministic function of
  ``(trace, cost model, SLO config)``.  This is the regime CI pins down.
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
the serving front-end.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.evalbench.stats import summarize_series
from repro.models.generation import GenerationConfig
from repro.serving.engine_core import ServingEngine
from repro.traffic.admission import AdmissionController, AdmissionDecision
from repro.traffic.clock import SimulatedClock, WallClock
from repro.traffic.trace import Trace, TraceRequest

#: Seconds after which a request the admission gate deferred is offered again.
DEFER_RETRY_SECONDS = 0.05


@dataclass
class StepCostModel:
    """Virtual time charged per engine step under a simulated clock.

    Attributes:
        step_seconds: Fixed overhead per ``engine.step()`` call.
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
    """

    outcomes: List[RequestOutcome]
    duration_seconds: float
    steps: int
    clock_mode: str
    admission: Optional[Dict] = None
    kv_pool: Dict = field(default_factory=dict)
    prefix_cache: Dict = field(default_factory=dict)

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
    cancel_at: Optional[float] = None
    cancelled_by_replay: bool = False
    ttft_observed: bool = False
    defer_count: int = 0


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

    pending: List[TraceRequest] = sorted(trace.requests, key=lambda r: (r.arrival_seconds, r.request_id))
    deferred: List[tuple] = []  # (retry_at, TraceRequest, defer_count)
    flights: Dict[str, _Flight] = {}
    outcomes: Dict[str, RequestOutcome] = {}
    committed_tokens_step = [0]
    steps = 0
    start = clock()

    def submit_one(request: TraceRequest, defer_count: int) -> None:
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
                return
            if decision is AdmissionDecision.DEFER:
                deferred.append((now + DEFER_RETRY_SECONDS, request, defer_count + 1))
                return
        engine.submit(
            engine.decoder.tokenizer.encode_prompt(request.prompt),
            config=_request_config(request),
            request_id=request.request_id,
            priority=request.priority,
            deadline=request.deadline_seconds,
        )
        flight = _Flight(
            trace_request=request,
            submitted_at=now,
            cancel_at=(now + request.cancel_after) if request.cancel_after is not None else None,
            defer_count=defer_count,
        )
        flights[request.request_id] = flight
        engine.attach_listeners(
            request.request_id,
            on_commit=lambda burst: committed_tokens_step.__setitem__(
                0, committed_tokens_step[0] + len(burst)
            ),
        )

    def release_due() -> None:
        """Submit every pending arrival and deferred retry that is due."""
        now = clock()
        while pending and pending[0].arrival_seconds <= now - start + 1e-12:
            submit_one(pending.pop(0), 0)
        due = [d for d in deferred if d[0] <= now + 1e-12]
        if due:
            deferred[:] = [d for d in deferred if d[0] > now + 1e-12]
            # Retry in original trace order so recovery cannot starve an
            # early request behind later arrivals.
            for _, request, count in sorted(due, key=lambda d: d[1].request_id):
                submit_one(request, count)

    def cancel_due() -> None:
        now = clock()
        for rid, flight in flights.items():
            if flight.cancel_at is not None and flight.cancel_at <= now + 1e-12:
                flight.cancel_at = None
                # False when the request already finished or its deadline
                # fired first: the engine, not the trace, says what cut it.
                flight.cancelled_by_replay = engine.cancel(rid)

    def observe_ttfts() -> None:
        """Feed newly-first-tokened interactive TTFTs to the controller."""
        if admission is None:
            return
        now = clock()
        for rid, flight in flights.items():
            if flight.ttft_observed or flight.trace_request.traffic_class != "interactive":
                continue
            ttft = engine.stream_metrics(rid)["ttft_seconds"]
            if ttft is not None:
                flight.ttft_observed = True
                admission.observe_ttft(ttft, now)

    def next_event_time() -> Optional[float]:
        # Consulted only while the engine is idle, when every flight has
        # settled: a scheduled cancel still outstanding has nothing left to
        # cut, so it is not an event to advance the clock to.
        candidates = [d[0] for d in deferred]
        if pending:
            candidates.append(start + pending[0].arrival_seconds)
        return min(candidates, default=None)

    while pending or deferred or engine.has_work:
        release_due()
        cancel_due()
        if engine.has_work:
            committed_tokens_step[0] = 0
            prefilled_before = engine.tokens_prefilled_total
            engine.step()
            steps += 1
            if simulated:
                clock.advance(
                    cost_model.cost(
                        engine.tokens_prefilled_total - prefilled_before,
                        committed_tokens_step[0],
                    )
                )
            observe_ttfts()
        else:
            target = next_event_time()
            if target is None:
                break
            if simulated:
                clock.advance_to(target)
            else:
                clock.sleep(max(0.0, target - clock()))

    duration = clock() - start
    ordered: List[RequestOutcome] = []
    for request in trace.requests:
        rid = request.request_id
        if rid in outcomes:  # shed
            ordered.append(outcomes[rid])
            continue
        flight = flights[rid]
        result = engine.result(rid)
        metrics = engine.stream_metrics(rid)
        if not result.cancelled:
            status = "finished"
        elif flight.cancelled_by_replay:
            status = "cancelled"
        else:
            status = "deadline"
        ordered.append(
            RequestOutcome(
                request_id=rid,
                tenant=request.tenant,
                traffic_class=request.traffic_class,
                status=status,
                token_ids=list(result.token_ids),
                submitted_at=flight.submitted_at - start,
                ttft_seconds=metrics["ttft_seconds"],
                latency_seconds=engine.scheduler_latency(rid),
                defer_count=flight.defer_count,
            )
        )
    return ReplayReport(
        outcomes=ordered,
        duration_seconds=duration,
        steps=steps,
        clock_mode="simulated" if simulated else "wall",
        admission=admission.snapshot(clock()) if admission is not None else None,
        kv_pool=engine.kv_pool_stats(),
        prefix_cache=engine.prefix_cache_stats(),
    )


async def replay_trace_async(server, trace: Trace) -> ReplayReport:
    """Replay ``trace`` against an :class:`AsyncServingEngine` (wall clock).

    The server's background step thread owns stepping, so the replay only
    paces arrivals with real sleeps, issues scheduled cancellations, and
    awaits every handle.  Latency columns are wall-clock (non-deterministic);
    token streams remain deterministic.
    """
    from repro.serving.server import RequestCancelled, RequestDeadlineExceeded

    loop = asyncio.get_running_loop()
    start = loop.time()
    engine = server.engine
    outcomes: List[RequestOutcome] = []

    async def run_one(request: TraceRequest) -> RequestOutcome:
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
        status = "finished"
        tokens: List[int] = []
        try:
            result = await handle.result()
            tokens = list(result.token_ids)
        except RequestDeadlineExceeded as exc:
            status, tokens = "deadline", list(exc.partial.token_ids)
        except RequestCancelled as exc:
            status, tokens = "cancelled", list(exc.partial.token_ids)
        finally:
            if cancel_task is not None:
                cancel_task.cancel()
        metrics = engine.stream_metrics(request.request_id)
        return RequestOutcome(
            request_id=request.request_id,
            tenant=request.tenant,
            traffic_class=request.traffic_class,
            status=status,
            token_ids=tokens,
            submitted_at=submitted,
            ttft_seconds=metrics["ttft_seconds"],
            latency_seconds=engine.scheduler_latency(request.request_id),
        )

    outcomes = list(await asyncio.gather(*(run_one(r) for r in trace.requests)))
    return ReplayReport(
        outcomes=outcomes,
        duration_seconds=loop.time() - start,
        steps=0,
        clock_mode="wall",
        kv_pool=engine.kv_pool_stats(),
        prefix_cache=engine.prefix_cache_stats(),
    )


def replay_trace_router(router, trace: Trace, tokenizer) -> ReplayReport:
    """Replay ``trace`` against a running :class:`Router` (wall clock).

    Arrivals are paced with real sleeps relative to trace start; the
    router's workers step autonomously.  Scheduled cancellations are issued
    from the pacing loop; results are collected with ``drain``.  The router
    serves token ids, so the caller supplies the ``tokenizer`` its workers
    were built with.
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
    results = router.drain(timeout=120.0)
    outcomes = []
    for request in trace.requests:
        rid = request.request_id
        result = results.get(rid)
        record = router.request_record(rid)
        if result is not None and not result.cancelled:
            status = "finished"
        else:
            status = "deadline" if record.timed_out else "cancelled"
        metrics = router.stream_metrics(rid) or {}
        outcomes.append(
            RequestOutcome(
                request_id=rid,
                tenant=request.tenant,
                traffic_class=request.traffic_class,
                status=status,
                token_ids=list(record.tokens),
                submitted_at=submitted_at[rid],
                ttft_seconds=metrics.get("ttft_seconds"),
                latency_seconds=None,
            )
        )
    return ReplayReport(
        outcomes=outcomes,
        duration_seconds=wall() - start,
        steps=0,
        clock_mode="wall",
        kv_pool=router.kv_pool_stats().get("aggregate", {}),
        prefix_cache=router.prefix_cache_stats().get("aggregate", {}),
    )


__all__ = [
    "StepCostModel",
    "RequestOutcome",
    "ReplayReport",
    "replay_trace",
    "replay_trace_async",
    "replay_trace_router",
]
