"""Message-driven control surface over a :class:`ServingEngine`.

:class:`EngineControl` answers the plain-data commands of
:mod:`repro.serving.messages` against one engine, buffering the token bursts
and completions each step produces into :class:`CommitEvent` /
:class:`FinishedEvent` lists that ride back on the next :class:`StepReply`.
It is deliberately transport-agnostic: the in-process async front-end
(:class:`~repro.serving.server.AsyncServingEngine`) calls :meth:`handle`
directly on its step thread, while :class:`~repro.serving.worker.EngineWorker`
calls the *same* method for commands arriving over a ``multiprocessing``
pipe — which is the mechanism behind the router's identity guarantee (one
worker ≡ in-process engine, asserted in ``tests/test_router.py``).

Exception policy: :meth:`handle` is transparent — a validation error from
``submit`` or an engine bug inside ``step`` propagates to the caller, who
applies the policy appropriate to its transport (the worker loop converts
submit errors into ``SubmitReply(error=...)`` data and treats step errors as
fatal; the in-process server lets submit errors raise at the call site and
step errors trigger its crash fan-out).
"""

from __future__ import annotations

from dataclasses import asdict
from typing import List, Optional

from repro.serving.engine_core import ServingEngine
from repro.serving.messages import (
    CancelCommand,
    CancelReply,
    CommitEvent,
    DrainCommand,
    DrainReply,
    EngineStats,
    FinishedEvent,
    QueryCommand,
    QueryReply,
    ShutdownCommand,
    ShutdownReply,
    StepCommand,
    StepReply,
    SubmitCommand,
    SubmitReply,
    decode_config,
    encode_result,
)
from repro.serving.request import RequestState, RequestStatus


class EngineControl:
    """Drives one engine through the :mod:`repro.serving.messages` vocabulary.

    Args:
        engine: The engine to drive.  The control attaches commit/done
            listeners to every request it submits; requests submitted to the
            engine *around* the control (e.g. directly in a test) are served
            normally but produce no events here.
        forget_on_done: Release each request's engine-side bookkeeping the
            moment its :class:`FinishedEvent` is buffered.  Workers run with
            True — the event already carries the encoded result and frozen
            stream metrics, and a long-lived worker retaining every state
            would grow without bound.  In-process fronts default to False so
            ``engine.result()``/``stream_metrics()`` keep working afterwards.
    """

    def __init__(self, engine: ServingEngine, forget_on_done: bool = False) -> None:
        self.engine = engine
        self.forget_on_done = forget_on_done
        self.steps_executed = 0
        self._commits: List[CommitEvent] = []
        self._finished: List[FinishedEvent] = []

    # ------------------------------------------------------------------ #
    # Command dispatch
    # ------------------------------------------------------------------ #

    def handle(self, command: object) -> object:
        """Answer one command with its paired reply (see ``reply_type_for``)."""
        if isinstance(command, SubmitCommand):
            return self._submit(command)
        if isinstance(command, CancelCommand):
            return self._cancel(command)
        if isinstance(command, StepCommand):
            return StepReply(*self._step_batch(command.max_steps))
        if isinstance(command, DrainCommand):
            return DrainReply(*self._step_batch(None))
        if isinstance(command, QueryCommand):
            return self._query(command)
        if isinstance(command, ShutdownCommand):
            # Transport owns the actual teardown (the worker loop exits after
            # relaying this reply); in-process there is nothing to stop.
            return ShutdownReply()
        raise TypeError(f"unknown engine command: {command!r}")

    def _submit(self, command: SubmitCommand) -> SubmitReply:
        config = None if command.config is None else decode_config(command.config)
        request_id = self.engine.submit(
            command.prompt_ids,
            config=config,
            request_id=command.request_id,
            priority=command.priority,
            deadline=command.deadline,
        )
        self.engine.attach_listeners(
            request_id,
            on_commit=lambda tokens, rid=request_id: self._commits.append(
                CommitEvent(request_id=rid, tokens=list(tokens), timestamp=self.engine.clock())
            ),
            on_done=self._on_done,
        )
        return SubmitReply(request_id=request_id)

    def _cancel(self, command: CancelCommand) -> CancelReply:
        try:
            cancelled = self.engine.cancel(command.request_id)
        except KeyError:
            # With forget_on_done, a request that finished a moment ago is
            # already unknown; cancel-after-completion stays a no-op (False),
            # matching the engine's own semantics for still-retained ids.
            cancelled = False
        return CancelReply(cancelled=cancelled)

    def _on_done(self, state: RequestState) -> None:
        """Done-listener: freeze the finished event (and optionally forget)."""
        request_id = state.request.request_id
        self._finished.append(
            FinishedEvent(
                request_id=request_id,
                result=encode_result(self.engine.result(request_id)),
                cancelled=state.status is RequestStatus.CANCELLED,
                timed_out=state.timed_out,
                stream_metrics=self.engine.stream_metrics(request_id),
            )
        )
        if self.forget_on_done:
            self.engine.forget(request_id)

    def _step_batch(self, max_steps: Optional[int]):
        """Run up to ``max_steps`` engine steps (``None`` = drain); return events."""
        steps = 0
        while self.engine.has_work and (max_steps is None or steps < max_steps):
            self.engine.step()
            steps += 1
            self.steps_executed += 1
        return self.drain_events() + (self.stats(),)

    def drain_events(self):
        """Hand over (and clear) the buffered commit and finished events."""
        commits, self._commits = self._commits, []
        finished, self._finished = self._finished, []
        return commits, finished

    def _query(self, command: QueryCommand) -> QueryReply:
        if command.kind == "stats":
            payload = asdict(self.stats())
        elif command.kind == "kv_pool_stats":
            payload = self.engine.kv_pool_stats()
        elif command.kind == "prefix_cache_stats":
            payload = self.engine.prefix_cache_stats()
        elif command.kind == "stream_metrics":
            if command.request_id is None:
                raise ValueError("stream_metrics query requires a request_id")
            payload = self.engine.stream_metrics(command.request_id)
        else:
            raise ValueError(f"unknown query kind {command.kind!r}")
        return QueryReply(kind=command.kind, payload=payload)

    def stats(self) -> EngineStats:
        """Current backpressure snapshot (piggybacked on step replies/heartbeats)."""
        engine = self.engine
        return EngineStats(
            queue_depth=len(engine.scheduler.waiting),
            num_prefilling=engine.num_prefilling,
            num_active=engine.num_active,
            has_work=engine.has_work,
            free_kv_tokens=engine.free_kv_tokens(),
            steps_executed=self.steps_executed,
        )


__all__ = ["EngineControl"]
