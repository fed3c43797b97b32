"""Message-driven control surface over a :class:`ServingEngine`.

:class:`EngineControl` answers the plain-data commands of
:mod:`repro.serving.messages` against one engine and buffers the token bursts
and completions each step produces as :class:`CommitEvent` /
:class:`FinishedEvent` lists.  It is deliberately transport-agnostic: both
transports serve their engine with one loop around :meth:`EngineControl.pump`
(answer every queued command in order, run at most one engine step, hand back
the replies and the events) — the in-process async front-end
(:class:`~repro.serving.server.AsyncServingEngine`) on its step thread,
:class:`~repro.serving.worker.EngineWorker` over a ``multiprocessing`` pipe.
That is the mechanism behind the router's identity guarantee (one worker ≡
in-process engine, asserted in ``tests/test_router.py``).  The synchronous
trace replay (:func:`~repro.traffic.replay.replay_trace`) serves its engine
with the same loop.

Exception policy: :meth:`EngineControl.pump` returns, rather than raises, a
command's :class:`Exception` (in place of its reply) and the step's error, and
the transport applies its own policy (the worker turns submit errors into
``SubmitReply(error=...)`` data and treats every other error as fatal; the
in-process server raises a command's error at its call site and fails every
handle on a step error; the replay raises either).  :meth:`EngineControl.handle`, the one-command
dispatcher under the pump, is transparent.

A finished request is one :class:`FinishedEvent`, built when the request
leaves the engine; :meth:`EngineControl.pump` forgets the request on the
engine as it hands that event out, so a driver retains nothing it reported.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import List, Optional, Sequence

from repro.serving.engine_core import ServingEngine
from repro.serving.messages import (
    CancelCommand,
    CancelReply,
    CommitEvent,
    EngineStats,
    FinishedEvent,
    QueryCommand,
    QueryReply,
    ShutdownCommand,
    ShutdownReply,
    SubmitCommand,
    SubmitReply,
    decode_config,
    encode_result,
)
from repro.serving.request import RequestState, RequestStatus


@dataclass
class Pumped:
    """What one :meth:`EngineControl.pump` call did.

    ``replies`` pairs with the commands in order; a command that raised
    yields its exception instead of a reply.  ``commits`` / ``finished`` are
    every event buffered since the previous call, the step's included.
    ``error`` is what the step raised, if it did (events the step committed
    before raising are still in ``commits``).
    """

    replies: List[object]
    commits: List[CommitEvent]
    finished: List[FinishedEvent]
    error: Optional[BaseException] = None


def _finished_event(engine: ServingEngine, state: RequestState) -> FinishedEvent:
    """Freeze a request that just left ``engine`` (a done-listener's ``state``) into its event."""
    request_id = state.request.request_id
    return FinishedEvent(
        request_id=request_id,
        result=encode_result(engine.result(request_id)),
        cancelled=state.status is RequestStatus.CANCELLED,
        timed_out=state.timed_out,
        stream_metrics=engine.stream_metrics(request_id),
        latency_seconds=state.latency_seconds,
    )


class EngineControl:
    """Drives one engine through the :mod:`repro.serving.messages` vocabulary.

    Args:
        engine: The engine to drive.  The control attaches commit/done
            listeners to every request it submits; requests submitted to the
            engine *around* the control (e.g. directly in a test) are served
            normally but produce no events here.
    """

    def __init__(self, engine: ServingEngine) -> None:
        self.engine = engine
        self.steps_executed = 0
        self._commits: List[CommitEvent] = []
        self._finished: List[FinishedEvent] = []

    # ------------------------------------------------------------------ #
    # Command dispatch
    # ------------------------------------------------------------------ #

    def pump(self, commands: Sequence[object]) -> Pumped:
        """One iteration of a transport's serve loop.

        Answers ``commands`` in order, then runs one engine step if the
        engine has work — unless a :class:`ShutdownCommand` was among them:
        the transport tears down after relaying its reply, so nothing steps.
        This is the only place :meth:`ServingEngine.step` is called from, so
        a cancel queued before the call lands before the next step.  Each
        request whose :class:`FinishedEvent` it returns is forgotten on the engine.
        """
        replies: List[object] = []
        for command in commands:
            try:
                replies.append(self.handle(command))
            except Exception as exc:  # the caller's mistake: the transport decides
                replies.append(exc)
        error: Optional[BaseException] = None
        stopping = any(isinstance(command, ShutdownCommand) for command in commands)
        if self.engine.has_work and not stopping:
            try:
                self.engine.step()
                self.steps_executed += 1
            except BaseException as exc:  # noqa: BLE001 — a crash of any kind is the transport's to report
                error = exc
        commits, self._commits = self._commits, []
        finished, self._finished = self._finished, []
        for event in finished:
            self.engine.forget(event.request_id)
        return Pumped(replies, commits, finished, error)

    def handle(self, command: object) -> object:
        """Answer one command with its paired reply (see ``reply_type_for``)."""
        if isinstance(command, SubmitCommand):
            return self._submit(command)
        if isinstance(command, CancelCommand):
            return self._cancel(command)
        if isinstance(command, QueryCommand):
            return self._query(command)
        if isinstance(command, ShutdownCommand):
            # The transport owns the actual teardown: the worker loop exits
            # after relaying this reply; the async server's close batch ends
            # with one so that serving it steps nothing.
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
            on_done=lambda state: self._finished.append(_finished_event(self.engine, state)),
        )
        return SubmitReply(request_id=request_id)

    def _cancel(self, command: CancelCommand) -> CancelReply:
        try:
            cancelled = self.engine.cancel(command.request_id)
        except KeyError:
            # A request whose finished event was handed out is forgotten;
            # cancel-after-completion stays a no-op (False).
            cancelled = False
        return CancelReply(cancelled=cancelled)

    def _query(self, command: QueryCommand) -> QueryReply:
        if command.kind == "stats":
            payload = asdict(self.stats())
        elif command.kind == "kv_pool_stats":
            payload = self.engine.kv_pool_stats()
        elif command.kind == "prefix_cache_stats":
            payload = self.engine.prefix_cache_stats()
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


__all__ = ["EngineControl", "Pumped"]
