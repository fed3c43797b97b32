"""Asyncio streaming front-end over the continuous-batching serving engine.

:class:`AsyncServingEngine` is the layer a network server would sit on: it
drives a :class:`~repro.serving.ServingEngine`'s step loop on a
background thread and exposes each request as a :class:`StreamHandle` whose
``async for burst in handle.stream()`` yields **committed-token bursts** the
moment the engine commits them — one burst per speculative step (one token
per burst under NTP), which is exactly the unit the paper's decoder produces.

Since the multi-process sharding refactor, the server does not touch engine
internals at all: it drives an
:class:`~repro.serving.control.EngineControl` with the plain-data commands of
:mod:`repro.serving.messages` (``SubmitCommand``/``StepCommand``/
``CancelCommand``) and fans the returned :class:`CommitEvent` /
:class:`FinishedEvent` streams out to the handles.  A
:class:`~repro.serving.worker.EngineWorker` process answers the identical
messages over a pipe, which is why in-process streaming and routed serving
produce byte-identical token streams.

Design rules:

* **Observation only.**  Streaming observes the engine's commit funnel
  (via the control's buffered events); it never changes what the engine
  computes.  The concatenation of streamed bursts is therefore
  byte-identical to the batch ``result().token_ids`` for every decode mode —
  asserted in ``tests/test_streaming.py``.
* **One lock, two threads.**  The event loop submits/cancels under the same
  lock the step thread holds while stepping, so engine state is never
  touched concurrently; event fan-out to handles also happens under that
  lock, so bursts and completions reach each handle's queue in commit order.
  The lock is FIFO-fair (:class:`_FairLock`): the step thread re-takes it
  at once after every step, and must not win that race against a waiting
  submit or cancel for a whole run.
  Handles receive them with ``loop.call_soon_threadsafe`` — the only asyncio
  API that is safe to call from outside the loop.  The handle registry has
  its own small lock: handles register on the loop thread and are read by
  the step thread's crash fan-out, and fencing the registry separately keeps
  registration from ever waiting out a whole engine step.
* **Cooperative cancellation.**  ``handle.cancel()`` (or a per-request
  ``deadline=``) routes to the engine's cancel, which frees the request's
  scheduler budget, prefix-cache retention copy and shared-cache row in the
  same step.  A cancelled request's ``result()`` raises
  :class:`RequestCancelled` (or :class:`RequestDeadlineExceeded`) carrying
  the partial result; its stream raises too — unless the cancellation came
  from this very handle, in which case the stream just ends.
* **Explicit shutdown.**  ``async with`` (or :meth:`close`) joins the step
  thread and settles every pending handle; the synchronous :meth:`shutdown`
  (or plain ``with``) does the same without needing a running event loop.
  Nothing relies on daemon-thread teardown at interpreter exit — a server
  dropped without closing leaves consumers unblocked, not hanging.

Typical use::

    engine = pipeline.engine_for("ours")
    async with AsyncServingEngine(engine) as server:
        handle = await server.submit_text(prompt, config, deadline=2.0)
        async for burst in handle.stream():
            print(tokenizer.decode(burst), end="", flush=True)
        result = await handle.result()

See ``docs/streaming.md`` for the full semantics.
"""

from __future__ import annotations

import asyncio
import threading
from collections import deque
from typing import AsyncIterator, Deque, Dict, List, Optional, Sequence

from repro.core.decoding import DecodeResult
from repro.models.generation import GenerationConfig
from repro.serving.control import EngineControl
from repro.serving.engine_core import ServingEngine
from repro.serving.messages import (
    CancelCommand,
    CommitEvent,
    FinishedEvent,
    StepCommand,
    SubmitCommand,
    decode_result,
    encode_config,
)


class RequestCancelled(Exception):
    """A served request was cancelled before it finished.

    Attributes:
        request_id: The cancelled request.
        partial: The partial :class:`~repro.core.decoding.DecodeResult`
            frozen at cancellation (``partial.cancelled`` is True and
            ``partial.token_ids`` holds everything committed before the
            cancel landed).
    """

    def __init__(self, request_id: str, partial: DecodeResult) -> None:
        super().__init__(f"request {request_id!r} was cancelled after {partial.tokens_generated} tokens")
        self.request_id = request_id
        self.partial = partial


class RequestDeadlineExceeded(RequestCancelled):
    """A served request hit its per-request deadline and was cancelled."""

    def __init__(self, request_id: str, partial: DecodeResult) -> None:
        RequestCancelled.__init__(self, request_id, partial)
        # Replace the generic message with the deadline-specific one.
        self.args = (
            f"request {request_id!r} exceeded its deadline after {partial.tokens_generated} tokens",
        )


#: Queue sentinel marking the end of a request's burst stream.
_DONE = object()

#: Seconds the step thread of an idle :class:`AsyncServingEngine` sleeps between polls.
POLL_INTERVAL = 0.001


class StreamHandle:
    """One submitted request, as seen by an asyncio consumer.

    Produced by :meth:`AsyncServingEngine.submit`; not constructed directly.
    The handle owns an unbounded burst queue fed from the engine thread, so a
    slow consumer never back-pressures the engine (bursts are small integer
    lists; the queue is bounded in practice by ``max_new_tokens``).
    """

    def __init__(self, server: "AsyncServingEngine", request_id: str, loop: asyncio.AbstractEventLoop) -> None:
        self._server = server
        self._loop = loop
        self._queue: "asyncio.Queue[object]" = asyncio.Queue()
        self._done = asyncio.Event()
        self._result: Optional[DecodeResult] = None
        #: A RequestCancelled/RequestDeadlineExceeded for cancelled requests,
        #: or the raw engine exception when the step thread crashed.
        self._error: Optional[BaseException] = None
        self._cancel_requested = False
        #: Caller-visible id of the underlying engine request.
        self.request_id = request_id

    # -- engine-thread side (event fan-out) -------------------------------- #

    def _deliver(self, callback, *args) -> None:
        """Engine thread → loop thread handoff.

        Falls back to calling in place when the loop is already closed (a
        synchronous :meth:`AsyncServingEngine.shutdown` after ``asyncio.run``
        returned): the handle still settles, so ``done`` and the stored
        result/error stay observable instead of the handle dangling forever.
        """
        try:
            self._loop.call_soon_threadsafe(callback, *args)
        except RuntimeError:
            callback(*args)

    def _on_commit(self, burst: List[int]) -> None:
        # put_nowait never blocks on an unbounded queue, so the engine step
        # is not delayed by consumers.
        self._deliver(self._queue.put_nowait, burst)

    def _on_done(self, event: FinishedEvent) -> None:
        result = decode_result(event.result)
        error: Optional[RequestCancelled] = None
        if event.cancelled:
            exc_type = RequestDeadlineExceeded if event.timed_out else RequestCancelled
            error = exc_type(event.request_id, result)
        self._deliver(self._settle, result, error)

    # -- loop side --------------------------------------------------------- #

    def _settle(self, result: DecodeResult, error: Optional[RequestCancelled]) -> None:
        self._result = result
        self._error = error
        self._done.set()
        self._queue.put_nowait(_DONE)
        # Settled handles leave the server's in-flight registry immediately —
        # a long-lived server must not retain every result it ever produced.
        self._server._discard(self)

    def _fail(self, error: BaseException) -> None:
        """Engine-thread crash: unblock the consumer with the original error."""
        if self._done.is_set():
            return
        self._error = error
        self._done.set()
        self._queue.put_nowait(_DONE)
        self._server._discard(self)

    @property
    def done(self) -> bool:
        """True once the request finished or was cancelled."""
        return self._done.is_set()

    async def stream(self) -> AsyncIterator[List[int]]:
        """Yield committed-token bursts as the engine commits them.

        Each burst is the list of token ids one engine step committed for
        this request (a single id under NTP; up to ``heads + 1`` ids per
        speculative step).  The stream ends when the request finishes.  If
        the request was cancelled by a deadline or by *another* caller, the
        tail of the stream raises the corresponding
        :class:`RequestCancelled`; a cancellation requested through this
        handle's own :meth:`cancel` ends the stream quietly (the consumer
        asked for it).
        """
        while True:
            item = await self._queue.get()
            if item is _DONE:
                # Re-arm so a second stream() call (or result()) still sees
                # the terminal state instead of hanging on an empty queue.
                self._queue.put_nowait(_DONE)
                if self._error is not None:
                    # Only a cancellation this handle itself requested ends
                    # the stream quietly; engine crashes always propagate.
                    own = self._cancel_requested and isinstance(self._error, RequestCancelled)
                    if not own:
                        raise self._error
                return
            yield item  # type: ignore[misc]

    async def tokens(self) -> AsyncIterator[int]:
        """Like :meth:`stream`, flattened to one token id at a time."""
        async for burst in self.stream():
            for token in burst:
                yield token

    async def result(self) -> DecodeResult:
        """Wait for completion and return the final result.

        Identical to the synchronous ``engine.result(request_id)`` — streamed
        bursts concatenate to exactly ``result().token_ids``.  Raises
        :class:`RequestCancelled` / :class:`RequestDeadlineExceeded` if the
        request did not run to completion (the exception's ``partial``
        carries the tokens that did commit).
        """
        await self._done.wait()
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    def cancel(self) -> bool:
        """Cooperatively cancel this request; returns False if already done.

        Safe to call from the event loop at any point in the request's life:
        queued, mid-prefill or mid-decode.  The engine frees the request's
        scheduler budget and cache rows in the same step; this handle's
        stream then ends quietly and :meth:`result` raises
        :class:`RequestCancelled`.

        Blocks the calling thread while the step thread holds the engine
        lock (typically well under one step on this repo's model sizes);
        latency-sensitive loops with many concurrent streams should prefer
        :meth:`cancel_async`, which waits on a worker thread instead.
        """
        self._cancel_requested = True
        return self._server._cancel(self.request_id)

    async def cancel_async(self) -> bool:
        """Like :meth:`cancel`, but acquires the engine lock off the event
        loop — burst delivery to other streams continues while this
        cancellation waits its turn (the same discipline ``submit`` uses)."""
        self._cancel_requested = True
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self._server._cancel, self.request_id)


class _FairLock:
    """FIFO mutex guarding the engine: a release hands the lock to the longest waiter.

    ``threading.Lock`` promises no fairness, and the step thread releases the
    engine lock only to take it again at once; it can win every one of those
    races and starve a waiting submit or cancel until the engine runs out of
    work — ``cancel()`` then returns False for a request that was mid-decode
    when it was called.  With hand-over on release a foreign caller waits at
    most one engine step.
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._held = False
        #: One private, already-acquired lock per waiting thread, oldest first.
        self._waiters: Deque[threading.Lock] = deque()

    def __enter__(self) -> None:
        with self._mutex:
            if not self._held:
                self._held = True
                return
            turn = threading.Lock()
            turn.acquire()
            self._waiters.append(turn)
        turn.acquire()  # returns when a releasing holder hands the lock over

    def __exit__(self, exc_type, exc, tb) -> None:
        with self._mutex:
            if self._waiters:
                self._waiters.popleft().release()  # ownership passes; still held
            else:
                self._held = False


class AsyncServingEngine:
    """Drives a :class:`ServingEngine` on a background thread, async-first.

    Args:
        engine: The engine to serve.  The server owns its step loop while
            running — do not call ``engine.step()``/``engine.run()``
            concurrently (submitting through the engine directly bypasses
            streaming and is also not supported while the server runs).

    When the engine has no work the step thread sleeps
    :data:`POLL_INTERVAL` seconds; work submitted meanwhile is picked up at
    the next poll, so that bounds the added first-step latency of an idle
    server.

    Use as an async context manager (``async with AsyncServingEngine(...)``),
    a synchronous one (``with`` — start/shutdown), or call
    :meth:`start` / :meth:`close` / :meth:`shutdown` explicitly.
    """

    def __init__(self, engine: ServingEngine) -> None:
        self.engine = engine
        #: The message surface this server actually drives; results stay
        #: retained on the engine (``forget_on_done=False``) so synchronous
        #: ``engine.result()``/``stream_metrics()`` keep working afterwards.
        self.control = EngineControl(engine, forget_on_done=False)
        #: Serialises every engine touch: the step thread holds it per step,
        #: submit/cancel take it from the event loop.
        self._lock = _FairLock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        #: In-flight handles by request id; settled handles drop out
        #: immediately.  Guarded by ``_registry_lock`` — the loop thread
        #: registers/discards while the step thread reads for event fan-out,
        #: and before this fence the crash fan-out iterated a list the loop
        #: thread was mutating.
        self._registry: Dict[str, StreamHandle] = {}
        self._registry_lock = threading.Lock()
        #: The exception that killed the step thread, if one did.
        self._crashed: Optional[BaseException] = None

    # -- lifecycle --------------------------------------------------------- #

    @property
    def running(self) -> bool:
        """True while the background step thread is alive."""
        return self._thread is not None and self._thread.is_alive()

    @property
    def _handles(self) -> List[StreamHandle]:
        """Snapshot of the in-flight handles (registration order)."""
        with self._registry_lock:
            return list(self._registry.values())

    def start(self) -> None:
        """Start the background step thread (idempotent while running).

        Raises ``RuntimeError`` after a step-thread crash — the engine's
        shared cache state is suspect once a step died mid-flight.
        """
        if self._crashed is not None:
            raise RuntimeError("serving step thread crashed; build a fresh engine") from self._crashed
        if self.running:
            return
        self._stop.clear()
        self._thread = threading.Thread(target=self._step_loop, name="serving-engine-step", daemon=True)
        self._thread.start()

    async def close(self, cancel_pending: bool = True) -> None:
        """Stop the step thread; by default cancel whatever is still in flight.

        ``cancel_pending=True`` cancels unfinished requests so consumers
        blocked on ``stream()``/``result()`` unblock (with
        :class:`RequestCancelled`) instead of hanging forever on a server
        that no longer steps.  Pass False to leave engine state untouched —
        the caller can then drive ``engine.run()`` synchronously.
        """
        thread = self._prepare_stop()
        if thread is not None:
            # Join off the event loop so a long in-flight step cannot block it.
            await asyncio.get_running_loop().run_in_executor(None, thread.join)
        if cancel_pending:
            self._cancel_pending()
            # The cancellations above settle their handles via call_soon;
            # yield once so those callbacks run before we prune, otherwise a
            # repeatedly start()/close()d server retains every handle it ever
            # cancelled at close.
            await asyncio.sleep(0)
        self._prune_settled()

    def shutdown(self, cancel_pending: bool = True) -> None:
        """Synchronous :meth:`close`: join the step thread, settle pending handles.

        For non-async callers — and for teardown paths where the event loop
        already exited: handles whose loop is closed are settled in place
        (their ``done``/``result`` state stays observable) instead of being
        stranded on a server that no longer steps.  Safe to call repeatedly,
        from ``with``-statement exit, or after :meth:`close`.
        """
        thread = self._prepare_stop()
        if thread is not None:
            thread.join()
        if cancel_pending:
            self._cancel_pending()
        self._prune_settled()

    def _prepare_stop(self) -> Optional[threading.Thread]:
        """Signal the step loop to exit; return the thread to join (if any)."""
        self._stop.set()
        thread, self._thread = self._thread, None
        return thread

    def _cancel_pending(self) -> None:
        """Cancel every in-flight request whose handle has not settled yet."""
        with self._lock:
            # Skip handles whose own cancel is already in flight — resetting
            # their flag here would turn the documented quiet stream end into
            # a surprise RequestCancelled.
            pending = [h for h in self._handles if not h.done and not h._cancel_requested]
            for handle in pending:
                self._drive_locked(CancelCommand(request_id=handle.request_id))

    def _prune_settled(self) -> None:
        with self._registry_lock:
            self._registry = {rid: h for rid, h in self._registry.items() if not h.done}

    async def __aenter__(self) -> "AsyncServingEngine":
        self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    def __enter__(self) -> "AsyncServingEngine":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    # -- the step loop and event fan-out ----------------------------------- #

    def _step_loop(self) -> None:
        while not self._stop.is_set():
            try:
                with self._lock:
                    worked = self.engine.has_work
                    if worked:
                        self._drive_locked(StepCommand(max_steps=1))
                    else:
                        # Even idle, drain events a foreign path produced
                        # (e.g. engine.cancel called directly under the lock)
                        # so their handles settle without waiting for work.
                        self._dispatch(*self.control.drain_events())
            except BaseException as error:  # noqa: BLE001 — must not die silently
                # A crashed step thread must not strand consumers on
                # stream()/result() forever: fail every in-flight handle
                # with the original error and stop stepping.
                self._crashed = error
                for handle in self._handles:
                    handle._deliver(handle._fail, error)
                return
            if not worked:
                # Idle: nothing queued, prefilling or running.  Sleep on the
                # stop event so close() wakes us immediately.
                self._stop.wait(POLL_INTERVAL)

    def _drive_locked(self, command: object) -> object:
        """Handle one control command and fan its events out (lock held).

        Fan-out happens while the engine lock is still held, so every handle
        observes commits and completions in exactly the order the engine
        produced them — a cancel racing in from the loop thread cannot
        interleave its settle between a step's burst and that burst's
        delivery.
        """
        reply = self.control.handle(command)
        # Step/drain replies carry their events; other commands (cancel, a
        # foreign engine.cancel between steps) leave them in the control's
        # buffer — take whichever place they landed.
        commits = list(getattr(reply, "commits", []))
        finished = list(getattr(reply, "finished", []))
        buffered_commits, buffered_finished = self.control.drain_events()
        self._dispatch(commits + buffered_commits, finished + buffered_finished)
        return reply

    def _dispatch(self, commits: List[CommitEvent], finished: List[FinishedEvent]) -> None:
        for event in commits:
            handle = self._lookup(event.request_id)
            if handle is not None:
                handle._on_commit(list(event.tokens))
        for event in finished:
            handle = self._lookup(event.request_id)
            if handle is not None:
                handle._on_done(event)

    def _lookup(self, request_id: str) -> Optional[StreamHandle]:
        with self._registry_lock:
            return self._registry.get(request_id)

    # -- submission -------------------------------------------------------- #

    async def submit(
        self,
        prompt_ids: Sequence[int],
        config: Optional[GenerationConfig] = None,
        request_id: Optional[str] = None,
        priority: int = 0,
        deadline: Optional[float] = None,
    ) -> StreamHandle:
        """Queue a tokenized prompt; returns its :class:`StreamHandle`.

        Mirrors :meth:`ServingEngine.submit` (same validation, same
        semantics for ``priority`` and ``deadline``); the handle is
        registered under the engine lock, before any step can run, so the
        stream never misses a burst.  The lock is acquired on a worker
        thread (the step thread may hold it for a whole engine step), so
        awaiting ``submit`` never stalls the event loop — burst delivery to
        other consumers continues while this submission waits its turn.
        """
        if self._crashed is not None:
            raise RuntimeError("serving step thread crashed; build a fresh engine") from self._crashed
        loop = asyncio.get_running_loop()
        command = SubmitCommand(
            prompt_ids=[int(t) for t in prompt_ids],
            config=None if config is None else encode_config(config),
            request_id=request_id,
            priority=priority,
            deadline=deadline,
        )

        def locked_submit() -> StreamHandle:
            with self._lock:
                if self._crashed is not None:
                    raise RuntimeError(
                        "serving step thread crashed; build a fresh engine"
                    ) from self._crashed
                reply = self.control.handle(command)
                handle = StreamHandle(self, reply.request_id, loop)
                with self._registry_lock:
                    self._registry[reply.request_id] = handle
                return handle

        handle = await loop.run_in_executor(None, locked_submit)
        if self._crashed is not None and not handle.done:
            # The step thread died between our submission and this resume; if
            # its crash fan-out already failed the handle this is a no-op
            # (_fail checks done), otherwise fail it here — a consumer must
            # never hang on a dead server.
            handle._fail(self._crashed)
        return handle

    async def submit_text(
        self,
        prompt: str,
        config: Optional[GenerationConfig] = None,
        request_id: Optional[str] = None,
        priority: int = 0,
        deadline: Optional[float] = None,
    ) -> StreamHandle:
        """Tokenize ``prompt`` (:meth:`BPETokenizer.encode_prompt`) and queue it for streaming."""
        return await self.submit(
            self.engine.decoder.tokenizer.encode_prompt(prompt), config, request_id, priority, deadline
        )

    def _cancel(self, request_id: str) -> bool:
        with self._lock:
            reply = self._drive_locked(CancelCommand(request_id=request_id))
        return reply.cancelled

    def _discard(self, handle: StreamHandle) -> None:
        """Forget a settled handle (runs on the event loop, like close())."""
        with self._registry_lock:
            if self._registry.get(handle.request_id) is handle:
                del self._registry[handle.request_id]


__all__ = [
    "AsyncServingEngine",
    "RequestCancelled",
    "RequestDeadlineExceeded",
    "StreamHandle",
]
