"""Asyncio streaming front-end over the continuous-batching serving engine.

:class:`AsyncServingEngine` is the layer a network server would sit on: it
drives a :class:`~repro.serving.ServingEngine`'s step loop on a
background thread and exposes each request as a :class:`StreamHandle` whose
``async for burst in handle.stream()`` yields **committed-token bursts** the
moment the engine commits them — one burst per speculative step (one token
per burst under NTP), which is exactly the unit the paper's decoder produces.

The server does not touch engine internals: it drives an
:class:`~repro.serving.control.EngineControl` with the plain-data commands of
:mod:`repro.serving.messages` (``SubmitCommand``/``CancelCommand``) and fans
the :class:`CommitEvent` / :class:`FinishedEvent` streams its
:meth:`~repro.serving.control.EngineControl.pump` returns out to the
handles.  A :class:`~repro.serving.worker.EngineWorker` process runs the
same pump over a pipe, which is why in-process streaming and routed serving
produce byte-identical token streams.

Design rules:

* **Observation only.**  Streaming observes the engine's commit funnel
  (via the control's buffered events); it never changes what the engine
  computes.  The concatenation of streamed bursts is therefore
  byte-identical to the batch ``result().token_ids`` for every decode mode —
  asserted in ``tests/test_streaming.py``.
* **One owner, one loop.**  While it runs, the step thread alone touches
  the engine, the control and the handle registry.  ``submit`` and the
  cancels (and :meth:`AsyncServingEngine.query`'s reads) put a command and
  a future on its inbox; each iteration calls
  ``pump`` once on everything queued, which answers the commands in order
  and then steps the engine at most once — so a cancel lands before the
  next step, a handle is registered before any of its bursts, and an idle
  thread sleeps on the inbox until a call wakes it.  Events reach a
  handle's queue in engine order through ``loop.call_soon_threadsafe``,
  after the owner recorded a settled handle's state (so ``done`` never
  waits on the loop).
  Every closer closes the inbox and joins the thread; only then does the
  caller own the engine and serve the leftover calls and the close-time
  cancels through the same ``pump``.  Anything escaping the loop fails
  every in-flight handle and queued call, and later calls are refused.
* **One record per request.**  A settled handle keeps the request's
  :class:`FinishedEvent` (:attr:`StreamHandle.finished`) and the engine
  forgets it: ``engine.result(rid)`` raises ``KeyError``.  A request still
  unfinished at ``close(cancel_pending=False)`` stays for ``engine.run()``.
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
        ttft = handle.finished.stream_metrics["ttft_seconds"]

See ``docs/streaming.md`` for the full semantics.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import Future
from typing import AsyncIterator, Dict, List, NamedTuple, Optional, Sequence

from repro.core.decoding import DecodeResult
from repro.models.generation import GenerationConfig
from repro.serving.control import EngineControl
from repro.serving.engine_core import ServingEngine
from repro.serving.messages import (
    CancelCommand,
    FinishedEvent,
    QueryCommand,
    ShutdownCommand,
    SubmitCommand,
    SubmitReply,
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


class StreamHandle:
    """One submitted request, as seen by an asyncio consumer.

    Produced by :meth:`AsyncServingEngine.submit`; not constructed directly.
    The handle owns an unbounded burst queue fed from the engine thread, so a
    slow consumer never back-pressures the engine (bursts are small integer
    lists; the queue is bounded in practice by ``max_new_tokens``).
    """

    def __init__(self, server: "AsyncServingEngine", loop: asyncio.AbstractEventLoop) -> None:
        self._server = server
        self._loop = loop
        self._queue: "asyncio.Queue[object]" = asyncio.Queue()
        #: Set on the loop once the owner recorded ``_event`` / ``_error``.
        self._woken = asyncio.Event()
        self._event: Optional[FinishedEvent] = None
        #: A RequestCancelled/RequestDeadlineExceeded for cancelled requests,
        #: or the raw engine exception when the step thread crashed.
        self._error: Optional[BaseException] = None
        self._cancel_requested = False
        #: Caller-visible id of the underlying engine request; the step
        #: thread sets it when it answers the submit.
        self.request_id = ""

    # -- owner side (event fan-out) ---------------------------------------- #

    def _deliver(self, callback, *args) -> None:
        """Engine owner → loop thread handoff; dropped on a closed loop
        (a :meth:`AsyncServingEngine.shutdown` after ``asyncio.run``
        returned), where nothing can await the handle any more."""
        try:
            self._loop.call_soon_threadsafe(callback, *args)
        except RuntimeError:
            pass

    def _on_commit(self, burst: List[int]) -> None:
        # put_nowait never blocks on an unbounded queue, so the engine step
        # is not delayed by consumers.
        self._deliver(self._queue.put_nowait, burst)

    def _on_done(self, event: FinishedEvent) -> None:
        if event.cancelled:
            exc_type = RequestDeadlineExceeded if event.timed_out else RequestCancelled
            self._error = exc_type(event.request_id, decode_result(event.result))
        self._event = event
        self._deliver(self._wake)

    def _fail(self, error: BaseException) -> None:
        """Engine-thread crash: unblock the consumer with the original error."""
        self._error = error
        self._deliver(self._wake)

    # -- loop side --------------------------------------------------------- #

    def _wake(self) -> None:
        self._woken.set()
        self._queue.put_nowait(_DONE)

    @property
    def done(self) -> bool:
        """True once the request finished, was cancelled or its server crashed."""
        return self._event is not None or self._error is not None

    @property
    def finished(self) -> Optional[FinishedEvent]:
        """The request's :class:`~repro.serving.messages.FinishedEvent` (its
        metrics and latency), or ``None`` until it settles or after a crash."""
        return self._event

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

        Identical to what ``engine.run()`` returns for the request — streamed
        bursts concatenate to exactly ``result().token_ids``.  Raises
        :class:`RequestCancelled` / :class:`RequestDeadlineExceeded` if the
        request did not run to completion (the exception's ``partial``
        carries the tokens that did commit).
        """
        await self._woken.wait()
        if self._error is not None:
            raise self._error
        return decode_result(self._event.result)

    def cancel(self) -> bool:
        """Cooperatively cancel this request; returns False if already done.

        Safe to call from the event loop at any point in the request's life:
        queued, mid-prefill or mid-decode.  The step thread answers the
        cancel before its next engine step, and the engine frees the
        request's scheduler budget and cache rows at once; this handle's
        stream then ends quietly and :meth:`result` raises
        :class:`RequestCancelled`.

        Blocks the calling thread until the step thread answers — at most
        the rest of one engine step; latency-sensitive loops with many
        concurrent streams should prefer :meth:`cancel_async`, which awaits
        the answer instead.
        """
        if self.done:
            return False
        self._cancel_requested = True
        return self._server._send(CancelCommand(request_id=self.request_id)).result().cancelled

    async def cancel_async(self) -> bool:
        """Like :meth:`cancel`, but awaits the step thread's answer, so burst
        delivery to other streams continues while this cancellation waits."""
        if self.done:
            return False
        self._cancel_requested = True
        reply = await asyncio.wrap_future(self._server._send(CancelCommand(request_id=self.request_id)))
        return reply.cancelled


class _Call(NamedTuple):
    """One inbox entry: a command, the future its reply resolves, and the
    handle a submit registers.  ``future`` is None for the commands a close
    serves for itself."""

    command: object
    future: Optional[Future]
    handle: Optional[StreamHandle] = None


class _Inbox:
    """The step thread's queue of calls; open only while a step thread owns the engine.

    A put on a closed inbox is refused, so no command waits for an answer
    that will never come; what was still queued when it closed stays for the
    engine's next owner to :meth:`take_left`.
    """

    def __init__(self) -> None:
        self._ready = threading.Condition()
        self._calls: List[_Call] = []
        self._open = False

    def open(self) -> None:
        with self._ready:
            self._open = True

    def put(self, call: _Call) -> bool:
        """Queue ``call`` and wake the step thread; False if the inbox is closed."""
        with self._ready:
            if not self._open:
                return False
            self._calls.append(call)
            self._ready.notify()
            return True

    def take(self, wait: bool) -> Optional[List[_Call]]:
        """Every queued call, oldest first, or None once closed.

        With ``wait``, block until there is a call or the inbox closes.
        """
        with self._ready:
            while wait and self._open and not self._calls:
                self._ready.wait()
            return None if not self._open else self.take_left()

    def take_left(self) -> List[_Call]:
        """Every queued call, oldest first, open or not."""
        with self._ready:
            calls, self._calls = self._calls, []
            return calls

    def close(self) -> None:
        """Refuse further calls and wake a waiting taker."""
        with self._ready:
            self._open = False
            self._ready.notify_all()


class AsyncServingEngine:
    """Drives a :class:`ServingEngine` on a background thread, async-first.

    Args:
        engine: The engine to serve.  While the server runs, its step thread
            owns the engine — do not step, run or submit to the engine
            directly (a direct submit also bypasses streaming); once
            :meth:`close` / :meth:`shutdown` returns, the caller owns it.

    With no work the step thread blocks on its inbox, and a submit wakes it
    at once.  :meth:`submit`, :meth:`StreamHandle.cancel` and
    :meth:`StreamHandle.cancel_async` raise ``RuntimeError`` while the server
    is not running.

    Use as an async context manager (``async with AsyncServingEngine(...)``),
    a synchronous one (``with`` — start/shutdown), or call
    :meth:`start` / :meth:`close` / :meth:`shutdown` explicitly.
    """

    def __init__(self, engine: ServingEngine) -> None:
        self.engine = engine
        #: The message surface this server actually drives.
        self.control = EngineControl(engine)
        self._inbox = _Inbox()
        #: The step thread; kept until a close has joined it and served what
        #: it left, so every closer joins it before touching the engine.
        self._thread: Optional[threading.Thread] = None
        #: Serialises start() and the closers' owner-side serving.
        self._owner_lock = threading.Lock()
        #: In-flight handles by request id, touched only by the engine's
        #: owner: registered when their submit is answered, dropped when
        #: their finished event or a crash is dispatched.
        self._registry: Dict[str, StreamHandle] = {}
        #: The exception that killed the step thread, if one did.
        self._crashed: Optional[BaseException] = None

    # -- lifecycle --------------------------------------------------------- #

    @property
    def running(self) -> bool:
        """True while the background step thread is alive."""
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        """Start the background step thread (idempotent while running).

        Raises ``RuntimeError`` after a step-thread crash — the engine's
        shared cache state is suspect once a step died mid-flight.
        """
        with self._owner_lock:
            if self._crashed is not None:
                raise self._refusal()
            if self.running:
                return
            self._inbox.open()
            self._thread = threading.Thread(target=self._step_loop, name="serving-engine-step", daemon=True)
            self._thread.start()

    async def close(self, cancel_pending: bool = True) -> None:
        """Stop the step thread; by default cancel whatever is still in flight.

        ``cancel_pending=True`` cancels unfinished requests so consumers
        blocked on ``stream()``/``result()`` unblock (with
        :class:`RequestCancelled`) instead of hanging forever on a server
        that no longer steps.  Pass False to leave those requests in the
        engine — the caller can then drive ``engine.run()`` synchronously,
        or :meth:`start` the server again.
        """
        self._inbox.close()  # wakes the step thread
        if self._thread is not None:
            # Join off the event loop so a long in-flight step cannot block it.
            await asyncio.get_running_loop().run_in_executor(None, self._thread.join)
        self._serve_close(cancel_pending)
        # Run the settle callbacks the close just scheduled, so every handle
        # it settled is done when close returns.
        await asyncio.sleep(0)

    def shutdown(self, cancel_pending: bool = True) -> None:
        """Synchronous :meth:`close`: join the step thread, settle pending handles.

        For non-async callers — and for teardown paths where the event loop
        already exited: handles whose loop is closed still settle (``done``
        and ``finished`` stay observable) instead of being stranded on a
        server that no longer steps.  Safe to call repeatedly,
        from ``with``-statement exit, after :meth:`close`, or from another
        thread while a close is under way.
        """
        self._inbox.close()  # wakes the step thread
        if self._thread is not None:
            self._thread.join()
        self._serve_close(cancel_pending)

    def _serve_close(self, cancel_pending: bool) -> None:
        """As the engine's owner once the step thread is joined, answer what
        was still queued, then (by default) cancel every request whose
        handle is pending.

        Each batch ends with a :class:`ShutdownCommand`, so the pump answers
        it without stepping the engine.  After a crash the queued calls are
        refused instead: the engine's state is suspect.
        """
        with self._owner_lock:
            if self.running:  # a start() since this close's join owns the engine
                return
            self._thread = None
            queued = self._inbox.take_left()
            if self._crashed is not None:
                self._refuse(queued)
                return
            stop = _Call(ShutdownCommand(), None)
            self._serve(queued + [stop])
            if cancel_pending:
                self._serve([_Call(CancelCommand(request_id=rid), None) for rid in self._registry] + [stop])

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
        try:
            while True:
                # Block for work only when the engine has none of its own.
                calls = self._inbox.take(wait=not self.engine.has_work)
                if calls is None:  # closed by close()/shutdown()
                    return
                self._serve(calls)
        except BaseException as error:  # noqa: BLE001 — must not die silently
            self._crash(error)

    def _serve(self, calls: List[_Call]) -> None:
        """One :meth:`EngineControl.pump` over ``calls``, by the engine's owner.

        Answers each call's future (a command's error is raised at its call
        site), registers each submitted handle, then fans the events out in
        the order the engine produced them.  Raises what the step raised,
        after that fan-out.
        """
        # A caller that gave up (its awaiting task was cancelled) is skipped.
        calls = [call for call in calls if call.future is None or call.future.set_running_or_notify_cancel()]
        pumped = self.control.pump([call.command for call in calls])
        for call, reply in zip(calls, pumped.replies):
            if isinstance(reply, SubmitReply):
                call.handle.request_id = reply.request_id
                self._registry[reply.request_id] = call.handle
            if call.future is None:
                continue
            if isinstance(reply, Exception):
                call.future.set_exception(reply)
            else:
                call.future.set_result(reply)
        for event in pumped.commits:
            handle = self._registry.get(event.request_id)
            if handle is not None:
                handle._on_commit(list(event.tokens))
        for event in pumped.finished:
            # Settled handles leave the registry before their result is
            # delivered — a long-lived server must not retain every result it
            # ever produced — and go back if delivering raised, so that the
            # crash path fails them.
            handle = self._registry.pop(event.request_id, None)
            if handle is not None:
                try:
                    handle._on_done(event)
                except BaseException:
                    self._registry[event.request_id] = handle
                    raise
        if pumped.error is not None:
            raise pumped.error

    def _crash(self, error: BaseException) -> None:
        """The step thread died: refuse every call, queued or new, and fail
        every in-flight handle with ``error`` — a dead step thread must not
        strand consumers on ``stream()``/``result()`` forever."""
        # Refuse new calls before any consumer can see the crash.
        self._crashed = error
        self._inbox.close()
        self._refuse(self._inbox.take_left())
        crashed, self._registry = self._registry, {}
        for handle in crashed.values():
            handle._fail(error)

    def _refuse(self, calls: List[_Call]) -> None:
        for call in calls:
            if call.future is not None and call.future.set_running_or_notify_cancel():
                call.future.set_exception(self._refusal())

    def _refusal(self) -> RuntimeError:
        """The error a call gets when no step thread owns the engine."""
        if self._crashed is None:
            return RuntimeError("serving step thread is not running; call start() first")
        error = RuntimeError("serving step thread crashed; build a fresh engine")
        error.__cause__ = self._crashed
        return error

    def _send(self, command: object, handle: Optional[StreamHandle] = None) -> Future:
        """Queue ``command`` for the step thread; the future resolves to its reply."""
        future: Future = Future()
        if not self._inbox.put(_Call(command, future, handle)):
            raise self._refusal()
        return future

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
        semantics for ``priority`` and ``deadline``; a validation error is
        raised here).  The step thread answers the submit before its next
        engine step and registers the handle before it dispatches any event,
        so the stream never misses a burst; awaiting never stalls the event
        loop.
        """
        handle = StreamHandle(self, asyncio.get_running_loop())
        command = SubmitCommand(
            prompt_ids=[int(t) for t in prompt_ids],
            config=None if config is None else encode_config(config),
            request_id=request_id,
            priority=priority,
            deadline=deadline,
        )
        await asyncio.wrap_future(self._send(command, handle))
        return handle

    async def query(self, kind: str):
        """Read engine state on the step thread: a :class:`QueryCommand` through the inbox.

        ``kind`` is one of :class:`QueryCommand`'s kinds (``"stats"``,
        ``"kv_pool_stats"``, ``"prefix_cache_stats"``); returns the reply's
        payload.  The step thread answers it between two engine steps, so
        the read never races a step; an unknown kind raises here.
        """
        reply = await asyncio.wrap_future(self._send(QueryCommand(kind=kind)))
        return reply.payload

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


__all__ = [
    "AsyncServingEngine",
    "RequestCancelled",
    "RequestDeadlineExceeded",
    "StreamHandle",
]
