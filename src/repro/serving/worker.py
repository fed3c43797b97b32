"""Worker process: one engine behind a message loop.

The multi-process transport of the serving stack (``docs/sharding.md``).  A
worker is a child process running :func:`worker_main`: it builds its own
engine from a spawn-safe factory, wraps it in an
:class:`~repro.serving.control.EngineControl`, and then serves it with the
same loop as the in-process front-end: each iteration hands every command
waiting on the pipe to :meth:`~repro.serving.control.EngineControl.pump`,
which answers them, steps the engine once if it has work, and forgets every
request whose :class:`~repro.serving.messages.FinishedEvent` it hands out —
the event that goes to the router is the one record of the request, so a
long-lived worker retains nothing it has reported.  Everything crossing the pipe is an
:class:`~repro.serving.messages.Envelope` around the plain-data messages of
:mod:`repro.serving.messages`:

* command replies carry ``reply_to=<command seq>`` so the parent can match
  them while unsolicited traffic streams in between;
* the commits and finishes of an iteration ship as one unsolicited
  :class:`StepReply` envelope (``reply_to=None``);
* an idle worker emits :class:`Heartbeat` events so the router can
  distinguish "healthy but idle" from "hung";
* an exception escaping ``engine.step`` is a worker bug, not a caller
  mistake: the worker reports :class:`WorkerFatal` and exits non-zero, and
  the supervisor restarts it and requeues its in-flight requests.

Spawn safety: under the ``spawn`` start method the :class:`WorkerSpec` is
pickled into a fresh interpreter, so its factory must be importable — a
``"module:callable"`` string (resolved by :func:`resolve_factory`) plus
plain-data kwargs.  :func:`engine_from_pipeline` is the canonical such
factory: it unpickles a trained :class:`~repro.core.pipeline
.VerilogSpecPipeline` from a file written by :func:`save_pipeline` and builds
the engine inside the worker, so model weights are constructed exactly once
per process and never cross the pipe.  Under ``fork`` the factory may be any
callable (it is inherited, not pickled), which keeps tests fast.

The parent-side handle is :class:`EngineWorker`: it spawns the process,
performs the :class:`WorkerHello` protocol handshake, and provides
send/receive plumbing with an inbox for unsolicited envelopes that arrive
while a caller is waiting on a specific reply.
"""

from __future__ import annotations

import hashlib
import importlib
import multiprocessing
import multiprocessing.connection
import pickle
import sys
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional

import numpy as np

from repro.serving.control import EngineControl
from repro.serving.messages import (
    PROTOCOL_VERSION,
    Envelope,
    Heartbeat,
    ShutdownCommand,
    StepReply,
    SubmitCommand,
    SubmitReply,
    WorkerFatal,
    WorkerHello,
    reply_type_for,
)

__all__ = [
    "EngineWorker",
    "WorkerSpec",
    "engine_from_pipeline",
    "resolve_factory",
    "save_pipeline",
    "worker_main",
]


# --------------------------------------------------------------------------- #
# Engine factories
# --------------------------------------------------------------------------- #


def resolve_factory(factory: Any) -> Callable[..., Any]:
    """Resolve a worker's engine factory to a callable.

    Accepts either a callable (usable under the ``fork`` start method, where
    the child inherits it) or a ``"module:callable"`` string (required under
    ``spawn``, where the spec is pickled into a fresh interpreter that must
    import the factory itself).
    """
    if callable(factory):
        return factory
    if isinstance(factory, str):
        module_name, _, attribute = factory.partition(":")
        if not module_name or not attribute:
            raise ValueError(
                f"factory string must look like 'module:callable', got {factory!r}"
            )
        target = importlib.import_module(module_name)
        for part in attribute.split("."):
            target = getattr(target, part)
        if not callable(target):
            raise TypeError(f"resolved factory {factory!r} is not callable")
        return target
    raise TypeError(f"factory must be a callable or 'module:callable' string, got {factory!r}")


def save_pipeline(pipeline: Any, path: str) -> str:
    """Pickle a trained pipeline to ``path`` for :func:`engine_from_pipeline`.

    The parent trains once and writes the file; every worker process then
    loads the identical weights instead of re-training — the sharded
    equivalent of sharing one model object between in-process engines.
    """
    with open(path, "wb") as handle:
        pickle.dump(pipeline, handle)
    return path


def engine_from_pipeline(
    pipeline_path: str,
    method: str = "ours",
    num_candidates: int = 3,
    scheduler_config: Any = None,
    prefix_cache_tokens: Optional[int] = None,
    kv_block_size: int = 16,
    kv_pool_blocks: Optional[int] = None,
):
    """Spawn-safe engine factory: unpickle a trained pipeline, build an engine.

    All arguments are plain data, so a :class:`WorkerSpec` carrying
    ``factory="repro.serving.worker:engine_from_pipeline"`` pickles cleanly
    under the ``spawn`` start method.  ``prefix_cache_tokens`` constructs a
    per-worker :class:`~repro.serving.PrefixCache` (caches hold model-bound
    K/V and cannot be shared across processes).
    """
    from repro.serving.prefix_cache import PrefixCache

    with open(pipeline_path, "rb") as handle:
        pipeline = pickle.load(handle)
    prefix_cache = None
    if prefix_cache_tokens is not None:
        prefix_cache = PrefixCache(max_tokens=prefix_cache_tokens)
    return pipeline.engine_for(
        method,
        num_candidates=num_candidates,
        scheduler_config=scheduler_config,
        prefix_cache=prefix_cache,
        kv_block_size=kv_block_size,
        kv_pool_blocks=kv_pool_blocks,
    )


# --------------------------------------------------------------------------- #
# Worker process
# --------------------------------------------------------------------------- #


@dataclass
class WorkerSpec:
    """Everything a worker process needs to build and run its engine.

    Must stay plain data (plus an importable factory reference) so it pickles
    under ``spawn``.  ``seed`` derives the worker's ambient numpy seed — the
    engine's *sampling* rngs are per-request and placement-independent
    (:func:`~repro.serving.request.derive_request_rng`), so this only pins
    incidental randomness and keeps reruns reproducible.
    """

    worker_id: str
    factory: Any
    factory_kwargs: Dict[str, Any] = field(default_factory=dict)
    seed: int = 0


#: Seconds between the stats heartbeats a worker sends its router.
HEARTBEAT_INTERVAL = 0.2


def _worker_seed(spec: WorkerSpec) -> int:
    """Stable per-worker seed: ``spec.seed`` mixed with the worker id."""
    digest = hashlib.sha256(f"{spec.seed}:{spec.worker_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


def worker_main(conn: multiprocessing.connection.Connection, spec: WorkerSpec) -> None:
    """Child-process entry point: build the engine, serve the message loop.

    Loop shape: pump every command waiting on the pipe (so cancels never
    queue behind compute) together with one engine step, send the replies,
    then the iteration's events as an unsolicited ``StepReply``; when idle,
    block on the pipe until a command arrives or a heartbeat is due.
    Heartbeats go out every :data:`HEARTBEAT_INTERVAL` seconds.  Submit
    errors are data (``SubmitReply.error``); every other error is fatal.
    """
    out_seq = 0

    def send(payload: object, reply_to: Optional[int] = None) -> None:
        nonlocal out_seq
        out_seq += 1
        conn.send(Envelope(worker_id=spec.worker_id, seq=out_seq, payload=payload, reply_to=reply_to))

    try:
        np.random.seed(_worker_seed(spec))
        factory = resolve_factory(spec.factory)
        engine = factory(**spec.factory_kwargs)
        control = EngineControl(engine)
    except BaseException as exc:  # construction failure: report, then die
        try:
            send(WorkerFatal(worker_id=spec.worker_id, error=_format_error(exc)))
        except (BrokenPipeError, OSError):
            pass
        sys.exit(1)

    send(WorkerHello(worker_id=spec.worker_id, pid=multiprocessing.current_process().pid or 0))
    last_heartbeat = time.perf_counter()

    try:
        while True:
            envelopes: List[Envelope] = []
            while conn.poll(0):
                envelopes.append(conn.recv())
            pumped = control.pump([envelope.payload for envelope in envelopes])
            for envelope, reply in zip(envelopes, pumped.replies):
                if isinstance(reply, Exception):
                    if not isinstance(envelope.payload, SubmitCommand):
                        raise reply
                    # A bad submit is the caller's mistake, not the worker's:
                    # it travels back as data instead of killing the loop.
                    reply = SubmitReply(request_id=envelope.payload.request_id or "", error=str(reply))
                send(reply, reply_to=envelope.seq)
            if pumped.commits or pumped.finished:
                send(StepReply(commits=pumped.commits, finished=pumped.finished, stats=control.stats()))
            if pumped.error is not None:
                raise pumped.error
            if any(isinstance(envelope.payload, ShutdownCommand) for envelope in envelopes):
                return
            now = time.perf_counter()
            if now - last_heartbeat >= HEARTBEAT_INTERVAL:
                send(Heartbeat(worker_id=spec.worker_id, stats=control.stats(), timestamp=now))
                last_heartbeat = now
            if not control.engine.has_work:
                # Idle: sleep on the pipe, so a command wakes us at once.
                conn.poll(last_heartbeat + HEARTBEAT_INTERVAL - now)
    except (EOFError, BrokenPipeError, OSError):
        # Parent went away; nothing left to serve.
        return
    except BaseException as exc:
        # A step (or a command other than submit) crashed: report and exit
        # non-zero so the supervisor restarts us and requeues our in-flight
        # requests.
        try:
            send(WorkerFatal(worker_id=spec.worker_id, error=_format_error(exc)))
        except (BrokenPipeError, OSError):
            pass
        sys.exit(1)


def _format_error(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


# --------------------------------------------------------------------------- #
# Parent-side handle
# --------------------------------------------------------------------------- #


class EngineWorker:
    """Parent-side handle on one worker process.

    Owns the process and its pipe, performs the hello handshake, and keeps
    an inbox of unsolicited envelopes (step events, heartbeats, fatals) that
    arrive while :meth:`request` is waiting for a specific reply — the router
    drains the inbox on every pump so no event is lost to interleaving.
    """

    def __init__(
        self,
        spec: WorkerSpec,
        start_method: Optional[str] = None,
        hello_timeout: float = 120.0,
    ) -> None:
        self.spec = spec
        if start_method is None:
            start_method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        self.start_method = start_method
        self.hello_timeout = hello_timeout
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.conn: Optional[multiprocessing.connection.Connection] = None
        self.hello: Optional[WorkerHello] = None
        self.inbox: Deque[Envelope] = deque()
        self._next_seq = 0

    @property
    def worker_id(self) -> str:
        return self.spec.worker_id

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def start(self) -> WorkerHello:
        """Spawn the process and wait for its :class:`WorkerHello`."""
        context = multiprocessing.get_context(self.start_method)
        parent_conn, child_conn = context.Pipe(duplex=True)
        process = context.Process(
            target=worker_main,
            args=(child_conn, self.spec),
            name=f"engine-worker-{self.spec.worker_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        self.process = process
        self.conn = parent_conn
        deadline = time.perf_counter() + self.hello_timeout
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or not parent_conn.poll(min(max(remaining, 0.0), 0.1)):
                if remaining <= 0:
                    self.terminate()
                    raise TimeoutError(
                        f"worker {self.worker_id!r} did not say hello within {self.hello_timeout}s"
                    )
                continue
            envelope: Envelope = parent_conn.recv()
            payload = envelope.payload
            if isinstance(payload, WorkerHello):
                if payload.protocol != PROTOCOL_VERSION:
                    self.terminate()
                    raise RuntimeError(
                        f"worker {self.worker_id!r} speaks protocol {payload.protocol}, "
                        f"router expects {PROTOCOL_VERSION}"
                    )
                self.hello = payload
                return payload
            if isinstance(payload, WorkerFatal):
                self.join(timeout=1.0)
                raise RuntimeError(
                    f"worker {self.worker_id!r} failed during construction: {payload.error}"
                )
            self.inbox.append(envelope)

    # -- messaging --------------------------------------------------------- #

    def send(self, command: object) -> int:
        """Send one command; returns the sequence number replies will cite."""
        if self.conn is None:
            raise RuntimeError(f"worker {self.worker_id!r} is not started")
        self._next_seq += 1
        self.conn.send(Envelope(worker_id=self.worker_id, seq=self._next_seq, payload=command))
        return self._next_seq

    def collect(self) -> List[Envelope]:
        """Drain the inbox plus everything currently readable on the pipe."""
        envelopes: List[Envelope] = list(self.inbox)
        self.inbox.clear()
        conn = self.conn
        if conn is not None:
            try:
                while conn.poll(0):
                    envelopes.append(conn.recv())
            except (EOFError, BrokenPipeError, OSError):
                pass  # dead worker: the supervisor notices via .alive
        return envelopes

    def request(self, command: object, timeout: float = 60.0) -> object:
        """Round-trip one command, buffering unsolicited traffic meanwhile."""
        expected = reply_type_for(command)
        try:
            seq = self.send(command)
        except (BrokenPipeError, OSError):
            raise EOFError(f"worker {self.worker_id!r} died mid-request") from None
        conn = self.conn
        assert conn is not None
        deadline = time.perf_counter() + timeout
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise TimeoutError(
                    f"worker {self.worker_id!r}: no {expected.__name__} within {timeout}s"
                )
            try:
                if not conn.poll(min(remaining, 0.05)):
                    if not self.alive:
                        raise EOFError(f"worker {self.worker_id!r} died mid-request")
                    continue
                envelope: Envelope = conn.recv()
            except (EOFError, BrokenPipeError, OSError):
                raise EOFError(f"worker {self.worker_id!r} died mid-request") from None
            if envelope.reply_to == seq:
                payload = envelope.payload
                if not isinstance(payload, expected):
                    raise TypeError(
                        f"worker {self.worker_id!r} answered {type(command).__name__} "
                        f"with {type(payload).__name__}"
                    )
                return payload
            self.inbox.append(envelope)

    # -- lifecycle --------------------------------------------------------- #

    def kill(self) -> None:
        """Hard-kill the process (crash injection for tests and benches).

        Returns once the process is dead, so :attr:`alive` is already False.
        """
        if self.process is not None and self.process.is_alive():
            self.process.kill()
            self.process.join()

    def terminate(self) -> None:
        if self.process is not None and self.process.is_alive():
            self.process.terminate()

    def join(self, timeout: Optional[float] = None) -> None:
        if self.process is not None:
            self.process.join(timeout)

    def close(self) -> None:
        """Release the pipe and reap the process (terminating if needed)."""
        if self.process is not None and self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5.0)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=5.0)
        if self.conn is not None:
            try:
                self.conn.close()
            except OSError:
                pass
            self.conn = None
