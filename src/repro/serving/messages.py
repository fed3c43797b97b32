"""Plain-data control surface of the serving engine.

Every way of driving an engine — the in-process
:class:`~repro.serving.server.AsyncServingEngine`, a
:class:`~repro.serving.worker.EngineWorker` process behind a pipe, or a test
poking at scheduling edge cases — speaks the same small vocabulary of
**commands** and **replies** defined here.  The contract:

* messages are frozen dataclasses of plain data only (ints, floats, strings,
  lists, dicts) — no numpy arrays, callables, locks or engine objects — so
  they pickle across a ``multiprocessing`` pipe and could equally be encoded
  as JSON;
* one command maps to exactly one reply (:func:`reply_type_for`); unsolicited
  worker traffic (heartbeats, crash reports) uses the event types so a router
  can interleave solicited and unsolicited messages on one connection;
* request results and configs cross the boundary as dicts produced by the
  codecs (:func:`encode_config`/:func:`decode_config`,
  :func:`encode_result`/:func:`decode_result`) — round-tripping is lossless
  and asserted in ``tests/test_router.py``.

The symmetry is the point of the layer split: because
:class:`~repro.serving.control.EngineControl` answers these messages the same
way whether it runs in the caller's process or inside a worker, the router's
single-worker output is token-identical to driving the engine directly.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Type

from repro.core.decoding import DecodeResult, StepRecord
from repro.models.generation import GenerationConfig

#: Protocol version stamped into :class:`WorkerHello`; a router refuses a
#: worker speaking a different version instead of mis-parsing its traffic.
#: 2: ``FinishedEvent.latency_seconds``; no per-request ``QueryCommand``.
PROTOCOL_VERSION = 2


# --------------------------------------------------------------------------- #
# Codecs: GenerationConfig / DecodeResult <-> plain dicts
# --------------------------------------------------------------------------- #


def encode_config(config: GenerationConfig) -> dict:
    """Flatten a :class:`GenerationConfig` into a plain dict."""
    return asdict(config)


def decode_config(payload: dict) -> GenerationConfig:
    """Rebuild a :class:`GenerationConfig` from :func:`encode_config` output.

    Unknown keys raise instead of being dropped: silently ignoring a field
    (say, a future sampling knob) would make a router and a newer worker
    *appear* to agree while decoding different requests.
    """
    return GenerationConfig(**payload)


def encode_result(result: DecodeResult) -> dict:
    """Flatten a :class:`DecodeResult` (``asdict`` recurses into its step records)."""
    return asdict(result)


def decode_result(payload: dict) -> DecodeResult:
    """Rebuild a :class:`DecodeResult` from :func:`encode_result` output."""
    data = dict(payload)
    data["step_records"] = [StepRecord(**record) for record in data.get("step_records", [])]
    return DecodeResult(**data)


# --------------------------------------------------------------------------- #
# Affinity hashing
# --------------------------------------------------------------------------- #


def preamble_key(prompt_ids: List[int], preamble_tokens: int) -> int:
    """Stable 64-bit hash of a prompt's preamble, for prefix-affinity routing.

    Hashes the first ``preamble_tokens`` token ids through SHA-256 so the
    mapping is identical across processes, interpreter restarts and Python
    versions (the built-in ``hash`` is salted per process for strings and
    would scatter the same preamble across workers between runs).  Requests
    sharing a preamble therefore land on the same worker — the one whose
    prefix cache already holds the preamble's K/V.
    """
    window = prompt_ids[: max(1, preamble_tokens)]
    digest = hashlib.sha256(b",".join(str(int(t)).encode() for t in window)).digest()
    return int.from_bytes(digest[:8], "big")


# --------------------------------------------------------------------------- #
# Commands (caller -> engine)
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class SubmitCommand:
    """Queue one tokenized prompt for generation.

    ``config`` is the :func:`encode_config` dict (``None`` = engine default,
    greedy).  ``request_id=None`` asks the engine to assign one; routers
    always assign ids themselves so crash requeues resubmit under the same
    identity.
    """

    prompt_ids: List[int]
    config: Optional[dict] = None
    request_id: Optional[str] = None
    priority: int = 0
    deadline: Optional[float] = None


@dataclass(frozen=True)
class CancelCommand:
    """Cancel a request in any pre-finished state (no-op once settled)."""

    request_id: str


@dataclass(frozen=True)
class QueryCommand:
    """Read engine state without advancing it.

    ``kind`` selects the payload: ``"stats"`` (an :class:`EngineStats`
    snapshot), ``"kv_pool_stats"`` or ``"prefix_cache_stats"``.
    """

    kind: str


@dataclass(frozen=True)
class ShutdownCommand:
    """Stop a worker's loop cleanly (in-flight requests are abandoned)."""


# --------------------------------------------------------------------------- #
# Replies (engine -> caller)
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class EngineStats:
    """Backpressure snapshot piggybacked on every step reply and heartbeat.

    ``free_kv_tokens`` is the engine's unreserved page capacity in tokens
    (:meth:`ServingEngine.free_kv_tokens
    <repro.serving.engine_core.ServingEngine.free_kv_tokens>`).
    """

    queue_depth: int
    num_prefilling: int
    num_active: int
    has_work: bool
    free_kv_tokens: int
    steps_executed: int


@dataclass(frozen=True)
class CommitEvent:
    """One committed token burst of one request (one engine step's worth)."""

    request_id: str
    tokens: List[int]
    #: Engine-local ``perf_counter`` timestamp of the commit.
    timestamp: float


@dataclass(frozen=True)
class FinishedEvent:
    """A request left the engine: the one record of how it ended, which every
    front-end and replay reads (the engine forgets the request once it is out).

    ``timed_out`` marks a cancellation by the request's deadline;
    ``latency_seconds`` is submission to completion on the engine's clock.
    """

    request_id: str
    result: dict
    cancelled: bool
    timed_out: bool
    #: ``ServingEngine.stream_metrics`` payload frozen at completion.
    stream_metrics: dict
    latency_seconds: float


@dataclass(frozen=True)
class SubmitReply:
    """Outcome of a :class:`SubmitCommand`.

    Validation failures travel as data (``error`` set, ``request_id`` empty)
    rather than as exceptions, because over a pipe an exception would kill
    the worker loop for what is a caller mistake.
    """

    request_id: str
    error: Optional[str] = None


@dataclass(frozen=True)
class CancelReply:
    cancelled: bool


@dataclass(frozen=True)
class QueryReply:
    kind: str
    payload: dict


@dataclass(frozen=True)
class ShutdownReply:
    """Acknowledged; the worker exits after sending this."""


# --------------------------------------------------------------------------- #
# Worker-originated events (unsolicited)
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class StepReply:
    """The events of one serve-loop iteration, plus a stats snapshot.

    Unsolicited: a worker sends one after each
    :meth:`~repro.serving.control.EngineControl.pump` that produced events
    (the commands' own replies go out first).
    """

    commits: List[CommitEvent]
    finished: List[FinishedEvent]
    stats: EngineStats


@dataclass(frozen=True)
class WorkerHello:
    """First message a worker sends: identity + protocol handshake."""

    worker_id: str
    pid: int
    protocol: int = PROTOCOL_VERSION


@dataclass(frozen=True)
class Heartbeat:
    """Periodic liveness signal an idle worker emits between commands."""

    worker_id: str
    stats: EngineStats
    timestamp: float


@dataclass(frozen=True)
class WorkerFatal:
    """A step crashed inside the worker; the worker exits after sending this.

    The supervisor treats it exactly like a silent death (restart + requeue),
    but the error text makes the post-mortem readable.
    """

    worker_id: str
    error: str


@dataclass(frozen=True)
class Envelope:
    """Wrapper for every worker->router message.

    ``reply_to`` is the command sequence number a reply answers, or ``None``
    for unsolicited events — the router matches queries to answers by it
    while step replies and heartbeats stream in between.
    """

    worker_id: str
    seq: int
    payload: object
    reply_to: Optional[int] = None


#: Command -> reply pairing; :class:`QueryCommand` answers with
#: :class:`QueryReply` and so on.  Drivers use this to validate traffic.
_REPLY_TYPES: Dict[type, type] = {
    SubmitCommand: SubmitReply,
    CancelCommand: CancelReply,
    QueryCommand: QueryReply,
    ShutdownCommand: ShutdownReply,
}


def reply_type_for(command: object) -> Type:
    """The reply type a well-behaved engine sends for ``command``."""
    try:
        return _REPLY_TYPES[type(command)]
    except KeyError:
        raise TypeError(f"unknown engine command: {command!r}") from None


__all__ = [
    "CancelCommand",
    "CancelReply",
    "CommitEvent",
    "EngineStats",
    "Envelope",
    "FinishedEvent",
    "Heartbeat",
    "PROTOCOL_VERSION",
    "QueryCommand",
    "QueryReply",
    "ShutdownCommand",
    "ShutdownReply",
    "StepReply",
    "SubmitCommand",
    "SubmitReply",
    "WorkerFatal",
    "WorkerHello",
    "decode_config",
    "decode_result",
    "encode_config",
    "encode_result",
    "preamble_key",
    "reply_type_for",
]
