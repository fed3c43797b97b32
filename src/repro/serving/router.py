"""Router/supervisor: shard serving traffic across worker processes.

Layer 3 of the sharded serving stack (``docs/sharding.md``).  A
:class:`Router` owns N :class:`~repro.serving.worker.EngineWorker` replicas
and does four jobs:

* **Routing.** Each submit hashes its prompt preamble
  (:func:`~repro.serving.messages.preamble_key`) to pick a worker, so
  requests sharing a preamble land on the replica whose prefix cache already
  holds that preamble's K/V.  The mapping is sticky (remembered per key) but
  yields to a least-loaded fallback when the affinity choice is more than
  ``imbalance_threshold`` outstanding requests ahead of the emptiest worker —
  affinity is a locality hint, not a fairness policy.

* **Supervision.** Workers emit heartbeats while idle and step replies while
  busy; the router watches process liveness on every pump and treats a dead
  process (or a :class:`WorkerFatal` report) as a crash: it restarts the
  replica and **requeues** every in-flight request under its original
  request id.

* **Deterministic replay.** Requeued requests re-execute from scratch on the
  fresh worker, but per-request rngs derive from ``(seed, request_id)``
  (:func:`~repro.serving.request.derive_request_rng`) and the engine is
  batch-composition-invariant, so the replay commits the *identical* token
  sequence.  Tokens the router already delivered are deduplicated by count —
  the replayed prefix is checked against the delivered stream and dropped,
  so consumers see every token exactly once.  This is the "no request lost
  or duplicated" guarantee the fuzz suite hammers.

* **Aggregation.** ``kv_pool_stats()`` / ``prefix_cache_stats()`` /
  ``fleet_stats()`` merge per-replica counters into one fleet view, and
  ``stream_metrics()`` serves the per-request latency series frozen into
  each :class:`FinishedEvent` — the one record of a finished request, which
  :class:`RouterRequest` keeps as ``finished``.

The identity contract: a single-worker router produces token-for-token the
same results as driving a :class:`~repro.serving.ServingEngine` in process,
because both are the same :class:`~repro.serving.control.EngineControl`
answering the same messages — asserted across decoding strategies in
``tests/test_router.py``.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional

from repro.core.decoding import DecodeResult
from repro.serving.messages import (
    CancelCommand,
    CancelReply,
    CommitEvent,
    Envelope,
    FinishedEvent,
    Heartbeat,
    QueryCommand,
    ShutdownCommand,
    StepReply,
    SubmitCommand,
    SubmitReply,
    WorkerFatal,
    decode_result,
    encode_config,
    preamble_key,
)
from repro.serving.worker import EngineWorker, WorkerSpec

__all__ = ["Router", "RouterConfig", "RouterRequest"]

#: Prompt tokens hashed for affinity routing; requests agreeing on this window
#: co-locate on one replica's prefix cache.
PREAMBLE_TOKENS = 16


@dataclass
class RouterConfig:
    """Knobs of the router/supervisor (see ``docs/sharding.md`` for tuning).

    ``start_method=None`` picks ``fork`` where available (fast, callable
    factories allowed) and ``spawn`` otherwise; pass ``"spawn"`` explicitly
    to prove spawn-safety (requires a ``"module:callable"`` factory).
    """

    num_workers: int = 2
    start_method: Optional[str] = None
    #: Outstanding-request gap at which affinity yields to least-loaded.
    imbalance_threshold: int = 4
    #: Crash restarts allowed per worker slot before the router gives up and
    #: fails that slot's in-flight requests.
    max_restarts: int = 2
    seed: int = 0
    hello_timeout: float = 120.0
    #: Pump sleep while waiting in ``drain``/``result``.
    poll_interval: float = 0.002


@dataclass
class RouterRequest:
    """Router-side record of one request: canonical stream + final result."""

    request_id: str
    prompt_ids: List[int]
    config: Optional[dict]
    priority: int
    deadline: Optional[float]
    worker_index: int
    #: Canonical delivered token stream (the exactly-once view).
    tokens: List[int] = field(default_factory=list)
    #: Replayed tokens still to swallow after a crash requeue.
    replay_skip: int = 0
    #: The worker's record of how the request ended (result, cancellation,
    #: stream metrics, latency); ``None`` until it settles.
    finished: Optional[FinishedEvent] = None
    #: Why the router gave the request up (its worker slot exceeded
    #: ``max_restarts``); such a request has no finished event.
    error: Optional[str] = None
    #: Times this request was requeued onto a fresh replica.
    requeues: int = 0
    #: Optional per-burst callback ``(request_id, tokens)`` for streaming
    #: consumers; replayed (deduplicated) tokens never reach it.
    on_tokens: Optional[Callable[[str, List[int]], None]] = None
    submitted_at: float = 0.0
    first_token_at: Optional[float] = None
    finished_at: Optional[float] = None

    @property
    def done(self) -> bool:
        """Settled: finished on a worker, or given up by the router."""
        return self.finished is not None or self.error is not None


class Router:
    """Shard requests across supervised worker replicas.

    Args:
        factory: Engine factory for every worker — a callable (``fork``
            only) or an importable ``"module:callable"`` string
            (``spawn``-safe), called with ``factory_kwargs`` inside each
            worker process.
        factory_kwargs: Plain-data kwargs for the factory.
        config: :class:`RouterConfig`; ``None`` uses the defaults.

    The router is single-threaded: events are pumped inside ``submit`` /
    ``poll`` / ``result`` / ``drain`` calls, so callers never race the
    supervisor.  Workers still make progress between calls — they step
    autonomously in their own processes; the pipe buffers their events.
    """

    def __init__(
        self,
        factory: Any,
        factory_kwargs: Optional[Dict[str, Any]] = None,
        config: Optional[RouterConfig] = None,
    ) -> None:
        self.factory = factory
        self.factory_kwargs = dict(factory_kwargs or {})
        self.config = config or RouterConfig()
        if self.config.num_workers < 1:
            raise ValueError(f"num_workers must be positive, got {self.config.num_workers}")
        self.workers: List[EngineWorker] = []
        self._requests: Dict[str, RouterRequest] = {}
        self._affinity: Dict[int, int] = {}
        self._restarts: List[int] = []
        self._last_stats: List[Optional[dict]] = []
        self._next_id = 0
        self._started = False
        self._closed = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> "Router":
        """Spawn and handshake every worker replica."""
        if self._started:
            raise RuntimeError("router already started")
        for index in range(self.config.num_workers):
            self.workers.append(self._spawn_worker(index))
            self._restarts.append(0)
            self._last_stats.append(None)
        self._started = True
        return self

    def _spawn_worker(self, index: int) -> EngineWorker:
        spec = WorkerSpec(
            worker_id=f"w{index}",
            factory=self.factory,
            factory_kwargs=self.factory_kwargs,
            seed=self.config.seed,
        )
        worker = EngineWorker(
            spec, start_method=self.config.start_method, hello_timeout=self.config.hello_timeout
        )
        worker.start()
        return worker

    def close(self) -> None:
        """Shut every worker down (politely, then by force) and reap them."""
        if self._closed:
            return
        self._closed = True
        for worker in self.workers:
            if worker.alive and worker.conn is not None:
                try:
                    worker.send(ShutdownCommand())
                except (BrokenPipeError, OSError):
                    pass
        deadline = time.perf_counter() + 5.0
        for worker in self.workers:
            worker.join(timeout=max(0.0, deadline - time.perf_counter()))
            worker.close()

    def __enter__(self) -> "Router":
        if not self._started:
            self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Routing and submission
    # ------------------------------------------------------------------ #

    def _outstanding(self) -> List[int]:
        counts = [0] * len(self.workers)
        for record in self._requests.values():
            if not record.done:
                counts[record.worker_index] += 1
        return counts

    def _route(self, prompt_ids: List[int]) -> int:
        """Pick a worker: sticky prefix affinity, least-loaded under imbalance."""
        key = preamble_key(prompt_ids, PREAMBLE_TOKENS)
        index = self._affinity.get(key)
        if index is None or index >= len(self.workers):
            index = key % len(self.workers)
        loads = self._outstanding()
        if loads[index] - min(loads) > self.config.imbalance_threshold:
            index = loads.index(min(loads))
        self._affinity[key] = index
        return index

    def submit(
        self,
        prompt_ids: List[int],
        config: Optional[object] = None,
        request_id: Optional[str] = None,
        priority: int = 0,
        deadline: Optional[float] = None,
    ) -> str:
        """Route and submit one prompt; returns its request id.

        ``config`` accepts a :class:`~repro.models.generation
        .GenerationConfig` or an already-encoded dict.  The router always
        assigns/forwards an explicit request id so a crash requeue resubmits
        under the same identity (which is what makes the replayed sampling
        stream identical).
        """
        self._ensure_running()
        if request_id is None:
            # Skip ids the caller already chose.
            while f"r{self._next_id}" in self._requests:
                self._next_id += 1
            request_id = f"r{self._next_id}"
            self._next_id += 1
        if request_id in self._requests:
            raise ValueError(f"duplicate request_id {request_id!r}")
        encoded = config if (config is None or isinstance(config, dict)) else encode_config(config)
        prompt = [int(token) for token in prompt_ids]
        index = self._route(prompt)
        record = RouterRequest(
            request_id=request_id,
            prompt_ids=prompt,
            config=encoded,
            priority=priority,
            deadline=deadline,
            worker_index=index,
            submitted_at=time.perf_counter(),
        )
        self._requests[request_id] = record
        self._submit_to_worker(record)
        return request_id

    def _submit_to_worker(self, record: RouterRequest) -> None:
        command = SubmitCommand(
            prompt_ids=list(record.prompt_ids),
            config=record.config,
            request_id=record.request_id,
            priority=record.priority,
            deadline=record.deadline,
        )
        worker = self.workers[record.worker_index]
        try:
            reply = worker.request(command)
        except EOFError:
            # The chosen worker died under us; recover (which requeues this
            # record too, since it is already registered and not done).
            self._recover(record.worker_index)
            return
        assert isinstance(reply, SubmitReply)
        if reply.error is not None:
            del self._requests[record.request_id]
            raise ValueError(reply.error)

    def cancel(self, request_id: str) -> bool:
        """Cancel a request on its worker; no-op (False) once settled."""
        self._ensure_running()
        record = self._requests.get(request_id)
        if record is None:
            raise KeyError(f"unknown request id {request_id!r}")
        if record.done:
            return False
        worker = self.workers[record.worker_index]
        try:
            reply = worker.request(CancelCommand(request_id=request_id))
        except EOFError:
            self._recover(record.worker_index)
            return False
        assert isinstance(reply, CancelReply)
        self.poll()
        return reply.cancelled

    # ------------------------------------------------------------------ #
    # Event pump and supervision
    # ------------------------------------------------------------------ #

    def poll(self) -> None:
        """Drain every worker's traffic and run one supervision sweep."""
        self._ensure_running()
        fatal: List[int] = []
        for index, worker in enumerate(self.workers):
            for envelope in worker.collect():
                if self._apply_envelope(index, envelope):
                    fatal.append(index)
        for index in fatal:
            self._recover(index)
        for index, worker in enumerate(self.workers):
            if not worker.alive and index not in fatal:
                self._recover(index)

    def _apply_envelope(self, index: int, envelope: Envelope) -> bool:
        """Apply one envelope; returns True when it reports a worker death."""
        payload = envelope.payload
        if isinstance(payload, StepReply):
            for commit in payload.commits:
                self._apply_commit(commit)
            for finished in payload.finished:
                self._apply_finished(index, finished)
            self._last_stats[index] = _stats_dict(payload.stats)
            return False
        if isinstance(payload, Heartbeat):
            self._last_stats[index] = _stats_dict(payload.stats)
            return False
        if isinstance(payload, WorkerFatal):
            return True
        # Late solicited replies (e.g. a CancelReply whose waiter timed out)
        # carry no state the router still needs.
        return False

    def _apply_commit(self, event: CommitEvent) -> None:
        record = self._requests.get(event.request_id)
        if record is None or record.done:
            return
        tokens = [int(token) for token in event.tokens]
        if record.replay_skip > 0:
            overlap = min(record.replay_skip, len(tokens))
            replayed = tokens[:overlap]
            expected = record.tokens[
                len(record.tokens) - record.replay_skip : len(record.tokens) - record.replay_skip + overlap
            ]
            if replayed != expected:
                raise RuntimeError(
                    f"non-deterministic replay for {record.request_id!r}: "
                    f"replayed {replayed} != delivered {expected}"
                )
            record.replay_skip -= overlap
            tokens = tokens[overlap:]
        if not tokens:
            return
        if record.first_token_at is None:
            record.first_token_at = time.perf_counter()
        record.tokens.extend(tokens)
        if record.on_tokens is not None:
            record.on_tokens(record.request_id, tokens)

    def _apply_finished(self, index: int, event: FinishedEvent) -> None:
        record = self._requests.get(event.request_id)
        if record is None or record.done:
            return
        if record.replay_skip > 0:
            if not (event.cancelled or event.timed_out):
                raise RuntimeError(
                    f"request {record.request_id!r} finished with {record.replay_skip} "
                    "replayed tokens undelivered — replay diverged from the original run"
                )
            # Cancelled mid-replay: the fresh worker's result holds only the
            # prefix it re-committed, so the request settles with the stream
            # it delivered. (``text`` and ``code`` stay the worker's: the
            # router serves token ids and holds no tokenizer.)
            tokens = list(record.tokens)
            event = replace(event, result={**event.result, "token_ids": tokens, "tokens_generated": len(tokens)})
            record.replay_skip = 0
        record.finished = event
        record.finished_at = time.perf_counter()

    def _recover(self, index: int) -> None:
        """Restart a dead worker slot and requeue its in-flight requests."""
        worker = self.workers[index]
        # Drain whatever the dead worker managed to write before crashing —
        # every event already on the pipe is real, delivered work.
        for envelope in worker.collect():
            self._apply_envelope(index, envelope)
        worker.close()
        pending = [
            record
            for record in self._requests.values()
            if record.worker_index == index and not record.done
        ]
        self._restarts[index] += 1
        if self._restarts[index] > self.config.max_restarts:
            for record in pending:
                record.error = (
                    f"worker slot {index} exceeded max_restarts={self.config.max_restarts}"
                )
            raise RuntimeError(
                f"worker slot {index} crashed more than max_restarts={self.config.max_restarts} times"
            )
        self.workers[index] = self._spawn_worker(index)
        self._last_stats[index] = None
        for record in sorted(pending, key=lambda r: r.submitted_at):
            record.replay_skip = len(record.tokens)
            record.requeues += 1
            self._submit_to_worker(record)

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #

    def result(self, request_id: str, timeout: Optional[float] = None) -> DecodeResult:
        """Block (pumping events) until a request settles; return its result."""
        record = self._wait(request_id, timeout)
        if record.error is not None:
            raise RuntimeError(record.error)
        return decode_result(record.finished.result)

    def tokens(self, request_id: str) -> List[int]:
        """The canonical delivered token stream of a request (so far)."""
        return list(self._record(request_id).tokens)

    def request_record(self, request_id: str) -> RouterRequest:
        """The router's bookkeeping record (tests and benches introspect it)."""
        return self._record(request_id)

    def drain(self, timeout: Optional[float] = None) -> Dict[str, DecodeResult]:
        """Pump until every submitted request settles; return all results."""
        deadline = None if timeout is None else time.perf_counter() + timeout
        while any(not record.done for record in self._requests.values()):
            self.poll()
            if deadline is not None and time.perf_counter() > deadline:
                stuck = [r.request_id for r in self._requests.values() if not r.done]
                raise TimeoutError(f"drain timed out with {len(stuck)} unsettled: {stuck[:5]}")
            time.sleep(self.config.poll_interval)
        return {
            request_id: decode_result(record.finished.result)
            for request_id, record in self._requests.items()
            if record.finished is not None
        }

    def _wait(self, request_id: str, timeout: Optional[float]) -> RouterRequest:
        record = self._record(request_id)
        deadline = None if timeout is None else time.perf_counter() + timeout
        while not record.done:
            self.poll()
            if record.done:
                break
            if deadline is not None and time.perf_counter() > deadline:
                raise TimeoutError(f"request {request_id!r} did not settle within {timeout}s")
            time.sleep(self.config.poll_interval)
        return record

    def _record(self, request_id: str) -> RouterRequest:
        try:
            return self._requests[request_id]
        except KeyError:
            raise KeyError(f"unknown request id {request_id!r}") from None

    def forget(self, request_id: str) -> None:
        """Drop a settled request's record (long-lived routers bound memory)."""
        record = self._record(request_id)
        if not record.done:
            raise RuntimeError(f"request {request_id!r} is still in flight")
        del self._requests[request_id]

    # ------------------------------------------------------------------ #
    # Fleet observability
    # ------------------------------------------------------------------ #

    def stream_metrics(self, request_id: str) -> dict:
        """Latency series frozen at completion (worker-side clock)."""
        record = self._record(request_id)
        if record.finished is None:
            raise RuntimeError(f"request {request_id!r} has no frozen stream metrics yet")
        return record.finished.stream_metrics

    def kv_pool_stats(self) -> dict:
        """Per-worker K/V pool stats plus a fleet aggregate.

        The aggregate sums the block counts and recomputes ``occupancy`` /
        ``shared_block_ratio`` from those sums; ``block_size`` is the
        workers' common block size (``None`` if they differ).
        """
        return self._aggregate_query("kv_pool_stats")

    def prefix_cache_stats(self) -> dict:
        """Per-worker prefix-reuse stats plus a numeric-summed fleet aggregate."""
        return self._aggregate_query("prefix_cache_stats")

    def fleet_stats(self) -> dict:
        """Latest backpressure snapshot per worker plus queue totals."""
        self.poll()
        per_worker = {
            worker.worker_id: self._last_stats[index]
            for index, worker in enumerate(self.workers)
        }
        known = [stats for stats in per_worker.values() if stats is not None]
        aggregate = {
            "queue_depth": sum(stats["queue_depth"] for stats in known),
            "num_prefilling": sum(stats["num_prefilling"] for stats in known),
            "num_active": sum(stats["num_active"] for stats in known),
            "steps_executed": sum(stats["steps_executed"] for stats in known),
            "num_workers": len(self.workers),
            "workers_alive": sum(1 for worker in self.workers if worker.alive),
            "restarts": sum(self._restarts),
        }
        return {"workers": per_worker, "aggregate": aggregate}

    def _aggregate_query(self, kind: str) -> dict:
        # A supervision sweep first, so a worker that died idle is restarted
        # and answers rather than dropping out of the fleet's numbers.
        self.poll()
        per_worker: Dict[str, dict] = {}
        for index, worker in enumerate(self.workers):
            if not worker.alive:
                continue
            try:
                reply = worker.request(QueryCommand(kind=kind))
            except EOFError:
                continue
            per_worker[worker.worker_id] = reply.payload
        aggregate: Dict[str, object] = {}
        for payload in per_worker.values():
            for key, value in payload.items():
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    continue
                current = aggregate.get(key)
                aggregate[key] = value if current is None else current + value
        # Ratios and sizes don't sum; recompute them from the summed counts.
        in_use = aggregate.get("blocks_in_use")
        if isinstance(in_use, (int, float)):
            num_blocks = aggregate["num_blocks"]
            aggregate["occupancy"] = in_use / num_blocks if num_blocks else 0.0
            aggregate["shared_block_ratio"] = aggregate["shared_blocks"] / in_use if in_use else 0.0
            block_sizes = {payload["block_size"] for payload in per_worker.values()}
            aggregate["block_size"] = block_sizes.pop() if len(block_sizes) == 1 else None
        hits = aggregate.get("hits")
        misses = aggregate.get("misses")
        if isinstance(hits, (int, float)) and isinstance(misses, (int, float)):
            lookups = hits + misses
            aggregate["hit_rate"] = hits / lookups if lookups else 0.0
        reused = aggregate.get("prompt_tokens_reused")
        prefilled = aggregate.get("prompt_tokens_prefilled")
        if isinstance(reused, (int, float)) and isinstance(prefilled, (int, float)):
            total = reused + prefilled
            aggregate["prefill_savings"] = reused / total if total else 0.0
        self.poll()
        return {"workers": per_worker, "aggregate": aggregate}

    def _ensure_running(self) -> None:
        if not self._started:
            raise RuntimeError("router is not started (use start() or a with-block)")
        if self._closed:
            raise RuntimeError("router is closed")


def _stats_dict(stats: object) -> dict:
    return asdict(stats)  # type: ignore[call-overload]
