"""Multi-request serving: continuous batching over the shared KV cache.

The serving subsystem grows the single-stream speculative decoder into a
throughput-oriented engine, in three layers — the engine, the message
control over it, and the transports that drive the control:

* :mod:`repro.serving.request` — :class:`GenerationRequest` /
  :class:`RequestState`, the unit of work and its lifecycle;
* :mod:`repro.serving.scheduler` — FCFS continuous-batching admission under
  a token budget, with optional chunked-prefill pacing (:class:`Scheduler`,
  :class:`SchedulerConfig`);
* :mod:`repro.serving.prefix_cache` — cross-request prompt-prefix reuse: a
  trie with one node per retained pool block, LRU-evicted under a token
  budget (:class:`PrefixCache`, one per engine); retention pins shared
  blocks by refcount instead of copying, and hits splice them in zero-copy;
* :mod:`repro.serving.engine_core` — **layer 0**, :class:`ServingEngine`: the
  one owner of request state (ids, validation, results, listeners) and of the
  step loop that advances every in-flight request through one shared batched
  forward per iteration, token-identical to sequential
  :meth:`SpeculativeDecoder.generate`.  K/V memory is the paged block pool
  of :mod:`repro.nn.kv_pool` — see ``docs/kv-memory.md``;
* :mod:`repro.serving.messages` / :mod:`repro.serving.control` — **layer 1**,
  the plain-data command/reply vocabulary and the :class:`EngineControl`
  that answers it against one engine; it translates and buffers events, and
  owns no request state;
* :mod:`repro.serving.server` — **layer 2, in process**:
  :class:`AsyncServingEngine`, the asyncio streaming front-end: per-request
  :class:`StreamHandle` with ``async for burst in handle.stream()``,
  cooperative cancellation and per-request deadlines, driving the control on
  a background thread;
* :mod:`repro.serving.worker` / :mod:`repro.serving.router` — **layer 2,
  multi-process**: :class:`EngineWorker` replicas each running one engine
  and its control behind a pipe, supervised by a :class:`Router` with
  prefix-affinity routing, crash restart and deterministic requeue.

See ``docs/serving.md``, ``docs/streaming.md`` and ``docs/sharding.md`` for
the design discussion.
"""

from repro.serving.control import EngineControl
from repro.serving.engine_core import ServingEngine
from repro.serving.prefix_cache import PrefixCache, PrefixCacheStats
from repro.serving.request import (
    GenerationRequest,
    RequestState,
    RequestStatus,
    derive_request_rng,
)
from repro.serving.router import Router, RouterConfig, RouterRequest
from repro.serving.scheduler import PriorityConfig, Scheduler, SchedulerConfig
from repro.serving.server import (
    AsyncServingEngine,
    RequestCancelled,
    RequestDeadlineExceeded,
    StreamHandle,
)
from repro.serving.worker import EngineWorker, WorkerSpec, engine_from_pipeline, save_pipeline

__all__ = [
    "AsyncServingEngine",
    "EngineControl",
    "EngineWorker",
    "GenerationRequest",
    "PrefixCache",
    "PrefixCacheStats",
    "PriorityConfig",
    "RequestCancelled",
    "RequestDeadlineExceeded",
    "RequestState",
    "RequestStatus",
    "Router",
    "RouterConfig",
    "RouterRequest",
    "Scheduler",
    "SchedulerConfig",
    "ServingEngine",
    "StreamHandle",
    "WorkerSpec",
    "derive_request_rng",
    "engine_from_pipeline",
    "save_pipeline",
]
