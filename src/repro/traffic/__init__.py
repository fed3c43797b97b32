"""Production traffic harness: traces, replay, SLO admission, ops dashboard.

This package turns the serving stack into something that can be *operated*:

* :mod:`repro.traffic.trace` — seeded synthetic traffic traces
  (Poisson/bursty arrivals, tenant preamble groups, cancellation and
  deadline churn) with canonical byte-stable JSON serialization;
* :mod:`repro.traffic.clock` — the wall clock and the deterministic
  :class:`~repro.traffic.clock.SimulatedClock` the engine's injected
  ``clock`` accepts;
* :mod:`repro.traffic.replay` — trace replay against
  :class:`~repro.serving.ServingEngine` (simulated or wall clock),
  :class:`~repro.serving.server.AsyncServingEngine` and
  :class:`~repro.serving.router.Router`, producing one
  :class:`~repro.traffic.replay.ReplayReport` schema;
* :mod:`repro.traffic.admission` — SLO-aware admission control (per-tenant
  token buckets, rolling-p95 breach detection with hysteresis);
* :mod:`repro.traffic.dashboard` — the dependency-free ANSI ops dashboard
  (one snapshot builder over reported payloads, pure snapshot → frame
  rendering).

See ``docs/traffic.md`` for the trace schema and the operational model.
"""

from repro.traffic.admission import (
    AdmissionController,
    AdmissionDecision,
    BreachDetector,
    SLOConfig,
    TokenBucket,
)
from repro.traffic.clock import SimulatedClock, WallClock
from repro.traffic.dashboard import DashboardSnapshot, build_snapshot, render_frame
from repro.traffic.replay import (
    ReplayReport,
    RequestOutcome,
    StepCostModel,
    replay_trace,
    replay_trace_async,
    replay_trace_router,
)
from repro.traffic.trace import (
    CLASS_PRIORITY,
    TRAFFIC_CLASSES,
    Trace,
    TraceConfig,
    TraceRequest,
    generate_trace,
)

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "BreachDetector",
    "SLOConfig",
    "TokenBucket",
    "SimulatedClock",
    "WallClock",
    "DashboardSnapshot",
    "build_snapshot",
    "render_frame",
    "ReplayReport",
    "RequestOutcome",
    "StepCostModel",
    "replay_trace",
    "replay_trace_async",
    "replay_trace_router",
    "Trace",
    "TraceConfig",
    "TraceRequest",
    "CLASS_PRIORITY",
    "TRAFFIC_CLASSES",
    "generate_trace",
]
