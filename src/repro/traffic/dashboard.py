"""Dependency-free ANSI ops dashboard for the serving stack.

The dashboard is split into two pure layers so it is testable without a
terminal:

* :class:`DashboardSnapshot` — a frozen, JSON-compatible view of the
  serving state at one instant: request throughput, TTFT/ITL percentiles,
  KV-pool occupancy, prefix-cache hit rate, and per-tenant admission
  counters.  Built from the engine's existing observability surfaces
  (:meth:`~repro.serving.ServingEngine.stream_metrics`,
  :meth:`~repro.serving.ServingEngine.kv_pool_stats`,
  :meth:`~repro.serving.ServingEngine.prefix_cache_stats`) via
  :func:`snapshot_from_engine`, or from a router's aggregates via
  :func:`snapshot_from_router`.
* :func:`render_frame` — a **pure function** ``snapshot → str``.  No TTY
  probing, no timers, no global state: the same snapshot always renders the
  same frame, which is what the tests and the CI smoke assert.  ANSI color
  is opt-in (``color=True``); the default output is plain text that diffs
  cleanly.

:class:`OpsDashboard` is the thin live wrapper: it re-snapshots a source on
demand and returns frames, leaving printing/looping to the caller (see
``examples/traffic_demo.py``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from repro.evalbench.stats import percentile

_RESET = "\x1b[0m"
_BOLD = "\x1b[1m"
_RED = "\x1b[31m"
_GREEN = "\x1b[32m"
_YELLOW = "\x1b[33m"


@dataclass
class DashboardSnapshot:
    """One instant of serving state, as the dashboard sees it.

    All fields are plain scalars/dicts so a snapshot round-trips through
    JSON and two equal snapshots render byte-identical frames.
    """

    timestamp: float = 0.0
    active_requests: int = 0
    prefilling_requests: int = 0
    finished_requests: int = 0
    requests_per_second: float = 0.0
    tokens_per_second: float = 0.0
    ttft_p50: float = 0.0
    ttft_p95: float = 0.0
    itl_p50: float = 0.0
    itl_p95: float = 0.0
    kv_occupancy: float = 0.0
    kv_blocks_in_use: int = 0
    kv_blocks_total: int = 0
    prefix_hit_rate: float = 0.0
    prefill_savings: float = 0.0
    slo_breached: bool = False
    slo_target_p95_ttft: Optional[float] = None
    slo_window_p95_ttft: Optional[float] = None
    tenants: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def to_dict(self) -> Dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict) -> "DashboardSnapshot":
        return cls(**payload)


def snapshot_from_engine(
    engine,
    finished_ids: Optional[List[str]] = None,
    window_seconds: float = 0.0,
    admission_snapshot: Optional[Dict] = None,
    now: Optional[float] = None,
) -> DashboardSnapshot:
    """Build a snapshot from a :class:`ServingEngine`'s metric surfaces.

    Args:
        engine: The engine to observe.
        finished_ids: Request ids whose ``stream_metrics`` feed the
            TTFT/ITL percentiles and the throughput counters (callers track
            completions; the engine itself does not enumerate them).
        window_seconds: Elapsed seconds the rate columns divide by
            (0 → rates are reported as 0.0).
        admission_snapshot: Optional
            :meth:`~repro.traffic.admission.AdmissionController.snapshot`
            payload for the SLO row and per-tenant table.
        now: Timestamp to stamp (defaults to the engine's clock).
    """
    finished_ids = finished_ids or []
    ttfts: List[float] = []
    itls: List[float] = []
    total_tokens = 0
    for rid in finished_ids:
        metrics = engine.stream_metrics(rid)
        if metrics["ttft_seconds"] is not None:
            ttfts.append(metrics["ttft_seconds"])
        itls.extend(metrics["inter_token_seconds"])
        total_tokens += sum(n for _, n in metrics["commit_events"])
    kv = engine.kv_pool_stats()
    prefix = engine.prefix_cache_stats()
    snapshot = DashboardSnapshot(
        timestamp=float(now if now is not None else engine.clock()),
        active_requests=engine.num_active,
        prefilling_requests=engine.num_prefilling,
        finished_requests=len(finished_ids),
        requests_per_second=len(finished_ids) / window_seconds if window_seconds else 0.0,
        tokens_per_second=total_tokens / window_seconds if window_seconds else 0.0,
        ttft_p50=percentile(ttfts, 50),
        ttft_p95=percentile(ttfts, 95),
        itl_p50=percentile(itls, 50),
        itl_p95=percentile(itls, 95),
        kv_occupancy=float(kv.get("occupancy", 0.0)),
        kv_blocks_in_use=int(kv.get("blocks_in_use", 0)),
        kv_blocks_total=int(kv.get("num_blocks", 0)),
        prefix_hit_rate=float(prefix.get("hit_rate", 0.0)),
        prefill_savings=float(prefix.get("prefill_savings", 0.0)),
    )
    if admission_snapshot is not None:
        snapshot.slo_breached = bool(admission_snapshot.get("breached", False))
        snapshot.slo_target_p95_ttft = admission_snapshot.get("target_p95_ttft")
        snapshot.slo_window_p95_ttft = admission_snapshot.get("window_p95_ttft")
        snapshot.tenants = {
            tenant: dict(counters)
            for tenant, counters in admission_snapshot.get("tenants", {}).items()
        }
    return snapshot


def snapshot_from_router(router, now: float = 0.0) -> DashboardSnapshot:
    """Build a snapshot from a :class:`Router`'s aggregate stat surfaces."""
    kv = router.kv_pool_stats().get("aggregate", {})
    prefix = router.prefix_cache_stats().get("aggregate", {})
    fleet = router.fleet_stats().get("aggregate", {})
    finished = sum(1 for record in router._requests.values() if record.done)
    return DashboardSnapshot(
        timestamp=float(now),
        active_requests=int(fleet.get("num_active", 0)),
        prefilling_requests=int(fleet.get("num_prefilling", 0)),
        finished_requests=finished,
        kv_occupancy=float(kv.get("occupancy", 0.0)),
        kv_blocks_in_use=int(kv.get("blocks_in_use", 0)),
        kv_blocks_total=int(kv.get("num_blocks", 0)),
        prefix_hit_rate=float(prefix.get("hit_rate", 0.0)),
        prefill_savings=float(prefix.get("prefill_savings", 0.0)),
    )


def _bar(fraction: float, width: int) -> str:
    """A ``[####----]`` occupancy bar; fraction clamped to [0, 1]."""
    fraction = min(1.0, max(0.0, fraction))
    filled = int(round(fraction * width))
    return "[" + "#" * filled + "-" * (width - filled) + "]"


def _paint(text: str, code: str, color: bool) -> str:
    return f"{code}{text}{_RESET}" if color else text


def render_frame(snapshot: DashboardSnapshot, width: int = 72, color: bool = False) -> str:
    """Render one dashboard frame from a snapshot — pure, TTY-free.

    Args:
        snapshot: The state to render.
        width: Total frame width in characters (minimum 40).
        color: Emit ANSI color codes; ``False`` (default) yields plain
            ASCII, which is what the tests compare.

    Returns:
        A multi-line string; same snapshot + arguments ⇒ same string.
    """
    width = max(40, width)
    bar_width = max(10, width - 34)
    rule = "=" * width
    lines = [
        rule,
        _paint(f" serving ops @ t={snapshot.timestamp:9.3f}s".ljust(width), _BOLD, color),
        rule,
        (
            f" requests  active {snapshot.active_requests:4d}"
            f"  prefilling {snapshot.prefilling_requests:4d}"
            f"  finished {snapshot.finished_requests:5d}"
        ),
        (
            f" rates     {snapshot.requests_per_second:8.2f} req/s"
            f"   {snapshot.tokens_per_second:9.1f} tok/s"
        ),
        (
            f" ttft      p50 {snapshot.ttft_p50 * 1e3:8.1f} ms"
            f"   p95 {snapshot.ttft_p95 * 1e3:8.1f} ms"
        ),
        (
            f" itl       p50 {snapshot.itl_p50 * 1e3:8.1f} ms"
            f"   p95 {snapshot.itl_p95 * 1e3:8.1f} ms"
        ),
        (
            f" kv pool   {_bar(snapshot.kv_occupancy, bar_width)}"
            f" {snapshot.kv_occupancy * 100:5.1f}%"
            f"  ({snapshot.kv_blocks_in_use}/{snapshot.kv_blocks_total} blocks)"
        ),
        (
            f" prefix    hit rate {snapshot.prefix_hit_rate * 100:5.1f}%"
            f"   prefill savings {snapshot.prefill_savings * 100:5.1f}%"
        ),
    ]
    if snapshot.slo_target_p95_ttft is not None:
        state = "BREACH" if snapshot.slo_breached else "ok"
        code = _RED if snapshot.slo_breached else _GREEN
        window = snapshot.slo_window_p95_ttft or 0.0
        lines.append(
            " slo       "
            + _paint(f"[{state}]", code, color)
            + f" window p95 {window * 1e3:8.1f} ms"
            + f" / target {snapshot.slo_target_p95_ttft * 1e3:8.1f} ms"
        )
    if snapshot.tenants:
        lines.append("-" * width)
        lines.append(" tenant            admitted  deferred      shed")
        for tenant in sorted(snapshot.tenants):
            counters = snapshot.tenants[tenant]
            shed = counters.get("shed", 0)
            row = (
                f" {tenant:<16}"
                f" {counters.get('admitted', 0):9d}"
                f" {counters.get('deferred', 0):9d}"
                f" {shed:9d}"
            )
            lines.append(_paint(row, _YELLOW, color) if shed else row)
    lines.append(rule)
    return "\n".join(lines)


class OpsDashboard:
    """Live wrapper: snapshot a source on demand and render frames.

    Args:
        engine: Engine to observe (mutually exclusive with ``router``).
        router: Router to observe.
        width: Frame width passed to :func:`render_frame`.
        color: ANSI color toggle passed to :func:`render_frame`.

    The wrapper owns only bookkeeping (which requests finished, when the
    window started); all rendering goes through the pure
    :func:`render_frame`, so everything it can display is testable headless.
    """

    def __init__(self, engine=None, router=None, width: int = 72, color: bool = False) -> None:
        if (engine is None) == (router is None):
            raise ValueError("pass exactly one of engine= or router=")
        self.engine = engine
        self.router = router
        self.width = width
        self.color = color
        self.finished_ids: List[str] = []
        self._window_start: Optional[float] = None

    def note_finished(self, request_id: str) -> None:
        """Record a completed request id (feeds the latency percentiles)."""
        self.finished_ids.append(request_id)

    def snapshot(self, admission_snapshot: Optional[Dict] = None) -> DashboardSnapshot:
        """Snapshot the observed source now."""
        if self.router is not None:
            return snapshot_from_router(self.router)
        now = self.engine.clock()
        if self._window_start is None:
            self._window_start = now
        return snapshot_from_engine(
            self.engine,
            finished_ids=self.finished_ids,
            window_seconds=now - self._window_start,
            admission_snapshot=admission_snapshot,
            now=now,
        )

    def frame(self, admission_snapshot: Optional[Dict] = None) -> str:
        """Snapshot and render one frame."""
        return render_frame(self.snapshot(admission_snapshot), self.width, self.color)


__all__ = [
    "DashboardSnapshot",
    "snapshot_from_engine",
    "snapshot_from_router",
    "render_frame",
    "OpsDashboard",
]
