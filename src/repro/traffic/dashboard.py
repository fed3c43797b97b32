"""Dependency-free ANSI ops dashboard for the serving stack.

The dashboard is two pure layers, so it is testable without a terminal and
owns no serving state:

* :class:`DashboardSnapshot` — a frozen, JSON-compatible view of the
  serving state at one instant: request throughput, TTFT/ITL percentiles,
  KV-pool occupancy, prefix-cache hit rate, and per-tenant admission
  counters.  :func:`build_snapshot`, its one builder, takes only what
  settled requests and the front-end reported: each settled request's
  :attr:`FinishedEvent.stream_metrics <repro.serving.messages.FinishedEvent>`
  (a :class:`~repro.traffic.replay.ReplayReport` keeps them), the
  :class:`~repro.serving.messages.EngineStats` fields, the KV-pool and
  prefix-cache stats payloads, and the admission controller's snapshot.
* :func:`render_frame` — a **pure function** ``snapshot → str``.  No TTY
  probing, no timers, no global state: the same snapshot always renders the
  same frame, which is what the tests and the CI smoke assert.  ANSI color
  is opt-in (``color=True``); the default output is plain text that diffs
  cleanly.

Printing and looping are the caller's (see ``examples/traffic_demo.py``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, List, Optional

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


def build_snapshot(
    stream_metrics: Iterable[Dict],
    *,
    window_seconds: float = 0.0,
    now: float = 0.0,
    stats: Optional[Dict] = None,
    kv_pool: Optional[Dict] = None,
    prefix_cache: Optional[Dict] = None,
    admission: Optional[Dict] = None,
) -> DashboardSnapshot:
    """Build a snapshot from what settled requests and the serving front-end reported.

    Every argument is a plain payload, so one builder serves every front-end
    (a replay's :class:`~repro.traffic.replay.ReplayReport`, the async
    server's queries, a router's aggregates) and never reads an engine.

    Args:
        stream_metrics: One :attr:`FinishedEvent.stream_metrics
            <repro.serving.messages.FinishedEvent>` dict per settled request;
            they feed the TTFT/ITL percentiles and the throughput counters.
        window_seconds: Elapsed seconds the rate columns divide by
            (0 → rates are reported as 0.0).
        now: Timestamp to stamp.
        stats: :class:`~repro.serving.messages.EngineStats` fields
            (``num_active``, ``num_prefilling``), e.g. the ``"stats"`` query
            payload or a router's ``fleet_stats()["aggregate"]``.
        kv_pool: ``kv_pool_stats`` payload.
        prefix_cache: ``prefix_cache_stats`` payload.
        admission: Optional
            :meth:`~repro.traffic.admission.AdmissionController.snapshot`
            payload for the SLO row and per-tenant table.
    """
    ttfts: List[float] = []
    itls: List[float] = []
    finished = 0
    total_tokens = 0
    for metrics in stream_metrics:
        finished += 1
        if metrics["ttft_seconds"] is not None:
            ttfts.append(metrics["ttft_seconds"])
        itls.extend(metrics["inter_token_seconds"])
        total_tokens += sum(n for _, n in metrics["commit_events"])
    stats = stats or {}
    kv = kv_pool or {}
    prefix = prefix_cache or {}
    snapshot = DashboardSnapshot(
        timestamp=float(now),
        active_requests=int(stats.get("num_active", 0)),
        prefilling_requests=int(stats.get("num_prefilling", 0)),
        finished_requests=finished,
        requests_per_second=finished / window_seconds if window_seconds else 0.0,
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
    if admission is not None:
        snapshot.slo_breached = bool(admission.get("breached", False))
        snapshot.slo_target_p95_ttft = admission.get("target_p95_ttft")
        snapshot.slo_window_p95_ttft = admission.get("window_p95_ttft")
        snapshot.tenants = {
            tenant: dict(counters)
            for tenant, counters in admission.get("tenants", {}).items()
        }
    return snapshot


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


__all__ = [
    "DashboardSnapshot",
    "build_snapshot",
    "render_frame",
]
