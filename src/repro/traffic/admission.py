"""SLO-aware admission control layered on the priority scheduler.

The engine's :class:`~repro.serving.scheduler.PriorityConfig` decides *order*
among admitted requests; this module decides *whether* a request enters the
engine at all.  Three pieces:

* :class:`TokenBucket` — classic per-tenant rate limiter denominated in
  decode-token budget.  Refills continuously at ``rate`` up to ``burst``;
  a request is charged its ``max_new_tokens`` on admission.  The level is
  clamped at zero on the spend side by construction (a spend larger than the
  level is rejected, never applied), so accounting can never go negative —
  the fuzz suite asserts this invariant.
* :class:`BreachDetector` — rolling-window SLO monitor.  It ingests
  interactive TTFT samples stamped with the (possibly virtual) clock,
  expires samples older than ``window_seconds``, and trips when the window
  p95 exceeds ``target_p95_ttft``.  Recovery is *hysteretic*: the breach
  only clears once p95 falls below ``recover_under * target`` (and an empty
  window — a quiet period — also clears it), so the controller does not
  flap shed/no-shed at the boundary.
* :class:`AdmissionController` — combines both into a single
  :meth:`~AdmissionController.decide` call the replayer consults before
  ``submit``.  Policy, in order:

  1. interactive traffic is **never shed** — at worst it is deferred when
     its tenant's bucket is empty;
  2. during a breach window, bulk traffic is **shed** (rejected outright)
     to protect the interactive p95;
  3. outside a breach, bulk traffic with an empty bucket is **deferred**
     (retried by the replayer on a later tick);
  4. everything else is admitted and charged to its tenant's bucket.

Decisions and per-tenant counters are exposed via :meth:`snapshot` for the
ops dashboard and the replay report.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Deque, Dict, Optional, Tuple

from repro.evalbench.stats import percentile


class AdmissionDecision(Enum):
    """Outcome of one admission consult."""

    ADMIT = "admit"
    DEFER = "defer"
    SHED = "shed"


class TokenBucket:
    """Continuous-refill token bucket; levels are never negative.

    Args:
        rate: Refill rate in tokens per second.
        burst: Capacity cap (also the initial level).

    The bucket is lazy: the level is brought up to date against the supplied
    timestamp on every call, so it works identically under a wall clock and
    a simulated clock.
    """

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.rate = float(rate)
        self.burst = float(burst)
        self._level = float(burst)
        self._stamp: Optional[float] = None

    def _refill(self, now: float) -> None:
        if self._stamp is None:
            self._stamp = now
            return
        elapsed = max(0.0, now - self._stamp)
        self._level = min(self.burst, self._level + elapsed * self.rate)
        self._stamp = now

    def level(self, now: float) -> float:
        """Current token level after refilling up to ``now``."""
        self._refill(now)
        return self._level

    def try_spend(self, tokens: float, now: float) -> bool:
        """Spend ``tokens`` if available; returns whether the spend applied.

        A failed spend leaves the level untouched — the level can therefore
        never go below zero.
        """
        if tokens < 0:
            raise ValueError("cannot spend a negative token amount")
        self._refill(now)
        if tokens > self._level:
            return False
        self._level -= tokens
        return True


@dataclass
class SLOConfig:
    """Knobs for the admission controller.

    Attributes:
        target_p95_ttft: Interactive TTFT p95 target in seconds; the breach
            detector trips when the rolling window exceeds it.
        window_seconds: Rolling-window length for TTFT samples.
        recover_under: Hysteresis factor — a breach clears only once window
            p95 drops below ``recover_under * target_p95_ttft``.
        min_samples: Minimum window population before a breach can trip
            (small windows have noisy percentiles).
        tenant_rate: Per-tenant bucket refill rate in decode tokens/sec
            (``None`` disables tenant rate limiting).
        tenant_burst: Per-tenant bucket capacity in decode tokens.
    """

    target_p95_ttft: float = 0.5
    window_seconds: float = 10.0
    recover_under: float = 0.8
    min_samples: int = 5
    tenant_rate: Optional[float] = None
    tenant_burst: float = 256.0

    def validate(self) -> None:
        """Raise ``ValueError`` on out-of-range knobs."""
        if self.target_p95_ttft <= 0:
            raise ValueError("target_p95_ttft must be positive")
        if self.window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if not 0.0 < self.recover_under <= 1.0:
            raise ValueError("recover_under must be in (0, 1]")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")


class BreachDetector:
    """Rolling-window p95 monitor with hysteretic recovery."""

    def __init__(self, config: SLOConfig) -> None:
        config.validate()
        self.config = config
        self._samples: Deque[Tuple[float, float]] = deque()
        self._breached = False
        self.breach_count = 0

    def _expire(self, now: float) -> None:
        horizon = now - self.config.window_seconds
        while self._samples and self._samples[0][0] < horizon:
            self._samples.popleft()

    def observe(self, ttft_seconds: float, now: float) -> None:
        """Ingest one interactive TTFT sample stamped at ``now``."""
        self._samples.append((now, float(ttft_seconds)))
        self.update(now)

    def window_p95(self, now: float) -> float:
        """p95 of the samples currently inside the window (0.0 if empty)."""
        self._expire(now)
        return percentile([v for _, v in self._samples], 95)

    def update(self, now: float) -> bool:
        """Re-evaluate breach state at ``now`` and return it.

        Trip: window has at least ``min_samples`` samples and p95 exceeds
        the target.  Clear: p95 below ``recover_under * target`` — or the
        window drained entirely (a quiet period heals the detector).
        """
        self._expire(now)
        values = [v for _, v in self._samples]
        p95 = percentile(values, 95)
        if not self._breached:
            if len(values) >= self.config.min_samples and p95 > self.config.target_p95_ttft:
                self._breached = True
                self.breach_count += 1
        else:
            if not values or p95 < self.config.recover_under * self.config.target_p95_ttft:
                self._breached = False
        return self._breached

    @property
    def breached(self) -> bool:
        """Breach state as of the last ``update``/``observe``."""
        return self._breached


@dataclass
class TenantCounters:
    """Per-tenant admission bookkeeping (exposed in snapshots)."""

    admitted: int = 0
    deferred: int = 0
    shed: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {"admitted": self.admitted, "deferred": self.deferred, "shed": self.shed}


@dataclass
class AdmissionController:
    """SLO-aware gate consulted before every ``submit``.

    Args:
        config: SLO and rate-limit knobs.

    Usage: call :meth:`observe_ttft` with each newly-first-tokened
    interactive request's TTFT, then :meth:`decide` before submitting.
    ``decide`` both returns the decision and updates the per-tenant
    counters, so one consult per (request, attempt) is the contract —
    a deferred request consulted again later counts as a new attempt.
    """

    config: SLOConfig = field(default_factory=SLOConfig)

    def __post_init__(self) -> None:
        self.config.validate()
        self.detector = BreachDetector(self.config)
        self.buckets: Dict[str, TokenBucket] = {}
        self.tenants: Dict[str, TenantCounters] = {}

    def _bucket(self, tenant: str) -> Optional[TokenBucket]:
        if self.config.tenant_rate is None:
            return None
        if tenant not in self.buckets:
            self.buckets[tenant] = TokenBucket(
                rate=self.config.tenant_rate, burst=self.config.tenant_burst
            )
        return self.buckets[tenant]

    def _counters(self, tenant: str) -> TenantCounters:
        if tenant not in self.tenants:
            self.tenants[tenant] = TenantCounters()
        return self.tenants[tenant]

    def observe_ttft(self, ttft_seconds: float, now: float) -> None:
        """Feed one interactive TTFT sample to the breach detector."""
        self.detector.observe(ttft_seconds, now)

    def decide(
        self, tenant: str, traffic_class: str, token_budget: int, now: float
    ) -> AdmissionDecision:
        """Admission decision for one request attempt (updates counters).

        Args:
            tenant: Tenant id the request belongs to.
            traffic_class: ``"interactive"`` or ``"bulk"``.
            token_budget: Token budget charged to the tenant's bucket.
            now: Current (possibly virtual) time.
        """
        counters = self._counters(tenant)
        breached = self.detector.update(now)

        # Shed only ever applies to bulk traffic, and only during a breach.
        if traffic_class == "bulk" and breached:
            counters.shed += 1
            return AdmissionDecision.SHED

        bucket = self._bucket(tenant)
        if bucket is not None:
            # Clamp the charge to the bucket capacity: a request whose budget
            # exceeds `burst` would otherwise defer forever, which is
            # starvation, not rate limiting.
            charge = min(float(token_budget), bucket.burst)
            if not bucket.try_spend(charge, now):
                counters.deferred += 1
                return AdmissionDecision.DEFER

        counters.admitted += 1
        return AdmissionDecision.ADMIT

    def snapshot(self, now: float) -> Dict:
        """Dashboard/report view of the controller's state at ``now``."""
        return {
            "breached": self.detector.breached,
            "breach_count": self.detector.breach_count,
            "window_p95_ttft": self.detector.window_p95(now),
            "target_p95_ttft": self.config.target_p95_ttft,
            "tenants": {t: c.to_dict() for t, c in sorted(self.tenants.items())},
            "bucket_levels": {
                t: round(b.level(now), 6) for t, b in sorted(self.buckets.items())
            },
        }


__all__ = [
    "AdmissionDecision",
    "TokenBucket",
    "SLOConfig",
    "BreachDetector",
    "TenantCounters",
    "AdmissionController",
]
