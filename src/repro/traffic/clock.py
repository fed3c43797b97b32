"""Time sources for the traffic harness.

The serving engine stamps every event (submission, first token, commits,
deadline checks) through an injected ``clock`` callable —
:attr:`repro.serving.ServingEngine.clock`.  Two implementations
live here:

* :class:`WallClock` — thin wrapper over ``time.perf_counter`` plus a real
  ``sleep``; what production replay against :class:`~repro.serving.server
  .AsyncServingEngine` uses.
* :class:`SimulatedClock` — a purely virtual clock that only moves when the
  replayer tells it to.  Driving an engine with a simulated clock makes every
  timestamp-derived quantity (TTFT, inter-token gaps, deadline expiry,
  scheduler latency) a deterministic function of the trace and the step-cost
  model, so CI can assert byte-identical replay reports across runs.

Both expose the same tiny interface: calling the object returns the current
time in (virtual) seconds, and ``sleep``/``advance`` move it forward.  The
engine only ever *reads* the clock; only the replay loop advances it.
"""

from __future__ import annotations

import time


class WallClock:
    """Real time: ``perf_counter`` now, ``time.sleep`` to wait."""

    def __call__(self) -> float:
        return time.perf_counter()

    def sleep(self, seconds: float) -> None:
        """Block for ``seconds`` (no-op for non-positive values)."""
        if seconds > 0:
            time.sleep(seconds)


class SimulatedClock:
    """Deterministic virtual clock, advanced explicitly by the replay loop.

    Args:
        start: Initial virtual time in seconds.

    The clock never moves on its own: two replays that perform the same
    sequence of ``advance``/``sleep`` calls observe identical timestamps,
    which is the foundation of the harness's reproducibility guarantees.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def __call__(self) -> float:
        return self._now

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Move virtual time forward by ``seconds`` and return the new time.

        Raises:
            ValueError: Negative ``seconds`` — virtual time is monotonic.
        """
        if seconds < 0:
            raise ValueError(f"cannot advance a clock backwards ({seconds})")
        self._now += float(seconds)
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Move virtual time forward to ``timestamp`` (no-op if in the past)."""
        if timestamp > self._now:
            self._now = float(timestamp)
        return self._now

    def sleep(self, seconds: float) -> None:
        """Virtual sleep: advances the clock without blocking."""
        if seconds > 0:
            self.advance(seconds)


__all__ = ["WallClock", "SimulatedClock"]
