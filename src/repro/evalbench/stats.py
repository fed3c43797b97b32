"""Small-sample-correct summary statistics shared by the report surfaces.

Every latency column in the repo — the traffic harness's
:class:`~repro.traffic.replay.ReplayReport`, the admission controller's
TTFT window and the ops dashboard — funnels through these helpers, so
percentile semantics are defined exactly once.

The percentile rule is **linear interpolation between closest ranks**
(numpy's default, the same rule the reports have always used): for ``n``
sorted samples, percentile ``q`` sits at fractional rank ``(n - 1) * q/100``
and interpolates between the two neighbouring order statistics.  The small-n
cases the serving benches actually hit are therefore well defined:

* empty series → 0.0 (reports render a zero column, not a crash);
* a single sample → that sample, for every ``q``;
* ``n = 2`` → p50 is the midpoint, p95 sits 90% of the way to the max;
* the maximum is returned only at ``q = 100`` (or when all samples are
  equal) — a nearest-rank rule would jump to the max at p95 for ``n < 20``,
  which systematically overstates small-sample tails; the audit in
  ``tests/test_stats.py`` pins these cases down directly.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile of ``values``; 0.0 for an empty series.

    Args:
        values: Raw samples, any order.
        q: Percentile in ``[0, 100]``.

    Raises:
        ValueError: ``q`` outside ``[0, 100]``.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    values = [v for v in values if v is not None]
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def summarize_series(values: Sequence[Optional[float]]) -> dict:
    """Mean/p50/p95 summary of a latency series (``None`` entries dropped).

    The uniform shape every report column uses: a dict with ``count``,
    ``mean``, ``p50`` and ``p95`` keys, all 0.0/0 for an empty series.
    """
    clean: List[float] = [float(v) for v in values if v is not None]
    return {
        "count": len(clean),
        "mean": sum(clean) / len(clean) if clean else 0.0,
        "p50": percentile(clean, 50),
        "p95": percentile(clean, 95),
    }


__all__ = ["percentile", "summarize_series"]
