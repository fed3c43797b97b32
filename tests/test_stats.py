"""Small-sample audit of the shared percentile helpers.

Every latency column (the traffic harness's replay report, admission window
and dashboard) funnels through :mod:`repro.evalbench.stats`.  These tests pin
the linear-interpolation semantics on exactly the populations the serving
reports hit: empty, single-element, and small-n series where a nearest-rank
rule would systematically jump to the max.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.evalbench.stats import percentile, summarize_series


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 50) == 0.0
        assert percentile([], 95) == 0.0

    def test_single_element_every_q(self):
        for q in (0, 1, 50, 95, 99, 100):
            assert percentile([3.5], q) == 3.5

    def test_two_elements_interpolate(self):
        assert percentile([1.0, 3.0], 50) == 2.0
        # p95 sits 90% of the way from min to max, not at the max.
        assert percentile([1.0, 3.0], 95) == pytest.approx(2.9)

    def test_endpoints_are_min_and_max(self):
        values = [5.0, 1.0, 4.0, 2.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 5.0

    def test_small_n_p95_below_max(self):
        # The off-by-one failure mode a nearest-rank rule introduces: for
        # n < 20 distinct samples, p95 must interpolate below the max.
        for n in range(2, 20):
            values = [float(i) for i in range(n)]
            assert percentile(values, 95) < max(values)
            assert percentile(values, 95) > min(values)

    def test_matches_numpy_linear_rule(self):
        rng = np.random.default_rng(0)
        for n in (2, 3, 5, 7, 19, 100):
            values = rng.uniform(0, 10, size=n).tolist()
            for q in (25, 50, 90, 95, 99):
                assert percentile(values, q) == pytest.approx(
                    float(np.percentile(values, q))
                )

    def test_order_independent(self):
        values = [9.0, 1.0, 5.0, 3.0, 7.0]
        assert percentile(values, 95) == percentile(sorted(values), 95)

    def test_none_entries_dropped(self):
        assert percentile([None, 2.0, None], 50) == 2.0
        assert percentile([None, None], 95) == 0.0

    @pytest.mark.parametrize("q", [-1, 100.5, 1e9])
    def test_out_of_range_q_rejected(self, q):
        with pytest.raises(ValueError, match="percentile"):
            percentile([1.0], q)

    def test_constant_series(self):
        assert percentile([4.0] * 7, 95) == 4.0


class TestSummarizeSeries:
    def test_empty(self):
        assert summarize_series([]) == {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0}

    def test_shape_and_values(self):
        summary = summarize_series([1.0, 2.0, 3.0])
        assert summary["count"] == 3
        assert summary["mean"] == pytest.approx(2.0)
        assert summary["p50"] == 2.0
        assert summary["p95"] == pytest.approx(2.9)

    def test_none_entries_dropped(self):
        summary = summarize_series([None, 4.0])
        assert summary == {"count": 1, "mean": 4.0, "p50": 4.0, "p95": 4.0}


class TestSharedAcrossReports:
    def test_replay_report_uses_the_shared_helper(self):
        # The audit's fix: one percentile definition for every report
        # surface.  The replay module must alias, not duplicate.
        from repro.traffic import replay

        assert replay.summarize_series is summarize_series
