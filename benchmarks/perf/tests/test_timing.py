"""Statistics the harness reports with (percentiles, the tail rule, spread, per-unit medians) and the machine gauge."""

import pytest

import timing
from timing import (
    DISCARDED_CALLS,
    KERNEL_NOMINAL_S,
    SAMPLE_EVERY_S,
    MachineGauge,
    medians_by_unit,
    percentile,
    spread,
    tail_percentile,
)


def test_percentile_interpolates_linearly():
    values = [10.0, 20.0, 30.0, 40.0, 50.0]
    assert percentile(values, 0) == 10.0
    assert percentile(values, 50) == 30.0
    assert percentile(values, 90) == pytest.approx(46.0)
    assert percentile(values, 100) == 50.0
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond_it():
    assert tail_percentile(10_000) == 99.9
    assert tail_percentile(1200) == 99.0  # 12 beyond
    assert tail_percentile(999) == 95.0  # 9.99 beyond p99
    assert tail_percentile(300) == 95.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(92) == 75.0  # 9.2 beyond p90
    assert tail_percentile(40) == 75.0
    assert tail_percentile(39) == 50.0  # no tail is supported: the median alone


def test_spread_is_interquartile_distance_over_median():
    assert spread([5.0]) == 0.0
    assert spread([100.0] * 10) == 0.0
    values = [98.0, 99.0, 100.0, 101.0, 102.0, 100.0, 99.5, 100.5, 97.0, 103.0]
    assert 0.02 < spread(values) < 0.04


def test_medians_by_unit_accepts_a_partial_last_pass():
    passes = [[1.0, 10.0, 100.0], [3.0, 30.0, 300.0], [2.0, 20.0]]
    assert medians_by_unit(passes) == [2.0, 20.0, 200.0]


def test_gauge_discards_calls_before_the_timed_one(monkeypatch):
    calls = iter(range(1, 1000))
    monkeypatch.setattr(timing, "calibration_kernel", lambda: next(calls) * KERNEL_NOMINAL_S)
    gauge = MachineGauge()
    assert gauge.samples == [(DISCARDED_CALLS + 1) * KERNEL_NOMINAL_S]
    gauge.sample()
    assert gauge.samples[-1] == 2 * (DISCARDED_CALLS + 1) * KERNEL_NOMINAL_S


def test_gauge_ticks_no_more_often_than_the_sampling_interval(monkeypatch):
    now = [100.0]
    monkeypatch.setattr(timing.time, "perf_counter", lambda: now[0])
    gauge = MachineGauge()
    gauge.tick()
    assert len(gauge.samples) == 1
    now[0] += 1.5 * SAMPLE_EVERY_S
    gauge.tick()
    gauge.tick()
    assert len(gauge.samples) == 2


def _gauge_with(samples):
    """A gauge holding ``(time, factor)`` samples instead of measured ones."""
    gauge = MachineGauge()
    gauge.times = [at for at, _ in samples]
    gauge.samples = [factor * KERNEL_NOMINAL_S for _, factor in samples]
    return gauge


def test_factor_of_an_interval_is_the_median_of_the_samples_within_the_window():
    # One sample every 0.125 s: the machine at 1.0 until t = 1, one outlier there, at 2.0 afterwards.
    gauge = _gauge_with([(0.125 * i, 1.0 if i < 8 else 9.0 if i == 8 else 2.0) for i in range(20)])
    assert gauge.factor(0.375, 0.5) == pytest.approx(1.0)  # samples 0.125 .. 0.75
    assert gauge.factor(1.5, 1.625) == pytest.approx(2.0)  # the early, fast samples are out of the window
    assert gauge.factor(0.75, 0.875) == pytest.approx(1.0)  # 1 1 1 1 9 2: the outlier does not move the median
    # Fewer than four samples in the window: the two on either side join.
    sparse = _gauge_with([(0.0, 1.0), (1.0, 1.0), (2.0, 3.0), (3.0, 3.0), (4.0, 5.0)])
    assert sparse.factor(2.4, 2.5) == pytest.approx(3.0)
    # An interval before the first sample (the imports) takes the samples that follow it.
    assert sparse.factor(-5.0, -1.0) == pytest.approx(1.0)


def test_machine_seconds_divide_each_unit_by_its_own_surroundings():
    gauge = _gauge_with([(0.125 * i, 1.0 if i < 16 else 2.0) for i in range(32)])
    assert gauge.machine_seconds([0.5, 3.0], [0.125, 0.125]) == pytest.approx([0.125, 0.0625])
