"""Metric recorder and time series."""

import math

import pytest

from repro.sim.metrics import MetricRecorder, TimeSeries


@pytest.fixture
def recorder(engine):
    return MetricRecorder(engine)


def test_record_uses_engine_time(engine, recorder):
    engine.schedule(25, recorder.record, "m", 1.0)
    engine.run()
    series = recorder.series("m")
    assert list(series) == [(25, 1.0)]


def test_record_explicit_time(recorder):
    recorder.record("m", 2.0, time=99)
    assert recorder.series("m").times == [99]


def test_counters(recorder):
    recorder.increment("c")
    recorder.increment("c", 4)
    assert recorder.counter("c") == 5
    assert recorder.counter("missing") == 0


def test_series_mean():
    s = TimeSeries("x")
    assert math.isnan(s.mean())
    s.append(0, 1.0)
    s.append(1, 3.0)
    assert s.mean() == 2.0


def test_series_window_half_open():
    s = TimeSeries("x")
    for t in range(5):
        s.append(t * 10, t)
    assert s.window(10, 30) == [(10, 1), (20, 2)]


def test_moving_average_matches_manual():
    s = TimeSeries("x")
    values = [1, 2, 3, 4, 5]
    for i, v in enumerate(values):
        s.append(i, v)
    times, avgs = s.moving_average(window=2)
    assert times == [0, 1, 2, 3, 4]
    assert avgs == [1.0, 1.5, 2.5, 3.5, 4.5]


def test_moving_average_window_larger_than_series():
    s = TimeSeries("x")
    s.append(0, 2)
    s.append(1, 4)
    _, avgs = s.moving_average(window=10)
    assert avgs == [2.0, 3.0]


def test_percentile_interpolates():
    s = TimeSeries("x")
    for i, v in enumerate([10, 20, 30, 40]):
        s.append(i, v)
    assert s.percentile(0) == 10
    assert s.percentile(100) == 40
    assert s.percentile(50) == 25.0


def test_percentile_empty_is_nan():
    assert math.isnan(TimeSeries("x").percentile(50))


def test_percentile_single_value():
    s = TimeSeries("x")
    s.append(0, 7)
    assert s.percentile(99) == 7.0


def test_snapshot_shape(recorder):
    recorder.record("m", 1.0)
    recorder.increment("c")
    snap = recorder.snapshot()
    assert snap["counters"] == {"c": 1}
    assert snap["series"]["m"]["count"] == 1
    assert snap["series"]["m"]["mean"] == 1.0
