"""Time-unit conversions."""

from repro.sim import units


def test_constants_ratios():
    assert units.MICROSECOND == 1000 * units.NANOSECOND
    assert units.MILLISECOND == 1000 * units.MICROSECOND
    assert units.SECOND == 1000 * units.MILLISECOND


def test_roundtrip_us():
    # Back to microseconds the way the storage path converts: ns / 1000.
    assert units.us(12.5) / units.MICROSECOND == 12.5


def test_conversions_return_ints():
    assert isinstance(units.us(1.5), int)


def test_fractional_ns_rounds():
    assert units.us(0.0015) == 2  # 1.5 ns rounds to 2
