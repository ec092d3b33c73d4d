"""Time units for the virtual clock.

All simulation timestamps are integers in nanoseconds.  Using integers keeps
event ordering exact and reproducible; these constants make call sites
readable (``engine.schedule(5 * MILLISECOND, ...)``).
"""

NANOSECOND = 1
MICROSECOND = 1_000
MILLISECOND = 1_000_000
SECOND = 1_000_000_000


def us(value):
    """Microseconds (possibly fractional) to integer nanoseconds."""
    return int(round(value * MICROSECOND))
