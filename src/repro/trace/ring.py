"""Bounded, overwrite-on-full ring buffer — the ftrace buffer analogue.

Tracing must never exhaust memory, so the buffer has a fixed capacity and
the *oldest* record is overwritten when full (ftrace's default "overwrite"
mode).  ``dropped`` counts overwritten records so consumers know the trace
is a suffix of the run, not the whole run.
"""


class RingBuffer:
    """Fixed-capacity ring of arbitrary items, oldest overwritten first."""

    __slots__ = ("_slots", "_capacity", "_total")

    def __init__(self, capacity=65536):
        if capacity <= 0:
            raise ValueError("capacity must be positive, got {}".format(capacity))
        self._capacity = int(capacity)
        self._slots = [None] * self._capacity
        self._total = 0

    @property
    def total(self):
        """Items ever appended (including overwritten ones)."""
        return self._total

    @property
    def dropped(self):
        """Items lost to overwrite."""
        return max(0, self._total - self._capacity)

    def append(self, item):
        self._slots[self._total % self._capacity] = item
        self._total += 1

    def __len__(self):
        return min(self._total, self._capacity)

    def __iter__(self):
        """Oldest retained item first."""
        if self._total <= self._capacity:
            yield from iter(self._slots[:self._total])
            return
        start = self._total % self._capacity
        yield from iter(self._slots[start:])
        yield from iter(self._slots[:start])

    def snapshot(self):
        """Retained items as a list, oldest first."""
        return list(self)

    def __repr__(self):
        return "RingBuffer(len={}, capacity={}, dropped={})".format(
            len(self), self._capacity, self.dropped
        )
