"""Ring buffer: bounded, overwrite-on-full, oldest-first iteration."""

import pytest

from repro.trace.ring import RingBuffer


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        RingBuffer(0)


def test_append_below_capacity_keeps_everything():
    ring = RingBuffer(4)
    for i in range(3):
        ring.append(i)
    assert len(ring) == 3
    assert ring.snapshot() == [0, 1, 2]
    assert ring.dropped == 0
    assert ring.total == 3


def test_wraparound_overwrites_oldest_first():
    ring = RingBuffer(4)
    for i in range(10):
        ring.append(i)
    assert len(ring) == 4
    assert ring.snapshot() == [6, 7, 8, 9]
    assert ring.dropped == 6
    assert ring.total == 10


def test_wraparound_at_exact_capacity_boundary():
    ring = RingBuffer(3)
    for i in range(3):
        ring.append(i)
    assert ring.snapshot() == [0, 1, 2]
    assert ring.dropped == 0
    ring.append(3)
    assert ring.snapshot() == [1, 2, 3]
    assert ring.dropped == 1


def test_iteration_matches_snapshot():
    ring = RingBuffer(5)
    for i in range(8):
        ring.append(i)
    assert list(ring) == ring.snapshot() == [3, 4, 5, 6, 7]
