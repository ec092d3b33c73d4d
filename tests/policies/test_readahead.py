"""Learned readahead."""

import numpy as np
import pytest

from repro.policies.readahead import (
    FixedReadahead,
    LearnedReadahead,
    ReadaheadSimulator,
)


def test_fixed_policy_constant():
    policy = FixedReadahead(window=8)
    assert policy.predict_run(None) == 8


def test_learned_adapts_to_run_length():
    policy = LearnedReadahead()
    for _ in range(10):
        policy.observe_run(64)
    assert policy.predict_run(None) == pytest.approx(64, abs=2)


def test_learned_bounded_by_max_window():
    policy = LearnedReadahead(max_window=32)
    for _ in range(10):
        policy.observe_run(1000)
    assert policy.predict_run(None) == 32


def test_learned_never_below_one():
    policy = LearnedReadahead()
    for _ in range(20):
        policy.observe_run(0)
    assert policy.predict_run(None) == 1


def test_simulator_scores_exact_window():
    sim = ReadaheadSimulator(FixedReadahead(window=10), waste_us=5,
                             decision_us=0)
    sim.replay([10, 10])
    assert sim.misses == 0
    assert sim.prefetched_wasted == 0
    assert sim.total_cost_us == 0


def test_simulator_charges_misses_and_waste():
    sim = ReadaheadSimulator(FixedReadahead(window=10), waste_us=5,
                             decision_us=0)
    sim.replay([15])   # 5 missed
    sim.replay([5])    # 5 wasted
    assert sim.misses == 5
    assert sim.prefetched_wasted == 5
    assert sim.total_cost_us == 5 * 100 + 5 * 5


def test_learned_beats_fixed_on_long_runs():
    rng = np.random.default_rng(0)
    runs = [int(rng.normal(64, 4)) for _ in range(500)]
    fixed = ReadaheadSimulator(FixedReadahead(window=8))
    learned = ReadaheadSimulator(LearnedReadahead())
    fixed.replay(runs)
    learned.replay(runs)
    assert learned.total_cost_us < fixed.total_cost_us * 0.3


def test_fixed_beats_learned_right_after_shift():
    # A sudden shift from long to short runs: the learned window is still
    # large and wastes prefetches; this is the P5 cost the meter exposes.
    learned = ReadaheadSimulator(LearnedReadahead(), waste_us=50)
    learned.replay([100] * 50)
    cost_before = learned.total_cost_us
    learned.replay([2] * 20)
    waste_cost = learned.total_cost_us - cost_before
    fixed = ReadaheadSimulator(FixedReadahead(window=8), waste_us=50)
    fixed.replay([2] * 20)
    assert waste_cost > fixed.total_cost_us
