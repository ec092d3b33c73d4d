"""Learned tiered-memory placement."""

import numpy as np

from repro.kernel.mm import TieredMemory
from repro.policies.placement import LearnedPlacementPolicy, attach_learned_placement


def drive(kernel, tiered, keys, gap=100_000):
    for key, is_write in keys:
        tiered.access(key, is_write=is_write)
        kernel.run(until=kernel.now + gap)


def test_state_discretization():
    policy = LearnedPlacementPolicy()
    context = {"is_write": False, "fast_used": 2, "fast_capacity": 8,
               "serial": 1}
    state = policy._state("p", context)
    assert state == (0, False, 1)
    policy._access_counts["p"] = 10
    assert policy._state("p", context)[0] == 4  # capped bucket


def test_pending_not_resolved_by_same_access(kernel):
    tiered = kernel.attach("t", TieredMemory(kernel, fast_capacity=4))
    policy = attach_learned_placement(kernel, tiered, seed=0)
    tiered.access("p")  # decision made; trainer must NOT consume it yet
    assert "p" in policy._pending


def test_reward_resolved_on_next_access(kernel):
    tiered = kernel.attach("t", TieredMemory(kernel, fast_capacity=4))
    policy = attach_learned_placement(kernel, tiered, seed=0)
    tiered.access("p")
    before = policy.learner.update_count
    tiered.access("p")
    assert policy.learner.update_count == before + 1


def test_learns_to_promote_hot_pages(kernel):
    tiered = kernel.attach("t", TieredMemory(kernel, fast_capacity=16))
    policy = attach_learned_placement(kernel, tiered, seed=0)
    policy.learner.epsilon = 0.2
    rng = np.random.default_rng(0)
    hot = ["hot{}".format(i) for i in range(8)]
    for _ in range(3000):
        tiered.access(hot[int(rng.integers(len(hot)))])
        kernel.run(until=kernel.now + 50_000)
    # The learner converged: hot pages live in the fast tier, and every
    # visited state with a learned preference prefers MIGRATE.
    assert tiered.fast_hits / tiered.accesses > 0.8
    learned_states = [
        s for s in policy.learner._q
        if policy.learner._q[s].any()
    ]
    assert learned_states
    assert all(
        policy.learner.best_action(s) == policy.MIGRATE for s in learned_states
    )


def test_migration_penalty_discourages_churn():
    policy = LearnedPlacementPolicy()
    state = (1, False, 0)
    # Promotions that never pay off (reward 0, penalty 2) go negative...
    for _ in range(20):
        policy.learner.update(state, policy.MIGRATE, -2.0)
    # ...while staying put earns 0.
    assert policy.learner.best_action(state) == policy.STAY


def test_decisions_counted(kernel):
    tiered = kernel.attach("t", TieredMemory(kernel, fast_capacity=4))
    policy = attach_learned_placement(kernel, tiered, seed=0)
    drive(kernel, tiered, [("a", False), ("b", False)])
    assert policy.decisions == 2
