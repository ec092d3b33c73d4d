"""Learned tiered-memory placement (background: Kleio / IDT / Sibyl).

A tabular Q-learner decides, on each slow-tier access, whether to migrate
the page up.  State discretizes (access-count bucket, is_write, fast-tier
pressure); the delayed reward arrives at the page's *next* access: +1 if it
hits the fast tier, minus a migration cost when we moved it.

On skewed read-heavy workloads the learner converges to "promote the hot
set" and beats the static heuristic.  §2 notes such engines "may perform
poorly if the workload is write-intensive and has random access patterns" —
under that shift rewards are pure noise and the policy churns migrations, a
P4 decision-quality failure.
"""

import collections

from repro.ml.qlearn import QLearner


class LearnedPlacementPolicy:
    """``policy(page, context) -> bool`` (migrate up?) with online Q-learning."""

    MIGRATE = 1
    STAY = 0
    EPSILON = 0.1
    #: Reward charged to a promotion, so churn has to pay for itself.
    MIGRATION_PENALTY = 0.3

    def __init__(self, seed=0):
        self.learner = QLearner(action_count=2, epsilon=self.EPSILON,
                                seed=seed)
        self._access_counts = collections.Counter()
        self._pending = {}  # page -> (state, action, decision serial)
        self.decisions = 0

    def _state(self, page, context):
        count = self._access_counts[page]
        count_bucket = min(count, 4)
        pressure = 0
        if context["fast_capacity"]:
            pressure = min(int(4 * context["fast_used"] / context["fast_capacity"]), 3)
        return (count_bucket, bool(context["is_write"]), pressure)

    def _resolve(self, page, hit, serial):
        """Reward the pending decision, if it came from an earlier access.

        The decision made during access N is rewarded by access N+k of the
        same page, so a pending entry created by *this* access (same serial)
        must not be resolved.
        """
        pending = self._pending.get(page)
        if pending is None or pending[2] >= serial:
            return
        del self._pending[page]
        state, action, _ = pending
        reward = (1.0 if hit else 0.0)
        if action == self.MIGRATE:
            reward -= self.MIGRATION_PENALTY
        self.learner.update(state, action, reward)

    def on_access(self, page, hit, is_write, serial):
        """Online training hook: fires on every tiered-memory access."""
        self._resolve(page, hit, serial)
        self._access_counts[page] += 1

    def __call__(self, page, context):
        # The policy runs on the miss path *before* the access hook fires,
        # so resolve the previous pending decision here (this access was a
        # miss) rather than letting the new decision clobber it.
        self._resolve(page, hit=False, serial=context["serial"])
        state = self._state(page, context)
        action = self.learner.choose_action(state)
        self._pending[page] = (state, action, context["serial"])
        self.decisions += 1
        return action == self.MIGRATE


#: Implementation name of the learned placement policy.
POLICY_NAME = "mm.learned_placement"


def attach_learned_placement(kernel, tiered, seed=0):
    """Install the Q-learning placement policy on ``tiered`` memory and
    activate it."""
    policy = LearnedPlacementPolicy(seed=seed)

    def on_access(hook, now, payload):
        policy.on_access(payload["page"], payload["hit"], payload["is_write"],
                         payload["serial"])

    tiered.access_hook.attach(on_access, name=POLICY_NAME + ".trainer")
    kernel.functions.register_implementation(POLICY_NAME, policy)
    kernel.functions.replace(tiered.PLACEMENT_SLOT, POLICY_NAME)
    return policy
