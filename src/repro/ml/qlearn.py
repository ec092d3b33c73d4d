"""Tabular Q-learning.

Used by the tiered-memory placement policy (the paper's background cites
RL-based data placement, e.g. Kleio and Sibyl).  States are hashable
discretized feature tuples; actions are small integer ranges.
"""

import numpy as np


class QLearner:
    def __init__(self, action_count, learning_rate=0.2, discount=0.9,
                 epsilon=0.1, seed=0):
        if action_count < 1:
            raise ValueError("need at least one action")
        self.action_count = action_count
        self.learning_rate = learning_rate
        self.discount = discount
        self.epsilon = epsilon
        self._q = {}
        self._rng = np.random.default_rng(seed)
        self.update_count = 0

    def q_values(self, state):
        values = self._q.get(state)
        if values is None:
            values = np.zeros(self.action_count)
            self._q[state] = values
        return values

    def best_action(self, state):
        """Greedy action (no exploration) — the deployment-time decision."""
        return int(np.argmax(self.q_values(state)))

    def choose_action(self, state):
        """Epsilon-greedy action — the training-time decision."""
        if self._rng.random() < self.epsilon:
            return int(self._rng.integers(self.action_count))
        return self.best_action(state)

    def update(self, state, action, reward, next_state=None):
        """One Q-learning backup; ``next_state=None`` marks a terminal step."""
        values = self.q_values(state)
        future = 0.0 if next_state is None else float(np.max(self.q_values(next_state)))
        target = reward + self.discount * future
        values[action] += self.learning_rate * (target - values[action])
        self.update_count += 1
