"""Tabular Q-learning."""

import pytest

from repro.ml.qlearn import QLearner


def test_requires_positive_actions():
    with pytest.raises(ValueError):
        QLearner(0)


def test_q_values_default_zero():
    learner = QLearner(3)
    assert list(learner.q_values("s")) == [0.0, 0.0, 0.0]


def test_update_moves_toward_target():
    learner = QLearner(2, learning_rate=0.5, discount=0.0)
    learner.update("s", 0, reward=1.0)
    assert learner.q_values("s")[0] == 0.5
    learner.update("s", 0, reward=1.0)
    assert learner.q_values("s")[0] == 0.75


def test_terminal_update_ignores_future():
    learner = QLearner(2, learning_rate=1.0, discount=0.9)
    learner.update("next", 1, reward=10.0)      # make next-state attractive
    learner.update("s", 0, reward=1.0, next_state=None)
    assert learner.q_values("s")[0] == 1.0


def test_discounted_bootstrap():
    learner = QLearner(2, learning_rate=1.0, discount=0.5)
    learner.update("next", 0, reward=4.0)       # Q(next, 0) = 4
    learner.update("s", 1, reward=0.0, next_state="next")
    assert learner.q_values("s")[1] == 2.0


def test_best_action_is_greedy():
    learner = QLearner(3, learning_rate=1.0)
    learner.update("s", 2, reward=5.0)
    assert learner.best_action("s") == 2


def test_epsilon_zero_never_explores():
    learner = QLearner(2, learning_rate=1.0, epsilon=0.0)
    learner.update("s", 1, reward=1.0)
    assert all(learner.choose_action("s") == 1 for _ in range(20))


def test_epsilon_one_explores_uniformly():
    learner = QLearner(4, epsilon=1.0, seed=0)
    actions = {learner.choose_action("s") for _ in range(200)}
    assert actions == {0, 1, 2, 3}


def test_learns_simple_bandit():
    learner = QLearner(2, learning_rate=0.2, epsilon=0.2, seed=1)
    import numpy as np

    rng = np.random.default_rng(0)
    for _ in range(500):
        action = learner.choose_action("s")
        reward = 1.0 if action == 1 else 0.0
        reward += rng.normal(0, 0.1)
        learner.update("s", action, reward)
    assert learner.best_action("s") == 1
