"""From-scratch ML substrate (numpy only).

LinnOS ships a "light neural network" in the kernel; other learned OS
policies in the paper's background use small MLPs, regressions, or RL.  This
package implements those model families from scratch so the reproduction
has no opaque dependencies:

- :class:`~repro.ml.mlp.Mlp` — fully-connected network with ReLU hidden
  layers, sigmoid/softmax/linear heads, manual backprop;
- :mod:`~repro.ml.train` — the Adam optimizer and the minibatch training
  loop;
- :class:`~repro.ml.qlearn.QLearner` — tabular Q-learning for the
  tiered-memory placement policy;
- :class:`~repro.ml.features.Normalizer` — train-time feature scaling
  reapplied at inference.
"""

from repro.ml.features import Normalizer
from repro.ml.mlp import Mlp
from repro.ml.qlearn import QLearner
from repro.ml.train import Adam, train_classifier

__all__ = [
    "Normalizer",
    "Mlp",
    "QLearner",
    "Adam",
    "train_classifier",
]
