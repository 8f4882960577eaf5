"""From-scratch numpy neural-network stack.

The paper's models (LSTM load forecaster, BP network, 8x100 DQN) are
normally built on PyTorch; this offline reproduction implements the same
math directly on numpy with manual backpropagation:

- :class:`repro.nn.module.Module` / :class:`repro.nn.module.Parameter` —
  layer protocol with cached-forward / explicit-backward.
- :class:`repro.nn.linear.Linear`, activations, :class:`repro.nn.mlp.MLP`,
  :class:`repro.nn.lstm.LSTM` — the layers the paper uses.
- :class:`repro.nn.lstm.StackedLSTMRegressor` — M same-shape LSTM
  regressors trained as one on a flat parameter arena.
- :mod:`repro.nn.losses` — MSE and the Huber loss the paper adopts.
- :mod:`repro.nn.optim` — SGD (+momentum), Adam, and the flat-arena
  :class:`repro.nn.optim.StackedAdam`.
- :mod:`repro.nn.serialization` — weight get/set, flattening, and the
  per-layer grouping needed for the paper's α base/personalization split.

Everything is vectorised over the batch dimension per the HPC guides;
no Python loops in hot paths except over time steps in the LSTM (inherent
sequential dependency).
"""

from repro.nn.module import Module, Parameter, Sequential
from repro.nn.linear import Linear, row_matmul
from repro.nn.activations import Identity, ReLU, Sigmoid, Tanh
from repro.nn.mlp import MLP
from repro.nn.lstm import LSTM, LSTMRegressor, StackedLSTMRegressor
from repro.nn.losses import HuberLoss, Loss, MSELoss
from repro.nn.optim import SGD, Adam, Optimizer, StackedAdam
from repro.nn.serialization import (
    average_weights,
    clone_weights,
    count_parameters,
    flatten_weights,
    get_weights,
    layer_parameter_groups,
    set_weights,
    unflatten_weights,
    weights_allclose,
)

__all__ = [
    "Module",
    "Parameter",
    "Sequential",
    "Linear",
    "row_matmul",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "Identity",
    "MLP",
    "LSTM",
    "LSTMRegressor",
    "StackedLSTMRegressor",
    "Loss",
    "MSELoss",
    "HuberLoss",
    "Optimizer",
    "SGD",
    "Adam",
    "StackedAdam",
    "get_weights",
    "set_weights",
    "clone_weights",
    "average_weights",
    "flatten_weights",
    "unflatten_weights",
    "count_parameters",
    "layer_parameter_groups",
    "weights_allclose",
]
