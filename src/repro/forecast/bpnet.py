"""Back-propagation network forecaster.

A one-hidden-layer ReLU MLP trained with mini-batch SGD — the classic
"BP network" baseline the paper compares (its noted weakness, converging
to local minima, is inherent to small SGD-trained MLPs).
"""

from __future__ import annotations

import numpy as np

from repro.forecast.base import Forecaster
from repro.nn import MLP, MSELoss, SGD
from repro.nn.linear import row_matmul
from repro.nn.serialization import get_weights, set_weights
from repro.rng import as_generator, generator_state, restore_generator

__all__ = ["BPForecaster"]


class BPForecaster(Forecaster):
    """One-hidden-layer ReLU MLP trained with momentum SGD (the paper's BP net)."""

    name = "bp"

    def __init__(
        self,
        window: int,
        horizon: int,
        hidden_size: int = 64,
        learning_rate: float = 0.05,
        epochs: int = 20,
        batch_size: int = 32,
        momentum: float = 0.9,
        n_extra: int = 0,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        super().__init__(window, horizon, n_extra)
        self.hidden_size = int(hidden_size)
        self.learning_rate = float(learning_rate)
        self.epochs = int(epochs)
        self.batch_size = int(batch_size)
        self.momentum = float(momentum)
        self._seed = seed
        self._rng = as_generator(seed)
        self.model = MLP(
            self.input_dim, [hidden_size], horizon, activation="relu", rng=self._rng
        )
        self.optimizer = SGD(
            self.model.parameters(), lr=learning_rate, momentum=momentum, clip_norm=5.0
        )
        self.loss_fn = MSELoss()

    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> float:
        X, y = self._check_Xy(X, y)
        n = X.shape[0]
        if n == 0:
            return float("nan")
        bs = min(self.batch_size, n)
        last = float("nan")
        for _ in range(self.epochs):
            order = self._rng.permutation(n)
            for start in range(0, n, bs):
                idx = order[start : start + bs]
                self.model.zero_grad()
                pred = self.model.forward(X[idx])
                last, grad = self.loss_fn(pred, y[idx])
                self.model.backward(grad)
                self.optimizer.step()
        return last

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = self._check_X(X)
        return self.model.forward(X)

    def predict_rows(self, X: np.ndarray) -> np.ndarray:
        h = self._check_X(X)
        layers = self.model.hidden_layer_groups()
        for j, (W, b) in enumerate(layers):
            h = row_matmul(h, W.data) + b.data
            if j < len(layers) - 1:
                h = np.where(h > 0, h, 0.0)  # ReLU, as in nn.activations
        return h

    # ------------------------------------------------------------------
    def get_weights(self) -> list[np.ndarray]:
        return get_weights(self.model)

    def set_weights(self, weights: list[np.ndarray]) -> None:
        set_weights(self.model, weights)
        # The old momentum was accumulated toward the pre-merge model;
        # carrying it across a federated swap drags the merged weights
        # back toward the stale local optimum.
        self.optimizer = SGD(
            self.model.parameters(),
            lr=self.learning_rate,
            momentum=self.momentum,
            clip_norm=5.0,
        )

    def state_dict(self) -> dict:
        """Complete mutable state as a checkpointable tree."""
        return {
            "weights": get_weights(self.model),
            "optimizer": self.optimizer.state_dict(),
            "rng": generator_state(self._rng),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output in place."""
        # Bypass self.set_weights: that hook deliberately resets the
        # optimizer (federated-merge semantics), but a restore must bring
        # the momentum buffers back exactly as they were.
        set_weights(self.model, [np.asarray(w) for w in state["weights"]])
        self.optimizer.load_state_dict(state["optimizer"])
        restore_generator(self._rng, state["rng"])

    def clone(self) -> "BPForecaster":
        return BPForecaster(
            self.window,
            self.horizon,
            hidden_size=self.hidden_size,
            learning_rate=self.learning_rate,
            epochs=self.epochs,
            batch_size=self.batch_size,
            momentum=self.momentum,
            n_extra=self.n_extra,
            seed=self._seed,
        )
