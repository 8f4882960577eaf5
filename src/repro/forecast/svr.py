"""Support-vector-regression forecaster.

Linear multi-output SVR with the *squared* ε-insensitive loss::

    L = C · mean_ij max(0, |w_j·x_i + b_j − y_ij| − ε)² + ½λ‖W‖²

trained by mini-batch gradient descent.  The squared hinge keeps the
gradient magnitude-aware (plain sign subgradients oscillate badly on
multi-output regression) while preserving the SVR character: errors
inside the ε-tube are ignored entirely, so fine structure below ε is
never fit — the mild underfit relative to the BP/LSTM models that the
paper reports ("performance with large datasets is lower than the
others").  The model stays federable: plain weight arrays that average.
"""

from __future__ import annotations

import numpy as np

from repro.forecast.base import Forecaster
from repro.nn.linear import row_matmul
from repro.rng import as_generator, generator_state, restore_generator

__all__ = ["SVRForecaster"]


class SVRForecaster(Forecaster):
    """Linear multi-output ε-insensitive SVR (see module docstring)."""

    name = "svm"

    def __init__(
        self,
        window: int,
        horizon: int,
        epsilon: float = 0.02,
        C: float = 3.0,
        reg: float = 1e-3,
        learning_rate: float = 0.2,
        epochs: int = 60,
        batch_size: int = 64,
        n_extra: int = 0,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        super().__init__(window, horizon, n_extra)
        if epsilon < 0 or C <= 0 or learning_rate <= 0 or reg < 0:
            raise ValueError("need epsilon >= 0, C > 0, learning_rate > 0, reg >= 0")
        self.epsilon = float(epsilon)
        self.C = float(C)
        self.reg = float(reg)
        self.learning_rate = float(learning_rate)
        self.epochs = int(epochs)
        self.batch_size = int(batch_size)
        self._seed = seed
        self._rng = as_generator(seed)
        self.W = np.zeros((self.input_dim, horizon))
        self.b = np.zeros(horizon)

    # ------------------------------------------------------------------
    def _loss(self, X: np.ndarray, y: np.ndarray) -> float:
        resid = X @ self.W + self.b - y
        excess = np.maximum(0.0, np.abs(resid) - self.epsilon)
        return float(self.C * (excess**2).mean() + 0.5 * self.reg * (self.W**2).sum())

    def fit(self, X: np.ndarray, y: np.ndarray) -> float:
        X, y = self._check_Xy(X, y)
        n = X.shape[0]
        if n == 0:
            return float("nan")
        bs = min(self.batch_size, n)
        lr = self.learning_rate
        for _ in range(self.epochs):
            order = self._rng.permutation(n)
            for start in range(0, n, bs):
                idx = order[start : start + bs]
                Xb, yb = X[idx], y[idx]
                resid = Xb @ self.W + self.b - yb
                excess = np.maximum(0.0, np.abs(resid) - self.epsilon)
                g = 2.0 * np.sign(resid) * excess  # d/dresid of excess²
                m = Xb.shape[0] * self.horizon
                grad_W = self.C * (Xb.T @ g) / m + self.reg * self.W
                grad_b = self.C * g.sum(axis=0) / m
                self.W -= lr * grad_W
                self.b -= lr * grad_b
        return self._loss(X, y)

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = self._check_X(X)
        return X @ self.W + self.b

    def predict_rows(self, X: np.ndarray) -> np.ndarray:
        return row_matmul(self._check_X(X), self.W) + self.b

    # ------------------------------------------------------------------
    def get_weights(self) -> list[np.ndarray]:
        return [self.W.copy(), self.b.copy()]

    def set_weights(self, weights: list[np.ndarray]) -> None:
        w, b = weights
        w = np.asarray(w, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if w.shape != self.W.shape or b.shape != self.b.shape:
            raise ValueError("weight shape mismatch")
        self.W = w.copy()
        self.b = b.copy()

    def state_dict(self) -> dict:
        """Complete mutable state as a checkpointable tree."""
        return {
            "W": self.W.copy(),
            "b": self.b.copy(),
            "rng": generator_state(self._rng),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output in place."""
        self.set_weights([state["W"], state["b"]])
        restore_generator(self._rng, state["rng"])

    def clone(self) -> "SVRForecaster":
        return SVRForecaster(
            self.window,
            self.horizon,
            epsilon=self.epsilon,
            C=self.C,
            reg=self.reg,
            learning_rate=self.learning_rate,
            epochs=self.epochs,
            batch_size=self.batch_size,
            n_extra=self.n_extra,
            seed=self._seed,
        )
