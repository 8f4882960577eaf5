"""Linear-regression forecaster.

Ridge-regularised multi-output linear model with *accumulating
sufficient statistics*: every ``fit`` call adds its windows to the
running Gram matrices (``A'A`` and ``A'y``), so training is genuinely
incremental — tiny stream segments all contribute, and accuracy grows
with cumulative data (the Fig. 7 behaviour).  Each ``fit`` solves the
ridge system on the accumulated statistics and *blends* the solution
with the current weights, which is what keeps federated averaging
meaningful (the current weights carry the neighbourhood's information;
the solve carries the local data's).

The paper characterises LR as the under-fitting baseline; the ridge
default is calibrated so the Fig. 5 ordering LR < SVM < BP < LSTM holds
on the synthetic workload.
"""

from __future__ import annotations

import numpy as np

from repro.forecast.base import Forecaster
from repro.nn.linear import row_matmul

__all__ = ["LinearRegressionForecaster"]


class LinearRegressionForecaster(Forecaster):
    """``y = [X, 1] @ W`` with ridge penalty on accumulated statistics.

    Parameters
    ----------
    ridge:
        L2 penalty on the weights (not the intercept row).
    blend:
        Weight of the fresh ridge solution when mixing with the current
        (possibly federated) weights: ``W <- (1-blend)*W + blend*W_solve``.
        The first fit uses 1.0 (cold start).
    """

    name = "lr"

    def __init__(
        self,
        window: int,
        horizon: int,
        ridge: float = 100.0,
        blend: float = 0.5,
        n_extra: int = 0,
    ) -> None:
        super().__init__(window, horizon, n_extra)
        if ridge < 0:
            raise ValueError("ridge must be >= 0")
        if not 0.0 < blend <= 1.0:
            raise ValueError("blend must be in (0, 1]")
        self.ridge = float(ridge)
        self.blend = float(blend)
        d = self.input_dim + 1  # +1 for the intercept column
        self.W = np.zeros((d, horizon))
        self._gram = np.zeros((d, d))
        self._moment = np.zeros((d, horizon))
        self._n_samples = 0
        self._fitted = False

    # ------------------------------------------------------------------
    def _design(self, X: np.ndarray) -> np.ndarray:
        return np.concatenate([X, np.ones((X.shape[0], 1))], axis=1)

    def fit(self, X: np.ndarray, y: np.ndarray) -> float:
        X, y = self._check_Xy(X, y)
        if X.shape[0] == 0:
            return float("nan")
        A = self._design(X)
        self._gram += A.T @ A
        self._moment += A.T @ y
        self._n_samples += X.shape[0]

        reg = self.ridge * np.eye(A.shape[1])
        reg[-1, -1] = 0.0  # don't penalise the intercept
        W_solve = np.linalg.solve(self._gram + reg, self._moment)
        blend = 1.0 if not self._fitted else self.blend
        self.W = (1.0 - blend) * self.W + blend * W_solve
        self._fitted = True
        resid = A @ self.W - y
        return float((resid**2).mean())

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = self._check_X(X)
        return self._design(X) @ self.W

    def predict_rows(self, X: np.ndarray) -> np.ndarray:
        return row_matmul(self._design(self._check_X(X)), self.W)

    # ------------------------------------------------------------------
    @property
    def n_samples_seen(self) -> int:
        return self._n_samples

    def get_weights(self) -> list[np.ndarray]:
        return [self.W.copy()]

    def set_weights(self, weights: list[np.ndarray]) -> None:
        (w,) = weights
        w = np.asarray(w, dtype=np.float64)
        if w.shape != self.W.shape:
            raise ValueError(f"expected shape {self.W.shape}, got {w.shape}")
        self.W = w.copy()
        self._fitted = True

    def state_dict(self) -> dict:
        """Complete mutable state as a checkpointable tree."""
        return {
            "W": self.W.copy(),
            "gram": self._gram.copy(),
            "moment": self._moment.copy(),
            "n_samples": self._n_samples,
            "fitted": self._fitted,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output in place."""
        self.W = np.asarray(state["W"], dtype=np.float64).copy()
        self._gram = np.asarray(state["gram"], dtype=np.float64).copy()
        self._moment = np.asarray(state["moment"], dtype=np.float64).copy()
        self._n_samples = int(state["n_samples"])
        self._fitted = bool(state["fitted"])

    def clone(self) -> "LinearRegressionForecaster":
        return LinearRegressionForecaster(
            self.window,
            self.horizon,
            ridge=self.ridge,
            blend=self.blend,
            n_extra=self.n_extra,
        )
