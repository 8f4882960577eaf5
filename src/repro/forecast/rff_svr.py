"""Kernel SVR via Random Fourier Features.

The paper's SVM reference (Cao 2003, "Support vector machines experts
for time series forecasting") uses kernel SVR.  A dual/SMO solver would
make the model non-federable (support vectors ARE training data — the
exact leak the paper wants to avoid); Random Fourier Features (Rahimi &
Recht 2007) approximate the RBF kernel with an explicit randomized
feature map, after which the model is *linear in feature space*: plain
weight arrays that FedAvg can average, with the feature map shared by
construction (same seed everywhere, like the rest of the DFL setup).

Registered as ``"svm_rbf"`` — an optional upgrade over the linear
``"svm"`` used in the headline comparison.
"""

from __future__ import annotations

import numpy as np

from repro.forecast.base import Forecaster
from repro.forecast.svr import SVRForecaster
from repro.nn.linear import row_matmul
from repro.rng import as_generator

__all__ = ["RFFSVRForecaster"]


class RFFSVRForecaster(Forecaster):
    """ε-insensitive regression on an RBF random-feature map.

    Parameters
    ----------
    n_features:
        Number of random Fourier features (the kernel-approximation
        fidelity knob).
    gamma:
        RBF bandwidth: ``k(x, x') = exp(-gamma * ||x - x'||^2)``.
        ``None`` uses the 1/input_dim heuristic.
    feature_seed:
        Seed of the random feature map.  **Must match across federated
        clients** (it plays the role of the shared architecture); it is
        deliberately separate from the optimisation seed.
    """

    name = "svm_rbf"

    def __init__(
        self,
        window: int,
        horizon: int,
        n_features: int = 128,
        gamma: float | None = None,
        epsilon: float = 0.02,
        C: float = 3.0,
        learning_rate: float = 0.2,
        epochs: int = 60,
        batch_size: int = 64,
        n_extra: int = 0,
        feature_seed: int = 1234,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        super().__init__(window, horizon, n_extra)
        if n_features < 1:
            raise ValueError("n_features must be >= 1")
        self.n_features = int(n_features)
        self.gamma = float(gamma) if gamma is not None else 1.0 / self.input_dim
        if self.gamma <= 0:
            raise ValueError("gamma must be > 0")
        self.feature_seed = int(feature_seed)
        self._seed = seed

        fmap_rng = np.random.default_rng(self.feature_seed)
        # z(x) = sqrt(2/D) cos(Omega x + b),  Omega ~ N(0, 2*gamma*I)
        self._omega = fmap_rng.normal(
            0.0, np.sqrt(2.0 * self.gamma), size=(self.input_dim, self.n_features)
        )
        self._phase = fmap_rng.uniform(0.0, 2.0 * np.pi, size=self.n_features)

        # The linear ε-SVR head operates purely in feature space.  Reuse
        # the linear solver with window = n_features (no extras there).
        self._head = SVRForecaster(
            self.n_features,
            horizon,
            epsilon=epsilon,
            C=C,
            learning_rate=learning_rate,
            epochs=epochs,
            batch_size=batch_size,
            n_extra=0,
            seed=seed,
        )

    # ------------------------------------------------------------------
    def transform(self, X: np.ndarray) -> np.ndarray:
        """The random feature map: ``(n, input_dim) -> (n, n_features)``."""
        X = self._check_X(X)
        return np.sqrt(2.0 / self.n_features) * np.cos(X @ self._omega + self._phase)

    def fit(self, X: np.ndarray, y: np.ndarray) -> float:
        X, y = self._check_Xy(X, y)
        if X.shape[0] == 0:
            return float("nan")
        return self._head.fit(self.transform(X), y)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self._head.predict(self.transform(X))

    def predict_rows(self, X: np.ndarray) -> np.ndarray:
        Z = np.sqrt(2.0 / self.n_features) * np.cos(
            row_matmul(self._check_X(X), self._omega) + self._phase
        )
        return self._head.predict_rows(Z)

    # ------------------------------------------------------------------
    def get_weights(self) -> list[np.ndarray]:
        return self._head.get_weights()

    def set_weights(self, weights: list[np.ndarray]) -> None:
        self._head.set_weights(weights)

    def state_dict(self) -> dict:
        """Complete mutable state as a checkpointable tree."""
        # The feature map is deterministic from feature_seed (config, not
        # state); only the linear head carries mutable state.
        return {"head": self._head.state_dict()}

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output in place."""
        self._head.load_state_dict(state["head"])

    def clone(self) -> "RFFSVRForecaster":
        return RFFSVRForecaster(
            self.window,
            self.horizon,
            n_features=self.n_features,
            gamma=self.gamma,
            epsilon=self._head.epsilon,
            C=self._head.C,
            learning_rate=self._head.learning_rate,
            epochs=self._head.epochs,
            batch_size=self._head.batch_size,
            n_extra=self.n_extra,
            feature_seed=self.feature_seed,
            seed=self._seed,
        )

    def kernel_approximation(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """``z(X) z(Y)ᵀ`` — converges to the RBF kernel as D grows."""
        return self.transform(X) @ self.transform(Y).T
