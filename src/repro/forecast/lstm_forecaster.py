"""LSTM forecaster — the paper's best model (≈92% accuracy).

Input layout: the feature vector's first ``window`` columns are the lag
sequence; the remaining ``n_extra`` columns (target-time harmonics) are
*tiled across every timestep* as conditioning channels, so each LSTM
step sees ``1 + n_extra`` features.  The final hidden state feeds a
linear head producing the ``horizon``-length prediction; trained with
Adam on MSE.
"""

from __future__ import annotations

import numpy as np

from repro.forecast.base import Forecaster
from repro.nn import Adam, LSTMRegressor, MSELoss, StackedAdam, StackedLSTMRegressor
from repro.nn.serialization import get_weights, set_weights
from repro.rng import as_generator, generator_state, restore_generator

__all__ = ["LSTMForecaster"]

#: Working-set budget of one stacked training tile (see ``fit_many``).
_TILE_BYTES = 1 << 19


class LSTMForecaster(Forecaster):
    """(Stacked) LSTM sequence encoder + linear head (the paper's best model)."""

    name = "lstm"

    def __init__(
        self,
        window: int,
        horizon: int,
        hidden_size: int = 32,
        learning_rate: float = 0.01,
        epochs: int = 10,
        batch_size: int = 32,
        n_layers: int = 1,
        n_extra: int = 0,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        super().__init__(window, horizon, n_extra)
        self.hidden_size = int(hidden_size)
        self.learning_rate = float(learning_rate)
        self.epochs = int(epochs)
        self.batch_size = int(batch_size)
        self.n_layers = int(n_layers)
        self._seed = seed
        self._rng = as_generator(seed)
        self.model = LSTMRegressor(
            1 + self.n_extra, hidden_size, horizon, n_layers=n_layers, rng=self._rng
        )
        self.optimizer = Adam(self.model.parameters(), lr=learning_rate, clip_norm=5.0)
        self.loss_fn = MSELoss()

    # ------------------------------------------------------------------
    def _to_sequence(self, X: np.ndarray) -> np.ndarray:
        """(n, window + n_extra) -> (n, window, 1 + n_extra)."""
        n = X.shape[0]
        lags = X[:, : self.window, None]
        if self.n_extra == 0:
            return lags
        extras = X[:, self.window :]  # (n, n_extra)
        tiled = np.broadcast_to(extras[:, None, :], (n, self.window, self.n_extra))
        return np.concatenate([lags, tiled], axis=2)

    def fit(self, X: np.ndarray, y: np.ndarray) -> float:
        return self.fit_many([self], [X], [y])[0]

    def stack_key(self) -> tuple:
        return (
            self.window, self.horizon, self.n_extra, self.hidden_size,
            self.n_layers, self.learning_rate, self.epochs, self.batch_size,
        )

    @classmethod
    def fit_many(
        cls,
        models: list["LSTMForecaster"],
        Xs: list[np.ndarray],
        ys: list[np.ndarray],
    ) -> list[float]:
        """Train every member on its own data in stacked passes.

        All members must share :meth:`stack_key` and a sample count
        ``n``.  Per epoch each member draws its own
        ``rng.permutation(n)``; each minibatch is one stacked
        forward/backward (:class:`~repro.nn.StackedLSTMRegressor`) and
        one :class:`~repro.nn.StackedAdam` step over a tile of members
        (as many as keep the step's working set cache-sized).
        Parameters are gathered at the start and written back at the
        end, and each member's Adam moments are rebound to rows of the
        stack's moment arena, so every member ends bit-identical to a
        minibatch loop of its own (``forward``, MSE, ``backward``,
        ``Adam.step``) over the same permutations.  Returns each
        member's loss on its last minibatch.
        """
        if not models:
            return []
        ref = models[0]
        pairs = [model._check_Xy(X, y) for model, X, y in zip(models, Xs, ys)]
        n = pairs[0][0].shape[0]
        for model, (X, _) in zip(models, pairs):
            if (
                type(model) is not type(ref)
                or model.stack_key() != ref.stack_key()
                or X.shape[0] != n
            ):
                raise ValueError(
                    "stacked members need one class, stack_key and sample count"
                )
        if n == 0 or ref.epochs < 1:
            return [float("nan")] * len(models)
        # Train in tiles whose per-step gate stack (tile, batch, 4H) stays
        # cache-sized: past that, every elementwise pass streams from
        # memory and a wider stack only gets slower per model.
        bs = min(ref.batch_size, n)
        tile = max(1, _TILE_BYTES // (8 * bs * 4 * ref.hidden_size))
        losses: list[float] = []
        for lo in range(0, len(models), tile):
            losses += _fit_stack(models[lo : lo + tile], pairs[lo : lo + tile], n, bs)
        return losses

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = self._check_X(X)
        return self.model.forward(self._to_sequence(X))

    def predict_rows(self, X: np.ndarray) -> np.ndarray:
        return self.model.forward_rows(self._to_sequence(self._check_X(X)))

    # ------------------------------------------------------------------
    def get_weights(self) -> list[np.ndarray]:
        return get_weights(self.model)

    def set_weights(self, weights: list[np.ndarray]) -> None:
        set_weights(self.model, weights)
        # Adam moments were estimated for the pre-merge parameters; reset
        # so the merged model starts from clean optimiser state.
        self.optimizer = Adam(self.model.parameters(), lr=self.learning_rate, clip_norm=5.0)

    def state_dict(self) -> dict:
        """Complete mutable state as a checkpointable tree."""
        return {
            "weights": get_weights(self.model),
            "optimizer": self.optimizer.state_dict(),
            "rng": generator_state(self._rng),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output in place."""
        # Bypass self.set_weights: that hook deliberately resets Adam
        # (federated-merge semantics), but a restore must bring the
        # moment estimates back exactly as they were.
        set_weights(self.model, [np.asarray(w) for w in state["weights"]])
        self.optimizer.load_state_dict(state["optimizer"])
        restore_generator(self._rng, state["rng"])

    def clone(self) -> "LSTMForecaster":
        return LSTMForecaster(
            self.window,
            self.horizon,
            hidden_size=self.hidden_size,
            learning_rate=self.learning_rate,
            epochs=self.epochs,
            batch_size=self.batch_size,
            n_layers=self.n_layers,
            n_extra=self.n_extra,
            seed=self._seed,
        )


def _fit_stack(
    models: list[LSTMForecaster], pairs: list[tuple[np.ndarray, np.ndarray]], n: int, bs: int
) -> list[float]:
    """One stacked training pass over compatible members (see ``fit_many``)."""
    ref = models[0]
    seqs = np.stack([model._to_sequence(X) for model, (X, _) in zip(models, pairs)])
    targets = np.stack([y for _, y in pairs])
    net = StackedLSTMRegressor([model.model for model in models])
    optim = StackedAdam([model.optimizer for model in models], net.flat)
    grads = optim.grad_views(len(models))
    rows = np.arange(len(models))[:, None]
    for _ in range(ref.epochs):
        orders = np.stack([model._rng.permutation(n) for model in models])
        for start in range(0, n, bs):
            idx = orders[:, start : start + bs]
            pred = net.forward(seqs[rows, idx])
            target = targets[rows, idx]
            # MSELoss's gradient, per member (each averages over its own
            # minibatch of the same size).
            grad = 2.0 * (pred - target) / max(1, pred[0].size)
            optim.grad.fill(0.0)
            net.backward(grad, grads)
            optim.step()
    net.scatter()
    optim.sync_out()
    return [model.loss_fn(pred[i], target[i])[0] for i, model in enumerate(models)]
