"""Per-model reference path for federated forecaster training.

The library fits LSTM forecasters with one stacked engine
(:meth:`repro.forecast.LSTMForecaster.fit_many`; ``fit`` is a stack of
one), and :class:`repro.federated.dfl.DFLTrainer` trains every
(residence, device) model of a local interval through it in groups.
These oracles are the plain loops the engine must reproduce bit for bit:

- :func:`oracle_fit` — one model's minibatch loop: per epoch one
  ``rng.permutation``, per minibatch ``zero_grad``, ``forward``, MSE,
  ``backward`` and ``Adam.step``;
- :class:`OracleDFLTrainer` — a :class:`DFLTrainer` whose local
  intervals fit each (residence, device) model alone, in order, with
  :func:`oracle_fit` for LSTMs and the model's own ``fit`` otherwise.

``benchmarks/bench_hotpath.py`` imports this module as its per-model side.
"""

from __future__ import annotations

import numpy as np

from repro.federated.dfl import DFLTrainer
from repro.forecast import LSTMForecaster

__all__ = ["oracle_fit", "OracleDFLTrainer"]


def oracle_fit(forecaster: LSTMForecaster, X: np.ndarray, y: np.ndarray) -> float:
    """Train one LSTM forecaster on (X, y) with its own minibatch loop."""
    X, y = forecaster._check_Xy(X, y)
    n = X.shape[0]
    if n == 0:
        return float("nan")
    bs = min(forecaster.batch_size, n)
    last = float("nan")
    for _ in range(forecaster.epochs):
        order = forecaster._rng.permutation(n)
        for start in range(0, n, bs):
            idx = order[start : start + bs]
            forecaster.model.zero_grad()
            pred = forecaster.model.forward(forecaster._to_sequence(X[idx]))
            last, grad = forecaster.loss_fn(pred, y[idx])
            forecaster.model.backward(grad)
            forecaster.optimizer.step()
    return last


class OracleDFLTrainer(DFLTrainer):
    """:class:`DFLTrainer` whose local intervals fit one model at a time.

    Broadcasts, faults, recovery snapshots and evaluation are the
    trainer's own; only the local fits are replaced.
    """

    def _train_interval(
        self, lo: int, hi: int, losses: dict[str, list[float]]
    ) -> tuple[int, int]:
        n_fits = 0
        for client in self.clients:
            for device in client.device_types:
                X, y, new_cursor = client.prepare_segment(device, lo, hi)
                if X.shape[0] == 0:
                    continue
                client._cursor[device] = new_cursor
                model = client.forecasters[device]
                if isinstance(model, LSTMForecaster):
                    loss = oracle_fit(model, X, y)
                else:
                    loss = model.fit(X, y)
                n_fits += 1
                if np.isfinite(loss):
                    losses[device].append(loss)
        return n_fits, n_fits
