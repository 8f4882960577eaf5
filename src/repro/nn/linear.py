"""Fully-connected layer with manual backprop."""

from __future__ import annotations

import numpy as np

from repro.nn.init import he_uniform, xavier_uniform
from repro.nn.module import Module, Parameter
from repro.rng import as_generator

__all__ = ["Linear", "row_matmul"]


def row_matmul(x: np.ndarray, W: np.ndarray) -> np.ndarray:
    """``x @ W`` computed one row at a time: ``(B, d) @ (d, h) -> (B, h)``.

    Row ``i`` of the result is bit-identical to ``x[i:i+1] @ W``, whatever
    the other rows hold.  A single ``(B, d) @ (d, h)`` gemm does not give
    that guarantee — its blocking can sum a row's products in another
    order than the batch-of-1 product does, off in the last bits.  The
    broadcast form ``(B, 1, d) @ (d, h)`` runs the batch-of-1 kernel on
    every row (the same contract ``repro.rl.batch.StackedQNet`` relies on).
    """
    return np.matmul(x[:, None, :], W)[:, 0, :]


class Linear(Module):
    """``y = x @ W + b`` over a batch.

    Parameters
    ----------
    in_features, out_features:
        Layer shape.
    init:
        ``"he"`` (ReLU networks) or ``"xavier"`` (tanh/sigmoid networks).
    rng:
        Seed or generator for the weight draw.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        init: str = "he",
        rng: int | np.random.Generator | None = 0,
    ) -> None:
        if in_features < 1 or out_features < 1:
            raise ValueError("features must be >= 1")
        gen = as_generator(rng)
        if init == "he":
            w = he_uniform(gen, in_features, out_features)
        elif init == "xavier":
            w = xavier_uniform(gen, in_features, out_features)
        else:
            raise ValueError(f"unknown init {init!r}")
        self.in_features = in_features
        self.out_features = out_features
        self.W = Parameter(w, name="W")
        self.b = Parameter(np.zeros(out_features), name="b")
        self._x: np.ndarray | None = None

    def parameters(self) -> list[Parameter]:
        return [self.W, self.b]

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.in_features:
            raise ValueError(
                f"expected input dim {self.in_features}, got {x.shape[1]}"
            )
        self._x = x
        return x @ self.W.data + self.b.data

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        grad_out = np.atleast_2d(np.asarray(grad_out, dtype=np.float64))
        self.W.grad += self._x.T @ grad_out
        self.b.grad += grad_out.sum(axis=0)
        return grad_out @ self.W.data.T

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Linear({self.in_features}, {self.out_features})"
