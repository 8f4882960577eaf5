"""LSTM layer with full backpropagation-through-time.

The paper's best load forecaster is an LSTM; this is a single-layer LSTM
implemented directly on numpy.  The time loop is inherently sequential,
but every step is vectorised over the batch and over all four gates at
once (one ``(B, F) @ (F, 4H)`` matmul per step), per the HPC guides.

Shapes
------
Input  ``x``: ``(B, T, F)`` — batch, time, features.
Output: ``(B, H)`` (last hidden state) or ``(B, T, H)`` when
``return_sequences=True``.

``forward`` caches every step for ``backward`` (training);
``forward_rows`` is the inference path: stateless, and row-exact — each
row of a batch gets the bits a batch of one would.
"""

from __future__ import annotations

import numpy as np

from repro.nn.init import orthogonal, xavier_uniform
from repro.nn.linear import Linear, row_matmul
from repro.nn.module import Module, Parameter
from repro.nn.optim import arena_width, carve
from repro.rng import as_generator, spawn

__all__ = ["LSTM", "LSTMRegressor", "StackedLSTMRegressor"]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Overflow-free logistic: ``1/(1+e)`` for ``x >= 0``, ``e/(1+e)`` below.

    ``e = exp(-|x|)`` never overflows.  The numerator is picked without
    a mask or a branch: ``max(x >= 0, e)`` is ``1.0`` for ``x >= 0`` and
    ``e`` (which is <= 1) below, so each element gets exactly the
    division of the two-branch form (NaN stays NaN).  A per-element
    ``np.where`` select cost more than the whole arithmetic here.
    """
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    num = (x >= 0).astype(np.float64)
    np.maximum(num, e, out=num)
    e += 1.0
    num /= e
    return num


def _cell(z: np.ndarray, c_prev: np.ndarray, H: int) -> tuple[np.ndarray, ...]:
    """Gates and new state from the pre-activations ``z`` of one step.

    ``z`` is ``(..., 4H)`` in ``[i | f | g | o]`` layout.  Returns
    ``(i, f, g, o, c, tanh(c), h)``.
    """
    i = _sigmoid(z[..., :H])
    f = _sigmoid(z[..., H : 2 * H])
    g = np.tanh(z[..., 2 * H : 3 * H])
    o = _sigmoid(z[..., 3 * H :])
    c = f * c_prev + i * g
    tc = np.tanh(c)
    return i, f, g, o, c, tc, o * tc


class LSTM(Module):
    """Single-layer LSTM.

    Gate layout in the fused weight matrices is ``[i | f | g | o]``
    (input, forget, cell-candidate, output).  The forget-gate bias is
    initialised to 1.0, the standard trick for stable early training.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        return_sequences: bool = False,
        rng: int | np.random.Generator | None = 0,
    ) -> None:
        if input_size < 1 or hidden_size < 1:
            raise ValueError("sizes must be >= 1")
        gen = as_generator(rng)
        rx, rh = spawn(gen, 2)
        H = hidden_size
        self.input_size = input_size
        self.hidden_size = H
        self.return_sequences = return_sequences

        self.Wx = Parameter(xavier_uniform(rx, input_size, 4 * H), name="Wx")
        wh = np.concatenate([orthogonal(rh, H, H) for _ in range(4)], axis=1)
        self.Wh = Parameter(wh, name="Wh")
        b = np.zeros(4 * H)
        b[H : 2 * H] = 1.0  # forget-gate bias
        self.b = Parameter(b, name="b")

        self._cache: dict | None = None

    def parameters(self) -> list[Parameter]:
        return [self.Wx, self.Wh, self.b]

    # ------------------------------------------------------------------
    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 2:  # (T, F) convenience -> batch of 1
            x = x[None, :, :]
        if x.ndim != 3 or x.shape[2] != self.input_size:
            raise ValueError(
                f"expected input (B, T, {self.input_size}), got {x.shape}"
            )
        return x

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = self._check_input(x)
        B, T, _ = x.shape
        H = self.hidden_size

        h = np.zeros((B, H))
        c = np.zeros((B, H))
        hs = np.zeros((B, T, H))
        cache_steps = []
        for t in range(T):
            z = x[:, t, :] @ self.Wx.data + h @ self.Wh.data + self.b.data
            c_prev, h_prev = c, h
            i, f, g, o, c, tc, h = _cell(z, c_prev, H)
            hs[:, t, :] = h
            cache_steps.append((i, f, g, o, c_prev, tc, h_prev))
        self._cache = {"x": x, "steps": cache_steps, "B": B, "T": T}
        return hs if self.return_sequences else h

    def forward_rows(self, x: np.ndarray) -> np.ndarray:
        """Inference forward, row-exact and stateless.

        Row ``i`` of the output is bit-identical to
        ``forward(x[i:i+1])[0]`` whatever the other rows hold (every
        product is a :func:`~repro.nn.linear.row_matmul`), and nothing
        is cached, so it is safe on a shared read-only model.
        """
        x = self._check_input(x)
        B, T, _ = x.shape
        h = np.zeros((B, self.hidden_size))
        c = np.zeros((B, self.hidden_size))
        hs = []
        for t in range(T):
            z = (
                row_matmul(x[:, t, :], self.Wx.data)
                + row_matmul(h, self.Wh.data)
                + self.b.data
            )
            _, _, _, _, c, _, h = _cell(z, c, self.hidden_size)
            hs.append(h)
        return np.stack(hs, axis=1) if self.return_sequences else h

    # ------------------------------------------------------------------
    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x = self._cache["x"]
        steps = self._cache["steps"]
        B, T = self._cache["B"], self._cache["T"]
        H = self.hidden_size

        grad_out = np.asarray(grad_out, dtype=np.float64)
        if self.return_sequences:
            if grad_out.shape != (B, T, H):
                raise ValueError(f"expected grad (B,T,H)={(B,T,H)}, got {grad_out.shape}")
            dh_seq = grad_out
        else:
            grad_out = np.atleast_2d(grad_out)
            if grad_out.shape != (B, H):
                raise ValueError(f"expected grad (B,H)={(B,H)}, got {grad_out.shape}")
            dh_seq = None

        dx = np.zeros_like(x)
        dh_next = np.zeros((B, H)) if dh_seq is not None else grad_out.copy()
        dc_next = np.zeros((B, H))
        for t in range(T - 1, -1, -1):
            i, f, g, o, c_prev, tc, h_prev = steps[t]
            dh = dh_next + (dh_seq[:, t, :] if dh_seq is not None else 0.0)
            do = dh * tc
            dc = dh * o * (1.0 - tc**2) + dc_next
            di = dc * g
            df = dc * c_prev
            dg = dc * i
            dc_next = dc * f

            dz = np.concatenate(
                [
                    di * i * (1.0 - i),
                    df * f * (1.0 - f),
                    dg * (1.0 - g**2),
                    do * o * (1.0 - o),
                ],
                axis=1,
            )
            self.Wx.grad += x[:, t, :].T @ dz
            self.Wh.grad += h_prev.T @ dz
            self.b.grad += dz.sum(axis=0)
            dx[:, t, :] = dz @ self.Wx.data.T
            dh_next = dz @ self.Wh.data.T
        return dx

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LSTM({self.input_size}, {self.hidden_size})"


class LSTMRegressor(Module):
    """(Stacked) LSTM encoder + linear head: ``(B, T, F) -> (B, out_dim)``.

    This is the paper's load-forecasting architecture: the sequence of the
    last ``window`` minutes in, the next-hour consumption out.  With
    ``n_layers > 1`` the lower layers emit full sequences feeding the next
    layer; only the top layer's final hidden state reaches the head.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        out_dim: int,
        n_layers: int = 1,
        rng: int | np.random.Generator | None = 0,
    ) -> None:
        if n_layers < 1:
            raise ValueError("n_layers must be >= 1")
        gen = as_generator(rng)
        rngs = spawn(gen, n_layers + 1)
        self.layers: list[LSTM] = []
        for i in range(n_layers):
            self.layers.append(
                LSTM(
                    input_size if i == 0 else hidden_size,
                    hidden_size,
                    return_sequences=(i < n_layers - 1),
                    rng=rngs[i],
                )
            )
        self.lstm = self.layers[0]  # kept for backwards compatibility
        self.head = Linear(hidden_size, out_dim, init="xavier", rng=rngs[-1])

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    def parameters(self) -> list[Parameter]:
        out: list[Parameter] = []
        for layer in self.layers:
            out.extend(layer.parameters())
        return out + self.head.parameters()

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return self.head.forward(x)

    def forward_rows(self, x: np.ndarray) -> np.ndarray:
        """Row-exact, stateless :meth:`forward` (see :meth:`LSTM.forward_rows`)."""
        for layer in self.layers:
            x = layer.forward_rows(x)
        return row_matmul(x, self.head.W.data) + self.head.b.data

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad = self.head.backward(grad_out)
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad


class StackedLSTMRegressor:
    """M same-shape :class:`LSTMRegressor`\\ s trained as one.

    The members' parameters are gathered into one ``(M, P)`` arena
    (row ``i`` = member ``i`` in its parameter order, see
    :func:`repro.nn.optim.carve`); the per-layer ``(M, F, 4H)``,
    ``(M, H, 4H)``, ``(M, 4H)`` and head stacks are views of it, and
    :meth:`scatter` writes the arena back into the members.

    :meth:`forward` / :meth:`backward` take member ``i``'s minibatch in
    row ``i`` of ``(M, B, ...)`` inputs and run one broadcast ``matmul``
    per gate product over the stacked axis.  Each item of
    ``(M, B, d) @ (M, d, h)`` is computed exactly as the serial
    ``(B, d) @ (d, h)`` product, and every elementwise expression and
    reduction is the serial one in the serial order, so row ``i`` of the
    gradients is bit-identical to ``LSTMRegressor.backward`` on member
    ``i`` alone.
    """

    def __init__(self, models: list[LSTMRegressor]) -> None:
        if not models:
            raise ValueError("need at least one model to stack")
        self.shapes = [p.data.shape for p in models[0].parameters()]
        self.models = list(models)
        self.hidden_size = models[0].layers[0].hidden_size
        self.n_layers = models[0].n_layers
        self.flat = np.empty((len(models), arena_width(self.shapes)))
        self._views = carve(self.flat, self.shapes)
        for view, params in zip(self._views, self._member_params()):
            for i, param in enumerate(params):
                view[i] = param.data
        self._cache: tuple | None = None

    def _member_params(self):
        """Per parameter slot, the members' parameters in row order."""
        return zip(*(model.parameters() for model in self.models))

    def scatter(self) -> None:
        """Copy the arena back into the members' parameters (in place)."""
        for view, params in zip(self._views, self._member_params()):
            for i, param in enumerate(params):
                param.data[...] = view[i]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """``(M, B, T, F) -> (M, B, out_dim)``, caching for :meth:`backward`."""
        H = self.hidden_size
        M, B, T, _ = x.shape
        layers = []
        for j in range(self.n_layers):
            Wx, Wh, b = self._views[3 * j : 3 * j + 3]
            top = j == self.n_layers - 1
            h = np.zeros((M, B, H))
            c = np.zeros((M, B, H))
            hs = None if top else np.zeros((M, B, T, H))
            steps = []
            for t in range(T):
                z = np.matmul(x[:, :, t, :], Wx) + np.matmul(h, Wh) + b[:, None, :]
                c_prev, h_prev = c, h
                i, f, g, o, c, tc, h = _cell(z, c_prev, H)
                if hs is not None:
                    hs[:, :, t, :] = h
                steps.append((i, f, g, o, c_prev, tc, h_prev))
            layers.append((x, steps))
            x = hs
        W, b = self._views[-2:]
        self._cache = (layers, h)
        return np.matmul(h, W) + b[:, None, :]

    def backward(self, grad: np.ndarray, out: list[np.ndarray]) -> None:
        """Accumulate the gradients of the cached pass into *out*.

        *out* holds ``(M, *shape)`` views in parameter order (e.g.
        :meth:`repro.nn.optim.StackedAdam.grad_views`); like
        ``Parameter.grad`` they are added to, so zero them first.  The
        input gradient of the bottom layer is not needed and not formed.
        """
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        layers, h_top = self._cache
        self._cache = None
        W = self._views[-2]
        out[-2] += np.matmul(np.swapaxes(h_top, 1, 2), grad)
        out[-1] += grad.sum(axis=1)
        grad = np.matmul(grad, np.swapaxes(W, 1, 2))
        for j in reversed(range(self.n_layers)):
            x, steps = layers[j]
            Wx, Wh, _ = self._views[3 * j : 3 * j + 3]
            gWx, gWh, gb = out[3 * j : 3 * j + 3]
            top = j == self.n_layers - 1
            dh_seq = None if top else grad
            dh_next = grad if top else np.zeros_like(steps[0][4])
            dc_next = np.zeros_like(steps[0][4])
            dx = None if j == 0 else np.zeros_like(x)
            for t in range(len(steps) - 1, -1, -1):
                i, f, g, o, c_prev, tc, h_prev = steps[t]
                dh = dh_next + (dh_seq[:, :, t, :] if dh_seq is not None else 0.0)
                do = dh * tc
                dc = dh * o * (1.0 - tc**2) + dc_next
                di = dc * g
                df = dc * c_prev
                dg = dc * i
                dc_next = dc * f
                dz = np.concatenate(
                    [
                        di * i * (1.0 - i),
                        df * f * (1.0 - f),
                        dg * (1.0 - g**2),
                        do * o * (1.0 - o),
                    ],
                    axis=2,
                )
                gWx += np.matmul(np.swapaxes(x[:, :, t, :], 1, 2), dz)
                gWh += np.matmul(np.swapaxes(h_prev, 1, 2), dz)
                gb += dz.sum(axis=1)
                if dx is not None:
                    dx[:, :, t, :] = np.matmul(dz, np.swapaxes(Wx, 1, 2))
                dh_next = np.matmul(dz, np.swapaxes(Wh, 1, 2))
            grad = dx
