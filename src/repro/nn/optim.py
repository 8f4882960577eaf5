"""Optimisers operating on :class:`repro.nn.module.Parameter` lists."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Parameter

__all__ = ["Optimizer", "SGD", "Adam", "StackedAdam", "arena_spans", "arena_width", "carve"]


class Optimizer:
    """Base: holds the parameter list and a learning rate."""

    def __init__(self, params: list[Parameter], lr: float) -> None:
        if lr <= 0:
            raise ValueError("lr must be > 0")
        if not params:
            raise ValueError("optimizer needs at least one parameter")
        self.params = list(params)
        self.lr = float(lr)

    def step(self) -> None:
        raise NotImplementedError

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    # -- persistence ---------------------------------------------------
    def state_dict(self) -> dict:
        """Mutable optimizer state (slot arrays, step counters).

        Hyperparameters (lr, momentum, betas) are construction-time
        configuration and are *not* included: a restored optimizer is
        expected to be built from the same config first.
        """
        return {}

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict` in place."""
        if state:
            raise ValueError(f"unexpected optimizer state keys: {sorted(state)}")

    def _check_keys(self, state: dict, expected: set[str]) -> None:
        if set(state) != expected:
            raise ValueError(
                f"optimizer state keys {sorted(state)} != expected {sorted(expected)}"
            )

    def _load_slots(self, slots: list[np.ndarray], arrays) -> None:
        """Copy *arrays* into the per-parameter slot list *slots*."""
        if len(arrays) != len(slots):
            raise ValueError(
                f"optimizer state has {len(arrays)} slot arrays, "
                f"expected {len(slots)}"
            )
        for slot, arr in zip(slots, arrays):
            arr = np.asarray(arr, dtype=slot.dtype)
            if arr.shape != slot.shape:
                raise ValueError(
                    f"slot shape mismatch: {arr.shape} vs {slot.shape}"
                )
            slot[...] = arr


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and grad clipping.

    The paper's DFL update (Eq. 2) is plain (D)SGD; momentum defaults to 0.
    """

    def __init__(
        self,
        params: list[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        clip_norm: float | None = None,
    ) -> None:
        super().__init__(params, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = float(momentum)
        self.clip_norm = clip_norm
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        scale = _clip_scale(self.params, self.clip_norm)
        for p, v in zip(self.params, self._velocity):
            g = p.grad * scale
            if self.momentum > 0.0:
                v *= self.momentum
                v += g
                g = v
            p.data -= self.lr * g

    def state_dict(self) -> dict:
        return {"velocity": [v.copy() for v in self._velocity]}

    def load_state_dict(self, state: dict) -> None:
        self._check_keys(state, {"velocity"})
        self._load_slots(self._velocity, state["velocity"])


class Adam(Optimizer):
    """Adam with bias correction (Kingma & Ba 2015)."""

    def __init__(
        self,
        params: list[Parameter],
        lr: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        clip_norm: float | None = None,
    ) -> None:
        super().__init__(params, lr)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("betas must be in [0, 1)")
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.clip_norm = clip_norm
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        scale = _clip_scale(self.params, self.clip_norm)
        b1c = 1.0 - self.beta1**self._t
        b2c = 1.0 - self.beta2**self._t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad * scale
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)

    def state_dict(self) -> dict:
        return {
            "m": [m.copy() for m in self._m],
            "v": [v.copy() for v in self._v],
            "t": self._t,
        }

    def load_state_dict(self, state: dict) -> None:
        self._check_keys(state, {"m", "v", "t"})
        self._load_slots(self._m, state["m"])
        self._load_slots(self._v, state["v"])
        self._t = int(state["t"])


def arena_spans(shapes) -> list[tuple[int, int]]:
    """Column span ``(lo, hi)`` of each parameter in a flat arena row.

    Parameter ``k`` occupies the ``k``-th consecutive column block, in
    parameter order; this is the one place that layout is decided.
    """
    spans = []
    offset = 0
    for shape in shapes:
        size = int(np.prod(shape, dtype=np.int64))
        spans.append((offset, offset + size))
        offset += size
    return spans


def arena_width(shapes) -> int:
    """Columns of a flat arena holding one parameter list per row."""
    spans = arena_spans(shapes)
    return spans[-1][1] if spans else 0


def carve(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Per-parameter ``(rows, *shape)`` views of a 2-D flat arena.

    Row ``i`` of view ``k`` is model ``i``'s ``k``-th parameter as one
    contiguous block (see :func:`arena_spans`), and the views of a row
    slice ``flat[lo:hi]`` are the row slices of the full views.
    """
    spans = arena_spans(shapes)
    width = spans[-1][1] if spans else 0
    if width != flat.shape[1]:
        raise ValueError(f"arena has {flat.shape[1]} columns, parameters need {width}")
    rows = flat.shape[0]
    return [
        flat[:, lo:hi].reshape((rows,) + tuple(shape))
        for (lo, hi), shape in zip(spans, shapes)
    ]


class StackedAdam:
    """Row-batched Adam over N member :class:`Adam`\\ s on one flat arena.

    ``params`` is an ``(N, P)`` arena whose row ``i`` holds member
    ``i``'s parameters in its parameter order (see :func:`carve`).  The
    first and second moments and the gradients live in ``(N, P)``
    arrays of the same layout, so one :meth:`step` is a fixed handful
    of in-place ufunc calls over whole rows, whatever the number of
    parameter arrays.  Callers write gradients into :meth:`grad_views`.

    The members' ``_m`` / ``_v`` slot arrays are rebound
    (value-preserving) to views of the moment arena, so a member's own
    ``load_state_dict`` / ``state_dict`` (which copy in place / out)
    see the stack, and a later stack copies from them and rebinds.

    Bitwise contract: for each selected row, :meth:`step` performs the
    exact operation sequence of the member's serial ``Adam.step`` —
    global-norm clip summed per parameter in parameter order, bias
    corrections computed with Python-float ``beta ** t`` (binary pow
    differs from ``np.power`` in the last ulp for some inputs), and the
    same elementwise update expression — so a stacked step is
    bit-identical to N serial steps.
    """

    def __init__(self, optimizers: list[Adam], params: np.ndarray) -> None:
        if not optimizers:
            raise ValueError("need at least one optimizer to stack")
        ref = optimizers[0]
        for opt in optimizers[1:]:
            if (
                not isinstance(opt, Adam)
                or opt.lr != ref.lr
                or opt.beta1 != ref.beta1
                or opt.beta2 != ref.beta2
                or opt.eps != ref.eps
                or opt.clip_norm != ref.clip_norm
                or len(opt._m) != len(ref._m)
                or any(a.shape != b.shape for a, b in zip(opt._m, ref._m))
            ):
                raise ValueError("all stacked optimizers must share one config")
        n = len(optimizers)
        self.shapes = [m.shape for m in ref._m]
        self._spans = arena_spans(self.shapes)
        width = self._spans[-1][1]
        if params.shape != (n, width):
            raise ValueError(f"expected a ({n}, {width}) arena, got {params.shape}")
        self.optimizers = list(optimizers)
        self.lr = ref.lr
        self.beta1, self.beta2, self.eps = ref.beta1, ref.beta2, ref.eps
        self.clip_norm = ref.clip_norm
        self.params = params
        self.m = np.empty((n, width))
        self.v = np.empty((n, width))
        for arena, slot in ((self.m, "_m"), (self.v, "_v")):
            for k, view in enumerate(carve(arena, self.shapes)):
                for i, opt in enumerate(optimizers):
                    view[i] = getattr(opt, slot)[k]
                    getattr(opt, slot)[k] = view[i]
        self.grad = np.zeros((n, width))
        # Preallocated scratch: a fresh (N, P) temporary per ufunc costs
        # more in page faults than the arithmetic at these sizes.
        self._tmp = np.empty((n, width))
        self._views: dict[int, list[np.ndarray]] = {}
        self._t = np.array([opt._t for opt in optimizers], dtype=np.int64)

    @property
    def n(self) -> int:
        return len(self.optimizers)

    @classmethod
    def view(cls, parent: "StackedAdam", lo: int, hi: int) -> "StackedAdam":
        """Zero-copy row-slice view over members ``lo:hi`` of *parent*.

        The slice shares the parent's arenas (the members stay bound
        either way), so a forked shard worker's updates land in its
        copy-on-write pages without any re-stacking.
        """
        if not 0 <= lo < hi <= parent.n:
            raise ValueError(f"invalid view range [{lo}, {hi}) of {parent.n}")
        sub = cls.__new__(cls)
        sub.__dict__.update(parent.__dict__)
        sub.optimizers = parent.optimizers[lo:hi]
        for name in ("params", "m", "v", "grad", "_tmp", "_t"):
            setattr(sub, name, getattr(parent, name)[lo:hi])
        sub._views = {}
        return sub

    def grad_views(self, k: int) -> list[np.ndarray]:
        """Per-parameter ``(k, *shape)`` views of the first *k* gradient rows.

        :meth:`step` reads the gradient of its ``j``-th selected row
        from gradient row ``j``.
        """
        views = self._views.get(k)
        if views is None:
            views = self._views[k] = carve(self.grad[:k], self.shapes)
        return views

    def sync_in(self) -> None:
        """Pull members' step counters (they may have been restored)."""
        for i, opt in enumerate(self.optimizers):
            self._t[i] = opt._t

    def sync_out(self) -> None:
        """Write the stacked step counters back to the members."""
        for i, opt in enumerate(self.optimizers):
            opt._t = int(self._t[i])

    def step(self, rows: np.ndarray | None = None) -> None:
        """One Adam step for the selected member rows.

        ``rows=None`` steps every member in place; otherwise the
        selected rows (unique) are gathered, stepped and scattered
        back.  Gradients are read from the first ``len(rows)`` rows of
        :attr:`grad`, in ``rows`` order, and overwritten: the step uses
        them as scratch.
        """
        full = rows is None
        if full:
            self._t += 1
            ts = self._t
        else:
            self._t[rows] += 1
            ts = self._t[rows]
        k = len(ts)
        g = self.grad[:k]
        tmp = self._tmp[:k]
        if self.clip_norm is not None:
            # Per-row global-norm clip, summed per parameter in parameter
            # order (the accumulation order changes the float sum, so it
            # must mirror the serial loop exactly).
            np.multiply(g, g, out=tmp)
            total = np.zeros(k)
            for lo, hi in self._spans:
                total += tmp[:, lo:hi].sum(axis=1)
            norm = np.sqrt(total)
            clip = ~((norm <= self.clip_norm) | (norm == 0.0))
            if clip.any():
                scale = np.ones(k)
                scale[clip] = self.clip_norm / norm[clip]
                g *= scale[:, None]
        # Bias corrections via Python-float pow, one per row.
        b1c = np.array([[1.0 - self.beta1 ** t] for t in ts.tolist()])
        b2c = np.array([[1.0 - self.beta2 ** t] for t in ts.tolist()])
        if full:
            p, m, v = self.params, self.m, self.v
        else:
            p, m, v = self.params[rows], self.m[rows], self.v[rows]
        m *= self.beta1
        np.multiply(1.0 - self.beta1, g, out=tmp)
        m += tmp
        v *= self.beta2
        np.multiply(1.0 - self.beta2, g, out=tmp)
        tmp *= g
        v += tmp
        # The gradient rows are spent: reuse them as the second scratch.
        np.divide(m, b1c, out=g)
        g *= self.lr
        np.divide(v, b2c, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += self.eps
        g /= tmp
        p -= g
        if not full:
            self.params[rows] = p
            self.m[rows] = m
            self.v[rows] = v


def _clip_scale(params: list[Parameter], clip_norm: float | None) -> float:
    """Global-norm gradient clipping factor (1.0 when disabled)."""
    if clip_norm is None:
        return 1.0
    total = 0.0
    for p in params:
        total += float((p.grad**2).sum())
    norm = np.sqrt(total)
    if norm <= clip_norm or norm == 0.0:
        return 1.0
    return clip_norm / norm
