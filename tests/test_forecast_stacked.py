"""Stacked forecaster training and the flat-arena Adam, bit for bit.

- ``LSTMForecaster.fit_many`` (and ``fit``, a stack of one) against the
  per-model minibatch loop in ``tests/forecast_oracle.py``: weights,
  Adam ``m``/``v``/``t``, RNG state and the returned loss must be equal.
- ``StackedAdam`` on one ``(N, P)`` arena against N serial ``Adam``\\ s.
- The mask-free ``_sigmoid`` against the boolean-mask form it replaced.
"""

import numpy as np
import pytest

from repro.forecast import LSTMForecaster, make_forecaster
from repro.nn import Adam, Parameter
from repro.nn.lstm import _sigmoid
from repro.nn.optim import StackedAdam, _clip_scale, carve
from tests.forecast_oracle import oracle_fit

WINDOW, HORIZON = 10, 10


def make_models(m, n_layers=1, n_extra=8, **kwargs):
    kwargs.setdefault("epochs", 3)
    kwargs.setdefault("hidden_size", 8)
    return [
        LSTMForecaster(
            WINDOW, HORIZON, n_layers=n_layers, n_extra=n_extra, seed=100 + i, **kwargs
        )
        for i in range(m)
    ]


def make_data(m, n, n_extra=8, seed=0):
    rng = np.random.default_rng(seed)
    Xs = [rng.normal(size=(n, WINDOW + n_extra)) for _ in range(m)]
    ys = [rng.normal(size=(n, HORIZON)) for _ in range(m)]
    return Xs, ys


def assert_same_state(a: LSTMForecaster, b: LSTMForecaster) -> None:
    for wa, wb in zip(a.get_weights(), b.get_weights()):
        np.testing.assert_array_equal(wa, wb)
    sa, sb = a.optimizer.state_dict(), b.optimizer.state_dict()
    assert sa["t"] == sb["t"]
    for key in ("m", "v"):
        for xa, xb in zip(sa[key], sb[key]):
            np.testing.assert_array_equal(xa, xb)
    assert a._rng.bit_generator.state == b._rng.bit_generator.state


def check_against_oracle(m, n, n_layers=1, n_extra=8, rounds=1, **kwargs):
    stacked = make_models(m, n_layers, n_extra, **kwargs)
    serial = make_models(m, n_layers, n_extra, **kwargs)
    for r in range(rounds):
        Xs, ys = make_data(m, n, n_extra, seed=r)
        losses = LSTMForecaster.fit_many(stacked, Xs, ys)
        expected = [oracle_fit(f, X, y) for f, X, y in zip(serial, Xs, ys)]
        assert losses == expected
    for a, b in zip(stacked, serial):
        assert_same_state(a, b)
    return stacked, serial


class TestStackedFitOracle:
    @pytest.mark.parametrize("m", [1, 3, 16])
    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("n_extra", [0, 8])
    def test_ragged_last_minibatch(self, m, n_layers, n_extra):
        check_against_oracle(m, 45, n_layers, n_extra)  # 32 + 13

    @pytest.mark.parametrize("m", [1, 3])
    def test_fewer_samples_than_batch_size(self, m):
        check_against_oracle(m, 7)

    def test_single_sample(self):
        check_against_oracle(2, 1)

    def test_two_fits_in_a_row(self):
        check_against_oracle(3, 40, rounds=2)

    def test_fit_after_set_weights(self):
        stacked, serial = check_against_oracle(3, 20)
        merged = [0.5 * w for w in stacked[0].get_weights()]
        for f in stacked + serial:
            f.set_weights(merged)
        Xs, ys = make_data(3, 20, seed=5)
        assert LSTMForecaster.fit_many(stacked, Xs, ys) == [
            oracle_fit(f, X, y) for f, X, y in zip(serial, Xs, ys)
        ]
        for a, b in zip(stacked, serial):
            assert_same_state(a, b)

    def test_fit_after_load_state_dict(self):
        stacked, serial = check_against_oracle(3, 20)
        saved = [f.state_dict() for f in serial]
        fresh_stacked = make_models(3)
        fresh_serial = make_models(3)
        for f, state in zip(fresh_stacked + fresh_serial, saved + saved):
            f.load_state_dict(state)
        Xs, ys = make_data(3, 20, seed=6)
        assert LSTMForecaster.fit_many(fresh_stacked, Xs, ys) == [
            oracle_fit(f, X, y) for f, X, y in zip(fresh_serial, Xs, ys)
        ]
        for a, b in zip(fresh_stacked, fresh_serial):
            assert_same_state(a, b)

    def test_fit_is_a_stack_of_one(self):
        (a,), (b,) = make_models(1), make_models(1)
        X, y = make_data(1, 45)
        assert a.fit(X[0], y[0]) == oracle_fit(b, X[0], y[0])
        assert_same_state(a, b)

    def test_empty_data_draws_nothing(self):
        models = make_models(2)
        before = [f._rng.bit_generator.state for f in models]
        Xs, ys = make_data(2, 0)
        losses = LSTMForecaster.fit_many(models, Xs, ys)
        assert all(np.isnan(loss) for loss in losses)
        assert [f._rng.bit_generator.state for f in models] == before

    def test_incompatible_members_rejected(self):
        models = make_models(2)
        Xs, ys = make_data(2, 20)
        with pytest.raises(ValueError):
            LSTMForecaster.fit_many(models, [Xs[0], Xs[1][:10]], [ys[0], ys[1][:10]])
        other = make_models(1, hidden_size=4)[0]
        with pytest.raises(ValueError):
            LSTMForecaster.fit_many([models[0], other], Xs, ys)


class TestFitManyDefault:
    """Models without a stacked engine keep their per-model ``fit``."""

    @pytest.mark.parametrize("name", ["lr", "svm", "svm_rbf", "bp"])
    def test_default_loop_equals_fit(self, name):
        kwargs = {} if name == "lr" else {"seed": 3}
        a = [make_forecaster(name, WINDOW, HORIZON, **kwargs) for _ in range(2)]
        b = [make_forecaster(name, WINDOW, HORIZON, **kwargs) for _ in range(2)]
        Xs, ys = make_data(2, 30, n_extra=0)
        losses = type(a[0]).fit_many(a, Xs, ys)
        assert losses == [f.fit(X, y) for f, X, y in zip(b, Xs, ys)]
        for fa, fb in zip(a, b):
            for wa, wb in zip(fa.get_weights(), fb.get_weights()):
                np.testing.assert_array_equal(wa, wb)
        assert a[0].stack_key() is None


# ----------------------------------------------------------------------
# Flat StackedAdam
SHAPES = [(5, 7), (7,), (7, 3), (3,)]


def make_adams(n, clip_norm, seed=0):
    rng = np.random.default_rng(seed)
    members = []
    for _ in range(n):
        params = [Parameter(rng.normal(size=s)) for s in SHAPES]
        members.append((params, Adam(params, lr=0.01, clip_norm=clip_norm)))
    return members


def stack_members(members):
    """A flat arena holding copies of the members' parameters."""
    width = sum(int(np.prod(s)) for s in SHAPES)
    flat = np.empty((len(members), width))
    for view, params in zip(carve(flat, SHAPES), zip(*(p for p, _ in members))):
        for i, param in enumerate(params):
            view[i] = param.data
    return flat, StackedAdam([opt for _, opt in members], flat)


class TestStackedAdam:
    @pytest.mark.parametrize("clip_norm", [None, 1e-3, 1e3])
    @pytest.mark.parametrize("subset", [False, True])
    def test_bitwise_vs_serial(self, clip_norm, subset):
        n = 5
        serial = make_adams(n, clip_norm)
        flat, stacked = stack_members(make_adams(n, clip_norm))
        rng = np.random.default_rng(1)
        for step in range(12):
            rows = np.array([3, 0, 4]) if subset and step % 2 else None
            picked = range(n) if rows is None else rows
            grads = [[rng.normal(size=s) * 10 for s in SHAPES] for _ in picked]
            views = stacked.grad_views(len(grads))
            for j, (i, member_grads) in enumerate(zip(picked, grads)):
                params, opt = serial[i]
                for param, view, g in zip(params, views, member_grads):
                    param.grad[...] = g
                    view[j] = g
                opt.step()
            stacked.step(rows=rows)
        stacked.sync_out()
        views = carve(flat, SHAPES)
        for i, (params, opt) in enumerate(serial):
            for param, view in zip(params, views):
                np.testing.assert_array_equal(param.data, view[i])
            state = stacked.optimizers[i].state_dict()
            assert state["t"] == opt._t
            for a, b in zip(state["m"] + state["v"], opt._m + opt._v):
                np.testing.assert_array_equal(a, b)

    def test_clip_is_active_at_small_norm(self):
        """The 1e-3 case above really clips (so it tests the clip path)."""
        params, _ = make_adams(1, 1e-3)[0]
        for p in params:
            p.grad[...] = 1.0
        assert _clip_scale(params, 1e-3) < 1.0

    def test_moments_are_views_of_the_arena(self):
        members = make_adams(2, None)
        flat, stacked = stack_members(members)
        assert np.shares_memory(members[0][1]._m[0], stacked.m)
        stacked.grad[...] = 1.0
        stacked.step()
        assert members[0][1]._t == 0
        stacked.sync_out()
        assert members[0][1]._t == 1
        np.testing.assert_array_equal(
            members[1][1]._m[2], carve(stacked.m, SHAPES)[2][1]
        )

    def test_view_steps_its_rows_of_the_parent(self):
        n = 4
        serial = make_adams(n, 5.0)
        flat, parent = stack_members(make_adams(n, 5.0))
        sub = StackedAdam.view(parent, 1, 3)
        rng = np.random.default_rng(2)
        grads = [[rng.normal(size=s) for s in SHAPES] for _ in range(2)]
        views = sub.grad_views(2)
        for j, member_grads in enumerate(grads):
            params, opt = serial[1 + j]
            for param, view, g in zip(params, views, member_grads):
                param.grad[...] = g
                view[j] = g
            opt.step()
        sub.step()
        for i in range(n):
            for param, view in zip(serial[i][0], carve(flat, SHAPES)):
                np.testing.assert_array_equal(param.data, view[i])
        assert parent._t.tolist() == [0, 1, 1, 0]

    def test_mismatched_arena_rejected(self):
        members = make_adams(2, None)
        with pytest.raises(ValueError):
            StackedAdam([opt for _, opt in members], np.zeros((2, 3)))


# ----------------------------------------------------------------------
# Mask-free sigmoid
def masked_sigmoid(x):
    """The boolean-mask form ``_sigmoid`` replaced (the oracle)."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def assert_bitwise_but_nan_sign(a, b):
    nan = np.isnan(a)
    np.testing.assert_array_equal(nan, np.isnan(b))
    assert np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64))


class TestSigmoid:
    def test_special_values(self):
        tiny = np.finfo(np.float64).tiny
        x = np.array(
            [0.0, -0.0, np.inf, -np.inf, 710.0, -710.0, 709.78, -745.2,
             5e-324, -5e-324, tiny / 4, -tiny / 4, tiny, -tiny, np.nan, -np.nan]
        )
        with np.errstate(all="ignore"):
            assert_bitwise_but_nan_sign(_sigmoid(x), masked_sigmoid(x))

    def test_random_array(self):
        x = np.random.default_rng(0).normal(0.0, 20.0, 100_000)
        assert_bitwise_but_nan_sign(_sigmoid(x), masked_sigmoid(x))

    def test_non_contiguous_gate_slices(self):
        H = 16
        z = np.random.default_rng(1).normal(0.0, 4.0, (96, 4 * H))
        for lo in range(0, 4 * H, H):
            gate = z[:, lo : lo + H]
            assert not gate.flags.c_contiguous
            assert_bitwise_but_nan_sign(_sigmoid(gate), masked_sigmoid(gate))
