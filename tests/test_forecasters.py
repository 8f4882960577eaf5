"""Contract tests shared by all four forecasters, plus model-specific checks."""

import numpy as np
import pytest

from repro.forecast import (
    FORECASTERS,
    BPForecaster,
    LinearRegressionForecaster,
    LSTMForecaster,
    SVRForecaster,
    make_forecaster,
)
from repro.forecast.base import Forecaster
from repro.forecast.registry import register_forecaster
from repro.serve.snapshot import _freeze_tree

WINDOW, HORIZON, EXTRA = 8, 4, 2


def make(name):
    kwargs = {} if name == "lr" else {"seed": 0}
    if name == "bp":
        kwargs["epochs"] = 10
    if name == "lstm":
        kwargs.update(epochs=5, hidden_size=8)
    if name == "svm":
        kwargs["epochs"] = 10
    return make_forecaster(name, WINDOW, HORIZON, n_extra=EXTRA, **kwargs)


def toy_data(n=40, seed=0):
    """y is a linear-ish function of the window mean plus the extras."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, size=(n, WINDOW + EXTRA))
    base = X[:, :WINDOW].mean(axis=1, keepdims=True)
    y = np.tile(base, (1, HORIZON)) + 0.1 * X[:, WINDOW:WINDOW + 1]
    return X, y


@pytest.mark.parametrize("name", sorted(FORECASTERS))
class TestForecasterContract:
    def test_fit_reduces_loss_and_predicts_shape(self, name):
        f = make(name)
        X, y = toy_data()
        f.fit(X, y)
        pred = f.predict(X)
        assert pred.shape == y.shape
        # After fitting, predictions beat the trivial zero predictor.
        assert np.abs(pred - y).mean() < np.abs(y).mean()

    def test_weights_roundtrip_preserves_predictions(self, name):
        f = make(name)
        X, y = toy_data()
        f.fit(X, y)
        w = f.get_weights()
        g = f.clone()
        g.set_weights(w)
        assert np.allclose(f.predict(X), g.predict(X))

    def test_get_weights_are_copies(self, name):
        f = make(name)
        X, y = toy_data()
        f.fit(X, y)
        w = f.get_weights()
        before = f.predict(X)
        for arr in w:
            arr[...] = 0.0
        assert np.allclose(f.predict(X), before)

    def test_clone_is_fresh_config_twin(self, name):
        f = make(name)
        g = f.clone()
        assert type(g) is type(f)
        assert g.window == f.window and g.horizon == f.horizon
        assert g.n_extra == f.n_extra

    def test_input_dim_validation(self, name):
        f = make(name)
        with pytest.raises(ValueError):
            f.predict(np.zeros((2, WINDOW)))  # missing the extra columns

    def test_incremental_fit_improves(self, name):
        f = make(name)
        X, y = toy_data(n=60)
        f.fit(X, y)
        err1 = np.abs(f.predict(X) - y).mean()
        for _ in range(3):
            f.fit(X, y)
        err2 = np.abs(f.predict(X) - y).mean()
        assert err2 <= err1 * 1.05  # never dramatically worse, usually better

    def test_weight_shape_mismatch_rejected(self, name):
        f = make(name)
        w = f.get_weights()
        w[0] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            f.set_weights(w)

    def test_averaging_weights_is_well_defined(self, name):
        """FedAvg of two trained models yields a usable model."""
        from repro.nn.serialization import average_weights

        X, y = toy_data(n=50, seed=1)
        f1, f2 = make(name), make(name)
        f1.fit(X[:25], y[:25])
        f2.fit(X[25:], y[25:])
        merged = average_weights([f1.get_weights(), f2.get_weights()])
        g = f1.clone()
        g.set_weights(merged)
        pred = g.predict(X)
        assert np.all(np.isfinite(pred))


class TestLinearRegressionSpecifics:
    def test_exact_fit_on_linear_problem(self):
        rng = np.random.default_rng(0)
        f = LinearRegressionForecaster(4, 2, ridge=1e-9, n_extra=0)
        W_true = rng.normal(size=(4, 2))
        X = rng.normal(size=(50, 4))
        y = X @ W_true + 3.0
        f.fit(X, y)
        assert np.allclose(f.predict(X), y, atol=1e-6)

    def test_blend_mixes_solutions(self):
        """blend=0.5 lands halfway between the old W and the fresh solve."""
        X = np.asarray([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        y1 = X.sum(axis=1, keepdims=True)
        y2 = np.zeros((3, 1))

        half = LinearRegressionForecaster(2, 1, ridge=1e-9, blend=0.5, n_extra=0)
        full = LinearRegressionForecaster(2, 1, ridge=1e-9, blend=1.0, n_extra=0)
        for f in (half, full):
            f.fit(X, y1)
        w_first = half.W.copy()
        for f in (half, full):
            f.fit(X, y2)
        # `full` tracks the fresh solve on accumulated stats; `half` is the
        # midpoint between that solve and the post-first-fit weights.
        assert np.allclose(half.W, 0.5 * (w_first + full.W), atol=1e-9)
        assert not np.allclose(half.W, full.W)

    def test_statistics_accumulate_across_fits(self):
        """Two half-batches equal one full batch for blend=1."""
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 4))
        y = rng.normal(size=(40, 2))
        a = LinearRegressionForecaster(4, 2, ridge=1.0, blend=1.0, n_extra=0)
        a.fit(X[:20], y[:20])
        a.fit(X[20:], y[20:])
        b = LinearRegressionForecaster(4, 2, ridge=1.0, blend=1.0, n_extra=0)
        b.fit(X, y)
        assert np.allclose(a.W, b.W)
        assert a.n_samples_seen == 40

    def test_ridge_shrinks_weights(self):
        X, y = toy_data()
        small = LinearRegressionForecaster(WINDOW, HORIZON, ridge=1e-6, n_extra=EXTRA)
        big = LinearRegressionForecaster(WINDOW, HORIZON, ridge=1e3, n_extra=EXTRA)
        small.fit(X, y)
        big.fit(X, y)
        assert np.abs(big.W[:-1]).sum() < np.abs(small.W[:-1]).sum()


class TestSVRSpecifics:
    def test_epsilon_tube_ignores_small_errors(self):
        f = SVRForecaster(2, 1, epsilon=10.0, n_extra=0, seed=0, epochs=5)
        X = np.random.default_rng(0).normal(size=(20, 2))
        y = np.random.default_rng(1).uniform(-0.5, 0.5, size=(20, 1))
        f.fit(X, y)
        # Everything is inside the enormous tube: weights never move.
        assert np.allclose(f.W, 0.0) and np.allclose(f.b, 0.0)

    def test_hyperparameter_validation(self):
        with pytest.raises(ValueError):
            SVRForecaster(2, 1, C=0.0)
        with pytest.raises(ValueError):
            SVRForecaster(2, 1, epsilon=-1.0)


class TestLSTMSpecifics:
    def test_sequence_reshape_layout(self):
        f = LSTMForecaster(3, 2, n_extra=2, seed=0, hidden_size=4)
        X = np.asarray([[1.0, 2.0, 3.0, 9.0, 8.0]])
        seq = f._to_sequence(X)
        assert seq.shape == (1, 3, 3)
        assert np.allclose(seq[0, :, 0], [1, 2, 3])      # lag channel
        assert np.allclose(seq[0, :, 1], [9, 9, 9])      # tiled extra 1
        assert np.allclose(seq[0, :, 2], [8, 8, 8])      # tiled extra 2

    def test_no_extra_features(self):
        f = LSTMForecaster(3, 2, n_extra=0, seed=0, hidden_size=4)
        seq = f._to_sequence(np.ones((2, 3)))
        assert seq.shape == (2, 3, 1)


class TestRegistry:
    def test_all_expected_models_registered(self):
        assert set(FORECASTERS) >= {"lr", "svm", "bp", "lstm"}

    def test_unknown_name_raises_with_list(self):
        with pytest.raises(KeyError, match="lstm"):
            make_forecaster("prophet", 4, 4)

    def test_register_duplicate_rejected(self):
        with pytest.raises(ValueError):
            register_forecaster("lr", LinearRegressionForecaster)

    def test_register_custom(self):
        register_forecaster("lr_test_custom", LinearRegressionForecaster)
        try:
            f = make_forecaster("lr_test_custom", 4, 4)
            assert isinstance(f, LinearRegressionForecaster)
        finally:
            del FORECASTERS["lr_test_custom"]


# ----------------------------------------------------------------------
# predict_rows: the serving form of predict
ROW_MODELS = [(name, {}) for name in sorted(FORECASTERS)] + [
    ("lstm", {"n_layers": 2}),
]


def trained(name, n_extra, **extra_kwargs):
    kwargs = {} if name == "lr" else {"seed": 0, "epochs": 3}
    if name == "lstm":
        kwargs["hidden_size"] = 8
    kwargs.update(extra_kwargs)
    f = make_forecaster(name, WINDOW, HORIZON, n_extra=n_extra, **kwargs)
    rng = np.random.default_rng(2)
    f.fit(rng.uniform(0, 1.2, (40, WINDOW + n_extra)), rng.uniform(0, 1, (40, HORIZON)))
    return f


def tree_state(obj, path="model", out=None, seen=None):
    """Every attribute reachable from *obj*: path -> (identity, array bytes)."""
    out = {} if out is None else out
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return out
    seen.add(id(obj))
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, (list, tuple)):
        items = enumerate(obj)
    elif hasattr(obj, "__dict__"):
        items = vars(obj).items()
    else:
        return out
    for key, value in items:
        sub = f"{path}.{key}"
        out[sub] = (id(value), value.tobytes() if isinstance(value, np.ndarray) else None)
        tree_state(value, sub, out, seen)
    return out


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("n_extra", [0, EXTRA])
@pytest.mark.parametrize("name,kwargs", ROW_MODELS,
                         ids=[n + "".join(f"-{k}{v}" for k, v in kw.items())
                              for n, kw in ROW_MODELS])
class TestPredictRows:
    """Row i of predict_rows(X) is predict(X[i:i+1])[0], bit for bit."""

    @pytest.mark.parametrize("batch", [1, 2, 7, 96])
    def test_rows_bitwise_equal_batch_of_one(self, name, kwargs, n_extra, batch):
        f = trained(name, n_extra, **kwargs)
        X = np.random.default_rng(batch).uniform(0, 1.2, (batch, WINDOW + n_extra))
        out = f.predict_rows(X)
        assert out.shape == (batch, HORIZON)
        for i in range(batch):
            np.testing.assert_array_equal(bits(out[i]), bits(f.predict(X[i : i + 1])[0]))

    def test_writes_no_attribute(self, name, kwargs, n_extra):
        f = trained(name, n_extra, **kwargs)
        X = np.random.default_rng(0).uniform(0, 1.2, (5, WINDOW + n_extra))
        before = tree_state(f)
        f.predict_rows(X)
        assert tree_state(f) == before

    def test_runs_on_a_frozen_model(self, name, kwargs, n_extra):
        f = trained(name, n_extra, **kwargs)
        X = np.random.default_rng(0).uniform(0, 1.2, (7, WINDOW + n_extra))
        expected = f.predict_rows(X)
        _freeze_tree(f, set())
        np.testing.assert_array_equal(bits(f.predict_rows(X)), bits(expected))


class TestPredictRowsDefault:
    def test_custom_forecaster_answers_row_by_row(self):
        """A forecaster that only implements predict gets a correct
        predict_rows from the base class."""

        class Gemm(Forecaster):
            name = "gemm_test"

            def __init__(self, window, horizon, n_extra=0):
                super().__init__(window, horizon, n_extra)
                self.W = np.random.default_rng(0).normal(size=(self.input_dim, horizon))

            def fit(self, X, y):
                return 0.0

            def predict(self, X):
                return self._check_X(X) @ self.W

            def get_weights(self):
                return [self.W.copy()]

            def set_weights(self, weights):
                self.W = np.asarray(weights[0]).copy()

            def clone(self):
                return Gemm(self.window, self.horizon, self.n_extra)

        f = Gemm(WINDOW, HORIZON, EXTRA)
        X = np.random.default_rng(1).uniform(0, 1.2, (96, WINDOW + EXTRA))
        out = f.predict_rows(X)
        for i in range(len(X)):
            np.testing.assert_array_equal(bits(out[i]), bits(f.predict(X[i : i + 1])[0]))
        assert f.predict_rows(X[:0]).shape == (0, HORIZON)
