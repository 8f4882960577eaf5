"""DFL local training, stacked vs the per-model oracle.

``DFLTrainer`` fits the models of a local interval side by side: every
segment is featurised first, and forecasters sharing a class, a
``stack_key`` and a sample count train in one ``fit_many`` call.  The
oracle (``tests/forecast_oracle.py``) fits each (residence, device)
model alone with the plain minibatch loop.  Every model must end
bit-identical either way.
"""

import numpy as np
import pytest

from repro.config import FaultConfig, FederationConfig, ForecastConfig
from repro.data import generate_neighborhood
from repro.federated.dfl import DFLTrainer
from repro.forecast import LSTMForecaster
from repro.obs.telemetry import Telemetry
from tests.forecast_oracle import OracleDFLTrainer


@pytest.fixture(scope="module")
def dataset():
    return generate_neighborhood(
        n_residences=4, n_days=2, minutes_per_day=240,
        device_types=("tv", "light"), seed=31,
    )


def make_trainer(dataset, model="lr", cls=DFLTrainer, beta_hours=6.0, **kwargs):
    return cls(
        dataset,
        forecast_config=ForecastConfig(model=model, window=10, horizon=10),
        federation_config=FederationConfig(beta_hours=beta_hours),
        mode="decentralized",
        seed=0,
        **kwargs,
    )


def assert_trees_equal(a, b, path="state"):
    if isinstance(a, dict):
        assert isinstance(b, dict) and a.keys() == b.keys(), path
        for key in a:
            assert_trees_equal(a[key], b[key], f"{path}/{key}")
    elif isinstance(a, (list, tuple)):
        assert isinstance(b, (list, tuple)) and len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            assert_trees_equal(x, y, f"{path}[{i}]")
    elif isinstance(a, np.ndarray):
        np.testing.assert_array_equal(a, b, err_msg=path)
    else:
        assert a == b, path


def assert_weights_equal(ta, tb):
    for ca, cb in zip(ta.clients, tb.clients):
        for device in ca.device_types:
            for a, b in zip(ca.get_weights(device), cb.get_weights(device)):
                np.testing.assert_array_equal(a, b, err_msg=device)


class TestParallelEquivalence:
    """The models of an interval trained side by side equal the oracle."""

    def test_lr_weights_identical(self, dataset):
        stacked = make_trainer(dataset)
        oracle = make_trainer(dataset, cls=OracleDFLTrainer)
        assert stacked.run(2) == oracle.run(2)
        assert_weights_equal(stacked, oracle)

    def test_bp_weights_identical(self, dataset):
        """SGD-trained models carry their own RNG; grouping must not
        perturb the stream."""
        stacked = make_trainer(dataset, model="bp")
        oracle = make_trainer(dataset, model="bp", cls=OracleDFLTrainer)
        assert stacked.run_day() == oracle.run_day()
        assert_weights_equal(stacked, oracle)

    def test_cursors_advance_identically(self, dataset):
        stacked = make_trainer(dataset, model="lstm")
        oracle = make_trainer(dataset, model="lstm", cls=OracleDFLTrainer)
        stacked.run_day()
        oracle.run_day()
        for cs, co in zip(stacked.clients, oracle.clients):
            assert cs._cursor == co._cursor

    def test_accuracy_identical(self, dataset):
        test = dataset.slice_days(1, 2)
        stacked = make_trainer(dataset, model="lstm")
        oracle = make_trainer(dataset, model="lstm", cls=OracleDFLTrainer)
        stacked.run_day()
        oracle.run_day()
        assert stacked.mean_accuracy(test) == oracle.mean_accuracy(test)

    def test_lstm_two_day_state_identical(self, dataset):
        tel = Telemetry()
        stacked = make_trainer(dataset, model="lstm", telemetry=tel)
        oracle = make_trainer(dataset, model="lstm", cls=OracleDFLTrainer)
        assert stacked.run(2) == oracle.run(2)
        assert_trees_equal(stacked.state(), oracle.state())
        # All 8 models of an interval share one shape and sample count,
        # so each interval is one stacked group (4 intervals per day).
        assert tel.counters["dfl.fit_models"] == 2 * 4 * 8
        assert tel.counters["dfl.fit_groups"] == 2 * 4

    def test_recovered_agent_trains_in_its_own_group(self, dataset, monkeypatch):
        """A restored agent's cursor lags, so its sample count differs:
        it forms its own group, and the run still equals the oracle."""
        faults = FaultConfig(
            crash_rate=0.3, recovery_rate=0.7, recover_from_snapshot=True, seed=11
        )
        sizes: list[list[int]] = []
        fit_many = LSTMForecaster.fit_many.__func__

        def spy(cls, models, Xs, ys):
            sizes[-1].append(len(Xs[0]))
            return fit_many(cls, models, Xs, ys)

        train_interval = DFLTrainer._train_interval

        def interval(self, lo, hi, losses):
            sizes.append([])
            return train_interval(self, lo, hi, losses)

        stacked = make_trainer(dataset, model="lstm", beta_hours=1.0, fault_config=faults)
        oracle = make_trainer(
            dataset, model="lstm", beta_hours=1.0, fault_config=faults,
            cls=OracleDFLTrainer,
        )
        with monkeypatch.context() as m:
            m.setattr(LSTMForecaster, "fit_many", classmethod(spy))
            m.setattr(DFLTrainer, "_train_interval", interval)
            stacked.run(2)
        oracle.run(2)
        assert stacked.bus.stats.n_restores > 0
        assert any(len(set(groups)) > 1 for groups in sizes)
        assert_trees_equal(stacked.state(), oracle.state())


class TestPrepareSegment:
    def test_prepare_is_pure(self, dataset):
        tr = make_trainer(dataset)
        client = tr.clients[0]
        before = dict(client._cursor)
        X1, y1, c1 = client.prepare_segment("tv", 0, 240)
        X2, y2, c2 = client.prepare_segment("tv", 0, 240)
        assert client._cursor == before
        assert np.array_equal(X1, X2) and c1 == c2

    def test_prepare_matches_train(self, dataset):
        tr = make_trainer(dataset)
        client = tr.clients[0]
        _, _, prepared_cursor = client.prepare_segment("tv", 0, 240)
        client.train_segment("tv", 0, 240)
        assert client._cursor["tv"] == prepared_cursor
