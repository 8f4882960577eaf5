"""Tests for the stacked execution engine (repro.rl.batch).

Semantics-preservation contract, checked against the serial oracles in
``tests/ems_oracle.py``:

- :class:`StackedQNet` forward is *bitwise* identical to each member
  network's own batch-of-1 forward (broadcast ``matmul`` computes each
  stacked item exactly as the serial product);
- vectorised greedy evaluation returns bit-identical ``EMSEvaluation``
  arrays to the per-step rollout;
- engine training is bit-identical to the serial per-agent loop in both
  agent scopes, under every sharing mode, with faults and snapshot
  recovery, under the two-tier hierarchy, and on pool workers
  (episode-major waves keep every agent's observation order).
"""

import numpy as np
import pytest

from repro.config import DQNConfig, FaultConfig, FederationConfig, HierarchyConfig
from repro.core.pfdrl import PFDRLTrainer
from repro.core.streams import build_streams
from repro.data import generate_neighborhood
from repro.nn.serialization import get_weights
from repro.parallel import fork_available
from repro.rl.batch import BatchedEpisodeEngine, StackedQNet, greedy_rollout
from repro.rl.dqn import DQNAgent
from tests.ems_oracle import SerialTrainer, episode_env, serial_evaluate
from tests.test_persist_state import deep_equal


@pytest.fixture(scope="module")
def dqn_config():
    return DQNConfig(
        hidden_width=10, learning_rate=0.01, epsilon_decay_steps=200,
        batch_size=8, memory_capacity=200, learn_every=2,
    )


@pytest.fixture(scope="module")
def streams():
    ds = generate_neighborhood(
        n_residences=3, n_days=2, minutes_per_day=240,
        device_types=("tv", "light"), seed=17,
    )
    return build_streams(ds)


def make_trainer(streams, dqn_config, trainer_cls=PFDRLTrainer, **kwargs):
    kwargs.setdefault("sharing", "personalized")
    kwargs.setdefault(
        "federation_config", FederationConfig(alpha=6, gamma_hours=6.0)
    )
    return trainer_cls(streams, dqn_config=dqn_config, seed=0, **kwargs)


def assert_weights_equal(tr_a, tr_b):
    """Every agent's online-net parameters must match bit-for-bit."""
    assert tr_a._agents.keys() == tr_b._agents.keys()
    for key in tr_a._agents:
        for wa, wb in zip(
            get_weights(tr_a._agents[key].qnet), get_weights(tr_b._agents[key].qnet)
        ):
            np.testing.assert_array_equal(wa, wb)


def assert_evaluations_equal(ev_a, ev_b):
    np.testing.assert_array_equal(ev_a.saved_standby_kwh, ev_b.saved_standby_kwh)
    np.testing.assert_array_equal(ev_a.total_standby_kwh, ev_b.total_standby_kwh)
    np.testing.assert_array_equal(ev_a.saved_total_kwh, ev_b.saved_total_kwh)
    np.testing.assert_array_equal(ev_a.comfort_violations, ev_b.comfort_violations)
    np.testing.assert_array_equal(ev_a.reward_fraction, ev_b.reward_fraction)
    np.testing.assert_array_equal(ev_a.saved_kw, ev_b.saved_kw)


class TestStackedQNet:
    def make_agents(self, dqn_config, n=3):
        return [DQNAgent(dqn_config, seed=100 + i) for i in range(n)]

    def test_forward_bitwise_matches_members(self, dqn_config):
        agents = self.make_agents(dqn_config)
        stack = StackedQNet([a.qnet for a in agents])
        rng = np.random.default_rng(0)
        states = rng.normal(size=(len(agents), stack.in_dim))
        q = stack.forward(states)
        for i, agent in enumerate(agents):
            np.testing.assert_array_equal(
                q[i], agent.qnet.forward(states[i][None, :])[0]
            )

    def test_rows_selection_matches_full(self, dqn_config):
        agents = self.make_agents(dqn_config, n=4)
        stack = StackedQNet([a.qnet for a in agents])
        rng = np.random.default_rng(1)
        states = rng.normal(size=(3, stack.in_dim))
        rows = np.array([2, 0, 2])  # duplicates allowed
        q = stack.forward(states, rows=rows)
        for bi, i in enumerate(rows):
            np.testing.assert_array_equal(
                q[bi], agents[i].qnet.forward(states[bi][None, :])[0]
            )

    def test_inplace_updates_write_through(self, dqn_config):
        """set_weights / optimizer steps must hit the arena with no re-sync."""
        agents = self.make_agents(dqn_config, n=2)
        stack = StackedQNet([a.qnet for a in agents])
        agents[0].set_weights([w + 1.0 for w in agents[0].get_weights()])
        rng = np.random.default_rng(2)
        states = rng.normal(size=(2, stack.in_dim))
        q = stack.forward(states)
        for i, agent in enumerate(agents):
            np.testing.assert_array_equal(
                q[i], agent.qnet.forward(states[i][None, :])[0]
            )

    def test_adoption_rebinds_to_views(self, dqn_config):
        agents = self.make_agents(dqn_config, n=2)
        stack = StackedQNet([a.qnet for a in agents])
        for i, agent in enumerate(agents):
            for j, lin in enumerate(agent.qnet._linears):
                assert lin.W.data.base is stack._weights[j]
                assert lin.b.data.base is stack._biases[j]

    def test_ensure_adopted_recovers_rebound_parameter(self, dqn_config):
        agents = self.make_agents(dqn_config, n=2)
        stack = StackedQNet([a.qnet for a in agents])
        lin = agents[1].qnet._linears[0]
        fresh = lin.W.data + 5.0  # standalone array, not an arena view
        lin.W.data = fresh
        stack.ensure_adopted()
        assert lin.W.data.base is stack._weights[0]
        np.testing.assert_array_equal(lin.W.data, fresh)

    def test_architecture_mismatch_rejected(self, dqn_config):
        a = DQNAgent(dqn_config, seed=0)
        b = DQNAgent(DQNConfig(hidden_width=12), seed=0)
        with pytest.raises(ValueError):
            StackedQNet([a.qnet, b.qnet])


class TestVectorizedEvaluation:
    @pytest.mark.parametrize("agent_scope", ["residence", "device"])
    def test_bit_identical_to_serial_rollout(self, streams, dqn_config, agent_scope):
        tr = make_trainer(streams, dqn_config, agent_scope=agent_scope)
        tr.run_day()  # trained weights, so argmax rows are non-trivial
        assert_evaluations_equal(tr.evaluate(), serial_evaluate(tr))

    def test_greedy_rollout_matches_env_semantics(self, streams, dqn_config):
        tr = make_trainer(streams, dqn_config)
        stream = streams[0]
        dev = next(iter(stream.devices.values()))
        agent = tr.agent_for(stream.residence_id, dev.device)
        actions, controlled, rewards = greedy_rollout(agent.qnet, dev)
        assert actions.shape == controlled.shape == rewards.shape == dev.real_kw.shape
        # Pass-through semantics: off -> 0, standby -> capped, on -> real.
        np.testing.assert_array_equal(controlled[actions == 0], 0.0)
        np.testing.assert_array_equal(
            controlled[actions == 2], dev.real_kw[actions == 2]
        )
        cap = dev.standby_kw * 1.1
        assert (controlled[actions == 1] <= cap + 1e-12).all()


class TestBatchedTraining:
    def test_device_scope_bit_identical(self, streams, dqn_config):
        serial = make_trainer(
            streams, dqn_config, trainer_cls=SerialTrainer, agent_scope="device"
        )
        batched = make_trainer(streams, dqn_config, agent_scope="device")
        for _ in range(2):
            ra = serial.run_day()
            rb = batched.run_day()
            assert ra == rb
        assert_weights_equal(serial, batched)
        assert_evaluations_equal(serial.evaluate(), batched.evaluate())

    def test_share_rounds_and_restore_keep_arena_bound(self, streams, dqn_config):
        """In-place share rounds and checkpoint restore must not detach views."""
        tr = make_trainer(streams, dqn_config, agent_scope="device")
        tr.run_day()  # builds the engine, fires γ rounds
        snapshot = tr.state()
        tr.run_day()
        tr.restore(snapshot)
        assert tr._engine is not None
        for stack in tr._engine._stacks.values():
            for i, qn in enumerate(stack.qnets):
                for j, lin in enumerate(qn._linears):
                    assert lin.W.data.base is stack._weights[j]
        # And the restored trainer replays day 2 identically.
        reference = make_trainer(streams, dqn_config, agent_scope="device")
        reference.run_day()
        r_ref = reference.run_day()
        assert tr.run_day() == r_ref


class TestParallelTraining:
    @pytest.mark.parametrize("agent_scope", ["residence", "device"])
    def test_two_workers_bit_identical_to_serial(self, streams, dqn_config, agent_scope):
        serial = make_trainer(
            streams, dqn_config, trainer_cls=SerialTrainer, agent_scope=agent_scope
        )
        sharded = make_trainer(
            streams, dqn_config, agent_scope=agent_scope, n_workers=2
        )
        ra = serial.run_day()
        rb = sharded.run_day()
        assert ra == rb
        assert_weights_equal(serial, sharded)
        assert_evaluations_equal(serial.evaluate(), sharded.evaluate())

    def test_single_stream_falls_back_to_serial(self, dqn_config):
        ds = generate_neighborhood(
            n_residences=1, n_days=1, minutes_per_day=240,
            device_types=("tv",), seed=5,
        )
        tr = make_trainer(
            build_streams(ds), dqn_config, sharing="none", n_workers=4
        )
        r = tr.run_day()
        assert np.isfinite(r.mean_reward)


class TestEngineChunks:
    def test_empty_chunk(self, dqn_config):
        agents = {(0, "*"): DQNAgent(dqn_config, seed=0)}
        engine = BatchedEpisodeEngine([[(0, "*")]], agents)
        assert engine.run_chunk([]) == ([], [])

    def test_waves_play_each_agents_episodes_in_serial_order(
        self, streams, dqn_config
    ):
        """Several episodes per agent in one chunk (residence scope):
        the engine must equal ``run_episode`` over the pairs in order."""
        keys = [(s.residence_id, "*") for s in streams]

        def fresh_agents():
            return {key: DQNAgent(dqn_config, seed=10 + key[0]) for key in keys}

        serial_agents, engine_agents = fresh_agents(), fresh_agents()
        engine = BatchedEpisodeEngine([keys], engine_agents)

        def pairs(lo):
            return [
                ((s.residence_id, "*"), episode_env(d, lo, lo + 10))
                for s in streams
                for d in s.devices.values()
            ]

        for lo in range(0, 120, 10):
            expected = [
                serial_agents[key].run_episode(env, learn=True)
                for key, env in pairs(lo)
            ]
            rewards, _ = engine.run_chunk(pairs(lo))
            assert rewards == expected
        for key in keys:
            assert deep_equal(
                engine_agents[key].state_dict(), serial_agents[key].state_dict()
            )


#: Fault and hierarchy cases act on personalized sharing only (the
#: trainer drops them for the centralized and silent modes).
FABRICS = {
    "plain": {},
    "faults": {
        "fault_config": FaultConfig(
            crash_rate=0.3, recovery_rate=0.7, recover_from_snapshot=True, seed=11
        )
    },
    "hierarchy": {
        "federation_config": FederationConfig(
            alpha=6,
            gamma_hours=3.0,
            hierarchy=HierarchyConfig(cluster_size=2, participation=0.5, seed=3),
        )
    },
}
MATRIX = [
    (scope, sharing, fabric, n_workers)
    for scope in ("residence", "device")
    for sharing, fabrics in (
        ("personalized", ("plain", "faults", "hierarchy")),
        ("full", ("plain",)),
        ("none", ("plain",)),
    )
    for fabric in fabrics
    for n_workers in (1, 2)
]


class TestEngineOracle:
    @pytest.mark.parametrize(
        "scope,sharing,fabric,n_workers",
        MATRIX,
        ids=["-".join(map(str, case)) for case in MATRIX],
    )
    def test_bitwise_vs_serial_oracle(
        self, streams, dqn_config, scope, sharing, fabric, n_workers
    ):
        if n_workers > 1 and not fork_available():
            pytest.skip("worker pool needs the fork start method")
        kwargs = dict(agent_scope=scope, sharing=sharing, **FABRICS[fabric])
        oracle = make_trainer(streams, dqn_config, trainer_cls=SerialTrainer, **kwargs)
        engine = make_trainer(streams, dqn_config, n_workers=n_workers, **kwargs)
        try:
            for _ in range(2):
                assert engine.run_day() == oracle.run_day()
            assert (engine._pool if n_workers > 1 else engine._engine) is not None
            assert deep_equal(engine.state(), oracle.state())
            assert_evaluations_equal(engine.evaluate(), oracle.evaluate())
        finally:
            engine.close()
        if fabric == "faults":
            assert oracle.bus.stats.n_restores >= 1
