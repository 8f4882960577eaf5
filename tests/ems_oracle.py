"""Serial reference paths for EMS training and greedy evaluation.

The library trains every agent on the stacked engine
(:class:`repro.rl.batch.BatchedEpisodeEngine`) and evaluates with one
matrix rollout per device (:func:`repro.rl.batch.greedy_rollout`).
These oracles are the plain loops of the paper's Algorithm 2 that the
fast paths must reproduce bit for bit:

- :class:`SerialTrainer` — for each hour, for each residence, for each
  device: one :meth:`DQNAgent.run_episode` with learning on;
- :func:`serial_evaluate` — for each device and each hour chunk: one
  :meth:`DQNAgent.evaluate_episode` (per-minute act/step rollout).

``benchmarks/bench_hotpath.py`` imports this module as its serial side.
"""

from __future__ import annotations

import numpy as np

from repro.core.pfdrl import EMSEvaluation, PFDRLTrainer
from repro.metrics.energy import saved_energy_kwh, standby_energy_kwh
from repro.rl.env import DeviceEnv

__all__ = ["SerialTrainer", "serial_evaluate", "episode_env"]


def episode_env(dev_stream, lo: int, hi: int) -> DeviceEnv:
    """A fresh :class:`DeviceEnv` over minutes ``[lo, hi)`` of one device."""
    chunk = dev_stream.slice(lo, hi)
    return DeviceEnv(
        chunk.predicted_kw,
        chunk.real_kw,
        chunk.on_kw,
        chunk.standby_kw,
        ground_truth_mode=chunk.mode,
        device=chunk.device,
    )


class SerialTrainer(PFDRLTrainer):
    """:class:`PFDRLTrainer` whose training segments run the per-agent loop.

    Share rounds, faults, recovery snapshots, hierarchy and evaluation
    are the trainer's own; only the episode loop is replaced, and it
    always runs in this process (``n_workers`` is ignored).
    """

    def _train_segment(
        self, seg_lo: int, seg_hi: int, rewards: list[float], optima: list[float]
    ) -> None:
        for lo in range(seg_lo, seg_hi, self.horizon):
            hi = min(lo + self.horizon, seg_hi)
            if hi - lo < 2:
                continue
            for stream in self.streams:
                for dev_stream in stream.devices.values():
                    agent = self.agent_for(stream.residence_id, dev_stream.device)
                    env = episode_env(dev_stream, lo, hi)
                    rewards.append(agent.run_episode(env, learn=True))
                    optima.append(env.max_episode_reward())


def serial_evaluate(trainer: PFDRLTrainer, eval_streams=None) -> EMSEvaluation:
    """Per-minute greedy rollout of every device, one hour chunk at a time."""
    streams = eval_streams if eval_streams is not None else trainer.streams
    n_res = len(streams)
    n_min = streams[0].n_minutes
    saved_standby = np.zeros(n_res)
    total_standby = np.zeros(n_res)
    saved_total = np.zeros(n_res)
    violations = np.zeros(n_res)
    rew = np.zeros(n_res)
    opt = np.zeros(n_res)
    saved_kw = np.zeros((n_res, n_min))
    for ri, stream in enumerate(streams):
        for dev_stream in stream.devices.values():
            agent = trainer.agent_for(stream.residence_id, dev_stream.device)
            for lo in range(0, n_min, trainer.horizon):
                hi = min(lo + trainer.horizon, n_min)
                chunk = dev_stream.slice(lo, hi)
                env = episode_env(dev_stream, lo, hi)
                r, controlled = agent.evaluate_episode(env)
                rew[ri] += r
                opt[ri] += env.max_episode_reward()
                delta = chunk.real_kw - controlled
                saved_kw[ri, lo:hi] += delta
                saved_standby[ri] += float(delta[chunk.mode == 1].sum() / 60.0)
                total_standby[ri] += standby_energy_kwh(chunk.real_kw, chunk.mode)
                saved_total[ri] += saved_energy_kwh(chunk.real_kw, controlled)
                on_mask = chunk.mode == 2
                violations[ri] += int(
                    np.count_nonzero(controlled[on_mask] < chunk.real_kw[on_mask])
                )
    with np.errstate(divide="ignore", invalid="ignore"):
        reward_fraction = np.where(opt > 0, rew / opt, np.nan)
    return EMSEvaluation(
        saved_standby_kwh=saved_standby,
        total_standby_kwh=total_standby,
        saved_total_kwh=saved_total,
        comfort_violations=violations,
        reward_fraction=reward_fraction,
        saved_kw=saved_kw,
    )
