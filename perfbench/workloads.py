"""The benchmark's workloads and the phases one run is made of.

Every workload runs the whole path a deployment takes, with the data
seeded from ``--seed``:

1. set-up: generate the neighbourhood, the serving queries and the
   open-loop arrival schedule;
2. training: ``PFDRLSystem(config).run()`` (DFL forecasters → PFDRL
   EMS with γ share rounds → evaluation), checkpointing every day into
   a ``CheckpointStore``, repeated while the time budget lasts;
3. serving: the final checkpoint loaded with ``ModelSnapshot.load``,
   then closed phases on the caller's thread: ``ServingEngine.answer_batch``
   over micro-batches of 64, and each query answered alone.  Traced runs
   add an open-loop phase: queries submitted to the engine's worker
   thread on a precomputed, seeded schedule.

The workloads differ in which part dominates; ``WORKLOADS`` says why
each exists.
"""

from __future__ import annotations

import contextlib
import json
import tempfile
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.config import DataConfig, DQNConfig, FederationConfig, ForecastConfig, PFDRLConfig
from repro.core import PFDRLSystem
from repro.data.generator import generate_neighborhood
from repro.persist import CheckpointStore
from repro.rl.reward import REWARD_MATRIX
from repro.serve import ModelSnapshot, ServingEngine, make_queries

MICRO_BATCH = 64
#: Stand-in latency for a query that failed, was dropped or timed out:
#: longer than any latency limit, so it counts as a miss.
RESULT_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class Workload:
    name: str
    #: What the numbers are about, in plain words.
    label: str
    config: Callable[[int], PFDRLConfig]
    closed_queries: int
    #: Open-loop queries (traced runs only) and their fixed arrival rate,
    #: at most half the single-query capacity measured on a 2-vCPU host.
    open_queries: int
    open_rate_qps: float


def pipeline_lstm(seed: int) -> PFDRLConfig:
    return PFDRLConfig(
        data=DataConfig(
            n_residences=4, n_days=2, minutes_per_day=240,
            device_types=("tv", "light", "fridge", "desktop"), seed=seed,
        ),
        forecast=ForecastConfig(model="lstm", window=10, horizon=10, hidden_size=16),
        dqn=DQNConfig(hidden_width=16),
        federation=FederationConfig(beta_hours=6, gamma_hours=6),
        episodes=1,
    )


def federation_mesh(seed: int) -> PFDRLConfig:
    return PFDRLConfig(
        data=DataConfig(
            n_residences=20, n_days=2, minutes_per_day=120,
            device_types=("tv",), seed=seed,
        ),
        forecast=ForecastConfig(model="lr", window=10, horizon=10),
        dqn=DQNConfig(hidden_width=16),
        federation=FederationConfig(beta_hours=0.5, gamma_hours=0.5),
        episodes=2,
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pipeline_lstm",
            label=(
                "4 residences x 4 devices (tv, light, fridge, desktop), 2 days of "
                "240 min, LSTM forecasters, serial EMS; serving queries over "
                "4 trained residences"
            ),
            config=pipeline_lstm,
            closed_queries=128,
            open_queries=600,
            open_rate_qps=30.0,
        ),
        Workload(
            name="federation_mesh",
            label=(
                "20 residences x 1 device (tv), 2 days of 120 min, 2 EMS episodes, "
                "LR forecasters, serial EMS, beta=gamma=0.5 h on the full mesh; "
                "serving queries over 20 trained residences"
            ),
            config=federation_mesh,
            closed_queries=256,
            open_queries=2000,
            open_rate_qps=400.0,
        ),
    )
}


# ----------------------------------------------------------------------
# Set-up
@dataclass
class Inputs:
    dataset: object
    closed: list
    #: Open-loop queries and their due times (s) from the phase start.
    open: list
    arrivals: np.ndarray


def make_inputs(w: Workload, config: PFDRLConfig, seed: int, open_loop: bool) -> Inputs:
    """Everything the program is fed, generated from the seed alone.

    Only traced runs drive the open loop, so only they generate its queries.
    """
    dataset = generate_neighborhood(config.data)
    n_open = w.open_queries if open_loop else 0
    # Each query holds ``default_trace_minutes`` of readings: the
    # serving equivalent of the next hour at the workload's geometry.
    queries = make_queries(config, w.closed_queries + n_open, seed=seed)
    # A fixed rate with seeded jitter: gaps uniform in [0.5, 1.5] of the
    # mean gap.  Poisson arrivals made p99 depend on each seed's few
    # largest bursts (spread 0.3-0.4 of the median across seeds).
    rng = np.random.default_rng([seed, 0x0A11])
    gap = 1.0 / w.open_rate_qps
    arrivals = np.cumsum(rng.uniform(0.5 * gap, 1.5 * gap, n_open))
    return Inputs(dataset, queries[: w.closed_queries], queries[w.closed_queries :], arrivals)


# ----------------------------------------------------------------------
# Training
@dataclass
class TrainRun:
    wall_s: float
    result: object
    system: PFDRLSystem
    store_dir: str

    def fingerprint(self) -> str:
        """Canonical text of the run's result, for equality checks."""
        return json.dumps(self.result.to_dict(), sort_keys=True)


def train_once(config: PFDRLConfig, dataset, workdir: str) -> TrainRun:
    """One ``PFDRLSystem.run()`` with a daily checkpoint into a fresh store."""
    store_dir = tempfile.mkdtemp(prefix="ckpt-", dir=workdir)
    start = time.perf_counter()
    system = PFDRLSystem(config, dataset=dataset)
    result = system.run(checkpoint_store=CheckpointStore(store_dir), checkpoint_every=1)
    return TrainRun(time.perf_counter() - start, result, system, store_dir)


def residence_days_per_s(config: PFDRLConfig, wall_s: float) -> float:
    return config.data.n_residences * config.data.n_days / wall_s


# ----------------------------------------------------------------------
# Serving
def load_snapshot(config: PFDRLConfig, store_dir: str) -> ModelSnapshot:
    return ModelSnapshot.load(CheckpointStore(store_dir), config)


def closed_pass(engine: ServingEngine, queries: list) -> tuple[float, list]:
    """All queries through ``answer_batch`` in micro-batches; (seconds, answers)."""
    answers = []
    start = time.perf_counter()
    for lo in range(0, len(queries), MICRO_BATCH):
        answers.extend(engine.answer_batch(queries[lo : lo + MICRO_BATCH]))
    return time.perf_counter() - start, answers


def single_pass(engine: ServingEngine, queries: list) -> list:
    """Each query answered alone on this thread; the answers."""
    return [engine.answer(query) for query in queries]


@contextlib.contextmanager
def batch_starts(queries: list):
    """Record ``(start, query indices)`` for every ``ModelSnapshot.schedule`` call.

    One plain wrapper, not a traced span, so the open-loop latencies it
    sits under are the program's own.
    """
    index = {id(q): i for i, q in enumerate(queries)}
    batches: list[tuple[float, list[int]]] = []
    schedule = ModelSnapshot.schedule

    def recorded(self, batch):
        batches.append((time.perf_counter(), [index[id(q)] for q in batch]))
        return schedule(self, batch)

    ModelSnapshot.schedule = recorded
    try:
        yield batches
    finally:
        ModelSnapshot.schedule = schedule


@dataclass
class OpenLoop:
    #: Per query: completion minus due time (s); a miss reads RESULT_TIMEOUT_S.
    latency_s: np.ndarray
    #: Per query: submission minus due time (s), the generator's lateness.
    lag_s: np.ndarray
    submitted_at: np.ndarray
    answers: list
    failed: int
    dropped: int
    served: int


def open_loop(snapshot: ModelSnapshot, queries: list, arrivals: np.ndarray) -> OpenLoop:
    """Submit each query at its due time from this thread; one engine worker.

    Latency is timed from the due time, so a stall also delays the
    queries due behind it.  A failed or dropped query counts as a miss.
    """
    engine = ServingEngine(snapshot, max_batch=MICRO_BATCH)
    n = len(queries)
    due = np.empty(n)
    submitted = np.empty(n)
    pendings = []
    engine.start()
    try:
        t0 = time.perf_counter() + 0.05
        for i, query in enumerate(queries):
            due[i] = t0 + arrivals[i]
            delay = due[i] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            pending = engine.submit(query)
            submitted[i] = pending.submitted_at
            pendings.append(pending)
        answers: list = []
        latency = np.full(n, RESULT_TIMEOUT_S)
        failed = 0
        for i, pending in enumerate(pendings):
            try:
                answer = pending.result(timeout=RESULT_TIMEOUT_S)
            except Exception:  # errored or timed-out query: a counted miss
                failed += 1
                answers.append(None)
                continue
            answers.append(answer)
            latency[i] = pending.submitted_at + answer.latency_s - due[i]
    finally:
        engine.stop()
    return OpenLoop(latency, submitted - due, submitted, answers, failed,
                    engine.dropped, engine.queries_served)


# ----------------------------------------------------------------------
# Correctness checks
def same_answer(a, b) -> bool:
    """Equal residence, devices, actions and forecasts."""
    if a is None or b is None or a.residence_id != b.residence_id:
        return False
    if set(a.actions) != set(b.actions):
        return False
    return all(
        np.array_equal(a.actions[d], b.actions[d])
        and np.array_equal(a.predicted_kw[d], b.predicted_kw[d])
        for d in a.actions
    )


def oracle_mismatches(snapshot: ModelSnapshot, queries: list, answers: list,
                      sample: np.ndarray) -> int:
    """Sampled answers that differ from the per-request controller."""
    bad = 0
    for i in sample:
        query, answer = queries[i], answers[i]
        per_minute = snapshot.controller(query.residence_id, t0=query.t0).run_trace(
            dict(query.readings)
        )
        ok = answer is not None and all(
            np.array_equal(answer.actions[d], [m[d] for m in per_minute])
            for d in query.readings
        )
        bad += not ok
    return bad


def exactly_once(queries: list, loop: OpenLoop) -> bool:
    """Every submitted query answered once, by its own answer, none dropped."""
    answered = [a for a in loop.answers if a is not None]
    return (
        loop.dropped == 0
        and loop.served == len(queries)
        and len(answered) == len(queries)
        and len({id(a) for a in answered}) == len(answered)
        and all(a.residence_id == q.residence_id for q, a in zip(queries, loop.answers))
    )


def reward_fractions(run: TrainRun) -> tuple[float, float]:
    """Neighbourhood reward of the greedy EMS policy and of always-off.

    Both are shares of the optimal Table-1 reward over the held-out days:
    the EMS's from ``EMSEvaluation.reward_fraction`` weighted by each
    residence's optimum, always-off's from the ground-truth modes.
    """
    optimum, off = [], []
    for residence in run.system.test_data.residences:
        mode = np.concatenate([t.mode.astype(np.int64) for t in residence.traces.values()])
        optimum.append(REWARD_MATRIX[mode, np.where(mode == 1, 0, mode)].sum())
        off.append(REWARD_MATRIX[mode, 0].sum())
    optimum = np.asarray(optimum)
    ems = np.sum(run.result.ems.reward_fraction * optimum) / optimum.sum()
    return float(ems), float(np.sum(off) / optimum.sum())


def in_unit_interval(x: float) -> bool:
    return bool(np.isfinite(x)) and 0.0 <= x <= 1.0


def sample_indices(seed: int, n: int, k: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 0x0C7E])
    return np.sort(rng.choice(n, size=min(k, n), replace=False))
