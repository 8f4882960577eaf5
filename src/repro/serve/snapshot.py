"""Immutable model snapshots loaded from the checkpoint store.

A :class:`ModelSnapshot` is the deployable unit of this repo: one
checkpoint (forecasters + DQN weights) rebound into a read-only
:class:`repro.rl.batch.StackedQNet` arena plus frozen per-residence
forecasters, verified against the serving configuration's digest.  It
answers "next-hour schedule" queries (:class:`ScheduleQuery` →
:class:`ScheduleAnswer`) for whole batches at once through the
vectorised greedy path, bit-identical to streaming the same readings
through an :class:`repro.core.OnlineController` built from the same
checkpoint:

- per device, forecast blocks follow the controller's refresh rule
  (:func:`repro.core.controller.forecast_inputs` — persistence until a
  full lag window exists, then one model row per horizon boundary);
  a block depends only on the query's own readings, so every model row
  of a batch is known up front and each (residence, device) forecaster
  answers all of its rows in one
  :meth:`~repro.forecast.base.Forecaster.predict_rows` pass — row-exact,
  so each row carries the bits of the controller's batch-of-1 call;
- actions come from one broadcast matmul over ``(M, T, state_dim)``
  stacked states followed by ``argmax`` — the repo's pinned
  gemm-argmax ≡ per-minute-argmax contract (see ``repro.rl.batch``);
- controlled power uses the training environment's pass-through
  semantics (:func:`repro.rl.env.apply_actions`).

Immutability is enforced, not advisory: every weight stack, every
member-parameter view and every forecaster array is marked
non-writeable, so an accidental in-place update (a stray ``set_weights``
or optimizer step against a serving snapshot) raises instead of
corrupting in-flight queries; serving itself writes no attribute of a
model (``predict_rows`` is stateless).  Hot-swap therefore never
mutates — a new checkpoint becomes a *new* snapshot and the engine
repoints atomically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.config import PFDRLConfig
from repro.core.controller import (
    DeviceNominals,
    OnlineController,
    forecast_inputs,
    model_blocks,
)
from repro.core.system import config_digest
from repro.data.generator import generate_neighborhood
from repro.federated.dfl import DFLClient
from repro.nn.serialization import set_weights
from repro.persist.checkpoint import CheckpointError
from repro.persist.store import CheckpointStore
from repro.rl.batch import StackedQNet
from repro.rl.env import apply_actions
from repro.rl.qnet import build_states, make_qnet

__all__ = [
    "ModelSnapshot",
    "ScheduleQuery",
    "ScheduleAnswer",
    "SnapshotError",
]


class SnapshotError(RuntimeError):
    """A checkpoint cannot be served (wrong stage, unknown residence…)."""


@dataclass(frozen=True)
class ScheduleQuery:
    """One residence asks for its next-hour(s) schedule.

    ``readings`` maps every managed device to an aligned per-minute kW
    trace (what the hub metered); ``t0`` is the absolute minute-of-day
    phase of the first reading (the controller's calendar anchor).
    Queries are stateless: each one is answered exactly as a fresh
    :class:`~repro.core.OnlineController` streaming these readings from
    its first minute would act.
    """

    residence_id: int
    readings: Mapping[str, np.ndarray]
    t0: int = 0


@dataclass
class ScheduleAnswer:
    """Per-device minute schedule plus the bookkeeping a hub wants."""

    residence_id: int
    #: Per-device actions per minute (0 = off, 1 = standby, 2 = on).
    actions: dict[str, np.ndarray]
    #: The forecast trace the decisions were made against (kW).
    predicted_kw: dict[str, np.ndarray]
    #: The draw the schedule produces under pass-through semantics (kW).
    controlled_kw: dict[str, np.ndarray]
    #: Energy the schedule withholds vs the metered readings (kWh).
    saved_kwh: float
    #: Which snapshot answered (``ckpt-XXXXXXXX``) — hot-swap audit trail.
    generation: str
    #: Service latency stamped by the engine (0 when answered directly).
    latency_s: float = 0.0


@dataclass(frozen=True)
class _Residence:
    """One residence's serving-side view: frozen models + nominals."""

    forecasters: Mapping[str, object]
    nominals: Mapping[str, DeviceNominals]
    #: device (or ``"*"`` in residence scope) → row in the Q-net stack.
    rows: Mapping[str, int]


def _freeze_tree(obj, seen: set[int]) -> None:
    """Mark every ndarray reachable from *obj* read-only (best effort)."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        obj.flags.writeable = False
        return
    if isinstance(obj, dict):
        for v in obj.values():
            _freeze_tree(v, seen)
        return
    if isinstance(obj, (list, tuple)):
        for v in obj:
            _freeze_tree(v, seen)
        return
    if hasattr(obj, "__dict__"):
        for v in vars(obj).values():
            _freeze_tree(v, seen)


class _GreedyAgent:
    """Greedy ``act()`` adapter over one frozen member Q-net.

    Computes exactly what :meth:`repro.rl.dqn.DQNAgent.act` computes in
    greedy mode (batch-of-1 forward, first-index argmax) — used for the
    per-request :class:`OnlineController` baseline and the equivalence
    tests.
    """

    __slots__ = ("qnet",)

    def __init__(self, qnet) -> None:
        self.qnet = qnet

    def act(self, state: np.ndarray, greedy: bool = True) -> int:
        q = self.qnet.forward(np.asarray(state, dtype=np.float64)[None, :])[0]
        return int(np.argmax(q))


class ModelSnapshot:
    """Read-only serving view over one checkpoint.

    Build with :meth:`load`; never construct incrementally.  All model
    arrays are frozen and the DQN weights of every (residence, slot)
    agent live as rows of one :class:`StackedQNet`, so a batch of
    queries across residences is one broadcast matmul.
    """

    def __init__(
        self,
        config: PFDRLConfig,
        step: int,
        residences: dict[int, _Residence],
        stack: StackedQNet,
        meta: dict,
    ) -> None:
        self.config = config
        self.step = int(step)
        self.generation = f"ckpt-{self.step:08d}"
        self.meta = dict(meta)
        self.minutes_per_day = int(config.data.minutes_per_day)
        self._residences = residences
        self.stack = stack

    # ------------------------------------------------------------------
    @classmethod
    def load(
        cls,
        store: CheckpointStore,
        config: PFDRLConfig,
        step: int | None = None,
        *,
        forecast_mode: str = "decentralized",
        sharing: str = "personalized",
        verify: bool = True,
    ) -> "ModelSnapshot":
        """Load a checkpoint (default: latest) as a frozen snapshot.

        Refuses checkpoints written under a different configuration or
        pipeline variant (digest guard, same rule as resume) and
        checkpoints that predate the EMS training stage (nothing to
        serve yet).
        """
        state, manifest = store.load(step=step, verify=verify)
        meta = dict(manifest.get("meta", {}))
        recorded = meta.get("config_sha256")
        expected = config_digest(config, forecast_mode, sharing)
        if recorded is not None and recorded != expected:
            raise CheckpointError(
                "checkpoint was written under a different configuration "
                f"(digest {recorded[:12]}… vs {expected[:12]}…); serving it "
                "under this config would bind weights to the wrong homes"
            )
        if "dfl" not in state or "drl" not in state:
            raise SnapshotError(
                "checkpoint predates the EMS training stage — nothing to serve"
            )
        ckpt_step = int(meta.get("step", step if step is not None else -1))
        if ckpt_step < 0:
            ckpt_step = store.latest_step() or 0

        # The dataset is regenerated deterministically from the config
        # (exactly as training does) — it carries the per-residence
        # device nominals the checkpoint does not store.
        dataset = generate_neighborhood(config.data)
        clients_state = state["dfl"]["clients"]
        agents_state = state["drl"]["agents"]

        # Rebuild the agents' Q-nets in sorted key order and stack them.
        def _key(item):
            rid, slot = item.split("/", 1)
            return (int(rid), slot)

        qnets = []
        rows_by_key: dict[tuple[int, str], int] = {}
        for key in sorted(agents_state, key=_key):
            rid_s, slot = key.split("/", 1)
            qnet = make_qnet(config.dqn, rng=0)
            set_weights(qnet, [np.asarray(w) for w in agents_state[key]["qnet"]])
            rows_by_key[(int(rid_s), slot)] = len(qnets)
            qnets.append(qnet)
        stack = StackedQNet(qnets)

        residences: dict[int, _Residence] = {}
        for rid_s, client_state in clients_state.items():
            rid = int(rid_s)
            traces = dict(dataset[rid])
            client = DFLClient(
                rid,
                {dev: trace.power_kw for dev, trace in traces.items()},
                config.forecast,
                minutes_per_day=config.data.minutes_per_day,
                seed=config.seed,
            )
            client.load_state_dict(client_state)
            nominals = {
                dev: DeviceNominals(trace.on_kw, trace.standby_kw)
                for dev, trace in traces.items()
            }
            rows = {
                slot: row
                for (r, slot), row in rows_by_key.items()
                if r == rid
            }
            residences[rid] = _Residence(
                forecasters=client.forecasters, nominals=nominals, rows=rows
            )

        snapshot = cls(config, ckpt_step, residences, stack, meta)
        snapshot._freeze()
        return snapshot

    def _freeze(self) -> None:
        """Make every model array read-only — snapshots never mutate."""
        self.stack.flat.flags.writeable = False
        for arr in self.stack._weights + self.stack._biases:
            arr.flags.writeable = False
        # Member parameter views were carved before the stacks froze, so
        # their writeable flags must drop explicitly.
        for qnet in self.stack.qnets:
            for p in qnet.parameters():
                p.data.flags.writeable = False
        seen: set[int] = set()
        for res in self._residences.values():
            for fc in res.forecasters.values():
                _freeze_tree(fc, seen)

    # ------------------------------------------------------------------
    def residences(self) -> tuple[int, ...]:
        return tuple(sorted(self._residences))

    def devices(self, residence_id: int) -> tuple[str, ...]:
        return tuple(self._residence(residence_id).forecasters)

    def _residence(self, residence_id: int) -> _Residence:
        try:
            return self._residences[int(residence_id)]
        except KeyError:
            raise SnapshotError(
                f"residence {residence_id} is not in this snapshot "
                f"(has {self.residences()})"
            ) from None

    def row_for(self, residence_id: int, device: str) -> int:
        """Stack row of the agent deciding for (residence, device)."""
        rows = self._residence(residence_id).rows
        if "*" in rows:  # residence scope: one agent for all devices
            return rows["*"]
        try:
            return rows[device]
        except KeyError:
            raise SnapshotError(
                f"no agent for device {device!r} of residence {residence_id}"
            ) from None

    # ------------------------------------------------------------------
    def controller(self, residence_id: int, t0: int = 0) -> OnlineController:
        """A fresh per-request :class:`OnlineController` on this snapshot.

        The serving engine's per-request baseline (and the equivalence
        oracle in tests): streams minutes through the frozen models one
        at a time.  Only available in residence agent scope — the
        controller interface drives one agent for all devices.
        """
        res = self._residence(residence_id)
        if "*" not in res.rows:
            raise SnapshotError(
                "per-request controllers need residence agent scope "
                "(one agent per home); this snapshot is device-scoped"
            )
        agent = _GreedyAgent(self.stack.qnets[res.rows["*"]])
        return OnlineController(
            forecasters=dict(res.forecasters),
            agent=agent,
            nominals=dict(res.nominals),
            minutes_per_day=self.minutes_per_day,
            t0=t0,
        )

    # ------------------------------------------------------------------
    def schedule(self, queries: list[ScheduleQuery]) -> list[ScheduleAnswer]:
        """Answer a batch of queries through the vectorised greedy path.

        Every forecast block depends only on a query's own readings, so
        the whole batch's model work is known up front:

        1. each (query, device) trace is validated and cut into horizon
           blocks by :func:`~repro.core.controller.forecast_inputs`
           (persistence levels, then model rows);
        2. the model rows are grouped by forecaster — one per
           (residence, device) — and each group runs one
           :meth:`~repro.forecast.base.Forecaster.predict_rows` pass,
           whose rows are bit-identical to the controller's batch-of-1
           calls;
        3. the forecasts are scattered back, and all per-minute Q
           evaluations across the batch collapse into one broadcast
           matmul + argmax per distinct trace length.
        """
        # Per query: (device, real, predicted, nominals, stack row) per device.
        prepared: list[list[tuple]] = []
        # id(forecaster) -> (forecaster, input blocks, scatter targets)
        by_model: dict[int, tuple[object, list, list]] = {}
        for query in queries:
            res = self._residence(query.residence_id)
            if set(query.readings) != set(res.forecasters):
                raise ValueError(
                    f"query for residence {query.residence_id} must cover "
                    f"exactly {sorted(res.forecasters)}, got "
                    f"{sorted(query.readings)}"
                )
            lengths = {np.asarray(t).shape[0] for t in query.readings.values()}
            if len(lengths) != 1:
                raise ValueError("query readings must be aligned")
            (n_minutes,) = lengths
            if n_minutes < 1:
                raise ValueError("query readings must cover at least one minute")
            devs = []
            for device in query.readings:
                real = np.asarray(query.readings[device], dtype=np.float64)
                if real.ndim != 1:
                    raise ValueError(f"reading for {device!r} must be 1-D")
                if (real < 0).any():
                    raise ValueError(f"negative reading for {device!r}")
                fc = res.forecasters[device]
                nom = res.nominals[device]
                starts = np.arange(0, n_minutes, fc.horizon)
                levels, X = forecast_inputs(
                    fc, real, nom, starts, starts + query.t0, self.minutes_per_day
                )
                first_model = len(levels) * fc.horizon
                predicted = np.empty(n_minutes)
                predicted[:first_model] = np.repeat(levels, fc.horizon)[:n_minutes]
                if len(X):
                    _, inputs, targets = by_model.setdefault(id(fc), (fc, [], []))
                    inputs.append(X)
                    targets.append((predicted, first_model, nom))
                row = self.row_for(query.residence_id, device)
                devs.append((device, real, predicted, nom, row))
            prepared.append(devs)

        # One row-exact forecaster pass per model; blocks tile each trace.
        for fc, inputs, targets in by_model.values():
            out = fc.predict_rows(np.concatenate(inputs))
            k = 0
            for (predicted, first_model, nom), X in zip(targets, inputs):
                blocks = model_blocks(out[k : k + len(X)], nom)
                k += len(X)
                predicted[first_model:] = blocks.reshape(-1)[
                    : len(predicted) - first_model
                ]

        # (trace length) -> list of (query idx, device idx, row, states)
        groups: dict[int, list[tuple[int, int, int, np.ndarray]]] = {}
        for qi, devs in enumerate(prepared):
            for di, (device, real, predicted, nom, row) in enumerate(devs):
                states = build_states(
                    predicted, real, nom.on_kw, nom.standby_kw, device
                )
                groups.setdefault(len(real), []).append((qi, di, row, states))

        # One stacked forward + argmax per distinct trace length.
        actions_by_item: dict[tuple[int, int], np.ndarray] = {}
        for items in groups.values():
            stacked = np.stack([states for (_, _, _, states) in items])
            rows = np.asarray([row for (_, _, row, _) in items])
            q_values = self.stack.forward_batch(stacked, rows=rows)
            acts = q_values.argmax(axis=2).astype(np.int64)
            for (qi, di, _, _), a in zip(items, acts):
                actions_by_item[(qi, di)] = a

        answers: list[ScheduleAnswer] = []
        for qi, query in enumerate(queries):
            actions: dict[str, np.ndarray] = {}
            predicted_kw: dict[str, np.ndarray] = {}
            controlled_kw: dict[str, np.ndarray] = {}
            saved = 0.0
            for di, (device, real, predicted, nom, _) in enumerate(prepared[qi]):
                a = actions_by_item[(qi, di)]
                controlled = apply_actions(a, real, nom.standby_kw)
                actions[device] = a
                predicted_kw[device] = predicted
                controlled_kw[device] = controlled
                saved += float((real - controlled).sum()) / 60.0
            answers.append(
                ScheduleAnswer(
                    residence_id=int(query.residence_id),
                    actions=actions,
                    predicted_kw=predicted_kw,
                    controlled_kw=controlled_kw,
                    saved_kwh=saved,
                    generation=self.generation,
                )
            )
        return answers
