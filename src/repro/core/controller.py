"""Online deployment controller — the trained system as it would run.

Training uses batched day streams; deployment is a minute loop: readings
arrive one minute at a time, the forecast refreshes at every horizon
boundary ("by default hourly", §3.1), and the DQN picks one action per
device per minute.  :class:`OnlineController` packages one residence's
trained forecasters + DQN agent behind exactly that loop:

>>> controller = OnlineController(forecasters, agent, nominals)  # doctest: +SKIP
>>> actions = controller.observe_minute({"tv": 0.012, "light": 0.0})  # doctest: +SKIP

Until a device has a full lag window of history, its forecast falls back
to persistence (the last reading), so the controller is usable from the
first minute.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.forecast import Forecaster, augment_time_features, normalize_power
from repro.rl.dqn import DQNAgent
from repro.rl.env import apply_actions
from repro.rl.qnet import build_state

__all__ = [
    "OnlineController",
    "DeviceNominals",
    "ControllerStats",
    "forecast_block",
    "forecast_inputs",
    "model_blocks",
]


@dataclass(frozen=True)
class DeviceNominals:
    """Per-device reference levels the controller needs."""

    on_kw: float
    standby_kw: float

    def __post_init__(self) -> None:
        if self.on_kw <= 0 or self.standby_kw < 0:
            raise ValueError("need on_kw > 0 and standby_kw >= 0")


def forecast_inputs(
    forecaster: Forecaster,
    readings,
    nominals: DeviceNominals,
    ends,
    phases,
    minutes_per_day: int,
) -> tuple[list, np.ndarray]:
    """Inputs of the horizon blocks forecast after ``readings[:end]``.

    This is the refresh rule of the online minute loop, shared by
    :func:`forecast_block` (one block at a time, as the controller
    streams) and the batched serving path (:mod:`repro.serve`, every
    block of a query at once), so both feed the model the same rows.
    *ends* must be ascending; ``phases[k]`` is the absolute minute of
    block k's first target (minutes done plus the controller's ``t0``).

    While a block's history ``readings[:end]`` is shorter than the lag
    window it falls back to persistence: the last reading, or the
    standby level before any reading.  Afterwards its model row is the
    normalised window plus the time features of its phase.  Returns
    ``(levels, X)``: one persistence level per leading fallback block,
    then one row of ``X`` per remaining block.
    """
    window = forecaster.window
    levels = [
        readings[end - 1] if end else nominals.standby_kw
        for end in ends
        if end < window
    ]
    model_ends = ends[len(levels):]
    windows = np.asarray(
        [readings[end - window : end] for end in model_ends], dtype=np.float64
    ).reshape(len(model_ends), window)
    X = normalize_power(windows, nominals.on_kw)
    if forecaster.n_extra:
        X = augment_time_features(
            X,
            phases[len(levels):],
            minutes_per_day,
            harmonics=forecaster.n_extra // 2,
        )
    return levels, X


def model_blocks(raw: np.ndarray, nominals: DeviceNominals) -> np.ndarray:
    """Model outputs (normalised) -> per-minute forecasts in kW."""
    return np.clip(raw, 0.0, None) * nominals.on_kw


def forecast_block(
    forecaster: Forecaster,
    history,
    nominals: DeviceNominals,
    minutes_done: int,
    minutes_per_day: int,
    t0: int = 0,
) -> tuple[np.ndarray, bool]:
    """One horizon block of per-minute forecasts (kW) at a boundary.

    The controller's refresh step: :func:`forecast_inputs` for the one
    block after *history*, at the time-feature phase ``minutes_done``
    minutes past ``t0``, then one :meth:`Forecaster.predict_rows` row —
    the call serving batches, so a row answers the same in both.
    Returns ``(block_kw, used_model)``.
    """
    levels, X = forecast_inputs(
        forecaster, history, nominals, [len(history)], [minutes_done + t0],
        minutes_per_day,
    )
    if levels:
        return np.full(forecaster.horizon, levels[0]), False
    return model_blocks(forecaster.predict_rows(X), nominals)[0], True


@dataclass
class ControllerStats:
    """Cumulative deployment counters."""

    minutes: int = 0
    forecasts_made: int = 0
    actions: dict[int, int] = field(default_factory=lambda: {0: 0, 1: 0, 2: 0})
    #: Energy the controller withheld (kWh), per device.
    saved_kwh: dict[str, float] = field(default_factory=dict)


class OnlineController:
    """Streaming per-residence controller over trained components.

    Parameters
    ----------
    forecasters:
        Trained per-device forecasters (e.g. from a
        :class:`repro.federated.dfl.DFLClient` after DFL training).
    agent:
        Trained :class:`repro.rl.dqn.DQNAgent` (greedy at deployment).
    nominals:
        Per-device :class:`DeviceNominals`.
    minutes_per_day:
        Calendar length for the time features.
    t0:
        Absolute minute-of-deployment start (calendar phase).
    der:
        Optional DER meter (duck-typed; see
        :class:`repro.scenario.der.DERMeter`): after each minute's
        actions, the household's total controlled draw is netted through
        ``der.net(load_kw)`` — solar and battery between the home and
        the meter.  ``None`` (default) leaves the classic path
        untouched.
    """

    def __init__(
        self,
        forecasters: dict[str, Forecaster],
        agent: DQNAgent,
        nominals: dict[str, DeviceNominals],
        minutes_per_day: int = 1440,
        t0: int = 0,
        der=None,
    ) -> None:
        if set(forecasters) != set(nominals):
            raise ValueError("forecasters and nominals must cover the same devices")
        if not forecasters:
            raise ValueError("need at least one device")
        self.forecasters = forecasters
        self.agent = agent
        self.nominals = nominals
        self.minutes_per_day = int(minutes_per_day)
        self.t0 = int(t0)
        self.der = der
        #: Cumulative metered grid energy (kWh) — equals the controlled
        #: energy when no DER meter is attached.
        self.grid_kwh = 0.0
        self.stats = ControllerStats()
        self.stats.saved_kwh = {d: 0.0 for d in forecasters}

        self._history: dict[str, list[float]] = {d: [] for d in forecasters}
        self._pending_forecast: dict[str, np.ndarray] = {}
        self._forecast_pos: dict[str, int] = {d: 0 for d in forecasters}

    # ------------------------------------------------------------------
    @property
    def devices(self) -> tuple[str, ...]:
        return tuple(self.forecasters)

    def _horizon(self, device: str) -> int:
        return self.forecasters[device].horizon

    def _maybe_refresh_forecast(self, device: str) -> None:
        """At horizon boundaries (and at start) predict the next block."""
        fc = self.forecasters[device]
        pos = self._forecast_pos[device]
        have = device in self._pending_forecast
        if have and pos < self._horizon(device):
            return
        block, used_model = forecast_block(
            fc,
            self._history[device],
            self.nominals[device],
            self.stats.minutes,
            self.minutes_per_day,
            t0=self.t0,
        )
        self._pending_forecast[device] = block
        if used_model:
            self.stats.forecasts_made += 1
        self._forecast_pos[device] = 0

    # ------------------------------------------------------------------
    def observe_minute(self, readings: dict[str, float]) -> dict[str, int]:
        """Consume one minute of per-device readings; return actions.

        Actions follow the paper's encoding: 0 = off, 1 = standby,
        2 = on (pass through).
        """
        if set(readings) != set(self.forecasters):
            raise ValueError("readings must cover exactly the managed devices")
        actions: dict[str, int] = {}
        load_kw = 0.0
        for device, value in readings.items():
            if value < 0:
                raise ValueError(f"negative reading for {device!r}")
            self._maybe_refresh_forecast(device)
            nom = self.nominals[device]
            pred = float(self._pending_forecast[device][self._forecast_pos[device]])
            state = build_state(pred, value, nom.on_kw, nom.standby_kw, device=device)
            action = self.agent.act(state, greedy=True)
            actions[device] = action
            self.stats.actions[action] += 1

            # Controlled draw under the chosen action — the single
            # shared action -> draw rule (same as training and serving).
            controlled = float(
                apply_actions(
                    np.asarray([action]), np.asarray([value]), nom.standby_kw
                )[0]
            )
            self.stats.saved_kwh[device] += (value - controlled) / 60.0
            load_kw += controlled

            self._history[device].append(value)
            self._forecast_pos[device] += 1
        grid_kw = load_kw if self.der is None else self.der.net(load_kw)
        self.grid_kwh += grid_kw / 60.0
        self.stats.minutes += 1
        return actions

    def run_trace(self, traces: dict[str, np.ndarray]) -> list[dict[str, int]]:
        """Convenience: stream whole aligned traces minute by minute."""
        lengths = {np.asarray(t).shape[0] for t in traces.values()}
        if len(lengths) != 1:
            raise ValueError("traces must be aligned")
        (n,) = lengths
        return [
            self.observe_minute({d: float(np.asarray(t)[i]) for d, t in traces.items()})
            for i in range(n)
        ]
