"""Hot-path benchmark: the stacked training paths vs their serial oracles.

Standalone (no pytest-benchmark dependency) so CI can run it with the
tier-1 package set:

    PYTHONPATH=src python benchmarks/bench_hotpath.py --out BENCH_hotpath.json

Measures, on one profile (default: 64 residences — small fleets are
dominated by fixed per-minute Python overhead and do not show the
batched engine's scaling):

- greedy evaluation: the per-step rollout oracle vs the trainer's
  vectorised matrix rollout (must be bit-identical; asserts the speedup
  floor);
- one training day, three ways:
  * serial oracle: per-agent ``DQNAgent.run_episode`` with Python
    ``observe()``/``learn_step()`` (``tests/ems_oracle.py``);
  * stacked engine (the trainer's in-process path): stacked replay
    sampling + one stacked forward/backward/Adam step per wave minute
    (bit-identical to the oracle — asserted);
  * persistent worker pool: residence shards forked once, each worker
    running the engine over a zero-copy shared-memory view of the
    parameter arena; per-segment IPC is bounds out, rewards and
    counters back — no weight pickling in either direction
    (bit-identical to the oracle — asserted);
- one DFL day of LSTM forecasters, two ways, timed by the trainer's own
  ``dfl.local`` telemetry timer:
  * per-model oracle: each (residence, device) model fits alone with
    its own minibatch loop (``tests/forecast_oracle.py``);
  * stacked (the trainer's path): every model of a local interval
    trains in one ``LSTMForecaster.fit_many`` pass (bit-identical to
    the oracle — asserted on every weight).

Speedup floors (``--min-batched-speedup`` / ``--min-parallel-speedup``
/ ``--min-forecast-speedup``, default 1.0) make CI fail if a path
regresses below its serial oracle.  The committed ``BENCH_hotpath.json``
records the achieved numbers plus environment metadata (numpy version,
CPU count, git SHA) so a regression can be told apart from a slower
machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))  # the serial oracles live in tests/

import numpy as np  # noqa: E402

from benchmarks.bench_serve import git_sha  # noqa: E402
from repro.config import DQNConfig, FederationConfig, ForecastConfig  # noqa: E402
from repro.core.pfdrl import PFDRLTrainer  # noqa: E402
from repro.core.streams import build_streams  # noqa: E402
from repro.data import generate_neighborhood  # noqa: E402
from repro.federated.dfl import DFLTrainer  # noqa: E402
from repro.obs.telemetry import Telemetry  # noqa: E402
from tests.ems_oracle import SerialTrainer, serial_evaluate  # noqa: E402
from tests.forecast_oracle import OracleDFLTrainer  # noqa: E402


def make_trainer(streams, args, trainer_cls=PFDRLTrainer, **kwargs):
    return trainer_cls(
        streams,
        dqn_config=DQNConfig(
            learn_every=args.learn_every, hidden_width=args.hidden_width
        ),
        federation_config=FederationConfig(gamma_hours=12.0),
        sharing="personalized",
        agent_scope="device",
        seed=0,
        **kwargs,
    )


def timed(fn, repeats: int = 1):
    """(best wall-clock seconds, last result) over *repeats* runs."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def dfl_day(dataset, trainer_cls):
    """One LSTM DFL day; (``dfl.local`` seconds, trainer)."""
    tel = Telemetry()
    trainer = trainer_cls(
        dataset,
        # The perfbench pipeline_lstm geometry (window = horizon = 10).
        forecast_config=ForecastConfig(model="lstm", window=10, horizon=10),
        federation_config=FederationConfig(beta_hours=6.0),
        seed=0,
        telemetry=tel,
    )
    trainer.run_day()
    return tel.stopwatch.total("dfl.local"), trainer


def forecasters_equal(a, b) -> bool:
    return all(
        np.array_equal(wa, wb)
        for ca, cb in zip(a.clients, b.clients)
        for device in ca.device_types
        for wa, wb in zip(ca.get_weights(device), cb.get_weights(device))
    )


def evaluations_equal(a, b) -> bool:
    return all(
        np.array_equal(getattr(a, f), getattr(b, f), equal_nan=True)
        for f in (
            "saved_standby_kwh", "total_standby_kwh", "saved_total_kwh",
            "comfort_violations", "reward_fraction", "saved_kw",
        )
    )


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--residences", type=int, default=64)
    p.add_argument("--days", type=int, default=2)
    p.add_argument("--minutes-per-day", type=int, default=240)
    p.add_argument("--devices", default="tv,light")
    # The scaled experiment profiles run learn_every in {3, 4, 6}; 4 makes
    # the bench's train-day mix match them.  learn_every=1 (paper-exact)
    # is learn-step bound — exactly the regime the stacked learn step
    # targets — and shows even larger batched speedups.
    p.add_argument("--learn-every", type=int, default=4)
    # The scaled experiment profiles (src/repro/experiments/profiles.py)
    # train 16/24-wide nets; 24 keeps the bench in that regime, where a
    # serial day is bound by per-agent Python overhead rather than BLAS.
    # The paper-exact width (100) is available via --hidden-width 100 —
    # there the learn step is memory-bound in Adam and serial/batched
    # converge, which is a property of the geometry, not a regression.
    p.add_argument("--hidden-width", type=int, default=24)
    p.add_argument("--workers", type=int, default=2)
    p.add_argument(
        "--repeats", type=int, default=2,
        help="timing repeats of the eval and forecaster rows",
    )
    p.add_argument("--min-eval-speedup", type=float, default=5.0)
    p.add_argument("--min-batched-speedup", type=float, default=1.0)
    p.add_argument("--min-parallel-speedup", type=float, default=1.0)
    p.add_argument("--min-forecast-speedup", type=float, default=1.0)
    p.add_argument("--out", default="BENCH_hotpath.json")
    args = p.parse_args(argv)

    dataset = generate_neighborhood(
        n_residences=args.residences,
        n_days=args.days,
        minutes_per_day=args.minutes_per_day,
        device_types=tuple(args.devices.split(",")),
        seed=7,
    )
    streams = build_streams(dataset)
    n_pairs = sum(len(s.devices) for s in streams)
    print(
        f"profile: {args.residences} residences x {args.devices} devices, "
        f"{args.days} x {args.minutes_per_day}-min days ({n_pairs} agent pairs)"
    )

    # --- training day: serial oracle vs stacked engine vs pool ----------
    serial = make_trainer(streams, args, trainer_cls=SerialTrainer)
    t_train_serial, r_serial = timed(serial.run_day)

    batched = make_trainer(streams, args)
    t_train_batched, r_batched = timed(batched.run_day)
    assert r_batched == r_serial, "engine day result diverged from serial"

    # The pool workers run the engine over shared-memory arena views.
    parallel = make_trainer(streams, args, n_workers=args.workers)
    try:
        t_train_parallel, r_parallel = timed(parallel.run_day)
        assert r_parallel == r_serial, "sharded day result diverged from serial"
    finally:
        parallel.close()

    batched_speedup = t_train_serial / t_train_batched
    parallel_speedup = t_train_serial / t_train_parallel
    print(
        f"train day : serial {t_train_serial:.2f}s | "
        f"batched {t_train_batched:.2f}s ({batched_speedup:.2f}x) | "
        f"{args.workers} workers {t_train_parallel:.2f}s "
        f"({parallel_speedup:.2f}x)"
    )
    assert batched_speedup >= args.min_batched_speedup, (
        f"batched speedup {batched_speedup:.2f}x below the "
        f"{args.min_batched_speedup}x floor"
    )
    assert parallel_speedup >= args.min_parallel_speedup, (
        f"parallel speedup {parallel_speedup:.2f}x below the "
        f"{args.min_parallel_speedup}x floor"
    )

    # --- DFL day of LSTM forecasters: per-model oracle vs stacked -----
    # Best of --repeats rounds; the side that runs first alternates per
    # round so run order and warm-up favour neither.
    t_fc_oracle = t_fc_stacked = float("inf")
    for rnd in range(args.repeats):
        for trainer_cls in (OracleDFLTrainer, DFLTrainer)[:: -1 if rnd % 2 else 1]:
            t, trainer = dfl_day(dataset, trainer_cls)
            if trainer_cls is DFLTrainer:
                t_fc_stacked, fc_stacked = min(t_fc_stacked, t), trainer
            else:
                t_fc_oracle, fc_oracle = min(t_fc_oracle, t), trainer
    assert forecasters_equal(fc_oracle, fc_stacked), (
        "stacked forecaster weights diverged from the per-model oracle"
    )
    forecast_speedup = t_fc_oracle / t_fc_stacked
    print(
        f"dfl.local : per-model {t_fc_oracle:.2f}s | "
        f"stacked {t_fc_stacked:.2f}s ({forecast_speedup:.2f}x, bit-identical)"
    )
    assert forecast_speedup >= args.min_forecast_speedup, (
        f"forecaster speedup {forecast_speedup:.2f}x below the "
        f"{args.min_forecast_speedup}x floor"
    )

    # --- greedy evaluation: per-step rollout vs vectorized rollout ---
    t_eval_serial, ev_serial = timed(lambda: serial_evaluate(serial), args.repeats)
    t_eval_vec, ev_vec = timed(serial.evaluate, args.repeats)
    assert evaluations_equal(ev_serial, ev_vec), (
        "vectorized evaluation is not bit-identical to the per-step rollout"
    )
    eval_speedup = t_eval_serial / t_eval_vec
    print(
        f"evaluate  : serial {t_eval_serial:.2f}s | "
        f"vectorized {t_eval_vec:.3f}s ({eval_speedup:.1f}x, bit-identical)"
    )
    assert eval_speedup >= args.min_eval_speedup, (
        f"eval speedup {eval_speedup:.2f}x below the "
        f"{args.min_eval_speedup}x floor"
    )

    out = {
        "environment": {
            "numpy": np.__version__,
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "git_sha": git_sha(),
        },
        "profile": {
            "residences": args.residences,
            "days": args.days,
            "minutes_per_day": args.minutes_per_day,
            "devices": args.devices.split(","),
            "agent_pairs": n_pairs,
            "learn_every": args.learn_every,
            "hidden_width": args.hidden_width,
        },
        "evaluate": {
            "serial_s": round(t_eval_serial, 4),
            "vectorized_s": round(t_eval_vec, 4),
            "speedup": round(eval_speedup, 2),
            "bit_identical": True,
        },
        "train_day": {
            "serial_s": round(t_train_serial, 4),
            "batched_s": round(t_train_batched, 4),
            "batched_speedup": round(batched_speedup, 2),
            "parallel_s": round(t_train_parallel, 4),
            "parallel_speedup": round(parallel_speedup, 2),
            "n_workers": args.workers,
            "workers_batched": True,
            "bit_identical": True,
        },
        "forecast_day": {
            "model": "lstm",
            "window": 10,
            "horizon": 10,
            "beta_hours": 6.0,
            "models": sum(len(c.device_types) for c in fc_stacked.clients),
            "per_model_dfl_local_s": round(t_fc_oracle, 4),
            "stacked_dfl_local_s": round(t_fc_stacked, 4),
            "dfl_local_speedup": round(forecast_speedup, 2),
            "timing": f"best of {args.repeats} alternating rounds",
            "bit_identical": True,
        },
    }
    Path(args.out).write_text(json.dumps(out, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
