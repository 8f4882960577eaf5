"""Which calls are traced, and the per-layer metrics computed from them.

``SPANS`` and ``COUNTS`` name the public functions and methods of
``repro`` the traced run wraps.  ``LAYER_METRICS`` defines every
per-layer metric: where its value comes from, and which end-to-end
metric (on which workload) a change in that layer should move.  This
table is the layer → end-to-end map that later performance work cites.

Metric sources:

- ``("self", span)``: seconds inside ``span`` minus its child spans;
- ``("total", span)``: inclusive seconds of ``span``;
- ``("under", parent, span)``: inclusive seconds of ``span`` called
  directly from ``parent``;
- ``("calls", span)``: number of ``span`` calls;
- ``("count", name)``: number of calls of a counted (not spanned) method;
- ``("value", key)``: a value the run computes itself (bus counters,
  open-loop statistics, trace coverage and overhead).

Times are summed over one traced run of the workload: one
``PFDRLSystem.run()`` plus its set-up and serving phases.

``serve.open_p50_ms`` and ``serve.open_p99_ms`` are the open-loop
latencies, timed from each query's due time, measured with no span
wrappers installed.  They are end-user metrics kept here, without a
bound, because on a shared 2-vCPU host they follow the host's thread
wake-up delays and speed states more than the program: the same query
took 9.5 ms or 17 ms depending on which state the host was in, and one
stall of a few hundred ms sets p99.  One traced run of each workload
read p50 20.7 ms / p99 79 ms (pipeline_lstm, 30 q/s) and 1.0 / 8.5 ms
(federation_mesh, 400 q/s).
"""

from __future__ import annotations

import importlib

# (module, attribute path, span name)
SPANS = (
    ("repro.data.generator", "generate_neighborhood", "data.generate"),
    ("repro.core.streams", "build_streams", "streams.build"),
    ("repro.forecast.base", "Forecaster.fit", "forecast.fit"),
    ("repro.forecast.base", "Forecaster.predict", "forecast.predict"),
    ("repro.nn.lstm", "LSTM.forward", "nn.lstm.forward"),
    ("repro.nn.lstm", "LSTM.backward", "nn.lstm.backward"),
    ("repro.nn.optim", "Adam.step", "nn.adam.step"),
    ("repro.federated.dfl", "DFLTrainer.run_day", "dfl.run_day"),
    ("repro.federated.dfl", "DFLClient.train_segment", "dfl.train_segment"),
    ("repro.federated.dfl", "DFLTrainer.mean_accuracy", "dfl.mean_accuracy"),
    ("repro.federated.transport", "MessageBus.broadcast", "transport.broadcast"),
    ("repro.federated.transport", "MessageBus.collect", "transport.collect"),
    ("repro.nn.serialization", "average_weights", "aggregate.average_weights"),
    ("repro.core.personalization", "PersonalizationManager.apply_aggregation",
     "personalization.apply_aggregation"),
    ("repro.core.pfdrl", "PFDRLTrainer.run_day", "pfdrl.run_day"),
    ("repro.core.pfdrl", "PFDRLTrainer.finalize", "pfdrl.finalize"),
    ("repro.core.pfdrl", "PFDRLTrainer.evaluate", "pfdrl.evaluate"),
    ("repro.rl.dqn", "DQNAgent.run_episode", "rl.run_episode"),
    ("repro.rl.dqn", "DQNAgent.learn_step", "rl.learn_step"),
    ("repro.rl.batch", "BatchedEpisodeEngine.run_chunk", "rl.run_chunk"),
    ("repro.rl.batch", "StackedQNet.forward_batch", "qnet.forward_batch"),
    ("repro.persist.store", "CheckpointStore.save", "persist.save"),
    ("repro.persist.store", "CheckpointStore.load", "persist.load"),
    ("repro.serve.snapshot", "ModelSnapshot.schedule", "serve.schedule"),
    ("repro.core.controller", "forecast_block", "serve.forecast_block"),
)

# Per-minute hot calls: counted, not spanned.
COUNTS = (
    ("repro.rl.env", "DeviceEnv.step", "rl.env_step"),
    ("repro.rl.dqn", "DQNAgent.act", "rl.act"),
    ("repro.rl.replay", "ReplayBuffer.push", "rl.replay_push"),
)

# Root spans the benchmark opens around its own phases.
ROOTS = ("system.run", "serve.closed")

P, M, ALL = "pipeline_lstm", "federation_mesh", "all"
RDS, SETUP = "residence_days_per_s", "setup_s"
QPS, ONE = "serve_qps", "serve_single_ms"
P50, P99 = "serve.open_p50_ms", "serve.open_p99_ms"

# name, unit, better, source, moves (end-to-end metric @ workload)
LAYER_METRICS = (
    ("data.generate_s", "s", "lower", ("self", "data.generate"), f"{SETUP}@{ALL}"),
    ("streams.build_s", "s", "lower", ("self", "streams.build"), f"{RDS}@{P}"),
    ("forecast.fit_s", "s", "lower", ("self", "forecast.fit"), f"{RDS}@{P}"),
    ("forecast.fit_calls", "count", "lower", ("calls", "forecast.fit"), f"{RDS}@{P}"),
    ("forecast.predict_s", "s", "lower", ("self", "forecast.predict"), f"{QPS},{ONE},{P50}@{P}"),
    ("forecast.predict_calls", "count", "lower", ("calls", "forecast.predict"), f"{QPS}@{P}"),
    ("nn.lstm.forward_s", "s", "lower", ("self", "nn.lstm.forward"), f"{RDS},{QPS},{ONE}@{P}"),
    ("nn.lstm.forward_calls", "count", "lower", ("calls", "nn.lstm.forward"), f"{RDS},{QPS}@{P}"),
    ("nn.lstm.backward_s", "s", "lower", ("self", "nn.lstm.backward"), f"{RDS}@{P}"),
    ("nn.adam.step_s", "s", "lower", ("self", "nn.adam.step"), f"{RDS}@{P}"),
    ("dfl.run_day_s", "s", "lower", ("self", "dfl.run_day"), f"{RDS}@{P}"),
    ("dfl.train_segment_s", "s", "lower", ("self", "dfl.train_segment"), f"{RDS}@{P}"),
    ("dfl.train_segment_calls", "count", "lower", ("calls", "dfl.train_segment"), f"{RDS}@{P}"),
    ("dfl.mean_accuracy_s", "s", "lower", ("self", "dfl.mean_accuracy"), f"{RDS}@{P}"),
    ("transport.broadcast_s", "s", "lower", ("self", "transport.broadcast"), f"{RDS}@{M}"),
    ("transport.broadcast_calls", "count", "lower", ("calls", "transport.broadcast"), f"{RDS}@{M}"),
    ("transport.collect_s", "s", "lower", ("self", "transport.collect"), f"{RDS}@{M}"),
    ("transport.messages", "count", "lower", ("value", "transport.messages"), f"{RDS}@{M}"),
    ("transport.tx_params", "count", "lower", ("value", "transport.tx_params"), f"{RDS}@{M}"),
    ("aggregate.average_weights_s", "s", "lower", ("self", "aggregate.average_weights"), f"{RDS}@{M}"),
    ("aggregate.average_weights_calls", "count", "lower", ("calls", "aggregate.average_weights"), f"{RDS}@{M}"),
    ("personalization.apply_aggregation_s", "s", "lower",
     ("self", "personalization.apply_aggregation"), f"{RDS}@{M}"),
    ("pfdrl.run_day_s", "s", "lower", ("self", "pfdrl.run_day"), f"{RDS}@{ALL}"),
    ("pfdrl.evaluate_s", "s", "lower", ("self", "pfdrl.evaluate"), f"{RDS}@{P}"),
    ("pfdrl.finalize_s", "s", "lower", ("self", "pfdrl.finalize"), f"{RDS}@{M}"),
    ("rl.sgd_steps", "count", "higher", ("value", "rl.sgd_steps"), f"{RDS}@{P}"),
    ("rl.learn_step_s", "s", "lower", ("self", "rl.learn_step"), f"{RDS}@{P}"),
    ("rl.learn_step_calls", "count", "lower", ("calls", "rl.learn_step"), f"{RDS}@{P}"),
    ("rl.run_episode_s", "s", "lower", ("self", "rl.run_episode"), f"{RDS}@{P}"),
    ("rl.run_episode_calls", "count", "lower", ("calls", "rl.run_episode"), f"{RDS}@{P}"),
    ("rl.run_chunk_s", "s", "lower", ("self", "rl.run_chunk"), f"{RDS}@{P}"),
    ("rl.run_chunk_calls", "count", "lower", ("calls", "rl.run_chunk"), f"{RDS}@{P}"),
    ("rl.env_step_calls", "count", "lower", ("count", "rl.env_step"), f"{RDS}@{P}"),
    ("rl.act_calls", "count", "lower", ("count", "rl.act"), f"{RDS}@{P}"),
    ("rl.replay_push_calls", "count", "lower", ("count", "rl.replay_push"), f"{RDS}@{P}"),
    ("persist.save_s", "s", "lower", ("self", "persist.save"), f"{RDS}@{P}"),
    ("persist.save_calls", "count", "lower", ("calls", "persist.save"), f"{RDS}@{P}"),
    ("persist.save_bytes", "bytes", "lower", ("value", "persist.save_bytes"), f"{RDS}@{P}"),
    ("persist.load_s", "s", "lower", ("self", "persist.load"), f"{SETUP}@{ALL}"),
    ("serve.schedule_s", "s", "lower", ("total", "serve.schedule"), f"{QPS}@{P}"),
    ("serve.forecast_block_s", "s", "lower", ("total", "serve.forecast_block"), f"{QPS},{ONE},{P50}@{P}"),
    ("serve.forecast_block_calls", "count", "lower", ("calls", "serve.forecast_block"), f"{QPS},{ONE},{P50}@{P}"),
    ("serve.forward_batch_s", "s", "lower", ("under", "serve.schedule", "qnet.forward_batch"),
     f"{QPS},{ONE},{P50}@{P}"),
    ("serve.assemble_s", "s", "lower", ("self", "serve.schedule"), f"{QPS}@{P}"),
    ("serve.open_p50_ms", "ms", "lower", ("value", "serve.open_p50_ms"), "-"),
    ("serve.open_p99_ms", "ms", "lower", ("value", "serve.open_p99_ms"), "-"),
    ("serve.queue_wait_p50_ms", "ms", "lower", ("value", "serve.queue_wait_p50_ms"), f"{P50}@{ALL}"),
    ("serve.queue_wait_p99_ms", "ms", "lower", ("value", "serve.queue_wait_p99_ms"), f"{P99}@{ALL}"),
    ("serve.batch_size_mean", "queries", "higher", ("value", "serve.batch_size_mean"), f"{P99}@{ALL}"),
    ("loadgen.lag_p99_ms", "ms", "lower", ("value", "loadgen.lag_p99_ms"), f"{P99}@{ALL}"),
    ("trace.attributed_frac", "fraction", "higher", ("value", "trace.attributed_frac"), "-"),
    ("trace.overhead_frac", "fraction", "lower", ("value", "trace.overhead_frac"), "-"),
)


def resolve(module: str, path: str):
    """``(owner, attr)`` for ``module`` + ``"Class.attr"`` or ``"func"``."""
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def install(tracer) -> None:
    """Wrap every call in ``SPANS`` and ``COUNTS``."""
    for module, path, name in SPANS:
        owner, attr = resolve(module, path)
        if isinstance(owner, type):
            tracer.wrap_method(owner, attr, name)
        else:
            tracer.wrap_function(getattr(owner, attr), name)
    for module, path, name in COUNTS:
        owner, attr = resolve(module, path)
        tracer.wrap_method(owner, attr, name, count=True)


def layer_values(table, counts, values: dict) -> dict[str, float]:
    """Evaluate ``LAYER_METRICS`` over one traced run."""
    out: dict[str, float] = {}
    for name, _unit, _better, source, _moves in LAYER_METRICS:
        kind, *key = source
        if kind == "self":
            out[name] = table.self_time.get(key[0], 0.0)
        elif kind == "total":
            out[name] = table.total.get(key[0], 0.0)
        elif kind == "under":
            out[name] = table.under.get((key[0], key[1]), 0.0)
        elif kind == "calls":
            out[name] = float(table.calls.get(key[0], 0))
        elif kind == "count":
            out[name] = float(counts.get(key[0], 0))
        else:
            out[name] = float(values[key[0]])
    return out
