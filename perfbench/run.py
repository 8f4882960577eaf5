"""Repository benchmark: one workload, end-to-end or per-layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload pipeline_lstm --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped, in
rounds of (set-up, training run, batched serving passes, single-query
pass), and reports times in reference-host seconds (``hostclock.py``)
so that the shared host's slow stretches do not read as a change in
the program.  ``--trace 1`` runs the training untraced, traced (spans around
the calls listed in ``layers.py``) and untraced again, serves the model
in traced micro-batches and then in an untraced open loop, checks that
traced and untraced results agree, and reports the per-layer metrics,
the share of wall time the spans cover and the tracing overhead.  Both
modes check the outputs (``Tally``); any failed operation or check makes
``correct`` false and the exit code 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
give the run metadata, each metric with its unit, and every check.  The
full result (and, when traced, every span) is written to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import layers  # noqa: E402
from hostclock import HostClock  # noqa: E402
from repro.serve import ServingEngine  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    MICRO_BATCH,
    WORKLOADS,
    batch_starts,
    closed_pass,
    exactly_once,
    in_unit_interval,
    load_snapshot,
    make_inputs,
    open_loop,
    oracle_mismatches,
    residence_days_per_s,
    reward_fractions,
    same_answer,
    sample_indices,
    single_pass,
    train_once,
)

OUT_DIR = os.path.join(ROOT, ".perfbench_out")
#: Input generations and snapshot loads timed in every round.
SETUP_REPS = 3
#: Three data seeds, then the first one again (see ``run_untraced``).
MIN_ROUNDS = 4
MAX_ROUNDS = 6
#: Share of ``--seconds`` spent serving, split over the rounds.
SERVE_SHARE = 0.25
#: Answers per serving phase checked against the per-request controller.
ORACLE_SAMPLE = 16
#: How far (share of the optimal reward) the EMS policy may fall below
#: the always-off policy.  Over seeds 1-3, 101, 102 of both workloads
#: always-off earns 0.38-0.57, a uniformly random or always-standby
#: policy -0.03-0.14 and always-on a negative share; trained policies
#: read at most 0.023 below always-off.
ALWAYS_OFF_SLACK = 0.1

END_TO_END = {
    "setup_s": "s",
    "residence_days_per_s": "1/s",
    "peak_rss_mb": "MB",
    "forecast_accuracy": "fraction",
    "standby_saved_frac": "fraction",
    "serve_qps": "q/s",
    "serve_single_ms": "ms",
}
PER_LAYER = {name: unit for name, unit, *_ in layers.LAYER_METRICS}


class Tally:
    """Operations attempted and failed, plus named pass/fail checks.

    Operations are training runs, served queries and oracle comparisons;
    each check also counts as one operation.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks: list[tuple[str, bool, str]] = []

    def ops(self, n: int, failed: int = 0) -> None:
        self.attempted += n
        self.failed += failed

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))
        self.ops(1, 0 if ok else 1)

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0


# ----------------------------------------------------------------------
def git_sha(root: str) -> str:
    """HEAD commit read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git, ref)) as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_metadata(w, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "workload": w.name,
        "label": w.label,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_sha": git_sha(ROOT),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def scratch_dir() -> tempfile.TemporaryDirectory:
    """Checkpoint stores live inside the checkout and go when the run ends."""
    os.makedirs(OUT_DIR, exist_ok=True)
    return tempfile.TemporaryDirectory(prefix="run-", dir=OUT_DIR)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_training(tally: Tally, run) -> None:
    acc = run.result.forecast_accuracy
    frac = run.result.ems.saved_standby_fraction
    tally.check("forecast_accuracy finite and in [0, 1]", in_unit_interval(acc), repr(acc))
    tally.check("standby_saved_frac finite and in [0, 1]", in_unit_interval(frac), repr(frac))
    # standby_saved_frac reads 1.0 for an always-off policy too, so it
    # cannot tell a learned policy from a broken one; the reward can.
    ems, off = reward_fractions(run)
    tally.check(
        f"EMS reward share at least always-off's less {ALWAYS_OFF_SLACK}",
        np.isfinite(ems) and ems >= off - ALWAYS_OFF_SLACK,
        f"ems={ems:.4f} always_off={off:.4f}",
    )


def check_oracle(tally: Tally, phase: str, seed: int, snapshot, queries, answers) -> None:
    sample = sample_indices(seed, len(queries), ORACLE_SAMPLE)
    bad = oracle_mismatches(snapshot, queries, answers, sample)
    tally.ops(len(sample), bad)
    tally.check(f"{phase}: sampled answers equal the per-request controller",
                bad == 0, f"{bad}/{len(sample)} differ")


# ----------------------------------------------------------------------
def round_seed(seed: int, r: int) -> int:
    """Data seed of round ``r``: the run's own seed first, then ones derived from it."""
    if r == 0:
        return seed
    return int(np.random.SeedSequence([seed, r]).generate_state(1)[0])


def run_untraced(w, seed: int, seconds: float, tally: Tally) -> dict[str, float]:
    """End-to-end metrics, with nothing wrapped.

    The run repeats rounds of (input generation and snapshot loads,
    training run, alternating batched and single-query passes), at least
    ``MIN_ROUNDS`` and as many as fit in ``seconds`` judging by the first
    round.  Every time is read from a ``HostClock`` in reference-host
    seconds, and each time metric is the median over the run's samples.

    Rounds train on different data seeds derived from ``seed`` and the
    quality guards are their mean, so one seed's luck moves a guard less;
    the last round repeats the first round's seed, which checks that
    training is deterministic.
    """
    generated, loaded, trained, closed, single = [], [], [], [], []
    fingerprints: dict[int, list[str]] = {}
    quality: dict[int, tuple[float, float]] = {}

    with HostClock() as clock, scratch_dir() as workdir:
        def timed(regions: list, make):
            gc.collect()  # no collection of earlier garbage inside the timing
            with clock.region() as region:
                made = make()
            regions.append(region)
            return made

        rounds, r, start = MIN_ROUNDS, 0, time.perf_counter()
        while r < rounds:
            data_seed = round_seed(seed, 0 if r == rounds - 1 else r)
            config = w.config(data_seed)
            for _ in range(SETUP_REPS):
                inputs = timed(generated, lambda: make_inputs(
                    w, config, data_seed, open_loop=False))
            run = timed(trained, lambda: train_once(config, inputs.dataset, workdir))
            tally.ops(1)
            fingerprints.setdefault(data_seed, []).append(run.fingerprint())
            quality[data_seed] = (float(run.result.forecast_accuracy),
                                  float(run.result.ems.saved_standby_fraction))
            check_training(tally, run)
            for _ in range(SETUP_REPS):
                snapshot = timed(loaded, lambda: load_snapshot(config, run.store_dir))
            engine = ServingEngine(snapshot, max_batch=MICRO_BATCH)

            block_end = time.perf_counter() + SERVE_SHARE * seconds / MIN_ROUNDS
            while True:  # at least one pass of each per round
                batched = timed(closed, lambda: closed_pass(engine, inputs.closed)[1])
                tally.ops(len(batched))
                alone = timed(single, lambda: single_pass(engine, inputs.closed))
                tally.ops(len(alone))
                if time.perf_counter() >= block_end:
                    break
            if r == 0:
                fit = int(seconds / (time.perf_counter() - start))
                rounds = min(MAX_ROUNDS, max(MIN_ROUNDS, fit))
            r += 1

    repeats = [runs for runs in fingerprints.values() if len(runs) > 1]
    tally.check("training on the same data seed twice gives identical results",
                bool(repeats) and all(len(set(runs)) == 1 for runs in repeats),
                f"{rounds} rounds over {len(fingerprints)} data seeds")
    check_oracle(tally, "micro-batches", data_seed, snapshot, inputs.closed, batched)
    tally.check("each query answered alone equals its answer in a micro-batch",
                all(same_answer(a, b) for a, b in zip(alone, batched)))

    def median_s(regions: list) -> float:
        return statistics.median(clock.scaled(g) for g in regions)

    n_queries = len(inputs.closed)
    speeds = [clock.speed(g) for g in trained]
    print(f"host speed during training, relative to the reference host: "
          f"{' '.join(f'{s:.3f}' for s in speeds)}")
    print(f"unscaled residence_days_per_s "
          f"{residence_days_per_s(config, statistics.median(g.raw_s for g in trained)):.6g}"
          f" 1/s, serve_qps "
          f"{n_queries / statistics.median(g.raw_s for g in closed):.6g} q/s")
    return {
        "setup_s": median_s(generated) + median_s(loaded),
        "residence_days_per_s": residence_days_per_s(config, median_s(trained)),
        "peak_rss_mb": peak_rss_mb(),
        "forecast_accuracy": statistics.fmean(a for a, _ in quality.values()),
        "standby_saved_frac": statistics.fmean(s for _, s in quality.values()),
        "serve_qps": n_queries / median_s(closed),
        "serve_single_ms": median_s(single) / n_queries * 1e3,
    }


def dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files
    )


def run_traced(w, seed: int, seconds: float, tally: Tally) -> tuple[dict[str, float], Tracer]:
    """Per-layer metrics from one traced run, checked against two untraced ones."""
    config = w.config(seed)
    tracer = Tracer()
    values: dict[str, float] = {"persist.save_bytes": 0.0}

    def count_save_bytes(args, path) -> None:
        values["persist.save_bytes"] += dir_bytes(path)

    tracer.after["persist.save"] = count_save_bytes
    try:
        layers.install(tracer)
        tracer.active, tracer.run_id = True, "setup"
        inputs = make_inputs(w, config, seed, open_loop=True)
        tracer.uninstall()

        with scratch_dir() as workdir:
            # Untraced runs on both sides of the traced one, so drift
            # during the run does not read as tracing overhead.
            plain = [train_once(config, inputs.dataset, workdir)]
            layers.install(tracer)
            tracer.active, tracer.run_id = True, "train"
            with tracer.span("system.run"):
                traced = train_once(config, inputs.dataset, workdir)
            tracer.active, tracer.run_id = True, "serve"
            snapshot = load_snapshot(config, traced.store_dir)
            tracer.active = False
            plain.append(train_once(config, inputs.dataset, workdir))
            tally.ops(3)
        tally.check("traced training gives the untraced result",
                    all(traced.fingerprint() == p.fingerprint() for p in plain))
        check_training(tally, traced)

        engine = ServingEngine(snapshot, max_batch=MICRO_BATCH)
        tracer.active = True
        with tracer.span("serve.closed"):
            _, closed_answers = closed_pass(engine, inputs.closed)
        tracer.active = False
        _, plain_answers = closed_pass(engine, inputs.closed)
        tally.ops(2 * len(closed_answers))
        tally.check(
            "traced serving gives the untraced answers",
            all(same_answer(a, b) for a, b in zip(closed_answers, plain_answers)),
        )
    finally:
        tracer.uninstall()
    # The open loop runs unwrapped, so its latencies carry no tracing cost.
    with batch_starts(inputs.open) as batches:
        loop = open_loop(snapshot, inputs.open, inputs.arrivals)
    tally.ops(len(inputs.open), loop.failed + loop.dropped)
    tally.check("open loop: every query answered exactly once, none dropped",
                exactly_once(inputs.open, loop),
                f"served={loop.served} dropped={loop.dropped} failed={loop.failed}")
    check_oracle(tally, "micro-batches", seed, snapshot, inputs.closed, closed_answers)
    check_oracle(tally, "open loop", seed, snapshot, inputs.open, loop.answers)

    waits_ms = [
        (start - loop.submitted_at[i]) * 1e3 for start, members in batches for i in members
    ]
    stats = [traced.system.dfl.bus.stats, traced.system.drl.bus.stats]
    table = tracer.table()
    values.update({
        "transport.messages": sum(s.n_messages for s in stats),
        "transport.tx_params": sum(s.n_tx_params for s in stats),
        "rl.sgd_steps": sum(r.sgd_steps for r in traced.result.drl_history),
        "serve.open_p50_ms": float(np.percentile(loop.latency_s * 1e3, 50)),
        "serve.open_p99_ms": float(np.percentile(loop.latency_s * 1e3, 99)),
        "serve.queue_wait_p50_ms": float(np.percentile(waits_ms, 50)),
        "serve.queue_wait_p99_ms": float(np.percentile(waits_ms, 99)),
        "serve.batch_size_mean": float(np.mean([len(m) for _, m in batches])),
        "loadgen.lag_p99_ms": float(np.percentile(loop.lag_s, 99) * 1e3),
        "trace.attributed_frac": table.attributed_frac(layers.ROOTS),
        "trace.overhead_frac": traced.wall_s / statistics.mean(p.wall_s for p in plain) - 1.0,
    })
    return layers.layer_values(table, tracer.counts, values), tracer


# ----------------------------------------------------------------------
def run(w, seed: int, seconds: float, trace: bool) -> tuple[dict, Tally, Tracer | None]:
    """Metrics (name -> value), the tally, and the tracer when traced."""
    tally = Tally()
    tracer = None
    try:
        if trace:
            metrics, tracer = run_traced(w, seed, seconds, tally)
        else:
            metrics = run_untraced(w, seed, seconds, tally)
    except Exception:  # a raised run is a failed operation, reported below
        traceback.print_exc()
        tally.ops(1, 1)
        metrics = {}
    return metrics, tally, tracer


def report(meta: dict, metrics: dict, tally: Tally, tracer: Tracer | None) -> dict:
    """Print the human-readable lines, write the out file, return the result."""
    units = PER_LAYER if meta["trace"] else END_TO_END
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, unit in units.items():
        if name in metrics:
            print(f"metric {name:<36} {metrics[name]:>14.6g} {unit}")
    for name, ok, detail in tally.checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
    failed_frac = tally.failed / max(1, tally.attempted)
    print(f"failed_frac {failed_frac:.6g} ({tally.failed}/{tally.attempted} operations)")
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items() if name in metrics
        },
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{meta['workload']}-seed{meta['seed']}-trace{meta['trace']}"
    record = {"meta": meta, "result": result, "failed_frac": failed_frac,
              "checks": tally.checks}
    if tracer is not None:
        record["spans"] = tracer.spans
        record["counts"] = dict(tracer.counts)
        record["layer_map"] = [
            {"metric": n, "unit": u, "moves": m} for n, u, _b, _s, m in layers.LAYER_METRICS
        ]
    with open(os.path.join(OUT_DIR, stem + ".json"), "w") as fh:
        json.dump(record, fh)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    meta = run_metadata(w, args.seed, args.seconds, bool(args.trace))
    metrics, tally, tracer = run(w, args.seed, args.seconds, bool(args.trace))
    result = report(meta, metrics, tally, tracer)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
