"""Serving benchmark: batched engine vs per-request controllers.

Standalone (no pytest-benchmark dependency) so CI can run it with the
tier-1 package set:

    PYTHONPATH=src python benchmarks/bench_serve.py --out BENCH_serve.json

Trains one small PFDRL system, checkpoints it, loads the checkpoint as
an immutable :class:`repro.serve.ModelSnapshot`, then drives a seeded
synthetic query load (``repro.serve.loadgen``) at several query counts
(default 1k / 10k / 100k queries, cycled over the ``--residences``
trained homes with jittered readings — queries, not distinct
residences).  For each profile it measures:

- **batched**: chunked :meth:`ServingEngine.answer_batch` — one
  vectorised matmul per chunk; reports wall QPS and p50/p99 per-query
  service latency (the latency of the chunk that answered it).  Halfway
  through, the latest checkpoint is republished and hot-swapped in
  (:func:`republish_latest` + ``SnapshotWatcher.check_once``) — the
  generation stamp must flip mid-stream with zero dropped queries.
- **per-request baseline**: the same queries (a capped subsample)
  streamed one at a time through ``snapshot.controller().run_trace`` —
  the pre-serving deployment shape.  Answers must match the batched
  path action-for-action (asserted), so the speedup is apples to
  apples.

A separate threaded drill (``submit``/``result`` through the worker
queue, checkpoint republished mid-burst) pins the zero-drop hot-swap
contract in the concurrent shape.

``--min-speedup`` / ``--min-qps`` floors make CI fail on regression;
the committed ``BENCH_serve.json`` records achieved numbers plus
environment metadata (CPU count, git SHA) so a regression can be told
apart from a slower machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.config import (  # noqa: E402
    DataConfig,
    DQNConfig,
    ForecastConfig,
    PFDRLConfig,
)
from repro.core import PFDRLSystem  # noqa: E402
from repro.persist import CheckpointStore  # noqa: E402
from repro.serve import (  # noqa: E402
    ModelSnapshot,
    ServingEngine,
    SnapshotWatcher,
    make_queries,
    republish_latest,
)


def build_config(args) -> PFDRLConfig:
    return PFDRLConfig(
        data=DataConfig(
            n_residences=args.residences,
            n_days=args.days,
            minutes_per_day=args.minutes_per_day,
            device_types=tuple(args.devices.split(",")),
            heterogeneity=0.7,
            seed=7,
        ),
        forecast=ForecastConfig(model="lr", window=10, horizon=10),
        dqn=DQNConfig(hidden_width=args.hidden_width, reward_scale=1 / 30),
        episodes=1,
        seed=7,
    )


def git_sha() -> str:
    """HEAD of the checkout the bench runs from, ``-dirty`` when the tree
    has uncommitted changes ("unknown" outside git)."""
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return float("nan")
    idx = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[idx]


def assert_equal_answers(batched, per_request, where: str) -> None:
    for device in batched.actions:
        assert np.array_equal(
            batched.actions[device], per_request[device]
        ), f"{where}: batched answer diverged from per-request controller"


def run_profile(engine, watcher, store, config, n_queries, args):
    """One query count: batched QPS + latency, mid-stream swap, baseline."""
    queries = make_queries(
        config, n_queries, trace_minutes=args.trace_minutes, seed=args.seed
    )
    chunks = [
        queries[i : i + args.batch_size]
        for i in range(0, len(queries), args.batch_size)
    ]
    swap_at = len(chunks) // 2
    gen_before = engine.generation
    answers = []
    t0 = time.perf_counter()
    for ci, chunk in enumerate(chunks):
        if ci == swap_at:
            republish_latest(store)
            assert watcher.check_once(), "mid-stream hot-swap did not happen"
        answers.extend(engine.answer_batch(chunk))
    wall = time.perf_counter() - t0
    gen_after = engine.generation
    assert gen_after != gen_before, "generation must advance across the swap"
    assert {a.generation for a in answers} == {gen_before, gen_after}
    assert len(answers) == n_queries, "a query was dropped"

    latencies = sorted(a.latency_s for a in answers)
    qps = n_queries / wall

    # Per-request baseline on a subsample; answers must match exactly.
    sample = queries[: min(n_queries, args.baseline_queries)]
    snapshot = engine.snapshot
    t0 = time.perf_counter()
    for query, batched in zip(sample, answers):
        controller = snapshot.controller(query.residence_id, t0=query.t0)
        per_minute = controller.run_trace(dict(query.readings))
        serial = {
            device: np.asarray([m[device] for m in per_minute])
            for device in query.readings
        }
        assert_equal_answers(batched, serial, f"profile {n_queries}")
    baseline_wall = time.perf_counter() - t0
    baseline_qps = len(sample) / baseline_wall
    speedup = qps / baseline_qps

    print(
        f"  {n_queries:>7} queries: batched {qps:,.0f} q/s "
        f"(p50/p99 {percentile(latencies, 0.50) * 1e3:.2f}/"
        f"{percentile(latencies, 0.99) * 1e3:.2f} ms) | "
        f"per-request {baseline_qps:,.0f} q/s -> {speedup:.1f}x "
        f"| swap {gen_before} -> {gen_after}"
    )
    assert speedup >= args.min_speedup, (
        f"batched speedup {speedup:.2f}x below the {args.min_speedup}x floor"
    )
    assert qps >= args.min_qps, (
        f"batched throughput {qps:.0f} q/s below the {args.min_qps} floor"
    )
    return {
        "queries": n_queries,
        "trained_residences": args.residences,
        "batches": len(chunks),
        "wall_s": round(wall, 4),
        "qps": round(qps, 1),
        "p50_ms": round(percentile(latencies, 0.50) * 1e3, 3),
        "p99_ms": round(percentile(latencies, 0.99) * 1e3, 3),
        "hot_swap": {"from": gen_before, "to": gen_after, "dropped": 0},
        "baseline": {
            "queries": len(sample),
            "wall_s": round(baseline_wall, 4),
            "qps": round(baseline_qps, 1),
            "answers_identical": True,
        },
        "speedup": round(speedup, 1),
    }


def run_threaded_drill(engine, watcher, store, config, args):
    """Concurrent shape: worker queue, checkpoint republished mid-burst."""
    n = args.drill_queries
    queries = make_queries(
        config, n, trace_minutes=args.trace_minutes, seed=args.seed + 1
    )
    served_before = engine.queries_served
    engine.start()
    try:
        pendings = [engine.submit(q) for q in queries[: n // 2]]
        republish_latest(store)
        assert watcher.check_once(), "drill hot-swap did not happen"
        pendings += [engine.submit(q) for q in queries[n // 2 :]]
        answers = [p.result(timeout=300.0) for p in pendings]
    finally:
        engine.stop()
    generations = sorted({a.generation for a in answers})
    assert len(answers) == n
    assert engine.dropped == 0, f"{engine.dropped} queries dropped across swap"
    print(
        f"  threaded drill: {n} queries across swap "
        f"{' -> '.join(generations)}, dropped {engine.dropped}"
    )
    return {
        "queries": n,
        "served": engine.queries_served - served_before,
        "dropped": engine.dropped,
        "generations": generations,
        "zero_drops": True,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--residences", type=int, default=4,
                   help="trained homes (queries round-robin onto them)")
    p.add_argument("--days", type=int, default=3)
    p.add_argument("--minutes-per-day", type=int, default=240)
    p.add_argument("--devices", default="tv,light")
    p.add_argument("--hidden-width", type=int, default=16)
    p.add_argument("--profiles", default="1000,10000,100000",
                   help="comma-separated query counts per profile")
    p.add_argument("--trace-minutes", type=int, default=None,
                   help="minutes per query trace (default: loadgen's)")
    p.add_argument("--batch-size", type=int, default=256,
                   help="queries per engine batch")
    p.add_argument("--baseline-queries", type=int, default=64,
                   help="per-request baseline subsample cap")
    p.add_argument("--drill-queries", type=int, default=512)
    p.add_argument("--seed", type=int, default=123)
    p.add_argument("--min-speedup", type=float, default=5.0,
                   help="batched-vs-per-request QPS floor, every profile")
    p.add_argument("--min-qps", type=float, default=0.0)
    p.add_argument("--out", default="BENCH_serve.json")
    args = p.parse_args(argv)

    config = build_config(args)
    profiles = [int(x) for x in args.profiles.split(",") if x]
    print(
        f"model: {args.residences} residences x {args.devices}, "
        f"{args.days} x {args.minutes_per_day}-min days, "
        f"hidden {args.hidden_width}"
    )

    with tempfile.TemporaryDirectory() as ckpt_dir:
        store = CheckpointStore(ckpt_dir, keep_last=None)
        t0 = time.perf_counter()
        PFDRLSystem(config).run(checkpoint_store=store)
        print(f"trained + checkpointed in {time.perf_counter() - t0:.1f}s")

        snapshot = ModelSnapshot.load(store, config)
        engine = ServingEngine(snapshot, max_batch=args.batch_size)
        watcher = SnapshotWatcher(engine, store, config)
        results = [
            run_profile(engine, watcher, store, config, n, args)
            for n in profiles
        ]
        drill = run_threaded_drill(engine, watcher, store, config, args)

    out = {
        "environment": {
            "numpy": np.__version__,
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "git_sha": git_sha(),
        },
        "model_profile": {
            "residences": args.residences,
            "days": args.days,
            "minutes_per_day": args.minutes_per_day,
            "devices": args.devices.split(","),
            "hidden_width": args.hidden_width,
            "batch_size": args.batch_size,
            "trace_minutes": args.trace_minutes,
        },
        "profiles": results,
        "threaded_swap_drill": drill,
    }
    Path(args.out).write_text(json.dumps(out, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
