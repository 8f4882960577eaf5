"""Seeded query load generator for the serving layer.

Generates ``n`` next-hour schedule queries cycled over the trained
residences of the snapshot's config (query ``i`` asks for residence
``i % n_residences``).  Each query's metered readings are drawn from a
freshly generated day and jittered per query (random day offset +
per-device scale), so a 100k-query load test exercises realistic,
distinct traces over a handful of trained homes.  Fully deterministic
given ``seed`` — the bench, the CLI demo and the tests all share it.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.config import PFDRLConfig
from repro.data.generator import generate_neighborhood
from repro.rng import hash_seed
from repro.serve.snapshot import ScheduleQuery

__all__ = ["iter_queries", "make_queries", "default_trace_minutes"]


def default_trace_minutes(config: PFDRLConfig) -> int:
    """Enough minutes for several model-backed forecast refreshes.

    The first ``window`` minutes run on the persistence fallback; six
    horizons past that exercises the real forecaster path a few times —
    the serving equivalent of "the next hour" at the run's geometry.
    """
    horizon = int(config.forecast.horizon)
    return min(
        int(config.data.minutes_per_day),
        int(config.forecast.window) + 6 * horizon,
    )


def iter_queries(
    config: PFDRLConfig,
    n_queries: int,
    *,
    trace_minutes: int | None = None,
    seed: int = 0,
) -> Iterator[ScheduleQuery]:
    """Yield *n_queries* deterministic queries over the trained residences."""
    if n_queries < 1:
        raise ValueError("n_queries must be >= 1")
    trace_minutes = trace_minutes or default_trace_minutes(config)
    # A fresh neighbourhood (different day seed) provides the metered
    # readings — same homes, unseen data, exactly like deployment.
    dataset = generate_neighborhood(
        config.data, seed=hash_seed(config.data.seed, "serve-load")
    )
    n_trained = int(config.data.n_residences)
    total = dataset.n_minutes
    if trace_minutes > total:
        raise ValueError(
            f"trace_minutes {trace_minutes} exceeds the generated "
            f"{total}-minute stream"
        )
    base = {
        rid: {dev: trace.power_kw for dev, trace in dataset[rid]}
        for rid in range(n_trained)
    }
    rng = np.random.default_rng(hash_seed(seed, "serve-queries"))
    max_offset = total - trace_minutes
    for qi in range(n_queries):
        rid = qi % n_trained
        offset = int(rng.integers(0, max_offset + 1))
        traces = base[rid]
        scales = rng.uniform(0.85, 1.15, size=len(traces))
        readings = {
            dev: series[offset : offset + trace_minutes] * scale
            for (dev, series), scale in zip(traces.items(), scales)
        }
        yield ScheduleQuery(
            residence_id=rid,
            readings=readings,
            t0=offset % int(config.data.minutes_per_day),
        )


def make_queries(
    config: PFDRLConfig,
    n_queries: int,
    *,
    trace_minutes: int | None = None,
    seed: int = 0,
) -> list[ScheduleQuery]:
    """Materialised :func:`iter_queries` (small bursts, tests, CLI)."""
    return list(
        iter_queries(config, n_queries, trace_minutes=trace_minutes, seed=seed)
    )
