"""Fast self-test of the benchmark at tiny sizes (a few seconds).

    python3 perfbench/selftest.py

Checks that:

- ``BENCHMARK.json`` lists exactly the metrics ``run.py`` emits, with
  the same units;
- an untraced and a traced run of a tiny workload emit every metric by
  name and unit and pass every correctness check;
- the checks trip when the serving layer returns a corrupted answer,
  and when the EMS policy earns less reward than always-off.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import sys

import run as bench  # also puts the checkout's src/ on sys.path
from repro.config import DataConfig, DQNConfig, FederationConfig, ForecastConfig, PFDRLConfig
from repro.core.pfdrl import PFDRLTrainer
from repro.serve import ModelSnapshot
from workloads import WORKLOADS


def tiny_config(seed: int) -> PFDRLConfig:
    return PFDRLConfig(
        data=DataConfig(n_residences=2, n_days=2, minutes_per_day=240,
                        device_types=("tv", "light"), seed=seed),
        forecast=ForecastConfig(model="lstm", window=10, horizon=10, hidden_size=4),
        dqn=DQNConfig(n_hidden_layers=2, hidden_width=8, learn_every=8),
        federation=FederationConfig(alpha=1, beta_hours=6, gamma_hours=6),
        episodes=1,
    )


TINY = dataclasses.replace(
    WORKLOADS["pipeline_lstm"], name="tiny", config=tiny_config,
    closed_queries=16, open_queries=20, open_rate_qps=200.0,
)


def run_tiny(trace: bool) -> dict:
    """One tiny run through the real entry points; returns the result line."""
    metrics, tally, tracer = bench.run(TINY, seed=3, seconds=0.1, trace=trace)
    meta = bench.run_metadata(TINY, 3, 0.1, trace)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = bench.report(meta, metrics, tally, tracer)
        print(json.dumps(result))
    last = json.loads(out.getvalue().strip().splitlines()[-1])
    assert last == json.loads(json.dumps(result))
    assert set(last) == {"correct", "attempted", "failed", "metrics"}, last.keys()
    return last


def expect(ok: bool, what: str, failures: list[str]) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def main() -> int:
    failures: list[str] = []
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {
        "e2e": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    expect(declared["e2e"] == bench.END_TO_END,
           "BENCHMARK.json end_to_end matches the emitted metrics", failures)
    expect(declared["layer"] == bench.PER_LAYER,
           "BENCHMARK.json per_layer matches the emitted metrics", failures)

    for trace, units in ((False, bench.END_TO_END), (True, bench.PER_LAYER)):
        result = run_tiny(trace)
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        expect(emitted == units, f"trace={int(trace)}: every metric emitted with its unit",
               failures)
        expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
               f"trace={int(trace)}: correct on the unmodified program", failures)

    schedule = ModelSnapshot.schedule

    def corrupted(self, queries):
        answers = schedule(self, queries)
        for answer in answers:
            device = next(iter(answer.actions))
            answer.actions[device] = (answer.actions[device] + 1) % 3
        return answers

    ModelSnapshot.schedule = corrupted
    try:
        result = run_tiny(False)
    finally:
        ModelSnapshot.schedule = schedule
    expect(not result["correct"] and result["failed"] > 0,
           "a corrupted serving answer makes the run incorrect", failures)

    evaluate = PFDRLTrainer.evaluate

    def worse_than_off(self, *args, **kwargs):
        ems = evaluate(self, *args, **kwargs)
        return dataclasses.replace(ems, reward_fraction=ems.reward_fraction - 1.0)

    PFDRLTrainer.evaluate = worse_than_off
    try:
        result = run_tiny(False)
    finally:
        PFDRLTrainer.evaluate = evaluate
    expect(not result["correct"] and result["failed"] > 0,
           "an EMS policy below always-off makes the run incorrect", failures)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
