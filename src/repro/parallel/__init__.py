"""Parallel execution utilities.

The EMS simulation is embarrassingly parallel across residences (each
agent trains on its own data between share barriers), so the PFDRL
trainer and the segmented scale runner can fan residence shards out over
forked workers between synchronisation points.  Federated forecaster
fitting needs no pool: same-shape models train stacked in one process
(``Forecaster.fit_many``).

- :class:`repro.parallel.persistent.WorkerPool` — persistent *routed*
  forked workers that own long-lived state (the PFDRL training shards),
  addressed by index over private pipes.
- :class:`repro.parallel.shm.SharedArena` — anonymous shared-memory
  allocator; arrays carved before the fork are physically shared with
  every worker (the ``StackedQNet`` parameter arenas live here).
- :func:`repro.parallel.partition.partition_round_robin` /
  :func:`repro.parallel.partition.partition_chunks` — work splitting.
"""

from repro.parallel.partition import partition_chunks, partition_round_robin
from repro.parallel.persistent import WorkerError, WorkerPool, fork_available
from repro.parallel.shm import SharedArena

__all__ = [
    "SharedArena",
    "WorkerError",
    "WorkerPool",
    "fork_available",
    "partition_chunks",
    "partition_round_robin",
]
