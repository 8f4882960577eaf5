"""Stacked execution engine for EMS training and greedy evaluation.

The trainer's inner loop is the repo's hottest path: every simulated
minute does one Q-net forward per (residence, device) pair, each a
batch-of-1 matrix product, and every learn trigger runs a full
per-agent forward/backward/Adam step.  This module stacks both halves
across agents while keeping each agent's arithmetic intact:

- :class:`StackedQNet` — a zero-copy *parameter arena* over N
  same-architecture Q-networks.  All weight mutations in this codebase
  are in-place (``Adam.step`` subtracts into ``Parameter.data``,
  ``set_weights`` assigns with ``[...]``), so each agent's parameters
  can be rebound to views of one flat ``(N, P)`` arena (row ``i`` =
  agent ``i``'s parameters in order), whose per-layer ``(N, in, out)``
  views make one broadcast ``matmul`` per layer evaluate every agent
  at once.  With an ``allocator`` the arena lives in a
  :class:`repro.parallel.shm.SharedArena`, so forked workers and the
  parent share the same physical weight pages;
  :meth:`StackedQNet.view` slices a contiguous row range for a worker's
  shard without copying anything.
- :class:`StackedLearner` — the batched learn step.  Replay rings and
  counters are stacked the same way and the Adam moments and gradients
  live in ``(N, P)`` arrays of the arena's layout, so one minute of a
  wave becomes one stacked push + one stacked forward/backward (written
  straight into the gradient rows) + one flat
  :class:`repro.nn.optim.StackedAdam` step for every triggered agent,
  and a target sync is one row copy.
- :class:`BatchedEpisodeEngine` — episode-major stepping over many
  (agent, env) pairs.  Pairs are grouped into occurrence *waves*
  (wave k holds the k-th pair of every agent); each wave plays its
  whole episode before the next starts, so every agent sees exactly
  the serial ``DQNAgent.run_episode`` sequence.  Policy and replay RNG
  draws stay per-agent and in per-agent order.
- :func:`greedy_rollout` / :func:`schedule_rollout` — matrix-only
  greedy evaluation rollouts.

Bitwise-identity contract (verified by ``tests/test_rl_batch.py``
against the serial oracle in ``tests/ems_oracle.py``): ``np.matmul``
over stacked operands ``(M, B, d) @ (M, d, h)`` computes each item
exactly as the serial ``(B, d) @ (d, h)`` product — and the same holds
for the transposed backward products, ``sum``-reductions along the
batch axis, and the stacked Adam update — and no agent's observation
order changes, so training reproduces the serial per-agent loop
bit-for-bit in both agent scopes.  A single large gemm
``(T, d) @ (d, h)`` — used by greedy *evaluation* — is not
row-bitwise-stable in general, but greedy evaluation only consumes
``argmax`` of the Q-rows and Table-1 rewards are exact integers, so the
resulting ``EMSEvaluation`` arrays match the per-step rollout
bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from repro.nn.optim import StackedAdam, arena_width, carve
from repro.rl.dqn import DQNAgent
from repro.rl.env import DeviceEnv, apply_actions
from repro.rl.qnet import build_states
from repro.rl.replay import ReplayBuffer
from repro.rl.reward import reward_vector

__all__ = [
    "StackedQNet",
    "StackedLearner",
    "BatchedEpisodeEngine",
    "greedy_rollout",
    "schedule_rollout",
]


class StackedQNet:
    """Parameter arena + broadcast-batched forward over N Q-networks.

    All member networks must share one architecture.  On construction
    the members' parameters are copied into one ``(N, P)`` arena
    (:attr:`flat`, carved per parameter by :func:`repro.nn.optim.carve`)
    and each network's ``Parameter.data`` is rebound to its view, so
    later in-place updates — optimizer steps, federated ``set_weights``
    — write straight through to the arena with no copying or syncing.

    ``allocator`` (e.g. ``SharedArena.alloc``) places the arena in
    caller-provided memory; the default is a private heap array.
    """

    def __init__(self, qnets: list, allocator=None) -> None:
        if not qnets:
            raise ValueError("need at least one network to stack")
        ref = qnets[0]
        for qn in qnets[1:]:
            if (
                qn.in_dim != ref.in_dim
                or qn.out_dim != ref.out_dim
                or qn.hidden_sizes != ref.hidden_sizes
            ):
                raise ValueError("all stacked networks must share one architecture")
        self.qnets = list(qnets)
        self.in_dim = int(ref.in_dim)
        self.out_dim = int(ref.out_dim)
        #: Parameter shapes in each member's parameter order (W, b per layer).
        self.shapes = [p.data.shape for p in ref.parameters()]
        shape = (len(qnets), arena_width(self.shapes))
        #: (N, P) arena: row i holds network i's parameters.
        self.flat = np.empty(shape) if allocator is None else allocator(shape)
        views = carve(self.flat, self.shapes)
        for view, params in zip(views, zip(*(qn.parameters() for qn in qnets))):
            for i, param in enumerate(params):
                view[i] = param.data
        #: (N, fan_in, fan_out) weight and (N, fan_out) bias views per layer.
        self._weights: list[np.ndarray] = views[0::2]
        self._biases: list[np.ndarray] = views[1::2]
        # numpy collapses view chains to the ultimate owning ndarray, so
        # a member view's ``.base`` is the arena itself for a heap arena
        # but the shared buffer's array for an allocator-carved one;
        # record the owner so adoption checks work for both (and for
        # row-sliced shard views of either).
        base = self.flat.base
        self._root = self.flat if not isinstance(base, np.ndarray) else base
        self._bcache = None
        self._adopt()

    @property
    def n(self) -> int:
        return len(self.qnets)

    @classmethod
    def view(cls, parent: "StackedQNet", lo: int, hi: int) -> "StackedQNet":
        """Zero-copy row-slice view over members ``lo:hi`` of *parent*.

        The members stay bound to the parent's arena (the view shares
        memory), so training through the view writes straight into the
        parent arena — this is how forked shard workers train on the
        shared weight pages.
        """
        if not 0 <= lo < hi <= parent.n:
            raise ValueError(f"invalid view range [{lo}, {hi}) of {parent.n}")
        sub = object.__new__(cls)
        sub.qnets = parent.qnets[lo:hi]
        sub.in_dim = parent.in_dim
        sub.out_dim = parent.out_dim
        sub.shapes = parent.shapes
        sub.flat = parent.flat[lo:hi]
        sub._weights = [W[lo:hi] for W in parent._weights]
        sub._biases = [b[lo:hi] for b in parent._biases]
        sub._root = parent._root
        sub._bcache = None
        return sub

    def _adopt(self) -> None:
        for j, (W, b) in enumerate(zip(self._weights, self._biases)):
            for i, qn in enumerate(self.qnets):
                lin = qn._linears[j]
                lin.W.data = W[i]
                lin.b.data = b[i]

    def ensure_adopted(self) -> None:
        """Re-adopt any parameter that was rebound to a fresh array.

        Nothing in the repo rebinds ``Parameter.data`` today, but a
        defensive re-adoption (values copied into the arena, view bound
        back) keeps the arena correct if some future code path does.
        """
        for j, (W, b) in enumerate(zip(self._weights, self._biases)):
            for i, qn in enumerate(self.qnets):
                lin = qn._linears[j]
                if lin.W.data.base is not self._root:
                    W[i, ...] = lin.W.data
                    lin.W.data = W[i]
                if lin.b.data.base is not self._root:
                    b[i, ...] = lin.b.data
                    lin.b.data = b[i]

    def forward(self, states: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """Per-network forward: row ``i`` of *states* through network ``i``.

        ``rows`` selects which stacked network evaluates each state
        (defaults to ``0..n-1``, requiring ``states.shape[0] == n``).
        Uses broadcast ``matmul`` of ``(M, 1, d) @ (M, d, h)`` so each
        item is computed exactly as the serial batch-of-1 product.
        """
        h = np.asarray(states, dtype=np.float64)[:, None, :]
        last = len(self._weights) - 1
        for j, (W, b) in enumerate(zip(self._weights, self._biases)):
            if rows is not None:
                W = W[rows]
                b = b[rows]
            h = np.matmul(h, W) + b[:, None, :]
            if j < last:
                h = np.where(h > 0, h, 0.0)  # ReLU, as in nn.activations
        return h[:, 0, :]

    def forward_batch(
        self,
        states: np.ndarray,
        rows: np.ndarray | None = None,
        train: bool = False,
    ) -> np.ndarray:
        """Mini-batch forward: ``states[k]`` (shape ``(B, d)``) through
        network ``rows[k]`` (default ``0..n-1``), one broadcast matmul
        per layer.  With ``train=True`` the per-layer inputs and ReLU
        masks are cached for :meth:`backward_batch` — exactly what the
        serial ``Linear`` / ``ReLU`` modules cache.
        """
        h = np.asarray(states, dtype=np.float64)
        if rows is None:
            sel_w, sel_b = self._weights, self._biases
        else:
            sel_w = [W[rows] for W in self._weights]
            sel_b = [b[rows] for b in self._biases]
        last = len(sel_w) - 1
        xs: list[np.ndarray] = []
        masks: list[np.ndarray] = []
        for j, (W, b) in enumerate(zip(sel_w, sel_b)):
            if train:
                xs.append(h)
            h = np.matmul(h, W) + b[:, None, :]
            if j < last:
                mask = h > 0
                if train:
                    masks.append(mask)
                h = np.where(mask, h, 0.0)
        if train:
            self._bcache = (xs, masks, sel_w)
        return h

    def backward_batch(self, grad: np.ndarray, out: list[np.ndarray]) -> None:
        """Backprop *grad* through the cached :meth:`forward_batch` pass.

        Writes the per-layer ``dW``, ``db`` stacks for the rows the
        forward ran on into *out* (views in parameter order, e.g.
        :meth:`repro.nn.optim.StackedAdam.grad_views`).  Each row's
        products mirror the serial ``Linear.backward`` exactly:
        ``dW = x.T @ g``, ``db = g.sum(axis=0)``, ``dx = g @ W.T``
        (broadcast over the stacked axis via ``swapaxes`` views), and the
        ReLU masks gate the flowing gradient just like ``ReLU.backward``.
        """
        if self._bcache is None:
            raise RuntimeError("backward_batch called before forward_batch(train=True)")
        xs, masks, sel_w = self._bcache
        self._bcache = None
        g = grad
        for j in reversed(range(len(sel_w))):
            np.matmul(np.swapaxes(xs[j], 1, 2), g, out=out[2 * j])
            np.sum(g, axis=1, out=out[2 * j + 1])
            if j > 0:
                g = np.matmul(g, np.swapaxes(sel_w[j], 1, 2))
                g = np.where(masks[j - 1], g, 0.0)


class _StackedReplay:
    """Ring-buffer arena over N member :class:`ReplayBuffer`\\ s.

    Member arrays are rebound (value-preserving) to row views of
    stacked ``(N, capacity, ...)`` tensors, so per-member pushes and
    checkpoint loads stay in sync with the stack.  The scalar cursors
    (``_head`` / ``_size``) live in int arrays while the engine is
    stepping; :meth:`sync_in` / :meth:`sync_out` bridge them to the
    members at chunk boundaries.
    """

    _FIELDS = ("_states", "_actions", "_rewards", "_next_states", "_dones")

    def __init__(self, buffers: list[ReplayBuffer]) -> None:
        ref = buffers[0]
        for buf in buffers[1:]:
            if buf.capacity != ref.capacity or buf.state_dim != ref.state_dim:
                raise ValueError("all stacked replay buffers must share one shape")
        self.buffers = list(buffers)
        self.capacity = ref.capacity
        n = len(buffers)
        # Zeroed stacks plus a copy of each member's live rows only: the
        # untouched tail of a ring stays unwritten (and so unpaged), as
        # it is in a member filling its own buffer.  Rows past ``_size``
        # are never read before a push overwrites them.
        for name in self._FIELDS:
            ref_arr = getattr(ref, name)
            stack = np.zeros((n,) + ref_arr.shape, dtype=ref_arr.dtype)
            for i, buf in enumerate(buffers):
                stack[i, : buf._size] = getattr(buf, name)[: buf._size]
                setattr(buf, name, stack[i])
            setattr(self, name, stack)
        self._heads = np.array([b._head for b in buffers], dtype=np.int64)
        self._sizes = np.array([b._size for b in buffers], dtype=np.int64)

    @classmethod
    def view(cls, parent: "_StackedReplay", lo: int, hi: int) -> "_StackedReplay":
        sub = object.__new__(cls)
        sub.buffers = parent.buffers[lo:hi]
        sub.capacity = parent.capacity
        sub._states = parent._states[lo:hi]
        sub._actions = parent._actions[lo:hi]
        sub._rewards = parent._rewards[lo:hi]
        sub._next_states = parent._next_states[lo:hi]
        sub._dones = parent._dones[lo:hi]
        sub._heads = parent._heads[lo:hi]
        sub._sizes = parent._sizes[lo:hi]
        return sub

    def sync_in(self) -> None:
        for i, buf in enumerate(self.buffers):
            self._heads[i] = buf._head
            self._sizes[i] = buf._size

    def sync_out(self) -> None:
        for i, buf in enumerate(self.buffers):
            buf._head = int(self._heads[i])
            buf._size = int(self._sizes[i])

    def push_rows(
        self,
        rows: np.ndarray,
        states: np.ndarray,
        actions: np.ndarray,
        rewards: np.ndarray,
        next_states: np.ndarray,
        dones: np.ndarray,
    ) -> None:
        """Vectorised ``push`` for unique member *rows*.

        Inputs come straight from the policy/env step, so the serial
        ``push`` validation (shape, action range) is already satisfied.
        """
        heads = self._heads[rows]
        self._states[rows, heads] = states
        self._actions[rows, heads] = actions
        self._rewards[rows, heads] = rewards
        self._next_states[rows, heads] = next_states
        self._dones[rows, heads] = dones
        self._heads[rows] = (heads + 1) % self.capacity
        self._sizes[rows] = np.minimum(self._sizes[rows] + 1, self.capacity)

    def sample_rows(
        self, rows: np.ndarray, batch_size: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One uniform batch per member row, each from its own RNG.

        The index draw per row is the member's exact serial call
        (``rng.choice(size, batch, replace=False)``), so per-agent RNG
        streams stay identical to serial training.
        """
        idx = np.empty((len(rows), batch_size), dtype=np.int64)
        for k, i in enumerate(rows):
            idx[k] = self.buffers[i]._rng.choice(
                int(self._sizes[i]), size=batch_size, replace=False
            )
        sel = np.asarray(rows)[:, None]
        return (
            self._states[sel, idx],
            self._actions[sel, idx],
            self._rewards[sel, idx],
            self._next_states[sel, idx],
            self._dones[sel, idx],
        )


class StackedLearner:
    """Batched DQN learn step over the members of one share slot.

    Owns the stacked replay rings, the :class:`StackedAdam` moment
    arena, and int-array mirrors of the members' counters
    (``learn_steps`` / ``sgd_steps`` / ``_observed``).  One
    :meth:`observe_rows` call replaces a wave of per-agent
    ``DQNAgent.observe`` calls: a stacked replay push, a vectorised
    learn-trigger check, and — for the triggered rows — a single
    stacked forward/backward/Adam step whose per-row arithmetic is
    bit-identical to the serial ``DQNAgent.learn_step``.
    """

    def __init__(
        self, agents: list[DQNAgent], qstack: StackedQNet, tstack: StackedQNet
    ) -> None:
        ref = agents[0].config
        for agent in agents[1:]:
            if agent.config != ref:
                raise ValueError("all stacked agents must share one DQNConfig")
        self.agents = list(agents)
        self.config = ref
        self.qstack = qstack
        self.tstack = tstack
        self.replay = _StackedReplay([a.replay for a in agents])
        self.optim = StackedAdam([a.optimizer for a in agents], qstack.flat)
        self._learn_steps = np.array([a.learn_steps for a in agents], dtype=np.int64)
        self._sgd_steps = np.array([a.sgd_steps for a in agents], dtype=np.int64)
        self._observed = np.array([a._observed for a in agents], dtype=np.int64)

    @property
    def n(self) -> int:
        return len(self.agents)

    @classmethod
    def view(
        cls,
        parent: "StackedLearner",
        lo: int,
        hi: int,
        qstack: StackedQNet,
        tstack: StackedQNet,
    ) -> "StackedLearner":
        """Row-slice view for a shard worker (members ``lo:hi``)."""
        sub = object.__new__(cls)
        sub.agents = parent.agents[lo:hi]
        sub.config = parent.config
        sub.qstack = qstack
        sub.tstack = tstack
        sub.replay = _StackedReplay.view(parent.replay, lo, hi)
        sub.optim = StackedAdam.view(parent.optim, lo, hi)
        sub._learn_steps = parent._learn_steps[lo:hi]
        sub._sgd_steps = parent._sgd_steps[lo:hi]
        sub._observed = parent._observed[lo:hi]
        return sub

    def sync_in(self) -> None:
        """Pull member-side state (counters may have been restored)."""
        self.replay.sync_in()
        self.optim.sync_in()
        for i, agent in enumerate(self.agents):
            self._learn_steps[i] = agent.learn_steps
            self._sgd_steps[i] = agent.sgd_steps
            self._observed[i] = agent._observed

    def sync_out(self) -> None:
        """Write stacked counters back so member state_dicts are exact."""
        self.replay.sync_out()
        self.optim.sync_out()
        for i, agent in enumerate(self.agents):
            agent.learn_steps = int(self._learn_steps[i])
            agent.sgd_steps = int(self._sgd_steps[i])
            agent._observed = int(self._observed[i])

    def observe_rows(
        self,
        rows: np.ndarray,
        states: np.ndarray,
        actions: np.ndarray,
        rewards: np.ndarray,
        next_states: np.ndarray,
        dones: np.ndarray,
    ) -> None:
        """Store one transition per (unique) row, then learn where due.

        The trigger is the serial one — a full batch banked and every
        ``learn_every``-th observation — evaluated per row.
        """
        cfg = self.config
        self.replay.push_rows(rows, states, actions, rewards, next_states, dones)
        self._observed[rows] += 1
        due = (self.replay._sizes[rows] >= cfg.batch_size) & (
            self._observed[rows] % cfg.learn_every == 0
        )
        if due.any():
            self.learn_rows(rows[due])

    def learn_rows(self, rows: np.ndarray) -> None:
        """One stacked mini-batch TD update for the given member rows."""
        cfg = self.config
        batch = cfg.batch_size
        s, a, r, s2, done = self.replay.sample_rows(rows, batch)
        sel = None if len(rows) == self.n else rows
        q_next = self.tstack.forward_batch(s2, rows=sel)
        if cfg.double_q:
            best = self.qstack.forward_batch(s2, rows=sel).argmax(axis=2)
            next_vals = np.take_along_axis(q_next, best[..., None], axis=2)[..., 0]
        else:
            next_vals = q_next.max(axis=2)
        target_vals = r * cfg.reward_scale + cfg.discount * next_vals * (~done)

        q = self.qstack.forward_batch(s, rows=sel, train=True)
        chosen = np.take_along_axis(q, a[..., None], axis=2)[..., 0]
        # Huber gradient, exactly as nn.losses.HuberLoss (n = batch).
        diff = chosen - target_vals
        quad = np.abs(diff) <= cfg.huber_delta
        dchosen = np.where(quad, diff, cfg.huber_delta * np.sign(diff)) / batch
        grad = np.zeros_like(q)
        np.put_along_axis(grad, a[..., None], dchosen[..., None], axis=2)
        self.qstack.backward_batch(grad, out=self.optim.grad_views(len(rows)))
        self.optim.step(rows=sel)

        self._learn_steps[rows] += 1
        self._sgd_steps[rows] += 1
        sync = rows[self._learn_steps[rows] % cfg.target_replace_iter == 0]
        if len(sync):
            self.tstack.flat[sync] = self.qstack.flat[sync]


class BatchedEpisodeEngine:
    """Episode-major stacked stepping for a set of DQN agents.

    Construction groups the agents exactly as the trainer's federation
    share groups do — one :class:`StackedQNet` per slot (``"*"`` in
    residence scope, one per device type in device scope) for both the
    online and target networks, plus one :class:`StackedLearner`.  The
    arena views stay bound for the trainer's lifetime, so share rounds
    and checkpoint restores (both in-place) need no re-sync.
    ``allocator`` places the weight stacks in shared memory for the
    persistent-pool training path; :meth:`shard_view` then gives each
    forked worker a zero-copy slice.
    """

    def __init__(
        self,
        share_groups: list[list[tuple[int, str]]],
        agents: dict[tuple[int, str], DQNAgent],
        allocator=None,
    ) -> None:
        self._agents = agents
        self._stacks: dict[str, StackedQNet] = {}
        self._targets: dict[str, StackedQNet] = {}
        self._learners: dict[str, StackedLearner] = {}
        self._groups: dict[str, list[tuple[int, str]]] = {}
        self._row: dict[tuple[int, str], int] = {}
        for group in share_groups:
            slot = group[0][1]
            members = [agents[key] for key in group]
            qstack = StackedQNet([m.qnet for m in members], allocator=allocator)
            tstack = StackedQNet([m.target for m in members], allocator=allocator)
            self._stacks[slot] = qstack
            self._targets[slot] = tstack
            self._learners[slot] = StackedLearner(members, qstack, tstack)
            self._groups[slot] = list(group)
            for i, key in enumerate(group):
                self._row[key] = i

    def shard_view(self, residence_ids) -> "BatchedEpisodeEngine":
        """Zero-copy sub-engine over a contiguous residence shard.

        Used inside forked pool workers: the worker's stacks are row
        slices of the parent's (shared-arena) stacks, so the worker
        trains directly on the shared weight pages, while its replay /
        optimizer / counter arrays are copy-on-write private slices.
        The shard must be contiguous in each group's sorted key order
        (the trainer shards rid-sorted streams into chunks, which
        guarantees it).
        """
        rids = set(residence_ids)
        sub = object.__new__(BatchedEpisodeEngine)
        sub._agents = {k: v for k, v in self._agents.items() if k[0] in rids}
        sub._stacks = {}
        sub._targets = {}
        sub._learners = {}
        sub._groups = {}
        sub._row = {}
        for slot, group in self._groups.items():
            rows = [i for i, key in enumerate(group) if key[0] in rids]
            if not rows:
                continue
            lo, hi = rows[0], rows[-1] + 1
            if rows != list(range(lo, hi)):
                raise ValueError(
                    "shard residences must be contiguous within each share group"
                )
            sub._stacks[slot] = StackedQNet.view(self._stacks[slot], lo, hi)
            sub._targets[slot] = StackedQNet.view(self._targets[slot], lo, hi)
            sub._learners[slot] = StackedLearner.view(
                self._learners[slot], lo, hi, sub._stacks[slot], sub._targets[slot]
            )
            subgroup = group[lo:hi]
            sub._groups[slot] = subgroup
            for i, key in enumerate(subgroup):
                sub._row[key] = i
        return sub

    def run_chunk(
        self, pairs: list[tuple[tuple[int, str], DeviceEnv]]
    ) -> tuple[list[float], list[float]]:
        """Play one episode per (agent key, env) pair, episode-major.

        All envs must share one horizon (aligned streams guarantee it).
        Within a slot the pairs form occurrence waves — wave k holds the
        k-th pair of each agent — and each wave plays its whole episode
        before the next wave starts.  An agent's episodes therefore run
        one after another in pair order, exactly as the serial
        ``run_episode`` loop plays them, while every minute of a wave is
        one stacked Q-net forward and one stacked replay push + learn
        step (each agent row appears at most once per wave).  Returns
        (episode rewards, optimal rewards) in pair order, matching the
        serial loop's bookkeeping order.
        """
        if not pairs:
            return [], []
        for stack in self._stacks.values():
            stack.ensure_adopted()
        for tstack in self._targets.values():
            tstack.ensure_adopted()
        for learner in self._learners.values():
            learner.sync_in()
        horizon = pairs[0][1].horizon
        waves: dict[str, list[list[int]]] = {}
        seen: dict[tuple[int, str], int] = {}
        for idx, (key, env) in enumerate(pairs):
            if env.horizon != horizon:
                raise ValueError("all envs in a batched chunk must share one horizon")
            w = seen.get(key, 0)
            seen[key] = w + 1
            slot_waves = waves.setdefault(key[1], [])
            if w == len(slot_waves):
                slot_waves.append([])
            slot_waves[w].append(idx)
        totals = np.zeros(len(pairs))
        for slot, slot_waves in waves.items():
            for idxs in slot_waves:
                totals[idxs] = self._play_wave(slot, [pairs[i] for i in idxs], horizon)
        for learner in self._learners.values():
            learner.sync_out()
        optima = [env.max_episode_reward() for _, env in pairs]
        return totals.tolist(), optima

    def _play_wave(
        self, slot: str, wave: list[tuple[tuple[int, str], DeviceEnv]], horizon: int
    ) -> np.ndarray:
        """Step one wave (distinct agents of *slot*) through its episode."""
        stack = self._stacks[slot]
        learner = self._learners[slot]
        rows = np.array([self._row[key] for key, _ in wave], dtype=np.int64)
        sel = None if np.array_equal(rows, np.arange(stack.n)) else rows
        policies = [self._agents[key].policy for key, _ in wave]
        envs = [env for _, env in wave]
        k = len(wave)
        states = np.stack([env.reset() for env in envs])
        totals = np.zeros(k)
        for _ in range(horizon):
            q = stack.forward(states, rows=sel)
            actions = np.empty(k, dtype=np.int64)
            rewards = np.empty(k)
            next_states = np.empty_like(states)
            dones = np.empty(k, dtype=bool)
            for j, (policy, env) in enumerate(zip(policies, envs)):
                action = policy.select(q[j])
                step = env.step(action)
                actions[j] = action
                rewards[j] = step.reward
                next_states[j] = step.state
                dones[j] = step.done
            learner.observe_rows(rows, states, actions, rewards, next_states, dones)
            totals += rewards
            states = next_states
        return totals


def greedy_rollout(qnet, dev_stream) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Matrix-only greedy rollout over one device's full stream.

    Replaces the per-minute act/step loop of ``evaluate_episode`` for
    greedy (no-learning) evaluation: one forward over the whole
    ``(T, state_dim)`` state matrix, one argmax, and vectorised
    controlled-power / reward materialisation with the exact
    :class:`repro.rl.env.DeviceEnv` pass-through semantics.

    Returns ``(actions, controlled_kw, rewards)`` per minute.
    """
    states = build_states(
        dev_stream.predicted_kw,
        dev_stream.real_kw,
        dev_stream.on_kw,
        dev_stream.standby_kw,
        dev_stream.device,
    )
    actions = qnet.forward(states).argmax(axis=1).astype(np.int64)
    controlled = apply_actions(actions, dev_stream.real_kw, dev_stream.standby_kw)
    rewards = reward_vector(dev_stream.mode, actions)
    return actions, controlled, rewards


def schedule_rollout(qnet, envs) -> list[np.ndarray]:
    """Greedy lockstep rollout over many schedulable-task episodes.

    All *envs* (:class:`repro.rl.env.ScheduleEnv`) belong to *one*
    agent, so each simulated minute does a single stacked forward over
    the still-active episodes instead of one batch-of-1 forward per
    episode.  Unlike :func:`greedy_rollout`, the scheduling states are
    action-dependent (remaining runtime, deadline slack), so the
    rollout steps minute-major through the envs — which also lets each
    env enforce its forced-run deadline override.

    Returns each episode's per-minute controlled-power trace (NaN-free).
    """
    states = [env.reset() for env in envs]
    active = [i for i, env in enumerate(envs) if env.horizon > 0]
    while active:
        q = qnet.forward(np.stack([states[i] for i in active]))
        actions = q.argmax(axis=1)
        still = []
        for i, action in zip(active, actions):
            step = envs[i].step(int(action))
            states[i] = step.state
            if not step.done:
                still.append(i)
        active = still
    return [np.nan_to_num(env.controlled_kw) for env in envs]
