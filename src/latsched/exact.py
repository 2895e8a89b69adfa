"""Exact optimal scheduling by dynamic programming over the schedule tree.

The window cost of a schedule p over [0, Tf] is

    J = (1/Tf) sum_k [ lam_alpha * r_{p_k} + c(d_k) + tr(P[k] @ M(d_k)) ]

with d_k the epoch duration truncated at the window edge and P[k] the filter
covariance under nominal measurement noise. `evaluate_schedule` computes that
sum directly and is the reference every scheduler is checked against. Its
loop, `window_cost`, takes the covariance step as a callback, so graph
trajectories are costed by the same code. `dyn_prog_exact` searches all
minimal covering schedules, one tree depth at a time with stacked Riccati
steps. Exact search is exponential in the window length, so it is guarded by
depth and tree-size caps (`guard_search`) and serves as the ground-truth
oracle: `schedule-exact` and the cost-histogram experiment's `j_min` read it,
the runtime controller does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .dynamics import DiscretizedDynamics
from .errors import ExplosionGuardError, IncompleteScheduleError
from .estimator import riccati_step

_MAX_DEPTH = 24  # cap on the search depth Tf / min latency
# Bound on tree nodes times n_x^2, which sets the exact search's memory: a
# 2^20-node search over 4x4 covariances peaks at about 370 MB RSS.
_MAX_TREE_ENTRIES = 2**24


@dataclass(frozen=True)
class Schedule:
    """A finite sequence of 1-based perception method ids."""

    methods: tuple

    def __post_init__(self):
        object.__setattr__(self, "methods", tuple(int(m) for m in self.methods))

    def __len__(self) -> int:
        return len(self.methods)

    def __iter__(self):
        return iter(self.methods)

    def minimally_covers(self, tf_steps: int, methods) -> bool:
        _check_ids(self.methods, methods)
        total = 0
        for idx, pid in enumerate(self.methods):
            total += methods[pid - 1].steps
            if total >= tf_steps:
                return idx == len(self.methods) - 1
        return False


def _check_ids(ids, methods) -> None:
    """Raise IncompleteScheduleError unless every id names a method, 1..D."""
    for pid in ids:
        if not 1 <= pid <= len(methods):
            raise IncompleteScheduleError(
                f"method id {pid} is outside 1..{len(methods)}")


def window_steps(tf: float, dt_s: float, tol: float = 1e-6) -> int:
    """`tf` as a positive whole count of `dt_s` steps; ValueError if off the grid by over `tol`."""
    steps = tf / dt_s
    rounded = int(round(steps))
    if rounded < 1 or abs(steps - rounded) > tol:
        raise ValueError(f"{tf} is not a positive multiple of {dt_s}")
    return rounded


def static_schedule(method_id: int, tf: float, methods, dyn: DiscretizedDynamics) -> Schedule:
    """The minimal covering repetition of a single method."""
    _check_ids((method_id,), methods)
    tf_steps = window_steps(tf, dyn.dt_s)
    count = -(-tf_steps // methods[method_id - 1].steps)
    return Schedule((method_id,) * count)


def schedule_cpu_load(schedule: Schedule, tf: float, methods, dyn: DiscretizedDynamics) -> float:
    """Busy fraction of the window: sum of cpu * epoch length, truncated at Tf."""
    _check_ids(schedule, methods)
    tf_steps = window_steps(tf, dyn.dt_s)
    busy = 0.0
    elapsed = 0
    for pid in schedule:
        method = methods[pid - 1]
        if elapsed >= tf_steps:
            break
        busy += method.cpu * (min(elapsed + method.steps, tf_steps) - elapsed)
        elapsed += method.steps
    # busy is in sensor periods; the window is tf_steps of them.
    return busy / tf_steps


def window_cost(state, step, cov, schedule: Schedule, tf: float, lam_alpha: float,
                methods, dyn: DiscretizedDynamics) -> float:
    """Window cost of a minimal covering schedule walked from `state`.

    cov(state) is the covariance an epoch starts from and step(state, method)
    the state the epoch leaves behind; no step is taken once the window is
    covered.
    """
    tf_steps = window_steps(tf, dyn.dt_s)
    if not schedule.minimally_covers(tf_steps, methods):
        covered = sum(methods[pid - 1].steps for pid in schedule)
        raise IncompleteScheduleError(
            f"schedule of {len(schedule)} epochs ({covered} steps) does not minimally "
            f"cover {tf_steps} steps"
        )
    covs, d_steps, penalties = [], [], []
    elapsed = 0
    for pid in schedule:
        method = methods[pid - 1]
        covs.append(cov(state))
        d_steps.append(min(method.steps, tf_steps - elapsed))
        penalties.append(method.penalty)
        elapsed += method.steps
        if elapsed < tf_steps:
            state = step(state, method)
    # Each epoch's term is rounded as lam_alpha * r + c + (P * M).sum() of
    # its own matrices rounds it (a member's sum over both axes is that sum),
    # and the terms are added in epoch order.
    M, c = dyn.step_gram(np.array(d_steps))
    terms = lam_alpha * np.array(penalties) + c + (np.array(covs) * M).sum(axis=(1, 2))
    total = 0.0
    for term in terms.tolist():
        total += term
    return total / tf


def evaluate_schedule(
    P0: np.ndarray,
    schedule: Schedule,
    tf: float,
    lam_alpha: float,
    methods,
    dyn: DiscretizedDynamics,
) -> float:
    """Window cost of a minimal covering schedule from initial covariance P0."""
    return window_cost(np.asarray(P0, dtype=float),
                       lambda P, method: riccati_step(P, method, dyn),
                       lambda P: P, schedule, tf, lam_alpha, methods, dyn)


def enumerate_covering_schedules(tf_steps: int, methods) -> Iterator[tuple]:
    """All minimal covering schedules of a window, in lexicographic method order."""
    def rec(remaining: int, prefix: tuple):
        for m in methods:
            nxt = remaining - m.steps
            if nxt <= 0:
                yield prefix + (m.id,)
            else:
                yield from rec(nxt, prefix + (m.id,))

    yield from rec(tf_steps, ())


def guard_search(tf: float, methods, dyn: DiscretizedDynamics) -> int:
    """The window's step count, once the exact search over it is within its caps.

    Raises ExplosionGuardError when the worst-case depth Tf / min latency
    exceeds `_MAX_DEPTH` or the tree's covariances would exceed
    `_MAX_TREE_ENTRIES` entries.
    """
    n = dyn.model.n_x
    tf_steps = window_steps(tf, dyn.dt_s)
    min_steps = min(m.steps for m in methods)
    if tf_steps // min_steps > _MAX_DEPTH:
        raise ExplosionGuardError(
            f"window of {tf_steps} steps needs recursion depth "
            f"{tf_steps // min_steps} > {_MAX_DEPTH}; use the quantized scheduler"
        )
    nodes = [0] * (tf_steps + 1)  # nodes[r]: tree size with r steps left
    for r in range(1, tf_steps + 1):
        nodes[r] = 1 + sum(nodes[r - m.steps] for m in methods if m.steps < r)
    if nodes[tf_steps] * n * n > _MAX_TREE_ENTRIES:
        raise ExplosionGuardError(
            f"exact search tree of {nodes[tf_steps]} nodes of {n}x{n} covariances "
            f"exceeds {_MAX_TREE_ENTRIES} entries; use the quantized scheduler"
        )
    return tf_steps


def dyn_prog_exact(
    P0: np.ndarray,
    tf: float,
    lam_alpha: float,
    methods,
    dyn: DiscretizedDynamics,
    stats: dict | None = None,
) -> tuple[Schedule, float]:
    """Globally optimal minimal covering schedule by level-batched search.

    The search tree has one node per schedule prefix that does not yet cover
    the window. A forward pass builds it one depth at a time: the live nodes
    are one covariance stack, costed against each method's Gram and stepped
    by one stacked `riccati_step` per method. A backward pass gives each node
    the value `local + child value` of its best method, ties breaking toward
    the lower id. Memory is the covariances of one level and its successors
    plus O(calls * D) scalars; for a (1, 2)-step method pair at the depth
    cap the tree has 121,392 nodes and its widest level 26,333.

    Raises ValueError unless P0 is a finite (n_x, n_x) array and `lam_alpha`
    is finite, and ExplosionGuardError past `guard_search`'s caps; the
    quantized scheduler handles long windows. `stats["calls"]` receives the
    node count.
    """
    n = dyn.model.n_x
    P = np.asarray(P0, dtype=float)
    if P.shape != (n, n) or not np.all(np.isfinite(P)):
        raise ValueError(f"P0 must be a finite {n}x{n} array, got shape {P.shape}")
    if not np.isfinite(lam_alpha):
        raise ValueError(f"lam_alpha must be finite, got {lam_alpha}")
    tf_steps = guard_search(tf, methods, dyn)
    # Forward: per level, local[i, j] costs method i at node j and
    # child[i, j] indexes the node it leads to on the next level (-1: none).
    levels = []
    P, elapsed = P[None], np.zeros(1, dtype=int)
    while elapsed.size:
        local = np.empty((len(methods), elapsed.size))
        child = np.full((len(methods), elapsed.size), -1)
        next_P, next_elapsed = [], []
        width = 0
        for i, method in enumerate(methods):
            d_steps = np.minimum(method.steps, tf_steps - elapsed)
            for d in np.unique(d_steps):
                group = d_steps == d
                M, c = dyn.step_gram(int(d))
                local[i, group] = (lam_alpha * method.penalty + c
                                   + (P[group] * M).reshape(-1, n * n).sum(axis=1))
            inner = np.flatnonzero(elapsed + method.steps < tf_steps)
            child[i, inner] = width + np.arange(inner.size)
            width += inner.size
            next_P.append(riccati_step(P[inner], method, dyn))
            next_elapsed.append(elapsed[inner] + method.steps)
        levels.append((local, child))
        P, elapsed = np.concatenate(next_P), np.concatenate(next_elapsed)
    # Backward: a node's value is its first minimum over methods of
    # local + child value, the order in which a depth-first search adds them.
    value = np.empty(0)
    choices = []
    for cost, child in reversed(levels):
        has = child >= 0
        cost[has] += value[child[has]]
        choice = cost.argmin(axis=0)
        value = cost[choice, np.arange(choice.size)]
        choices.append(choice)
    seq = []
    node = 0
    for (_, child), choice in zip(levels, reversed(choices)):
        i = choice[node]
        seq.append(methods[i].id)
        node = child[i, node]
        if node < 0:
            break
    if stats is not None:
        stats["calls"] = sum(local.shape[1] for local, _ in levels)
    return Schedule(seq), float(value[0]) / tf
