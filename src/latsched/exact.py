"""Exact optimal scheduling by recursive dynamic programming.

The window cost of a schedule p over [0, Tf] is

    J = (1/Tf) sum_k [ lam_alpha * r_{p_k} + c(d_k) + tr(P[k] @ M(d_k)) ]

with d_k the epoch duration truncated at the window edge and P[k] the filter
covariance under nominal measurement noise. `evaluate_schedule` computes that
sum directly and is the reference every scheduler is checked against. Its
loop, `window_cost`, takes the covariance step as a callback, so graph
trajectories are costed by the same code. `dyn_prog_exact` searches all
minimal covering schedules recursively. Exact search is exponential in the
window length, so it is guarded by a recursion depth cap and intended as a
ground-truth oracle, not a runtime component.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .dynamics import DiscretizedDynamics
from .errors import ExplosionGuardError, IncompleteScheduleError
from .estimator import riccati_step


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
        raise IncompleteScheduleError(
            f"schedule {tuple(schedule)} does not minimally cover {tf_steps} steps"
        )
    elapsed = 0
    total = 0.0
    for pid in schedule:
        method = methods[pid - 1]
        d_steps = min(method.steps, tf_steps - elapsed)
        M, c = dyn.step_gram(d_steps)
        total += lam_alpha * method.penalty + c + float((cov(state) * M).sum())
        elapsed += method.steps
        if elapsed < tf_steps:
            state = step(state, method)
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


def dyn_prog_exact(
    P0: np.ndarray,
    tf: float,
    lam_alpha: float,
    methods,
    dyn: DiscretizedDynamics,
    max_depth: int = 24,
    stats: dict | None = None,
) -> tuple[Schedule, float]:
    """Globally optimal minimal covering schedule by recursive search.

    Ties between methods break toward the lower id. Raises ExplosionGuardError
    when the worst-case recursion depth Tf / min latency exceeds `max_depth`;
    the quantized scheduler handles long windows.
    """
    tf_steps = window_steps(tf, dyn.dt_s)
    min_steps = min(m.steps for m in methods)
    if tf_steps // min_steps > max_depth:
        raise ExplosionGuardError(
            f"window of {tf_steps} steps needs recursion depth "
            f"{tf_steps // min_steps} > {max_depth}; use the quantized scheduler"
        )
    calls = [0]

    def search(elapsed: int, P: np.ndarray) -> tuple[tuple, float]:
        calls[0] += 1
        best_cost = np.inf
        best_tail: tuple = ()
        for method in methods:
            nxt = elapsed + method.steps
            d_steps = min(method.steps, tf_steps - elapsed)
            M, c = dyn.step_gram(d_steps)
            cost = lam_alpha * method.penalty + c + float((P * M).sum())
            tail: tuple = ()
            if nxt < tf_steps:
                tail, tail_cost = search(nxt, riccati_step(P, method, dyn))
                cost += tail_cost
            if cost < best_cost:
                best_cost = cost
                best_tail = (method.id,) + tail
        return best_tail, best_cost

    seq, cost = search(0, np.asarray(P0, dtype=float))
    if stats is not None:
        stats["calls"] = calls[0]
    return Schedule(seq), cost / tf
