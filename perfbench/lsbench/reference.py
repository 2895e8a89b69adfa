"""Fixed reference loops that latsched's code never touches.

On a host whose cores other tenants share, a process's speed can change by
up to 2x over tens of seconds (measured on a shared 2-core VM). The
benchmark times these loops between its operations and reports operation
latency in units of a loop's time as well as in milliseconds, so a change of
machine speed between runs mostly cancels while a change of latsched's speed
does not. The loops import nothing from latsched, so no change to the
program can move them.

Two kinds of work slow down differently when the machine is busy, so there
are two loops:

  scalar  small dense linear algebra in numpy and scipy driven from a Python
          loop (a Joseph-form covariance recursion on a fixed 4-state
          model): the kind of work the filter, the controller and the exact
          search do.
  vector  whole-array numpy passes over a (5000, 301) table: a column read,
          a scatter-minimum with np.minimum.at and a masked write per stage,
          the kind of work a forward DP over a 5000-node graph does.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.linalg import cho_factor, cho_solve

_AD = np.array([[1.0, 0.1, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.1], [0.0, 0.0, 0.0, 1.0]])
_WD = 0.01 * np.eye(4)
_C = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
_RS = (0.5 * np.eye(2), 0.05 * np.eye(2))
STEPS = 120

_NODES, _COLUMNS, _STAGES = 5000, 301, 40
_rng = np.random.default_rng(0)
_TARGETS = _rng.integers(0, _NODES, size=_NODES)
_COSTS = _rng.random(_NODES)


def scalar_loop() -> np.ndarray:
    P = np.eye(4)
    for i in range(STEPS):
        R = _RS[i % 2]
        S = _C @ P @ _C.T + R
        S = 0.5 * (S + S.T)
        np.linalg.eigvalsh(S)
        L = cho_solve(cho_factor(S, lower=True), _C @ P @ _AD.T).T
        F = _AD - L @ _C
        P = F @ P @ F.T + L @ R @ L.T + _WD
        P = 0.5 * (P + P.T)
    return P


def vector_loop() -> np.ndarray:
    table = np.full((_NODES, _COLUMNS), np.inf)
    table[:, 0] = _COSTS
    for stage in range(_STAGES):
        best = np.full(_NODES, np.inf)
        np.minimum.at(best, _TARGETS, table[:, stage] + _COSTS)
        improved = best < table[:, stage + 1]
        table[improved, stage + 1] = best[improved]
    return table


LOOPS = {"scalar": scalar_loop, "vector": vector_loop}


def time_reference(calls: int) -> dict[str, list[float]]:
    """Wall time of `calls` runs of each loop, in seconds each, by loop name."""
    out: dict[str, list[float]] = {}
    for name, loop in LOOPS.items():
        out[name] = []
        for _ in range(calls):
            t0 = time.perf_counter()
            loop()
            out[name].append(time.perf_counter() - t0)
    return out
