"""Approximate scheduling by dynamic programming over the covariance graph.

The window [0, Tf] is cut into alpha_max = Tf / dt_s stages. A graph edge
(q --rho--> q') taken at stage l lands at stage min(l + m_rho, alpha_max) and
costs

    (1/Tf) [ lam_alpha * r_rho + c(d) + tr(P_q @ M(d)) ],
    d = (min(l + m_rho, alpha_max) - l) * dt_s

so every window-covering path ends in the final stage. `backward_tables` is
the one DP sweep: it runs the cost-to-go recursion from the last stage back to
stage 0 and records the optimal decision of every (node, stage) cell. `qdp`
follows those decisions from one start node, and `attach_policy` keeps the
stage-0 decisions as the lookup table the moving-horizon controller consults
at run time, so a query's first method is the policy entry of its start node.

The sweep does not depend on the start node, so queries read a memo of the
graph's last sweep, keyed on tf, lam_alpha, each method's (steps, penalty) and
the dynamics object: one sweep per graph and window serves every start node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covgraph import CovarianceGraph
from .dynamics import DiscretizedDynamics
from .exact import Schedule, window_cost, window_steps


def _sweep_key(tf: float, lam_alpha: float, methods) -> tuple:
    """The inputs of a backward sweep besides the graph and the dynamics.

    That is tf, lam_alpha and each method's (steps, penalty) in list order.
    """
    return tf, lam_alpha, tuple((m.steps, m.penalty) for m in methods)


def policy_meta(tf: float, lam_alpha: float, methods) -> dict:
    """The `policy_meta` of a policy swept for these inputs, as a graph file holds it."""
    tf, lam_alpha, steps_penalty = _sweep_key(tf, lam_alpha, methods)
    return {"tf": tf, "lam_alpha": lam_alpha, "methods": [list(m) for m in steps_penalty]}


def backward_tables(
    tf: float,
    lam_alpha: float,
    graph: CovarianceGraph,
    methods,
    dyn: DiscretizedDynamics,
) -> tuple[np.ndarray, np.ndarray]:
    """Stage-0 cost-to-go V (Q,) and optimal decisions PI (Q, alpha_max).

    PI[q, l] is the 1-based id of the method to run from node q at stage l,
    in the smallest unsigned dtype that holds D; ties prefer the lower method
    id. V[q] is the optimal window cost from q and PI[:, 0] is the policy
    table. Every call sweeps; `qdp` and `qdp_matrices` read the memo instead.
    """
    alpha_max = window_steps(tf, dyn.dt_s)
    Q = graph.size
    steps = [m.steps for m in methods]
    # table[j-1, q] = c(j dt_s) + tr(P_q @ M(j dt_s)); edge_cost[col][d-1] adds
    # the penalty and the 1/Tf scaling for an epoch of d <= m_col steps.
    flat = graph.reps.reshape(Q, -1)
    table = np.array([flat @ M.reshape(-1) + c
                      for M, c in map(dyn.step_gram, range(1, max(steps) + 1))])
    edge_cost = [(lam_alpha * m.penalty + table[:m.steps]) / tf for m in methods]
    succ = np.ascontiguousarray(graph.succ.T)
    # Cost-to-go rows of the max(steps) + 1 stages a stage can land on, in a
    # ring; the terminal stage's row stays zero.
    ring = max(steps) + 1
    V = np.zeros((ring, Q))
    PI = np.empty((alpha_max, Q), dtype=np.min_scalar_type(len(methods)))
    for stage in range(alpha_max - 1, -1, -1):
        lands = [min(stage + m, alpha_max) for m in steps]
        cands = [edge_cost[col][land - stage - 1] + V[land % ring][succ[col]]
                 for col, land in enumerate(lands)]
        best, PI[stage] = cands[0], 1
        for rho, cand in enumerate(cands[1:], start=2):
            take = cand < best
            best = np.where(take, cand, best)
            PI[stage, take] = rho
        V[stage % ring] = best
    return V[0].copy(), PI.T


def _memo_tables(
    tf: float,
    lam_alpha: float,
    graph: CovarianceGraph,
    methods,
    dyn: DiscretizedDynamics,
) -> tuple[np.ndarray, np.ndarray]:
    """`backward_tables` for these inputs, swept only if the graph's memo misses.

    The memo holds one entry, keyed on `_sweep_key` and on `dyn`. V and PI
    are read-only, so no caller can corrupt the entry.
    """
    def sweep():
        V, PI = backward_tables(tf, lam_alpha, graph, methods, dyn)
        V.setflags(write=False)
        PI.setflags(write=False)
        return V, PI

    return graph._memo("_sweep", _sweep_key(tf, lam_alpha, methods), dyn, sweep)


@dataclass
class DPTables:
    """The tables of one backward sweep, for a query from q0.

    relaxations counts the sweep's edge relaxations, alpha_max * Q * D.
    """

    V: np.ndarray
    PI: np.ndarray
    q0: int
    alpha_max: int
    relaxations: int


def qdp_matrices(
    q0: int,
    tf: float,
    lam_alpha: float,
    graph: CovarianceGraph,
    methods,
    dyn: DiscretizedDynamics,
) -> DPTables:
    """The backward sweep's tables, read-only from the graph's memo, for a query from q0."""
    if not (0 <= q0 < graph.size):
        raise ValueError(f"q0={q0} outside 0..{graph.size - 1}")
    V, PI = _memo_tables(tf, lam_alpha, graph, methods, dyn)
    return DPTables(V=V, PI=PI, q0=q0, alpha_max=PI.shape[1],
                    relaxations=PI.size * len(methods))


def qdp(
    q0: int,
    tf: float,
    lam_alpha: float,
    graph: CovarianceGraph,
    methods,
    dyn: DiscretizedDynamics,
) -> tuple[Schedule, float]:
    """Best window-covering schedule from node q0 and its graph-trajectory cost.

    The schedule follows PI from (q0, stage 0) until the window is covered,
    reading each decision and successor as a Python int (`ndarray.item`).
    """
    if not (0 <= q0 < graph.size):
        raise ValueError(f"q0={q0} outside 0..{graph.size - 1}")
    V, PI = _memo_tables(tf, lam_alpha, graph, methods, dyn)
    alpha_max, succ = PI.shape[1], graph.succ
    steps = [m.steps for m in methods]
    seq: list[int] = []
    q, stage = q0, 0
    while stage < alpha_max:
        rho = PI.item(q, stage)
        seq.append(rho)
        q = succ.item(q, rho - 1)
        stage += steps[rho - 1]
    return Schedule(tuple(seq)), V.item(q0)


def evaluate_on_graph(
    graph: CovarianceGraph,
    q0: int,
    schedule: Schedule,
    tf: float,
    lam_alpha: float,
    methods,
    dyn: DiscretizedDynamics,
) -> float:
    """Cost of a schedule along the quantized trajectory (nodes, not true covariances)."""
    return window_cost(q0, lambda q, method: int(graph.succ[q, method.id - 1]),
                       lambda q: graph.reps[q], schedule, tf, lam_alpha, methods, dyn)


def attach_policy(
    graph: CovarianceGraph,
    tf: float,
    lam_alpha: float,
    methods,
    dyn: DiscretizedDynamics,
) -> CovarianceGraph:
    """Store the policy table (and its `policy_meta` parameters) on the graph in place.

    The policy is PI[:, 0]: the first optimal decision from every node, as a
    (Q,) int64 array of 1-based method ids. The sweep bypasses the graph's
    memo, so the graph keeps no sweep tables.
    """
    graph.policy = backward_tables(tf, lam_alpha, graph, methods, dyn)[1][:, 0].astype(np.int64)
    graph.policy_meta = policy_meta(tf, lam_alpha, methods)
    return graph
