"""Correctness oracles for the benchmark's operations.

Each check raises OracleError naming what is wrong; the benchmark counts a
raised check as a failed operation. Every check holds for any node expansion
order, so a faster expansion that visits nodes differently still passes.
"""

from __future__ import annotations

import math

import numpy as np

from latsched import (
    GridMeasurementSource,
    Schedule,
    dyn_prog_exact,
    enumerate_covering_schedules,
    evaluate_on_graph,
    evaluate_schedule,
    metrics,
    riccati_step,
    run_loop,
    simulate_sde,
    static_schedule,
)
from latsched.errors import IncompleteScheduleError
from latsched.exact import window_steps

REL_TOL = 1e-9
# A Monte-Carlo row is recomputed through the same kernels; the looser
# tolerance lets the experiment code reorder floating-point sums.
MC_REL_TOL = 1e-6


class OracleError(AssertionError):
    """An operation returned a wrong result."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise OracleError(message)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def check_graph(graph, methods, dyn, admit_tol: float, rng, pairs: int = 64) -> None:
    """Edges in range, sampled edges within the achieved delta, valid policy."""
    Q, D = graph.succ.shape
    _require(D == len(methods), f"graph has {D} method columns, expected {len(methods)}")
    _require(bool(np.all((graph.succ >= 0) & (graph.succ < Q))),
             "a successor index lies outside the node range")
    _require(graph.delta <= admit_tol * (1 + REL_TOL),
             f"achieved delta {graph.delta} exceeds admit_tol {admit_tol}")
    nodes = rng.integers(0, Q, size=pairs)
    cols = rng.integers(0, D, size=pairs)
    for q, col in zip(nodes, cols):
        step = riccati_step(graph.reps[q], methods[col], dyn)
        dist = float(np.linalg.norm(step - graph.reps[graph.succ[q, col]], "fro"))
        _require(dist <= graph.delta * (1 + REL_TOL) + 1e-12,
                 f"edge ({q}, {col + 1}) lands {dist} from its successor, "
                 f"above delta {graph.delta}")
    if graph.policy is not None:
        policy = np.asarray(graph.policy)
        _require(policy.shape == (Q,), f"policy has shape {policy.shape}, expected ({Q},)")
        _require(bool(np.all((policy >= 1) & (policy <= D))), "policy holds an invalid method id")


def check_roundtrip(graph, loaded) -> None:
    """A saved and reloaded graph equals the original exactly."""
    _require(np.array_equal(graph.reps, loaded.reps), "reps changed in the round trip")
    _require(np.array_equal(graph.succ, loaded.succ), "succ changed in the round trip")
    for name in ("delta", "b0", "bound", "policy_meta"):
        _require(getattr(graph, name) == getattr(loaded, name), f"{name} changed in the round trip")
    same_policy = (graph.policy is None and loaded.policy is None) or (
        graph.policy is not None and loaded.policy is not None
        and np.array_equal(graph.policy, loaded.policy))
    _require(same_policy, "policy changed in the round trip")


def check_track(trace, run_metrics, methods, horizon: float, dyn) -> None:
    """The trace covers the horizon; attention and CPU load match its epochs."""
    horizon_steps = int(round(horizon / dyn.dt_s))
    by_id = {m.id: m for m in methods}
    _require(len(trace.epochs) > 0, "trace has no epochs")
    _require(trace.grid_steps.size > 0 and int(trace.grid_steps[-1]) == horizon_steps,
             "sensor-grid trace does not reach the horizon")
    covered = trace.epochs[-1].t_steps + by_id[trace.epochs[-1].method_id].steps
    _require(covered >= horizon_steps, f"epochs cover {covered} of {horizon_steps} steps")
    attention = 0
    busy_steps = 0.0
    expected_t = 0
    for epoch in trace.epochs:
        _require(epoch.t_steps == expected_t, f"epoch {epoch.k} starts at step "
                 f"{epoch.t_steps}, expected {expected_t}")
        method = by_id[epoch.method_id]
        end = epoch.t_steps + method.steps
        expected_t = end
        if epoch.measured and end <= horizon_steps:
            attention += 1
        busy_steps += method.cpu * (min(end, horizon_steps) - epoch.t_steps)
    _require(run_metrics.attention == attention,
             f"attention {run_metrics.attention}, epochs give {attention}")
    _require(_close(run_metrics.cpu_load, busy_steps / horizon_steps),
             f"cpu_load {run_metrics.cpu_load}, epochs give {busy_steps / horizon_steps}")
    _require(math.isfinite(run_metrics.mse), "MSE is not finite")


def check_qdp(graph, q0: int, schedule, cost_on_graph: float, tf: float, lam: float,
              methods, dyn) -> None:
    """qdp's graph cost equals the schedule re-evaluated along the graph."""
    try:
        again = evaluate_on_graph(graph, q0, schedule, tf, lam, methods, dyn)
    except IncompleteScheduleError as exc:
        raise OracleError(f"qdp schedule is not a minimal cover: {exc}") from exc
    _require(_close(cost_on_graph, again),
             f"qdp cost_on_graph {cost_on_graph} != evaluate_on_graph {again}")


def check_exact(P0, schedule, cost: float, tf: float, lam: float, methods, dyn) -> None:
    """The exact cost is the schedule's true cost and beats every static schedule."""
    try:
        again = evaluate_schedule(P0, schedule, tf, lam, methods, dyn)
    except IncompleteScheduleError as exc:
        raise OracleError(f"exact schedule is not a minimal cover: {exc}") from exc
    _require(_close(cost, again), f"exact cost {cost} != evaluate_schedule {again}")
    for m in methods:
        static = evaluate_schedule(P0, static_schedule(m.id, tf, methods, dyn), tf, lam,
                                   methods, dyn)
        _require(cost <= static * (1 + REL_TOL),
                 f"exact cost {cost} exceeds static-{m.id} cost {static}")


def check_exact_bruteforce(P0, tf: float, lam: float, methods, dyn) -> None:
    """On a short window the exact search equals exhaustive enumeration."""
    _, cost = dyn_prog_exact(P0, tf, lam, methods, dyn)
    tf_steps = window_steps(tf, dyn.dt_s)
    best = min(evaluate_schedule(P0, Schedule(s), tf, lam, methods, dyn)
               for s in enumerate_covering_schedules(tf_steps, methods))
    _require(_close(cost, best), f"exact cost {cost} != brute-force minimum {best}")


def check_mc_rows(rows, runs: int) -> None:
    """One row per run, in order, with no failed run."""
    _require(len(rows) == runs, f"{len(rows)} rows for {runs} runs")
    for i, row in enumerate(rows):
        _require("error" not in row, f"run {i} failed: {row.get('error')}")
        _require(row.get("run") == i, f"row {i} carries run {row.get('run')}")


def check_adaptive_row(row, run: int, seed: int, cfg, dyn, graph) -> None:
    """An adaptive-R row equals its run recomputed through the public functions.

    The run's stream is the sweep's child SeedSequence(seed, spawn_key=(run,)).
    `cfg.sim.true_R` must hold the mismatched noise the experiment measures
    under; the run is tracked once with adaptation and once without.
    """
    child = np.random.SeedSequence(np.random.SeedSequence(seed).entropy, spawn_key=(run,))
    truth_seed, meas_seed = child.spawn(2)
    _, path = simulate_sde(cfg.model, cfg.sim.horizon, cfg.sim.dt, truth_seed)
    for mode, adaptive in (("adaptive", True), ("nominal", False)):
        source = GridMeasurementSource(cfg.model, path, cfg.sim.dt,
                                       np.random.default_rng(meas_seed),
                                       occlusions=cfg.sim.occlusions, true_R=cfg.sim.true_R)
        trace = run_loop(cfg.model, cfg.methods, graph, graph.policy, cfg.sim.horizon, source,
                         dyn, use_adaptive=adaptive, window_length=cfg.sim.window)
        mse = metrics(trace, path, cfg.lam_alpha, cfg.methods, cfg.sim.horizon, dyn,
                      cfg.sim.dt).mse
        got = row.get(f"mse_{mode}")
        _require(got is not None and math.isfinite(got), f"run {run}: mse_{mode} is {got}")
        _require(math.isclose(got, mse, rel_tol=MC_REL_TOL),
                 f"run {run}: mse_{mode} {got}, recomputed {mse}")
