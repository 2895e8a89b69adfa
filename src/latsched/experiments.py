"""Monte-Carlo experiment drivers.

Four experiments are available, selected by name:

  bound-validation  random initial covariances and random schedules checked
                    against the certificate bound B_s.
  cost-histogram    window-cost gap between the quantized scheduler (at
                    several graph sizes), the static schedules, and the best
                    enumerable schedule.
  moving-horizon    full tracking loop with occlusions versus the static
                    baselines.
  adaptive-R        paired runs with mismatched measurement noise, with and
                    without online covariance adaptation.

Runs are independent: per-run RNG streams are spawned from the master seed,
rows are reduced in run order, and (config, seed) fixes the output exactly.
A fork-based process pool fans runs out across workers when jobs > 1.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .bounds import bound_bs, synthesize_certificate
from .config import ScenarioConfig, check_sim_grid
from .covgraph import expand_graph, quantize, sample_region
from .dynamics import build_dynamics
from .errors import ConfigError
from .estimator import riccati_step
from .exact import (
    Schedule,
    enumerate_covering_schedules,
    evaluate_schedule,
    schedule_cpu_load,
    static_schedule,
    window_steps,
)
from .horizon import run_loop
from .qdp import attach_policy, qdp
from .sim import GridMeasurementSource, metrics, simulate_sde


def _build_graph(cfg: ScenarioConfig, dyn, count: int, seed):
    reps = sample_region(cfg.model.n_x, cfg.graph.b0, count, seed)
    return expand_graph(reps, cfg.methods, dyn, admit_tol=cfg.graph.admit_tol,
                        b0=cfg.graph.b0)


def _prepare_bound_validation(cfg: ScenarioConfig) -> dict:
    dyn = build_dynamics(cfg.model, cfg.methods)
    cert = cfg.certificate
    if cert is None:
        cert = synthesize_certificate(cfg.model, cfg.methods, dyn, cfg.gamma)
        if cert is None:
            raise ConfigError(
                "certificate synthesis failed; supply one in the certificate block"
            )
    bs = bound_bs(cert, cfg.graph.b0, cfg.methods, dyn)
    return {"cfg": cfg, "dyn": dyn, "bs": bs}


def _run_bound_validation(ctx: dict, run: int, seed) -> dict:
    cfg, dyn, bs = ctx["cfg"], ctx["dyn"], ctx["bs"]
    rng = np.random.default_rng(seed)
    P = sample_region(cfg.model.n_x, cfg.graph.b0, 1, rng)[0]
    steps = cfg.experiment.schedule_steps
    ids = rng.integers(1, len(cfg.methods) + 1, size=steps)
    worst = float(np.linalg.norm(P, "fro"))
    violations = 0
    for pid in ids:
        P = riccati_step(P, cfg.methods[pid - 1], dyn)
        norm = float(np.linalg.norm(P, "fro"))
        worst = max(worst, norm)
        if norm > bs:
            violations += 1
    return {"run": run, "bs": bs, "max_covariance_norm": worst,
            "violations": violations, "steps": steps}


def _prepare_cost_histogram(cfg: ScenarioConfig) -> dict:
    dyn = build_dynamics(cfg.model, cfg.methods)
    sizes = cfg.experiment.graph_sizes
    seeds = np.random.SeedSequence(cfg.graph.seed).spawn(len(sizes))
    graphs = {size: _build_graph(cfg, dyn, size, seed) for size, seed in zip(sizes, seeds)}
    statics = {m.id: static_schedule(m.id, cfg.tf, cfg.methods, dyn) for m in cfg.methods}
    all_schedules = None
    if cfg.experiment.oracle == "exhaustive":
        tf_steps = window_steps(cfg.tf, dyn.dt_s)
        all_schedules = [Schedule(s) for s in enumerate_covering_schedules(tf_steps, cfg.methods)]
    return {"cfg": cfg, "dyn": dyn, "graphs": graphs,
            "statics": statics, "all_schedules": all_schedules}


def _run_cost_histogram(ctx: dict, run: int, seed) -> dict:
    cfg, dyn = ctx["cfg"], ctx["dyn"]
    rng = np.random.default_rng(seed)
    P0 = sample_region(cfg.model.n_x, cfg.graph.b0, 1, rng)[0]
    tf_steps = window_steps(cfg.tf, dyn.dt_s)

    if ctx["all_schedules"] is not None:
        j_min = min(
            evaluate_schedule(P0, s, cfg.tf, cfg.lam_alpha, cfg.methods, dyn)
            for s in ctx["all_schedules"]
        )
    else:
        ids = [m.id for m in cfg.methods]
        j_min = np.inf
        for _ in range(cfg.experiment.oracle_samples):
            seq = []
            total = 0
            while total < tf_steps:
                pid = int(rng.choice(ids))
                seq.append(pid)
                total += cfg.methods[pid - 1].steps
            j_min = min(j_min, evaluate_schedule(
                P0, Schedule(tuple(seq)), cfg.tf, cfg.lam_alpha, cfg.methods, dyn))

    row = {"run": run, "j_min": float(j_min)}
    for mid, sched in ctx["statics"].items():
        row[f"j_static_{mid}"] = evaluate_schedule(
            P0, sched, cfg.tf, cfg.lam_alpha, cfg.methods, dyn)
    for size, graph in ctx["graphs"].items():
        sched, _ = qdp(quantize(P0, graph), cfg.tf, cfg.lam_alpha, graph, cfg.methods, dyn)
        row[f"j_qdp_{size}"] = evaluate_schedule(
            P0, sched, cfg.tf, cfg.lam_alpha, cfg.methods, dyn)
        row[f"cpu_qdp_{size}"] = schedule_cpu_load(sched, cfg.tf, cfg.methods, dyn)
    return row


def track(cfg: ScenarioConfig, dyn, graph, path, meas_seed, policy=None, adaptive=None,
          true_R=None):
    """One tracking run over cfg.sim.horizon against the truth `path`.

    Measurements are detected from `path` with noise drawn from `meas_seed`.
    `policy`, `adaptive` and `true_R` default to the graph's policy,
    cfg.sim.adaptive and cfg.sim.true_R. Returns the trace and its metrics.
    """
    source = GridMeasurementSource(
        cfg.model, path, cfg.sim.dt, np.random.default_rng(meas_seed),
        occlusions=cfg.sim.occlusions, true_R=cfg.sim.true_R if true_R is None else true_R,
    )
    trace = run_loop(cfg.model, cfg.methods, graph, policy, cfg.sim.horizon, source, dyn,
                     use_adaptive=cfg.sim.adaptive if adaptive is None else adaptive,
                     window_length=cfg.sim.window)
    return trace, metrics(trace, path, cfg.lam_alpha, cfg.methods, cfg.sim.horizon, dyn,
                          cfg.sim.dt)


def _prepare_tracking(cfg: ScenarioConfig) -> dict:
    check_sim_grid(cfg.sim, cfg.model.dt_s)
    dyn = build_dynamics(cfg.model, cfg.methods)
    graph = _build_graph(cfg, dyn, cfg.graph.count, cfg.graph.seed)
    attach_policy(graph, cfg.tf, cfg.lam_alpha, cfg.methods, dyn)
    return {"cfg": cfg, "dyn": dyn, "graph": graph}


def _run_moving_horizon(ctx: dict, run: int, seed) -> dict:
    cfg, dyn, graph = ctx["cfg"], ctx["dyn"], ctx["graph"]
    truth_seed, meas_seed = seed.spawn(2)
    _, path = simulate_sde(cfg.model, cfg.sim.horizon, cfg.sim.dt, truth_seed)
    _, mh = track(cfg, dyn, graph, path, meas_seed)
    row = {"run": run, "j_mh": mh.j_empirical, "cpu_mh": mh.cpu_load,
           "attention_mh": mh.attention, "mse_mh": mh.mse}
    for m in cfg.methods:
        policy = np.full(graph.size, m.id, dtype=np.int64)
        _, sm = track(cfg, dyn, graph, path, meas_seed, policy=policy, adaptive=False)
        row.update({f"j_static_{m.id}": sm.j_empirical, f"cpu_static_{m.id}": sm.cpu_load,
                    f"attention_static_{m.id}": sm.attention, f"mse_static_{m.id}": sm.mse})
    return row


def _prepare_adaptive_R(cfg: ScenarioConfig) -> dict:
    ctx = _prepare_tracking(cfg)
    ctx["true_R"] = dict(cfg.sim.true_R) or {
        m.id: cfg.experiment.true_R_factor * m.R for m in cfg.methods}
    return ctx


def _run_adaptive_R(ctx: dict, run: int, seed) -> dict:
    cfg, dyn, graph = ctx["cfg"], ctx["dyn"], ctx["graph"]
    truth_seed, meas_seed = seed.spawn(2)
    _, path = simulate_sde(cfg.model, cfg.sim.horizon, cfg.sim.dt, truth_seed)
    mse_adaptive, mse_nominal = (
        track(cfg, dyn, graph, path, meas_seed, adaptive=adaptive, true_R=ctx["true_R"])[1].mse
        for adaptive in (True, False))
    return {"run": run, "mse_adaptive": mse_adaptive, "mse_nominal": mse_nominal,
            "improved": int(mse_adaptive < mse_nominal)}


_EXPERIMENTS = {
    "bound-validation": (_prepare_bound_validation, _run_bound_validation),
    "cost-histogram": (_prepare_cost_histogram, _run_cost_histogram),
    "moving-horizon": (_prepare_tracking, _run_moving_horizon),
    "adaptive-R": (_prepare_adaptive_R, _run_adaptive_R),
}

# Context handed to forked pool workers; set by monte_carlo before the fork.
_MC_CONTEXT: dict | None = None


def _run_one(context, name: str, run: int, master_entropy) -> dict:
    # Child streams are reconstructed as SeedSequence(master, spawn_key=(run,)),
    # which is what .spawn() produces, so rows are identical at any job count.
    child = np.random.SeedSequence(master_entropy, spawn_key=(run,))
    run_fn = _EXPERIMENTS[name][1]
    try:
        return run_fn(context, run, child)
    except Exception as exc:  # noqa: BLE001 - recorded, sweep continues
        return {"run": run, "error": f"{type(exc).__name__}: {exc}"}


def _mc_worker(args):
    name, run, entropy = args
    return run, _run_one(_MC_CONTEXT, name, run, entropy)


def monte_carlo(
    cfg: ScenarioConfig,
    runs: int | None = None,
    seed: int | None = None,
    jobs: int = 1,
) -> list:
    """Run one experiment `runs` times and return the rows in run order.

    Per-run seeds are spawned from the master seed so runs are independent
    and the whole output is reproducible from (config, seed) at any job
    count. Failed runs are recorded with an `error` column and do not stop
    the sweep.
    """
    name = cfg.experiment.name
    if name not in _EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}")
    prepare = _EXPERIMENTS[name][0]
    runs = cfg.sim.runs if runs is None else runs
    seed = cfg.sim.seed if seed is None else seed
    context = prepare(cfg)
    entropy = np.random.SeedSequence(seed).entropy

    rows: list = [None] * runs
    if jobs > 1 and runs > 1:
        global _MC_CONTEXT
        _MC_CONTEXT = context
        try:
            ctx = __import__("multiprocessing").get_context("fork")
            with ProcessPoolExecutor(max_workers=min(jobs, os.cpu_count() or 1),
                                     mp_context=ctx) as pool:
                for run, row in pool.map(
                    _mc_worker, [(name, i, entropy) for i in range(runs)]
                ):
                    rows[run] = row
        finally:
            _MC_CONTEXT = None
    else:
        for i in range(runs):
            rows[i] = _run_one(context, name, i, entropy)
    return rows


def rows_to_csv(rows: list, path) -> None:
    """Write rows as CSV with the union of their columns, run order preserved."""
    header: list[str] = []
    for row in rows:
        for key in row:
            if key not in header:
                header.append(key)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_csv_cell(row.get(key)) for key in header) + "\n")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)
