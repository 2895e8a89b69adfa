"""Monte-Carlo experiment drivers.

Four experiments are available, selected by name:

  bound-validation  random initial covariances and random schedules checked
                    against the certificate bound B_s.
  cost-histogram    window-cost gap between the quantized scheduler (at
                    several graph sizes), the static schedules, and the
                    exact optimum of `dyn_prog_exact`; a window past the
                    exact search's caps fails before the first run.
  moving-horizon    full tracking loop with occlusions versus the static
                    baselines.
  adaptive-R        paired runs with mismatched measurement noise, with and
                    without online covariance adaptation.

Runs are independent: per-run RNG streams are spawned from the master seed,
rows are reduced in run order, and (config, seed) fixes the output exactly.
Every experiment steps blocks of consecutive runs, `rows(ctx, runs, seeds)`:
at jobs = 1 the sweep is cut into blocks of up to `_BLOCK_RUNS` runs, and at
jobs > 1 a fork-based process pool gives each worker one contiguous range of
runs, which it cuts the same way. A block that raises is re-run one run at a
time, so a failing run's row records its own error and no other row changes.
No row depends on the blocking. bound-validation steps a block's covariances
one step index at a time, one stacked `riccati_step` per method;
cost-histogram computes its rows one run after another; a tracking
experiment steps each variant as one `run_lockstep` call, whose traces equal
`run_loop`'s run by run (a block of one, like the run of `simulate`, is a
one-run stack). A tracking run reads its truth path at the sensor steps
only, and a path that is not finite there fails its run. Measurement noise
is keyed on the capture step (`sim.GridMeasurementSource`), so the variants
of a row see common random numbers.

A tracking block computes each value its rows hold once: one measurement
source over its truth paths (`_block_source`), read by every variant; one
stacked MSE reduction for adaptive-R rows (`sim.block_mse`), which hold no
cost, CPU load or attention; and the window metrics once per moving-horizon
variant without adaptation (`sim.block_metrics`), whose runs share one
table of epoch starts.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .bounds import LyapunovCertificate, bound_bs, synthesize_certificate
from .config import ScenarioConfig, check_sim_grid
from .covgraph import CovarianceGraph, expand_graph, quantize, sample_region
from .dynamics import build_dynamics
from .errors import ConfigError, LatschedError
from .estimator import riccati_step
from .exact import (
    dyn_prog_exact,
    evaluate_schedule,
    guard_search,
    schedule_cpu_load,
    static_schedule,
)
from .horizon import run_lockstep
from .qdp import attach_policy, policy_meta, qdp
from .sim import GridMeasurementSource, block_metrics, block_mse, grid_ratio, simulate_sde


def _build_graph(cfg: ScenarioConfig, dyn, count: int, seed):
    reps = sample_region(cfg.model.n_x, cfg.graph.b0, count, seed)
    return expand_graph(reps, cfg.methods, dyn, admit_tol=cfg.graph.admit_tol,
                        b0=cfg.graph.b0)


def _built_graph(cfg: ScenarioConfig, dyn, graph_path=None,
                 with_policy: bool = True) -> CovarianceGraph:
    """The scenario's graph, loaded from `graph_path` or built from its seeds.

    With `with_policy`, the policy is (re)attached unless the graph holds one
    swept for the scenario's `policy_meta`; a loaded file whose `policy_meta`
    lacks the method entry is recomputed too.
    """
    if graph_path:
        graph = CovarianceGraph.load(graph_path)
        if graph.reps.shape[1] != cfg.model.n_x or graph.n_methods != len(cfg.methods):
            raise ConfigError(
                f"graph file {graph_path} has n={graph.reps.shape[1]} and "
                f"{graph.n_methods} methods; the scenario has n={cfg.model.n_x} "
                f"and {len(cfg.methods)}"
            )
    else:
        graph = _build_graph(cfg, dyn, cfg.graph.count, cfg.graph.seed)
    if with_policy and (graph.policy is None or graph.policy_meta
                        != policy_meta(cfg.tf, cfg.lam_alpha, cfg.methods)):
        attach_policy(graph, cfg.tf, cfg.lam_alpha, cfg.methods, dyn)
    return graph


def certificate(cfg: ScenarioConfig, dyn) -> LyapunovCertificate:
    """The configured certificate, else a synthesized one; LatschedError if synthesis fails."""
    cert = cfg.certificate or synthesize_certificate(cfg.model, cfg.methods, dyn, cfg.gamma)
    if cert is None:
        raise LatschedError(
            "certificate synthesis failed; supply Omega/Y in the certificate block")
    return cert


def _prepare_bound_validation(cfg: ScenarioConfig) -> dict:
    dyn = build_dynamics(cfg.model, cfg.methods)
    bs = bound_bs(certificate(cfg, dyn), cfg.graph.b0, cfg.methods, dyn)
    return {"cfg": cfg, "dyn": dyn, "bs": bs}


def _rows_bound_validation(ctx: dict, runs, seeds) -> list:
    """Each run's random schedule from its random start, the block as one stack.

    At each step index, one `riccati_step` per method steps the runs taking
    it. Norms are `norm(P, "fro")` bit for bit, and their maximum skips NaN.
    """
    cfg, dyn, bs = ctx["cfg"], ctx["dyn"], ctx["bs"]
    steps = cfg.experiment.schedule_steps
    rngs = list(map(np.random.default_rng, seeds))  # a run's start, then its schedule
    P = np.array([sample_region(cfg.model.n_x, cfg.graph.b0, 1, rng)[0] for rng in rngs])
    ids = np.array([rng.integers(1, len(cfg.methods) + 1, size=steps) for rng in rngs])
    flat = P.reshape(len(runs), -1)  # a view of P, which the steps update in place
    norms = [np.sqrt(np.vecdot(flat, flat))]
    for step_ids in ids.T:
        for m in cfg.methods:
            group = step_ids == m.id
            if group.any():
                P[group] = riccati_step(P[group], m, dyn)
        norms.append(np.sqrt(np.vecdot(flat, flat)))
    norms = np.array(norms)
    worst, count = np.fmax.reduce(norms).tolist(), (norms[1:] > bs).sum(axis=0).tolist()
    return [{"run": run, "bs": bs, "max_covariance_norm": w, "violations": c, "steps": steps}
            for run, w, c in zip(runs, worst, count)]


def _prepare_cost_histogram(cfg: ScenarioConfig) -> dict:
    dyn = build_dynamics(cfg.model, cfg.methods)
    guard_search(cfg.tf, cfg.methods, dyn)  # fail once here, not in every run
    sizes = cfg.experiment.graph_sizes
    seeds = np.random.SeedSequence(cfg.graph.seed).spawn(len(sizes))
    graphs = {size: _build_graph(cfg, dyn, size, seed) for size, seed in zip(sizes, seeds)}
    statics = {m.id: static_schedule(m.id, cfg.tf, cfg.methods, dyn) for m in cfg.methods}
    return {"cfg": cfg, "dyn": dyn, "graphs": graphs, "statics": statics}


def _rows_cost_histogram(ctx: dict, runs, seeds) -> list:
    cfg, dyn = ctx["cfg"], ctx["dyn"]
    rows = []
    for run, seed in zip(runs, seeds):
        P0 = sample_region(cfg.model.n_x, cfg.graph.b0, 1, seed)[0]
        _, j_min = dyn_prog_exact(P0, cfg.tf, cfg.lam_alpha, cfg.methods, dyn)
        row = {"run": run, "j_min": j_min}
        for mid, sched in ctx["statics"].items():
            row[f"j_static_{mid}"] = evaluate_schedule(
                P0, sched, cfg.tf, cfg.lam_alpha, cfg.methods, dyn)
        for size, graph in ctx["graphs"].items():
            sched, _ = qdp(quantize(P0, graph), cfg.tf, cfg.lam_alpha, graph, cfg.methods, dyn)
            row[f"j_qdp_{size}"] = evaluate_schedule(
                P0, sched, cfg.tf, cfg.lam_alpha, cfg.methods, dyn)
            row[f"cpu_qdp_{size}"] = schedule_cpu_load(sched, cfg.tf, cfg.methods, dyn)
        rows.append(row)
    return rows


def _tracks(cfg: ScenarioConfig, dyn, graph, source, policy=None, adaptive=None) -> tuple:
    """A tracking run for each truth path of a `_block_source`, on the sensor grid.

    `policy` and `adaptive` default to the graph's and cfg.sim's. The runs
    are one `run_lockstep` stack, which equals `run_loop` run by run, bit for
    bit. Returns the traces and their `block_metrics`. Without adaptation the
    runs share one table of epoch starts, so their cost, CPU load and
    attention are computed once.
    """
    adaptive = cfg.sim.adaptive if adaptive is None else adaptive
    traces = run_lockstep(cfg.model, cfg.methods, graph, policy, cfg.sim.horizon, source, dyn,
                          adaptive, cfg.sim.window)
    return traces, block_metrics(traces, source.path, cfg.lam_alpha, cfg.methods,
                                 cfg.sim.horizon, dyn, cfg.model.dt_s)


def _block_source(cfg: ScenarioConfig, seeds, true_R=None) -> GridMeasurementSource:
    """One measurement source over each run's truth path at the sensor steps, stacked.

    A run's path is `simulate_sde`'s from its first child seed, and its
    measurement generator comes from the second. A state at a sensor step
    that is not finite is a LatschedError naming the first one. `true_R`
    defaults to cfg.sim's. The source is stateless, so every tracking variant
    of a block reads the one source.
    """
    paths, rngs = [], []
    for seed in seeds:
        truth_seed, meas_seed = seed.spawn(2)
        _, path = simulate_sde(cfg.model, cfg.sim.horizon, cfg.sim.dt, truth_seed)
        sampled = np.asarray(path)[::grid_ratio(cfg.model.dt_s, cfg.sim.dt)]
        bad = ~np.isfinite(sampled).all(axis=1)
        if bad.any():
            raise LatschedError(f"truth path is not finite at sensor step {int(bad.argmax())}")
        paths.append(sampled)
        rngs.append(np.random.default_rng(meas_seed))
    return GridMeasurementSource(cfg.model, np.stack(paths), cfg.model.dt_s, rngs,
                                 occlusions=cfg.sim.occlusions,
                                 true_R=cfg.sim.true_R if true_R is None else true_R)


def _prepare_tracking(cfg: ScenarioConfig, graph_path=None) -> dict:
    check_sim_grid(cfg.sim, cfg.model.dt_s)
    dyn = build_dynamics(cfg.model, cfg.methods)
    return {"cfg": cfg, "dyn": dyn, "graph": _built_graph(cfg, dyn, graph_path)}


def _rows_moving_horizon(ctx: dict, runs, seeds) -> list:
    cfg, dyn, graph = ctx["cfg"], ctx["dyn"], ctx["graph"]
    source = _block_source(cfg, seeds)
    rows = [{"run": run, "j_mh": mh.j_empirical, "cpu_mh": mh.cpu_load,
             "attention_mh": mh.attention, "mse_mh": mh.mse}
            for run, mh in zip(runs, _tracks(cfg, dyn, graph, source)[1])]
    for m in cfg.methods:
        policy = np.full(graph.size, m.id, dtype=np.int64)
        for row, sm in zip(rows, _tracks(cfg, dyn, graph, source, policy=policy,
                                         adaptive=False)[1]):
            row.update({f"j_static_{m.id}": sm.j_empirical, f"cpu_static_{m.id}": sm.cpu_load,
                        f"attention_static_{m.id}": sm.attention, f"mse_static_{m.id}": sm.mse})
    return rows


def _prepare_adaptive_R(cfg: ScenarioConfig) -> dict:
    ctx = _prepare_tracking(cfg)
    ctx["true_R"] = dict(cfg.sim.true_R) or {
        m.id: cfg.experiment.true_R_factor * m.R for m in cfg.methods}
    return ctx


def _rows_adaptive_R(ctx: dict, runs, seeds) -> list:
    cfg, dyn, graph = ctx["cfg"], ctx["dyn"], ctx["graph"]
    source = _block_source(cfg, seeds, ctx["true_R"])
    adaptive, nominal = (block_mse(run_lockstep(cfg.model, cfg.methods, graph, None,
                                                cfg.sim.horizon, source, dyn, a, cfg.sim.window),
                                   source.path, cfg.methods, cfg.sim.horizon, dyn, cfg.model.dt_s)
                         for a in (True, False))
    return [{"run": run, "mse_adaptive": a, "mse_nominal": b, "improved": int(a < b)}
            for run, a, b in zip(runs, adaptive, nominal)]


# Runs a block holds at most. Blocks of 16, 64 and 256 take 1.08, 0.59 and
# 0.46 ms a run on 1,000 noise_mismatch runs, and 0.48, 0.43 and 0.37 on 512
# occlusion_run runs at 45, 51 and 76 MB peak RSS (in-process, min of 3, 2
# cores). No perfbench workload sweeps more than 6 runs to show more.
_BLOCK_RUNS = 64

# name -> (prepare(cfg), rows(ctx, runs, seeds))
_EXPERIMENTS = {
    "bound-validation": (_prepare_bound_validation, _rows_bound_validation),
    "cost-histogram": (_prepare_cost_histogram, _rows_cost_histogram),
    "moving-horizon": (_prepare_tracking, _rows_moving_horizon),
    "adaptive-R": (_prepare_adaptive_R, _rows_adaptive_R),
}

# Context handed to forked pool workers; set by monte_carlo before the fork.
_MC_CONTEXT: dict | None = None


def _rows(context, name: str, runs: list, master_entropy) -> list:
    """The rows of `runs`, stepped as one block, or one run at a time if it raises."""
    # Child streams are reconstructed as SeedSequence(master, spawn_key=(run,)),
    # which is what .spawn() produces, so rows are identical at any job count.
    seeds = [np.random.SeedSequence(master_entropy, spawn_key=(run,)) for run in runs]
    try:
        return _EXPERIMENTS[name][1](context, runs, seeds)
    except Exception as exc:  # noqa: BLE001 - recorded, sweep continues
        if len(runs) == 1:
            return [{"run": runs[0], "error": f"{type(exc).__name__}: {exc}"}]
    return [row for run in runs for row in _rows(context, name, [run], master_entropy)]


def _sweep(context, name: str, runs: range, master_entropy) -> list:
    """The rows of a contiguous range of runs, in blocks of `_BLOCK_RUNS`."""
    return [row for lo in range(0, len(runs), _BLOCK_RUNS)
            for row in _rows(context, name, list(runs[lo:lo + _BLOCK_RUNS]), master_entropy)]


def _mc_worker(args):
    name, runs, entropy = args
    return _sweep(_MC_CONTEXT, name, runs, entropy)


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
    runs = cfg.sim.runs if runs is None else runs
    seed = cfg.sim.seed if seed is None else seed
    context = _EXPERIMENTS[name][0](cfg)
    entropy = np.random.SeedSequence(seed).entropy

    workers = min(jobs, os.cpu_count() or 1, runs)
    if workers <= 1:
        return _sweep(context, name, range(runs), entropy)
    # One contiguous range of runs per worker.
    bounds = [runs * w // workers for w in range(workers + 1)]
    global _MC_CONTEXT
    _MC_CONTEXT = context
    try:
        ctx = __import__("multiprocessing").get_context("fork")
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
            parts = pool.map(_mc_worker, [(name, range(lo, hi), entropy)
                                          for lo, hi in zip(bounds, bounds[1:])])
            return [row for part in parts for row in part]
    finally:
        _MC_CONTEXT = None


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
