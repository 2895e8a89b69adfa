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
Runs are stepped in blocks of consecutive runs. The tracking experiments
(moving-horizon, adaptive-R) step a block's runs together, each tracking
variant as one `run_lockstep` call whose traces equal `run_loop`'s run by run,
so no row depends on the blocking; the other experiments take one run per
block. At jobs = 1 the sweep is cut into blocks of up to `_BLOCK_RUNS` runs.
At jobs > 1 a fork-based process pool gives each worker one contiguous range
of runs, which it cuts the same way. A block that raises is re-run one run at
a time, as blocks of one through `run_loop`, so a failing run's row records
its own error and every other row is unchanged.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .bounds import LyapunovCertificate, bound_bs, synthesize_certificate
from .config import ScenarioConfig, check_sim_grid
from .covgraph import expand_graph, quantize, sample_region
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
from .horizon import run_lockstep, run_loop
from .qdp import attach_policy, qdp
from .sim import GridMeasurementSource, grid_ratio, metrics, simulate_sde


def _build_graph(cfg: ScenarioConfig, dyn, count: int, seed):
    reps = sample_region(cfg.model.n_x, cfg.graph.b0, count, seed)
    return expand_graph(reps, cfg.methods, dyn, admit_tol=cfg.graph.admit_tol,
                        b0=cfg.graph.b0)


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
    guard_search(cfg.tf, cfg.methods, dyn)  # fail once here, not in every run
    sizes = cfg.experiment.graph_sizes
    seeds = np.random.SeedSequence(cfg.graph.seed).spawn(len(sizes))
    graphs = {size: _build_graph(cfg, dyn, size, seed) for size, seed in zip(sizes, seeds)}
    statics = {m.id: static_schedule(m.id, cfg.tf, cfg.methods, dyn) for m in cfg.methods}
    return {"cfg": cfg, "dyn": dyn, "graphs": graphs, "statics": statics}


def _run_cost_histogram(ctx: dict, run: int, seed) -> dict:
    cfg, dyn = ctx["cfg"], ctx["dyn"]
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
    return row


def track(cfg: ScenarioConfig, dyn, graph, path, meas_seed, policy=None, adaptive=None,
          true_R=None):
    """One tracking run over cfg.sim.horizon against the truth `path`.

    Measurements are detected from `path` with noise drawn from `meas_seed`.
    `policy`, `adaptive` and `true_R` default to the graph's policy,
    cfg.sim.adaptive and cfg.sim.true_R. Returns the trace and its metrics.
    """
    traces, run_metrics = _tracks(cfg, dyn, graph, np.asarray(path)[None], [meas_seed],
                                  cfg.sim.dt, policy, adaptive, true_R)
    return traces[0], run_metrics[0]


def _tracks(cfg: ScenarioConfig, dyn, graph, paths, meas_seeds, dt, policy=None,
            adaptive=None, true_R=None) -> tuple[list, list]:
    """`track` for each truth path of a stack `(runs, N, n_x)` on the `dt` grid.

    Returns the traces and their metrics. One path runs `run_loop`. More are
    stepped together by `run_lockstep`, whose traces are `run_loop`'s bit for
    bit; its per-step overhead is several times a warm one-run epoch, so a
    lone run does not take it.
    """
    rngs = [np.random.default_rng(seed) for seed in meas_seeds]
    single = len(rngs) == 1
    source = GridMeasurementSource(
        cfg.model, paths[0] if single else paths, dt, rngs[0] if single else rngs,
        occlusions=cfg.sim.occlusions, true_R=cfg.sim.true_R if true_R is None else true_R,
    )
    args = (cfg.model, cfg.methods, graph, policy, cfg.sim.horizon, source, dyn,
            cfg.sim.adaptive if adaptive is None else adaptive, cfg.sim.window)
    traces = [run_loop(*args)] if single else run_lockstep(*args)
    return traces, [metrics(trace, path, cfg.lam_alpha, cfg.methods, cfg.sim.horizon, dyn, dt)
                    for trace, path in zip(traces, paths)]


def _truths(cfg: ScenarioConfig, seeds) -> tuple[np.ndarray, list]:
    """Each run's truth path at the sensor steps, stacked, and its measurement seeds.

    A run's path is `simulate_sde`'s from the run's first child seed, kept
    only where the source and the MSE read it: on the `dt_s` grid.
    """
    ratio = grid_ratio(cfg.model.dt_s, cfg.sim.dt)
    paths, meas_seeds = [], []
    for seed in seeds:
        truth_seed, meas_seed = seed.spawn(2)
        _, path = simulate_sde(cfg.model, cfg.sim.horizon, cfg.sim.dt, truth_seed)
        paths.append(path[::ratio].copy())
        meas_seeds.append(meas_seed)
    return np.stack(paths), meas_seeds


def _sensor_tracks(cfg: ScenarioConfig, dyn, graph, truth, **kwargs) -> list:
    """The metrics of `_tracks` over a block's `_truths`."""
    return _tracks(cfg, dyn, graph, *truth, cfg.model.dt_s, **kwargs)[1]


def _prepare_tracking(cfg: ScenarioConfig) -> dict:
    check_sim_grid(cfg.sim, cfg.model.dt_s)
    dyn = build_dynamics(cfg.model, cfg.methods)
    graph = _build_graph(cfg, dyn, cfg.graph.count, cfg.graph.seed)
    attach_policy(graph, cfg.tf, cfg.lam_alpha, cfg.methods, dyn)
    return {"cfg": cfg, "dyn": dyn, "graph": graph}


def _rows_moving_horizon(ctx: dict, runs, seeds) -> list:
    cfg, dyn, graph = ctx["cfg"], ctx["dyn"], ctx["graph"]
    truth = _truths(cfg, seeds)
    rows = [{"run": run, "j_mh": mh.j_empirical, "cpu_mh": mh.cpu_load,
             "attention_mh": mh.attention, "mse_mh": mh.mse}
            for run, mh in zip(runs, _sensor_tracks(cfg, dyn, graph, truth))]
    for m in cfg.methods:
        policy = np.full(graph.size, m.id, dtype=np.int64)
        for row, sm in zip(rows, _sensor_tracks(cfg, dyn, graph, truth, policy=policy,
                                                adaptive=False)):
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
    truth = _truths(cfg, seeds)
    adaptive, nominal = (
        [m.mse for m in _sensor_tracks(cfg, dyn, graph, truth, adaptive=a,
                                       true_R=ctx["true_R"])]
        for a in (True, False))
    return [{"run": run, "mse_adaptive": a, "mse_nominal": b, "improved": int(a < b)}
            for run, a, b in zip(runs, adaptive, nominal)]


def _each(run_fn):
    """The rows of `run_fn(ctx, run, seed)` over a block of runs."""
    return lambda ctx, runs, seeds: [run_fn(ctx, run, seed) for run, seed in zip(runs, seeds)]


# Runs a tracking block holds at most. On a 1,000-run noise_mismatch sweep the
# time per run had flattened by 64 runs a block (3.3-3.6 ms, against 3.5 at
# 1,000 and 4.6-5.7 at 16), and a block's traces are alive together: peak
# RSS read 66 MB at 64 and 130 MB at 1,000.
_BLOCK_RUNS = 64

# name -> (prepare(cfg), rows(ctx, runs, seeds), most runs per block)
_EXPERIMENTS = {
    "bound-validation": (_prepare_bound_validation, _each(_run_bound_validation), 1),
    "cost-histogram": (_prepare_cost_histogram, _each(_run_cost_histogram), 1),
    "moving-horizon": (_prepare_tracking, _rows_moving_horizon, _BLOCK_RUNS),
    "adaptive-R": (_prepare_adaptive_R, _rows_adaptive_R, _BLOCK_RUNS),
}

# Context handed to forked pool workers; set by monte_carlo before the fork.
_MC_CONTEXT: dict | None = None


def _rows(context, name: str, runs: list, master_entropy) -> list:
    """The rows of `runs`, stepped as one block.

    If the block raises, each run is re-run as a block of one, the per-run
    path, so a failing run's row records its own error and no other row
    changes.
    """
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
    """The rows of a contiguous range of runs, in blocks of the experiment's size."""
    block = _EXPERIMENTS[name][2]
    return [row for lo in range(runs.start, runs.stop, block)
            for row in _rows(context, name, list(range(lo, min(lo + block, runs.stop))),
                             master_entropy)]


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
    prepare = _EXPERIMENTS[name][0]
    runs = cfg.sim.runs if runs is None else runs
    seed = cfg.sim.seed if seed is None else seed
    context = prepare(cfg)
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
