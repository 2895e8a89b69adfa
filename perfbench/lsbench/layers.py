"""Per-layer measurements for the traced run.

Every call below goes through latsched's public functions inside a tracer
span, and each metric is read back from those spans, so the trace file and
the reported numbers have one source. Kernels that run nested inside another
call (a Riccati step inside expand_graph, a correct inside run_loop) are
timed by replaying recorded inputs, such as the epoch beliefs of a tracking
trace, through the public function; one span covers a whole replay loop and
records how many calls it made.

The suite is the same on every workload, so its numbers mean the same thing
in every workload's traced run. It also re-measures the layer baselines the
ROADMAP lists: riccati_step, BeliefState, predict, quantize at Q = 5000,
build_dynamics, backward_tables and run_loop per epoch.
"""

from __future__ import annotations

import copy
import os
import statistics
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

import latsched.covgraph
from latsched import (
    BeliefState,
    CovarianceGraph,
    InnovationWindow,
    Schedule,
    adaptive_R,
    attach_policy,
    backward_tables,
    build_dynamics,
    correct,
    dyn_prog_exact,
    evaluate_schedule,
    expand_graph,
    monte_carlo,
    predict,
    qdp,
    qdp_matrices,
    quantize,
    riccati_step,
    sample_region,
)
from latsched.config import load_scenario
from latsched.covgraph import default_admit_tol

from . import oracles
from .tracer import Tracer
from .workloads import (CONFIGS, EXACT_LAM, Sizes, built_graph, mismatched, seed_int,
                        tracking_run)

REPEATS = 3


@dataclass
class LayerSizes:
    """Inputs of the layer suite; `tiny` is for the benchmark's own tests."""

    scaling_seeds: tuple = (1000, 2000, 4000)
    tracking_runs: int = 3
    queries: int = 3
    riccati_nodes: int = 300
    mc_runs: int = 16

    @classmethod
    def tiny(cls) -> "LayerSizes":
        return cls(scaling_seeds=(20, 40, 80), tracking_runs=1, queries=1,
                   riccati_nodes=20, mc_runs=2)


def scaling_label(count: int) -> str:
    """Metric suffix for a seed count: 4000 -> "4k", 40 -> "40"."""
    return f"{count // 1000}k" if count % 1000 == 0 else str(count)


@contextmanager
def _counting_riccati_steps(counter: list):
    """Count the Riccati steps expand_graph takes, via the name covgraph calls."""
    original = latsched.covgraph.riccati_step

    def counted(*args, **kwargs):
        counter[0] += 1
        return original(*args, **kwargs)

    latsched.covgraph.riccati_step = counted
    try:
        yield
    finally:
        latsched.covgraph.riccati_step = original


def _replay(tracer, name: str, calls: list) -> None:
    """Time a list of zero-argument calls REPEATS times as spans of `name`."""
    for _ in range(REPEATS):
        with tracer.span(name, calls=len(calls)):
            for call in calls:
                call()


def _check(failures: list, label: str, check, *args) -> None:
    try:
        check(*args)
    except oracles.OracleError as exc:
        failures.append(f"{label}: {exc}")


def layer_suite(tracer, seq: np.random.SeedSequence, sizes: Sizes, lsizes: LayerSizes,
                out_dir: str, occ_graph=None) -> tuple[dict, list]:
    """Measure every per-layer metric. Returns (values, oracle failures)."""
    failures: list[str] = []
    values: dict[str, float] = {}
    di = load_scenario(os.path.join(CONFIGS, "double_integrator.json"))
    occ = load_scenario(os.path.join(CONFIGS, "occlusion_run.json"))
    mis = load_scenario(os.path.join(CONFIGS, "noise_mismatch.json"))
    streams = iter(seq.spawn(16))

    # dynamics
    for _ in range(2 * REPEATS):
        with tracer.span("dynamics.build_dynamics"):
            di_dyn = build_dynamics(di.model, di.methods)
    values["dynamics.build_dynamics_ms"] = 1e3 * tracer.median_s("dynamics.build_dynamics")

    # covgraph: expansion scaling on the double-integrator model
    scaling = {}
    graph_seq = next(streams)
    graph = reps = None
    for count in lsizes.scaling_seeds:
        label = scaling_label(count)
        riccati_steps = [0]
        with tracer.span(f"covgraph.sample_region.{label}"):
            reps = sample_region(di.model.n_x, di.graph.b0, count, graph_seq)
        with _counting_riccati_steps(riccati_steps), \
                tracer.span(f"covgraph.expand_graph.{label}"):
            graph = expand_graph(reps, di.methods, di_dyn, admit_tol=di.graph.admit_tol,
                                 b0=di.graph.b0)
        scaling[label] = tracer.median_s(f"covgraph.expand_graph.{label}")
        values[f"covgraph.expand_graph_s.{label}"] = scaling[label]
    big = scaling_label(lsizes.scaling_seeds[-1])
    values["covgraph.sample_region_ms"] = 1e3 * tracer.median_s(f"covgraph.sample_region.{big}")
    values["covgraph.expand_graph_s"] = scaling[big]
    slope, _ = np.polyfit(np.log(lsizes.scaling_seeds), np.log(list(scaling.values())), 1)
    values["covgraph.expand_scaling_exp"] = float(slope)
    values["covgraph.nodes"] = graph.size
    values["covgraph.nodes_admitted"] = graph.size - reps.shape[0]
    values["covgraph.riccati_steps"] = riccati_steps[0]

    for _ in range(2 * REPEATS):
        with tracer.span("qdp.attach_policy"):
            attach_policy(graph, di.tf, di.lam_alpha, di.methods, di_dyn)
    values["qdp.attach_policy_ms"] = 1e3 * tracer.median_s("qdp.attach_policy")
    admit_tol = di.graph.admit_tol if di.graph.admit_tol is not None else default_admit_tol(reps)
    _check(failures, "graph", oracles.check_graph, graph, di.methods, di_dyn, admit_tol,
           np.random.default_rng(next(streams)), sizes.oracle_pairs)

    path = os.path.join(out_dir, f"layers-graph-{os.getpid()}.json")
    try:
        for _ in range(REPEATS):
            with tracer.span("covgraph.save"):
                graph.save(path)
            with tracer.span("covgraph.load"):
                loaded = CovarianceGraph.load(path)
        values["covgraph.graph_bytes"] = os.path.getsize(path)
    finally:
        if os.path.exists(path):
            os.remove(path)
    _check(failures, "round trip", oracles.check_roundtrip, graph, loaded)
    values["covgraph.save_ms"] = 1e3 * tracer.median_s("covgraph.save")
    values["covgraph.load_ms"] = 1e3 * tracer.median_s("covgraph.load")

    # horizon, sim, estimator, covgraph.quantize: shipped occlusion run
    with tracer.span("dynamics.build_dynamics"):
        occ_dyn = build_dynamics(occ.model, occ.methods)
    if occ_graph is None:
        occ_graph = built_graph(occ, occ_dyn, sizes.occlusion_nodes, tracer, with_policy=True)
    elif occ_graph.policy is None:
        with tracer.span("qdp.attach_policy.occlusion"):
            attach_policy(occ_graph, occ.tf, occ.lam_alpha, occ.methods, occ_dyn)
    epochs = []
    measured = []
    run_epochs = []
    em_steps = []
    for _ in range(lsizes.tracking_runs):
        trace, run_metrics, source, path = tracking_run(occ, occ_dyn, occ_graph, next(streams),
                                                        tracer, record=True)
        _check(failures, "tracking run", oracles.check_track, trace, run_metrics, occ.methods,
               occ.sim.horizon, occ_dyn)
        epochs.extend(trace.epochs)
        run_epochs.append(len(trace.epochs))
        em_steps.append(path.shape[0] - 1)
        measured.extend((e, source.measurements[e.k]) for e in trace.epochs
                        if source.measurements.get(e.k) is not None)
    run_loop_s = tracer.per_call_s("horizon.run_loop")
    values["horizon.epochs"] = statistics.median(run_epochs)
    values["horizon.run_loop_ms"] = 1e3 * statistics.median(run_loop_s)
    values["horizon.run_loop_epoch_ms"] = 1e3 * statistics.median(
        t / n for t, n in zip(run_loop_s, run_epochs))
    values["sim.simulate_sde_ms"] = 1e3 * tracer.median_s("sim.simulate_sde")
    values["sim.metrics_ms"] = 1e3 * tracer.median_s("sim.metrics")
    values["sim.em_steps"] = statistics.median(em_steps)

    by_id = {m.id: m for m in occ.methods}
    beliefs = [e.belief for e in epochs]
    _replay(tracer, "covgraph.quantize", [lambda b=b: quantize(b.Phat, occ_graph) for b in beliefs])
    values["covgraph.quantize_us"] = 1e6 * tracer.median_s("covgraph.quantize")
    values["covgraph.quantize_residual_max"] = max(occ_graph.nearest(b.Phat)[1] for b in beliefs)
    _replay(tracer, "estimator.BeliefState",
            [lambda b=b: BeliefState(b.t, b.xhat, b.Phat) for b in beliefs])
    values["estimator.belief_state_us"] = 1e6 * tracer.median_s("estimator.BeliefState")
    _replay(tracer, "estimator.predict",
            [lambda e=e: predict(e.belief, by_id[e.method_id].latency(occ_dyn.dt_s), occ_dyn)
             for e in epochs])
    values["estimator.predict_us"] = 1e6 * tracer.median_s("estimator.predict")
    _replay(tracer, "estimator.correct",
            [lambda e=e, z=z: correct(e.belief, z, by_id[e.method_id], occ_dyn)
             for e, z in measured])
    values["estimator.correct_us"] = 1e6 * tracer.median_s("estimator.correct")
    nodes = occ_graph.reps[: lsizes.riccati_nodes]
    _replay(tracer, "estimator.riccati_step",
            [lambda P=P, m=m: riccati_step(P, m, occ_dyn) for P in nodes for m in occ.methods])
    values["estimator.riccati_step_us"] = 1e6 * tracer.median_s("estimator.riccati_step")

    # qdp: backward sweep and forward queries on the occlusion graph
    for _ in range(REPEATS):
        with tracer.span("qdp.backward_tables"):
            backward_tables(occ.tf, occ.lam_alpha, occ_graph, occ.methods, occ_dyn)
    values["qdp.backward_tables_ms"] = 1e3 * tracer.median_s("qdp.backward_tables")
    query_rng = np.random.default_rng(next(streams))
    starts = sample_region(occ.model.n_x, occ.graph.b0, lsizes.queries, query_rng)
    for P0 in starts:
        q0 = quantize(P0, occ_graph)
        with tracer.span("qdp.qdp"):
            schedule, cost = qdp(q0, occ.tf, occ.lam_alpha, occ_graph, occ.methods, occ_dyn)
        _check(failures, "qdp", oracles.check_qdp, occ_graph, q0, schedule, cost, occ.tf,
               occ.lam_alpha, occ.methods, occ_dyn)
    values["qdp.qdp_ms"] = 1e3 * tracer.median_s("qdp.qdp")
    values["qdp.relaxations"] = qdp_matrices(quantize(starts[0], occ_graph), occ.tf,
                                             occ.lam_alpha, occ_graph, occ.methods,
                                             occ_dyn).relaxations

    # exact: double-integrator model at Tf = 2 s, lambda_alpha = 0.5
    stats: dict = {}
    schedules = []
    for P0 in starts:
        with tracer.span("exact.dyn_prog_exact"):
            schedule, cost = dyn_prog_exact(P0, sizes.exact_tf, EXACT_LAM, di.methods,
                                            di_dyn, stats=stats)
        schedules.append((P0, schedule))
        _check(failures, "exact", oracles.check_exact, P0, schedule, cost, sizes.exact_tf,
               EXACT_LAM, di.methods, di_dyn)
    values["exact.dyn_prog_exact_ms"] = 1e3 * tracer.median_s("exact.dyn_prog_exact")
    values["exact.calls"] = stats["calls"]
    _replay(tracer, "exact.evaluate_schedule",
            [lambda P0=P0, s=s: evaluate_schedule(P0, Schedule(s), sizes.exact_tf,
                                                  EXACT_LAM, di.methods, di_dyn)
             for P0, s in schedules])
    values["exact.evaluate_schedule_us"] = 1e6 * tracer.median_s("exact.evaluate_schedule")

    # horizon.adaptive_R: replay one adaptive run of the noise-mismatch scenario
    values["horizon.adaptive_R_us"] = _adaptive_R_us(tracer, mis, next(streams), sizes)

    # experiments: monte_carlo at jobs=1 and jobs=2 on the same seed
    mc_seed = seed_int(next(streams))
    rows_by_jobs = {}
    for jobs in (1, 2):
        with tracer.span(f"experiments.monte_carlo.j{jobs}"):
            rows_by_jobs[jobs] = monte_carlo(mis, runs=lsizes.mc_runs, seed=mc_seed, jobs=jobs)
    t1 = tracer.median_s("experiments.monte_carlo.j1")
    t2 = tracer.median_s("experiments.monte_carlo.j2")
    values["experiments.monte_carlo_s"] = t1
    values["experiments.failed_runs"] = sum("error" in row for rows in rows_by_jobs.values()
                                            for row in rows)
    values["experiments.scaling_eff_j2"] = t1 / (2.0 * t2)
    for jobs, rows in rows_by_jobs.items():
        _check(failures, f"monte_carlo jobs={jobs}", oracles.check_mc_rows, rows, lsizes.mc_runs)
    if rows_by_jobs[1] != rows_by_jobs[2]:
        failures.append("monte_carlo rows at jobs=2 differ from jobs=1")
    return values, failures


def _adaptive_R_us(tracer, cfg, seq, sizes: Sizes) -> float:
    """Per-call time of adaptive_R, replaying the windows run_loop builds.

    The run uses the adaptive-R experiment's mismatched noise.
    """
    cfg = mismatched(cfg)
    dyn = build_dynamics(cfg.model, cfg.methods)
    untraced = Tracer(enabled=False)
    graph = built_graph(cfg, dyn, None, untraced, with_policy=True)
    trace, _, source, _ = tracking_run(cfg, dyn, graph, seq, untraced, record=True)
    by_id = {m.id: m for m in cfg.methods}
    window = InnovationWindow(cfg.sim.window)
    calls = []
    for epoch in trace.epochs:
        meas = source.measurements.get(epoch.k)
        if meas is not None:
            method = by_id[epoch.method_id]
            window.push(method.id, meas.k, cfg.model.C @ epoch.belief.xhat - meas.z)
            calls.append(lambda w=copy.deepcopy(window), m=method, k=meas.k, b=epoch.belief:
                         adaptive_R(w, m, k, b, cfg.model))
    _replay(tracer, "horizon.adaptive_R", calls)
    return 1e6 * tracer.median_s("horizon.adaptive_R")
