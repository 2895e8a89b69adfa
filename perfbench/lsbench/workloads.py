"""The benchmark's three workloads.

Each workload is a closed loop with one caller: `cycle` runs one operation
(or a fixed group of them) through latsched's public functions, times it,
checks its output with an oracle, and records the result in a Recorder. The
"primary" and "secondary" latencies are the two user-visible timings each
workload reports under the same metric names:

  track-occlusion  primary: one tracking run (simulate_sde, run_loop,
                   metrics); secondary: one controller epoch, the gap between
                   consecutive measurement-source calls.
  mc-adaptive      primary: one Monte-Carlo run inside a batched sweep;
                   secondary: one controller epoch of an adaptive-R tracking
                   run, the per-call estimator and horizon cost.
  schedule-query   primary: one quantize + qdp query; secondary: one
                   dyn_prog_exact query.

Inputs come from the benchmark seed only: cycle i draws from the
SeedSequence child with spawn key (i,), so a run repeats exactly given its
seeds, and the traced and untraced halves of a traced run see the same inputs.
"""

from __future__ import annotations

import copy
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from latsched import (
    GridMeasurementSource,
    attach_policy,
    build_dynamics,
    dyn_prog_exact,
    expand_graph,
    metrics,
    monte_carlo,
    qdp,
    quantize,
    run_loop,
    sample_region,
    simulate_sde,
)
from latsched.config import load_scenario

from . import oracles
from .reference import LOOPS, time_reference

CONFIGS = "configs"
# lambda_alpha of the exact queries: at this weight the optimum depends on P0.
EXACT_LAM = 0.5


@dataclass
class Sizes:
    """Problem sizes; the defaults are the benchmark's, `tiny` is for its tests."""

    occlusion_nodes: int | None = None  # None keeps the config's 5000
    mc_batch: int = 6
    exact_tf: float = 2.0
    bruteforce_tf: float = 1.0
    oracle_pairs: int = 64

    @classmethod
    def tiny(cls) -> "Sizes":
        return cls(occlusion_nodes=120, mc_batch=2, exact_tf=0.5,
                   bruteforce_tf=0.5, oracle_pairs=8)


@dataclass
class Recorder:
    """Latencies and outcomes of one measurement loop."""

    primary_s: list = field(default_factory=list)
    primary_units: int = 0
    primary_busy_s: float = 0.0
    secondary_s: list = field(default_factory=list)
    reference_s: dict = field(default_factory=lambda: {name: [] for name in LOOPS})
    # Latencies over the median of the reference loops timed around their cycle.
    primary_ref: list = field(default_factory=list)
    secondary_ref: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def primary(self, seconds: float, units: int = 1) -> None:
        self.primary_s.append(seconds / units)
        self.primary_units += units
        self.primary_busy_s += seconds

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)


@contextmanager
def _attempt(rec: Recorder, what: str):
    """Count one attempted operation; an exception inside marks it failed."""
    rec.attempted += 1
    try:
        yield
    except Exception as exc:  # noqa: BLE001 - a failing operation is data, not a reason to stop
        rec.fail(f"{what}: {type(exc).__name__}: {exc}")


def seed_int(seq: np.random.SeedSequence) -> int:
    return int(seq.generate_state(1)[0])


def built_graph(cfg, dyn, count: int | None, tracer, with_policy: bool):
    """The graph the CLI builds for a scenario without --graph."""
    count = cfg.graph.count if count is None else count
    with tracer.span("covgraph.sample_region"):
        reps = sample_region(cfg.model.n_x, cfg.graph.b0, count, cfg.graph.seed)
    with tracer.span("covgraph.expand_graph"):
        graph = expand_graph(reps, cfg.methods, dyn, admit_tol=cfg.graph.admit_tol,
                             b0=cfg.graph.b0)
    if with_policy:
        with tracer.span("qdp.attach_policy"):
            attach_policy(graph, cfg.tf, cfg.lam_alpha, cfg.methods, dyn)
    return graph


class EpochTimer:
    """Measurement source wrapper that times the controller between calls.

    An epoch's controller time is the gap from the end of one source call to
    the start of the next, so the time spent inside the source is excluded.
    Measurements are kept by epoch index for replay by the layer suite.
    """

    def __init__(self, source, tracer, record: bool = False):
        self.source = source
        self.tracer = tracer
        self.gaps_s: list[float] = []
        self.measurements: dict = {} if record else None
        self._last_exit = None

    def __call__(self, k, t_steps, method):
        enter = time.perf_counter()
        if self._last_exit is not None:
            self.gaps_s.append(enter - self._last_exit)
        with self.tracer.span("sim.source"):
            meas = self.source(k, t_steps, method)
        if self.measurements is not None:
            self.measurements[k] = meas
        self._last_exit = time.perf_counter()
        return meas


def tracking_run(cfg, dyn, graph, seq, tracer, record: bool = False):
    """simulate_sde + run_loop + metrics, as the `simulate` subcommand runs them.

    Returns (trace, metrics, source, truth path).
    """
    truth_seed, meas_seed = seq.spawn(2)
    with tracer.span("sim.simulate_sde"):
        _, path = simulate_sde(cfg.model, cfg.sim.horizon, cfg.sim.dt, truth_seed)
    source = EpochTimer(GridMeasurementSource(
        cfg.model, path, cfg.sim.dt, np.random.default_rng(meas_seed),
        occlusions=cfg.sim.occlusions, true_R=cfg.sim.true_R,
    ), tracer, record)
    with tracer.span("horizon.run_loop"):
        trace = run_loop(cfg.model, cfg.methods, graph, graph.policy, cfg.sim.horizon,
                         source, dyn, use_adaptive=cfg.sim.adaptive,
                         window_length=cfg.sim.window)
    with tracer.span("sim.metrics"):
        run_metrics = metrics(trace, path, cfg.lam_alpha, cfg.methods, cfg.sim.horizon,
                              dyn, cfg.sim.dt)
    return trace, run_metrics, source, path


def mismatched(cfg):
    """A copy of an adaptive-R scenario whose runs see the experiment's noise.

    As the adaptive-R experiment does, the true R is the configured one or
    else true_R_factor times each method's nominal R.
    """
    out = copy.deepcopy(cfg)
    out.sim.true_R = dict(cfg.sim.true_R) or {
        m.id: cfg.experiment.true_R_factor * m.R for m in cfg.methods}
    return out


class Workload:
    name = ""
    aliases: dict = {}  # the workload's own metric names: name -> generic metric
    # The reference loop (see reference.py) each latency is divided by.
    primary_ref = secondary_ref = "scalar"

    def __init__(self, sizes: Sizes):
        self.sizes = sizes


class TrackOcclusion(Workload):
    name = "track-occlusion"
    aliases = {"track_runs_per_s": "primary_per_s",
               "epoch_ms_p50": "secondary_ms_p50",
               "epoch_ms_p90": "secondary_ms_p90"}

    def setup(self, tracer):
        cfg = load_scenario(os.path.join(CONFIGS, "occlusion_run.json"))
        with tracer.span("dynamics.build_dynamics"):
            dyn = build_dynamics(cfg.model, cfg.methods)
        graph = built_graph(cfg, dyn, self.sizes.occlusion_nodes, tracer, with_policy=True)
        return {"cfg": cfg, "dyn": dyn, "occ_graph": graph}

    def cycle(self, ctx, seq, tracer, rec: Recorder) -> None:
        cfg, dyn, graph = ctx["cfg"], ctx["dyn"], ctx["occ_graph"]
        with _attempt(rec, "tracking run"), tracer.span("op.tracking_run"):
            t0 = time.perf_counter()
            trace, run_metrics, source, _ = tracking_run(cfg, dyn, graph, seq, tracer)
            elapsed = time.perf_counter() - t0
            with tracer.span("oracle"):
                oracles.check_track(trace, run_metrics, cfg.methods, cfg.sim.horizon, dyn)
            rec.primary(elapsed)
            rec.secondary_s.extend(source.gaps_s)


class McAdaptive(Workload):
    name = "mc-adaptive"
    aliases = {"mc_runs_per_s": "primary_per_s",
               "adaptive_epoch_ms_p50": "secondary_ms_p50"}

    def setup(self, tracer):
        cfg = load_scenario(os.path.join(CONFIGS, "noise_mismatch.json"))
        # The first sweep pays lazy imports and first-call costs; users pay
        # them once per process, so they belong to set-up.
        with tracer.span("experiments.monte_carlo"):
            rows = monte_carlo(cfg, runs=1, seed=0, jobs=1)
        oracles.check_mc_rows(rows, 1)
        # The experiment's own graph and the noise its runs measure under.
        with tracer.span("dynamics.build_dynamics"):
            dyn = build_dynamics(cfg.model, cfg.methods)
        graph = built_graph(cfg, dyn, None, tracer, with_policy=True)
        return {"cfg": cfg, "dyn": dyn, "graph": graph, "track_cfg": mismatched(cfg)}

    def cycle(self, ctx, seq, tracer, rec: Recorder) -> None:
        cfg, dyn, graph, track_cfg = ctx["cfg"], ctx["dyn"], ctx["graph"], ctx["track_cfg"]
        batch_seq, pick_seq, track_seq = seq.spawn(3)
        runs = self.sizes.mc_batch
        seed = seed_int(batch_seq)
        with _attempt(rec, "monte-carlo sweep"), tracer.span("op.mc_sweep"):
            t0 = time.perf_counter()
            with tracer.span("experiments.monte_carlo"):
                rows = monte_carlo(cfg, runs=runs, seed=seed, jobs=1)
            elapsed = time.perf_counter() - t0
            with tracer.span("oracle"):
                oracles.check_mc_rows(rows, runs)
                run = int(np.random.default_rng(pick_seq).integers(runs))
                oracles.check_adaptive_row(rows[run], run, seed, track_cfg, dyn, graph)
            rec.primary(elapsed, units=runs)
        with _attempt(rec, "adaptive tracking run"), tracer.span("op.tracking_run"):
            trace, run_metrics, source, _ = tracking_run(track_cfg, dyn, graph, track_seq,
                                                         tracer)
            with tracer.span("oracle"):
                oracles.check_track(trace, run_metrics, cfg.methods, cfg.sim.horizon, dyn)
            rec.secondary_s.extend(source.gaps_s)


class ScheduleQuery(Workload):
    name = "schedule-query"
    aliases = {"qdp_query_ms_p50": "primary_ms_p50",
               "exact_query_ms_p50": "secondary_ms_p50"}
    # A qdp query is whole-array passes over 5000-node tables; over nine
    # minutes of interleaved timing its time tracked the vector loop's, and
    # divided by the scalar loop it spread more than in milliseconds.
    primary_ref = "vector"

    def setup(self, tracer):
        occ = load_scenario(os.path.join(CONFIGS, "occlusion_run.json"))
        di = load_scenario(os.path.join(CONFIGS, "double_integrator.json"))
        with tracer.span("dynamics.build_dynamics"):
            occ_dyn = build_dynamics(occ.model, occ.methods)
        with tracer.span("dynamics.build_dynamics"):
            di_dyn = build_dynamics(di.model, di.methods)
        graph = built_graph(occ, occ_dyn, self.sizes.occlusion_nodes, tracer, with_policy=False)
        return {"occ": occ, "occ_dyn": occ_dyn, "occ_graph": graph, "di": di, "di_dyn": di_dyn}

    def cycle(self, ctx, seq, tracer, rec: Recorder) -> None:
        occ, occ_dyn, graph = ctx["occ"], ctx["occ_dyn"], ctx["occ_graph"]
        di, di_dyn = ctx["di"], ctx["di_dyn"]
        sz = self.sizes
        P0 = sample_region(occ.model.n_x, occ.graph.b0, 1, seq)[0]
        with _attempt(rec, "qdp query"), tracer.span("op.qdp_query"):
            t0 = time.perf_counter()
            with tracer.span("covgraph.quantize"):
                q0 = quantize(P0, graph)
            with tracer.span("qdp.qdp"):
                schedule, cost = qdp(q0, occ.tf, occ.lam_alpha, graph, occ.methods, occ_dyn)
            elapsed = time.perf_counter() - t0
            with tracer.span("oracle"):
                oracles.check_qdp(graph, q0, schedule, cost, occ.tf, occ.lam_alpha,
                                  occ.methods, occ_dyn)
            rec.primary(elapsed)
        with _attempt(rec, "exact query"), tracer.span("op.exact_query"):
            t0 = time.perf_counter()
            with tracer.span("exact.dyn_prog_exact"):
                schedule, cost = dyn_prog_exact(P0, sz.exact_tf, EXACT_LAM, di.methods, di_dyn)
            elapsed = time.perf_counter() - t0
            with tracer.span("oracle"):
                oracles.check_exact(P0, schedule, cost, sz.exact_tf, EXACT_LAM,
                                    di.methods, di_dyn)
                oracles.check_exact_bruteforce(P0, sz.bruteforce_tf, EXACT_LAM,
                                               di.methods, di_dyn)
            rec.secondary_s.append(elapsed)


WORKLOADS = {cls.name: cls for cls in (TrackOcclusion, McAdaptive, ScheduleQuery)}


REFERENCE_CALLS = 3


def measure(workload, ctx, seconds: float, entropy, tracer, rec: Recorder) -> int:
    """Run cycles 0, 1, ... until `seconds` have passed; at least one cycle.

    The reference loops run after every cycle. Each latency is also divided by
    the median of its workload's loop timed just before and just after its
    cycle, so a swing in the machine's speed within a run cancels where it
    happens.
    """
    start = time.perf_counter()
    i = 0
    before: dict = {name: [] for name in LOOPS}
    while i == 0 or time.perf_counter() - start < seconds:
        n_primary, n_secondary = len(rec.primary_s), len(rec.secondary_s)
        workload.cycle(ctx, np.random.SeedSequence(entropy, spawn_key=(i,)), tracer, rec)
        after = time_reference(REFERENCE_CALLS)
        for name, times in after.items():
            rec.reference_s[name].extend(times)
        local = {name: statistics.median(before[name] + after[name]) for name in LOOPS}
        rec.primary_ref.extend(t / local[workload.primary_ref]
                               for t in rec.primary_s[n_primary:])
        rec.secondary_ref.extend(t / local[workload.secondary_ref]
                                 for t in rec.secondary_s[n_secondary:])
        before = after
        i += 1
    return i
