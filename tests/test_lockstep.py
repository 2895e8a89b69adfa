"""Lockstep Monte-Carlo sweeps against runs made one at a time.

`monte_carlo` steps each block of tracking runs together with `run_lockstep`.
The references here are built run by run from `simulate_sde`,
`GridMeasurementSource`, `run_loop` and `metrics` (the one-run path that
`simulate` takes), and rows and traces must equal theirs bit for bit.
"""

import json
import math
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from latsched import (
    BeliefState,
    ContinuousModel,
    GridMeasurementSource,
    InnovationWindow,
    PerceptionMethod,
    adaptive_R,
    attach_policy,
    build_dynamics,
    expand_graph,
    metrics,
    monte_carlo,
    quantize,
    run_loop,
    sample_region,
    simulate_sde,
)
from latsched import covgraph, experiments, horizon
from latsched.config import parse_scenario
from latsched.horizon import run_lockstep
from test_epoch_memo import assert_same_trace

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def noise_mismatch(name, lam_alpha=5.0, horizon_s=10.0, occlusions=(), adaptive=True):
    """The shipped noise_mismatch scenario under one experiment and variant."""
    payload = json.loads((CONFIGS / "noise_mismatch.json").read_text())
    payload["cost"]["lambda_alpha"] = lam_alpha
    payload["sim"].update(horizon=horizon_s, occlusions=[list(o) for o in occlusions],
                          adaptive_R=adaptive)
    payload["experiment"] = ({"name": "adaptive-R", "true_R_factor": 9.0}
                             if name == "adaptive-R" else {"name": name})
    return parse_scenario(payload)


_GRAPHS = {}


def graph_for(cfg, dyn):
    """The experiment's graph and policy, built through the public functions."""
    key = (cfg.lam_alpha, cfg.tf)
    if key not in _GRAPHS:
        reps = sample_region(cfg.model.n_x, cfg.graph.b0, cfg.graph.count, cfg.graph.seed)
        graph = expand_graph(reps, cfg.methods, dyn, admit_tol=cfg.graph.admit_tol,
                             b0=cfg.graph.b0)
        attach_policy(graph, cfg.tf, cfg.lam_alpha, cfg.methods, dyn)
        _GRAPHS[key] = graph
    return _GRAPHS[key]


def per_run_rows(cfg, runs, seed, corrupt=None):
    """The sweep's rows built run by run; `corrupt(run, path)` edits a truth path."""
    dyn = build_dynamics(cfg.model, cfg.methods)
    graph = graph_for(cfg, dyn)
    entropy = np.random.SeedSequence(seed).entropy
    true_R = cfg.sim.true_R
    if cfg.experiment.name == "adaptive-R":
        true_R = {m.id: cfg.experiment.true_R_factor * m.R for m in cfg.methods}
    rows = []
    for run in range(runs):
        truth_seed, meas_seed = np.random.SeedSequence(entropy, spawn_key=(run,)).spawn(2)
        _, path = simulate_sde(cfg.model, cfg.sim.horizon, cfg.sim.dt, truth_seed)
        if corrupt is not None:
            path = corrupt(run, path)

        def track(policy, adaptive):
            source = GridMeasurementSource(cfg.model, path, cfg.sim.dt,
                                           np.random.default_rng(meas_seed),
                                           occlusions=cfg.sim.occlusions, true_R=true_R)
            trace = run_loop(cfg.model, cfg.methods, graph, policy, cfg.sim.horizon, source,
                             dyn, use_adaptive=adaptive, window_length=cfg.sim.window)
            return metrics(trace, path, cfg.lam_alpha, cfg.methods, cfg.sim.horizon, dyn,
                           cfg.sim.dt)

        try:
            if cfg.experiment.name == "adaptive-R":
                adaptive, nominal = (track(graph.policy, a).mse for a in (True, False))
                row = {"run": run, "mse_adaptive": adaptive, "mse_nominal": nominal,
                       "improved": int(adaptive < nominal)}
            else:
                mh = track(graph.policy, cfg.sim.adaptive)
                row = {"run": run, "j_mh": mh.j_empirical, "cpu_mh": mh.cpu_load,
                       "attention_mh": mh.attention, "mse_mh": mh.mse}
                for m in cfg.methods:
                    sm = track(np.full(graph.size, m.id, dtype=np.int64), False)
                    row.update({f"j_static_{m.id}": sm.j_empirical,
                                f"cpu_static_{m.id}": sm.cpu_load,
                                f"attention_static_{m.id}": sm.attention,
                                f"mse_static_{m.id}": sm.mse})
        except Exception as exc:  # noqa: BLE001 - the sweep records it the same way
            row = {"run": run, "error": f"{type(exc).__name__}: {exc}"}
        rows.append(row)
    return rows


def same_rows(got, want):
    """Row lists equal key for key and bit for bit, a NaN equal to a NaN."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert list(a) == list(b), (a, b)
        for key in a:
            x, y = a[key], b[key]
            assert type(x) is type(y) and (
                x == y or (isinstance(x, float) and math.isnan(x) and math.isnan(y))), \
                (key, a, b)
            if isinstance(x, float):
                assert np.float64(x).tobytes() == np.float64(y).tobytes(), (key, x, y)


windows = st.lists(
    st.tuples(st.integers(0, 39), st.integers(1, 15)).map(
        lambda w: (w[0] / 10, min(w[0] + w[1], 40) / 10)),
    max_size=2)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(["adaptive-R", "moving-horizon"]),
    runs=st.integers(1, 9),
    lam_alpha=st.sampled_from([0.05, 0.2, 5.0]),
    horizon_s=st.sampled_from([2.5, 4.0]),
    occlusions=windows,
    adaptive=st.booleans(),
    seed=st.integers(0, 2**16),
    jobs=st.sampled_from([1, 2]),
)
# At lambda_alpha = 0.2 the 8 runs of seed 3 follow 8 different adaptive
# schedules, so method groups split and rejoin at every few steps.
@example(name="adaptive-R", runs=8, lam_alpha=0.2, horizon_s=10.0, occlusions=[],
         adaptive=True, seed=3, jobs=1)
@example(name="moving-horizon", runs=8, lam_alpha=0.2, horizon_s=10.0,
         occlusions=[(2.0, 3.5)], adaptive=True, seed=3, jobs=2)
def test_rows_equal_runs_made_one_at_a_time(name, runs, lam_alpha, horizon_s, occlusions,
                                            adaptive, seed, jobs):
    cfg = noise_mismatch(name, lam_alpha, horizon_s, occlusions, adaptive)
    # A block of one is the per-run path. A larger block that fell back to it
    # after raising would still give these rows, so here the sweep may not.
    refuse = runs >= 2 * jobs
    with patch.object(experiments, "run_loop", fallback_refused if refuse else run_loop):
        got = monte_carlo(cfg, runs=runs, seed=seed, jobs=jobs)
    same_rows(got, per_run_rows(cfg, runs, seed))


def fallback_refused(*args, **kwargs):
    raise AssertionError("a lockstep block fell back to run_loop")


def test_seed_3_splits_the_adaptive_schedules():
    # The example above discriminates only if its runs follow different
    # schedules, so groups of one method hold some runs and not others.
    cfg = noise_mismatch("adaptive-R", lam_alpha=0.2)
    dyn = build_dynamics(cfg.model, cfg.methods)
    graph = graph_for(cfg, dyn)
    entropy = np.random.SeedSequence(3).entropy
    true_R = {m.id: 9.0 * m.R for m in cfg.methods}
    schedules, starts = set(), {}
    for run in range(8):
        truth_seed, meas_seed = np.random.SeedSequence(entropy, spawn_key=(run,)).spawn(2)
        _, path = simulate_sde(cfg.model, cfg.sim.horizon, cfg.sim.dt, truth_seed)
        source = GridMeasurementSource(cfg.model, path, cfg.sim.dt,
                                       np.random.default_rng(meas_seed), true_R=true_R)
        trace = run_loop(cfg.model, cfg.methods, graph, graph.policy, cfg.sim.horizon, source,
                         dyn, use_adaptive=True, window_length=cfg.sim.window)
        schedules.add(tuple(e.method_id for e in trace.epochs))
        for e in trace.epochs:
            starts.setdefault(e.t_steps, set()).add(e.method_id)
    assert len(schedules) == 8
    # Steps at which runs start epochs of both methods: two groups at once.
    assert sum(methods == {1, 2} for methods in starts.values()) >= 10


class TestErrorIsolation:
    """A run that goes wrong changes its own row only, as in the per-run path."""

    @staticmethod
    def sweep_with(monkeypatch, cfg, runs, corrupt):
        simulate = experiments.simulate_sde

        def corrupted(model, horizon_s, dt, seed):
            t, path = simulate(model, horizon_s, dt, seed)
            return t, corrupt(seed.spawn_key[0], path)

        monkeypatch.setattr(experiments, "simulate_sde", corrupted)
        return monte_carlo(cfg, runs=runs, seed=4)

    @pytest.mark.parametrize("name", ["adaptive-R", "moving-horizon"])
    def test_non_finite_truth_path(self, monkeypatch, name):
        cfg = noise_mismatch(name, lam_alpha=0.2, horizon_s=4.0, occlusions=[(1.0, 1.5)])

        def corrupt(run, path):
            if run == 1:
                path = path.copy()
                path[len(path) // 2:, 0] = np.nan
            return path

        clean = monte_carlo(cfg, runs=4, seed=4)
        got = self.sweep_with(monkeypatch, cfg, 4, corrupt)
        want = per_run_rows(cfg, 4, 4, corrupt)
        same_rows(got, want)
        same_rows([got[0]] + got[2:], [clean[0]] + clean[2:])
        assert any(isinstance(v, float) and math.isnan(v) for v in got[1].values())

    @pytest.mark.parametrize("name", ["adaptive-R", "moving-horizon"])
    def test_run_that_raises(self, monkeypatch, name):
        # A truth path that ends early: the block's paths no longer stack, and
        # run 1 alone fails in its metrics, as it does when run by itself (its
        # first track runs the fast method only, so its trace ends inside the
        # path and the cost finds the window uncovered).
        cfg = noise_mismatch(name, lam_alpha=5.0, horizon_s=4.0)

        def corrupt(run, path):
            return path[: len(path) // 2] if run == 1 else path

        clean = monte_carlo(cfg, runs=4, seed=4)
        got = self.sweep_with(monkeypatch, cfg, 4, corrupt)
        same_rows(got, per_run_rows(cfg, 4, 4, corrupt))
        assert list(got[1]) == ["run", "error"]
        same_rows([got[0]] + got[2:], [clean[0]] + clean[2:])


@pytest.fixture(scope="module")
def planar():
    model = ContinuousModel(
        A=[[0.0, 1.0], [0.0, 0.0]], B=np.eye(2), W=np.diag([0.5, 0.5]), C=np.eye(2),
        x0=[0.5, -0.2], P0=np.eye(2), dt_s=0.1,
    )
    methods = [
        PerceptionMethod(id=1, steps=1, R=np.diag([0.5, 0.5]), cpu=0.5, penalty=0.05),
        PerceptionMethod(id=2, steps=3, R=np.diag([0.05, 0.05]), cpu=0.8, penalty=0.24),
    ]
    dyn = build_dynamics(model, methods)
    graph = expand_graph(sample_region(2, 2.0, 40, seed=1), methods, dyn, b0=2.0)
    attach_policy(graph, 1.0, 0.2, methods, dyn)
    return model, methods, dyn, graph


@settings(max_examples=80, deadline=None)
@given(
    runs=st.integers(1, 5),
    horizon_s=st.sampled_from([0.8, 0.9, 1.0, 2.3]),
    path_steps=st.integers(5, 30),
    adaptive=st.booleans(),
    window=st.integers(1, 4),
    policy=st.sampled_from(["graph", "alternate"]),
    occlusions=st.lists(st.tuples(st.integers(0, 20), st.integers(1, 6)), max_size=2),
    seed=st.integers(0, 2**16),
)
def test_traces_equal_run_loop(planar, runs, horizon_s, path_steps, adaptive, window, policy,
                               occlusions, seed):
    # Whole traces, every epoch's belief included; paths that end before the
    # horizon end the runs early, and some horizons end on an epoch boundary.
    model, methods, dyn, graph = planar
    rng = np.random.default_rng(seed)
    paths = rng.standard_normal((runs, path_steps, 2))
    seeds = np.random.SeedSequence(seed).spawn(runs)
    occlusions = [(a / 10, (a + b) / 10) for a, b in occlusions]
    policy = graph.policy if policy == "graph" else 1 + np.arange(graph.size) % 2
    true_R = {2: np.diag([0.2, 0.3])}
    source = GridMeasurementSource(model, paths, model.dt_s,
                                   [np.random.default_rng(s) for s in seeds],
                                   occlusions=occlusions, true_R=true_R)
    got = run_lockstep(model, methods, graph, policy, horizon_s, source, dyn,
                       use_adaptive=adaptive, window_length=window)
    for path, s, trace in zip(paths, seeds, got):
        one = GridMeasurementSource(model, path, model.dt_s, np.random.default_rng(s),
                                    occlusions=occlusions, true_R=true_R)
        assert_same_trace(trace, run_loop(model, methods, graph, policy, horizon_s, one, dyn,
                                          use_adaptive=adaptive, window_length=window))


@settings(max_examples=40, deadline=None)
@given(
    n_z=st.integers(1, 3),
    length=st.integers(1, 6),
    runs=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_windows_estimate_what_adaptive_R_estimates(n_z, length, runs, seed):
    # Runs push at different epochs and skip some, so their windows hold
    # different counts of live innovations, some older than `length` epochs.
    rng = np.random.default_rng(seed)
    model = ContinuousModel(
        A=np.zeros((n_z, n_z)), B=np.eye(n_z), W=np.eye(n_z), C=np.eye(n_z),
        x0=np.zeros(n_z), P0=np.eye(n_z), dt_s=0.1,
    )
    method = PerceptionMethod(id=1, steps=1, R=np.eye(n_z), cpu=0.5, penalty=0.0)
    ring = (np.zeros((runs, length, n_z, n_z)), np.full((runs, length), -length - 1))
    singles = [InnovationWindow(length) for _ in range(runs)]
    epochs = np.zeros(runs, dtype=np.int64)
    for _ in range(int(rng.integers(1, 4 * length))):
        epochs += rng.integers(1, length + 2, size=runs)
        pushing = np.flatnonzero(rng.random(runs) < 0.7)
        if not pushing.size:
            continue
        e = rng.standard_normal((pushing.size, n_z)) * 10.0 ** rng.uniform(-3, 3)
        e[rng.random(e.shape) < 0.2] = -0.0
        P = np.eye(n_z) * 10.0 ** rng.uniform(-4, 2, size=(pushing.size, 1, 1))
        outer, count = horizon._push(ring, pushing, epochs[pushing], e, length)
        got = horizon._estimate_R(outer, count, P, method, model)
        for j, run in enumerate(pushing):
            singles[run].push(1, int(epochs[run]), e[j])
            want = adaptive_R(singles[run], method, int(epochs[run]),
                              BeliefState(0.0, np.zeros(n_z), P[j]), model)
            assert got[j].tobytes() == want.tobytes()


@pytest.mark.parametrize("threshold", [0, covgraph._SCAN_ENTRIES])
def test_stacked_quantize_is_nearest_member_by_member(monkeypatch, threshold):
    # Scanned (small graph) and scored (large graph) alike.
    monkeypatch.setattr(covgraph, "_SCAN_ENTRIES", threshold)
    rng = np.random.default_rng(5)
    reps = sample_region(2, 2.0, 200, rng)
    graph = covgraph.CovarianceGraph(reps=np.concatenate([reps, reps[:20]]),
                                     succ=np.zeros((220, 1)), delta=0.0, b0=2.0, bound=2.0)
    points = np.concatenate([sample_region(2, 2.5, 300, rng), reps[:30], reps[:30] + 1e-17])
    got = quantize(points, graph)
    assert got.tolist() == [graph.nearest(P)[0] for P in points]
