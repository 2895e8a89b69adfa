"""The lean controller epoch against per-point and per-node reference loops.

`run_loop` records an epoch's interior sensor points from one stacked product
over the step tables, `CovarianceGraph.nearest` scores large graphs with one
product against cached operands, and `adaptive_R` sums its outer products
from one stack. The loops below are the references; every output must equal
theirs bit for bit.
"""

from dataclasses import replace
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latsched import (
    BeliefState,
    ContinuousModel,
    CovarianceGraph,
    GridMeasurementSource,
    InnovationWindow,
    PerceptionMethod,
    SourceExhausted,
    adaptive_R,
    attach_policy,
    build_dynamics,
    correct,
    expand_graph,
    predict,
    run_loop,
    sample_region,
    simulate_sde,
)
from latsched import covgraph, horizon
from latsched.config import load_scenario
from latsched.estimator import Measurement
from latsched.exact import window_steps

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def scan_nearest(graph, P):
    """Nearest node by an einsum scan over every representative."""
    diff = graph.reps.reshape(graph.size, -1) - np.asarray(P, dtype=float).reshape(-1)
    d2 = np.einsum("ij,ij->i", diff, diff)
    idx = int(np.argmin(d2))
    return idx, float(np.sqrt(d2[idx]))


def reference_adaptive_R(window, method, k, belief_pre, model):
    """`adaptive_R` with the window's outer products summed one by one."""
    entries = window.innovations(method.id, k)
    if not entries:
        return method.R
    raw = sum(np.outer(e, e) for e in entries) / len(entries)
    raw = raw - model.C @ belief_pre.Phat @ model.C.T
    raw = 0.5 * (raw + raw.T)
    floor = 1e-6 * np.trace(method.R) / model.n_z
    eigvals, eigvecs = np.linalg.eigh(raw)
    if eigvals[-1] <= 0.0:
        return floor * np.eye(model.n_z)
    if eigvals[0] >= 0.0:
        return raw
    eigvals = np.where(eigvals < 0.0, floor, eigvals)
    clipped = (eigvecs * eigvals) @ eigvecs.T
    return 0.5 * (clipped + clipped.T)


def reference_run_loop(model, methods, graph, policy, horizon_s, source, dyn,
                       use_adaptive=False, window_length=10):
    """`run_loop` with one `predict` per interior point and scanned quantization."""
    horizon_steps = window_steps(horizon_s, dyn.dt_s)
    window = InnovationWindow(window_length)
    belief = BeliefState(0.0, model.x0, model.P0)
    pid = int(policy[scan_nearest(graph, belief.Phat)[0]])
    epochs, rows = [], []
    k = t_steps = 0
    while t_steps < horizon_steps:
        method = methods[pid - 1]
        try:
            meas = source(k, t_steps, method)
        except SourceExhausted:
            break
        measured = meas is not None
        epochs.append((k, t_steps, method.id, measured, belief))
        for j in range(method.steps):
            if t_steps + j > horizon_steps:
                break
            point = predict(belief, j * dyn.dt_s, dyn) if j else belief
            rows.append((t_steps + j, point.xhat, float(np.trace(point.Phat)),
                         method.id, int(measured)))
        if measured:
            window.push(method.id, meas.k, model.C @ belief.xhat - meas.z)
            if use_adaptive:
                meas = replace(meas, R_actual=reference_adaptive_R(
                    window, method, meas.k, belief, model))
            belief = correct(belief, meas, method, dyn)
        else:
            belief = predict(belief, method.latency(dyn.dt_s), dyn)
        pid = int(policy[scan_nearest(graph, belief.Phat)[0]])
        t_steps += method.steps
        k += 1
    if t_steps == horizon_steps and (not rows or rows[-1][0] < horizon_steps):
        last = epochs[-1] if epochs else (0, 0, 0, 0, None)
        rows.append((horizon_steps, belief.xhat, float(np.trace(belief.Phat)),
                     last[2], int(last[3])))
    return epochs, rows, belief


def assert_same_run(trace, reference):
    epochs, rows, final = reference
    assert [(e.k, e.t_steps, e.method_id, e.measured) for e in trace.epochs] == [
        e[:4] for e in epochs]
    for got, (*_, want) in zip(trace.epochs, epochs):
        assert got.belief.t == want.t
        assert np.array_equal(got.belief.xhat, want.xhat)
        assert np.array_equal(got.belief.Phat, want.Phat)
    steps, xhat, trP, method_id, measured = zip(*rows)
    assert np.array_equal(trace.grid_steps, steps)
    assert np.array_equal(trace.grid_xhat, np.array(xhat))
    assert np.array_equal(trace.grid_trP, trP)
    assert np.array_equal(trace.grid_method, method_id)
    assert np.array_equal(trace.grid_measured, measured)
    assert trace.final_belief.t == final.t
    assert np.array_equal(trace.final_belief.xhat, final.xhat)
    assert np.array_equal(trace.final_belief.Phat, final.Phat)


class CountingFallback:
    """Wraps `horizon._predicted_points` and counts the epochs it serves."""

    def __init__(self):
        self.calls = 0
        self._inner = horizon._predicted_points

    def __call__(self, *args):
        self.calls += 1
        return self._inner(*args)


def run_both(model, methods, graph, policy, horizon_s, make_source, dyn, **kwargs):
    """The library run and the reference run on fresh, equal sources."""
    fallback = CountingFallback()
    with patch.object(horizon, "_predicted_points", fallback):
        trace = run_loop(model, methods, graph, policy, horizon_s, make_source(), dyn, **kwargs)
    reference = reference_run_loop(model, methods, graph, policy, horizon_s, make_source(),
                                   dyn, **kwargs)
    return trace, reference, fallback.calls


class StepSource:
    """Deterministic detections; drops epochs whose start step `drop` selects."""

    def __init__(self, model, drop=lambda t_steps: False):
        self.model = model
        self.drop = drop

    def __call__(self, k, t_steps, method):
        if self.drop(t_steps):
            return None
        z = np.sin(0.3 * t_steps + np.arange(self.model.n_z))
        return Measurement(k=k, z=z, produced_at=(t_steps + method.steps) * self.model.dt_s,
                           method_id=method.id)


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
    return model, methods, dyn, graph


@pytest.fixture(params=["default", "scored"])
def scoring(request):
    """Run at the shipped scan threshold, then with every graph scored by product."""
    if request.param == "default":
        yield
    else:
        with patch.object(covgraph, "_SCAN_ENTRIES", 0):
            yield


class TestShippedRuns:
    @pytest.mark.parametrize("name", ["occlusion_run", "double_integrator", "noise_mismatch"])
    def test_simulate_pipeline(self, name):
        cfg = load_scenario(CONFIGS / f"{name}.json")
        dyn = build_dynamics(cfg.model, cfg.methods)
        reps = sample_region(cfg.model.n_x, cfg.graph.b0, cfg.graph.count, cfg.graph.seed)
        graph = expand_graph(reps, cfg.methods, dyn, admit_tol=cfg.graph.admit_tol,
                             b0=cfg.graph.b0)
        attach_policy(graph, cfg.tf, cfg.lam_alpha, cfg.methods, dyn)
        truth_seed, meas_seed = np.random.SeedSequence(cfg.sim.seed).spawn(2)
        _, path = simulate_sde(cfg.model, cfg.sim.horizon, cfg.sim.dt, truth_seed)

        def make_source():
            return GridMeasurementSource(cfg.model, path, cfg.sim.dt,
                                         np.random.default_rng(meas_seed),
                                         occlusions=cfg.sim.occlusions, true_R=cfg.sim.true_R)

        trace, reference, fallbacks = run_both(
            cfg.model, cfg.methods, graph, graph.policy, cfg.sim.horizon, make_source, dyn,
            use_adaptive=cfg.sim.adaptive, window_length=cfg.sim.window)
        assert_same_run(trace, reference)
        assert max(m.steps for m in cfg.methods) > 1  # interior points are recorded
        assert fallbacks == 0


class TestSmallRuns:
    @pytest.mark.parametrize("horizon_s", [1.0, 0.9, 0.8, 0.1])
    def test_horizon_cuts_last_epoch(self, planar, scoring, horizon_s):
        model, methods, dyn, graph = planar
        policy = np.full(graph.size, 2, dtype=np.int64)
        trace, reference, fallbacks = run_both(model, methods, graph, policy, horizon_s,
                                               lambda: StepSource(model), dyn)
        assert_same_run(trace, reference)
        assert trace.grid_steps[-1] == window_steps(horizon_s, dyn.dt_s)
        assert fallbacks == 0

    @pytest.mark.parametrize("use_adaptive", [False, True])
    def test_policy_run_with_occlusion(self, planar, scoring, use_adaptive):
        model, methods, dyn, graph = planar
        policy = 1 + np.arange(graph.size) % 2
        drop = lambda t_steps: 20 <= t_steps < 45
        trace, reference, _ = run_both(model, methods, graph, policy, 9.0,
                                       lambda: StepSource(model, drop), dyn,
                                       use_adaptive=use_adaptive, window_length=4)
        assert_same_run(trace, reference)
        assert {e.method_id for e in trace.epochs} == {1, 2}

    def test_near_singular_covariance_falls_back(self, planar, scoring):
        # No process noise and a rank-one P0: every interior covariance is
        # singular, so BeliefState's clamp may act and the stacked records
        # must give way to per-point predict calls.
        _, methods, _, graph = planar
        model = ContinuousModel(
            A=[[0.0, 1.0], [0.0, 0.0]], B=np.eye(2), W=np.zeros((2, 2)), C=np.eye(2),
            x0=[1.0, 0.5], P0=[[1.0, 1.0], [1.0, 1.0]], dt_s=0.1,
        )
        dyn = build_dynamics(model, methods)
        policy = np.full(graph.size, 2, dtype=np.int64)
        trace, reference, fallbacks = run_both(model, methods, graph, policy, 2.0,
                                               lambda: StepSource(model), dyn)
        assert_same_run(trace, reference)
        assert fallbacks == len(trace.epochs)

    def test_single_node_graph(self, planar, scoring):
        model, methods, dyn, _ = planar
        graph = CovarianceGraph(reps=np.eye(2)[None], succ=[[0, 0]], delta=0.0, b0=1.0,
                                bound=1.0, policy=np.array([2]))
        assert graph.nearest(5 * np.eye(2)) == scan_nearest(graph, 5 * np.eye(2))
        trace, reference, _ = run_both(model, methods, graph, graph.policy, 1.5,
                                       lambda: StepSource(model, lambda t: t % 6 == 3), dyn)
        assert_same_run(trace, reference)


class TestNearest:
    def test_duplicated_reps_go_to_lowest_id(self, scoring):
        rng = np.random.default_rng(3)
        base = np.array([G @ G.T for G in rng.standard_normal((4, 3, 3))])
        reps = base[[0, 1, 2, 1, 0, 3, 2, 3]]
        graph = CovarianceGraph(reps=reps, succ=np.zeros((8, 1)), delta=0.0, b0=1.0, bound=1.0)
        for i, want in enumerate([0, 1, 2, 1, 0, 5, 2, 5]):
            assert graph.nearest(reps[i]) == (want, 0.0)
            near = reps[i] + 1e-3 * np.eye(3)
            assert graph.nearest(near) == scan_nearest(graph, near)
            assert graph.nearest(near)[0] == want
        # Equidistant from nodes 0 and 1 (and their copies 4 and 3).
        middle = 0.5 * (reps[0] + reps[1])
        assert graph.nearest(middle) == scan_nearest(graph, middle)

    def test_near_tie_is_decided_by_the_exact_scan(self):
        # Node 0 is nearer by 2e-15 in squared distance, far below the
        # round-off of the norm score at this scale, which ranks node 1 first.
        x = 1e4 * np.eye(2)
        reps = np.array([x + np.diag([1e-6, 0.0]), x + np.diag([0.0, 1.001e-6])])
        graph = CovarianceGraph(reps=reps, succ=np.zeros((2, 1)), delta=0.0, b0=1.0, bound=1.0)
        flat = reps.reshape(2, -1)
        score = -2.0 * (x.reshape(1, -1) @ flat.T)[0] + np.einsum("ij,ij->i", flat, flat)
        assert np.argmin(score) == 1
        with patch.object(covgraph, "_SCAN_ENTRIES", 0):
            assert graph.nearest(x) == scan_nearest(graph, x)
            assert graph.nearest(x)[0] == 0

    def test_large_graph_scored_by_norms(self):
        rng = np.random.default_rng(5)
        reps = sample_region(4, 5.0, 400, rng)
        graph = CovarianceGraph(reps=reps, succ=np.zeros((400, 1)), delta=0.0, b0=5.0,
                                bound=5.0)
        assert graph.reps.size > covgraph._SCAN_ENTRIES
        for P in sample_region(4, 6.0, 50, rng):
            assert graph.nearest(P) == scan_nearest(graph, P)


@st.composite
def graphs_and_points(draw):
    """Small graphs with duplicated or integer reps, and points on, between or off them."""
    n = draw(st.integers(1, 3))
    count = draw(st.integers(1, 12))
    if draw(st.booleans()):
        values = st.integers(-3, 3).map(float)
    else:
        values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    base = np.array(draw(st.lists(values, min_size=count * n * n, max_size=count * n * n)))
    base = base.reshape(count, n, n)
    picks = draw(st.lists(st.integers(0, count - 1), min_size=1, max_size=20))
    reps = base[picks]
    kind = draw(st.sampled_from(["rep", "between", "free"]))
    if kind == "rep":
        P = reps[draw(st.integers(0, len(reps) - 1))]
    elif kind == "between":
        i, j = draw(st.integers(0, len(reps) - 1)), draw(st.integers(0, len(reps) - 1))
        P = 0.5 * (reps[i] + reps[j])
    else:
        P = np.array(draw(st.lists(values, min_size=n * n, max_size=n * n))).reshape(n, n)
    return reps, P


@settings(max_examples=150, deadline=None)
@given(case=graphs_and_points(), threshold=st.sampled_from([0, covgraph._SCAN_ENTRIES]),
       skip=st.integers(0, 19))
def test_nearest_matches_scan(case, threshold, skip):
    reps, P = case
    graph = CovarianceGraph(reps=reps, succ=np.zeros((len(reps), 1)), delta=0.0, b0=1.0,
                            bound=1.0)
    with patch.object(covgraph, "_SCAN_ENTRIES", threshold):
        assert graph.nearest(P) == scan_nearest(graph, P)
    if len(reps) < 2:
        return
    # Every rep skips itself, as in default_admit_tol, and P skips one rep.
    flat = reps.reshape(len(reps), -1)
    points = np.vstack([flat, P.reshape(1, -1)])
    exclude = np.append(np.arange(len(reps)), skip % len(reps))
    for block in (1, covgraph._BLOCK):
        with patch.object(covgraph, "_BLOCK", block):
            j, d2 = covgraph._nearest_known(flat, points, exclude=exclude)
        for i, x in enumerate(points):
            exact = np.einsum("ij,ij->i", flat - x, flat - x)
            exact[exclude[i]] = np.inf
            # The lowest id among exact ties, never the excluded row.
            assert j[i] == np.flatnonzero(exact == exact.min())[0]
            assert d2[i] == exact[j[i]]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 4),
    steps=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
    rank=st.integers(0, 4),
    noise=st.sampled_from([0.0, 1e-8, 0.5]),
)
def test_interior_points_match_predict(n, steps, seed, rank, noise):
    rng = np.random.default_rng(seed)
    model = ContinuousModel(
        A=rng.uniform(-1.0, 1.0, (n, n)), B=np.eye(n), W=noise * np.eye(n), C=np.eye(n),
        x0=rng.standard_normal(n), P0=np.eye(n), dt_s=0.1,
    )
    dyn = build_dynamics(model, [PerceptionMethod(id=1, steps=steps, R=np.eye(n), cpu=0.5,
                                                  penalty=0.0)])
    G = rng.standard_normal((n, min(rank, n)))
    belief = BeliefState(0.0, rng.standard_normal(n), G @ G.T)
    xhat, trP = horizon._points(belief, horizon._epoch_traces(belief.Phat, steps, dyn),
                                steps, dyn)
    want_x, want_tr = horizon._predicted_points(belief, steps, dyn)
    assert np.array_equal(np.asarray(xhat).reshape(-1, n), np.asarray(want_x).reshape(-1, n))
    assert list(trP) == want_tr


@settings(max_examples=60, deadline=None)
@given(
    n_z=st.integers(1, 4),
    length=st.integers(1, 10),
    seed=st.integers(0, 2**32 - 1),
    zeros=st.booleans(),
)
def test_adaptive_R_matches_outer_product_loop(n_z, length, seed, zeros):
    rng = np.random.default_rng(seed)
    model = ContinuousModel(
        A=np.zeros((n_z, n_z)), B=np.eye(n_z), W=np.eye(n_z), C=np.eye(n_z),
        x0=np.zeros(n_z), P0=np.eye(n_z), dt_s=0.1,
    )
    method = PerceptionMethod(id=1, steps=1, R=np.eye(n_z), cpu=0.5, penalty=0.0)
    window = InnovationWindow(length)
    for k in range(int(rng.integers(1, 2 * length + 1))):
        e = rng.standard_normal(n_z) * 10.0 ** rng.uniform(-3, 3)
        if zeros:
            e[rng.random(n_z) < 0.5] = -0.0
        window.push(1, k, e)
    belief = BeliefState(0.0, np.zeros(n_z), np.eye(n_z) * 10.0 ** rng.uniform(-4, 2))
    got = adaptive_R(window, method, k, belief, model)
    assert np.array_equal(got, reference_adaptive_R(window, method, k, belief, model))
