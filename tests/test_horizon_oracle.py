"""The lean controller epoch against per-point and per-node reference loops.

`run_loop` and `run_lockstep` fill the epochs' interior sensor means after
their last epoch from one gathered product over the step tables,
`TrackingTrace.grid` derives tr P there from the epochs,
`CovarianceGraph.nearest` scores large graphs with one product against cached
operands, and `adaptive_R` sums its outer products from one stack. The loops
below are the references; every output must equal theirs bit for bit.
"""

from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
from latsched import covgraph, estimator, horizon
from latsched.config import load_scenario
from latsched.estimator import Measurement, epoch_covariance, epoch_mean
from latsched.exact import window_steps
from latsched.horizon import run_lockstep

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
                R = reference_adaptive_R(window, method, meas.k, belief, model)
                L, Phat = epoch_covariance(belief.Phat, method, dyn, R)
                belief = epoch_mean(belief, method, dyn, L, Phat, meas.z)
            else:
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


def assert_same_run(trace, reference, methods, dyn):
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
    grid_trP, grid_method, grid_measured = trace.grid(methods, dyn)
    assert np.array_equal(grid_trP, trP)
    assert np.array_equal(grid_method, method_id)
    assert np.array_equal(grid_measured, measured)
    assert trace.final_belief.t == final.t
    assert np.array_equal(trace.final_belief.xhat, final.xhat)
    assert np.array_equal(trace.final_belief.Phat, final.Phat)


def run_both(model, methods, graph, policy, horizon_s, make_source, dyn, **kwargs):
    """The library run and the reference run on fresh, equal sources."""
    trace = run_loop(model, methods, graph, policy, horizon_s, make_source(), dyn, **kwargs)
    reference = reference_run_loop(model, methods, graph, policy, horizon_s, make_source(),
                                   dyn, **kwargs)
    return trace, reference


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


def shipped_run(name, mismatched=False):
    """A shipped config's graph with its policy, and fresh sources over one truth path.

    `mismatched` measures under the adaptive-R experiment's noise,
    `true_R_factor` times each method's nominal R.
    """
    cfg = load_scenario(CONFIGS / f"{name}.json")
    true_R = cfg.sim.true_R
    if mismatched:
        true_R = {m.id: cfg.experiment.true_R_factor * m.R for m in cfg.methods}
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
                                     occlusions=cfg.sim.occlusions, true_R=true_R)

    return cfg, dyn, graph, make_source


def refuse(*args, **kwargs):
    raise AssertionError("a refused function was called")


def near_singular(methods):
    """A model without process noise and with a rank-one P0, and its dynamics."""
    model = ContinuousModel(
        A=[[0.0, 1.0], [0.0, 0.0]], B=np.eye(2), W=np.zeros((2, 2)), C=np.eye(2),
        x0=[1.0, 0.5], P0=[[1.0, 1.0], [1.0, 1.0]], dt_s=0.1,
    )
    return model, build_dynamics(model, methods)


class TestShippedRuns:
    @pytest.mark.parametrize("name", ["occlusion_run", "double_integrator", "noise_mismatch"])
    def test_simulate_pipeline(self, name):
        cfg, dyn, graph, make_source = shipped_run(name)
        trace, reference = run_both(
            cfg.model, cfg.methods, graph, graph.policy, cfg.sim.horizon, make_source, dyn,
            use_adaptive=cfg.sim.adaptive, window_length=cfg.sim.window)
        assert_same_run(trace, reference, cfg.methods, dyn)
        assert max(m.steps for m in cfg.methods) > 1  # interior points are recorded

    def test_adaptive_run_calls_no_public_linalg(self):
        # An adaptive epoch's eigh, eigvalsh, cholesky and inv all go through
        # dynamics._lapack, never through the public numpy.linalg wrappers.
        cfg, dyn, graph, make_source = shipped_run("noise_mismatch", mismatched=True)
        args = (cfg.model, cfg.methods, graph, graph.policy, cfg.sim.horizon)
        reference = reference_run_loop(*args, make_source(), dyn, use_adaptive=True,
                                       window_length=cfg.sim.window)
        with patch.multiple(np.linalg, eigh=refuse, eigvalsh=refuse, cholesky=refuse,
                            inv=refuse):
            trace = run_loop(*args, make_source(), dyn, use_adaptive=True,
                             window_length=cfg.sim.window)
        assert_same_run(trace, reference, cfg.methods, dyn)
        assert sum(e.measured for e in trace.epochs) > cfg.sim.window


class TestSmallRuns:
    @pytest.mark.parametrize("horizon_s", [1.0, 0.9, 0.8, 0.1])
    def test_horizon_cuts_last_epoch(self, planar, scoring, horizon_s):
        model, methods, dyn, graph = planar
        policy = np.full(graph.size, 2, dtype=np.int64)
        trace, reference = run_both(model, methods, graph, policy, horizon_s,
                                    lambda: StepSource(model), dyn)
        assert_same_run(trace, reference, methods, dyn)
        assert trace.grid_steps[-1] == window_steps(horizon_s, dyn.dt_s)

    @pytest.mark.parametrize("use_adaptive", [False, True])
    def test_policy_run_with_occlusion(self, planar, scoring, use_adaptive):
        model, methods, dyn, graph = planar
        policy = 1 + np.arange(graph.size) % 2
        drop = lambda t_steps: 20 <= t_steps < 45
        trace, reference = run_both(model, methods, graph, policy, 9.0,
                                    lambda: StepSource(model, drop), dyn,
                                    use_adaptive=use_adaptive, window_length=4)
        assert_same_run(trace, reference, methods, dyn)
        assert {e.method_id for e in trace.epochs} == {1, 2}

    def test_near_singular_covariance_falls_back(self, planar, scoring):
        # No process noise and a rank-one P0: every interior covariance is
        # singular, so BeliefState's clamp may act on the points whose tr P
        # `TrackingTrace.grid` derives from per-point predict calls.
        _, methods, _, graph = planar
        model, dyn = near_singular(methods)
        policy = np.full(graph.size, 2, dtype=np.int64)
        for horizon_s in (2.0, 1.9, 1.8):
            trace, reference = run_both(model, methods, graph, policy, horizon_s,
                                        lambda: StepSource(model), dyn)
            assert_same_run(trace, reference, methods, dyn)

    def test_near_singular_runs_call_no_predict(self, planar):
        # The loops record means only: with predict refused, a run and a
        # 3-run stack still complete, and their traces equal the reference's.
        _, methods, _, graph = planar
        model, dyn = near_singular(methods)
        policy = np.full(graph.size, 2, dtype=np.int64)
        paths = np.random.default_rng(4).standard_normal((3, 21, 2))

        def one_path(run):
            return GridMeasurementSource(model, paths[run], model.dt_s,
                                         np.random.default_rng(run))

        stacked = GridMeasurementSource(model, paths, model.dt_s,
                                        [np.random.default_rng(run) for run in range(3)])
        # 1.8 s ends on an epoch boundary, so the endpoint is the final belief's.
        assert not hasattr(horizon, "predict")
        with patch.object(estimator, "predict", refuse):
            one = run_loop(model, methods, graph, policy, 1.8, one_path(0), dyn)
            stack = run_lockstep(model, methods, graph, policy, 1.8, stacked, dyn)
        for run, trace in [(0, one)] + list(enumerate(stack)):
            reference = reference_run_loop(model, methods, graph, policy, 1.8, one_path(run),
                                           dyn)
            assert_same_run(trace, reference, methods, dyn)

    def test_single_node_graph(self, planar, scoring):
        model, methods, dyn, _ = planar
        graph = CovarianceGraph(reps=np.eye(2)[None], succ=[[0, 0]], delta=0.0, b0=1.0,
                                bound=1.0, policy=np.array([2]))
        assert graph.nearest(5 * np.eye(2)) == scan_nearest(graph, 5 * np.eye(2))
        trace, reference = run_both(model, methods, graph, graph.policy, 1.5,
                                    lambda: StepSource(model, lambda t: t % 6 == 3), dyn)
        assert_same_run(trace, reference, methods, dyn)


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


def ladder_graph(n):
    """Nodes c I on a geometric ladder of c, whose policy alternates two methods."""
    scales = np.geomspace(1e-3, 1e4, 24)
    return CovarianceGraph(reps=scales[:, None, None] * np.eye(n), succ=np.zeros((24, 1)),
                           delta=0.0, b0=1.0, bound=1.0, policy=1 + np.arange(24) % 2)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 4),
    steps=st.tuples(st.integers(1, 9), st.integers(1, 9)),
    horizon=st.integers(1, 40),
    path_steps=st.integers(1, 45),
    drops=st.lists(st.tuples(st.integers(0, 40), st.integers(1, 12)), max_size=2),
    runs=st.integers(1, 3),
    adaptive=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# The last epoch ends exactly on the horizon (3 + 9 + 3 + 9 steps).
@example(n=2, steps=(3, 9), horizon=24, path_steps=45, drops=[], runs=2, adaptive=False, seed=0)
# The paths run out at an epoch start before the horizon, after a dropped span.
@example(n=3, steps=(4, 7), horizon=40, path_steps=20, drops=[(5, 6)], runs=3, adaptive=True,
         seed=1)
# The adaptive runs diverge, then start their last epoch together; it ends
# past the horizon.
@example(n=1, steps=(2, 1), horizon=5, path_steps=18, drops=[], runs=2, adaptive=True, seed=5)
# A one-run stack, the path `simulate` and a block of one take, adaptive
# across a dropped span.
@example(n=2, steps=(1, 3), horizon=30, path_steps=45, drops=[(4, 5)], runs=1, adaptive=True,
         seed=2)
def test_interior_points_match_predict(n, steps, horizon, path_steps, drops, runs, adaptive,
                                       seed):
    # `_traces` writes every interior mean after the loop. A run and each run of
    # a stack must still read predict's mean at every step, bit for bit. The
    # stack's runs see paths of different scales, so adaptive runs take
    # different methods and their epochs start at different steps.
    rng = np.random.default_rng(seed)
    model = ContinuousModel(
        A=rng.uniform(-1.0, 1.0, (n, n)), B=np.eye(n), W=0.5 * np.eye(n), C=np.eye(n),
        x0=rng.standard_normal(n), P0=np.eye(n), dt_s=0.1,
    )
    methods = [PerceptionMethod(id=i + 1, steps=s, R=(0.5 / (i + 1)) * np.eye(n), cpu=0.5,
                                penalty=0.0) for i, s in enumerate(steps)]
    dyn = build_dynamics(model, methods)
    graph = ladder_graph(n)
    paths = rng.standard_normal((runs, path_steps, n)) * np.array([1.0, 4.0, 0.25])[:runs,
                                                                                  None, None]
    seeds = np.random.SeedSequence(seed).spawn(runs)
    occlusions = [(a * model.dt_s, (a + b) * model.dt_s) for a, b in drops]
    horizon_s = horizon * model.dt_s

    def one_path(run):
        return GridMeasurementSource(model, paths[run], model.dt_s,
                                     np.random.default_rng(seeds[run]), occlusions=occlusions)

    stacked = GridMeasurementSource(model, paths, model.dt_s,
                                    [np.random.default_rng(s) for s in seeds],
                                    occlusions=occlusions)
    kwargs = dict(use_adaptive=adaptive, window_length=3)
    stack = run_lockstep(model, methods, graph, graph.policy, horizon_s, stacked, dyn, **kwargs)
    one = run_loop(model, methods, graph, graph.policy, horizon_s, one_path(0), dyn, **kwargs)
    for run, trace in [(0, one)] + list(enumerate(stack)):
        reference = reference_run_loop(model, methods, graph, graph.policy, horizon_s,
                                       one_path(run), dyn, **kwargs)
        assert_same_run(trace, reference, methods, dyn)


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
