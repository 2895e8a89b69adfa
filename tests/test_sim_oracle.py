"""The simulation kernels and the run cost against independent references.

`simulate_sde` evaluates the exact recurrence x[k+1] = Ad x[k] + Wd^(1/2) n[k]
a chunk of steps at a time with stacked products. It reads the same normals
in the same order as the per-step loop `conftest.per_step_exact`, so its path
must match that loop's up to round-off (see `assert_same_path` for the
bound). Its law at the sensor steps must match that of Euler-Maruyama on a
grid a hundred times finer, `conftest.per_step_ensemble`, within Monte-Carlo
error (`TestLawMatchesFineEulerMaruyama`).
`empirical_cost` is the exact integral of tr(P(t)) over each epoch, from
`exact.window_cost`. It is checked against the trapezoid rule on the sim
grid, Richardson-extrapolated (see `richardson_empirical_cost`), and against
adaptive quadrature of the integrand read from `dyn.pair` on random models.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from latsched import (
    BeliefState,
    ContinuousModel,
    GridMeasurementSource,
    IncompleteScheduleError,
    PerceptionMethod,
    attach_policy,
    build_dynamics,
    expand_graph,
    run_loop,
    sample_region,
    simulate_sde,
)
from latsched.config import load_scenario
from latsched.dynamics import discretize
from latsched.exact import window_steps
from latsched.horizon import EpochRecord, TrackingTrace
from latsched.sim import _chunking, empirical_cost, grid_ratio

from conftest import assert_same_law, benchmark_model, per_step_ensemble, per_step_exact

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def per_point_empirical_cost(trace, lam_alpha, methods, tf, dyn, dt):
    """Window cost with one dyn.pair lookup and one trace per sim-grid point.

    Equal offsets into an epoch give the same float, so each offset's pair
    is looked up once per call and reused.
    """
    ratio = grid_ratio(dyn.dt_s, dt)
    tf_steps = window_steps(tf, dyn.dt_s)
    pairs = {}
    covered = 0
    total = 0.0
    for epoch in trace.epochs:
        if epoch.t_steps >= tf_steps:
            break
        method = methods[epoch.method_id - 1]
        total += lam_alpha * method.penalty
        start = epoch.t_steps * ratio
        stop = min((epoch.t_steps + method.steps) * ratio, tf_steps * ratio)
        P = epoch.belief.Phat
        values = np.empty(stop - start + 1)
        for j in range(start, stop + 1):
            if j - start not in pairs:
                pairs[j - start] = dyn.pair((j - start) * dt)
            Ad, Wd = pairs[j - start]
            values[j - start] = float(((Ad @ P) * Ad).sum() + np.trace(Wd))
        total += float(np.trapezoid(values, dx=dt))
        covered = max(covered, stop)
    if covered < tf_steps * ratio:
        raise ValueError("trace does not cover the requested window")
    return total / tf


# Relative bound on |empirical_cost - Richardson trapezoid| on the bench models.
RICHARDSON_TOL = 1e-12


def richardson_empirical_cost(trace, lam_alpha, methods, tf, dyn, dt):
    """(4 T(dt/2) - T(dt)) / 3 from the trapezoid T of `per_point_empirical_cost`.

    The trapezoid error is c2 dt^2 + c4 dt^4 + ..., and c4 is proportional to
    the jump of the integrand's third derivative across each epoch. On the
    nilpotent bench and shipped models tr(Ad(s) P Ad(s)') + tr Wd(s) is a cubic
    in s, so c4 and every later term vanish and the extrapolation is exact up
    to round-off (at most 4.4e-16 seen on the runs below; each halving of dt
    cuts the trapezoid error by 4.000). A wrong Gram, start belief or cut moves
    the cost by far more than RICHARDSON_TOL.
    """
    coarse = per_point_empirical_cost(trace, lam_alpha, methods, tf, dyn, dt)
    fine = per_point_empirical_cost(trace, lam_alpha, methods, tf, dyn, dt / 2)
    return (4.0 * fine - coarse) / 3.0


def assert_richardson_cost(trace, lam_alpha, methods, tf, dyn, dt):
    cost = empirical_cost(trace, lam_alpha, methods, tf, dyn)
    ref = richardson_empirical_cost(trace, lam_alpha, methods, tf, dyn, dt)
    assert abs(cost - ref) <= RICHARDSON_TOL * abs(ref)


def quad_empirical_cost(trace, lam_alpha, methods, tf, dyn):
    """Window cost with scipy `quad` of tr(Ad P Ad') + tr(Wd) over each epoch."""
    tf_steps = window_steps(tf, dyn.dt_s)
    total = 0.0
    for epoch in trace.epochs:
        if epoch.t_steps >= tf_steps:
            break
        method = methods[epoch.method_id - 1]
        P = epoch.belief.Phat

        def integrand(s):
            Ad, Wd = dyn.pair(s)
            return float(((Ad @ P) * Ad).sum() + np.trace(Wd))

        length = (min(epoch.t_steps + method.steps, tf_steps) - epoch.t_steps) * dyn.dt_s
        value, _ = quad(integrand, 0.0, length, epsabs=0.0, epsrel=1e-13)
        total += lam_alpha * method.penalty + value
    return total / tf


# Round-off bound on |path - per-step path| in units of 1 + max |per-step path|.
PATH_TOL = 1e-12


def assert_same_path(model, horizon, dt, seed):
    """The path equals the per-step loop's to PATH_TOL; times and start state exactly.

    Both evaluations round every step to a relative eps = 1.1e-16 of the
    states they add, and their errors are independent, so they drift apart
    like a random walk: about sqrt(S) eps over S steps, 2e-14 at 30,000
    steps. The bound is fifty times that estimate. A fault in the chunked
    recurrence is far above it: a normal read one step off or a wrong power
    of Ad moves a state by a whole kick, of order |Wd^(1/2)| n, which is
    1e-3 or more on the test models.
    """
    t, path = simulate_sde(model, horizon, dt, seed)
    t_ref, ref = per_step_exact(model, horizon, dt, 1, seed)
    assert np.array_equal(t, t_ref)
    assert path.shape == ref[0].shape
    assert np.array_equal(path[0], ref[0, 0])
    assert np.abs(path - ref[0]).max() <= PATH_TOL * (1.0 + np.abs(ref).max())


# Step counts on and next to the chunk and super-block edges of `_chunking`.
EDGES = {
    "L-1": lambda L, block: L - 1,
    "L": lambda L, block: L,
    "L+1": lambda L, block: L + 1,
    "block": lambda L, block: block,
    "block+1": lambda L, block: block + 1,
    "2block+1": lambda L, block: 2 * block + 1,
}


class TestEnsembleMatchesPerStepLoop:
    """One `simulate_sde` path against the per-step loop at one run."""

    @pytest.mark.parametrize("seed", [1, 3])
    def test_full_path(self, bench, seed):
        model, _, _ = bench
        assert_same_path(model, 0.5, 1e-3, seed)

    @pytest.mark.parametrize("seed", [1, 3])
    def test_dense_noise_map(self, seed):
        # Every kick entry sums several products, so the chunk tables mix
        # every normal of a step into every state entry.
        rng = np.random.default_rng(0)
        B = rng.standard_normal((3, 3))
        model = ContinuousModel(A=0.3 * rng.standard_normal((3, 3)), B=B, W=B @ B.T,
                                C=np.eye(3), x0=np.ones(3), P0=np.eye(3), dt_s=0.1)
        assert_same_path(model, 0.5, 1e-3, seed)

    @pytest.mark.parametrize("n_w", [1, 2], ids=lambda n_w: f"n_w{n_w}")
    @pytest.mark.parametrize("edge", list(EDGES))
    def test_horizons_at_chunk_and_block_edges(self, edge, n_w):
        # The benchmark model, its two noise inputs merged into one for n_w = 1.
        model = benchmark_model() if n_w == 2 else \
            benchmark_model(B=[[0], [1], [0], [1]], W=[[0.5]])
        L, block = _chunking(model.n_x)
        assert 1 < L < block
        steps = EDGES[edge](L, block)
        assert_same_path(model, steps * 1e-3, 1e-3, seed=steps)

    def test_shipped_occlusion_path(self):
        cfg = load_scenario(CONFIGS / "occlusion_run.json")
        assert_same_path(cfg.model, cfg.sim.horizon, cfg.sim.dt, seed=8)


# Paths of each ensemble in `TestLawMatchesFineEulerMaruyama`, and the sensor
# steps compared: the first three, where Euler-Maruyama at the sensor period
# is furthest from the exact law, then steps out to the end of 2 s.
LAW_RUNS = 2000
LAW_STEPS = {"occlusion_run": [0, 1, 2, 3, 6, 15, 30, 60],
             "noise_mismatch": [0, 1, 2, 3, 5, 10, 20]}


class TestLawMatchesFineEulerMaruyama:
    """`simulate_sde` at the sensor period against Euler-Maruyama at dt_s / 100.

    Over LAW_RUNS paths each, the mean and covariance of the states at the
    sensor steps, and of their process-noise parts x_t - Ad(t) x_0, agree
    within 4 standard errors (`conftest.assert_same_law`). On the occlusion
    model Euler-Maruyama's relative bias in the position's noise variance
    is about 1.5 / (steps taken), 0.5% at the first sensor step of the fine
    grid, a tenth of a standard error; at the sensor period itself (three
    steps to 0.1 s) it is 44%, dozens of standard errors.
    """

    @pytest.mark.parametrize("name", list(LAW_STEPS))
    def test_sensor_steps(self, name):
        cfg = load_scenario(CONFIGS / f"{name}.json")
        model, steps = cfg.model, LAW_STEPS[name]
        horizon = steps[-1] * model.dt_s
        seeds = np.random.SeedSequence(41).spawn(LAW_RUNS)
        exact = np.array([simulate_sde(model, horizon, model.dt_s, seed)[1][steps]
                          for seed in seeds])
        _, fine = per_step_ensemble(model, horizon, model.dt_s / 100, LAW_RUNS, seed=42,
                                    record_steps=[100 * s for s in steps])
        assert_same_law(exact, fine, np.array([discretize(model, s * model.dt_s)[0]
                                               for s in steps]))


def tracked(model, methods, dyn, dt, horizon, policy_id=None, seed=9):
    """A run_loop trace on a small graph over a simulated truth path."""
    graph = expand_graph(sample_region(model.n_x, 1.0, 10, seed=3), methods, dyn)
    if policy_id is None:
        policy = attach_policy(graph, 1.0, 5.0, methods, dyn).policy
    else:
        policy = np.full(graph.size, policy_id, dtype=np.int64)
    _, path = simulate_sde(model, horizon, dt, seed=seed)
    source = GridMeasurementSource(model, path, dt, np.random.default_rng(seed))
    return run_loop(model, methods, graph, policy, horizon, source, dyn)


class TestEmpiricalCostMatchesPerPointLoop:
    @pytest.mark.parametrize("policy_id", [None, 1, 2])
    @pytest.mark.parametrize("tf", [1.0, 0.5])
    def test_bench_runs(self, bench, policy_id, tf):
        # At tf = 0.5 (15 periods) the slow method's epoch at step 9 is cut at 15.
        model, methods, dyn = bench
        dt = model.dt_s / 20
        trace = tracked(model, methods, dyn, dt, 1.0, policy_id)
        assert_richardson_cost(trace, 5.0, methods, tf, dyn, dt)

    def test_truncated_last_epoch_is_exercised(self, bench):
        model, methods, dyn = bench
        trace = tracked(model, methods, dyn, model.dt_s / 20, 1.0, policy_id=2)
        tf_steps = window_steps(0.5, dyn.dt_s)
        inside = [e for e in trace.epochs if e.t_steps < tf_steps]
        assert inside[-1].t_steps + methods[1].steps > tf_steps

    def test_ratio_one(self, bench):
        model, methods, dyn = bench
        trace = tracked(model, methods, dyn, model.dt_s, 1.0)
        for tf in (1.0, 0.5):
            assert_richardson_cost(trace, 5.0, methods, tf, dyn, model.dt_s)

    def test_shipped_occlusion_run(self):
        cfg = load_scenario(CONFIGS / "occlusion_run.json")
        dyn = build_dynamics(cfg.model, cfg.methods)
        graph = expand_graph(sample_region(cfg.model.n_x, cfg.graph.b0, 100, 1),
                             cfg.methods, dyn)
        attach_policy(graph, cfg.tf, cfg.lam_alpha, cfg.methods, dyn)
        _, path = simulate_sde(cfg.model, cfg.sim.horizon, cfg.sim.dt, seed=2)
        source = GridMeasurementSource(cfg.model, path, cfg.sim.dt, np.random.default_rng(2),
                                       occlusions=cfg.sim.occlusions)
        trace = run_loop(cfg.model, cfg.methods, graph, graph.policy, cfg.sim.horizon,
                         source, dyn)
        # The reference integrates on a grid of its own, a hundred points a
        # sensor period, whatever grid the truth was sampled on.
        fine = cfg.model.dt_s / 100
        for tf in (cfg.tf, 0.5, cfg.sim.horizon):
            assert_richardson_cost(trace, cfg.lam_alpha, cfg.methods, tf, dyn, fine)

    def test_incomplete_trace_rejected(self, bench):
        model, methods, dyn = bench
        trace = tracked(model, methods, dyn, model.dt_s / 20, 1.0, policy_id=1)
        with pytest.raises(IncompleteScheduleError, match="does not minimally cover"):
            empirical_cost(trace, 5.0, methods, 2.0, dyn)


def _spd(values, n):
    G = np.asarray(values).reshape(n, n)
    return G @ G.T


@st.composite
def small_models(draw):
    """Random models with n_x <= 3, half of them with an unstable drift."""
    n = draw(st.integers(1, 3))
    n_w = draw(st.integers(1, 2))
    floats = st.floats(-1.5, 1.5, allow_nan=False, allow_infinity=False)
    A = np.array(draw(st.lists(floats, min_size=n * n, max_size=n * n))).reshape(n, n)
    # Shift the spectrum so that the largest real part lands in [-2, 2].
    shift = draw(st.floats(-2.0, 2.0)) - np.linalg.eigvals(A).real.max()
    model = ContinuousModel(
        A=A + shift * np.eye(n),
        B=np.array(draw(st.lists(floats, min_size=n * n_w, max_size=n * n_w))).reshape(n, n_w),
        W=_spd(draw(st.lists(floats, min_size=n_w * n_w, max_size=n_w * n_w)), n_w),
        C=np.eye(n),
        x0=draw(st.lists(floats, min_size=n, max_size=n)),
        P0=_spd(draw(st.lists(floats, min_size=n * n, max_size=n * n)), n),
        dt_s=0.1,
    )
    steps = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    methods = [PerceptionMethod(id=i + 1, steps=s, R=np.eye(n), cpu=0.5, penalty=0.1 * s)
               for i, s in enumerate(steps)]
    return model, methods


@settings(max_examples=40, deadline=None)
@given(
    problem=small_models(),
    ratio=st.integers(1, 6),
    periods=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_random_models_match_reference_loops(problem, ratio, periods, seed, data):
    model, methods = problem
    dyn = build_dynamics(model, methods)
    dt = model.dt_s / ratio
    horizon = periods * model.dt_s
    assert_same_path(model, horizon, dt, seed)

    # Epochs covering the horizon, each starting from an arbitrary covariance.
    rng = np.random.default_rng(seed)
    epochs, t_steps = [], 0
    while t_steps < periods:
        pid = data.draw(st.integers(1, len(methods)))
        P = _spd(rng.standard_normal(model.n_x ** 2), model.n_x)
        epochs.append(EpochRecord(len(epochs), t_steps, pid, True,
                                  BeliefState(t_steps * model.dt_s, model.x0, P)))
        t_steps += methods[pid - 1].steps
    trace = TrackingTrace(model.dt_s, periods, epochs, epochs[-1].belief, np.arange(periods + 1),
                          np.zeros((periods + 1, model.n_x)))
    tf = data.draw(st.integers(1, periods)) * model.dt_s
    args = (trace, 0.7, methods, tf, dyn)
    ref = quad_empirical_cost(*args)
    assert abs(empirical_cost(*args) - ref) <= 1e-9 * abs(ref)
