import numpy as np
import pytest
from scipy.linalg import expm
from scipy.stats import chi2

from latsched import (
    GridMeasurementSource,
    IncompleteScheduleError,
    SourceExhausted,
    build_dynamics,
    evaluate_schedule,
    expand_graph,
    metrics,
    run_loop,
    sample_region,
    simulate_sde,
    static_schedule,
)
from latsched import ContinuousModel, PerceptionMethod, sim
from latsched.sim import _chunking, empirical_cost, grid_ratio, sqrt_psd

from conftest import benchmark_model, per_step_ensemble


class TestSimulateSde:
    def test_noiseless_matches_matrix_exponential(self):
        model = ContinuousModel(
            A=[[0, 1], [-1, -0.4]], B=[[0], [1]], W=[[0.0]], C=np.eye(2),
            x0=[1.0, 0.0], P0=np.zeros((2, 2)), dt_s=0.1,
        )
        t, x = simulate_sde(model, 1.0, 1e-3, seed=0)
        exact = np.array([expm(np.asarray(model.A) * ti) @ model.x0 for ti in t])
        # Euler global error is O(dt) for the deterministic part.
        assert np.max(np.abs(x - exact)) < 5e-3

    def test_brownian_covariance(self):
        model = ContinuousModel(
            A=np.zeros((2, 2)), B=np.eye(2), W=np.eye(2), C=np.eye(2),
            x0=np.zeros(2), P0=np.zeros((2, 2)), dt_s=0.1,
        )
        delta = 0.1
        runs = 10000
        _, paths = per_step_ensemble(model, delta, 1e-3, runs, seed=3,
                                     record_steps=[0, 100])
        incr = paths[:, 1, :] - paths[:, 0, :]
        var = incr.var(axis=0)
        # chi^2 band for the per-axis sample variance at 1e4 samples.
        lo = chi2.ppf(0.005, runs - 1) / (runs - 1)
        hi = chi2.ppf(0.995, runs - 1) / (runs - 1)
        for v in var:
            assert lo * delta * 0.95 < v < hi * delta * 1.05

    def test_seed_reproducibility(self, bench):
        model, _, _ = bench
        _, a = simulate_sde(model, 0.5, 1e-3, seed=11)
        _, b = simulate_sde(model, 0.5, 1e-3, seed=11)
        assert np.array_equal(a, b)

    def test_initial_state_distribution(self):
        model = ContinuousModel(
            A=np.zeros((2, 2)), B=np.eye(2), W=np.zeros((2, 2)), C=np.eye(2),
            x0=[3.0, -1.0], P0=np.diag([4.0, 0.25]), dt_s=0.1,
        )
        _, paths = per_step_ensemble(model, 0.1, 0.1, 20000, seed=5,
                                     record_steps=[0])
        x0 = paths[:, 0, :]
        assert np.allclose(x0.mean(axis=0), [3.0, -1.0], atol=0.1)
        assert np.allclose(x0.var(axis=0), [4.0, 0.25], rtol=0.1)

    def test_grid_validation(self, bench):
        model, _, _ = bench
        with pytest.raises(ValueError):
            simulate_sde(model, 0.55, 0.1, seed=0)  # horizon not on grid
        with pytest.raises(ValueError):
            grid_ratio(model.dt_s, 1e-3)  # 1/30 not a multiple of 1e-3

    @pytest.mark.parametrize("bound", [2, sim._TABLE_ENTRIES])
    def test_table_memo_keys_every_input(self, monkeypatch, bound):
        # Two models that differ only in W, one model at two grid steps, and
        # horizons below and above one super-block, interleaved: each call
        # returns the bytes a cleared memo gives, and the memo keeps within
        # its bound (at 2 entries it is cleared along the way).
        monkeypatch.setattr(sim, "_TABLE_ENTRIES", bound)
        monkeypatch.setattr(sim, "_TABLES", {})
        model, other = benchmark_model(), benchmark_model(W=np.diag([0.5, 2.0]))
        block = _chunking(model.n_x, model.n_w)[1]
        calls = [(model, 0.5, 1e-3), (other, 0.5, 1e-3), (model, 0.5, 2e-3),
                 (model, (block + 5) * 1e-3, 1e-3), (other, 0.5, 2e-3),
                 (other, (block + 5) * 1e-3, 1e-3)]
        for seed, (m, horizon_s, dt) in enumerate(calls + calls[::-1]):
            got = simulate_sde(m, horizon_s, dt, seed)
            assert 0 < len(sim._TABLES) <= bound
            kept = dict(sim._TABLES)
            sim._TABLES.clear()
            want = simulate_sde(m, horizon_s, dt, seed)
            sim._TABLES.clear()
            sim._TABLES.update(kept)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()
        if bound >= 6:
            # Two models at two steps, and a second depth at 1e-3 for each.
            assert len(sim._TABLES) == 6


class TestSynthMeasurement:
    """The detections GridMeasurementSource draws from a constant path."""

    @staticmethod
    def _source(model, x, seed, true_R=None, steps=1):
        path = np.tile(np.asarray(x, dtype=float), (steps, 1))
        return GridMeasurementSource(model, path, model.dt_s, np.random.default_rng(seed),
                                     true_R=true_R)

    def test_zero_noise_is_exact(self, bench):
        model, methods, _ = bench
        x = np.array([1.0, 0.5, 2.0, -0.5])
        meas = self._source(model, x, 0, true_R={1: np.zeros((2, 2))})(0, 0, methods[0])
        assert np.array_equal(meas.z, model.C @ x)
        assert meas.produced_at == pytest.approx(3 * model.dt_s)

    def test_sample_covariance_matches_R(self, bench):
        model, methods, _ = bench
        # One detection a step: a step's noise is fixed, so its draws repeat.
        src = self._source(model, np.zeros(4), 1, steps=10000)
        draws = np.array([src(t, t, methods[0]).z for t in range(10000)])
        cov = np.cov(draws.T)
        assert np.linalg.norm(cov - methods[0].R, "fro") < 0.05 * np.linalg.norm(
            methods[0].R, "fro") + 0.02

    def test_true_R_override(self, bench):
        model, methods, _ = bench
        true_R = 4.0 * np.asarray(methods[0].R)
        src = self._source(model, np.zeros(4), 2, true_R={1: true_R}, steps=10000)
        draws = np.array([src(t, t, methods[0]).z for t in range(10000)])
        assert np.allclose(np.cov(draws.T), true_R, rtol=0.1, atol=0.05)


class TestMeasurementSource:
    def test_occlusion_and_exhaustion(self):
        model = ContinuousModel(
            A=np.zeros((2, 2)), B=np.eye(2), W=np.eye(2), C=np.eye(2),
            x0=np.zeros(2), P0=np.eye(2), dt_s=0.1,
        )
        method = PerceptionMethod(id=1, steps=1, R=np.eye(2), cpu=0.5, penalty=0.0)
        _, path = simulate_sde(model, 1.0, 0.05, seed=0)
        src = GridMeasurementSource(model, path, 0.05, np.random.default_rng(0),
                                    occlusions=[(0.3, 0.6)])
        assert src(0, 0, method) is not None
        assert src(3, 3, method) is None  # capture at t=0.3 occluded
        assert src(5, 5, method) is None
        assert src(6, 6, method) is not None  # t=0.6 is past the window
        with pytest.raises(SourceExhausted):
            src(0, 100, method)


    def test_noise_root_computed_once_per_method(self, bench, monkeypatch):
        model, methods, _ = bench
        _, path = simulate_sde(model, 1.0, model.dt_s, seed=1)
        true_R = {2: 3.0 * np.asarray(methods[1].R) + 0.01}
        rng = np.random.default_rng(4)
        refs = []
        for k in range(12):
            method = methods[k % 2]
            root = sqrt_psd(true_R.get(method.id, method.R))
            refs.append(model.C @ path[k] + root @ rng.standard_normal(model.n_z))
        roots = []

        def counting_sqrt_psd(mat):
            roots.append(mat)
            return sqrt_psd(mat)

        monkeypatch.setattr("latsched.sim.sqrt_psd", counting_sqrt_psd)
        src = GridMeasurementSource(model, path, model.dt_s, np.random.default_rng(4),
                                    true_R=true_R)
        for k, ref in enumerate(refs):
            meas = src(k, k, methods[k % 2])
            assert np.array_equal(meas.z, ref)
            assert meas.produced_at == (k + methods[k % 2].steps) * model.dt_s
        # One root per method: the nominal R of method 1, the override of method 2.
        assert len(roots) == 2
        assert np.array_equal(roots[0], methods[0].R)
        assert np.array_equal(roots[1], true_R[2])


@pytest.fixture(scope="module")
def run_setup(bench):
    model, methods, dyn = bench
    graph = expand_graph(sample_region(4, 1.0, 10, seed=3), methods, dyn)
    dt = model.dt_s / 20
    _, path = simulate_sde(model, 1.0, dt, seed=9)
    return model, methods, dyn, graph, dt, path


class TestMetrics:
    def _run_static(self, run_setup, mid):
        model, methods, dyn, graph, dt, path = run_setup
        policy = np.full(graph.size, mid, dtype=np.int64)
        src = GridMeasurementSource(model, path, dt, np.random.default_rng(1))
        return run_loop(model, methods, graph, policy, 1.0, src, dyn)

    def test_static_cpu_loads(self, run_setup):
        model, methods, dyn, graph, dt, path = run_setup
        for mid, expected in ((1, 0.5), (2, 0.8)):
            trace = self._run_static(run_setup, mid)
            m = metrics(trace, path, 5.0, methods, 1.0, dyn, dt)
            assert np.isclose(m.cpu_load, expected)

    def test_attention_counts(self, run_setup):
        model, methods, dyn, graph, dt, path = run_setup
        m1 = metrics(self._run_static(run_setup, 1), path, 5.0, methods, 1.0,
                     dyn, dt)
        assert m1.attention == 10
        m2 = metrics(self._run_static(run_setup, 2), path, 5.0, methods, 1.0,
                     dyn, dt)
        # Last epoch of the slow method delivers past the window edge.
        assert m2.attention == 3

    def test_empirical_cost_matches_closed_form(self, run_setup):
        model, methods, dyn, graph, dt, path = run_setup
        for mid in (1, 2):
            trace = self._run_static(run_setup, mid)
            j_emp = empirical_cost(trace, 5.0, methods, 1.0, dyn)
            sched = static_schedule(mid, 1.0, methods, dyn)
            j_ref = evaluate_schedule(model.P0, sched, 1.0, 5.0, methods, dyn)
            assert abs(j_emp - j_ref) <= 1e-12 * abs(j_ref)

    def test_incomplete_trace_rejected(self, run_setup):
        model, methods, dyn, graph, dt, path = run_setup
        trace = self._run_static(run_setup, 1)
        with pytest.raises(IncompleteScheduleError, match="does not minimally cover"):
            empirical_cost(trace, 5.0, methods, 2.0, dyn)

    def test_empty_trace_rejected(self, run_setup):
        # A (0, n) path runs out at step 0: the trace has no epoch and no grid point.
        model, methods, dyn, graph, dt, path = run_setup
        src = GridMeasurementSource(model, path[:0], dt, np.random.default_rng(1))
        trace = run_loop(model, methods, graph, np.ones(graph.size, dtype=np.int64), 1.0,
                         src, dyn)
        assert (trace.epochs, trace.grid_steps.size) == ([], 0)
        with pytest.raises(IncompleteScheduleError, match="0 epochs"):
            metrics(trace, path, 5.0, methods, 1.0, dyn, dt)

    @pytest.mark.parametrize("points", ["half", 1, 0])
    def test_short_truth_path_rejected(self, run_setup, points):
        model, methods, dyn, graph, dt, path = run_setup
        trace = self._run_static(run_setup, 1)
        keep = path.shape[0] // 2 if points == "half" else points
        reads = trace.grid_steps[-1] * grid_ratio(dyn.dt_s, dt) + 1
        assert reads == path.shape[0]
        with pytest.raises(ValueError, match=f"has {keep} points; the trace reads {reads}"):
            metrics(trace, path[:keep], 5.0, methods, 1.0, dyn, dt)

    def test_mse_zero_noise(self, bench):
        model_ref, methods, _ = bench
        model = ContinuousModel(
            A=model_ref.A, B=model_ref.B, W=np.zeros((2, 2)), C=model_ref.C,
            x0=np.zeros(4), P0=np.zeros((4, 4)), dt_s=model_ref.dt_s,
        )
        dyn = build_dynamics(model, methods)
        graph = expand_graph(sample_region(4, 1.0, 5, seed=0), methods, dyn)
        policy = np.full(graph.size, 1, dtype=np.int64)
        dt = model.dt_s / 10
        _, path = simulate_sde(model, 1.0, dt, seed=4)
        src = GridMeasurementSource(model, path, dt, np.random.default_rng(2),
                                    true_R={1: np.zeros((2, 2)), 2: np.zeros((2, 2))})
        trace = run_loop(model, methods, graph, policy, 1.0, src, dyn)
        m = metrics(trace, path, 5.0, methods, 1.0, dyn, dt)
        assert m.mse < 1e-6
