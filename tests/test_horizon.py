import numpy as np
import pytest

from latsched import (
    BeliefState,
    InnovationWindow,
    Measurement,
    SourceExhausted,
    adaptive_R,
    attach_policy,
    build_dynamics,
    expand_graph,
    qdp,
    quantize,
    run_loop,
    sample_region,
    static_schedule,
)
from latsched import ContinuousModel, PerceptionMethod


@pytest.fixture(scope="module")
def planar():
    model = ContinuousModel(
        A=np.zeros((2, 2)), B=np.eye(2), W=np.diag([0.5, 0.5]), C=np.eye(2),
        x0=np.zeros(2), P0=np.eye(2), dt_s=0.1,
    )
    methods = [
        PerceptionMethod(id=1, steps=1, R=np.diag([0.5, 0.5]), cpu=0.5, penalty=0.05),
        PerceptionMethod(id=2, steps=3, R=np.diag([0.05, 0.05]), cpu=0.8, penalty=0.24),
    ]
    dyn = build_dynamics(model, methods)
    graph = expand_graph(sample_region(2, 2.0, 40, seed=1), methods, dyn, b0=2.0)
    policy = attach_policy(graph, 1.0, 5.0, methods, dyn).policy
    return model, methods, dyn, graph, policy


class TestInnovationWindow:
    def test_per_method_buffers(self):
        win = InnovationWindow(3)
        for k in range(5):
            win.push(1, k, np.array([float(k)]))
        win.push(2, 5, np.array([9.0]))
        ones = win.innovations(1, 5)
        assert len(ones) == 3  # ring buffer keeps the last 3
        assert [e[0] for e in ones] == [2.0, 3.0, 4.0]
        assert len(win.innovations(2, 5)) == 1
        assert win.innovations(3, 5) == []

    def test_recency_filter(self):
        win = InnovationWindow(10)
        win.push(1, 0, np.array([1.0]))
        win.push(1, 20, np.array([2.0]))
        recent = win.innovations(1, 21)
        assert len(recent) == 1 and recent[0][0] == 2.0


class TestAdaptiveR:
    def test_empty_window_falls_back_to_nominal(self, planar):
        model, methods, dyn, _, _ = planar
        win = InnovationWindow(10)
        belief = BeliefState(0.0, np.zeros(2), np.eye(2))
        out = adaptive_R(win, methods[0], 0, belief, model)
        assert np.array_equal(out, methods[0].R)

    def test_zero_innovations_floored_to_identity_scale(self, planar):
        model, methods, dyn, _, _ = planar
        win = InnovationWindow(10)
        for k in range(5):
            win.push(1, k, np.zeros(2))
        belief = BeliefState(0.0, np.zeros(2), np.zeros((2, 2)))
        out = adaptive_R(win, methods[0], 5, belief, model)
        floor = 1e-6 * np.trace(methods[0].R) / 2
        assert np.allclose(out, floor * np.eye(2))

    def test_single_innovation_rank_one(self, planar):
        model, methods, dyn, _, _ = planar
        win = InnovationWindow(10)
        e = np.array([0.3, -0.4])
        win.push(1, 0, e)
        belief = BeliefState(0.0, np.zeros(2), np.zeros((2, 2)))
        out = adaptive_R(win, methods[0], 0, belief, model)
        assert np.allclose(out, np.outer(e, e))

    def test_negative_eigenvalues_clamped(self, planar):
        model, methods, dyn, _, _ = planar
        win = InnovationWindow(10)
        win.push(1, 0, np.array([0.1, 0.0]))
        # C P C' larger than the innovation spread forces a negative raw estimate.
        belief = BeliefState(0.0, np.zeros(2), np.eye(2))
        out = adaptive_R(win, methods[0], 0, belief, model)
        eigs = np.linalg.eigvalsh(out)
        assert eigs.min() > 0
        assert np.allclose(out, out.T)

    def test_estimates_true_covariance(self, planar):
        model, methods, dyn, _, _ = planar
        rng = np.random.default_rng(7)
        true_R = np.diag([2.0, 1.0])
        win = InnovationWindow(200)
        P = 0.2 * np.eye(2)
        for k in range(200):
            e = np.linalg.cholesky(model.C @ P @ model.C.T + true_R) @ \
                rng.standard_normal(2)
            win.push(1, k, e)
        belief = BeliefState(0.0, np.zeros(2), P)
        out = adaptive_R(win, methods[0], 199, belief, model)
        assert np.linalg.norm(out - true_R, "fro") < 0.6


class FixedSource:
    """Deterministic measurement source for loop tests."""

    def __init__(self, model, horizon_steps, drop=lambda t: False):
        self.model = model
        self.horizon_steps = horizon_steps
        self.drop = drop

    def __call__(self, k, t_steps, method):
        if t_steps >= self.horizon_steps:
            raise SourceExhausted("past the configured horizon")
        if self.drop(t_steps):
            return None
        z = np.zeros(self.model.n_z)
        return Measurement(k=k, z=z, produced_at=(t_steps + method.steps) *
                           self.model.dt_s, method_id=method.id)


class TestRunLoop:
    def test_static_policy_reproduces_fixed_schedule(self, planar):
        model, methods, dyn, graph, _ = planar
        policy = np.full(graph.size, 2, dtype=np.int64)
        trace = run_loop(model, methods, graph, policy, 0.9,
                         FixedSource(model, 100), dyn)
        assert [e.method_id for e in trace.epochs] == [2, 2, 2]
        expected = static_schedule(2, 0.9, methods, dyn)
        assert len(trace.epochs) == len(expected)

    @pytest.mark.parametrize("bad", [0, 3])
    def test_policy_ids_out_of_range_rejected(self, planar, bad):
        model, methods, dyn, graph, _ = planar
        policy = np.full(graph.size, 1, dtype=np.int64)
        policy[-1] = bad
        with pytest.raises(ValueError, match="policy holds method ids outside"):
            run_loop(model, methods, graph, policy, 0.9, FixedSource(model, 100), dyn)

    @pytest.mark.parametrize("make", [
        lambda size: np.ones(2, dtype=np.int64),
        lambda size: np.ones(size + 1, dtype=np.int64),
        lambda size: np.full(size, 1.7),
        lambda size: np.ones((size, 1), dtype=np.int64),
        lambda size: np.ones((1, size), dtype=np.int64),
    ], ids=["short", "long", "float", "column", "row"])
    def test_policy_of_wrong_shape_or_dtype_rejected(self, planar, make):
        # Checked before the first source call, as a loaded graph's policy is.
        model, methods, dyn, graph, _ = planar
        calls = []

        def source(k, t_steps, method):
            calls.append(k)
            return None

        with pytest.raises(ValueError, match=f"policy must be {graph.size} integer"):
            run_loop(model, methods, graph, make(graph.size), 0.9, source, dyn)
        assert calls == []

    def test_decisions_match_fresh_qdp(self, planar):
        model, methods, dyn, graph, policy = planar
        trace = run_loop(model, methods, graph, policy, 1.0,
                         FixedSource(model, 100), dyn)
        for epoch in trace.epochs:
            q0 = quantize(epoch.belief.Phat, graph)
            fresh, _ = qdp(q0, 1.0, 5.0, graph, methods, dyn)
            assert epoch.method_id == fresh.methods[0]

    def test_epoch_accounting_exact(self, planar):
        model, methods, dyn, graph, policy = planar
        trace = run_loop(model, methods, graph, policy, 50.0,
                         FixedSource(model, 100000), dyn)
        t = 0
        for epoch in trace.epochs:
            assert epoch.t_steps == t
            t += methods[epoch.method_id - 1].steps
        assert t >= 500

    def test_no_drift_over_many_epochs(self):
        # Tick arithmetic keeps epoch times exact over 1e5 epochs; the float
        # dt_s is chosen non-representable to make accumulation drift visible.
        model = ContinuousModel(A=[[0.0]], B=[[1.0]], W=[[0.1]], C=[[1.0]],
                                x0=[0.0], P0=[[1.0]], dt_s=0.1)
        methods = [PerceptionMethod(id=1, steps=1, R=[[0.5]], cpu=0.5, penalty=0.0)]
        dyn = build_dynamics(model, methods)
        graph = expand_graph(np.eye(1)[None] * 0.3, methods, dyn)
        policy = np.ones(graph.size, dtype=np.int64)
        epochs = 100_000
        trace = run_loop(model, methods, graph, policy, epochs * 0.1,
                         FixedSource(model, 10 * epochs), dyn)
        assert len(trace.epochs) == epochs
        assert trace.epochs[-1].t_steps == epochs - 1
        assert trace.final_belief.t == pytest.approx(epochs * 0.1, abs=1e-6)

    def test_source_exhaustion_gives_partial_trace(self, planar):
        model, methods, dyn, graph, policy = planar
        trace = run_loop(model, methods, graph, policy, 10.0,
                         FixedSource(model, 20), dyn)
        assert trace.epochs
        assert trace.epochs[-1].t_steps < 100

    def test_occlusion_growth_and_recovery(self, planar):
        model, methods, dyn, graph, policy = planar
        drop = lambda t_steps: 3 <= t_steps * dyn.dt_s < 6
        trace = run_loop(model, methods, graph, policy, 9.0,
                         FixedSource(model, 1000, drop), dyn)
        t = trace.grid_steps * dyn.dt_s
        occ = (t >= 3.05) & (t <= 6.0)
        trP = trace.grid(methods, dyn)[0]
        vals = trP[occ]
        assert np.all(np.diff(vals) > 0)
        post = trP[t > 6.5]
        assert post.min() < vals.max()

    def test_grid_covers_horizon(self, planar):
        model, methods, dyn, graph, policy = planar
        trace = run_loop(model, methods, graph, policy, 1.0,
                         FixedSource(model, 1000), dyn)
        assert trace.grid_steps[0] == 0
        assert trace.grid_steps[-1] == 10
        assert np.array_equal(np.diff(trace.grid_steps), np.ones(10, dtype=int))

    def test_csv_output(self, planar, tmp_path):
        model, methods, dyn, graph, policy = planar
        trace = run_loop(model, methods, graph, policy, 1.0,
                         FixedSource(model, 1000), dyn)
        path = tmp_path / "trace.csv"
        trace.write_csv(path, methods, dyn)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,xhat_0,xhat_1,trP,method_id,measured"
        assert len(lines) == len(trace.grid_steps) + 1
