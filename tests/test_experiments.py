import json
from pathlib import Path

import numpy as np
import pytest

from latsched import (
    GridMeasurementSource,
    Schedule,
    attach_policy,
    build_dynamics,
    enumerate_covering_schedules,
    evaluate_schedule,
    expand_graph,
    metrics,
    monte_carlo,
    rows_to_csv,
    run_loop,
    sample_region,
    simulate_sde,
)
from latsched.config import parse_scenario
from latsched.exact import window_steps

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def planar_payload(**tweaks):
    payload = {
        "model": {
            "A": [[0, 0], [0, 0]],
            "B": [[1, 0], [0, 1]],
            "W": [[0.5, 0], [0, 0.5]],
            "C": [[1, 0], [0, 1]],
            "x0": [0, 0],
            "P0": [[1, 0], [0, 1]],
            "dt_s": 0.1,
        },
        "methods": [
            {"steps": 1, "R": [[0.5, 0], [0, 0.5]], "cpu": 0.5, "penalty": 0.05},
            {"steps": 3, "R": [[0.05, 0], [0, 0.05]], "cpu": 0.8, "penalty": 0.24},
        ],
        "cost": {"Tf": 1.0, "lambda_alpha": 5.0},
        "graph": {"B0": 2.0, "count": 25, "seed": 3},
        "sim": {"dt": 0.01, "horizon": 2.0, "seed": 7, "runs": 4},
        "experiment": {"name": "moving-horizon"},
    }
    for key, value in tweaks.items():
        payload[key] = {**payload.get(key, {}), **value} \
            if isinstance(value, dict) else value
    return payload


def double_integrator_payload(lam_alpha=None, graph_sizes=(50,)):
    """The shipped cost-histogram scenario, optionally at another lambda_alpha."""
    payload = json.loads((CONFIGS / "double_integrator.json").read_text())
    if lam_alpha is not None:
        payload["cost"]["lambda_alpha"] = lam_alpha
    payload["experiment"]["graph_sizes"] = list(graph_sizes)
    return payload


class TestBoundValidation:
    def test_rows_and_soundness(self):
        cfg = parse_scenario(planar_payload(
            experiment={"name": "bound-validation", "schedule_steps": 40},
            certificate={"gamma": 0.9},
        ))
        rows = monte_carlo(cfg, runs=5, seed=1)
        assert len(rows) == 5
        for row in rows:
            assert "error" not in row, row
            assert row["violations"] == 0
            assert row["max_covariance_norm"] <= row["bs"]


class TestCostHistogram:
    def test_columns_and_ordering(self):
        cfg = parse_scenario(planar_payload(
            experiment={"name": "cost-histogram", "graph_sizes": [10, 40]},
        ))
        rows = monte_carlo(cfg, runs=3, seed=2)
        for row in rows:
            assert "error" not in row, row
            assert row["j_min"] <= row["j_qdp_10"] + 1e-12
            assert row["j_min"] <= row["j_static_1"] + 1e-12
            assert row["j_min"] <= row["j_static_2"] + 1e-12

    @pytest.mark.parametrize("payload", [
        pytest.param(planar_payload(experiment={"name": "cost-histogram", "graph_sizes": [10]}),
                     id="planar"),
        pytest.param(double_integrator_payload(), id="double_integrator"),
        # At lambda_alpha = 0.1 the optimum mixes methods in some runs.
        pytest.param(double_integrator_payload(0.1), id="double_integrator-0.1"),
    ])
    def test_j_min_is_the_enumerated_minimum(self, payload):
        cfg = parse_scenario(payload)
        dyn = build_dynamics(cfg.model, cfg.methods)
        schedules = [Schedule(s) for s in enumerate_covering_schedules(
            window_steps(cfg.tf, dyn.dt_s), cfg.methods)]
        entropy = np.random.SeedSequence(9).entropy
        for run, row in enumerate(monte_carlo(cfg, runs=20, seed=9)):
            child = np.random.SeedSequence(entropy, spawn_key=(run,))
            P0 = sample_region(cfg.model.n_x, cfg.graph.b0, 1, child)[0]
            want = min(evaluate_schedule(P0, s, cfg.tf, cfg.lam_alpha, cfg.methods, dyn)
                       for s in schedules)
            assert abs(row["j_min"] - want) <= 1e-14 * want, (run, row["j_min"], want)

    def test_other_columns_match_the_enumerating_oracle(self):
        # j_min as written when it came from enumerating every covering schedule,
        # so it may move by round-off; the other columns as the Padé-13
        # discretization gives them, bit for bit.
        before = [
            (1.1310030115543563, 1.1310030115543563, 1.2097245381168522,
             1.1378033915433456, 0.59, 1.1378033915433456, 0.59),
            (0.8985066135843629, 0.9078991564681735, 0.9563471459489881,
             0.9078991564681735, 0.5, 0.9078991564681735, 0.5),
            (1.0297179485665864, 1.0297179485665862, 1.1186931031288299,
             1.0297179485665862, 0.5, 1.059997195740514, 0.59),
        ]
        cfg = parse_scenario(double_integrator_payload(0.1, graph_sizes=[50, 500]))
        rows = monte_carlo(cfg, runs=3, seed=4)
        for run, (row, (j_min, *rest)) in enumerate(zip(rows, before)):
            assert list(row) == ["run", "j_min", "j_static_1", "j_static_2", "j_qdp_50",
                                 "cpu_qdp_50", "j_qdp_500", "cpu_qdp_500"]
            assert row["run"] == run and list(row.values())[2:] == rest
            assert abs(row["j_min"] - j_min) <= 1e-14 * j_min


class TestMovingHorizon:
    def test_rows(self):
        cfg = parse_scenario(planar_payload())
        rows = monte_carlo(cfg, runs=2, seed=5)
        for row in rows:
            assert "error" not in row, row
            for col in ("j_mh", "cpu_mh", "mse_mh", "j_static_1", "j_static_2"):
                assert col in row
            assert 0.0 < row["cpu_mh"] <= 1.0


class TestAdaptiveR:
    def test_rows(self):
        cfg = parse_scenario(planar_payload(
            experiment={"name": "adaptive-R", "true_R_factor": 4.0},
        ))
        rows = monte_carlo(cfg, runs=3, seed=6)
        for row in rows:
            assert "error" not in row, row
            assert row["improved"] in (0, 1)
            assert row["mse_adaptive"] > 0 and row["mse_nominal"] > 0


def textbook_trP(epochs, methods, model, horizon_steps: int, occlusions) -> np.ndarray:
    """tr P at sensor steps 0..horizon_steps by the textbook recursion, for A = 0, B = I.

    Epoch by epoch from P0, under the epochs' methods: step t + j of an
    epoch from step t reads P + W j dt_s. Unless its capture time t dt_s
    lies in an occlusion, the epoch's measurement of x(t) corrects P, and
    the epoch ends at P + W s dt_s for a method of s steps.
    """
    P, C, trP = model.P0, model.C, []
    for epoch in epochs:
        method = methods[epoch.method_id - 1]
        trP += [np.trace(P + model.W * (j * model.dt_s)) for j in range(method.steps)]
        if not any(a <= epoch.t_steps * model.dt_s < b for a, b in occlusions):
            P = P - P @ C.T @ np.linalg.solve(C @ P @ C.T + method.R, C @ P)
        P = P + model.W * (method.steps * model.dt_s)
    return np.array(trP + [np.trace(P)])[:horizon_steps + 1]


class TestCalibration:
    """The tracking pipeline's run-averaged error against the covariance it should have.

    With the truth simulated from the filter's own model and nominal R, a
    row's `mse` averages squared errors whose expectation at each grid point
    is tr P there, so the mean over runs of `mse` estimates the grid mean of
    tr P. The pipeline under test is `_truths`' sampling, the source's
    capture step, noise rule and occlusions, the shared-path loop, the grid
    means and `block_mse`; tr P comes from `textbook_trP`, not from the
    traces, which must agree with it.
    """

    RUNS = 2000

    @pytest.mark.parametrize("policy", ["graph", 1, 2])
    def test_mean_mse_matches_mean_trP(self, policy):
        # A mixing graph policy (method 2 at P0 and after the occlusion) and
        # both statics; 3-step epochs straddle both occlusion edges.
        from latsched import experiments

        occlusions = [(1.0, 2.05)]
        cfg = parse_scenario(planar_payload(
            cost={"lambda_alpha": 0.1}, graph={"count": 30},
            sim={"horizon": 5.0, "occlusions": [list(o) for o in occlusions]}))
        ctx = experiments._prepare_tracking(cfg)
        dyn, graph = ctx["dyn"], ctx["graph"]
        paths, meas_seeds = experiments._truths(
            cfg, np.random.SeedSequence(99).spawn(self.RUNS))
        traces, mse = experiments._tracks(
            cfg, dyn, graph, paths, meas_seeds, adaptive=False, true_R={}, mse_only=True,
            policy=None if policy == "graph" else np.full(graph.size, policy))
        epochs = traces[0].epochs
        if policy == "graph":
            assert {1, 2} <= {e.method_id for e in epochs}
        horizon_steps = window_steps(cfg.sim.horizon, dyn.dt_s)
        trP = textbook_trP(epochs, cfg.methods, cfg.model, horizon_steps, occlusions)
        mse = np.array(mse)
        gap = mse.mean() - trP.mean()
        stderr = mse.std(ddof=1) / np.sqrt(self.RUNS)
        assert abs(gap) <= 4 * stderr, (gap, stderr)
        np.testing.assert_allclose(traces[0].grid(cfg.methods, dyn)[0], trP, rtol=1e-12, atol=0)


class TestTrackingRowsMatchExplicitRuns:
    """Rows of the tracking experiments against runs wired call by call."""

    @staticmethod
    def explicit_runs(cfg, seed):
        """A run(policy, adaptive, true_R) -> RunMetrics closure for run 0 of `seed`."""
        dyn = build_dynamics(cfg.model, cfg.methods)
        reps = sample_region(cfg.model.n_x, cfg.graph.b0, cfg.graph.count, cfg.graph.seed)
        graph = expand_graph(reps, cfg.methods, dyn, admit_tol=cfg.graph.admit_tol,
                             b0=cfg.graph.b0)
        attach_policy(graph, cfg.tf, cfg.lam_alpha, cfg.methods, dyn)
        child = np.random.SeedSequence(np.random.SeedSequence(seed).entropy, spawn_key=(0,))
        truth_seed, meas_seed = child.spawn(2)
        _, path = simulate_sde(cfg.model, cfg.sim.horizon, cfg.sim.dt, truth_seed)

        def run(policy, adaptive, true_R):
            source = GridMeasurementSource(cfg.model, path, cfg.sim.dt,
                                           np.random.default_rng(meas_seed),
                                           occlusions=cfg.sim.occlusions, true_R=true_R)
            trace = run_loop(cfg.model, cfg.methods, graph, policy, cfg.sim.horizon, source,
                             dyn, use_adaptive=adaptive, window_length=cfg.sim.window)
            return metrics(trace, path, cfg.lam_alpha, cfg.methods, cfg.sim.horizon, dyn,
                           cfg.sim.dt)

        return graph, run

    def test_moving_horizon(self):
        cfg = parse_scenario(planar_payload(sim={
            "adaptive_R": True, "window": 4, "occlusions": [[0.5, 0.9]],
            "true_R": {"2": [[0.2, 0.0], [0.0, 0.2]]}}))
        graph, run = self.explicit_runs(cfg, 21)
        mh = run(graph.policy, True, cfg.sim.true_R)
        want = {"run": 0, "j_mh": mh.j_empirical, "cpu_mh": mh.cpu_load,
                "attention_mh": mh.attention, "mse_mh": mh.mse}
        for m in cfg.methods:
            sm = run(np.full(graph.size, m.id), False, cfg.sim.true_R)
            want.update({f"j_static_{m.id}": sm.j_empirical, f"cpu_static_{m.id}": sm.cpu_load,
                         f"attention_static_{m.id}": sm.attention,
                         f"mse_static_{m.id}": sm.mse})
        assert monte_carlo(cfg, runs=1, seed=21) == [want]

    def test_adaptive_R(self):
        cfg = parse_scenario(planar_payload(experiment={"name": "adaptive-R",
                                                        "true_R_factor": 4.0}))
        graph, run = self.explicit_runs(cfg, 22)
        true_R = {m.id: 4.0 * m.R for m in cfg.methods}
        adaptive = run(graph.policy, True, true_R).mse
        nominal = run(graph.policy, False, true_R).mse
        assert monte_carlo(cfg, runs=1, seed=22) == [{
            "run": 0, "mse_adaptive": adaptive, "mse_nominal": nominal,
            "improved": int(adaptive < nominal)}]


class TestReproducibility:
    def test_same_seed_same_rows(self):
        cfg = parse_scenario(planar_payload())
        a = monte_carlo(cfg, runs=3, seed=11)
        b = monte_carlo(cfg, runs=3, seed=11)
        assert a == b

    def test_jobs_do_not_change_rows(self):
        cfg = parse_scenario(planar_payload())
        seq = monte_carlo(cfg, runs=4, seed=12, jobs=1)
        par = monte_carlo(cfg, runs=4, seed=12, jobs=2)
        assert seq == par

    def test_csv_round_trip_stable(self, tmp_path):
        cfg = parse_scenario(planar_payload())
        rows = monte_carlo(cfg, runs=2, seed=13)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        rows_to_csv(rows, p1)
        rows_to_csv(monte_carlo(cfg, runs=2, seed=13), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestErrorRecording:
    def test_failed_run_recorded_not_raised(self, monkeypatch):
        from latsched import experiments

        prepare, _, block = experiments._EXPERIMENTS["moving-horizon"]

        # A block holding run 1 raises; its other runs are re-run on their own.
        def flaky(ctx, runs, seeds):
            if 1 in runs:
                raise RuntimeError("boom")
            return [{"run": run, "ok": 1} for run in runs]

        monkeypatch.setitem(experiments._EXPERIMENTS, "moving-horizon",
                            (prepare, flaky, block))
        cfg = parse_scenario(planar_payload())
        rows = monte_carlo(cfg, runs=3, seed=14)
        assert rows[0] == {"run": 0, "ok": 1}
        assert rows[1] == {"run": 1, "error": "RuntimeError: boom"}
        assert rows[2] == {"run": 2, "ok": 1}
