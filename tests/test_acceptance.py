"""End-to-end acceptance suite.

One test per criterion; each prints a `[PASS] criterion N` line on success
(run with `-s` to see them live) and enforces its runtime budget on this
machine. The benchmark scenario throughout is the planar double-integrator
target with the fast/cheap vs slow/accurate detector pair.
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad, quad_vec
from scipy.linalg import expm

import latsched as ls
from latsched.sim import sqrt_psd

from conftest import benchmark_model, benchmark_methods, per_step_ensemble, window_time_ratio

TF = 1.0
LAM = 5.0
DT_S = 1.0 / 30.0


@pytest.fixture(scope="module")
def bench_mod():
    model = benchmark_model()
    methods = benchmark_methods()
    dyn = ls.build_dynamics(model, methods)
    return model, methods, dyn


def _passed(num: int, detail: str, elapsed: float, budget: float):
    assert elapsed < budget, f"criterion {num} took {elapsed:.1f}s, budget {budget}s"
    print(f"\n[PASS] criterion {num}: {detail} ({elapsed:.1f}s < {budget:.0f}s)")


def test_criterion_1_exact_scheduler_oracle_equivalence(bench_mod):
    model, methods, dyn = bench_mod
    t0 = time.perf_counter()
    schedules = [ls.Schedule(s) for s in ls.enumerate_covering_schedules(30, methods)]
    assert len(schedules) == 60
    P0s = ls.sample_region(4, 1.0, 20, seed=314)
    worst = 0.0
    for P0 in P0s:
        _, dp_cost = ls.dyn_prog_exact(P0, TF, LAM, methods, dyn)
        enum_cost = min(
            ls.evaluate_schedule(P0, s, TF, LAM, methods, dyn) for s in schedules
        )
        rel = abs(dp_cost - enum_cost) / max(abs(enum_cost), 1e-300)
        worst = max(worst, rel)
        assert rel <= 1e-10
    _passed(1, f"exact DP == exhaustive enumeration on 20 random starts "
            f"(worst rel diff {worst:.1e})", time.perf_counter() - t0, 10.0)


def test_criterion_2_bound_soundness(bench_mod):
    model, methods, dyn = bench_mod
    t0 = time.perf_counter()
    cert = ls.synthesize_certificate(model, methods, dyn, gamma=0.98)
    assert cert is not None, "certificate synthesis failed for the benchmark model"
    feasible, margin = ls.lmi_feasible(cert, methods, dyn)
    assert feasible
    bs = ls.bound_bs(cert, 1.0, methods, dyn)
    rng = np.random.default_rng(2718)
    violations = 0
    worst = 0.0
    for _ in range(100):
        P = ls.sample_region(4, 1.0, 1, rng)[0]
        ids = rng.integers(1, len(methods) + 1, size=100)
        for pid in ids:
            P = ls.riccati_step(P, methods[pid - 1], dyn)
            norm = float(np.linalg.norm(P, "fro"))
            worst = max(worst, norm)
            violations += norm > bs
    assert violations == 0
    _passed(2, f"0 violations of |P|_F <= Bs={bs:.1f} over 100x100 random steps "
            f"(max observed {worst:.2f}, margin {margin:.2e})",
            time.perf_counter() - t0, 30.0)


def test_criterion_3_quantization_convergence(bench_mod):
    model, methods, dyn = bench_mod
    t0 = time.perf_counter()
    sizes = (50, 500, 5000)
    graph_seeds = np.random.SeedSequence(42).spawn(len(sizes))
    graphs = {size: ls.expand_graph(ls.sample_region(4, 1.0, size, seed), methods, dyn)
              for size, seed in zip(sizes, graph_seeds)}

    schedules = [ls.Schedule(s) for s in ls.enumerate_covering_schedules(30, methods)]
    statics = [ls.static_schedule(m.id, TF, methods, dyn) for m in methods]
    rng = np.random.default_rng(99)
    gaps = {size: [] for size in sizes}
    not_worse_at_50 = 0
    for _ in range(100):
        P0 = ls.sample_region(4, 1.0, 1, rng)[0]
        j_min = min(ls.evaluate_schedule(P0, s, TF, LAM, methods, dyn)
                    for s in schedules)
        j_static = min(ls.evaluate_schedule(P0, s, TF, LAM, methods, dyn)
                       for s in statics)
        for size in sizes:
            sched, _ = ls.qdp(ls.quantize(P0, graphs[size]), TF, LAM,
                              graphs[size], methods, dyn)
            j_qdp = ls.evaluate_schedule(P0, sched, TF, LAM, methods, dyn)
            gaps[size].append(abs(j_min - j_qdp))
            if size == 50 and j_qdp <= j_static + 1e-12:
                not_worse_at_50 += 1
    medians = [float(np.median(gaps[size])) for size in sizes]
    assert medians[0] >= medians[1] >= medians[2], medians
    assert not_worse_at_50 >= 85
    _passed(3, f"median gaps {medians} non-increasing over sizes {sizes}; "
            f"coarse qdp not worse than statics in {not_worse_at_50}/100",
            time.perf_counter() - t0, 300.0)


def test_criterion_4_degenerate_penalty_exactness(bench_mod):
    model, methods, dyn = bench_mod
    t0 = time.perf_counter()
    graph = ls.expand_graph(ls.sample_region(4, 1.0, 1, seed=0), methods, dyn)
    assert graph.size == 1
    sched, _ = ls.qdp(0, TF, 15.0, graph, methods, dyn)
    assert tuple(sched) == (1,) * 10
    policy = ls.attach_policy(graph, TF, 15.0, methods, dyn).policy
    assert np.all(policy == 1)
    _passed(4, "single-node graph at high penalty returns the static fast schedule",
            time.perf_counter() - t0, 1.0)


def test_criterion_5_moving_horizon_tradeoff(bench_mod):
    model, methods, dyn = bench_mod
    t0 = time.perf_counter()
    horizon, tf_plan, dt = 10.0, 10.0, 1.0 / 3000.0
    graph = ls.expand_graph(ls.sample_region(4, 5.0, 5000, seed=15), methods, dyn,
                            admit_tol=2.2, b0=5.0)
    ls.attach_policy(graph, tf_plan, LAM, methods, dyn)
    truth_seed, meas_seed = np.random.SeedSequence(123).spawn(2)
    _, path = ls.simulate_sde(model, horizon, dt, truth_seed)

    def source():
        return ls.GridMeasurementSource(
            model, path, dt, np.random.default_rng(meas_seed),
            occlusions=[(4.0, 6.0)])

    trace = ls.run_loop(model, methods, graph, graph.policy, horizon,
                        source(), dyn)
    run = ls.metrics(trace, path, LAM, methods, horizon, dyn, dt)
    static_avgs = {}
    for m in methods:
        policy = np.full(graph.size, m.id, dtype=np.int64)
        st = ls.run_loop(model, methods, graph, policy, horizon, source(), dyn)
        static_avgs[m.id] = float(st.grid(methods, dyn)[0].mean())

    assert 0.5 < run.cpu_load < 0.8
    assert abs(run.cpu_load - 0.65) <= 0.1
    trP = trace.grid(methods, dyn)[0]
    mh_avg = float(trP.mean())
    assert min(static_avgs.values()) <= mh_avg <= max(static_avgs.values()), (
        mh_avg, static_avgs)
    t_grid = trace.grid_steps * dyn.dt_s
    occluded = (t_grid >= 4.0 - 1e-9) & (t_grid <= 6.0 + 1e-9)
    diffs = np.diff(trP[occluded])
    assert np.all(diffs > 0.0), "trace must grow throughout the occlusion"
    _passed(5, f"cpu {run.cpu_load:.3f} in (0.5,0.8); avg trace {mh_avg:.3f} "
            f"between statics {sorted(static_avgs.values())}; occlusion monotone",
            time.perf_counter() - t0, 120.0)


def test_criterion_6_filter_calibration(bench_mod):
    model, methods, dyn = bench_mod
    t0 = time.perf_counter()
    schedule = [1, 2, 1, 2, 1]
    runs = 10_000
    ratio = 20
    dt = model.dt_s / ratio
    epoch_steps = np.cumsum([0] + [methods[p - 1].steps for p in schedule])
    _, paths = per_step_ensemble(
        model, float(epoch_steps[-1]) * model.dt_s, dt, runs, seed=5,
        record_steps=(epoch_steps * ratio).tolist())
    rng = np.random.default_rng(77)
    C = model.C
    eye = np.eye(model.n_x)

    Xhat = np.tile(model.x0, (runs, 1))
    P = np.asarray(model.P0)
    worst = 0.0
    for j, pid in enumerate(schedule + [None]):
        X = paths[:, j, :]
        whiten = np.linalg.inv(sqrt_psd(P))
        E = (X - Xhat) @ whiten
        sample_cov = E.T @ E / runs
        dev = np.linalg.norm(sample_cov - eye, "fro") / np.linalg.norm(eye, "fro")
        worst = max(worst, dev)
        assert dev <= 0.10, f"epoch {j}: whitened deviation {dev:.3f}"
        if pid is None:
            break
        method = methods[pid - 1]
        Z = X @ C.T + rng.standard_normal((runs, model.n_z)) @ sqrt_psd(method.R).T
        # Vectorized mean update across runs; covariance from the library.
        Ad, _ = dyn.step_pair(method.steps)
        S = C @ P @ C.T + method.R
        L = Ad @ P @ C.T @ np.linalg.inv(S)
        Xhat_next = Xhat @ Ad.T + (Z - Xhat @ C.T) @ L.T
        # Spot-check the vectorized update against the library on one run.
        ref = ls.correct(
            ls.BeliefState(0.0, Xhat[0], P),
            ls.Measurement(k=j, z=Z[0], produced_at=0.0, method_id=pid),
            method, dyn)
        assert np.allclose(ref.xhat, Xhat_next[0], rtol=1e-9, atol=1e-12)
        P = ls.riccati_step(P, method, dyn)
        assert np.allclose(ref.Phat, P, rtol=1e-9, atol=1e-12)
        Xhat = Xhat_next
    _passed(6, f"whitened error covariance within {worst:.3f} of identity "
            f"over {runs} runs at every epoch (tolerance 0.10)",
            time.perf_counter() - t0, 120.0)


def test_criterion_7_complexity_scaling(bench_mod):
    model, methods, dyn = bench_mod
    t0 = time.perf_counter()
    graph = ls.expand_graph(ls.sample_region(4, 1.0, 400, seed=8), methods, dyn)

    tables = ls.qdp_matrices(0, TF, LAM, graph, methods, dyn)
    assert tables.relaxations == 30 * graph.size * len(methods)

    # qdp_matrices reads the graph's sweep memo, so time the sweep itself.
    ratio = window_time_ratio(lambda tf: ls.backward_tables(tf, LAM, graph, methods, dyn))
    assert 1.5 <= ratio <= 2.5, f"doubling the window scaled time by {ratio:.2f}"
    _passed(7, f"relaxations = alpha_max*Q*D exactly; 2x window -> {ratio:.2f}x time",
            time.perf_counter() - t0, 60.0)


def test_criterion_8_numerical_kernel_oracles(bench_mod):
    model, methods, dyn = bench_mod
    t0 = time.perf_counter()
    rng = np.random.default_rng(53)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, max(1, n // 2)))
        W = np.eye(B.shape[1]) * rng.uniform(0.1, 2.0)
        test_model = ls.ContinuousModel(A=A, B=B, W=W, C=np.eye(n),
                                        x0=np.zeros(n), P0=np.eye(n), dt_s=0.1)
        d = float(rng.uniform(0.05, 0.4))
        _, Wd = ls.discretize(test_model, d)
        M, c = ls.cost_gram(test_model, d)
        noise = B @ W @ B.T

        ref_w, _ = quad_vec(lambda s: expm(A * s) @ noise @ expm(A * s).T,
                            0.0, d, epsabs=1e-12, epsrel=1e-12)
        ref_m, _ = quad_vec(lambda s: expm(A * s).T @ expm(A * s),
                            0.0, d, epsabs=1e-12, epsrel=1e-12)
        ref_c, _ = quad(
            lambda s: (d - s) * np.trace(expm(A * s) @ noise @ expm(A * s).T),
            0.0, d, epsabs=1e-12, epsrel=1e-12)
        for val, ref in ((Wd, ref_w), (M, ref_m)):
            rel = np.linalg.norm(val - ref, "fro") / max(
                np.linalg.norm(ref, "fro"), 1.0)
            worst = max(worst, rel)
            assert rel <= 1e-8
        relc = abs(c - ref_c) / max(abs(ref_c), 1.0)
        worst = max(worst, relc)
        assert relc <= 1e-8

    P = 4 * np.eye(4)
    step_rng = np.random.default_rng(54)
    ids = step_rng.integers(1, 3, size=100_000)
    for pid in ids:
        P = ls.riccati_step(P, methods[pid - 1], dyn)
        assert np.array_equal(P, P.T)
        low = np.linalg.eigvalsh(P)[0]
        assert low >= -1e-10 * np.linalg.norm(P, "fro")
    _passed(8, f"kernels within {worst:.1e} of adaptive quadrature on 100 models; "
            f"covariance stayed symmetric PSD over 1e5 update steps",
            time.perf_counter() - t0, 180.0)


def test_criterion_9_adaptive_R_direction():
    t0 = time.perf_counter()
    payload = {
        "model": {
            "A": [[0, 0], [0, 0]], "B": [[1, 0], [0, 1]],
            "W": [[0.5, 0], [0, 0.5]], "C": [[1, 0], [0, 1]],
            "x0": [0, 0], "P0": [[1, 0], [0, 1]], "dt_s": 0.1,
        },
        "methods": [
            {"steps": 1, "R": [[0.5, 0], [0, 0.5]], "cpu": 0.5, "penalty": 0.05},
            {"steps": 3, "R": [[0.05, 0], [0, 0.05]], "cpu": 0.8, "penalty": 0.24},
        ],
        "cost": {"Tf": 1.0, "lambda_alpha": 5.0},
        "graph": {"B0": 2.0, "count": 30, "seed": 3},
        "sim": {"dt": 0.01, "horizon": 10.0, "seed": 7, "runs": 200, "window": 10},
        "experiment": {"name": "adaptive-R", "true_R_factor": 9.0},
    }
    from latsched.config import parse_scenario

    cfg = parse_scenario(payload)
    rows = ls.monte_carlo(cfg, runs=200, seed=2026)
    clean = [row for row in rows if "error" not in row]
    assert len(clean) == 200
    improved = sum(row["improved"] for row in clean)
    assert improved >= 120, f"adaptive R better in only {improved}/200 runs"
    mean_gain = float(np.mean(
        [(r["mse_nominal"] - r["mse_adaptive"]) / r["mse_nominal"] for r in clean]))
    _passed(9, f"adaptive R beat nominal in {improved}/200 runs "
            f"(mean MSE improvement {mean_gain:+.1%}) at 9x noise mismatch",
            time.perf_counter() - t0, 120.0)


def test_criterion_10_qdp_against_p0_dependent_exact_optima(bench_mod):
    # Criterion 3's exhaustive optimum is static-fast from every start, so its
    # gaps are all 0. At Tf = 2 s and lambda_alpha = 0.5 (the benchmark's
    # exact query) the optimum depends on P0, so the oracle tells schedules apart.
    model, methods, dyn = bench_mod
    t0 = time.perf_counter()
    tf, lam = 2.0, 0.5
    sizes = (50, 500, 5000)
    graph_seeds = np.random.SeedSequence(42).spawn(len(sizes))
    graphs = {size: ls.expand_graph(ls.sample_region(4, 1.0, size, seed), methods, dyn)
              for size, seed in zip(sizes, graph_seeds)}
    statics = [ls.static_schedule(m.id, tf, methods, dyn) for m in methods]
    optima = set()
    static_gain = 0.0
    gaps = {size: [] for size in sizes}
    for P0 in ls.sample_region(4, 1.0, 40, seed=2026):
        sched, j_exact = ls.dyn_prog_exact(P0, tf, lam, methods, dyn)
        optima.add(tuple(sched))
        j_static = min(ls.evaluate_schedule(P0, s, tf, lam, methods, dyn) for s in statics)
        static_gain = max(static_gain, (j_static - j_exact) / j_exact)
        for size, graph in graphs.items():
            sched_q, _ = ls.qdp(ls.quantize(P0, graph), tf, lam, graph, methods, dyn)
            j_qdp = ls.evaluate_schedule(P0, sched_q, tf, lam, methods, dyn)
            assert j_qdp >= j_exact - 1e-10 * abs(j_exact), (size, j_qdp, j_exact)
            gaps[size].append(j_qdp - j_exact)
    assert len(optima) >= 2, optima
    assert static_gain > 1e-10, static_gain
    quantiles = "; ".join(
        f"Q={graphs[size].size} delta={graphs[size].delta:.3f} gap q50/q90/max "
        + "/".join(f"{q:.1e}" for q in np.quantile(gaps[size], [0.5, 0.9, 1.0]))
        for size in sizes)
    _passed(10, f"{len(optima)} distinct exact optima over 40 starts, best static "
            f"beaten by up to {static_gain:.1%}; no qdp schedule beats exact; {quantiles}",
            time.perf_counter() - t0, 60.0)
