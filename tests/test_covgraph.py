import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latsched import (
    ConfigError,
    CovarianceGraph,
    GraphExpansionError,
    expand_graph,
    quantize,
    riccati_step,
    sample_region,
    steady_state,
)
from latsched import covgraph
from latsched.covgraph import default_admit_tol


class TestSampleRegion:
    def test_single_sample_valid(self):
        P = sample_region(3, 2.0, 1, seed=0)[0]
        assert np.allclose(P, P.T)
        assert np.linalg.norm(P, "fro") <= 2.0
        assert np.linalg.eigvalsh(P).min() >= -1e-12

    def test_bulk_properties(self):
        reps = sample_region(4, 1.0, 1000, seed=5)
        norms = np.linalg.norm(reps.reshape(1000, -1), axis=1)
        assert norms.max() <= 1.0 + 1e-12
        assert norms.min() > 0.0
        eigs = np.linalg.eigvalsh(reps)
        assert eigs.min() >= -1e-12
        # Norm should be roughly uniform on (0, 1]: mean near 0.5.
        assert 0.4 < norms.mean() < 0.6

    def test_deterministic_given_seed(self):
        a = sample_region(4, 1.0, 10, seed=42)
        b = sample_region(4, 1.0, 10, seed=42)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("n,b0,count,seed", [
        (3, 2.0, 50, 21), (1, 1.0, 7, 0), (2, 5.0, 40, 3), (4, 5.0, 300, 15), (5, 0.3, 20, 99),
    ])
    def test_matches_per_sample_loop(self, n, b0, count, seed):
        rng = np.random.default_rng(seed)
        expected = np.empty((count, n, n))
        for i in range(count):
            eigvals = rng.uniform(0.0, 1.0, size=n)
            q, r = np.linalg.qr(rng.standard_normal((n, n)))
            q = q * np.sign(np.diag(r))
            P = (q * eigvals) @ q.T
            P = 0.5 * (P + P.T)
            target = rng.uniform(0.0, 1.0)
            while target == 0.0:
                target = rng.uniform(0.0, 1.0)
            expected[i] = P * (target * b0 / np.linalg.norm(P, "fro"))
        assert np.array_equal(sample_region(n, b0, count, np.random.default_rng(seed)),
                              expected)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            sample_region(3, 1.0, 0, seed=0)
        with pytest.raises(ValueError):
            sample_region(3, -1.0, 5, seed=0)


class TestQuantize:
    def test_representative_maps_to_itself(self, bench):
        _, methods, dyn = bench
        reps = sample_region(4, 1.0, 20, seed=1)
        graph = expand_graph(reps, methods, dyn)
        for q in (0, 7, 19):
            assert quantize(graph.reps[q], graph) == q

    def test_tie_breaks_to_lowest_id(self):
        reps = np.zeros((8, 2, 2))
        for i in range(8):
            reps[i] = np.eye(2) * (i + 1)
        # Equidistant between reps 2 and 3 (diagonals 3 and 4).
        graph = CovarianceGraph(reps=reps, succ=np.zeros((8, 1), dtype=int),
                                delta=0.0, b0=10.0, bound=10.0)
        probe = np.eye(2) * 3.5
        assert quantize(probe, graph) == 2

    def test_matches_linear_scan(self, bench):
        _, methods, dyn = bench
        reps = sample_region(4, 1.0, 500, seed=3)
        graph = expand_graph(reps, methods, dyn)
        rng = np.random.default_rng(4)
        for _ in range(25):
            P = sample_region(4, 1.5, 1, rng)[0]
            dists = [np.linalg.norm(P - rep, "fro") for rep in graph.reps]
            assert quantize(P, graph) == int(np.argmin(dists))

    @pytest.mark.parametrize("count", [10, 2000])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_covariance_raises(self, count, bad):
        # 10 nodes are scanned, 2000 scored.
        graph = CovarianceGraph(reps=sample_region(4, 1.0, count, seed=2),
                                succ=np.zeros((count, 1), dtype=int), delta=0.0, b0=1.0,
                                bound=1.0)
        P = np.eye(4)
        P[1, 2] = bad
        stack = np.stack([np.eye(4), P, np.eye(4)])
        for call in (lambda: quantize(P, graph), lambda: graph.nearest(P),
                     lambda: quantize(stack, graph), lambda: graph.nearest_ids(stack)):
            with pytest.raises(ValueError, match="non-finite"):
                call()
        assert np.array_equal(quantize(stack[[0, 2]], graph), [quantize(np.eye(4), graph)] * 2)

    @pytest.mark.parametrize("count", [10, 2000])
    def test_quantize_is_nearest_id(self, count):
        # 10 nodes are scanned, 2000 scored; quantize skips nearest's distance.
        reps = sample_region(4, 1.0, count, seed=5)
        graph = CovarianceGraph(reps=reps, succ=np.zeros((count, 1), dtype=int), delta=0.0,
                                b0=1.0, bound=1.0)
        assert (graph.reps.size > covgraph._SCAN_ENTRIES) == (count == 2000)
        # Random points, representatives, and midpoints of two representatives.
        points = np.concatenate([sample_region(4, 1.5, 40, seed=6), reps[:5],
                                 0.5 * (reps[:5] + reps[5:10])])
        ids = [graph.nearest(P)[0] for P in points]
        assert [quantize(P, graph) for P in points] == ids
        assert quantize(points, graph).tolist() == ids
        assert graph.nearest_ids(points).tolist() == ids


class TestExpandGraph:
    def test_closure(self, bench):
        _, methods, dyn = bench
        graph = expand_graph(sample_region(4, 1.0, 30, seed=9), methods, dyn)
        assert graph.succ.shape == (graph.size, 2)
        assert graph.succ.min() >= 0
        assert graph.succ.max() < graph.size

    def test_riccati_fixed_point_self_loop(self, bench):
        _, methods, dyn = bench
        only = [methods[0]]
        P_star, _ = steady_state(only[0], dyn)
        graph = expand_graph(P_star[None, :, :], only, dyn)
        assert graph.size == 1
        assert graph.succ[0, 0] == 0

    def test_empty_methods_returns_input(self, bench):
        _, _, dyn = bench
        reps = sample_region(4, 1.0, 5, seed=2)
        graph = expand_graph(reps, [], dyn)
        assert graph.size == 5
        assert graph.succ.shape == (5, 0)

    def test_achieved_delta_definition(self, bench):
        _, methods, dyn = bench
        reps = sample_region(4, 1.0, 40, seed=11)
        graph = expand_graph(reps, methods, dyn)
        worst = 0.0
        for q in range(graph.size):
            for col, method in enumerate(methods):
                target = graph.succ[q, col]
                P_next = riccati_step(graph.reps[q], method, dyn)
                dist = np.linalg.norm(P_next - graph.reps[target], "fro")
                if not np.allclose(P_next, graph.reps[target], atol=1e-12):
                    worst = max(worst, dist)
        assert np.isclose(graph.delta, worst, rtol=1e-9)

    def test_delta_shrinks_with_count(self, bench):
        _, methods, dyn = bench
        deltas = {count: [] for count in (50, 500)}
        for seed in range(10):
            for count in deltas:
                reps = sample_region(4, 1.0, count, seed=seed)
                deltas[count].append(expand_graph(reps, methods, dyn).delta)
        assert np.median(deltas[500]) <= np.median(deltas[50])

    def test_growth_guard(self, bench):
        _, methods, dyn = bench
        reps = sample_region(4, 1.0, 2, seed=0)
        with pytest.raises(GraphExpansionError):
            expand_graph(reps, methods, dyn, admit_tol=1e-15, max_growth=2)

    def test_deterministic(self, bench):
        _, methods, dyn = bench
        reps = sample_region(4, 1.0, 25, seed=6)
        g1 = expand_graph(reps, methods, dyn)
        g2 = expand_graph(reps, methods, dyn)
        assert np.array_equal(g1.reps, g2.reps)
        assert np.array_equal(g1.succ, g2.succ)
        assert g1.delta == g2.delta

    def test_expansion_stays_inside_certified_bound(self, bench):
        from latsched import bound_bs, synthesize_certificate

        model, methods, dyn = bench
        cert = synthesize_certificate(model, methods, dyn, gamma=0.98)
        assert cert is not None
        bs = bound_bs(cert, 1.0, methods, dyn)
        for seed in range(3):
            graph = expand_graph(sample_region(4, 1.0, 60, seed=seed),
                                 methods, dyn, b0=1.0)
            assert graph.bound <= bs


class TestAdmitTol:
    def test_single_rep_is_coarsest(self):
        assert default_admit_tol(np.eye(3)[None, :, :]) == np.inf

    def test_matches_pairwise_scan(self):
        base = sample_region(3, 1.0, 30, np.random.default_rng(8))
        cases = [
            base,
            # Nodes 1 and 2 tie between two neighbors at distance 1, so the
            # exact rescan decides, and it must skip the node itself.
            np.arange(4.0).reshape(4, 1, 1),
            # Every rep has a copy at distance 0: the floor applies.
            np.concatenate([base, base]),
            base[:2],
        ]
        for reps in cases:
            Q = len(reps)
            flat = reps.reshape(Q, -1)
            nn = [min(np.linalg.norm(flat[i] - flat[j]) for j in range(Q) if j != i)
                  for i in range(Q)]
            floor = 1e-9 * (1.0 + np.linalg.norm(flat, axis=1).max())
            assert np.isclose(default_admit_tol(reps), max(np.median(nn), floor), rtol=1e-12)
        assert default_admit_tol(cases[1]) == 1.0
        base_norm = np.linalg.norm(base.reshape(30, -1), axis=1).max()
        assert default_admit_tol(cases[2]) == 1e-9 * (1.0 + base_norm)


class TestSerialization:
    def test_round_trip(self, bench, tmp_path):
        _, methods, dyn = bench
        graph = expand_graph(sample_region(4, 1.0, 20, seed=13), methods, dyn)
        graph.policy = np.ones(graph.size, dtype=np.int64)
        graph.policy_meta = {"tf": 1.0, "lam_alpha": 5.0}
        path = tmp_path / "graph.json"
        graph.save(path)
        loaded = CovarianceGraph.load(path)
        assert np.array_equal(loaded.reps, graph.reps)
        assert np.array_equal(loaded.succ, graph.succ)
        assert loaded.delta == graph.delta
        assert loaded.b0 == graph.b0
        assert loaded.bound == graph.bound
        assert np.array_equal(loaded.policy, graph.policy)
        assert loaded.policy_meta == graph.policy_meta

    def test_version_check(self, bench, tmp_path):
        import json

        _, methods, dyn = bench
        graph = expand_graph(sample_region(4, 1.0, 3, seed=1), methods, dyn)
        path = tmp_path / "graph.json"
        graph.save(path)
        payload = json.loads(path.read_text())
        payload["format_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError):
            CovarianceGraph.load(path)


@st.composite
def small_graphs(draw):
    """Graphs of 1-6 nodes with PSD reps, any successors, and maybe a policy."""
    Q, n, D = draw(st.integers(1, 6)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    floats = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    G = np.array(draw(st.lists(floats, min_size=Q * n * n, max_size=Q * n * n)))
    G = G.reshape(Q, n, n)
    succ = draw(st.lists(st.integers(0, Q - 1), min_size=Q * D, max_size=Q * D))
    graph = CovarianceGraph(
        reps=G @ G.mT, succ=np.array(succ).reshape(Q, D),
        delta=draw(floats), b0=draw(floats), bound=draw(floats),
    )
    if draw(st.booleans()):
        graph.policy = np.array(draw(st.lists(st.integers(1, D), min_size=Q, max_size=Q)))
        graph.policy_meta = {"tf": draw(floats), "lam_alpha": draw(floats)}
    return graph


@settings(max_examples=60, deadline=None)
@given(graph=small_graphs())
def test_save_load_round_trip(graph):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.json"
        graph.save(path)
        loaded = CovarianceGraph.load(path)
    assert loaded.reps.shape == graph.reps.shape
    assert loaded.reps.tobytes() == graph.reps.tobytes()
    assert np.array_equal(loaded.succ, graph.succ)
    for name in ("delta", "b0", "bound"):
        assert np.float64(getattr(loaded, name)).tobytes() == \
            np.float64(getattr(graph, name)).tobytes()
    if graph.policy is None:
        assert loaded.policy is None
    else:
        assert np.array_equal(loaded.policy, graph.policy)
        assert loaded.policy_meta == graph.policy_meta
