"""The batched expand_graph against a node-by-node reference expansion."""

from pathlib import Path

import numpy as np
import pytest

from latsched import (
    CovarianceGraph,
    GraphExpansionError,
    attach_policy,
    build_dynamics,
    expand_graph,
    riccati_step,
    sample_region,
)
from latsched.config import load_scenario
from latsched.covgraph import default_admit_tol

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def sequential_expand_graph(reps, methods, dyn, admit_tol=None, b0=None, max_growth=100):
    """Node-by-node expansion: one Riccati step per (node, method), in that order.

    Each successor is matched by an einsum scan over the nodes known at that
    moment, with ties to the lowest id, and admitted if it lies farther than
    `admit_tol`.
    """
    reps = np.asarray(reps, dtype=float)
    initial = reps.shape[0]
    n = reps.shape[1]
    if admit_tol is None:
        admit_tol = default_admit_tol(reps)
    if b0 is None:
        b0 = float(max(np.linalg.norm(rep, "fro") for rep in reps))

    cap = initial * max_growth
    store = np.zeros((max(initial * 2, 16), n * n))
    store[:initial] = reps.reshape(initial, -1)
    count = initial
    succ_rows = []
    achieved_delta = 0.0

    q = 0
    while q < count:
        row = []
        P = store[q].reshape(n, n)
        for method in methods:
            flat = riccati_step(P, method, dyn).reshape(-1)
            diff = store[:count] - flat
            d2 = np.einsum("ij,ij->i", diff, diff)
            j = int(np.argmin(d2))
            dist = float(np.sqrt(d2[j]))
            if dist > admit_tol:
                if count == cap:
                    raise GraphExpansionError(f"expansion exceeded {max_growth}x")
                if count == store.shape[0]:
                    store = np.vstack([store, np.zeros_like(store)])
                store[count] = flat
                row.append(count)
                count += 1
            else:
                row.append(j)
                achieved_delta = max(achieved_delta, dist)
        succ_rows.append(row)
        q += 1

    final = store[:count].reshape(count, n, n)
    return CovarianceGraph(
        reps=final,
        succ=np.asarray(succ_rows, dtype=np.int64).reshape(count, len(methods)),
        delta=achieved_delta,
        b0=b0,
        bound=float(np.linalg.norm(final.reshape(count, -1), axis=1).max()),
    )


def assert_same_graph(graph, ref, methods, dyn, tf=1.0, lam_alpha=5.0):
    assert graph.size == ref.size
    assert np.array_equal(graph.succ, ref.succ)
    assert graph.delta == pytest.approx(ref.delta, rel=1e-12, abs=0.0)
    assert np.allclose(graph.reps, ref.reps, rtol=1e-12, atol=0.0)
    attach_policy(graph, tf, lam_alpha, methods, dyn)
    attach_policy(ref, tf, lam_alpha, methods, dyn)
    assert np.array_equal(graph.policy, ref.policy)


def scenario(name):
    cfg = load_scenario(CONFIGS / name)
    return cfg, build_dynamics(cfg.model, cfg.methods)


class TestMatchesSequentialExpansion:
    def test_occlusion_scenario(self):
        cfg, dyn = scenario("occlusion_run.json")
        reps = sample_region(cfg.model.n_x, cfg.graph.b0, 1000, cfg.graph.seed)
        kwargs = dict(admit_tol=2.2, b0=cfg.graph.b0)
        graph = expand_graph(reps, cfg.methods, dyn, **kwargs)
        ref = sequential_expand_graph(reps, cfg.methods, dyn, **kwargs)
        assert_same_graph(graph, ref, cfg.methods, dyn, cfg.tf, cfg.lam_alpha)

    @pytest.mark.parametrize("chunk", [None, 7])
    def test_double_integrator_with_admissions(self, monkeypatch, chunk):
        if chunk is not None:
            # Small chunks make nodes admitted in one chunk candidates in later ones.
            monkeypatch.setattr("latsched.covgraph._CHUNK", chunk)
        cfg, dyn = scenario("double_integrator.json")
        reps = sample_region(cfg.model.n_x, cfg.graph.b0, 300, cfg.graph.seed)
        graph = expand_graph(reps, cfg.methods, dyn, b0=cfg.graph.b0)
        ref = sequential_expand_graph(reps, cfg.methods, dyn, b0=cfg.graph.b0)
        assert graph.size > 300
        assert_same_graph(graph, ref, cfg.methods, dyn, cfg.tf, cfg.lam_alpha)

    def test_duplicated_reps_tie_to_lowest_id(self, bench):
        _, methods, dyn = bench
        base = sample_region(4, 1.0, 30, seed=4)
        reps = np.concatenate([base, base])
        tol = default_admit_tol(base)
        graph = expand_graph(reps, methods, dyn, admit_tol=tol)
        ref = sequential_expand_graph(reps, methods, dyn, admit_tol=tol)
        assert_same_graph(graph, ref, methods, dyn)
        # Every edge into the initial set goes to the first copy, and some do.
        assert np.any(graph.succ < 30)
        assert not np.any((graph.succ >= 30) & (graph.succ < 60))

    def test_tie_between_initial_and_admitted_node(self, monkeypatch):
        def halve_and_shift(P, method, dyn):
            return np.asarray(P) * 0.5 + method

        # Exact 1-D steps: node 3 (0.25) steps to 1.125, which lies 0.875 from
        # both node 3 and node 4 (2.0, admitted from node 2 in the same batch).
        monkeypatch.setattr("latsched.covgraph.riccati_step", halve_and_shift)
        monkeypatch.setitem(globals(), "riccati_step", halve_and_shift)
        reps = np.array([3.75, 3.25, 0.0, 0.25]).reshape(-1, 1, 1)
        kwargs = dict(admit_tol=0.875, b0=4.0)
        graph = expand_graph(reps, [1.0, 2.0], None, **kwargs)
        ref = sequential_expand_graph(reps, [1.0, 2.0], None, **kwargs)
        assert graph.reps[4, 0, 0] == 2.0
        assert graph.succ[3, 0] == 3
        assert graph.size == ref.size
        assert np.array_equal(graph.succ, ref.succ)

    @pytest.mark.parametrize("admit_tol", [None, 0.05])
    def test_single_rep(self, bench, admit_tol):
        _, methods, dyn = bench
        reps = sample_region(4, 1.0, 1, seed=2)
        graph = expand_graph(reps, methods, dyn, admit_tol=admit_tol)
        ref = sequential_expand_graph(reps, methods, dyn, admit_tol=admit_tol)
        assert_same_graph(graph, ref, methods, dyn)
        if admit_tol is None:
            assert graph.size == 1 and np.all(graph.succ == 0)
        else:
            assert graph.size > 1

    def test_growth_cap_raises_in_both(self, bench):
        _, methods, dyn = bench
        reps = sample_region(4, 1.0, 3, seed=0)
        kwargs = dict(admit_tol=1e-15, max_growth=3)
        with pytest.raises(GraphExpansionError):
            expand_graph(reps, methods, dyn, **kwargs)
        with pytest.raises(GraphExpansionError):
            sequential_expand_graph(reps, methods, dyn, **kwargs)
