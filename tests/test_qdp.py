import dataclasses
import importlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latsched import (
    CovarianceGraph,
    DiscretizedDynamics,
    attach_policy,
    backward_tables,
    build_dynamics,
    dyn_prog_exact,
    evaluate_on_graph,
    expand_graph,
    qdp,
    qdp_matrices,
    riccati_step,
    sample_region,
    steady_state,
)
from conftest import random_spd, window_time_ratio

from latsched.config import load_scenario

from latsched import ContinuousModel, IncompleteScheduleError, PerceptionMethod, Schedule

qdp_module = importlib.import_module("latsched.qdp")


@pytest.fixture(scope="module")
def tiny():
    model = ContinuousModel(
        A=[[0, 1], [0, 0]], B=[[0], [1]], W=[[0.5]], C=[[1, 0]],
        x0=[0, 0], P0=np.eye(2), dt_s=0.1,
    )
    methods = [
        PerceptionMethod(id=1, steps=1, R=[[0.5]], cpu=0.5, penalty=0.05),
        PerceptionMethod(id=2, steps=3, R=[[0.05]], cpu=0.8, penalty=0.24),
    ]
    dyn = build_dynamics(model, methods)
    return model, methods, dyn


def follow(PI, graph, q0, methods):
    """The schedule a forward pass over the decision table PI takes from q0."""
    seq, q, stage = [], q0, 0
    while stage < PI.shape[1]:
        rho = int(PI[q, stage])
        seq.append(rho)
        q = int(graph.succ[q, rho - 1])
        stage += methods[rho - 1].steps
    return tuple(seq)


def count_sweeps(monkeypatch) -> list:
    """Record every `backward_tables` call made through the qdp module."""
    calls = []
    sweep = qdp_module.backward_tables

    def counted(*args):
        calls.append(args)
        return sweep(*args)

    monkeypatch.setattr(qdp_module, "backward_tables", counted)
    return calls


def brute_force_paths(graph, q0, tf_steps, lam, methods, dyn):
    """Enumerate every covering method sequence along the graph and cost it."""
    best = np.inf
    best_seq = None

    def rec(q, elapsed, seq, acc):
        nonlocal best, best_seq
        for method in methods:
            d = min(method.steps, tf_steps - elapsed)
            M, c = dyn.step_gram(d)
            cost = acc + lam * method.penalty + c + float((graph.reps[q] * M).sum())
            nxt = elapsed + method.steps
            q_next = int(graph.succ[q, method.id - 1])
            if nxt >= tf_steps:
                if cost < best:
                    best = cost
                    best_seq = seq + (method.id,)
            else:
                rec(q_next, nxt, seq + (method.id,), cost)

    rec(q0, 0, (), 0.0)
    return best_seq, best / (tf_steps * dyn.dt_s)


class TestQdpMatrices:
    def test_single_node_single_method_stages(self, tiny):
        model, methods, dyn = tiny
        only = [PerceptionMethod(id=1, steps=3, R=[[0.05]], cpu=0.8, penalty=0.24)]
        P_star, _ = steady_state(only[0], dyn)
        graph = expand_graph(P_star[None], only, dyn)
        tables = qdp_matrices(0, 1.0, 5.0, graph, only, dyn)
        assert tables.PI.shape == (1, 10)
        assert np.all(tables.PI == 1)
        # Epochs start at stages 0, 3, 6, 9; the last is clamped at stage 10.
        expected = 0.0
        for start in (0, 3, 6, 9):
            d = min(3, 10 - start)
            M, c = dyn.step_gram(d)
            expected += 5.0 * 0.24 + c + float((P_star * M).sum())
        assert tables.V.shape == (1,)
        assert np.isclose(tables.V[0], expected / 1.0, rtol=1e-12)

    def test_relaxation_count_exact(self, tiny):
        _, methods, dyn = tiny
        graph = expand_graph(sample_region(2, 1.0, 8, seed=1), methods, dyn)
        tables = qdp_matrices(0, 1.0, 5.0, graph, methods, dyn)
        assert tables.relaxations == 10 * graph.size * 2

    def test_start_cell(self, tiny):
        _, methods, dyn = tiny
        graph = expand_graph(sample_region(2, 1.0, 5, seed=2), methods, dyn)
        tables = qdp_matrices(3, 1.0, 5.0, graph, methods, dyn)
        assert tables.q0 == 3
        for q0 in (-1, graph.size):
            with pytest.raises(ValueError, match="outside"):
                qdp_matrices(q0, 1.0, 5.0, graph, methods, dyn)
            with pytest.raises(ValueError, match="outside"):
                qdp(q0, 1.0, 5.0, graph, methods, dyn)


class TestQdp:
    def test_matches_brute_force_paths(self, tiny):
        """Cost and schedule equal the lexicographically first brute-force optimum."""
        _, methods, dyn = tiny
        graph = expand_graph(sample_region(2, 1.0, 6, seed=4), methods, dyn)
        # (q0, tf, lam); the last case is a tie a forward trace-back broke
        # toward (1, 1, 1, 2).
        cases = [(q0, 0.8, 5.0) for q0 in range(min(graph.size, 4))] + [(9, 0.4, 0.0)]
        for q0, tf, lam in cases:
            sched, cost = qdp(q0, tf, lam, graph, methods, dyn)
            ref_seq, ref_cost = brute_force_paths(graph, q0, round(tf / dyn.dt_s), lam,
                                                  methods, dyn)
            assert tuple(sched) == ref_seq
            assert np.isclose(cost, ref_cost, rtol=1e-12)
            assert evaluate_on_graph(graph, q0, sched, tf, lam, methods, dyn) == \
                pytest.approx(cost, rel=1e-10)
        assert tuple(qdp(9, 0.4, 0.0, graph, methods, dyn)[0]) == (1, 1, 1, 1)

    def test_cost_equals_graph_trajectory_eval(self, tiny):
        _, methods, dyn = tiny
        graph = expand_graph(sample_region(2, 1.0, 12, seed=5), methods, dyn)
        sched, cost = qdp(2, 1.0, 5.0, graph, methods, dyn)
        again = evaluate_on_graph(graph, 2, sched, 1.0, 5.0, methods, dyn)
        assert np.isclose(cost, again, rtol=1e-10)

    def test_rejects_start_outside_graph(self, tiny):
        _, methods, dyn = tiny
        graph = expand_graph(sample_region(2, 1.0, 6, seed=4), methods, dyn)
        for q0 in (-1, graph.size):
            with pytest.raises(ValueError, match=f"q0={q0} outside 0..{graph.size - 1}"):
                qdp(q0, 1.0, 5.0, graph, methods, dyn)
            with pytest.raises(ValueError, match=f"q0={q0} outside"):
                qdp_matrices(q0, 1.0, 5.0, graph, methods, dyn)
        assert all(type(pid) is int for pid in qdp(0, 1.0, 5.0, graph, methods, dyn)[0])

    @pytest.mark.parametrize("bad", [0, 3])
    def test_evaluate_on_graph_rejects_unknown_id(self, tiny, bad):
        _, methods, dyn = tiny
        graph = expand_graph(sample_region(2, 1.0, 6, seed=4), methods, dyn)
        with pytest.raises(IncompleteScheduleError, match=f"method id {bad} is outside"):
            evaluate_on_graph(graph, 0, Schedule((1,) * 9 + (bad,)), 1.0, 5.0,
                              methods, dyn)

    def test_exact_equivalence_on_reachable_graph(self, tiny):
        """Graph whose nodes are the exact reachable covariances: qdp == exact DP."""
        model, methods, dyn = tiny
        rng = np.random.default_rng(6)
        P0 = random_spd(rng, 2, 2.0)
        tf_steps = 8

        nodes = [P0]
        succ_rows = []
        frontier = [(0, 0)]
        seen = {0: 0}

        def find_or_add(P):
            for i, Q in enumerate(nodes):
                if np.linalg.norm(P - Q, "fro") <= 1e-12:
                    return i, False
            nodes.append(P)
            return len(nodes) - 1, True

        # Forward closure of interior states; terminal states keep edges too.
        idx = 0
        states = [(P0, 0)]
        succ = {}
        while idx < len(states):
            P, elapsed = states[idx]
            qid = find_or_add(P)[0]
            for method in methods:
                P_next = riccati_step(P, method, dyn)
                nid, fresh = find_or_add(P_next)
                succ[(qid, method.id)] = nid
                nxt = elapsed + method.steps
                if nxt < tf_steps and fresh:
                    states.append((P_next, nxt))
                elif nxt < tf_steps and (nid, nxt) not in seen:
                    states.append((P_next, nxt))
            idx += 1
        # Terminal-only nodes may lack outgoing edges; close them arbitrarily
        # (they are never expanded inside the window).
        reps = np.array(nodes)
        succ_arr = np.zeros((len(nodes), 2), dtype=np.int64)
        for q in range(len(nodes)):
            for method in methods:
                succ_arr[q, method.id - 1] = succ.get((q, method.id), q)
        graph = CovarianceGraph(reps=reps, succ=succ_arr, delta=0.0,
                                b0=10.0, bound=10.0)

        sched_q, cost_q = qdp(0, 0.8, 5.0, graph, methods, dyn)
        sched_e, cost_e = dyn_prog_exact(P0, 0.8, 5.0, methods, dyn)
        assert tuple(sched_q) == tuple(sched_e)
        assert np.isclose(cost_q, cost_e, rtol=1e-10)

    def test_minimal_covering_output(self, tiny):
        _, methods, dyn = tiny
        graph = expand_graph(sample_region(2, 1.0, 10, seed=7), methods, dyn)
        sched, _ = qdp(0, 1.0, 5.0, graph, methods, dyn)
        assert sched.minimally_covers(10, methods)

    def test_runtime_linear_in_window(self, tiny):
        # qdp_matrices reads a memo after its first call, so time the sweep itself.
        _, methods, dyn = tiny
        graph = expand_graph(sample_region(2, 1.0, 300, seed=8), methods, dyn)
        ratio = window_time_ratio(lambda tf: backward_tables(tf, 5.0, graph, methods, dyn))
        assert 1.5 <= ratio <= 2.5


class TestPolicy:
    def test_matches_fresh_qdp_first_elements(self, tiny):
        _, methods, dyn = tiny
        graph = expand_graph(sample_region(2, 1.0, 15, seed=9), methods, dyn)
        for lam in (5.0, 0.0):
            policy = attach_policy(graph, 1.0, lam, methods, dyn).policy
            for q in range(graph.size):
                fresh, _ = qdp(q, 1.0, lam, graph, methods, dyn)
                assert policy[q] == fresh.methods[0]

    def test_single_node_policy(self, tiny):
        _, methods, dyn = tiny
        only = [methods[0]]
        P_star, _ = steady_state(only[0], dyn)
        graph = expand_graph(P_star[None], only, dyn)
        policy = attach_policy(graph, 1.0, 5.0, only, dyn).policy
        assert policy.shape == (1,)
        assert policy[0] == 1

    def test_backward_value_matches_qdp_cost(self, tiny):
        _, methods, dyn = tiny
        graph = expand_graph(sample_region(2, 1.0, 10, seed=10), methods, dyn)
        V, _ = backward_tables(1.0, 5.0, graph, methods, dyn)
        for q in (0, 3, 7):
            _, cost = qdp(q, 1.0, 5.0, graph, methods, dyn)
            assert np.isclose(V[q], cost, rtol=1e-10)


class TestDegeneratePenaltyRegime:
    def test_single_node_high_penalty_returns_static_fast(self, bench):
        model, methods, dyn = bench
        lam = 15.0
        graph = expand_graph(sample_region(4, 1.0, 1, seed=0), methods, dyn)
        assert graph.size == 1
        sched, _ = qdp(0, 1.0, lam, graph, methods, dyn)
        assert tuple(sched) == (1,) * 10
        policy = attach_policy(graph, 1.0, lam, methods, dyn).policy
        assert np.all(policy == 1)


class TestSweepMemo:
    def test_one_sweep_per_graph_and_window(self, tiny, monkeypatch):
        _, methods, dyn = tiny
        graph = expand_graph(sample_region(2, 1.0, 8, seed=1), methods, dyn)
        calls = count_sweeps(monkeypatch)
        attach_policy(graph, 1.0, 5.0, methods, dyn)
        assert len(calls) == 1
        assert graph._sweep is None
        for q0 in range(graph.size):
            qdp(q0, 1.0, 5.0, graph, methods, dyn)
        tables = qdp_matrices(0, 1.0, 5.0, graph, methods, dyn)
        assert len(calls) == 2
        # One entry: another window evicts the first.
        qdp(0, 1.0, 0.0, graph, methods, dyn)
        qdp(0, 1.0, 5.0, graph, methods, dyn)
        assert len(calls) == 4
        assert tables.PI.dtype == np.uint8
        with pytest.raises(ValueError, match="read-only"):
            tables.PI[0, 0] = 2
        with pytest.raises(ValueError, match="read-only"):
            tables.V[0] = 0.0
        assert dataclasses.replace(graph)._sweep is None


@pytest.fixture(scope="module")
def two_dyns():
    """Two distinct dynamics objects with tables up to 4 steps."""
    dyns = []
    for w in (0.5, 2.0):
        model = ContinuousModel(A=[[0, 1], [0, 0]], B=[[0], [1]], W=[[w]], C=[[1, 0]],
                                x0=[0, 0], P0=np.eye(2), dt_s=0.1)
        dyns.append(DiscretizedDynamics(model, 4))
    return dyns


@st.composite
def memo_cases(draw):
    """A small graph, a second successor table, method variants and a query list.

    Each query changes one input of the one before it (start node, window,
    lambda, method variant or dynamics), so every key input is seen to change
    alone, and a query that changes only the start node hits the memo.
    """
    Q, D = draw(st.integers(1, 8)), draw(st.integers(1, 3))
    floats = st.floats(-2.0, 2.0, allow_nan=False)
    G = np.array(draw(st.lists(floats, min_size=4 * Q, max_size=4 * Q))).reshape(Q, 2, 2)
    succs = [np.array(draw(st.lists(st.integers(0, Q - 1), min_size=Q * D, max_size=Q * D)))
             .reshape(Q, D) for _ in range(2)]
    steps = draw(st.lists(st.integers(1, 4), min_size=D, max_size=D))
    penalty_sets = draw(st.lists(st.lists(st.floats(0.0, 1.0), min_size=D, max_size=D),
                                 min_size=1, max_size=3))
    variants = [[PerceptionMethod(id=i + 1, steps=s, R=[[0.5]], cpu=0.5, penalty=p)
                 for i, (s, p) in enumerate(zip(steps, penalties))]
                for penalties in penalty_sets]
    windows, lams = (1, 5, 12), (0.0, 0.5, 7.0)
    sizes = (Q, len(windows), len(lams), len(variants), 2)
    state, queries = [0] * 5, []
    for which, value in draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 7)),
                                      min_size=1, max_size=10)):
        state[which] = value % sizes[which]
        queries.append((state[0], windows[state[1]], lams[state[2]], state[3], state[4]))
    graph = CovarianceGraph(reps=G @ G.mT, succ=succs[0], delta=0.0, b0=1.0, bound=1.0)
    return graph, succs[1], variants, queries


@settings(max_examples=60, deadline=None)
@given(case=memo_cases())
def test_memoized_queries_equal_fresh_sweeps(two_dyns, case):
    graph, other_succ, variants, queries = case

    def check(graph, q0, tf, lam, methods, dyn):
        V, PI = backward_tables(tf, lam, graph, methods, dyn)
        schedule, cost = qdp(q0, tf, lam, graph, methods, dyn)
        assert tuple(schedule) == follow(PI, graph, q0, methods)
        assert cost == V[q0]
        tables = qdp_matrices(q0, tf, lam, graph, methods, dyn)
        assert np.array_equal(tables.V, V)
        assert np.array_equal(tables.PI, PI)
        assert not tables.V.flags.writeable and not tables.PI.flags.writeable

    for q0, tf_steps, lam, variant, which in queries:
        dyn = two_dyns[which]
        check(graph, q0, tf_steps * dyn.dt_s, lam, variants[variant], dyn)
    # The copy shares every key input with the last query but not its successors.
    copy = dataclasses.replace(graph, succ=other_succ)
    for q0 in range(copy.size):
        check(copy, q0, tf_steps * dyn.dt_s, lam, variants[variant], dyn)



@pytest.fixture(scope="module")
def double_integrator():
    """The shipped double_integrator scenario's methods and dynamics, and a small graph."""
    cfg = load_scenario(Path(__file__).resolve().parent.parent / "configs"
                        / "double_integrator.json")
    dyn = build_dynamics(cfg.model, cfg.methods)
    graph = expand_graph(sample_region(4, cfg.graph.b0, 100, seed=42), cfg.methods, dyn,
                         b0=cfg.graph.b0)
    return cfg, dyn, graph


def penalty_sum(schedule, methods) -> float:
    return sum(methods[pid - 1].penalty for pid in schedule)


@settings(max_examples=100, deadline=None)
@given(
    lowest=st.floats(-3.0, 0.0),
    ratio=st.floats(2.0, 2000.0),
    count=st.integers(2, 8),
    tf_steps=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
    node=st.integers(0, 2**16),
)
def test_penalty_sum_does_not_rise_with_lambda(double_integrator, lowest, ratio, count,
                                               tf_steps, seed, node):
    # For lam1 < lam2 with optima s1 and s2 of penalty sums r1 and r2,
    # J1(s1) <= J1(s2) and J2(s2) <= J2(s1) add up to (lam2 - lam1)(r2 - r1)
    # <= 0 (Everett 1963): for the exact search from a sampled start and for
    # the graph DP from a fixed node alike, along a geometric ladder of lam.
    # The lowest rung is 10**lowest. Penalties 0.05 and 0.24 move a sum by
    # at least 0.01, and rungs at least 1e-4 apart keep (lam2 - lam1) * 0.01
    # far above rounding.
    cfg, dyn, graph = double_integrator
    tf = tf_steps * dyn.dt_s
    P0 = sample_region(4, cfg.graph.b0, 1, seed)[0]
    q0 = node % graph.size
    exact, on_graph = [], []
    for lam in np.geomspace(10.0 ** lowest, 10.0 ** lowest * ratio, count):
        exact.append(penalty_sum(dyn_prog_exact(P0, tf, lam, cfg.methods, dyn)[0],
                                 cfg.methods))
        on_graph.append(penalty_sum(qdp(q0, tf, lam, graph, cfg.methods, dyn)[0],
                                    cfg.methods))
    assert np.all(np.diff(exact) <= 1e-12), exact
    assert np.all(np.diff(on_graph) <= 1e-12), on_graph
