import importlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from latsched import (
    ContinuousModel,
    ExplosionGuardError,
    IncompleteScheduleError,
    InvalidModelError,
    PerceptionMethod,
    Schedule,
    SingularUpdateError,
    build_dynamics,
    dyn_prog_exact,
    enumerate_covering_schedules,
    evaluate_schedule,
    riccati_step,
    sample_region,
    schedule_cpu_load,
    static_schedule,
)
from latsched.config import load_scenario
from latsched.exact import _memo_plan, window_steps

from conftest import random_spd

exact_module = importlib.import_module("latsched.exact")

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def recursive_exact(P0, tf, lam_alpha, methods, dyn):
    """Depth-first reference search: (schedule tuple, cost, node count).

    One node per call, each method costed and then its subtree searched, so
    `cost = local; cost += tail` and strict `<` keep the lowest id on ties.
    """
    tf_steps = window_steps(tf, dyn.dt_s)
    calls = [0]

    def search(elapsed: int, P: np.ndarray) -> tuple[tuple, float]:
        calls[0] += 1
        best_cost = np.inf
        best_tail: tuple = ()
        for method in methods:
            nxt = elapsed + method.steps
            d_steps = min(method.steps, tf_steps - elapsed)
            M, c = dyn.step_gram(d_steps)
            cost = lam_alpha * method.penalty + c + float((P * M).sum())
            tail: tuple = ()
            if nxt < tf_steps:
                tail, tail_cost = search(nxt, riccati_step(P, method, dyn))
                cost += tail_cost
            if cost < best_cost:
                best_cost = cost
                best_tail = (method.id,) + tail
        return best_tail, best_cost

    seq, cost = search(0, np.asarray(P0, dtype=float))
    return seq, cost / tf, calls[0]


def tree_nodes(tf_steps: int, steps) -> int:
    """Node count of the search tree over a window: prefixes that do not cover it."""
    nodes = [0] * (tf_steps + 1)
    for remaining in range(1, tf_steps + 1):
        nodes[remaining] = 1 + sum(nodes[remaining - s] for s in steps if s < remaining)
    return nodes[tf_steps]


def assert_matches_reference(P0, tf, lam, methods, dyn):
    stats = {}
    sched, cost = dyn_prog_exact(P0, tf, lam, methods, dyn, stats=stats)
    ref_seq, ref_cost, ref_calls = recursive_exact(P0, tf, lam, methods, dyn)
    assert tuple(sched) == ref_seq
    assert cost == ref_cost
    assert stats["calls"] == ref_calls


def flat_enumeration_min(P0, tf, lam, methods, dyn):
    """Independent brute force: generate covering id-tuples with itertools and
    evaluate each, no recursion shared with the library."""
    tf_steps = int(round(tf / dyn.dt_s))
    steps = {m.id: m.steps for m in methods}
    max_len = tf_steps // min(steps.values()) + 1
    best = np.inf
    best_seq = None
    for length in range(1, max_len + 1):
        for seq in itertools.product([m.id for m in methods], repeat=length):
            total = 0
            minimal = False
            for idx, pid in enumerate(seq):
                total += steps[pid]
                if total >= tf_steps:
                    minimal = idx == length - 1
                    break
            if not minimal:
                continue
            cost = evaluate_schedule(P0, Schedule(seq), tf, lam, methods, dyn)
            if cost < best:
                best = cost
                best_seq = seq
    return best_seq, best


@pytest.fixture(scope="module")
def small_setup():
    model = ContinuousModel(
        A=[[0, 1], [0, 0]], B=[[0], [1]], W=[[0.5]], C=[[1, 0]],
        x0=[0, 0], P0=np.eye(2), dt_s=0.1,
    )
    methods = [
        PerceptionMethod(id=1, steps=1, R=[[0.5]], cpu=0.5, penalty=0.05),
        PerceptionMethod(id=2, steps=3, R=[[0.05]], cpu=0.8, penalty=0.24),
    ]
    return model, methods, build_dynamics(model, methods)


class TestSchedule:
    def test_numpy_ids_become_python_ints(self):
        sched = Schedule((np.int64(1), np.uint8(2), 1))
        assert sched.methods == (1, 2, 1)
        assert all(type(pid) is int for pid in sched)
        assert json.dumps(list(Schedule((np.int64(1),)))) == "[1]"

    def test_python_ids_kept(self):
        ids = (1, 2, 2)
        assert Schedule(ids).methods is ids
        assert Schedule([2, 1]).methods == (2, 1)


class TestEvaluateSchedule:
    def test_single_method_matches_dp(self, small_setup):
        model, methods, dyn = small_setup
        only = [methods[0]]
        sched = static_schedule(1, 1.0, only, dyn)
        cost = evaluate_schedule(np.eye(2), sched, 1.0, 5.0, only, dyn)
        dp_sched, dp_cost = dyn_prog_exact(np.eye(2), 1.0, 5.0, only, dyn)
        assert tuple(dp_sched) == tuple(sched)
        assert np.isclose(cost, dp_cost, rtol=1e-12)

    def test_rejects_non_covering(self, small_setup):
        _, methods, dyn = small_setup
        with pytest.raises(IncompleteScheduleError):
            evaluate_schedule(np.eye(2), Schedule((1, 1)), 1.0, 5.0, methods, dyn)

    def test_rejects_overlong(self, small_setup):
        _, methods, dyn = small_setup
        sched = Schedule((1,) * 11)
        with pytest.raises(IncompleteScheduleError):
            evaluate_schedule(np.eye(2), sched, 1.0, 5.0, methods, dyn)

    def test_overlong_message_stays_short(self, small_setup):
        _, methods, dyn = small_setup
        with pytest.raises(IncompleteScheduleError, match="does not minimally cover") as info:
            evaluate_schedule(np.eye(2), Schedule((1,) * 2000), 1.0, 5.0, methods, dyn)
        assert len(str(info.value)) < 200

    def test_zero_everything_costs_zero(self):
        model = ContinuousModel(
            A=np.zeros((2, 2)), B=np.eye(2), W=np.zeros((2, 2)), C=np.eye(2),
            x0=np.zeros(2), P0=np.zeros((2, 2)), dt_s=0.1,
        )
        methods = [PerceptionMethod(id=1, steps=1, R=np.eye(2), cpu=0.5, penalty=0.0)]
        dyn = build_dynamics(model, methods)
        sched = static_schedule(1, 1.0, methods, dyn)
        assert evaluate_schedule(np.zeros((2, 2)), sched, 1.0, 5.0, methods, dyn) == 0.0

    def test_matches_dense_trapezoid(self, small_setup):
        model, methods, dyn = small_setup
        P0 = 2.0 * np.eye(2)
        sched = Schedule((2, 1, 2, 1, 1, 1))  # covers 10 steps
        lam = 5.0
        cost = evaluate_schedule(P0, sched, 1.0, lam, methods, dyn)

        # Dense oracle: trapezoid of tr(P(t)) at dt=1e-4 along the epoch beliefs.
        dt = 1e-4
        total = lam * sum(methods[p - 1].penalty for p in sched)
        P = P0.copy()
        tau = 0.0
        for pid in sched:
            m = methods[pid - 1]
            end = min(tau + m.steps * dyn.dt_s, 1.0)
            grid = np.arange(0.0, end - tau + dt / 2, dt)
            vals = []
            for s in grid:
                Ad, Wd = dyn.pair(float(s))
                vals.append(np.trace(Ad @ P @ Ad.T) + np.trace(Wd))
            total += np.trapezoid(vals, dx=dt)
            P = riccati_step(P, m, dyn)
            tau += m.steps * dyn.dt_s
        assert np.isclose(cost, total / 1.0, rtol=1e-6)


class TestMethodIdRange:
    """Ids outside 1..D raise instead of indexing past either end of the bank."""

    @pytest.mark.parametrize("bad", [0, 3])
    def test_evaluate_schedule(self, small_setup, bad):
        _, methods, dyn = small_setup
        sched = Schedule((bad,) + (1,) * 9)
        with pytest.raises(IncompleteScheduleError, match=f"method id {bad} is outside"):
            evaluate_schedule(np.eye(2), sched, 1.0, 5.0, methods, dyn)

    @pytest.mark.parametrize("bad", [0, 3])
    def test_schedule_cpu_load(self, small_setup, bad):
        _, methods, dyn = small_setup
        with pytest.raises(IncompleteScheduleError, match=f"method id {bad} is outside"):
            schedule_cpu_load(Schedule((1, bad)), 1.0, methods, dyn)

    @pytest.mark.parametrize("bad", [0, 3])
    def test_static_schedule(self, small_setup, bad):
        _, methods, dyn = small_setup
        with pytest.raises(IncompleteScheduleError, match=f"method id {bad} is outside"):
            static_schedule(bad, 1.0, methods, dyn)


class TestCpuLoad:
    def test_static_loads(self, small_setup):
        _, methods, dyn = small_setup
        s2 = static_schedule(2, 1.0, methods, dyn)
        assert np.isclose(schedule_cpu_load(s2, 1.0, methods, dyn), 0.8)
        s1 = static_schedule(1, 1.0, methods, dyn)
        assert np.isclose(schedule_cpu_load(s1, 1.0, methods, dyn), 0.5)


class TestDynProgExact:
    def test_identical_methods_tie_to_lowest_id(self, small_setup):
        model, _, _ = small_setup
        twins = [
            PerceptionMethod(id=1, steps=2, R=[[0.3]], cpu=0.5, penalty=0.1),
            PerceptionMethod(id=2, steps=2, R=[[0.3]], cpu=0.5, penalty=0.1),
        ]
        dyn = build_dynamics(model, twins)
        sched, cost = dyn_prog_exact(np.eye(2), 1.0, 5.0, twins, dyn)
        assert tuple(sched) == (1,) * 5
        static_cost = evaluate_schedule(
            np.eye(2), static_schedule(2, 1.0, twins, dyn), 1.0, 5.0, twins, dyn)
        assert np.isclose(cost, static_cost, rtol=1e-12)

    def test_matches_flat_enumeration(self, small_setup):
        model, methods, dyn = small_setup
        rng = np.random.default_rng(13)
        for _ in range(5):
            P0 = random_spd(rng, 2, rng.uniform(0.5, 4.0))
            sched, cost = dyn_prog_exact(P0, 1.0, 5.0, methods, dyn)
            ref_seq, ref_cost = flat_enumeration_min(P0, 1.0, 5.0, methods, dyn)
            assert abs(cost - ref_cost) <= 1e-10 * max(1.0, abs(ref_cost))
            assert tuple(sched) == ref_seq

    def test_cost_consistent_with_evaluate(self, small_setup):
        _, methods, dyn = small_setup
        rng = np.random.default_rng(19)
        P0 = random_spd(rng, 2, 2.0)
        sched, cost = dyn_prog_exact(P0, 1.0, 5.0, methods, dyn)
        assert np.isclose(
            cost, evaluate_schedule(P0, sched, 1.0, 5.0, methods, dyn), rtol=1e-10)

    def test_huge_penalty_minimizes_penalty_sum(self, small_setup):
        _, methods, dyn = small_setup
        sched, _ = dyn_prog_exact(np.eye(2), 1.0, 1e6, methods, dyn)
        seqs = list(enumerate_covering_schedules(10, methods))
        pens = {s: sum(methods[p - 1].penalty for p in s) for s in seqs}
        assert pens[tuple(sched)] == min(pens.values())

    def test_call_count_bounded(self, small_setup):
        _, methods, dyn = small_setup
        stats = {}
        dyn_prog_exact(np.eye(2), 1.0, 5.0, methods, dyn, stats=stats)
        alpha_max = 10  # 1.0 s / (1 step * 0.1 s)
        assert stats["calls"] <= len(methods) ** alpha_max

    def test_explosion_guard(self, small_setup):
        _, methods, dyn = small_setup
        with pytest.raises(ExplosionGuardError, match="recursion depth 25 > 24"):
            dyn_prog_exact(np.eye(2), 2.5, 5.0, methods, dyn)

    @pytest.mark.parametrize("P0", [
        np.full((2, 2), np.nan), np.diag([np.inf, 1.0]), np.eye(3), np.ones(2),
    ], ids=["nan", "inf", "3x3", "vector"])
    def test_rejects_bad_P0(self, small_setup, P0):
        _, methods, dyn = small_setup
        with pytest.raises(ValueError, match="P0 must be a finite 2x2 array"):
            dyn_prog_exact(P0, 1.0, 5.0, methods, dyn)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_lam_alpha(self, small_setup, lam):
        _, methods, dyn = small_setup
        with pytest.raises(ValueError, match="lam_alpha must be finite"):
            dyn_prog_exact(np.eye(2), 1.0, lam, methods, dyn)

    def test_matches_recursive_reference_on_shipped_model(self):
        # The benchmark's exact query: double_integrator at Tf = 2 s, lambda 0.5.
        cfg = load_scenario(CONFIGS / "double_integrator.json")
        dyn = build_dynamics(cfg.model, cfg.methods)
        for P0 in sample_region(cfg.model.n_x, cfg.graph.b0, 20, seed=5):
            assert_matches_reference(P0, 2.0, 0.5, cfg.methods, dyn)

    def test_tree_size_guard(self, small_setup):
        # Within the depth cap, 1-step twins grow a 2^24-node tree; a (1, 2)
        # pair at the cap stays under the covariance budget.
        model, methods, _ = small_setup
        twins = [PerceptionMethod(id=i, steps=1, R=[[0.5]], cpu=0.5, penalty=0.05)
                 for i in (1, 2)]
        dyn = build_dynamics(model, twins)
        with pytest.raises(ExplosionGuardError, match="tree of 16777215 nodes of 2x2"):
            dyn_prog_exact(np.eye(2), 2.4, 5.0, twins, dyn)
        pair = [methods[0], PerceptionMethod(id=2, steps=2, R=[[0.05]], cpu=0.8, penalty=0.24)]
        stats = {}
        dyn_prog_exact(np.eye(2), 2.4, 5.0, pair, build_dynamics(model, pair), stats=stats)
        assert stats["calls"] == 121_392

    def test_determinism(self, small_setup):
        _, methods, dyn = small_setup
        rng = np.random.default_rng(23)
        P0 = random_spd(rng, 2, 1.0)
        a = dyn_prog_exact(P0, 1.0, 5.0, methods, dyn)
        b = dyn_prog_exact(P0, 1.0, 5.0, methods, dyn)
        assert tuple(a[0]) == tuple(b[0]) and a[1] == b[1]


class TestEnumeration:
    def test_counts_for_benchmark_latencies(self, bench):
        _, methods, dyn = bench
        seqs = list(enumerate_covering_schedules(30, methods))
        assert len(seqs) == 60
        assert len(set(seqs)) == 60
        for seq in seqs:
            assert Schedule(seq).minimally_covers(30, methods)


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, 3),
    steps=st.lists(st.integers(1, 5), min_size=1, max_size=3),
    twin=st.booleans(),
    shared=st.booleans(),
    lam=st.one_of(st.just(0.0), st.floats(0.0, 1e4)),
    seed=st.integers(0, 2**32 - 1),
)
def test_matches_recursive_reference(data, n, steps, twin, shared, lam, seed):
    # Random models and method banks of 1 to 3 methods. `twin` gives the last
    # method the first one's latency; `shared` gives every method the same R
    # and penalty, so equal-step methods tie exactly. The window runs up to
    # the depth cap, or to the longest one whose tree the reference searches
    # in 2,000 nodes, so most leaves truncate their last epoch at the edge.
    if twin:
        steps[-1] = steps[0]
    rng = np.random.default_rng(seed)
    n_z = int(rng.integers(1, n + 1))
    try:
        model = ContinuousModel(
            A=0.5 * rng.standard_normal((n, n)), B=np.eye(n), W=random_spd(rng, n),
            C=rng.standard_normal((n_z, n)), x0=np.zeros(n), P0=np.eye(n), dt_s=0.1)
    except InvalidModelError:
        assume(False)
    R, penalty = random_spd(rng, n_z, rng.uniform(0.05, 2.0)), rng.uniform(0.0, 0.3)
    methods = []
    for pid, s in enumerate(steps, start=1):
        if not shared:
            R, penalty = random_spd(rng, n_z, rng.uniform(0.05, 2.0)), rng.uniform(0.0, 0.3)
        methods.append(PerceptionMethod(id=pid, steps=s, R=R, cpu=0.5, penalty=penalty))
    dyn = build_dynamics(model, methods)
    cap = 1
    while (cap + 1) // min(steps) <= 24 and tree_nodes(cap + 1, steps) <= 2000:
        cap += 1
    tf = data.draw(st.integers(1, cap), label="tf_steps") * dyn.dt_s
    G = rng.standard_normal((n, int(rng.integers(0, n + 1))))
    P0 = G @ G.T * rng.uniform(0.1, 5.0)
    assert_matches_reference(P0, tf, lam, methods, dyn)


class TestLevelPlan:
    """The memoized plan holds the tree's shape only, so no query can leak into another."""

    def test_equal_latencies_do_not_share_numbers(self, small_setup):
        # Two banks with the (1, 3)-step plan of small_setup but other R and
        # penalties, queried alternately at two windows: each query uses the
        # memoized plan and still matches its own reference.
        model, methods, dyn = small_setup
        other = [PerceptionMethod(id=m.id, steps=m.steps, R=[[2.0 / m.steps]], cpu=m.cpu,
                                  penalty=0.3 - m.penalty) for m in methods]
        other_dyn = build_dynamics(model, other)
        rng = np.random.default_rng(29)
        for _ in range(2):
            for tf in (0.7, 1.0):
                P0 = random_spd(rng, 2, 2.0)
                assert_matches_reference(P0, tf, 5.0, methods, dyn)
                assert_matches_reference(P0, tf, 5.0, other, other_dyn)
        for level in _memo_plan(window_steps(1.0, dyn.dt_s), (1, 3)):
            assert not level.epoch.flags.writeable and not level.parent.flags.writeable
            assert level.parent.dtype == np.int32

    def test_large_tree_is_planned_per_query(self, small_setup, monkeypatch):
        # A tree over the memo's node bound is planned and dropped per query.
        _, methods, dyn = small_setup
        monkeypatch.setattr(exact_module, "_PLAN_MEMO_NODES", 20)
        _memo_plan.cache_clear()
        P0 = random_spd(np.random.default_rng(37), 2, 1.0)
        assert_matches_reference(P0, 1.0, 5.0, methods, dyn)  # 59 nodes
        assert _memo_plan.cache_info().currsize == 0
        assert_matches_reference(P0, 0.5, 5.0, methods, dyn)  # 8 nodes
        assert _memo_plan.cache_info().currsize == 1

    def test_queries_after_a_failed_query(self, small_setup):
        model, methods, dyn = small_setup
        deaf = [PerceptionMethod(id=m.id, steps=m.steps, R=[[0.0]], cpu=m.cpu,
                                 penalty=m.penalty) for m in methods]
        deaf_dyn = build_dynamics(model, deaf)
        P0 = random_spd(np.random.default_rng(31), 2, 1.5)
        failures = [
            (ExplosionGuardError, lambda: dyn_prog_exact(P0, 2.5, 5.0, methods, dyn)),
            (ValueError, lambda: dyn_prog_exact(np.diag([np.nan, 1.0]), 1.0, 5.0, methods, dyn)),
            (SingularUpdateError,
             lambda: dyn_prog_exact(np.zeros((2, 2)), 1.0, 5.0, deaf, deaf_dyn)),
        ]
        for error, query in failures:
            with pytest.raises(error):
                query()
            for tf in (0.7, 1.0):
                assert_matches_reference(P0, tf, 5.0, methods, dyn)
