import itertools

import numpy as np
import pytest

from latsched import (
    ContinuousModel,
    ExplosionGuardError,
    IncompleteScheduleError,
    PerceptionMethod,
    Schedule,
    build_dynamics,
    dyn_prog_exact,
    enumerate_covering_schedules,
    evaluate_schedule,
    riccati_step,
    schedule_cpu_load,
    static_schedule,
)

from conftest import random_spd


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
        with pytest.raises(ExplosionGuardError):
            dyn_prog_exact(np.eye(2), 10.0, 5.0, methods, dyn, max_depth=24)

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
