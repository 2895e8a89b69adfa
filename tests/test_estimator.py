import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latsched import (
    BeliefState,
    ContinuousModel,
    Measurement,
    PerceptionMethod,
    SingularUpdateError,
    build_dynamics,
    correct,
    predict,
    riccati_step,
    steady_state,
)
from latsched.dynamics import clamp_psd
from latsched.estimator import _gain_and_next_cov, epoch_covariance

from conftest import random_spd, scalar_setup, switched_step


def longdouble_update(P, Ad, Wd, C, R):
    """Straight-line transcription of the combined filter step in extended precision."""
    P = P.astype(np.longdouble)
    Ad = Ad.astype(np.longdouble)
    Wd = Wd.astype(np.longdouble)
    C = C.astype(np.longdouble)
    R = R.astype(np.longdouble)
    S = C @ P @ C.T + R
    L = Ad @ P @ C.T @ np.linalg.inv(S.astype(float)).astype(np.longdouble)
    F = Ad - L @ C
    return L, F @ P @ F.T + L @ R @ L.T + Wd


class TestBeliefState:
    def test_symmetrizes_and_clamps(self):
        P = np.array([[1.0, 1e-13], [0.0, 1.0]])
        b = BeliefState(0.0, [0.0, 0.0], P)
        assert np.array_equal(b.Phat, b.Phat.T)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            BeliefState(0.0, [0.0, 0.0], [[1.0, 0.0], [0.0, -0.5]])


class TestPredict:
    def test_identity_transition(self):
        model = ContinuousModel(A=np.zeros((2, 2)), B=np.eye(2), W=np.eye(2),
                                C=np.eye(2), x0=np.zeros(2), P0=np.eye(2), dt_s=0.5)
        dyn = build_dynamics(model, [PerceptionMethod(1, 1, np.eye(2), 0.5, 0.0)])
        b = BeliefState(0.0, [1.0, -2.0], np.eye(2))
        out = predict(b, 0.5, dyn)
        assert np.allclose(out.Phat, 1.5 * np.eye(2))
        assert np.allclose(out.xhat, b.xhat)
        assert out.t == 0.5

    def test_zero_elapsed_is_identity(self, bench):
        _, _, dyn = bench
        b = BeliefState(1.0, np.ones(4), np.eye(4))
        assert predict(b, 0.0, dyn) is b

    def test_double_integrator_growth(self):
        model = ContinuousModel(A=[[0, 1], [0, 0]], B=[[0], [1]], W=[[0.5]],
                                C=[[1, 0]], x0=[0, 0], P0=np.zeros((2, 2)), dt_s=0.1)
        dyn = build_dynamics(model, [PerceptionMethod(1, 1, [[1.0]], 0.5, 0.0)])
        out = predict(BeliefState(0.0, [0, 0], np.zeros((2, 2))), 0.1, dyn)
        expected = 0.5 * np.array([[3.333333333333333e-4, 5e-3], [5e-3, 0.1]])
        assert np.allclose(out.Phat, expected, rtol=1e-9)


class TestCorrect:
    def test_scalar_hand_values(self):
        _, method, dyn = scalar_setup(ad=1.0, r=1.0, w=0.0)
        b = BeliefState(0.0, [0.0], [[1.0]])
        meas = Measurement(k=0, z=[2.0], produced_at=1.0, method_id=1)
        out = correct(b, meas, method, dyn)
        assert np.isclose(out.Phat[0, 0], 0.5)
        assert np.isclose(out.xhat[0], 0.0 + 0.5 * (2.0 - 0.0))
        assert out.t == 1.0

    def test_huge_noise_is_pure_prediction(self, bench):
        model, methods, dyn = bench
        rng = np.random.default_rng(3)
        P = random_spd(rng, 4, 2.0)
        b = BeliefState(0.0, rng.standard_normal(4), P)
        meas = Measurement(k=0, z=[5.0, -3.0], produced_at=0.1, method_id=1)
        out = correct(b, meas, dataclasses.replace(methods[0], R=1e12 * np.eye(2)), dyn)
        Ad, Wd = dyn.step_pair(3)
        assert np.allclose(out.Phat, Ad @ b.Phat @ Ad.T + Wd, rtol=1e-6, atol=1e-9)
        assert np.allclose(out.xhat, Ad @ b.xhat, rtol=1e-6, atol=1e-9)

    def test_matches_longdouble_transcription(self, bench):
        model, methods, dyn = bench
        rng = np.random.default_rng(17)
        for _ in range(25):
            P = random_spd(rng, 4, rng.uniform(0.5, 4.0))
            x = rng.standard_normal(4)
            z = rng.standard_normal(2)
            method = methods[int(rng.integers(0, 2))]
            Ad, Wd = dyn.step_pair(method.steps)
            L_ref, P_ref = longdouble_update(P, Ad, Wd, model.C, method.R)
            x_ref = Ad @ x.astype(np.longdouble) + L_ref @ (
                z.astype(np.longdouble) - model.C.astype(np.longdouble) @ x)
            meas = Measurement(k=0, z=z, produced_at=0.1, method_id=method.id)
            out = correct(BeliefState(0.0, x, P), meas, method, dyn)
            assert np.allclose(out.Phat, P_ref.astype(float), rtol=1e-10, atol=1e-12)
            assert np.allclose(out.xhat, x_ref.astype(float), rtol=1e-10, atol=1e-12)

    def test_singular_innovation_raises(self):
        _, method, dyn = scalar_setup(ad=1.0, r=0.0, w=0.0)
        b = BeliefState(0.0, [0.0], [[0.0]])
        meas = Measurement(k=0, z=[1.0], produced_at=1.0, method_id=1)
        with pytest.raises(SingularUpdateError, match=r"least eigenvalue 0\.000e\+00"):
            correct(b, meas, method, dyn)

    def test_covariance_monotone_in_r(self, bench):
        model, methods, dyn = bench
        rng = np.random.default_rng(7)
        for _ in range(20):
            P = random_spd(rng, 4, 2.0)
            R1 = random_spd(rng, 2, 0.3)
            R2 = R1 + random_spd(rng, 2, 0.5)
            Ad, Wd = dyn.step_pair(methods[0].steps)
            _, P1 = _gain_and_next_cov(P, Ad, Wd, model.C, R1)
            _, P2 = _gain_and_next_cov(P, Ad, Wd, model.C, R2)
            assert np.linalg.eigvalsh(P2 - P1).min() >= -1e-10


class TestGainOptimality:
    def test_perturbed_gain_never_beats_kalman(self, bench):
        model, methods, dyn = bench
        rng = np.random.default_rng(29)
        P = random_spd(rng, 4, 2.0)
        method = methods[0]
        Ad, Wd = dyn.step_pair(method.steps)
        C, R = model.C, method.R
        S = C @ P @ C.T + R
        L = Ad @ P @ C.T @ np.linalg.inv(S)
        base = np.trace((Ad - L @ C) @ P @ (Ad - L @ C).T + L @ R @ L.T + Wd)
        for _ in range(100):
            D = rng.standard_normal(L.shape)
            Lp = L + 1e-4 * D / np.linalg.norm(D)
            trial = np.trace((Ad - Lp @ C) @ P @ (Ad - Lp @ C).T + Lp @ R @ Lp.T + Wd)
            assert trial >= base - 1e-12

    def test_optimal_filter_dominates_switched(self, bench):
        model, methods, dyn = bench
        rng = np.random.default_rng(31)
        gains = {m.id: steady_state(m, dyn)[1] for m in methods}
        for _ in range(1000):
            P = random_spd(rng, 4, rng.uniform(0.2, 5.0))
            method = methods[int(rng.integers(0, 2))]
            opt = riccati_step(P, method, dyn)
            fixed = switched_step(P, method, gains, dyn)
            assert np.trace(opt) <= np.trace(fixed) + 1e-10


class TestSwitchedStep:
    def test_zero_gain_is_open_loop(self, bench):
        model, methods, dyn = bench
        P = np.eye(4)
        out = switched_step(P, methods[0], {1: np.zeros((4, 2))}, dyn)
        Ad, Wd = dyn.step_pair(3)
        assert np.allclose(out, Ad @ P @ Ad.T + Wd)

    def test_scalar_deadbeat(self):
        _, method, dyn = scalar_setup(ad=0.5, r=1.0, w=0.0)
        out = switched_step(np.array([[1.0]]), method, {1: np.array([[0.5]])}, dyn)
        # Lam = 0.5 - 0.5 = 0, so only the gain-noise term survives.
        assert np.isclose(out[0, 0], 0.25)


class TestSteadyState:
    def test_fixed_point_property(self, bench):
        _, methods, dyn = bench
        for method in methods:
            P, L = steady_state(method, dyn)
            assert np.allclose(riccati_step(P, method, dyn), P, atol=1e-10)


def test_psd_preserved_over_random_steps(bench):
    model, methods, dyn = bench
    rng = np.random.default_rng(41)
    P = 4 * np.eye(4)
    for _ in range(2000):
        method = methods[int(rng.integers(0, 2))]
        P = riccati_step(P, method, dyn)
        assert np.allclose(P, P.T)
        norm = np.linalg.norm(P, "fro")
        assert np.linalg.eigvalsh(P).min() >= -1e-10 * norm


class TestStackedKernel:
    def test_stack_equals_per_matrix(self, bench):
        _, methods, dyn = bench
        rng = np.random.default_rng(12)
        stack = np.stack([random_spd(rng, 4, scale) for scale in np.linspace(0.1, 8.0, 25)])
        for method in methods:
            stepped = riccati_step(stack, method, dyn)
            assert stepped.shape == stack.shape
            for P, P_next in zip(stack, stepped):
                expected = riccati_step(P, method, dyn)
                assert np.allclose(P_next, expected, rtol=1e-14, atol=0.0)

    def test_gain_stack_equals_per_matrix(self, bench):
        _, methods, dyn = bench
        rng = np.random.default_rng(13)
        stack = np.stack([random_spd(rng, 4) for _ in range(10)])
        Ad, Wd = dyn.step_pair(methods[1].steps)
        C, R = dyn.model.C, methods[1].R
        gains, _ = _gain_and_next_cov(stack, Ad, Wd, C, R)
        for P, L in zip(stack, gains):
            assert np.allclose(L, _gain_and_next_cov(P, Ad, Wd, C, R)[0], rtol=1e-14, atol=0.0)

    def test_one_ill_conditioned_member_raises(self, bench):
        _, methods, dyn = bench
        rng = np.random.default_rng(14)
        stack = np.stack([random_spd(rng, 4) for _ in range(6)])
        stack[3] = np.diag([1.0, 0.0, 1e-13, 0.0])  # C P C' has condition 1e13
        Ad, Wd = dyn.step_pair(methods[0].steps)
        C, R = dyn.model.C, np.zeros((2, 2))
        _gain_and_next_cov(stack[[0, 1, 2, 4, 5]], Ad, Wd, C, R)
        with pytest.raises(SingularUpdateError, match="condition"):
            _gain_and_next_cov(stack, Ad, Wd, C, R)

    def test_not_positive_definite_names_least_eigenvalue(self, bench):
        # S = C P C' + R = -0.5 I for the member P = -I: no condition number to report.
        _, methods, dyn = bench
        stack = np.stack([np.eye(4), -np.eye(4)])
        with pytest.raises(SingularUpdateError) as info:
            riccati_step(stack, methods[0], dyn)
        assert str(info.value) == (
            "innovation covariance is not positive definite (least eigenvalue -5.000e-01)")


@settings(max_examples=60, deadline=None)
@given(
    members=st.integers(1, 6),
    rank=st.integers(0, 4),
    log_scale=st.floats(-3.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_riccati_stack_stays_psd_and_matches_members(bench, members, rank, log_scale, seed):
    # Random PSD stacks, singular members included: every stepped member is
    # PSD and equals the step of that member alone, bit for bit.
    _, methods, dyn = bench
    G = np.random.default_rng(seed).standard_normal((members, 4, rank))
    stack = (G @ G.mT) * 10.0 ** log_scale
    for method in methods:
        stepped = riccati_step(stack, method, dyn)
        assert np.array_equal(stepped, stepped.mT)
        assert np.all(np.linalg.eigvalsh(stepped)[:, 0] > 0.0)
        for P, P_next in zip(stack, stepped):
            assert np.array_equal(P_next, riccati_step(P, method, dyn))


def outcome(make):
    """`make()`'s bytes, or the type and message of what it raised."""
    try:
        return make().tobytes()
    except Exception as exc:  # noqa: BLE001 - a warning raised as an error included
        return type(exc), str(exc)


class TestCorrectedCovarianceSymmetrizedOnce:
    """`epoch_covariance` clamps a corrected covariance without symmetrizing it
    again: `_gain_and_next_cov` returns it symmetrized, and the old second
    pass is the reference here."""

    HALF = np.finfo(float).max / 2

    @pytest.fixture(scope="class")
    def unobserved(self):
        # Only the position is measured, so the velocity variance v of P =
        # diag(1, v) reaches the Joseph form unchanged: it doubles in the
        # symmetrizing pass, which overflows to inf from just above HALF on.
        model = ContinuousModel(A=[[0.0, 1.0], [0.0, 0.0]], B=np.eye(2), W=np.eye(2),
                                C=[[1.0, 0.0]], x0=np.zeros(2), P0=np.eye(2), dt_s=0.1)
        method = PerceptionMethod(id=1, steps=1, R=np.eye(1), cpu=0.5, penalty=0.0)
        return method, build_dynamics(model, [method])

    @staticmethod
    def twice(P, method, dyn):
        """The corrected covariance clamped as before: symmetrized a second time."""
        P_next = _gain_and_next_cov(P, *dyn.step_pair(method.steps), dyn.model.C, method.R)[1]
        return clamp_psd(P_next, "Phat", ValueError)

    @pytest.mark.parametrize("action", ["error", "ignore"])
    def test_overflow_edge(self, unobserved, action):
        # With warnings raised as errors, an overflow warning is raised; with
        # warnings ignored, the entry turns inf and eigh meets it. Either way,
        # for one member or a stack, the outcome is the old one.
        method, dyn = unobserved
        edge = [np.nextafter(self.HALF, 0.0), self.HALF, np.nextafter(self.HALF, np.inf),
                9e307, 1e308, np.finfo(float).max]
        stack = np.stack([np.diag([1.0, v]) for v in edge])
        got, want = [], []
        for P in list(stack) + [stack]:
            with warnings.catch_warnings(), np.errstate(all="warn"):
                warnings.simplefilter(action)
                got.append(outcome(lambda: epoch_covariance(P, method, dyn, method.R)[1]))
                want.append(outcome(lambda: self.twice(P, method, dyn)))
        assert got == want
        # These near-singular members take the clamp's clipped branch, which
        # rebuilds them from their eigenvectors and halves before adding, so
        # the members at or below the edge stay finite, and its Frobenius
        # scale squares the entries over their largest magnitude, which
        # cannot overflow. As errors, the members above the edge and the
        # stack that holds them raise in the first pass.
        assert [isinstance(g, tuple) for g in got] == [False] * 2 + [action == "error"] * 5
        assert [np.isfinite(np.frombuffer(g)).all() for g in got[:2]] == [True] * 2
        if action == "ignore":
            assert [np.isfinite(np.frombuffer(g)).all() for g in got[2:]] == [False] * 5
        # The members straddle the edge of the first pass.
        with np.errstate(all="ignore"):
            P_next = _gain_and_next_cov(stack, *dyn.step_pair(1), dyn.model.C, method.R)[1]
        assert np.isfinite(P_next[:2]).all()
        assert np.isinf(P_next[2:, 1, 1]).all()

    @settings(max_examples=100, deadline=None)
    @given(entries=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=9,
                            max_size=9))
    def test_a_second_pass_changes_no_bit(self, entries):
        # Subnormal, signed-zero and overflowing entries included.
        a = np.reshape(entries, (3, 3))
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            once = 0.5 * (a + a.mT)
            assert (outcome(lambda: clamp_psd(once, "P", ValueError, symmetrized=True))
                    == outcome(lambda: clamp_psd(once, "P", ValueError)))
