import numpy as np
import pytest

from latsched import (
    ContinuousModel,
    InfeasibleCertificateError,
    LyapunovCertificate,
    PerceptionMethod,
    bound_bs,
    build_dynamics,
    lmi_feasible,
    riccati_step,
    sample_region,
    synthesize_certificate,
)
from latsched.bounds import gbar, lmi_margin

from conftest import scalar_setup, switched_step


class TestFeasibility:
    def test_scalar_threshold(self):
        # One-step transition 0.5, zero gain: need gamma >= 0.25.
        _, method, dyn = scalar_setup(ad=0.5, r=1.0, w=0.0)
        cert = LyapunovCertificate(omega=[[1.0]], ys=([[0.0]],), gamma=0.3)
        feasible, margin = lmi_feasible(cert, [method], dyn)
        assert feasible
        assert np.isclose(margin, 0.05)
        cert_low = LyapunovCertificate(omega=[[1.0]], ys=([[0.0]],), gamma=0.2)
        feasible, margin = lmi_feasible(cert_low, [method], dyn)
        assert not feasible
        assert np.isclose(margin, -0.05)

    def test_deadbeat_feasible_everywhere(self):
        # Gain chosen so the closed-loop map vanishes.
        _, method, dyn = scalar_setup(ad=0.5, r=1.0, w=0.0)
        for gamma in (0.01, 0.5, 0.99):
            cert = LyapunovCertificate(omega=[[1.0]], ys=([[0.5]],), gamma=gamma)
            feasible, margin = lmi_feasible(cert, [method], dyn)
            assert feasible
            assert np.isclose(margin, gamma)

    def test_orthogonal_map_infeasible(self):
        theta = 0.7
        lam = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
        for gamma in (0.3, 0.9, 0.999):
            assert lmi_margin(np.eye(2), [lam], gamma) < 0

    def test_margin_continuous_in_gamma(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = 3
            lam = rng.standard_normal((n, n)) * 0.4
            omega = np.eye(n) + 0.1 * rng.standard_normal((n, n))
            omega = 0.5 * (omega + omega.T) + n * np.eye(n)
            gamma = rng.uniform(0.1, 0.9)
            m1 = lmi_margin(omega, [lam], gamma)
            m2 = lmi_margin(omega, [lam], gamma + 1e-6)
            assert abs(m1 - m2) <= 1e-4


class TestBound:
    def test_scalar_bound_formula(self):
        _, method, dyn = scalar_setup(ad=0.5, r=1.0, w=0.0)
        cert = LyapunovCertificate(omega=[[1.0]], ys=([[0.0]],), gamma=0.5)
        # Gbar = ||L R L' + Wd|| = 0 here, so Bs = B0.
        assert np.isclose(bound_bs(cert, 2.0, [method], dyn), 2.0)

    def test_zero_gain_zero_noise(self):
        model = ContinuousModel(A=[[np.log(0.5), 0], [0, np.log(0.5)]],
                                B=np.eye(2), W=np.zeros((2, 2)), C=np.eye(2),
                                x0=np.zeros(2), P0=np.eye(2), dt_s=1.0)
        method = PerceptionMethod(id=1, steps=1, R=np.eye(2), cpu=0.5, penalty=0.0)
        dyn = build_dynamics(model, [method])
        omega = np.diag([1.0, 4.0])
        cert = LyapunovCertificate(omega=omega, ys=(np.zeros((2, 2)),), gamma=0.5)
        assert gbar(cert, [method], dyn) == 0.0
        expected = np.sqrt(2) * 4.0 * 3.0  # sqrt(n) * cond * B0
        assert np.isclose(bound_bs(cert, 3.0, [method], dyn), expected)

    def test_infeasible_certificate_rejected(self):
        _, method, dyn = scalar_setup(ad=0.5, r=1.0, w=0.0)
        cert = LyapunovCertificate(omega=[[1.0]], ys=([[0.0]],), gamma=0.1)
        with pytest.raises(InfeasibleCertificateError):
            bound_bs(cert, 1.0, [method], dyn)


class TestSynthesis:
    def test_scalar_stable_succeeds(self):
        model, method, dyn = scalar_setup(ad=0.5, r=1.0, w=0.1)
        cert = synthesize_certificate(model, [method], dyn, gamma=0.9)
        assert cert is not None
        feasible, margin = lmi_feasible(cert, [method], dyn)
        assert feasible and margin >= 0

    def test_benchmark_model_succeeds(self, bench):
        model, methods, dyn = bench
        cert = synthesize_certificate(model, methods, dyn, gamma=0.98)
        assert cert is not None
        feasible, _ = lmi_feasible(cert, methods, dyn)
        assert feasible

    def test_bound_holds_on_random_trajectories(self, bench):
        model, methods, dyn = bench
        cert = synthesize_certificate(model, methods, dyn, gamma=0.98)
        bs = bound_bs(cert, 1.0, methods, dyn)
        rng = np.random.default_rng(4)
        for _ in range(100):
            P = sample_region(4, 1.0, 1, rng)[0]
            for _ in range(100):
                method = methods[int(rng.integers(0, 2))]
                P = riccati_step(P, method, dyn)
                assert np.linalg.norm(P, "fro") <= bs

    def test_switched_filter_bounded_and_dominated(self, bench):
        model, methods, dyn = bench
        cert = synthesize_certificate(model, methods, dyn, gamma=0.98)
        bs = bound_bs(cert, 1.0, methods, dyn)
        gains = {m.id: g for m, g in zip(methods, cert.gains())}
        rng = np.random.default_rng(5)
        for _ in range(50):
            P_opt = sample_region(4, 1.0, 1, rng)[0]
            P_sw = P_opt.copy()
            for _ in range(60):
                method = methods[int(rng.integers(0, 2))]
                P_opt = riccati_step(P_opt, method, dyn)
                P_sw = switched_step(P_sw, method, gains, dyn)
                assert np.linalg.norm(P_sw, "fro") <= bs
                assert np.trace(P_opt) <= np.trace(P_sw) + 1e-9


class TestSerialization:
    def test_rejects_bad_gamma_and_omega(self):
        with pytest.raises(ValueError):
            LyapunovCertificate(omega=[[1.0]], ys=([[0.0]],), gamma=1.0)
        with pytest.raises(ValueError):
            LyapunovCertificate(omega=[[-1.0]], ys=([[0.0]],), gamma=0.5)
