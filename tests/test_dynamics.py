from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad_vec
from scipy.linalg import expm

from latsched import (
    ContinuousModel,
    InvalidModelError,
    PerceptionMethod,
    build_dynamics,
    cost_gram,
    discretize,
)
from latsched import dynamics
from latsched.config import load_scenario
from latsched.dynamics import _expm, clamp_psd, validate_methods

from conftest import benchmark_model

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def random_model(rng, n: int) -> ContinuousModel:
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, max(1, n // 2)))
    W = np.eye(B.shape[1]) * rng.uniform(0.1, 2.0)
    C = np.eye(n)[: max(1, n // 2)]
    return ContinuousModel(A=A, B=B, W=W, C=C, x0=np.zeros(n),
                           P0=np.eye(n), dt_s=0.1)


class TestModelValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(InvalidModelError):
            ContinuousModel(A=np.zeros((2, 2)), B=np.zeros((3, 1)), W=[[1.0]],
                            C=np.eye(2), x0=np.zeros(2), P0=np.eye(2), dt_s=0.1)

    def test_nonfinite_rejected(self):
        A = np.zeros((2, 2))
        A[0, 0] = np.nan
        with pytest.raises(InvalidModelError):
            ContinuousModel(A=A, B=np.eye(2), W=np.eye(2), C=np.eye(2),
                            x0=np.zeros(2), P0=np.eye(2), dt_s=0.1)

    def test_asymmetric_w_rejected(self):
        with pytest.raises(InvalidModelError):
            ContinuousModel(A=np.zeros((2, 2)), B=np.eye(2), W=[[1, 0.5], [0, 1]],
                            C=np.eye(2), x0=np.zeros(2), P0=np.eye(2), dt_s=0.1)

    def test_unobservable_rejected(self):
        # Velocity is invisible when only position row of a decoupled state is read.
        with pytest.raises(InvalidModelError):
            ContinuousModel(A=np.zeros((2, 2)), B=np.eye(2), W=np.eye(2),
                            C=[[1.0, 0.0]], x0=np.zeros(2), P0=np.eye(2), dt_s=0.1)

    def test_method_validation(self):
        with pytest.raises(InvalidModelError):
            PerceptionMethod(id=1, steps=0, R=[[1.0]], cpu=0.5, penalty=0.0)
        with pytest.raises(InvalidModelError):
            PerceptionMethod(id=1, steps=1, R=[[1.0]], cpu=1.5, penalty=0.0)
        with pytest.raises(InvalidModelError):
            PerceptionMethod(id=1, steps=1, R=[[1.0]], cpu=0.5, penalty=-1.0)
        good = PerceptionMethod(id=1, steps=3, R=[[1.0]], cpu=0.5, penalty=0.0)
        with pytest.raises(InvalidModelError):
            validate_methods([good, good])  # ids must be 1, 2

    def test_build_dynamics_checks_id_rule(self):
        model = ContinuousModel(A=[[0.0]], B=[[1.0]], W=[[1.0]], C=[[1.0]],
                                x0=[0.0], P0=[[1.0]], dt_s=0.1)
        first = PerceptionMethod(id=1, steps=1, R=[[1.0]], cpu=0.5, penalty=0.0)
        second = PerceptionMethod(id=2, steps=3, R=[[1.0]], cpu=0.5, penalty=0.0)
        for bank in ([second, first], [second], [first, first], []):
            with pytest.raises(InvalidModelError):
                build_dynamics(model, bank)
        assert build_dynamics(model, [first, second]).max_steps == 3


class TestDiscretize:
    def test_zero_drift_is_identity_linear(self):
        model = ContinuousModel(A=np.zeros((2, 2)), B=np.eye(2),
                                W=np.diag([0.3, 0.7]), C=np.eye(2),
                                x0=np.zeros(2), P0=np.eye(2), dt_s=0.1)
        Ad, Wd = discretize(model, 0.25)
        assert np.allclose(Ad, np.eye(2))
        assert np.allclose(Wd, np.diag([0.3, 0.7]) * 0.25)

    def test_double_integrator_closed_form(self):
        model = benchmark_model()
        delta = 0.1
        Ad, Wd = discretize(model, delta)
        blk_a = np.array([[1, delta], [0, 1]])
        blk_w = 0.5 * np.array([[delta ** 3 / 3, delta ** 2 / 2],
                                [delta ** 2 / 2, delta]])
        for sl in (slice(0, 2), slice(2, 4)):
            assert np.allclose(Ad[sl, sl], blk_a, atol=1e-14)
            assert np.allclose(Wd[sl, sl], blk_w, atol=1e-14)

    def test_zero_duration(self):
        model = benchmark_model()
        Ad, Wd = discretize(model, 0.0)
        assert np.array_equal(Ad, np.eye(4))
        assert np.array_equal(Wd, np.zeros((4, 4)))

    def test_semigroup_and_propagation(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            model = random_model(rng, n)
            d1, d2 = rng.uniform(0.05, 0.4, size=2)
            A1, W1 = discretize(model, d1)
            A2, W2 = discretize(model, d2)
            A12, W12 = discretize(model, d1 + d2)
            scale = np.linalg.norm(A12, "fro")
            assert np.linalg.norm(A12 - A2 @ A1, "fro") <= 1e-9 * scale
            comp = A2 @ W1 @ A2.T + W2
            assert np.linalg.norm(W12 - comp, "fro") <= 1e-9 * max(
                np.linalg.norm(W12, "fro"), 1e-12)

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            model = random_model(rng, n)
            d = rng.uniform(0.1, 0.5)
            _, Wd = discretize(model, d)
            noise = model.B @ model.W @ model.B.T

            def integrand(s):
                E = expm(model.A * s)
                return E @ noise @ E.T

            ref, _ = quad_vec(integrand, 0.0, d, epsabs=1e-12, epsrel=1e-12)
            assert np.linalg.norm(Wd - ref, "fro") <= 1e-10 * max(
                1.0, np.linalg.norm(ref, "fro"))


class TestCostGram:
    def test_zero_drift(self):
        model = ContinuousModel(A=np.zeros((2, 2)), B=np.eye(2),
                                W=np.diag([0.5, 1.5]), C=np.eye(2),
                                x0=np.zeros(2), P0=np.eye(2), dt_s=0.1)
        t = 0.3
        M, c = cost_gram(model, t)
        assert np.allclose(M, t * np.eye(2), atol=1e-12)
        assert np.isclose(c, np.trace(np.diag([0.5, 1.5])) * t ** 2 / 2, atol=1e-12)

    def test_double_integrator_closed_form(self):
        model = benchmark_model()
        d = 0.1
        M, c = cost_gram(model, d)
        blk = np.array([[d, d ** 2 / 2], [d ** 2 / 2, d + d ** 3 / 3]])
        for sl in (slice(0, 2), slice(2, 4)):
            assert np.allclose(M[sl, sl], blk, atol=1e-12)
        # c integrates tr(Wd(s)) = 2 * 0.5 * (s^3/3 + s)
        assert np.isclose(c, 2 * 0.5 * (d ** 4 / 12 + d ** 2 / 2), atol=1e-12)

    def test_zero_duration(self):
        model = benchmark_model()
        M, c = cost_gram(model, 0.0)
        assert np.array_equal(M, np.zeros((4, 4)))
        assert c == 0.0

    def test_monotone_in_duration(self):
        model = benchmark_model()
        M1, c1 = cost_gram(model, 0.2)
        M2, c2 = cost_gram(model, 0.5)
        assert c1 <= c2
        assert np.linalg.eigvalsh(M2 - M1).min() >= -1e-12

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            model = random_model(rng, n)
            d = rng.uniform(0.05, 0.45)
            M, c = cost_gram(model, d)

            def gram_integrand(s):
                E = expm(model.A * s)
                return E.T @ E

            ref, _ = quad_vec(gram_integrand, 0.0, d, epsabs=1e-12, epsrel=1e-12)
            assert np.linalg.norm(M - ref, "fro") <= 1e-8 * max(
                1.0, np.linalg.norm(ref, "fro"))

            noise = model.B @ model.W @ model.B.T

            # c is the double integral of the accumulated covariance trace;
            # swapping the integration order gives a single weighted integral.
            def trace_integrand(s):
                E = expm(model.A * s)
                return (d - s) * np.trace(E @ noise @ E.T)

            from scipy.integrate import quad
            ref_c, _ = quad(trace_integrand, 0.0, d, epsabs=1e-12, epsrel=1e-12)
            assert abs(c - ref_c) <= 1e-8 * max(1.0, abs(ref_c))


def expm_reference(a: np.ndarray) -> np.ndarray:
    """exp(a) by a Taylor series in extended precision, scaled to 1-norm <= 1/4 and squared back."""
    s = max(0, int(np.ceil(np.log2(np.abs(a).sum(axis=0).max() / 0.25))))
    x = np.asarray(a, dtype=np.longdouble) / np.longdouble(2) ** s
    term = total = np.eye(len(a), dtype=np.longdouble)
    for k in range(1, 20):
        term = term @ x / k
        total = total + term
    for _ in range(s):
        total = total @ total
    return total.astype(float)


class TestExpm:
    @pytest.mark.parametrize("name", ["double_integrator", "occlusion_run", "noise_mismatch"])
    def test_matches_scipy_on_shipped_blocks(self, name, monkeypatch):
        cfg = load_scenario(CONFIGS / f"{name}.json")
        blocks = []
        monkeypatch.setattr(dynamics, "_expm", lambda a: blocks.append(a) or _expm(a))
        dyn = build_dynamics(cfg.model, cfg.methods)
        n = cfg.model.n_x
        assert sorted({len(b) for b in blocks}) == [2 * n, 3 * n]
        assert len(blocks) == 2 * dyn.max_steps
        for block in blocks:
            want = expm(block)
            assert np.abs(_expm(block) - want).max() <= 2.2e-16 * np.abs(want).max()

    def test_random_blocks_match_extended_precision(self):
        # 1-norms up to 50 make the approximant scale by up to 2**4 and square back.
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(1, 13))
            a = rng.standard_normal((n, n))
            a *= 10 ** rng.uniform(-3, np.log10(50)) / np.abs(a).sum(axis=0).max()
            want = expm_reference(a)
            assert np.abs(_expm(a) - want).max() <= 1e-13 * np.abs(want).max()

    def test_zero_gives_identity(self):
        for n in (1, 4, 12):
            assert np.array_equal(_expm(np.zeros((n, n))), np.eye(n))

    def test_non_finite_gives_non_finite_without_error(self):
        for value in (np.inf, -np.inf, np.nan):
            a = np.eye(3)
            a[0, 1] = value
            assert not np.isfinite(_expm(a)).all()
        # At 1e308 s the Gram block's 1-norm overflows; at 1e150 s only the squarings do.
        model = benchmark_model()
        for duration in (1e150, 1e308):
            Ad, Wd = discretize(model, duration)
            M, c = cost_gram(model, duration)
            assert not np.isfinite(Wd).all() and not np.isfinite(M).all()
            assert not np.isfinite(c)


class TestDiscretizedDynamics:
    def test_tables_match_direct(self, bench):
        model, methods, dyn = bench
        for j in (1, 3, 9):
            Ad, Wd = dyn.step_pair(j)
            Ad_ref, Wd_ref = discretize(model, j * model.dt_s)
            assert np.allclose(Ad, Ad_ref)
            assert np.allclose(Wd, Wd_ref)
            M, c = dyn.step_gram(j)
            M_ref, c_ref = cost_gram(model, j * model.dt_s)
            assert np.allclose(M, M_ref)
            assert np.isclose(c, c_ref)

    def test_off_grid_pair_is_discretize(self, bench):
        model, methods, dyn = bench
        for duration in (0.05, 0.05, 0.5 * model.dt_s, (dyn.max_steps + 1) * model.dt_s):
            for got, want in zip(dyn.pair(duration), discretize(model, duration)):
                assert got.tobytes() == want.tobytes()

    def test_grid_pairs_share_the_tables(self, bench):
        model, methods, dyn = bench
        for j in (0, 1, 3, dyn.max_steps):
            for got, table in zip(dyn.pair(j * model.dt_s), dyn.step_pair(j)):
                assert np.shares_memory(got, table)

    def test_tables_read_only(self, bench):
        _, _, dyn = bench
        Ad, _ = dyn.step_pair(1)
        with pytest.raises(ValueError):
            Ad[0, 0] = 5.0


class TestClampPsd:
    """`clamp_psd` on a stack is `clamp_psd` on each member, bit for bit."""

    @staticmethod
    def stack(rng, count=40, n=3):
        G = rng.standard_normal((count, n, n))
        P = G @ G.mT
        # Members with round-off negative eigenvalues, so some members clamp.
        V = np.linalg.qr(rng.standard_normal((count, n, n)))[0]
        low = -1e-14 * rng.random(count) * (rng.random(count) < 0.5)
        w = np.concatenate([low[:, None], rng.random((count, n - 1))], axis=1)
        P[::2] = ((V * w[:, None, :]) @ V.mT)[::2]
        return P + 1e-17 * rng.standard_normal(P.shape)

    def test_stack_equals_members(self):
        P = self.stack(np.random.default_rng(2))
        got = clamp_psd(P, "P", ValueError)
        for member, want in zip(got, (clamp_psd(p, "P", ValueError) for p in P)):
            assert member.tobytes() == want.tobytes()
        assert any(not np.array_equal(g, 0.5 * (p + p.T)) for g, p in zip(got, P))

    def test_error_quotes_the_first_offending_member(self):
        P = self.stack(np.random.default_rng(3))
        P[7] -= 0.5 * np.eye(3)
        P[21] -= 2.0 * np.eye(3)
        with pytest.raises(ValueError) as single:
            clamp_psd(P[7], "P", ValueError)
        with pytest.raises(ValueError) as stacked:
            clamp_psd(P, "P", ValueError)
        assert str(stacked.value) == str(single.value)

    def test_indefinite_past_the_square_root_of_the_largest_float(self):
        # Squaring 1e200 overflows, so a scale summed from squared entries
        # reads inf and the clamp lets the -1e195 eigenvalue through. A zero
        # member beside it has no largest entry to scale by.
        P = np.diag([1e200, -1e195])
        for mat in (P, np.stack([np.zeros((2, 2)), P])):
            with np.errstate(over="raise", invalid="raise", divide="raise"), \
                    pytest.raises(ValueError, match="below the PSD tolerance"):
                clamp_psd(mat, "P", ValueError)
        # The scale is the Frobenius norm, which round-off negativity sits under.
        assert clamp_psd(np.diag([1e200, -1e185]), "P", ValueError).tolist() == [
            [1e200, 0.0], [0.0, 0.0]]
