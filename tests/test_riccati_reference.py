"""The certified Riccati kernel against the eigenvalue-first kernel it replaced.

`reference_gain_and_next_cov` is the earlier `estimator._gain_and_next_cov`,
kept frozen: it tests every innovation covariance S with `eigvalsh` before
it factors S, and hands matmul transposed views. The current kernel factors
S first, skips the eigenvalue test when tr(S) |G|_F^2 (G the inverse of the
Cholesky factor) certifies cond S <= 1e12 / 2, and gives matmul contiguous
operands. Gains, next covariances, errors, messages and warnings must agree
bit for bit: on random single matrices and stacks here, on a member that is
not positive definite, on conditions on either side of the limit, on
non-finite, subnormal and huge S, and on exact queries and graphs from the
shipped configs.
"""

import warnings
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latsched import build_dynamics, dyn_prog_exact, expand_graph, sample_region
from latsched import estimator, exact
from latsched.config import load_scenario
from latsched.dynamics import _lapack
from latsched.errors import SingularUpdateError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
COND_LIMIT = 1e12


def reference_gain_and_next_cov(P, Ad, Wd, C, R):
    """Gain and Joseph-form successor, the eigenvalue test first."""
    PCt = P @ C.T
    S = C @ PCt + R
    S = 0.5 * (S + S.mT)
    eig = _lapack("eigvalsh", S)
    passed = False
    if eig.ndim == 1:
        low, high = float(eig[0]), float(eig[-1])
        passed = low > 0.0 and high <= COND_LIMIT * low
    if not passed:
        low, high = eig[..., 0], eig[..., -1]
        bad = (low <= 0.0) | (high > COND_LIMIT * low)
        if bad.any():
            if (low <= 0.0).any():
                raise SingularUpdateError(
                    f"innovation covariance is not positive definite "
                    f"(least eigenvalue {np.min(low):.3e})")
            cond = np.max(high[bad] / low[bad])
            raise SingularUpdateError(f"innovation covariance condition {cond:.3e} exceeds limit")
    G = _lapack("inv", _lapack("cholesky", S))
    L = Ad @ PCt @ G.mT @ G
    F = Ad - L @ C
    P_next = F @ P @ F.mT + L @ R @ L.mT + Wd
    return L, 0.5 * (P_next + P_next.mT)


def outcome(kernel, *args):
    """(("ok", bytes of L and P_next) or (error type, message), warning messages)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            L, P_next = kernel(*args)
            result = ("ok", L.shape, L.tobytes(), P_next.shape, P_next.tobytes())
        except (SingularUpdateError, np.linalg.LinAlgError) as exc:
            result = (type(exc).__name__, str(exc))
    return result, [str(w.message) for w in caught]


def assert_matches_reference(*args):
    got = outcome(estimator._gain_and_next_cov, *args)
    assert got == outcome(reference_gain_and_next_cov, *args)
    return got


def spd(rng, shape, n, scale=1.0):
    X = rng.standard_normal(shape + (n, n))
    return scale * (X @ X.mT) + 1e-3 * scale * np.eye(n)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 5),
    data=st.data(),
    stack=st.sampled_from([None, 1, 2, 5, 13]),
    per_row=st.booleans(),
    log_p=st.floats(-6.0, 6.0),
    log_r=st.floats(-14.0, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernel_matches_reference(n, data, stack, per_row, log_p, log_r, seed):
    n_z = data.draw(st.integers(1, n))
    rng = np.random.default_rng(seed)
    shape = () if stack is None else (stack,)
    P = spd(rng, shape, n, 10.0 ** log_p)
    C = rng.standard_normal((n_z, n))
    if stack is not None and per_row:
        # As `dyn_prog_exact` passes them: each method's matrices repeated per row.
        methods = rng.integers(1, 4)
        pick = rng.integers(0, methods, stack)
        Ad = (np.eye(n) + 0.3 * rng.standard_normal((methods, n, n)))[pick]
        Wd = spd(rng, (methods,), n, 0.01)[pick]
        R = spd(rng, (methods,), n_z, 10.0 ** log_r)[pick]
    else:
        Ad = np.eye(n) + 0.3 * rng.standard_normal((n, n))
        Wd = spd(rng, (), n, 0.01)
        R = spd(rng, (), n_z, 10.0 ** log_r)
    result, caught = assert_matches_reference(P, Ad, Wd, C, R)
    assert not caught


def scalar_case(s_diag, stack=None):
    """Arguments whose innovation covariance is diag(s_diag): P = 0, C = I."""
    n = len(s_diag)
    P = np.zeros((n, n)) if stack is None else np.zeros((stack, n, n))
    return P, np.eye(n) + 0.1 * np.eye(n, k=1), 0.01 * np.eye(n), np.eye(n), np.diag(s_diag)


def certified(S):
    """The kernel's certificate for S, one matrix or a stack."""
    G = _lapack("inv", _lapack("cholesky", S))
    return bool(estimator._certified(S, G))


@pytest.mark.parametrize("stack", [None, 3])
def test_not_positive_definite(stack):
    result, _ = assert_matches_reference(*scalar_case([1.0, -0.25], stack))
    assert result == ("SingularUpdateError",
                      "innovation covariance is not positive definite "
                      "(least eigenvalue -2.500e-01)")


def test_one_member_not_positive_definite():
    rng = np.random.default_rng(3)
    P = spd(rng, (4,), 3, 1.0)
    P[2] = -np.eye(3)
    result, _ = assert_matches_reference(P, np.eye(3), np.eye(3), np.eye(2, 3), 0.5 * np.eye(2))
    assert result == ("SingularUpdateError",
                      "innovation covariance is not positive definite "
                      "(least eigenvalue -5.000e-01)")


@pytest.mark.parametrize("stack", [None, 4])
@pytest.mark.parametrize("cond,passes_test,certified_", [
    (1e3, True, True),
    (0.4e12, True, True),
    (0.6e12, True, False),
    (0.999e12, True, False),
    (1.001e12, False, False),
    (1e14, False, False),
])
def test_conditions_around_the_limit(stack, cond, passes_test, certified_):
    args = scalar_case([1.0, 1.0 / cond], stack)
    S = np.diag([1.0, 1.0 / cond])
    assert certified(S) is certified_
    # A stack is certified only if every member is.
    assert certified(np.stack([np.eye(2), S, np.eye(2)])) is certified_
    result, caught = assert_matches_reference(*args)
    assert not caught
    if passes_test:
        assert result[0] == "ok"
    else:
        assert result[0] == "SingularUpdateError" and "exceeds limit" in result[1]


def test_certificate_failing_where_the_test_passes_uses_the_same_factor():
    # bound = tr(S) |G|_F^2 = 2 + cond: over half the limit, under the limit.
    S = np.diag([1.0, 1.0 / 0.7e12])
    assert not certified(S)
    with patch.object(estimator, "_check_innovation",
                      wraps=estimator._check_innovation) as check:
        result, _ = assert_matches_reference(*scalar_case([1.0, 1.0 / 0.7e12]))
    assert result[0] == "ok"
    assert check.call_count == 1


@pytest.mark.parametrize("stack", [None, 2])
def test_condition_past_the_float_range(stack):
    # tr(S) |G|_F^2 is about 1e350: the bound overflows without a warning,
    # and the test raises with the warning of its own division.
    result, caught = assert_matches_reference(*scalar_case([1e200, 1e-150], stack))
    assert result == ("SingularUpdateError", "innovation covariance condition inf exceeds limit")
    assert caught == ["overflow encountered in divide"]


@pytest.mark.parametrize("stack", [None, 2])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_innovation_passes_through(stack, bad):
    assert_matches_reference(*scalar_case([bad, 1.0], stack))
    P, Ad, Wd, C, R = scalar_case([1.0, 2.0], stack)
    R[0, 1] = R[1, 0] = bad
    assert_matches_reference(P, Ad, Wd, C, R)


@pytest.mark.parametrize("stack", [None, 3])
@pytest.mark.parametrize("scale", [1e-310, 1e-300, 1e-200, 1e200, 1e290])
def test_subnormal_and_huge_innovation(stack, scale):
    # G = S^(-1/2) squares past the float range for subnormal S: no warning.
    result, caught = assert_matches_reference(*scalar_case([scale, 2.0 * scale], stack))
    assert result[0] == "ok" and not caught


def test_huge_stack_no_longer_warns():
    # At 1e300 the earlier array test's COND_LIMIT * lambda_min overflows and
    # warns for a stack; the certificate decides without it, and each member
    # equals the single-matrix step, which never took the array test.
    args = scalar_case([1e300, 2e300], 3)
    with pytest.warns(RuntimeWarning, match="overflow"):
        reference_gain_and_next_cov(*args)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        L, P_next = estimator._gain_and_next_cov(*args)
    L1, P1 = reference_gain_and_next_cov(*scalar_case([1e300, 2e300]))
    for member in range(3):
        assert np.array_equal(L[member], L1) and np.array_equal(P_next[member], P1)


def test_huge_stack_the_certificate_rejects_does_not_warn():
    # cond S = 3e11 passes the test, but tr(S) |G|_F^2 = 6e11 is over half the
    # limit, so the stack takes the array test. There COND_LIMIT * lambda_min
    # overflows to inf, which compares as intended and must not warn; each
    # member equals the single-matrix step.
    s_diag = [2e296, 2e296, 6e307]
    assert not certified(np.diag(s_diag))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        L, P_next = estimator._gain_and_next_cov(*scalar_case(s_diag, 2))
    L1, P1 = reference_gain_and_next_cov(*scalar_case(s_diag))
    for member in range(2):
        assert np.array_equal(L[member], L1) and np.array_equal(P_next[member], P1)


def test_certificate_bound_is_within_n_z_squared_of_the_condition():
    rng = np.random.default_rng(11)
    for n_z in range(1, 6):
        for _ in range(40):
            Q, _ = np.linalg.qr(rng.standard_normal((n_z, n_z)))
            eig = 10.0 ** rng.uniform(-6, 6, n_z)
            S = (Q * eig) @ Q.T
            S = 0.5 * (S + S.T)
            G = _lapack("inv", _lapack("cholesky", S))
            bound = float(np.vdot(G, G)) * float(np.trace(S))
            cond = eig.max() / eig.min()
            assert cond * (1 - 1e-6) <= bound <= n_z ** 2 * cond * (1 + 1e-6)


def shipped(name):
    cfg = load_scenario(CONFIGS / f"{name}.json")
    return cfg, build_dynamics(cfg.model, cfg.methods)


@pytest.mark.parametrize("name", ["double_integrator", "occlusion_run"])
def test_exact_queries_match_reference(name):
    cfg, dyn = shipped(name)
    starts = sample_region(cfg.model.n_x, cfg.graph.b0, 6, 23)
    with patch.object(estimator, "_check_innovation",
                      wraps=estimator._check_innovation) as check:
        got = [dyn_prog_exact(P0, 2.0, cfg.lam_alpha, cfg.methods, dyn) for P0 in starts]
    # Every stacked step of every query was certified.
    assert check.call_count == 0
    with patch.object(exact, "_gain_and_next_cov", reference_gain_and_next_cov):
        want = [dyn_prog_exact(P0, 2.0, cfg.lam_alpha, cfg.methods, dyn) for P0 in starts]
    assert [(s.methods, c.hex()) for s, c in got] == [(s.methods, c.hex()) for s, c in want]


@pytest.mark.parametrize("name", ["double_integrator", "noise_mismatch"])
def test_shipped_graphs_match_reference(name):
    cfg, dyn = shipped(name)
    reps = sample_region(cfg.model.n_x, cfg.graph.b0, cfg.graph.count, cfg.graph.seed)

    def build():
        return expand_graph(reps, cfg.methods, dyn, admit_tol=cfg.graph.admit_tol,
                            b0=cfg.graph.b0)

    graph = build()
    with patch.object(estimator, "_gain_and_next_cov", reference_gain_and_next_cov):
        ref = build()
    assert np.array_equal(graph.reps, ref.reps)
    assert np.array_equal(graph.succ, ref.succ)
    assert (graph.delta, graph.bound) == (ref.delta, ref.bound)
