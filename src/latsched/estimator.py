"""Latency-aware Kalman prediction and correction.

The filter runs on epoch times tau_k. A measurement captured at tau_k with
method rho becomes available at tau_k + latency(rho), so one `correct` call
performs the combined predict-and-update that advances the belief from tau_k
to tau_{k+1} in a single step:

    L     = Ad P C' (C P C' + R)^-1
    x[k+1] = Ad x[k] + L (z[k] - C x[k])
    P[k+1] = (Ad - L C) P (Ad - L C)' + L R L' + Wd          (Joseph form)

`riccati_step` is the covariance part of that step alone (nominal R), and
`steady_state` iterates that recursion to the fixed point of one method.
`correct` is `epoch_covariance` (L and the clamped P[k+1], or P[k+1] alone
for a dropped measurement) then `epoch_mean` (x[k+1]) under the method's R;
the moving-horizon loop calls the two halves itself so that it can reuse a
covariance half or correct under an adaptive-R estimate.

Every covariance step runs `_gain_and_next_cov`, which inverts the
innovation covariance S = C P C' + R through G = inv(cholesky(S)), S^-1 =
G' G. An S that is not positive definite, or whose condition exceeds 1e12,
raises SingularUpdateError from an `eigvalsh` test. The same G certifies
that test's outcome more cheaply: lambda_max <= tr S and 1 / lambda_min =
|G|_2^2 <= |G|_F^2, so cond S <= tr(S) |G|_F^2. A bound at most half the
limit means the test passes, whatever the round-off. So the test runs only
where some member's bound is over that (or is not finite, or the
factorization failed), and there it decides as it always has.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import DiscretizedDynamics, PerceptionMethod, _lapack, clamp_psd
from .errors import SingularUpdateError

_COND_LIMIT = 1e12


@dataclass(frozen=True)
class BeliefState:
    """Time-stamped estimate pair (t, xhat, Phat)."""

    t: float
    xhat: np.ndarray
    Phat: np.ndarray

    def __post_init__(self):
        xhat = np.asarray(self.xhat, dtype=float).reshape(-1)
        # No input checks here: beliefs are built several times per epoch.
        Phat = clamp_psd(np.asarray(self.Phat, dtype=float), "Phat", ValueError)
        xhat.setflags(write=False)
        Phat.setflags(write=False)
        object.__setattr__(self, "xhat", xhat)
        object.__setattr__(self, "Phat", Phat)


def _trusted_belief(t: float, xhat: np.ndarray, Phat: np.ndarray) -> BeliefState:
    """A BeliefState of arrays taken as they are: no copy, clamp or check."""
    out = object.__new__(BeliefState)
    # The frozen dataclass guards setattr, not its __dict__; three item
    # writes cost half of three object.__setattr__ calls.
    fields = out.__dict__
    fields["t"], fields["xhat"], fields["Phat"] = t, xhat, Phat
    return out


@dataclass(frozen=True)
class Measurement:
    """One processed measurement.

    `produced_at` is when the detection became available (capture time plus
    the method latency). A correction weighs it with its method's R.
    """

    k: int
    z: np.ndarray
    produced_at: float
    method_id: int

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float).reshape(-1)
        z.setflags(write=False)
        object.__setattr__(self, "z", z)


def predict(belief: BeliefState, elapsed: float, dyn: DiscretizedDynamics) -> BeliefState:
    """Propagate the belief forward by `elapsed` seconds with no measurement."""
    if elapsed < 0:
        raise ValueError("elapsed must be >= 0")
    if elapsed == 0.0:
        return belief
    Ad, Wd = dyn.pair(elapsed)
    xhat = Ad @ belief.xhat
    Phat = Ad @ belief.Phat @ Ad.T + Wd
    return BeliefState(belief.t + elapsed, xhat, Phat)


def _transposed(a: np.ndarray) -> np.ndarray:
    """`a.mT` for matmul: a contiguous copy of a stack, which matmul would copy
    member by member; a view of one matrix, which BLAS reads transposed."""
    return a.mT.copy() if a.ndim > 2 else a.mT


def _certified(S: np.ndarray, G: np.ndarray) -> bool:
    """Whether tr(S) |G|_F^2 <= _COND_LIMIT / 2 for every member; never warns.

    Python floats and einsum overflow to inf, and meet NaN, with no warning,
    and a NaN bound is not certified.
    """
    if S.ndim == 2:
        return float(np.vdot(G, G)) * sum(S.diagonal().tolist()) <= 0.5 * _COND_LIMIT
    bound = np.einsum("...ii,...->...", S, np.einsum("...ij,...ij->...", G, G))
    return (bound <= 0.5 * _COND_LIMIT).all()


def _check_innovation(S: np.ndarray) -> None:
    """Raise SingularUpdateError unless every member's eigenvalues of S are
    positive, with condition lambda_max / lambda_min at most _COND_LIMIT."""
    eig = _lapack("eigvalsh", S)
    if eig.ndim == 1:
        # A single matrix is read from Python floats. A stack, or a matrix
        # that does not pass, takes the array test, which words the error.
        low, high = float(eig[0]), float(eig[-1])
        if low > 0.0 and high <= _COND_LIMIT * low:
            return
    low, high = eig[..., 0], eig[..., -1]
    with np.errstate(over="ignore"):  # an inf limit compares as intended
        bad = (low <= 0.0) | (high > _COND_LIMIT * low)
    if bad.any():
        if (low <= 0.0).any():
            raise SingularUpdateError(
                f"innovation covariance is not positive definite "
                f"(least eigenvalue {np.min(low):.3e})")
        cond = np.max(high[bad] / low[bad])
        raise SingularUpdateError(f"innovation covariance condition {cond:.3e} exceeds limit")


def _gain_and_next_cov(
    P: np.ndarray, Ad: np.ndarray, Wd: np.ndarray, C: np.ndarray, R: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gain and Joseph-form successor for one covariance `(n, n)` or a stack `(N, n, n)`.

    Raises SingularUpdateError if any member's innovation covariance S is
    singular or too ill-conditioned to invert, by `_check_innovation`'s
    eigenvalue test. That test runs only where `_certified` fails. Its bound
    tr(S) |G|_F^2 lies between cond S and n_z^2 cond S, and at half the
    limit the round-off of the bound and of the eigenvalues is below 1e-3 of
    them, so a certified stack passes the test. A member over the bound, a
    non-finite bound or a Cholesky step that raises runs the test on the
    whole stack, then the Cholesky step as before, so every error, message
    and non-finite result is the test's.
    """
    PCt = P @ (C.T.copy() if P.ndim > 2 else C.T)
    S = C @ PCt + R
    S = 0.5 * (S + S.mT)
    try:
        G = _lapack("inv", _lapack("cholesky", S))
    except np.linalg.LinAlgError:
        G = None
    if G is None or not _certified(S, G):
        _check_innovation(S)
        if G is None:
            G = _lapack("inv", _lapack("cholesky", S))
    # L = Ad P C' S^-1 with S^-1 = G' G. Each product keeps its association;
    # a contiguous operand leaves its bits as they are.
    L = Ad @ PCt @ _transposed(G) @ G
    F = Ad - L @ C
    P_next = F @ P @ _transposed(F) + L @ R @ _transposed(L) + Wd
    return L, 0.5 * (P_next + P_next.mT)


def riccati_step(
    P: np.ndarray,
    method: PerceptionMethod,
    dyn: DiscretizedDynamics,
) -> np.ndarray:
    """Covariance-only filter step for one method (measurement-independent).

    `P` is one covariance `(n, n)` or a stack `(N, n, n)`, stepped together.
    """
    Ad, Wd = dyn.step_pair(method.steps)
    _, P_next = _gain_and_next_cov(P, Ad, Wd, dyn.model.C, method.R)
    return P_next


def epoch_covariance(
    Phat: np.ndarray,
    method: PerceptionMethod,
    dyn: DiscretizedDynamics,
    R: np.ndarray | None,
) -> tuple[np.ndarray | None, np.ndarray]:
    """The covariance half of one epoch: gain L and the next covariance.

    `Phat` is one covariance or a stack of them, stepped together. `R` is
    the covariance of the epoch's measurement (one, or one per member), or
    None when it was dropped, and then L is None and the covariance is only
    predicted. The next covariance has been through BeliefState's PSD clamp
    and is read-only, so `epoch_mean` builds the next belief from it as it is.
    """
    Ad, Wd = dyn.step_pair(method.steps)
    if R is None:
        L, P_next = None, clamp_psd(Ad @ Phat @ Ad.T + Wd, "Phat", ValueError)
    else:
        L, P_next = _gain_and_next_cov(Phat, Ad, Wd, dyn.model.C, R)
        P_next = clamp_psd(P_next, "Phat", ValueError, symmetrized=True)
    P_next.setflags(write=False)
    return L, P_next


def epoch_mean(
    belief: BeliefState,
    method: PerceptionMethod,
    dyn: DiscretizedDynamics,
    L: np.ndarray | None,
    Phat: np.ndarray,
    z: np.ndarray | None = None,
) -> BeliefState:
    """The belief one latency after `belief`, from the epoch's `epoch_covariance`.

    The mean is `Ad x + L (z - C x)`, or `Ad x` when L is None. `Phat` is
    taken as it is, unclamped and unchecked.
    """
    Ad = dyn.step_pair(method.steps)[0]
    xhat = Ad @ belief.xhat
    if L is not None:
        xhat = xhat + L @ (z - dyn.model.C @ belief.xhat)
    xhat.setflags(write=False)
    return _trusted_belief(belief.t + method.latency(dyn.dt_s), xhat, Phat)


def correct(
    belief: BeliefState,
    meas: Measurement,
    method: PerceptionMethod,
    dyn: DiscretizedDynamics,
) -> BeliefState:
    """Combined predict-and-update over the method latency.

    `belief` must sit at the capture epoch of `meas`; the returned belief sits
    one latency later, with the measurement folded in under the method's R.
    """
    L, Phat = epoch_covariance(belief.Phat, method, dyn, method.R)
    return epoch_mean(belief, method, dyn, L, Phat, meas.z)


def steady_state(method: PerceptionMethod,
                 dyn: DiscretizedDynamics) -> tuple[np.ndarray, np.ndarray]:
    """Fixed point (P*, L*) of the single-method covariance recursion.

    Iterates from the identity until a step moves P by at most 1e-13 of
    max(1, ||P||_F), for up to 200,000 steps.
    """
    P = np.eye(dyn.model.n_x)
    Ad, Wd = dyn.step_pair(method.steps)
    C = dyn.model.C
    for _ in range(200000):
        L, P_next = _gain_and_next_cov(P, Ad, Wd, C, method.R)
        if np.linalg.norm(P_next - P, "fro") <= 1e-13 * max(1.0, np.linalg.norm(P, "fro")):
            return P_next, L
        P = P_next
    raise RuntimeError("steady-state covariance iteration did not converge")
