"""Covariance boundedness certificates.

A certificate is a triple (Omega, {Y_i}, gamma) with Omega positive definite
and gamma in (0, 1) such that, writing L_i = Omega^-1 Y_i and
Lam_i = Ad(i) - L_i C, every method satisfies

    Lam_i' Omega Lam_i <= gamma Omega.

That makes the fixed-gain switched filter a contraction in the Omega-weighted
norm, and the optimal filter covariance it dominates obeys

    ||P[k]||_F <= B_s = sqrt(n_x) * cond(Omega) * (B0 + Gbar / (1 - gamma)),
    Gbar = max_i || L_i R_i L_i' + Wd(latency_i) ||_F

for any start with ||P[0]||_F <= B0 and any schedule. `lmi_feasible` checks
the scalar form of the inequality (equivalent to the block form by Schur
complement, at half the matrix size), `bound_bs` evaluates B_s, and
`synthesize_certificate` is a best-effort search: gains are frozen at each
method's steady-state value and a common Omega is sought by iterating the
weighted sum map. A certificate from an external solver enters instead
through a scenario config's `certificate` block (`Omega`, `Y`, `gamma`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import ContinuousModel, DiscretizedDynamics, _lapack
from .errors import InfeasibleCertificateError
from .estimator import steady_state

PSD_MARGIN_RTOL = 1e-9


@dataclass(frozen=True)
class LyapunovCertificate:
    """Common-Lyapunov certificate (Omega, per-method Y, gamma)."""

    omega: np.ndarray
    ys: tuple
    gamma: float

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=float)
        omega = 0.5 * (omega + omega.T)
        if _lapack("eigvalsh", omega)[0] <= 0.0:
            raise ValueError("Omega must be positive definite")
        if not (0.0 < self.gamma < 1.0):
            raise ValueError("gamma must lie strictly in (0, 1)")
        ys = tuple(np.asarray(y, dtype=float) for y in self.ys)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "ys", ys)

    def gains(self) -> list:
        """Per-method gains L_i = Omega^-1 Y_i, in method order."""
        return [np.linalg.solve(self.omega, y) for y in self.ys]


def _closed_loop_maps(gains, methods, dyn: DiscretizedDynamics) -> list:
    """Lam_i = Ad(m_i) - L_i C for each method and its gain."""
    return [dyn.step_pair(m.steps)[0] - gain @ dyn.model.C for m, gain in zip(methods, gains)]


def _lmi_scan(omega: np.ndarray, lams, gamma: float) -> tuple[bool, float]:
    """Feasibility and margin of gamma*Omega - Lam' Omega Lam >= 0 over the maps.

    The margin is the smallest eigenvalue of any gap, unrounded; a gap whose
    smallest eigenvalue lies within -1e-9 * ||gap||_F of zero still counts as
    feasible.
    """
    margin = np.inf
    feasible = True
    for lam in lams:
        gap = gamma * omega - lam.T @ omega @ lam
        gap = 0.5 * (gap + gap.T)
        low = float(_lapack("eigvalsh", gap)[0])
        margin = min(margin, low)
        if low < -PSD_MARGIN_RTOL * np.linalg.norm(gap, "fro"):
            feasible = False
    return feasible, margin


def lmi_margin(omega: np.ndarray, lams, gamma: float) -> float:
    """Min eigenvalue of gamma*Omega - Lam' Omega Lam across the given maps."""
    return _lmi_scan(omega, lams, gamma)[1]


def lmi_feasible(
    cert: LyapunovCertificate, methods, dyn: DiscretizedDynamics
) -> tuple[bool, float]:
    """Feasibility of the decay inequality for every method, with its margin."""
    return _lmi_scan(cert.omega, _closed_loop_maps(cert.gains(), methods, dyn), cert.gamma)


def gbar(cert: LyapunovCertificate, methods, dyn: DiscretizedDynamics) -> float:
    """Largest Frobenius norm of the per-step noise injection L R L' + Wd."""
    worst = 0.0
    for method, gain in zip(methods, cert.gains()):
        _, Wd = dyn.step_pair(method.steps)
        inject = gain @ method.R @ gain.T + Wd
        worst = max(worst, float(np.linalg.norm(inject, "fro")))
    return worst


def bound_bs(
    cert: LyapunovCertificate, b0: float, methods, dyn: DiscretizedDynamics
) -> float:
    """Covariance norm bound B_s implied by a feasible certificate."""
    feasible, margin = lmi_feasible(cert, methods, dyn)
    if not feasible:
        raise InfeasibleCertificateError(
            f"certificate infeasible (margin {margin:.3e}); B_s is meaningless"
        )
    eigs = _lapack("eigvalsh", cert.omega)
    n = cert.omega.shape[0]
    return float(
        np.sqrt(n) * (eigs[-1] / eigs[0]) * (b0 + gbar(cert, methods, dyn) / (1.0 - cert.gamma))
    )


def synthesize_certificate(
    model: ContinuousModel,
    methods,
    dyn: DiscretizedDynamics,
    gamma: float,
) -> LyapunovCertificate | None:
    """Best-effort certificate search; returns None when the heuristic fails.

    Gains are fixed at each method's steady-state filter gain, which makes the
    per-method inequality linear in Omega. The iteration

        Omega <- sum_i Lam_i' Omega Lam_i / gamma + I   (then normalized)

    is run up to 500 times with a feasibility test each step; among the
    feasible iterates the one with the smallest condition number (hence the
    smallest B_s for these gains) is kept. Failure is expected for some
    configurations; an externally solved certificate can be supplied instead.
    """
    if not (0.0 < gamma < 1.0):
        raise ValueError("gamma must lie strictly in (0, 1)")
    n = model.n_x
    gains = [steady_state(method, dyn)[1] for method in methods]
    lams = _closed_loop_maps(gains, methods, dyn)

    best_omega = None
    best_cond = np.inf
    omega = np.eye(n)
    for _ in range(500):
        nxt = sum(lam.T @ omega @ lam for lam in lams) / gamma + np.eye(n)
        nxt = 0.5 * (nxt + nxt.T)
        nxt *= n / np.linalg.norm(nxt, "fro")
        eigs = _lapack("eigvalsh", nxt)
        if eigs[0] > 0 and lmi_margin(nxt, lams, gamma) >= 0.0:
            cond = eigs[-1] / eigs[0]
            if cond < best_cond:
                best_cond = cond
                best_omega = nxt
        omega = nxt

    if best_omega is None:
        return None
    ys = tuple(best_omega @ gain for gain in gains)
    return LyapunovCertificate(omega=best_omega, ys=ys, gamma=gamma)
