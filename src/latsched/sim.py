"""Ground-truth simulation, synthetic measurements, and run metrics.

Truth paths are Euler-Maruyama discretizations of the target SDE on a grid of
step dt that must divide the sensor period, so every capture epoch lands on a
grid point and measurements are read off the path with no interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import ContinuousModel, DiscretizedDynamics, PerceptionMethod
from .errors import SourceExhausted
from .estimator import Measurement
from .exact import window_steps
from .horizon import TrackingTrace

# Normals drawn per block of Euler-Maruyama steps; bounds the kick buffer.
_BLOCK_NORMALS = 1 << 14


def sqrt_psd(mat: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition (handles singular input)."""
    eigvals, eigvecs = np.linalg.eigh(0.5 * (mat + mat.T))
    return (eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))) @ eigvecs.T


def grid_ratio(dt_s: float, dt: float) -> int:
    """Sensor period as an exact multiple of the simulation step."""
    return window_steps(dt_s, dt, 1e-9)


def simulate_sde(
    model: ContinuousModel, horizon: float, dt: float, seed
) -> tuple[np.ndarray, np.ndarray]:
    """One Euler-Maruyama truth path; deterministic given the seed.

    Returns (t, x) with t of length N+1 on the dt grid and x of shape
    (N+1, n_x). The initial state is drawn from the model's initial belief.
    """
    t, paths = simulate_ensemble(model, horizon, dt, runs=1, seed=seed)
    return t, paths[0]


def simulate_ensemble(
    model: ContinuousModel,
    horizon: float,
    dt: float,
    runs: int,
    seed,
    record_steps=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized Euler-Maruyama paths for `runs` independent targets.

    `record_steps` limits which grid indices are stored (all by default),
    keeping memory flat for large ensembles. Returns (t, x) with x of shape
    (runs, len(record_steps), n_x).
    """
    if dt <= 0 or horizon <= 0:
        raise ValueError("dt and horizon must be positive")
    n_steps = window_steps(horizon, dt, 1e-9)
    rng = np.random.default_rng(seed)
    n = model.n_x
    if record_steps is None:
        record_steps = np.arange(n_steps + 1)
    else:
        record_steps = np.asarray(sorted(set(int(s) for s in record_steps)), dtype=np.int64)
        if record_steps.size and (record_steps[0] < 0 or record_steps[-1] > n_steps):
            raise ValueError("record_steps outside the simulated grid")
    record_at = {int(s): i for i, s in enumerate(record_steps)}

    x = model.x0 + rng.standard_normal((runs, n)) @ sqrt_psd(model.P0).T
    noise_map = (model.B @ sqrt_psd(model.W)) * np.sqrt(dt)
    out = np.empty((runs, record_steps.size, n))
    if 0 in record_at:
        out[:, record_at[0]] = x
    # One draw per block of steps reads the generator's stream in the same
    # order as one draw per step. The stacked matmul multiplies each step's
    # (runs, n_w) slice as the per-step product did, so the kicks are bitwise
    # the same; a flattened (block * runs, n_w) product is not when runs = 1.
    block = max(1, _BLOCK_NORMALS // max(1, runs * model.n_w))
    for first in range(1, n_steps + 1, block):
        count = min(block, n_steps + 1 - first)
        kicks = rng.standard_normal((count, runs, model.n_w)) @ noise_map.T
        for i in range(count):
            x = x + (x @ model.A.T) * dt + kicks[i]
            if first + i in record_at:
                out[:, record_at[first + i]] = x
    return record_steps * dt, out


def synth_measurement(
    x_true: np.ndarray,
    k: int,
    t_steps: int,
    method: PerceptionMethod,
    rng,
    model: ContinuousModel,
    true_R: np.ndarray | None = None,
) -> Measurement:
    """Synthetic detection z = C x + v of the state captured at epoch k.

    The noise is drawn from `true_R` when given (to exercise noise-mismatch
    scenarios) and from the method's nominal R otherwise; `produced_at`
    reflects the capture step plus the method latency.
    """
    R = method.R if true_R is None else np.asarray(true_R, dtype=float)
    return _detection(x_true, k, t_steps, method, rng, model, sqrt_psd(R))


def _detection(x_true, k, t_steps, method, rng, model, noise_root) -> Measurement:
    """z = C x + noise_root @ (standard normals), stamped as synth_measurement does."""
    z = model.C @ np.asarray(x_true, dtype=float) + \
        noise_root @ rng.standard_normal(noise_root.shape[0])
    return Measurement(
        k=k,
        z=z,
        produced_at=(t_steps + method.steps) * model.dt_s,
        method_id=method.id,
    )


class GridMeasurementSource:
    """Measurement source backed by a simulated truth path on the dt grid.

    Captures at epoch start steps, applies per-method true noise overrides,
    drops measurements whose capture time falls in an occlusion window, and
    raises SourceExhausted past the end of the path. Each method id's noise
    root is computed on its first measurement and reused.
    """

    def __init__(
        self,
        model: ContinuousModel,
        path: np.ndarray,
        dt: float,
        rng,
        occlusions=(),
        true_R: dict | None = None,
    ):
        self.model = model
        self.path = np.asarray(path, dtype=float)
        self.dt = dt
        self.rng = rng
        self.ratio = grid_ratio(model.dt_s, dt)
        self.occlusions = [(float(a), float(b)) for a, b in occlusions]
        self.true_R = dict(true_R or {})
        self._roots: dict = {}

    def _occluded(self, t: float) -> bool:
        return any(a <= t < b for a, b in self.occlusions)

    def __call__(self, k: int, t_steps: int, method: PerceptionMethod):
        idx = t_steps * self.ratio
        if idx >= self.path.shape[0]:
            raise SourceExhausted(f"truth path ends before step {t_steps}")
        t = t_steps * self.model.dt_s
        if self._occluded(t):
            return None
        root = self._roots.get(method.id)
        if root is None:
            R = np.asarray(self.true_R.get(method.id, method.R), dtype=float)
            root = self._roots[method.id] = sqrt_psd(R)
        return _detection(self.path[idx], k, t_steps, method, self.rng, self.model, root)


@dataclass
class RunMetrics:
    """Window metrics of a tracking run."""

    j_empirical: float
    attention: int
    cpu_load: float
    mse: float


def empirical_cost(
    trace: TrackingTrace,
    lam_alpha: float,
    methods,
    tf: float,
    dyn: DiscretizedDynamics,
    dt: float,
) -> float:
    """Trapezoid integral of tr(P(t)) on the dt grid over [0, tf] plus penalties."""
    ratio = grid_ratio(dyn.dt_s, dt)
    tf_steps = window_steps(tf, dyn.dt_s)
    Ad, trWd = dyn.subgrid(dt, ratio)
    covered = 0
    total = 0.0
    for epoch in trace.epochs:
        if epoch.t_steps >= tf_steps:
            break
        method = methods[epoch.method_id - 1]
        total += lam_alpha * method.penalty
        start = epoch.t_steps * ratio
        stop = min((epoch.t_steps + method.steps) * ratio, tf_steps * ratio)
        # The covariance jumps at corrections, so each epoch integrates its own
        # closed interval from its start belief (left limit at the far edge).
        # Point o of the epoch is tr(Ad(o dt) P Ad(o dt)') + tr(Wd(o dt)).
        points = stop - start + 1
        Ado = Ad[:points]
        values = ((Ado @ epoch.belief.Phat) * Ado).reshape(points, -1).sum(axis=1) \
            + trWd[:points]
        total += float(np.trapezoid(values, dx=dt))
        covered = max(covered, stop)
    if covered < tf_steps * ratio:
        raise ValueError("trace does not cover the requested window")
    return total / tf


def metrics(
    trace: TrackingTrace,
    truth: np.ndarray,
    lam_alpha: float,
    methods,
    tf: float,
    dyn: DiscretizedDynamics,
    dt: float,
) -> RunMetrics:
    """Cost, attention, CPU load, and MSE of a completed run.

    `truth` is the dt-grid path the measurements were generated from. The
    attention counts measurements actually processed and delivered inside the
    window; the CPU load truncates the final epoch at the window edge; the MSE
    averages squared estimate error over the sensor-grid points of the trace.
    """
    tf_steps = window_steps(tf, dyn.dt_s)
    attention = 0
    busy = 0.0
    for epoch in trace.epochs:
        if epoch.t_steps >= tf_steps:
            break
        method = methods[epoch.method_id - 1]
        end = epoch.t_steps + method.steps
        if epoch.measured and end <= tf_steps:
            attention += 1
        busy += method.cpu * (min(end, tf_steps) - epoch.t_steps) * dyn.dt_s
    cpu_load = busy / tf

    ratio = grid_ratio(dyn.dt_s, dt)
    idx = trace.grid_steps * ratio
    keep = idx < truth.shape[0]
    err = trace.grid_xhat[keep] - truth[idx[keep]]
    mse = float(np.mean(np.sum(err * err, axis=1)))

    return RunMetrics(
        j_empirical=empirical_cost(trace, lam_alpha, methods, tf, dyn, dt),
        attention=attention,
        cpu_load=cpu_load,
        mse=mse,
    )
