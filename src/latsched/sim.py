"""Ground-truth simulation, synthetic measurements, and run metrics.

Truth paths are Euler-Maruyama discretizations of the target SDE on a grid of
step dt that must divide the sensor period, so every capture epoch lands on a
grid point and measurements are read off the path with no interpolation. The
EM recurrence is evaluated a block of steps at a time with stacked products;
a seed gives the same normals and the same scheme as a per-step loop, so the
paths agree with it up to round-off, not bit for bit.

The path is read only at sensor epochs: by the measurement source and by the
MSE of `metrics`. The run's window cost reads no path: it is the exact
integral of tr(P(t)) from each epoch's start belief, evaluated by
`exact.window_cost` as the schedulers evaluate it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .dynamics import ContinuousModel, DiscretizedDynamics, PerceptionMethod, _lapack
from .errors import SourceExhausted
from .estimator import Measurement
from .exact import Schedule, window_cost, window_steps
from .horizon import TrackingTrace

# Normals drawn per super-block of Euler-Maruyama steps; bounds the temporaries.
_BLOCK_NORMALS = 1 << 14
# Entries of a chunk's kick table (L n_w, L n_x); sets the chunk length L.
_CHUNK_TABLE_ENTRIES = 1 << 9


def sqrt_psd(mat: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition (handles singular input)."""
    eigvals, eigvecs = _lapack("eigh", 0.5 * (mat + mat.T))
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

    Step k is x[k+1] = x[k] + A x[k] dt + B W^(1/2) sqrt(dt) n[k], with the
    normals n[k] read from the generator one step after another (all runs of
    a step together), as a per-step loop reads them. The steps are evaluated
    in chunks by `_advance`, so a path equals that loop's up to round-off, not
    bit for bit. Normals are drawn in super-blocks of at most
    `_BLOCK_NORMALS`, which keeps temporaries flat for large ensembles, and
    `record_steps` limits which grid indices are stored (all by default).
    Returns (t, x) with x of shape (runs, len(record_steps), n_x).
    """
    if dt <= 0 or horizon <= 0:
        raise ValueError("dt and horizon must be positive")
    n_steps = window_steps(horizon, dt, 1e-9)
    rng = np.random.default_rng(seed)
    n, n_w = model.n_x, model.n_w
    if record_steps is None:
        record_steps = np.arange(n_steps + 1)
    else:
        record_steps = np.asarray(sorted(set(int(s) for s in record_steps)), dtype=np.int64)
        if record_steps.size and (record_steps[0] < 0 or record_steps[-1] > n_steps):
            raise ValueError("record_steps outside the simulated grid")

    x = model.x0 + rng.standard_normal((runs, n)) @ sqrt_psd(model.P0).T
    out = np.empty((runs, record_steps.size, n))
    if record_steps.size and record_steps[0] == 0:
        out[:, 0] = x
    L, block = _chunking(runs, n, n_w)
    levels = [_chunk_tables(np.eye(n) + model.A * dt,
                            (model.B @ sqrt_psd(model.W)) * np.sqrt(dt), L)]
    while L ** len(levels) < min(block, n_steps):
        levels.append(_chunk_tables(levels[-1][2], np.eye(n), L))
    for first in range(1, n_steps + 1, block):
        count = min(block, n_steps + 1 - first)
        normals = rng.standard_normal((count, runs, n_w)).transpose(1, 0, 2)
        states = _advance(x, normals, levels)
        lo, hi = np.searchsorted(record_steps, [first, first + count])
        out[:, lo:hi] = states.take(record_steps[lo:hi] - first, axis=1)
        x = states[:, -1]
    return record_steps * dt, out


def _chunking(runs: int, n: int, n_w: int) -> tuple[int, int]:
    """(chunk length L, steps per super-block) of `simulate_ensemble`.

    Large ensembles get short super-blocks, so L shrinks toward one step; at
    L = 1 `_advance` is the per-step stacked recurrence.
    """
    block = max(1, _BLOCK_NORMALS // max(1, runs * n_w))
    return min(block, max(2, isqrt(_CHUNK_TABLE_ENTRIES // (n * n_w)))), block


def _chunk_tables(F: np.ndarray, M: np.ndarray, L: int):
    """Tables that advance x[k+1] = x[k] F' + u[k] M' by a chunk of L steps.

    From a chunk's start state s, step i = 1..L of the chunk is
    s (F^i)' + sum_{j<i} u[j] (F^(i-1-j) M)'. Returns the block Toeplitz kick
    table (L m, L n), whose block (j, i-1) is (F^(i-1-j) M)' for j < i and 0
    otherwise, the stacked powers [F', (F^2)', ..., (F^L)'] (n, L n), and F^L.
    Their leading L' m x L' n and n x L' n blocks are the tables of L' < L.
    """
    n, m = M.shape
    powers = [np.eye(n)]
    for _ in range(L):
        powers.append(F @ powers[-1])
    powers = np.array(powers)
    blocks = np.concatenate([(powers[:L] @ M).transpose(0, 2, 1), np.zeros((1, m, n))])
    lag = np.arange(L) - np.arange(L)[:, None]
    kicks = blocks[np.where(lag >= 0, lag, L)].transpose(0, 2, 1, 3).reshape(L * m, L * n)
    return kicks, powers[1:].transpose(2, 0, 1).reshape(n, L * n), powers[L]


def _advance(start: np.ndarray, inputs: np.ndarray, levels) -> np.ndarray:
    """States 1..S of x[k+1] = x[k] F' + u[k] M' from x[0] = `start`.

    `inputs` (runs, S, m) holds u; `levels[0]` holds the `_chunk_tables` of
    (F, M, L) and `levels[l]` those of (F^(L^l), I, L). The chunks' zero-start
    responses come from one product with the kick table. Their start states
    follow the same recurrence one level up, with F^L and the chunks' last
    zero-start states as inputs, so each level takes two products and no step
    loop.
    """
    kicks, powers, _ = levels[0]
    runs, S, m = inputs.shape
    n = start.shape[1]
    L = min(powers.shape[1] // n, S)
    chunks = -(-S // L)
    if chunks * L > S:
        inputs = np.concatenate([inputs, np.zeros((runs, chunks * L - S, m))], axis=1)
    zero_start = (inputs.reshape(runs * chunks, L * m) @ kicks[:L * m, :L * n]) \
        .reshape(runs, chunks, L * n)
    starts = start[:, None]
    if chunks > 1:
        starts = np.concatenate(
            [starts, _advance(start, zero_start[:, :-1, -n:], levels[1:])], axis=1)
    states = (starts.reshape(runs * chunks, n) @ powers[:, :L * n]).reshape(runs, chunks, L * n)
    states += zero_start
    return states.reshape(runs, chunks * L, n)[:, :S]


class GridMeasurementSource:
    """Measurement source backed by a simulated truth path on the dt grid.

    Detects z = C x + v from the path's state at each epoch's start step, with
    v drawn from the method's R or its true noise override; drops measurements
    whose capture time falls in an occlusion window, and raises
    SourceExhausted past the end of the path. Each method id's noise root is
    computed on its first measurement and reused.

    `path` is one path `(N, n_x)` with one generator `rng`, read by calling
    the source, or a stack `(runs, N, n_x)` with a list of generators, one per
    run, read by `draw`. Each run draws from its own generator in its own
    epoch order, so its measurements are those of a one-path source.
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

    def _index(self, t_steps: int) -> int | None:
        """Path index of sensor step t_steps, or None when it is occluded."""
        idx = t_steps * self.ratio
        if idx >= self.path.shape[-2]:
            raise SourceExhausted(f"truth path ends before step {t_steps}")
        return None if self._occluded(t_steps * self.model.dt_s) else idx

    def _root(self, method: PerceptionMethod) -> np.ndarray:
        root = self._roots.get(method.id)
        if root is None:
            R = np.asarray(self.true_R.get(method.id, method.R), dtype=float)
            root = self._roots[method.id] = sqrt_psd(R)
        return root

    def __call__(self, k: int, t_steps: int, method: PerceptionMethod):
        idx = self._index(t_steps)
        if idx is None:
            return None
        root = self._root(method)
        z = self.model.C @ self.path[idx] + root @ self.rng.standard_normal(root.shape[0])
        return Measurement(k=k, z=z, produced_at=(t_steps + method.steps) * self.model.dt_s,
                           method_id=method.id)

    def draw(self, runs: np.ndarray, t_steps: int, method: PerceptionMethod):
        """z `(len(runs), n_z)` of the stacked paths `runs` at step t_steps, or None.

        Row i is what a one-path source over path runs[i] with generator
        rng[runs[i]] returns as its z, bit for bit: the products are the same
        matrix-vector products, stacked.
        """
        idx = self._index(t_steps)
        if idx is None:
            return None
        root = self._root(method)
        noise = np.empty((len(runs), root.shape[0]))
        for row, run in zip(noise, runs.tolist()):
            self.rng[run].standard_normal(out=row)
        return (self.model.C @ self.path[runs, idx, :, None] + root @ noise[..., None])[..., 0]


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
) -> float:
    """Window cost of the trace's epochs over [0, tf], each from its start belief.

    The covariance jumps at corrections, so epoch i integrates tr(P(t)) from
    trace.epochs[i].belief.Phat; `window_cost` gives that integral in closed
    form and cuts a last epoch at the window edge. A trace that does not cover
    the window raises IncompleteScheduleError.
    """
    tf_steps = window_steps(tf, dyn.dt_s)
    schedule = Schedule(e.method_id for e in trace.epochs if e.t_steps < tf_steps)
    return window_cost(0, lambda i, method: i + 1, lambda i: trace.epochs[i].belief.Phat,
                       schedule, tf, lam_alpha, methods, dyn)


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

    `truth` is the dt-grid path the measurements were generated from; a path
    that ends before the trace's last grid point is a ValueError. The cost is
    `empirical_cost`, which needs the trace to cover the window. The
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

    idx = trace.grid_steps * grid_ratio(dyn.dt_s, dt)
    if truth.shape[0] <= idx[-1]:
        raise ValueError(f"truth path has {truth.shape[0]} points; the trace reads "
                         f"{idx[-1] + 1}")
    err = trace.grid_xhat - truth[idx]
    mse = float(np.mean(np.sum(err * err, axis=1)))

    return RunMetrics(
        j_empirical=empirical_cost(trace, lam_alpha, methods, tf, dyn),
        attention=attention,
        cpu_load=cpu_load,
        mse=mse,
    )
