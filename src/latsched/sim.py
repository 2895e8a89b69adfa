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

`simulate_sde` keeps its chunk tables in a bounded memo, so a sweep builds
them once, not per path. A `GridMeasurementSource` reads each run's
generator ahead once; a detection is a function of (run, sensor step,
method). `block_metrics` and `block_mse` give a block's metrics with its
MSEs from one stacked reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .dynamics import ContinuousModel, DiscretizedDynamics, PerceptionMethod, _lapack
from .errors import SourceExhausted
from .estimator import Measurement
from .exact import Schedule, check_covering, window_cost, window_steps
from .horizon import TrackingTrace

# Normals drawn per super-block of Euler-Maruyama steps; bounds the temporaries.
_BLOCK_NORMALS = 1 << 14
# Entries of a chunk's kick table (L n_w, L n_x); sets the chunk length L.
_CHUNK_TABLE_ENTRIES = 1 << 9
# Chunk-table levels `simulate_sde` keeps, by (A, B, W, dt, L, depth); a full
# memo is cleared. On the 4-state occlusion model a depth-5 entry is 40 KB.
_TABLES: dict = {}
_TABLE_ENTRIES = 16


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

    Step k is x[k+1] = x[k] + A x[k] dt + B W^(1/2) sqrt(dt) n[k], with the
    normals n[k] read from the generator one step after another, as a
    per-step loop reads them. The steps are evaluated in chunks by
    `_advance`, so the path equals that loop's up to round-off, not bit for
    bit. Normals are drawn in super-blocks of at most `_BLOCK_NORMALS`, which
    bounds the temporaries. The chunk tables come from the `_TABLES` memo.
    Returns (t, x) with t of length N+1 on the dt grid and x of shape
    (N+1, n_x). The initial state is drawn from the model's initial belief.
    """
    if dt <= 0 or horizon <= 0:
        raise ValueError("dt and horizon must be positive")
    n_steps = window_steps(horizon, dt, 1e-9)
    rng = np.random.default_rng(seed)
    n, n_w = model.n_x, model.n_w
    x = np.empty((n_steps + 1, n))
    x[0] = model.x0 + rng.standard_normal((1, n)) @ sqrt_psd(model.P0).T
    L, block = _chunking(n, n_w)
    depth = 1
    while L ** depth < min(block, n_steps):
        depth += 1
    levels = _levels(model, dt, L, depth)
    for first in range(1, n_steps + 1, block):
        count = min(block, n_steps + 1 - first)
        x[first:first + count] = _advance(x[first - 1], rng.standard_normal((count, n_w)),
                                          levels)
    return np.arange(n_steps + 1) * dt, x


def _chunking(n: int, n_w: int) -> tuple[int, int]:
    """(chunk length L, steps per super-block) of `simulate_sde`."""
    block = max(1, _BLOCK_NORMALS // max(1, n_w))
    return min(block, max(2, isqrt(_CHUNK_TABLE_ENTRIES // (n * n_w)))), block


def _levels(model: ContinuousModel, dt: float, L: int, depth: int) -> list:
    """`_advance`'s `depth` levels of read-only chunk tables, from the `_TABLES` memo."""
    key = (model.A.tobytes(), model.B.tobytes(), model.W.tobytes(), model.B.shape, float(dt),
           L, depth)
    levels = _TABLES.get(key)
    if levels is None:
        n = model.n_x
        levels = [_chunk_tables(np.eye(n) + model.A * dt,
                                (model.B @ sqrt_psd(model.W)) * np.sqrt(dt), L)]
        while len(levels) < depth:
            levels.append(_chunk_tables(levels[-1][2], np.eye(n), L))
        for table in (t for level in levels for t in level):
            table.setflags(write=False)
        if len(_TABLES) >= _TABLE_ENTRIES:
            _TABLES.clear()
        _TABLES[key] = levels
    return levels


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

    `inputs` (S, m) holds u; `levels[0]` holds the `_chunk_tables` of
    (F, M, L) and `levels[l]` those of (F^(L^l), I, L). The chunks' zero-start
    responses come from one product with the kick table. Their start states
    follow the same recurrence one level up, with F^L and the chunks' last
    zero-start states as inputs, so each level takes two products and no step
    loop.
    """
    kicks, powers, _ = levels[0]
    S, m = inputs.shape
    n = start.shape[0]
    L = min(powers.shape[1] // n, S)
    chunks = -(-S // L)
    if chunks * L > S:
        inputs = np.concatenate([inputs, np.zeros((chunks * L - S, m))])
    zero_start = inputs.reshape(chunks, L * m) @ kicks[:L * m, :L * n]
    starts = start[None]
    if chunks > 1:
        starts = np.concatenate([starts, _advance(start, zero_start[:-1, -n:], levels[1:])])
    states = starts @ powers[:, :L * n]
    states += zero_start
    return states.reshape(chunks * L, n)[:S]


class GridMeasurementSource:
    """Measurement source backed by simulated truth paths on the dt grid.

    The detection of a run at sensor step t is z = C x_t + R^(1/2) n_t: x_t
    is the path's state at the step's grid point, R the method's R or its
    true noise override, and n_t row t of the run's normals. A step whose
    capture time falls in an occlusion window is dropped, and a step past the
    end of the paths raises SourceExhausted. So a measurement is a function
    of the run, the capture step and the method: drawing it again, alone or
    with other runs, gives the same z, and no draw moves another.

    `path` is a stack `(runs, N, n_x)` with a list of generators, one per
    run, or one path `(N, n_x)` with one generator, a stack of one. Each
    generator is read once, `standard_normal((sensor steps, n_z))`; C x at
    every sensor step and the drop mask are formed then, and each method's
    noise root times every row on the method's first draw.
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
        self.true_R = dict(true_R or {})
        stacked = self.path.ndim == 3
        sensor = (self.path if stacked else self.path[None])[:, ::grid_ratio(model.dt_s, dt)]
        runs, steps = sensor.shape[:2]
        self._Cx = (model.C @ np.ascontiguousarray(sensor)[..., None])[..., 0]
        n_z = model.n_z
        self._normals = np.array([g.standard_normal((steps, n_z))
                                  for g in (rng if stacked else [rng])]).reshape(runs, steps, n_z)
        captured = np.arange(steps) * model.dt_s
        self._dropped = np.zeros(steps, dtype=bool)
        for a, b in occlusions:
            self._dropped |= (float(a) <= captured) & (captured < float(b))
        self._noise: dict = {}

    def __call__(self, k: int, t_steps: int, method: PerceptionMethod):
        """The Measurement of epoch k of the first run, captured at step t_steps, or None."""
        z = self.draw(0, t_steps, method)
        if z is None:
            return None
        return Measurement(k=k, z=z, produced_at=(t_steps + method.steps) * self.model.dt_s,
                           method_id=method.id)

    def draw(self, runs, t_steps: int, method: PerceptionMethod):
        """z of the runs `runs` at sensor step t_steps, or None when it is dropped.

        `runs` indexes the stack: a run's index gives z `(n_z,)`, an index
        array or a slice gives `(len(runs), n_z)`.
        """
        if t_steps >= self._dropped.size:
            raise SourceExhausted(f"truth path ends before step {t_steps}")
        if self._dropped[t_steps]:
            return None
        noise = self._noise.get(method.id)
        if noise is None:
            R = np.asarray(self.true_R.get(method.id, method.R), dtype=float)
            noise = self._noise[method.id] = (sqrt_psd(R) @ self._normals[..., None])[..., 0]
        return self._Cx[runs, t_steps] + noise[runs, t_steps]


@dataclass
class RunMetrics:
    """Window metrics of a tracking run."""

    j_empirical: float
    attention: int
    cpu_load: float
    mse: float


def _schedule(trace: TrackingTrace, tf_steps: int) -> Schedule:
    """The methods of the trace's epochs that start inside the window."""
    return Schedule(e.method_id for e in trace.epochs if e.t_steps < tf_steps)


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
    return window_cost(0, lambda i, method: i + 1, lambda i: trace.epochs[i].belief.Phat,
                       _schedule(trace, window_steps(tf, dyn.dt_s)), tf, lam_alpha, methods,
                       dyn)


def _window_metrics(trace: TrackingTrace, lam_alpha: float, methods, tf: float,
                    dyn: DiscretizedDynamics) -> tuple:
    """Cost, attention and CPU load of `metrics`: they read the epochs, not the path."""
    # A trace that does not cover the window, an empty one included, fails here.
    j_empirical = empirical_cost(trace, lam_alpha, methods, tf, dyn)
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
    return j_empirical, attention, busy / tf


def _grid_index(trace: TrackingTrace, points: int, ratio: int) -> np.ndarray:
    """Path indices of the trace's grid points; a ValueError past a path of `points`."""
    idx = trace.grid_steps * ratio
    if points <= idx[-1]:
        raise ValueError(f"truth path has {points} points; the trace reads {idx[-1] + 1}")
    return idx


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
    return block_metrics([trace], truth[None], lam_alpha, methods, tf, dyn, dt)[0]


def block_metrics(traces: list, truths: np.ndarray, lam_alpha: float, methods, tf: float,
                  dyn: DiscretizedDynamics, dt: float, shared: bool = False) -> list:
    """`metrics` of each trace against its path in the stack `truths (runs, N, n_x)`.

    With `shared`, the traces share one schedule and covariance path, as
    `run_lockstep`'s do without adaptation, so the cost, attention and CPU
    load are computed once, from the first trace. A trace that fails raises
    what it raises alone.
    """
    windows = [_window_metrics(trace, lam_alpha, methods, tf, dyn)
               for trace in (traces[:1] if shared else traces)]
    return [RunMetrics(*window, mse) for window, mse in
            zip(windows * len(traces) if shared else windows, _block_mse(traces, truths, dyn, dt))]


def block_mse(traces: list, truths: np.ndarray, methods, tf: float,
              dyn: DiscretizedDynamics, dt: float) -> list:
    """`metrics(...).mse` of each trace against its path in the stack `truths`.

    No cost, attention or CPU load is computed, but each trace must cover
    the window, as `metrics` requires, so a trace that fails raises what
    `metrics` raises for it alone. A trace's epochs run back to back from
    step 0, so they cover the window exactly when they end at or past its
    edge: a trace that knows its `end_steps` is checked from it, and its
    records are built only to raise `metrics`' error.
    """
    tf_steps = window_steps(tf, dyn.dt_s)
    for trace in traces:
        if trace.end_steps is None or trace.end_steps < tf_steps:
            check_covering(_schedule(trace, tf_steps), tf_steps, methods)
    return _block_mse(traces, truths, dyn, dt)


def _block_mse(traces: list, truths: np.ndarray, dyn: DiscretizedDynamics, dt: float) -> list:
    """Each trace's mean squared error on its grid points, from one stacked reduction.

    The sums run along the state and grid axes of a contiguous stack, which
    numpy sums as it sums one run's alone: pairwise, in blocks of 8. Traces
    of different lengths do not stack and are reduced one at a time.
    """
    ratio = grid_ratio(dyn.dt_s, dt)
    idx = [_grid_index(trace, truths.shape[1], ratio) for trace in traces]
    if len({i.size for i in idx}) > 1:
        return [mse for k in range(len(traces))
                for mse in _block_mse(traces[k:k + 1], truths[k:k + 1], dyn, dt)]
    err = (np.stack([trace.grid_xhat for trace in traces])
           - truths[np.arange(len(traces))[:, None], np.stack(idx)])
    return np.mean(np.sum(err * err, axis=2), axis=1).tolist()
