"""Online moving-horizon estimation and scheduling loop.

At every epoch the loop folds in the measurement that just finished
processing (or, under occlusion, predicts across the elapsed latency), then
looks up the next perception method from the policy table at the quantized
current covariance. Time is tracked as an integer count of sensor periods so
epoch accounting is exact over arbitrarily long runs; seconds are derived.

Measurement-noise adaptation keeps a short per-method window of innovations
e[l] = C xhat[l] - z[l] and estimates the current covariance as

    R = mean(e e') - C P_pre C'

projected back to PSD, falling back to the nominal R when the window is
empty.

Two loops step the epochs. `_shared_path` steps one run, adaptive or not
(`run_loop`, a one-run `run_lockstep` stack), or every run of a stack
without adaptation. Without adaptation the covariance half of an epoch
(gain, next covariance and its node) does not depend on the measured
values: the stack shares one covariance path, and the loop keeps its
epochs in a memo on the graph (`CovarianceGraph._epochs`), keyed on the
start covariance's bytes, the method and whether it measured, for one
method list (each method's steps and R) and one dynamics object, while the
means follow as one recursion, stacked over the runs. An adaptive run
bypasses the memo: its R is an estimate, not the method's. Like the graph's
sweep memo it goes stale when `reps` or `succ` are written into. Its hits
come from repeated runs on one graph: the benchmark's tracking run,
`run_loop` on one graph again and again; the other tracking variants and
later blocks of an `mc-eval` sweep; a covariance path that repeats itself
once it has converged. One `simulate` run gets only the last kind.

`_step_groups` steps an adaptive stack of two or more runs. Time jumps
from one epoch start to the next; the runs starting an epoch there are
grouped by method and each group is stepped with one stacked call per
kernel. A group of every run, every epoch of a stack whose runs move in
lockstep, reads the stacks whole, and its source reads the runs'
detections at the step by basic slicing.

Both loops log each epoch once for the runs that start it, and a trace
builds its EpochRecords from the log when first read. They keep only the
means epochs start at, which the means up to the next epoch are pure
predictions of: after the loop, `_traces` gives every interior sensor
step's mean from one gathered product per run or stack. No covariance is
kept there: `TrackingTrace.grid` derives tr P from the epochs' beliefs.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .covgraph import CovarianceGraph, quantize
from .dynamics import ContinuousModel, DiscretizedDynamics, PerceptionMethod, _lapack
from .errors import SourceExhausted
from .estimator import (
    BeliefState,
    _trusted_belief,
    epoch_covariance,
    predict,
)
from .exact import window_steps

# Entries a graph's epoch memo holds before it is cleared. On the shipped
# 4-state model an entry takes 0.36 KB, 0.52 KB with a gain (tracemalloc of
# a deep copy), so a full memo stays under 0.3 MB; the moving-horizon and
# adaptive-R experiments at their shipped run counts fill 204 and 59 entries.
_MEMO_ENTRIES = 512


class InnovationWindow:
    """Per-method ring buffers of recent innovations with their step indices."""

    def __init__(self, length: int = 10):
        if length < 1:
            raise ValueError("window length must be >= 1")
        self.length = length
        self._buffers: dict[int, deque] = {}

    def push(self, method_id: int, k: int, e: np.ndarray) -> None:
        buf = self._buffers.setdefault(method_id, deque(maxlen=self.length))
        buf.append((k, np.array(e, dtype=float)))

    def innovations(self, method_id: int, k: int) -> list:
        """Buffered innovations for one method no older than `length` epochs."""
        buf = self._buffers.get(method_id, ())
        return [e for (step, e) in buf if k - step <= self.length]


def adaptive_R(
    window: InnovationWindow,
    method: PerceptionMethod,
    k: int,
    belief_pre: BeliefState,
    model: ContinuousModel,
) -> np.ndarray:
    """Windowed innovation-based estimate of the current measurement covariance.

    Divides by the actual number of buffered innovations. Negative eigenvalues
    of the raw estimate are clamped to a floor of 1e-6 * tr(R_nominal) / n_z;
    an exactly zero estimate becomes floor * I so the innovation covariance
    stays invertible. Empty window falls back to the nominal R.
    """
    entries = window.innovations(method.id, k)
    if not entries:
        return method.R
    E = np.array(entries)
    return _estimate_R(E[:, :, None] * E[:, None, :], len(entries), belief_pre.Phat, method,
                       model)


def _estimate_R(outer: np.ndarray, count, Phat: np.ndarray, method: PerceptionMethod,
                model: ContinuousModel) -> np.ndarray:
    """`adaptive_R`'s estimate from a window's innovation outer products.

    `outer (window, n_z, n_z)` holds one window's e e' in push order, or a
    stack `(..., window, n_z, n_z)` of windows with `count (..., 1, 1)` live
    entries each, or one count for all, and start covariances
    `Phat (..., n, n)`. A stacked window holds its live entries last, after
    entries of +0.0, and holds at least one.
    """
    # The outer products are added in window order, left to right from +0.0,
    # as Python's sum over them adds: add.accumulate along the window is that
    # sequence, and adding its last partial sum to +0.0 turns a -0.0 into the
    # +0.0 that sum would give. Leading +0.0 entries leave the sum as it is.
    # np.add.reduce is not used: along a contiguous axis it sums pairwise in
    # blocks of 8 and rounds otherwise.
    C = model.C
    raw = (0.0 + np.add.accumulate(outer, axis=-3)[..., -1, :, :]) / count
    raw = raw - C @ Phat @ C.T
    raw = 0.5 * (raw + raw.mT)
    eigvals, eigvecs = _lapack("eigh", raw)
    # One window is tested on numpy scalars, which costs less than the array test.
    if eigvals.ndim == 1 and eigvals[0] >= 0.0 and eigvals[-1] > 0.0:
        return raw
    passed = (eigvals[..., 0] >= 0.0) & (eigvals[..., -1] > 0.0)
    if passed.all():
        return raw
    floor = 1e-6 * np.trace(method.R) / model.n_z
    clipped = (eigvecs * np.where(eigvals < 0.0, floor, eigvals)[..., None, :]) @ eigvecs.mT
    clipped = np.where((eigvals[..., -1] <= 0.0)[..., None, None], floor * np.eye(model.n_z),
                       0.5 * (clipped + clipped.mT))
    return np.where(passed[..., None, None], raw, clipped)


def _transition(Phat, method, R, graph: CovarianceGraph, dyn: DiscretizedDynamics) -> tuple:
    """The covariance half of an epoch from one covariance or a stack: (L, P_next, node).

    L is the correction's gain, None when the measurement was dropped (and
    `R` is None); P_next the next covariance, clamped and read-only; node
    quantize(P_next), whose policy entry picks the next method.
    """
    L, P_next = epoch_covariance(Phat, method, dyn, R)
    return L, P_next, quantize(P_next, graph)


def _epoch_memo(graph: CovarianceGraph, methods, dyn: DiscretizedDynamics) -> dict:
    """The graph's table of epoch transitions for these methods and `dyn`.

    The table maps `(Phat bytes, method id, measured)` to a `_transition`,
    and a run's start covariance bytes to its node.
    """
    return graph._memo("_epochs", tuple((m.steps, m.R.tobytes()) for m in methods), dyn, dict)


def _remember(memo: dict | None, key, make):
    """memo[key], made by `make()` on a miss; a full memo is cleared first.

    Without a memo, `make()` alone.
    """
    if memo is None:
        return make()
    value = memo.get(key)
    if value is None:
        if len(memo) >= _MEMO_ENTRIES:
            memo.clear()
        value = memo[key] = make()
    return value


@dataclass
class EpochRecord:
    """One scheduling epoch: start step, method used, and the start belief."""

    k: int
    t_steps: int
    method_id: int
    measured: bool
    belief: BeliefState


class _Epochs:
    """`TrackingTrace.epochs`: a list, or a callable that builds it on the first read.

    A descriptor as a dataclass field's default takes the value `__init__` is
    passed; it raises AttributeError on the class, so the field has no
    default. New epochs clear the trace's `end_steps`, which they may move.
    """

    def __get__(self, trace, owner=None):
        if trace is None:
            raise AttributeError("epochs")
        epochs = trace.__dict__["_epochs"]
        if callable(epochs):
            epochs = trace.__dict__["_epochs"] = epochs()
        return epochs

    def __set__(self, trace, epochs):
        trace.__dict__["_epochs"] = epochs
        trace.__dict__["end_steps"] = None


@dataclass
class TrackingTrace:
    """Loop output: per-epoch records plus the estimate means on the sensor grid.

    `grid_xhat` is filled after the last epoch, by `_traces`; `grid` derives
    tr P, the method and the measured flag there from the epochs. A trace
    the loops build makes its EpochRecords from their log the first time
    `epochs` is read. `end_steps`, set by the loops, is the step
    the last epoch ends at (0 without epochs); it is None on a trace built
    otherwise.
    """

    dt_s: float
    horizon_steps: int
    epochs: list = _Epochs()
    final_belief: BeliefState
    grid_steps: np.ndarray
    grid_xhat: np.ndarray
    end_steps: int | None = field(default=None, init=False)

    def grid(self, methods, dyn: DiscretizedDynamics) -> tuple:
        """tr P, method id and measured flag (0/1) at each of `grid_steps`.

        Step t + j of an epoch that starts at step t reads
        trace(predict(belief, j * dt_s).Phat) of the epoch's start belief.
        """
        size = len(self.grid_steps)
        trP = np.empty(size)
        method_id = np.zeros(size, dtype=np.int64)
        measured = np.zeros(size, dtype=np.int64)
        end = 0
        for epoch in self.epochs:
            t = epoch.t_steps
            end = min(t + methods[epoch.method_id - 1].steps, size)
            trP[t:end] = [np.trace(predict(epoch.belief, j * dyn.dt_s, dyn).Phat)
                          for j in range(end - t)]
            method_id[t:end], measured[t:end] = epoch.method_id, epoch.measured
        # Past the last epoch's points lies at most the horizon endpoint, which
        # an epoch ending exactly on the horizon leaves to the final belief,
        # under that epoch's method.
        trP[end:] = np.trace(self.final_belief.Phat)
        if self.epochs:
            method_id[end:], measured[end:] = epoch.method_id, epoch.measured
        return trP, method_id, measured

    def write_csv(self, path, methods, dyn: DiscretizedDynamics) -> None:
        n = self.grid_xhat.shape[1]
        header = ["t"] + [f"xhat_{i}" for i in range(n)] + ["trP", "method_id", "measured"]
        trP, method_id, measured = self.grid(methods, dyn)
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for i, step in enumerate(self.grid_steps):
                row = [repr(float(step * self.dt_s))]
                row += [repr(float(v)) for v in self.grid_xhat[i]]
                row += [repr(float(trP[i])), str(int(method_id[i])), str(int(measured[i]))]
                fh.write(",".join(row) + "\n")


def _checked_policy(policy, graph: CovarianceGraph, methods) -> np.ndarray:
    """`policy`, or the graph's, as an integer method id per node."""
    if policy is None:
        policy = graph.policy
    if policy is None:
        raise ValueError("no policy supplied and the graph carries none")
    policy = np.asarray(policy)
    if policy.shape != (graph.size,) or policy.dtype.kind not in "iu":
        raise ValueError(f"policy must be {graph.size} integer method ids, one per node; "
                         f"got shape {policy.shape} of {policy.dtype}")
    if np.min(policy) < 1 or np.max(policy) > len(methods):
        raise ValueError(f"policy holds method ids outside 1..{len(methods)}")
    return policy


def _traces(dyn: DiscretizedDynamics, xhat: np.ndarray, begun: np.ndarray, t_next: np.ndarray,
            epochs: list, finals: list) -> list:
    """The TrackingTraces of a stack of runs from the means their epochs started at.

    `xhat (runs, horizon_steps + 1, n)` holds those means at the steps
    `begun` marks; run i's next epoch would start at `t_next[i]`, where its
    last ends. `epochs[i]` is run i's records or a callable that builds them.
    Step s of an epoch started at t < s gets Ad(s - t) x_t, the mean half of
    `predict`, from one product gathered over every run and step. A run whose
    source ran out at an epoch start ends there; one whose last epoch ends on
    the horizon takes its final belief's mean (`finals`) at the endpoint.
    """
    horizon_steps = xhat.shape[1] - 1
    steps = np.arange(horizon_steps + 1)
    inside = ~begun & (steps < t_next[:, None])
    if inside.any():
        origin = np.maximum.accumulate(np.where(begun, steps, 0), axis=1)
        r, s = np.nonzero(inside)
        t = origin[r, s]
        xhat[r, s] = (dyn.step_pair(s - t)[0] @ xhat[r, t][..., None])[..., 0]
    traces = []
    for x, end, run_epochs, final in zip(xhat, t_next.tolist(), epochs, finals):
        if end == horizon_steps:
            x[end] = final.xhat
        points = end if end < horizon_steps else horizon_steps + 1
        traces.append(TrackingTrace(dyn.dt_s, horizon_steps, run_epochs, final,
                                    np.arange(points, dtype=np.int64), x[:points]))
        traces[-1].end_steps = end
    return traces


def run_loop(
    model: ContinuousModel,
    methods,
    graph: CovarianceGraph,
    policy,
    horizon: float,
    source,
    dyn: DiscretizedDynamics,
    use_adaptive: bool = False,
    window_length: int = 10,
) -> TrackingTrace:
    """Run the full sampling loop over [0, horizon].

    `source(k, t_steps, method)` must return the Measurement captured at epoch
    k (start step t_steps) or None when it is dropped; raising SourceExhausted
    ends the run cleanly with a partial trace. `policy` maps node id to the
    1-based method id to run next; pass graph.policy when it was precomputed.
    The run is `_shared_path`'s one-run loop over the measurements' z.
    """
    def draw(k, t_steps, method):
        meas = source(k, t_steps, method)
        return None if meas is None else meas.z

    return _tracked(model, methods, graph, policy, horizon, dyn, use_adaptive, window_length, 1,
                    draw, None)[0]


def _push(ring, runs, k: np.ndarray, e: np.ndarray, length: int):
    """Push innovations `e` of epochs `k` into the rings of `runs`; their windows.

    `runs` indexes the ring's rows (an index array or a slice). `ring` holds
    each run's last `length` innovation outer products e e' of one method
    and their epochs, oldest first, as `InnovationWindow` buffers the
    innovations. Returns the windows with the entries older than `length`
    epochs zeroed (they lead the window) and the count of the rest, as
    `_estimate_R` takes them; windows whose entries are all live come back
    as they are, with the count `length`.
    """
    outer, epochs = ring
    window = np.concatenate((outer[runs, 1:], (e[:, :, None] * e[:, None, :])[:, None]), axis=1)
    at = np.concatenate((epochs[runs, 1:], k[:, None]), axis=1)
    outer[runs], epochs[runs] = window, at
    live = k[:, None] - at <= length
    if live.all():
        return window, length
    return np.where(live[..., None, None], window, 0.0), live.sum(axis=1)[:, None, None]


def run_lockstep(
    model: ContinuousModel,
    methods,
    graph: CovarianceGraph,
    policy,
    horizon: float,
    source,
    dyn: DiscretizedDynamics,
    use_adaptive: bool = False,
    window_length: int = 10,
) -> list:
    """`run_loop` over a stack of runs stepped together: one TrackingTrace per run.

    `source` is a `GridMeasurementSource` over a path stack with one generator
    per run, read through its `draw`; a run's detection at a step does not
    depend on which runs draw with it. It drops a step for every run or for
    none, and its paths share their length, so it runs out at a step for
    every run and at every later step: the stack ends there. One run, and
    every run of a stack without adaptation, takes `_shared_path`, the loop
    of `run_loop`; an adaptive stack of more runs takes `_step_groups`.
    Each stacked product is the one-run product, stacked, so every trace
    equals `run_loop`'s over the same path and generator bit for bit, and a
    run whose kernels raise raises what `run_loop` raises when stepped alone.
    """
    runs = len(source.path)
    which = 0 if runs == 1 else slice(None)
    return _tracked(model, methods, graph, policy, horizon, dyn, use_adaptive, window_length,
                    runs, lambda k, t_steps, method: source.draw(which, t_steps, method), source)


def _tracked(model: ContinuousModel, methods, graph: CovarianceGraph, policy, horizon: float,
             dyn: DiscretizedDynamics, use_adaptive: bool, window_length: int, runs: int, draw,
             source) -> list:
    """The TrackingTraces of `runs` runs.

    One run, adaptive or not, and every run of a stack without adaptation,
    is `_shared_path` over `draw(k, t_steps, method)`; an adaptive stack of
    any other size is `_step_groups` over the stacked `source`.
    """
    policy = _checked_policy(policy, graph, methods)
    if window_length < 1:
        raise ValueError("window length must be >= 1")
    horizon_steps = window_steps(horizon, dyn.dt_s)
    start = BeliefState(0.0, model.x0, model.P0)
    xhat = np.empty((runs, horizon_steps + 1, model.n_x))
    begun = np.zeros(xhat.shape[:2], dtype=bool)
    if use_adaptive and runs != 1:
        log, T, X, P, t_next = _step_groups(methods, graph, policy, horizon_steps, source, dyn,
                                            start, np.tile(start.xhat, (runs, 1)), window_length)
        grouped = functools.cache(lambda: _grouped_records(log, runs))
        records = [lambda i=i: grouped()[i] for i in range(runs)]
        finals = list(map(_trusted_belief, T.tolist(), X, P))
        for idx, _, t, _, _, _, Xg, _ in log:
            xhat[idx, t], begun[idx, t] = Xg, True
    else:
        window = InnovationWindow(window_length) if use_adaptive else None
        X = start.xhat if runs == 1 else np.tile(start.xhat, (runs, 1))
        log, T, X, P, end = _shared_path(methods, graph, policy, horizon_steps, draw, dyn, start,
                                         X, window)
        # One run's means are vectors, which `...` reads whole.
        picks = [...] if runs == 1 else range(runs)
        records = [functools.partial(_path_records, log, i) for i in picks]
        finals = [_trusted_belief(T, X[i], P) for i in picks]
        t_next = np.full(runs, end)
        if log:
            # np.array of the logged means, epochs first, costs half of np.stack.
            starts = [entry[1] for entry in log]
            xhat[:, starts] = np.moveaxis(np.array([entry[5] for entry in log]), 0, -2)
            begun[:, starts] = True
    return _traces(dyn, xhat, begun, t_next, records, finals)


def _shared_path(methods, graph: CovarianceGraph, policy: np.ndarray, horizon_steps: int, draw,
                 dyn: DiscretizedDynamics, start: BeliefState, X: np.ndarray,
                 window: InnovationWindow | None) -> tuple:
    """The epochs of runs that share one covariance path, from the means `X`.

    `X` is one run's mean `(n,)` or a stack `(runs, n)`; `draw(k, t, method)`
    gives epoch k's measurements shaped alike, or None when they are
    dropped, and raising SourceExhausted ends every run. Without a `window`
    the covariance half is read from the graph's epoch memo. With an
    InnovationWindow, `X` is one run's mean, and R is its window's
    `adaptive_R` estimate, aged by epoch index. Returns the log, one entry
    (k, t, method id, measured, T, X, P) an epoch with P the start
    covariance, the final T, X and P and the step the path ends at.
    """
    C, P, T = dyn.model.C, start.Phat, 0.0
    memo = _epoch_memo(graph, methods, dyn) if window is None else None
    pid = int(policy[_remember(memo, P.tobytes(), lambda: quantize(P, graph))])
    log = []
    t = 0
    while t < horizon_steps:
        method = methods[pid - 1]
        k = len(log)
        try:
            z = draw(k, t, method)
        except SourceExhausted:
            break
        measured = z is not None
        X.setflags(write=False)
        log.append((k, t, method.id, measured, T, X, P))
        R = method.R if measured else None
        if window is None:
            L, P_next, node = _remember(memo, (P.tobytes(), method.id, measured),
                                        lambda: _transition(P, method, R, graph, dyn))
        else:
            if measured:
                window.push(method.id, k, C @ X - z)
                R = adaptive_R(window, method, k, _trusted_belief(T, X, P), dyn.model)
            L, P_next, node = _transition(P, method, R, graph, dyn)
        Ad = dyn.step_pair(method.steps)[0]
        # One run keeps plain matrix-vector products: stacked, they cost about 25% more.
        if X.ndim == 1:
            X_next = Ad @ X
            if measured:
                X_next = X_next + L @ (z - C @ X)
        else:
            X_next = (Ad @ X[..., None])[..., 0]
            if measured:
                X_next = X_next + (L @ (z - (C @ X[..., None])[..., 0])[..., None])[..., 0]
        X, P, T, pid = X_next, P_next, T + method.latency(dyn.dt_s), int(policy[node])
        t += method.steps
    X.setflags(write=False)
    return log, T, X, P, t


def _step_groups(methods, graph: CovarianceGraph, policy: np.ndarray, horizon_steps: int,
                 source, dyn: DiscretizedDynamics, start: BeliefState, X: np.ndarray,
                 window_length: int) -> tuple:
    """The epochs of an adaptive stack from `X` (runs, n), stepped in groups.

    Time jumps from one epoch start to the next, `t_next.min()`. The runs
    starting an epoch there are split by the method they start, every group
    fixed before any is stepped, and each group takes one stacked call per
    kernel: the adaptive-R estimate, `epoch_covariance`, `quantize` and the
    mean half. Returns the log, one entry (runs, k, t, method id, measured,
    T, X, P) a group with k, T, X and P its runs' rows, then the final T, X
    and P stacks and each run's next epoch start, the end of its last epoch.
    """
    model = dyn.model
    runs, C = len(X), model.C
    P = np.tile(start.Phat, (runs, 1, 1))
    T = np.zeros(runs)
    k = np.zeros(runs, dtype=np.int64)
    pid = np.full(runs, policy[quantize(start.Phat, graph)])
    t_next = np.zeros(runs, dtype=np.int64)
    # Epoch -(length + 1) is out of every window: an empty slot.
    rings = {m.id: (np.zeros((runs, window_length, model.n_z, model.n_z)),
                    np.full((runs, window_length), -window_length - 1)) for m in methods}
    log = []
    t = 0
    try:
        while t < horizon_steps:
            starting = np.flatnonzero(t_next == t)
            # Fixed before any group is stepped: a stepped run starts no second
            # epoch at t under the method its node now picks.
            starts = pid[starting]
            for method in methods:
                idx = starting[starts == method.id]
                if not idx.size:
                    continue
                # A group of every run draws and reads the stacks whole and
                # rebinds them to the next ones; a smaller group gathers its
                # rows and scatters into copies. Either way a logged stack
                # stays as it is.
                whole = idx.size == runs
                sel = slice(None) if whole else idx
                z = source.draw(sel, t, method)
                Xg, Pg, kg, Tg = (X, P, k, T) if whole else (X[idx], P[idx], k[idx], T[idx])
                Xg.setflags(write=False)
                Pg.setflags(write=False)
                measured = z is not None
                R = None
                if measured:
                    Cx = (C @ Xg[..., None])[..., 0]
                    E, counts = _push(rings[method.id], sel, kg, Cx - z, window_length)
                    R = _estimate_R(E, counts, Pg, method, model)
                L, P_next, node = _transition(Pg, method, R, graph, dyn)
                X_next = (dyn.step_pair(method.steps)[0] @ Xg[..., None])[..., 0]
                if measured:
                    X_next = X_next + (L @ (z - Cx)[..., None])[..., 0]
                log.append((idx, kg, t, method.id, measured, Tg, Xg, Pg))
                nexts = (X_next, P_next, Tg + method.latency(dyn.dt_s), kg + 1)
                if whole:
                    X, P, T, k = nexts
                else:
                    X, P, T, k = (_scatter(a, idx, b) for a, b in zip((X, P, T, k), nexts))
                pid[idx] = policy[node]
                t_next[idx] = t + method.steps
            t = int(t_next.min(initial=horizon_steps))
    except SourceExhausted:
        pass  # at t, and so at every later start of every run: each run ends at t_next
    X.setflags(write=False)
    P.setflags(write=False)
    return log, T, X, P, t_next


def _scatter(stack: np.ndarray, idx: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """A copy of `stack` with `rows` at `idx`."""
    out = stack.copy()
    out[idx] = rows
    return out


def _path_records(log: list, run) -> list:
    """Run `run`'s EpochRecords from `_shared_path`'s log; `...` reads a one-run log."""
    return [EpochRecord(k, t, method_id, measured, _trusted_belief(T, X[run], P))
            for k, t, method_id, measured, T, X, P in log]


def _grouped_records(log: list, runs: int) -> list:
    """Every run's EpochRecords from `_step_groups`' log, one list per run."""
    epochs = [[] for _ in range(runs)]
    for idx, k, t, method_id, measured, T, X, P in log:
        for i, epoch, belief in zip(idx.tolist(), k.tolist(),
                                    map(_trusted_belief, T.tolist(), X, P)):
            epochs[i].append(EpochRecord(epoch, t, method_id, measured, belief))
    return epochs
