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

Without adaptation, the covariance half of an epoch (gain, next covariance
and its node) does not depend on the measured values, so `run_loop` keeps it
in a memo on the graph (`CovarianceGraph._epochs`), keyed on the start
covariance's bytes, the method and whether it measured, for one method list
(each method's steps and R) and one dynamics object. The mean half runs
every epoch. Adaptive runs bypass the memo: their R is an estimate, not the
method's. Like the graph's sweep memo it goes stale when `reps` or `succ`
are written into.

`run_lockstep` runs a stack of runs as one loop: the runs starting an epoch
at a sensor step are grouped by method and each group is stepped with one
stacked call per kernel. Without adaptation every run of the stack shares
one covariance path, so the stack reads the memo once per epoch, not once
per run. Hits therefore come from repeated runs on one graph: the
benchmark's tracking run, `run_loop` on one graph again and again; the other
tracking variants and later blocks of an `mc-eval` sweep; a covariance path
that repeats itself once it has converged. One `simulate` run gets only the
last kind. The two loops differ only in how they schedule epochs. Both keep
only the means epochs start at, which the means up to the next epoch are
pure predictions of: after the loop, `_traces` gives every interior sensor
step's mean from one gathered product per run or stack. No covariance is
kept there: `TrackingTrace.grid` derives tr P from the epochs' beliefs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .covgraph import CovarianceGraph, quantize
from .dynamics import ContinuousModel, DiscretizedDynamics, PerceptionMethod, _lapack
from .errors import SourceExhausted
from .estimator import (
    BeliefState,
    _trusted_belief,
    epoch_covariance,
    epoch_mean,
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
    entries each and start covariances `Phat (..., n, n)`. A stacked window
    holds its live entries last, after entries of +0.0, and holds at least one.
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


class _Transition(NamedTuple):
    """The covariance half of one epoch, a pure function of its memo key.

    gain: L of the correction, None for a dropped measurement.
    Phat: the next covariance, clamped and read-only.
    node: quantize(Phat), the node whose policy entry picks the next method.
    """

    gain: np.ndarray | None
    Phat: np.ndarray
    node: int


def _transition(Phat, method, R, graph: CovarianceGraph,
                dyn: DiscretizedDynamics) -> _Transition:
    """The covariance half of an epoch from one covariance or a stack; `R` is None when dropped."""
    L, P_next = epoch_covariance(Phat, method, dyn, R)
    return _Transition(L, P_next, quantize(P_next, graph))


def _epoch_memo(graph: CovarianceGraph, methods, dyn: DiscretizedDynamics) -> dict:
    """The graph's table of epoch transitions for these methods and `dyn`.

    The table maps `(Phat bytes, method id, measured)` to a
    `_Transition`, and a run's start covariance bytes to its node.
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


@dataclass
class TrackingTrace:
    """Loop output: per-epoch records plus the estimate means on the sensor grid.

    `grid_xhat` is filled after the last epoch, by `_traces`; `grid` derives
    tr P, the method and the measured flag there from the epochs.
    """

    dt_s: float
    horizon_steps: int
    epochs: list
    final_belief: BeliefState
    grid_steps: np.ndarray
    grid_xhat: np.ndarray

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
    `begun` marks; run i's next epoch would start at `t_next[i]`. Step s of
    an epoch started at t < s gets Ad(s - t) x_t, the mean half of `predict`,
    from one product gathered over every run and step. A run whose source ran
    out at an epoch start ends there; one whose last epoch ends on the
    horizon takes its final belief's mean (`finals`) at the endpoint.
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
        end = end if end < horizon_steps else horizon_steps + 1
        traces.append(TrackingTrace(dyn.dt_s, horizon_steps, run_epochs, final,
                                    np.arange(end, dtype=np.int64), x[:end]))
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
    """
    policy = _checked_policy(policy, graph, methods)
    horizon_steps = window_steps(horizon, dyn.dt_s)

    window = InnovationWindow(window_length)
    # Only adaptive R reads the innovations, and adaptive runs bypass the memo.
    if use_adaptive:
        memo = None
    else:
        window, memo = None, _epoch_memo(graph, methods, dyn)
    belief = BeliefState(0.0, model.x0, model.P0)
    pid = int(policy[_remember(memo, belief.Phat.tobytes(),
                               lambda: quantize(belief.Phat, graph))])
    epochs: list[EpochRecord] = []

    k = 0
    t_steps = 0
    while t_steps < horizon_steps:
        method = methods[pid - 1]
        try:
            meas = source(k, t_steps, method)
        except SourceExhausted:
            break
        measured = meas is not None
        epochs.append(EpochRecord(k, t_steps, method.id, measured, belief))
        R = method.R if measured else None
        if measured and window is not None:
            window.push(method.id, meas.k, dyn.model.C @ belief.xhat - meas.z)
            R = adaptive_R(window, method, meas.k, belief, dyn.model)
        if memo is None:
            step = _transition(belief.Phat, method, R, graph, dyn)
        else:
            step = _remember(memo, (belief.Phat.tobytes(), method.id, measured),
                             lambda: _transition(belief.Phat, method, R, graph, dyn))
        belief = epoch_mean(belief, method, dyn, step.gain, step.Phat,
                            meas.z if measured else None)
        pid = int(policy[step.node])
        t_steps += method.steps
        k += 1
    xhat = np.empty((1, horizon_steps + 1, model.n_x))
    begun = np.zeros(xhat.shape[:2], dtype=bool)
    starts = [epoch.t_steps for epoch in epochs]
    xhat[0, starts] = np.reshape([epoch.belief.xhat for epoch in epochs], (-1, model.n_x))
    begun[0, starts] = True
    return _traces(dyn, xhat, begun, np.array([t_steps]), [epochs], [belief])[0]


def _push(ring, runs, k: np.ndarray, e: np.ndarray, length: int):
    """Push innovations `e` of epochs `k` into the rings of `runs`; their windows.

    `runs` indexes the ring's rows (an index array or a slice). `ring` holds
    each run's last `length` innovation outer products e e' of one method
    and their epochs, oldest first, as `InnovationWindow` buffers the
    innovations. Returns the windows with the entries older than `length`
    epochs zeroed (they lead the window) and the count of the rest, as
    `_estimate_R` takes them.
    """
    outer, epochs = ring
    window = np.concatenate((outer[runs, 1:], (e[:, :, None] * e[:, None, :])[:, None]), axis=1)
    at = np.concatenate((epochs[runs, 1:], k[:, None]), axis=1)
    outer[runs], epochs[runs] = window, at
    live = k[:, None] - at <= length
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
    per run, read through its `draw`. Time advances in sensor steps. At each
    step the runs whose epoch starts there are split by the method they
    start, every group fixed before any is stepped, and each group takes one
    stacked call per kernel: the adaptive-R estimate, `epoch_covariance`,
    `quantize` and the mean half; the interior sensor steps' means come after
    the last step, from one `_traces` product over the stack. Without
    adaptation all runs share one covariance path, so the stack reads the
    graph's epoch memo once per epoch. Each stacked product is `run_loop`'s
    product for one run, stacked, so every trace equals `run_loop`'s over the
    same path and generator bit for bit, and a run whose kernels raise raises
    what `run_loop` raises when stepped alone. A source that runs out ends
    the runs it ran out for.
    """
    policy = _checked_policy(policy, graph, methods)
    if window_length < 1:
        raise ValueError("window length must be >= 1")
    horizon_steps = window_steps(horizon, dyn.dt_s)
    runs, C = len(source.path), model.C
    memo = None if use_adaptive else _epoch_memo(graph, methods, dyn)
    start = BeliefState(0.0, model.x0, model.P0)
    node = _remember(memo, start.Phat.tobytes(), lambda: quantize(start.Phat, graph))

    X = np.tile(start.xhat, (runs, 1))
    P = np.tile(start.Phat, (runs, 1, 1))
    T = np.zeros(runs)
    k = np.zeros(runs, dtype=np.int64)
    pid = np.full(runs, policy[node])
    # A run whose source runs out keeps that epoch's start, which no later
    # step matches.
    t_next = np.zeros(runs, dtype=np.int64)
    # Epoch -(length + 1) is out of every window: an empty slot.
    rings = {m.id: (np.zeros((runs, window_length, model.n_z, model.n_z)),
                    np.full((runs, window_length), -window_length - 1)) for m in methods}
    xhat = np.empty((runs, horizon_steps + 1, model.n_x))
    begun = np.zeros(xhat.shape[:2], dtype=bool)
    epochs: list[list] = [[] for _ in range(runs)]

    for t in range(horizon_steps):
        starting = np.flatnonzero(t_next == t)
        if not starting.size:
            continue
        # Fixed before any group is stepped: a stepped run starts no second
        # epoch at t under the method its node now picks.
        starts = pid[starting]
        groups = [(m, starting[starts == m.id]) for m in methods]
        for method, idx in groups:
            if not idx.size:
                continue
            try:
                z = source.draw(idx, t, method)
            except SourceExhausted:
                continue
            # A group of every run reads and writes the state with basic
            # indexing, which costs less than gathering it.
            whole = idx.size == runs
            sel = slice(None) if whole else idx
            measured = z is not None
            Xg, Pg = (X.copy(), P.copy()) if whole else (X[idx], P[idx])
            Xg.setflags(write=False)
            Pg.setflags(write=False)
            kg = k[sel]
            if measured:
                Cx = (C @ Xg[..., None])[..., 0]
            R = method.R if measured else None
            if measured and memo is None:
                E, counts = _push(rings[method.id], sel, kg, Cx - z, window_length)
                R = _estimate_R(E, counts, Pg, method, model)
            # An adaptive group steps each run's covariance, without the memo.
            # Without adaptation the covariance half reads no measurement, and
            # the source drops or runs out for the whole stack at a step, so
            # every run starts every epoch from the covariance of the others:
            # one group, one memo read.
            if memo is None:
                L, P_next, node = _transition(Pg, method, R, graph, dyn)
            else:
                L, P_next, node = _remember(memo, (Pg[0].tobytes(), method.id, measured),
                                            lambda: _transition(Pg[0], method, R, graph, dyn))
            Ad = dyn.step_pair(method.steps)[0]
            X_next = (Ad @ Xg[..., None])[..., 0]
            if measured:
                X_next = X_next + (L @ (z - Cx)[..., None])[..., 0]

            for i, epoch, belief in zip(idx.tolist(), kg.tolist(),
                                        map(_trusted_belief, T[sel].tolist(), Xg, Pg)):
                epochs[i].append(EpochRecord(epoch, t, method.id, measured, belief))
            xhat[sel, t], begun[sel, t] = Xg, True

            X[sel], P[sel] = X_next, P_next
            T[sel] += method.latency(dyn.dt_s)
            k[sel] += 1
            pid[sel] = policy[node]
            t_next[sel] = t + method.steps

    X.setflags(write=False)
    P.setflags(write=False)
    return _traces(dyn, xhat, begun, t_next, epochs,
                   list(map(_trusted_belief, T.tolist(), X, P)))
