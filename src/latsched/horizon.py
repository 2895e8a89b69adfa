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

Without adaptation, the covariance half of an epoch (gain, next covariance,
its node, the interior traces) does not depend on the measured values, so
`run_loop` keeps it in a memo on the graph (`CovarianceGraph._epochs`),
keyed on the start covariance's bytes, the method, whether it measured and
the number of recorded steps, for one method list (each method's steps and
R) and one dynamics object. The mean half runs every epoch. Adaptive runs
and measurements with their own `R_actual` bypass the memo. Like the graph's
sweep memo it goes stale when `reps` or `succ` are written into.

`run_lockstep` runs a stack of runs as one loop: the runs starting an epoch
at a sensor step are grouped by method and each group is stepped with one
stacked call per kernel. Without adaptation every run of the stack shares
one covariance path, so the stack reads the memo once per epoch, not once
per run. Hits therefore come from repeated runs on one graph: the
benchmark's tracking run, `run_loop` on one graph again and again; the other
tracking variants and later blocks of an `mc-eval` sweep; a covariance path
that repeats itself once it has converged. One `simulate` run gets only the
last kind.
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
    Measurement,
    _trusted_belief,
    epoch_covariance,
    epoch_mean,
    predict,
)
from .exact import window_steps

# Entries a graph's epoch memo holds before it is cleared. On the shipped
# 4-state model an entry takes 0.75-0.93 KB (tracemalloc) and a gain adds
# 0.18 KB, so a full memo stays under 0.6 MB; the moving-horizon and
# adaptive-R experiments fill 204 and 59 entries.
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
    # One window is tested on numpy scalars, as in _gain_and_next_cov.
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
    trP: tr P at sensor steps j = 0..count-1 of the epoch, or None where
        BeliefState's PSD clamp could act on an interior point, so the
        epoch's points come from `_predicted_points`.
    """

    gain: np.ndarray | None
    Phat: np.ndarray
    node: int
    trP: list | None


def _transition(Phat, method, R, count: int, graph: CovarianceGraph,
                dyn: DiscretizedDynamics) -> _Transition:
    """The covariance half of an epoch; `R` is None for a dropped measurement."""
    L, P_next = epoch_covariance(Phat, method, dyn, R)
    return _Transition(L, P_next, quantize(P_next, graph), _epoch_traces(Phat, count, dyn))


def _epoch_traces(Phat: np.ndarray, count: int, dyn: DiscretizedDynamics):
    """tr P of `predict` from Phat over j * dt_s for j = 0..count-1, or None.

    The list of `_stacked_traces`, or None where they do not stand.
    """
    trP, stand = _stacked_traces(Phat, count, dyn)
    return trP.tolist() if stand else None


def _stacked_traces(Phat: np.ndarray, count: int, dyn: DiscretizedDynamics):
    """`_epoch_traces` of one covariance or a stack `(..., n, n)`: traces and a mask.

    Returns the traces `(..., count)` and where they stand (`(...)`, or one
    numpy bool for all). Points j >= 1 come from one stacked product over the
    step tables. Their traces equal `predict`'s bit for bit unless
    BeliefState's PSD clamp would act: symmetrizing leaves the trace as it
    is. So where any point's least eigenvalue is not above 1e-12 * tr P, a
    margin far wider than the round-off asymmetry, the traces do not stand
    and the epoch's points come from `_predicted_points`.
    """
    trP = Phat.trace(axis1=-2, axis2=-1)[..., None]
    if count == 1:
        return trP, np.True_
    Ad, Wd = dyn.step_pair(slice(1, count))
    P = Ad @ Phat[..., None, :, :] @ Ad.mT + Wd
    interior = P.trace(axis1=-2, axis2=-1)
    stand = (_lapack("eigvalsh", P)[..., 0] > 1e-12 * interior).all(axis=-1)
    return np.concatenate((trP, interior), axis=-1), stand


def _points(belief: BeliefState, trP, count: int, dyn: DiscretizedDynamics):
    """xhat and tr P at steps j = 0..count-1 of an epoch, given its `_epoch_traces`.

    Interior xhat come from one stacked product over the step tables, the
    mean half of `predict`; a None `trP` hands the epoch to `_predicted_points`.
    """
    if trP is None:
        return _predicted_points(belief, count, dyn)
    xhat = [belief.xhat]
    if count > 1:
        xhat.extend(dyn.step_pair(slice(1, count))[0] @ belief.xhat)
    return xhat, trP


def _predicted_points(belief: BeliefState, count: int, dyn: DiscretizedDynamics):
    """xhat and tr P at steps j = 0..count-1, from one validating `predict` per point."""
    points = [predict(belief, j * dyn.dt_s, dyn) for j in range(count)]
    return [p.xhat for p in points], [float(np.trace(p.Phat)) for p in points]


def _epoch_memo(graph: CovarianceGraph, methods, dyn: DiscretizedDynamics) -> dict:
    """The graph's table of epoch transitions for these methods and `dyn`.

    The entry holds `dyn`, so its id is never reused. The table maps
    `(Phat bytes, method id, measured, count)` to a `_Transition`, and a
    run's start covariance bytes to its node.
    """
    key = tuple((m.steps, m.R.tobytes()) for m in methods)
    memo = graph._epochs
    if memo is None or memo[1] is not dyn or memo[0] != key:
        memo = graph._epochs = (key, dyn, {})
    return memo[2]


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


def _epoch(belief: BeliefState, incoming: Measurement | None, method: PerceptionMethod,
           count: int, graph: CovarianceGraph, window: InnovationWindow | None,
           dyn: DiscretizedDynamics, memo: dict | None):
    """One epoch: its `_Transition` and the belief one latency later.

    `count` is the number of the epoch's sensor steps to record. A `window`
    means adaptive R: the innovation goes into it and R is estimated from it.
    The transition is read from `memo` (when given) unless the measurement's
    R is not the method's nominal one: an adaptive estimate or a source's
    `R_actual`.
    """
    measured = incoming is not None
    R = method.R if measured else None
    if measured:
        # An R other than the nominal one is not in the memo's key.
        if window is not None:
            window.push(method.id, incoming.k, dyn.model.C @ belief.xhat - incoming.z)
            R, memo = adaptive_R(window, method, incoming.k, belief, dyn.model), None
        elif incoming.R_actual is not None:
            R, memo = np.asarray(incoming.R_actual, dtype=float), None
    step = _remember(memo, (belief.Phat.tobytes(), method.id, measured, count),
                     lambda: _transition(belief.Phat, method, R, count, graph, dyn))
    z = incoming.z if measured else None
    return step, epoch_mean(belief, method, dyn, step.gain, step.Phat, z)


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
    """Loop output: per-epoch records plus a sensor-grid belief trace."""

    dt_s: float
    horizon_steps: int
    epochs: list
    final_belief: BeliefState
    grid_steps: np.ndarray
    grid_xhat: np.ndarray
    grid_trP: np.ndarray
    grid_method: np.ndarray
    grid_measured: np.ndarray

    def write_csv(self, path) -> None:
        n = self.grid_xhat.shape[1]
        header = ["t"] + [f"xhat_{i}" for i in range(n)] + ["trP", "method_id", "measured"]
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for i, step in enumerate(self.grid_steps):
                row = [repr(float(step * self.dt_s))]
                row += [repr(float(v)) for v in self.grid_xhat[i]]
                row += [repr(float(self.grid_trP[i])),
                        str(int(self.grid_method[i])),
                        str(int(self.grid_measured[i]))]
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
    rec_steps: list[int] = []
    rec_xhat: list[np.ndarray] = []
    rec_trP: list[float] = []
    rec_method: list[int] = []
    rec_measured: list[int] = []

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
        # Sensor steps j = 0..count-1 of the epoch that lie on the horizon.
        count = min(method.steps, horizon_steps - t_steps + 1)
        step, next_belief = _epoch(belief, meas, method, count, graph, window, dyn, memo)
        rec_steps.extend(range(t_steps, t_steps + count))
        xhat, trP = _points(belief, step.trP, count, dyn)
        rec_xhat.extend(xhat)
        rec_trP.extend(trP)
        rec_method.extend([method.id] * count)
        rec_measured.extend([int(measured)] * count)
        belief = next_belief
        pid = int(policy[step.node])
        t_steps += method.steps
        k += 1

    # A final epoch ending exactly on the horizon leaves the endpoint
    # unrecorded (an epoch records its steps 0..steps-1); the belief sits there.
    if t_steps == horizon_steps and (not rec_steps or rec_steps[-1] < horizon_steps):
        rec_steps.append(horizon_steps)
        rec_xhat.append(belief.xhat)
        rec_trP.append(float(np.trace(belief.Phat)))
        rec_method.append(epochs[-1].method_id if epochs else 0)
        rec_measured.append(int(epochs[-1].measured) if epochs else 0)

    return TrackingTrace(
        dt_s=dyn.dt_s,
        horizon_steps=horizon_steps,
        epochs=epochs,
        final_belief=belief,
        grid_steps=np.asarray(rec_steps, dtype=np.int64),
        grid_xhat=np.asarray(rec_xhat, dtype=float),
        grid_trP=np.asarray(rec_trP, dtype=float),
        grid_method=np.asarray(rec_method, dtype=np.int64),
        grid_measured=np.asarray(rec_measured, dtype=np.int64),
    )


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
    `quantize`, `_stacked_traces` and the mean half. Without adaptation all
    runs share one covariance path, so the stack reads the graph's epoch memo
    once per epoch. Each stacked product is `run_loop`'s product for one run, stacked, so
    every trace equals `run_loop`'s over the same path and generator bit for
    bit, and a run whose kernels raise raises what `run_loop` raises when
    stepped alone. A source that runs out ends the runs it ran out for.
    """
    policy = _checked_policy(policy, graph, methods)
    if window_length < 1:
        raise ValueError("window length must be >= 1")
    horizon_steps = window_steps(horizon, dyn.dt_s)
    runs, n, C = len(source.path), model.n_x, model.C
    memo = None if use_adaptive else _epoch_memo(graph, methods, dyn)
    start = BeliefState(0.0, model.x0, model.P0)
    node = _remember(memo, start.Phat.tobytes(), lambda: quantize(start.Phat, graph))

    X = np.tile(start.xhat, (runs, 1))
    P = np.tile(start.Phat, (runs, 1, 1))
    T = np.zeros(runs)
    k = np.zeros(runs, dtype=np.int64)
    pid = np.full(runs, policy[node])
    t_next = np.zeros(runs, dtype=np.int64)  # -1 once a run's source has run out
    recorded = np.full(runs, horizon_steps + 1)
    # Epoch -(length + 1) is out of every window: an empty slot.
    rings = {m.id: (np.zeros((runs, window_length, model.n_z, model.n_z)),
                    np.full((runs, window_length), -window_length - 1)) for m in methods}
    grid_xhat = np.empty((runs, horizon_steps + 1, n))
    grid_trP = np.empty((runs, horizon_steps + 1))
    grid_method = np.zeros((runs, horizon_steps + 1), dtype=np.int64)
    grid_measured = np.zeros((runs, horizon_steps + 1), dtype=np.int64)
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
                t_next[idx], recorded[idx] = -1, t
                continue
            # A group of every run reads and writes the state with basic
            # indexing, which costs less than gathering it.
            whole = idx.size == runs
            sel = slice(None) if whole else idx
            measured = z is not None
            count = min(method.steps, horizon_steps - t + 1)
            Xg, Pg = (X.copy(), P.copy()) if whole else (X[idx], P[idx])
            Xg.setflags(write=False)
            Pg.setflags(write=False)
            kg = k[sel]
            if measured:
                Cx = (C @ Xg[..., None])[..., 0]
            if memo is not None:
                # Without adaptation the covariance half reads no measurement,
                # and the source drops or runs out for the whole stack at a
                # step, so every run starts every epoch from the covariance
                # of the others: one group, one memo read.
                step = _remember(memo, (Pg[0].tobytes(), method.id, measured, count),
                                 lambda: _transition(Pg[0], method, method.R if measured else None,
                                                     count, graph, dyn))
                L, P_next, node, trP = step
                trP, stand = (trP, np.True_) if trP is not None else (np.nan, np.False_)
            else:
                R = None
                if measured:
                    E, counts = _push(rings[method.id], sel, kg, Cx - z, window_length)
                    R = _estimate_R(E, counts, Pg, method, model)
                L, P_next = epoch_covariance(Pg, method, dyn, R)
                node = quantize(P_next, graph)
                trP, stand = _stacked_traces(Pg, count, dyn)
            Ad = dyn.step_pair(method.steps)[0]
            X_next = (Ad @ Xg[..., None])[..., 0]
            if measured:
                X_next = X_next + (L @ (z - Cx)[..., None])[..., 0]

            stop = t + count
            grid_xhat[sel, t] = Xg
            if count > 1:
                grid_xhat[sel, t + 1:stop] = \
                    (dyn.step_pair(slice(1, count))[0] @ Xg[:, None, :, None])[..., 0]
            grid_trP[sel, t:stop] = trP
            grid_method[sel, t:stop] = method.id
            grid_measured[sel, t:stop] = measured
            beliefs = list(map(_trusted_belief, T[sel].tolist(), Xg, Pg))
            for i, epoch, belief in zip(idx.tolist(), kg.tolist(), beliefs):
                epochs[i].append(EpochRecord(epoch, t, method.id, measured, belief))
            if not stand.all():
                for j in np.flatnonzero(~np.broadcast_to(stand, idx.shape)):
                    grid_xhat[idx[j], t:stop], grid_trP[idx[j], t:stop] = \
                        _predicted_points(beliefs[j], count, dyn)

            X[sel], P[sel] = X_next, P_next
            T[sel] += method.latency(dyn.dt_s)
            k[sel] += 1
            pid[sel] = policy[node]
            t_next[sel] = t + method.steps

    X.setflags(write=False)
    P.setflags(write=False)
    traces = []
    for i in range(runs):
        # A final epoch ending exactly on the horizon leaves the endpoint
        # unrecorded, as in run_loop; the belief sits there.
        if t_next[i] == horizon_steps:
            last = epochs[i][-1] if epochs[i] else None
            grid_xhat[i, horizon_steps] = X[i]
            grid_trP[i, horizon_steps] = float(np.trace(P[i]))
            grid_method[i, horizon_steps] = last.method_id if last else 0
            grid_measured[i, horizon_steps] = int(last.measured) if last else 0
        end = recorded[i]
        traces.append(TrackingTrace(
            dt_s=dyn.dt_s,
            horizon_steps=horizon_steps,
            epochs=epochs[i],
            final_belief=_trusted_belief(float(T[i]), X[i], P[i]),
            grid_steps=np.arange(end, dtype=np.int64),
            grid_xhat=grid_xhat[i, :end],
            grid_trP=grid_trP[i, :end],
            grid_method=grid_method[i, :end],
            grid_measured=grid_measured[i, :end],
        ))
    return traces
