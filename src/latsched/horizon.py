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
R) and one dynamics object. The mean half runs every epoch. Hits come from
repeated runs on one graph (`mc-eval` sweeps, the benchmark), not from one
`simulate` run. Adaptive runs and measurements with their own `R_actual`
bypass the memo, and `mh_step` reads none. Like the graph's sweep memo it
goes stale when `reps` or `succ` are written into.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .covgraph import CovarianceGraph, quantize
from .dynamics import ContinuousModel, DiscretizedDynamics, PerceptionMethod
from .errors import SourceExhausted
from .estimator import BeliefState, Measurement, epoch_covariance, epoch_mean, predict
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
    C = model.C
    E = np.array(entries)
    # Python's sum adds the outer products in window order, as a loop would.
    raw = sum(E[:, :, None] * E[:, None, :]) / len(entries)
    raw = raw - C @ belief_pre.Phat @ C.T
    raw = 0.5 * (raw + raw.T)
    floor = 1e-6 * np.trace(method.R) / model.n_z
    eigvals, eigvecs = np.linalg.eigh(raw)
    if eigvals[-1] <= 0.0:
        return floor * np.eye(model.n_z)
    if eigvals[0] >= 0.0:
        return raw
    eigvals = np.where(eigvals < 0.0, floor, eigvals)
    clipped = (eigvecs * eigvals) @ eigvecs.T
    return 0.5 * (clipped + clipped.T)


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

    Points j >= 1 come from one stacked product over the step tables. Their
    traces equal `predict`'s bit for bit unless BeliefState's PSD clamp would
    act: symmetrizing leaves the trace as it is. So when any point's least
    eigenvalue is not above 1e-12 * tr P, a margin far wider than the
    round-off asymmetry, the result is None and the epoch's points come from
    `_predicted_points`.
    """
    trP = [float(np.trace(Phat))]
    if count > 1:
        Ad, Wd = dyn.step_pair(slice(1, count))
        P = Ad @ Phat @ Ad.mT + Wd
        interior = np.trace(P, axis1=1, axis2=2)
        if not np.all(np.linalg.eigvalsh(P)[:, 0] > 1e-12 * interior):
            return None
        trP.extend(interior.tolist())
    return trP


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
           dyn: DiscretizedDynamics, use_adaptive: bool, memo: dict | None):
    """One epoch: its `_Transition` and the belief one latency later.

    `count` is the number of the epoch's sensor steps to record. The
    innovation goes into `window` unless it is None. The transition is read
    from `memo` (when given) unless the measurement's R is not the method's
    nominal one: an adaptive estimate or a source's `R_actual`.
    """
    measured = incoming is not None
    R = method.R if measured else None
    if measured:
        if window is not None:
            window.push(method.id, incoming.k, dyn.model.C @ belief.xhat - incoming.z)
        # An R other than the nominal one is not in the memo's key.
        if use_adaptive:
            R, memo = adaptive_R(window, method, incoming.k, belief, dyn.model), None
        elif incoming.R_actual is not None:
            R, memo = np.asarray(incoming.R_actual, dtype=float), None
    step = _remember(memo, (belief.Phat.tobytes(), method.id, measured, count),
                     lambda: _transition(belief.Phat, method, R, count, graph, dyn))
    z = incoming.z if measured else None
    return step, epoch_mean(belief, method, dyn, step.gain, step.Phat, z)


def mh_step(
    belief: BeliefState,
    incoming: Measurement | None,
    prev_method: PerceptionMethod,
    policy,
    graph: CovarianceGraph,
    window: InnovationWindow,
    dyn: DiscretizedDynamics,
    use_adaptive: bool = False,
) -> tuple[BeliefState, int]:
    """One epoch transition: correct-or-predict, then the next policy decision.

    `belief` sits at the epoch where `prev_method` captured its raw frame; the
    returned belief sits one latency later. `incoming` is None when the
    measurement was dropped (occlusion), in which case the belief is advanced
    by prediction alone. It reads no memo.
    """
    step, belief = _epoch(belief, incoming, prev_method, 1, graph, window, dyn,
                          use_adaptive, None)
    return belief, int(policy[step.node])


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
        step, next_belief = _epoch(belief, meas, method, count, graph, window, dyn,
                                   use_adaptive, memo)
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
