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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .covgraph import CovarianceGraph, quantize
from .dynamics import ContinuousModel, DiscretizedDynamics, PerceptionMethod
from .errors import SourceExhausted
from .estimator import BeliefState, Measurement, correct, predict
from .exact import window_steps


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
    by prediction alone.
    """
    if incoming is not None:
        e = dyn.model.C @ belief.xhat - incoming.z
        window.push(prev_method.id, incoming.k, e)
        meas = incoming
        if use_adaptive:
            estimate = adaptive_R(window, prev_method, incoming.k, belief, dyn.model)
            meas = replace(incoming, R_actual=estimate)
        belief = correct(belief, meas, prev_method, dyn)
    else:
        belief = predict(belief, prev_method.latency(dyn.dt_s), dyn)
    next_id = int(policy[quantize(belief.Phat, graph)])
    return belief, next_id


def _interior_points(belief: BeliefState, count: int, dyn: DiscretizedDynamics):
    """xhat and tr P of `predict(belief, j * dt_s)` for j = 1..count-1.

    One stacked product over the step tables. It equals `predict` bit for bit
    unless BeliefState's PSD clamp would act: symmetrizing leaves the trace
    as it is. So when any point's least eigenvalue is not above 1e-12 * tr P,
    a margin far wider than the round-off asymmetry, the points come from
    `_predicted_points` instead.
    """
    Ad, Wd = dyn.step_pair(slice(1, count))
    xhat = Ad @ belief.xhat
    P = Ad @ belief.Phat @ Ad.mT + Wd
    trP = np.trace(P, axis1=1, axis2=2)
    if np.all(np.linalg.eigvalsh(P)[:, 0] > 1e-12 * trP):
        return xhat, trP.tolist()
    return _predicted_points(belief, count, dyn)


def _predicted_points(belief: BeliefState, count: int, dyn: DiscretizedDynamics):
    """The records of `_interior_points`, from one validating `predict` per point."""
    points = [predict(belief, j * dyn.dt_s, dyn) for j in range(1, count)]
    return [p.xhat for p in points], [float(np.trace(p.Phat)) for p in points]


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
    if np.min(policy) < 1 or np.max(policy) > len(methods):
        raise ValueError(f"policy holds method ids outside 1..{len(methods)}")
    horizon_steps = window_steps(horizon, dyn.dt_s)

    window = InnovationWindow(window_length)
    belief = BeliefState(0.0, model.x0, model.P0)
    pid = int(policy[quantize(belief.Phat, graph)])

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
        rec_steps.extend(range(t_steps, t_steps + count))
        rec_xhat.append(belief.xhat)
        rec_trP.append(float(np.trace(belief.Phat)))
        if count > 1:
            xhat, trP = _interior_points(belief, count, dyn)
            rec_xhat.extend(xhat)
            rec_trP.extend(trP)
        rec_method.extend([method.id] * count)
        rec_measured.extend([int(measured)] * count)
        belief, pid = mh_step(
            belief, meas, method, policy, graph, window, dyn, use_adaptive
        )
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
