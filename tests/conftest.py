import time

import numpy as np
import pytest
from hypothesis import strategies as st

from latsched import ContinuousModel, PerceptionMethod, build_dynamics
from latsched.exact import window_steps
from latsched.sim import sqrt_psd

DT_S = 1.0 / 30.0


def benchmark_model(**overrides):
    """Planar double-integrator target with position detections."""
    params = dict(
        A=[[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]],
        B=[[0, 0], [1, 0], [0, 0], [0, 1]],
        W=np.diag([0.5, 0.5]),
        C=[[1, 0, 0, 0], [0, 0, 1, 0]],
        x0=np.zeros(4),
        P0=4 * np.eye(4),
        dt_s=DT_S,
    )
    params.update(overrides)
    return ContinuousModel(**params)


def benchmark_methods():
    """Fast/cheap vs slow/accurate detector pair."""
    return [
        PerceptionMethod(id=1, steps=3, R=np.diag([0.5, 0.5]), cpu=0.5,
                         penalty=0.5 * 3 * DT_S),
        PerceptionMethod(id=2, steps=9, R=np.diag([0.05, 0.05]), cpu=0.8,
                         penalty=0.8 * 9 * DT_S),
    ]


@pytest.fixture(scope="session")
def bench():
    model = benchmark_model()
    methods = benchmark_methods()
    dyn = build_dynamics(model, methods)
    return model, methods, dyn


def scalar_setup(ad: float = 1.0, r: float = 1.0, w: float = 0.0, dt_s: float = 1.0):
    """1-D model whose one-step transition is exactly `ad`."""
    a = float(np.log(ad)) if ad > 0 else 0.0
    model = ContinuousModel(
        A=[[a]], B=[[1.0]], W=[[w]], C=[[1.0]], x0=[0.0], P0=[[1.0]], dt_s=dt_s,
    )
    method = PerceptionMethod(id=1, steps=1, R=[[r]], cpu=0.5, penalty=0.0)
    dyn = build_dynamics(model, [method])
    return model, method, dyn


def switched_step(P, method, gains: dict, dyn) -> np.ndarray:
    """Fixed-gain covariance recursion P -> Lam P Lam' + L R L' + Wd.

    `gains` maps method id to its fixed gain L; Lam = Ad - L C. The optimal
    filter never beats it in trace, and the certificate's bound holds for it.
    """
    Ad, Wd = dyn.step_pair(method.steps)
    L = np.asarray(gains[method.id], dtype=float)
    Lam = Ad - L @ dyn.model.C
    P_next = Lam @ P @ Lam.T + L @ method.R @ L.T + Wd
    return 0.5 * (P_next + P_next.T)


def random_spd(rng, n: int, scale: float = 1.0) -> np.ndarray:
    mat = rng.standard_normal((n, n))
    spd = mat @ mat.T + 0.1 * np.eye(n)
    return spd * (scale / np.linalg.norm(spd, "fro"))


@st.composite
def exact_spd(draw, n: int) -> np.ndarray:
    """Exactly symmetric positive-definite (n, n) matrices, which symmetrizing
    and the PSD clamp leave bit for bit unchanged."""
    entries = draw(st.lists(st.floats(-2.0, 2.0), min_size=n * n, max_size=n * n))
    G = np.array(entries).reshape(n, n)
    S = G @ G.T + np.eye(n)
    return 0.5 * (S + S.T)


def window_time_ratio(run, rounds: int = 11, batch: int = 5) -> float:
    """Time of run(16.0) over run(8.0): the median ratio of the calmest rounds.

    A round times `batch` back-to-back calls of each window, one window right
    after the other, so a shift in machine speed between rounds cancels in
    the round's ratio. The first rounds of a fresh process can run at half
    speed, and a shared machine stalls at random; both only add time, so the
    four rounds of most total time are dropped and the median ratio of the
    rest is the result. The warm-up runs the window timed last, so every
    batch, the first one too, follows a batch of the other window.
    """
    run(16.0)  # warm-up
    times = np.empty((rounds, 2))
    for i in range(rounds):
        for k, tf in enumerate((8.0, 16.0)):
            start = time.perf_counter()
            for _ in range(batch):
                run(tf)
            times[i, k] = time.perf_counter() - start
    calm = np.argsort(times.sum(axis=1))[:rounds - 4]
    return float(np.median(times[calm, 1] / times[calm, 0]))


def per_step_ensemble(model, horizon, dt, runs, seed, record_steps=None):
    """Euler-Maruyama paths of `runs` targets, one generator call and one kick product per step.

    Each step draws the normals of all runs together from one generator, in
    the order `simulate_sde` reads a path's normals, so at one run the path
    is `simulate_sde`'s up to round-off, with the same start state bit for
    bit. Returns (t, x) with x of shape (runs, len(record_steps), n_x);
    `record_steps` (all grid indices by default) picks the stored points.
    """
    n_steps = window_steps(horizon, dt, 1e-9)
    rng = np.random.default_rng(seed)
    n = model.n_x
    if record_steps is None:
        record_steps = np.arange(n_steps + 1)
    else:
        record_steps = np.asarray(sorted(set(int(s) for s in record_steps)), dtype=np.int64)
    record_at = {int(s): i for i, s in enumerate(record_steps)}

    x = model.x0 + rng.standard_normal((runs, n)) @ sqrt_psd(model.P0).T
    noise_map = (model.B @ sqrt_psd(model.W)) * np.sqrt(dt)
    out = np.empty((runs, record_steps.size, n))
    if 0 in record_at:
        out[:, record_at[0]] = x
    for j in range(1, n_steps + 1):
        drift = x @ model.A.T
        kicks = rng.standard_normal((runs, model.n_w)) @ noise_map.T
        x = x + drift * dt + kicks
        if j in record_at:
            out[:, record_at[j]] = x
    return record_steps * dt, out
