"""Scenario configuration: JSON schema, validation, and assembly.

One JSON file describes a complete scenario: the target model, the perception
method bank, the cost window, and optional graph / simulation / certificate /
experiment blocks. Method penalties may be given directly or derived from CPU
and attention weights as

    penalty = lambda_load * cpu * latency + lambda_att

Validation errors name the offending JSON path. Keys the schema does not
name are ignored, so a file that still sets the removed `experiment.oracle`
or `experiment.oracle_samples` parses as if it did not.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import LyapunovCertificate
from .dynamics import ContinuousModel, PerceptionMethod, check_symmetric_psd, validate_methods
from .errors import ConfigError, InvalidModelError
from .exact import window_steps


def _require(block: dict, key: str, path: str):
    if key not in block:
        raise ConfigError(f"{path}.{key}: missing required field")
    return block[key]


def _number(value, path: str, positive: bool = False) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{path}: expected a number, got {type(value).__name__}")
    if not math.isfinite(value):
        raise ConfigError(f"{path}: must be finite")
    if positive and value <= 0:
        raise ConfigError(f"{path}: must be > 0")
    return float(value)


def _count(value, path: str) -> int:
    """A JSON integer >= 1 (a float such as 2.0 or 0.5 is not a count)."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ConfigError(f"{path}: expected a positive integer")
    return value


def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object")
    return value


def _seed(value, path: str) -> int:
    """A JSON integer >= 0 (a float such as 1.5 is not a seed)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{path}: expected an integer, got {type(value).__name__}")
    if value < 0:
        raise ConfigError(f"{path}: must be >= 0")
    return value


def _tf(value, dt_s: float, path: str) -> float:
    tf = _number(value, path, positive=True)
    _grid_steps(tf, dt_s, 1e-6, f"{path}: must be an integer multiple of model.dt_s")
    return tf


def _grid_steps(length: float, step: float, tol: float, message: str) -> int:
    try:
        return window_steps(length, step, tol)
    except ValueError:
        raise ConfigError(message) from None


def check_sim_grid(sim: SimConfig, dt_s: float) -> None:
    """ConfigError unless sim.dt divides dt_s and sim.horizon lies on both grids.

    A file without a `sim` block keeps the defaults (`dt` = dt_s, `horizon`
    10), so the tracking subcommands check them here before they simulate.
    """
    _grid_steps(dt_s, sim.dt, 1e-9, "sim.dt: must divide model.dt_s exactly")
    # The tolerances of run_loop (in model.dt_s) and simulate_sde (in sim.dt).
    _grid_steps(sim.horizon, dt_s, 1e-6,
                "sim.horizon: must be an integer multiple of model.dt_s")
    _grid_steps(sim.horizon, sim.dt, 1e-9,
                "sim.horizon: must be an integer multiple of sim.dt")


def _matrix(value, path: str) -> np.ndarray:
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{path}: expected a nested array of numbers") from None
    if arr.ndim != 2:
        raise ConfigError(f"{path}: expected a 2-D matrix, got shape {arr.shape}")
    return arr


def _vector(value, path: str) -> np.ndarray:
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{path}: expected an array of numbers") from None
    if arr.ndim != 1:
        raise ConfigError(f"{path}: expected a 1-D vector, got shape {arr.shape}")
    return arr


@dataclass
class GraphConfig:
    b0: float = 1.0
    count: int = 500
    seed: int = 0
    admit_tol: float | None = None


@dataclass
class SimConfig:
    dt: float
    horizon: float = 10.0
    occlusions: list = field(default_factory=list)
    true_R: dict = field(default_factory=dict)
    seed: int = 0
    runs: int = 1
    adaptive: bool = False
    window: int = 10


@dataclass
class ExperimentConfig:
    name: str = "moving-horizon"
    graph_sizes: list = field(default_factory=lambda: [50, 500, 5000])
    schedule_steps: int = 100
    true_R_factor: float = 4.0


@dataclass
class ScenarioConfig:
    model: ContinuousModel
    methods: list
    tf: float
    lam_alpha: float
    graph: GraphConfig
    sim: SimConfig
    experiment: ExperimentConfig
    gamma: float = 0.98
    certificate: LyapunovCertificate | None = None


def parse_scenario(payload: dict) -> ScenarioConfig:
    if not isinstance(payload, dict):
        raise ConfigError("top level: expected a JSON object")

    mblock = _object(_require(payload, "model", ""), "model")
    dt_s = _number(_require(mblock, "dt_s", "model"), "model.dt_s", positive=True)
    try:
        model = ContinuousModel(
            A=_matrix(_require(mblock, "A", "model"), "model.A"),
            B=_matrix(_require(mblock, "B", "model"), "model.B"),
            W=_matrix(_require(mblock, "W", "model"), "model.W"),
            C=_matrix(_require(mblock, "C", "model"), "model.C"),
            x0=_vector(_require(mblock, "x0", "model"), "model.x0"),
            P0=_matrix(_require(mblock, "P0", "model"), "model.P0"),
            dt_s=dt_s,
        )
    except InvalidModelError as exc:
        raise ConfigError(f"model: {exc}") from exc

    raw_methods = _require(payload, "methods", "")
    if not isinstance(raw_methods, list) or not raw_methods:
        raise ConfigError("methods: expected a non-empty array")
    methods = []
    for i, entry in enumerate(raw_methods):
        path = f"methods[{i}]"
        entry = _object(entry, path)
        steps = _count(_require(entry, "steps", path), f"{path}.steps")
        R = _matrix(_require(entry, "R", path), f"{path}.R")
        if R.shape != (model.n_z, model.n_z):
            raise ConfigError(
                f"{path}.R: shape {R.shape} does not match measurement dimension {model.n_z}"
            )
        cpu = _number(_require(entry, "cpu", path), f"{path}.cpu")
        if "penalty" in entry:
            penalty = _number(entry["penalty"], f"{path}.penalty")
        else:
            load = _number(entry.get("lambda_load", 0.0), f"{path}.lambda_load")
            att = _number(entry.get("lambda_att", 0.0), f"{path}.lambda_att")
            penalty = load * cpu * steps * dt_s + att
        try:
            methods.append(
                PerceptionMethod(id=i + 1, steps=steps, R=R, cpu=cpu, penalty=penalty)
            )
        except InvalidModelError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    validate_methods(methods)

    cblock = _object(_require(payload, "cost", ""), "cost")
    tf = _tf(_require(cblock, "Tf", "cost"), dt_s, "cost.Tf")
    lam = _number(_require(cblock, "lambda_alpha", "cost"), "cost.lambda_alpha")

    graph = GraphConfig()
    if "graph" in payload:
        g = _object(payload["graph"], "graph")
        graph = GraphConfig(
            b0=_number(g.get("B0", graph.b0), "graph.B0", positive=True),
            count=_count(g.get("count", graph.count), "graph.count"),
            seed=_seed(g.get("seed", graph.seed), "graph.seed"),
            admit_tol=None if g.get("admit_tol") is None
            else _number(g["admit_tol"], "graph.admit_tol", positive=True),
        )

    sim = SimConfig(dt=dt_s)
    if "sim" in payload:
        s = _object(payload["sim"], "sim")
        occl = s.get("occlusions", [])
        if not isinstance(occl, list) or any(
            not isinstance(w, list) or len(w) != 2 for w in occl
        ):
            raise ConfigError("sim.occlusions: expected an array of [start, stop] pairs")
        adaptive = s.get("adaptive_R", sim.adaptive)
        if not isinstance(adaptive, bool):
            raise ConfigError(f"sim.adaptive_R: expected true or false, got {adaptive!r}")
        true_R = {}
        for key, mat in _object(s.get("true_R", {}), "sim.true_R").items():
            try:
                mid = int(key)
            except ValueError:
                raise ConfigError(f"sim.true_R.{key}: keys must be method ids") from None
            if not 1 <= mid <= len(methods):
                raise ConfigError(f"sim.true_R.{key}: no such method id")
            R = _matrix(mat, f"sim.true_R.{key}")
            if R.shape != (model.n_z, model.n_z):
                raise ConfigError(f"sim.true_R.{key}: shape mismatch")
            try:
                true_R[mid] = check_symmetric_psd(R, "R")
            except InvalidModelError as exc:
                raise ConfigError(f"sim.true_R.{key}: {exc}") from None
        occlusions = [(_number(a, "sim.occlusions"), _number(b, "sim.occlusions"))
                      for a, b in occl]
        for i, (start, stop) in enumerate(occlusions):
            if not start < stop:
                raise ConfigError(f"sim.occlusions[{i}]: start must be < stop")
        sim = SimConfig(
            dt=_number(s.get("dt", sim.dt), "sim.dt", positive=True),
            horizon=_number(s.get("horizon", sim.horizon), "sim.horizon", positive=True),
            occlusions=occlusions,
            true_R=true_R,
            seed=_seed(s.get("seed", sim.seed), "sim.seed"),
            runs=_count(s.get("runs", sim.runs), "sim.runs"),
            adaptive=adaptive,
            window=_count(s.get("window", sim.window), "sim.window"),
        )
        check_sim_grid(sim, dt_s)

    gamma = 0.98
    certificate = None
    if "certificate" in payload:
        cert = _object(payload["certificate"], "certificate")
        gamma = _number(cert.get("gamma", gamma), "certificate.gamma")
        if not (0.0 < gamma < 1.0):
            raise ConfigError("certificate.gamma: must lie strictly in (0, 1)")
        if "Omega" in cert or "Y" in cert:
            omega = _matrix(_require(cert, "Omega", "certificate"), "certificate.Omega")
            ys_raw = _require(cert, "Y", "certificate")
            if not isinstance(ys_raw, list) or len(ys_raw) != len(methods):
                raise ConfigError("certificate.Y: expected one matrix per method")
            ys = tuple(_matrix(y, f"certificate.Y[{i}]") for i, y in enumerate(ys_raw))
            if omega.shape != (model.n_x, model.n_x):
                raise ConfigError("certificate.Omega: shape mismatch with model")
            for i, y in enumerate(ys):
                if y.shape != (model.n_x, model.n_z):
                    raise ConfigError(f"certificate.Y[{i}]: shape mismatch with model")
            try:
                certificate = LyapunovCertificate(omega=omega, ys=ys, gamma=gamma)
            except ValueError as exc:
                raise ConfigError(f"certificate: {exc}") from exc

    experiment = ExperimentConfig()
    if "experiment" in payload:
        e = _object(payload["experiment"], "experiment")
        name = e.get("name", experiment.name)
        known = ("bound-validation", "cost-histogram", "moving-horizon", "adaptive-R")
        if name not in known:
            raise ConfigError(f"experiment.name: expected one of {sorted(known)}")
        sizes = e.get("graph_sizes", experiment.graph_sizes)
        if not isinstance(sizes, list):
            raise ConfigError("experiment.graph_sizes: expected an array")
        experiment = ExperimentConfig(
            name=name,
            graph_sizes=[_count(v, f"experiment.graph_sizes[{i}]") for i, v in enumerate(sizes)],
            schedule_steps=_count(e.get("schedule_steps", experiment.schedule_steps),
                                  "experiment.schedule_steps"),
            true_R_factor=_number(
                e.get("true_R_factor", experiment.true_R_factor),
                "experiment.true_R_factor", positive=True),
        )

    return ScenarioConfig(
        model=model,
        methods=methods,
        tf=tf,
        lam_alpha=lam,
        graph=graph,
        sim=sim,
        experiment=experiment,
        gamma=gamma,
        certificate=certificate,
    )


def load_scenario(path) -> ScenarioConfig:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_scenario(payload)
