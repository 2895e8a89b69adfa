"""Lockstep Monte-Carlo sweeps against runs made one at a time.

`monte_carlo` steps each block of tracking runs together with `run_lockstep`.
The references here are built run by run from `simulate_sde`, a one-path
`GridMeasurementSource`, `run_loop` and `metrics`, and rows and traces must
equal theirs bit for bit.
"""

import dataclasses
import json
import math
import re
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from latsched import (
    BeliefState,
    ContinuousModel,
    GridMeasurementSource,
    IncompleteScheduleError,
    InnovationWindow,
    PerceptionMethod,
    SourceExhausted,
    adaptive_R,
    attach_policy,
    build_dynamics,
    expand_graph,
    metrics,
    monte_carlo,
    quantize,
    run_loop,
    sample_region,
    simulate_sde,
)
from latsched import cli, covgraph, experiments, horizon, sim
from latsched.config import load_scenario, parse_scenario
from latsched.exact import check_covering, window_steps
from latsched.horizon import EpochRecord, TrackingTrace, run_lockstep
from latsched.sim import (
    _schedule,
    block_metrics,
    block_mse,
    empirical_cost,
    grid_ratio,
    sqrt_psd,
)
from test_epoch_memo import assert_same_trace

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def noise_mismatch(name, lam_alpha=5.0, horizon_s=10.0, occlusions=(), adaptive=True):
    """The shipped noise_mismatch scenario under one experiment and variant."""
    payload = json.loads((CONFIGS / "noise_mismatch.json").read_text())
    payload["cost"]["lambda_alpha"] = lam_alpha
    payload["sim"].update(horizon=horizon_s, occlusions=[list(o) for o in occlusions],
                          adaptive_R=adaptive)
    payload["experiment"] = ({"name": "adaptive-R", "true_R_factor": 9.0}
                             if name == "adaptive-R" else {"name": name})
    return parse_scenario(payload)


_GRAPHS = {}


def graph_for(cfg, dyn):
    """The experiment's graph and policy, built through the public functions."""
    key = (cfg.lam_alpha, cfg.tf)
    if key not in _GRAPHS:
        reps = sample_region(cfg.model.n_x, cfg.graph.b0, cfg.graph.count, cfg.graph.seed)
        graph = expand_graph(reps, cfg.methods, dyn, admit_tol=cfg.graph.admit_tol,
                             b0=cfg.graph.b0)
        attach_policy(graph, cfg.tf, cfg.lam_alpha, cfg.methods, dyn)
        _GRAPHS[key] = graph
    return _GRAPHS[key]


def per_run_rows(cfg, runs, seed, corrupt=None, graph=None):
    """The sweep's rows built run by run; `corrupt(run, path)` edits a truth path.

    `graph` defaults to `graph_for`'s.
    """
    dyn = build_dynamics(cfg.model, cfg.methods)
    graph = graph_for(cfg, dyn) if graph is None else graph
    entropy = np.random.SeedSequence(seed).entropy
    true_R = cfg.sim.true_R
    if cfg.experiment.name == "adaptive-R":
        true_R = {m.id: cfg.experiment.true_R_factor * m.R for m in cfg.methods}
    rows = []
    for run in range(runs):
        truth_seed, meas_seed = np.random.SeedSequence(entropy, spawn_key=(run,)).spawn(2)
        _, path = simulate_sde(cfg.model, cfg.sim.horizon, cfg.sim.dt, truth_seed)
        if corrupt is not None:
            path = corrupt(run, path)

        def track(policy, adaptive):
            source = GridMeasurementSource(cfg.model, path, cfg.sim.dt,
                                           np.random.default_rng(meas_seed),
                                           occlusions=cfg.sim.occlusions, true_R=true_R)
            trace = run_loop(cfg.model, cfg.methods, graph, policy, cfg.sim.horizon, source,
                             dyn, use_adaptive=adaptive, window_length=cfg.sim.window)
            return metrics(trace, path, cfg.lam_alpha, cfg.methods, cfg.sim.horizon, dyn,
                           cfg.sim.dt)

        try:
            if cfg.experiment.name == "adaptive-R":
                adaptive, nominal = (track(graph.policy, a).mse for a in (True, False))
                row = {"run": run, "mse_adaptive": adaptive, "mse_nominal": nominal,
                       "improved": int(adaptive < nominal)}
            else:
                mh = track(graph.policy, cfg.sim.adaptive)
                row = {"run": run, "j_mh": mh.j_empirical, "cpu_mh": mh.cpu_load,
                       "attention_mh": mh.attention, "mse_mh": mh.mse}
                for m in cfg.methods:
                    sm = track(np.full(graph.size, m.id, dtype=np.int64), False)
                    row.update({f"j_static_{m.id}": sm.j_empirical,
                                f"cpu_static_{m.id}": sm.cpu_load,
                                f"attention_static_{m.id}": sm.attention,
                                f"mse_static_{m.id}": sm.mse})
        except Exception as exc:  # noqa: BLE001 - the sweep records it the same way
            row = {"run": run, "error": f"{type(exc).__name__}: {exc}"}
        rows.append(row)
    return rows


def same_rows(got, want):
    """Row lists equal key for key and bit for bit, a NaN equal to a NaN."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert list(a) == list(b), (a, b)
        for key in a:
            x, y = a[key], b[key]
            assert type(x) is type(y) and (
                x == y or (isinstance(x, float) and math.isnan(x) and math.isnan(y))), \
                (key, a, b)
            if isinstance(x, float):
                assert np.float64(x).tobytes() == np.float64(y).tobytes(), (key, x, y)


windows = st.lists(
    st.tuples(st.integers(0, 39), st.integers(1, 15)).map(
        lambda w: (w[0] / 10, min(w[0] + w[1], 40) / 10)),
    max_size=2)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(["adaptive-R", "moving-horizon"]),
    runs=st.integers(1, 9),
    lam_alpha=st.sampled_from([0.05, 0.2, 5.0]),
    horizon_s=st.sampled_from([2.5, 4.0]),
    occlusions=windows,
    adaptive=st.booleans(),
    seed=st.integers(0, 2**16),
    jobs=st.sampled_from([1, 2]),
)
# At lambda_alpha = 0.2 the 8 runs of seed 3 follow 7 different adaptive
# schedules, so method groups split and rejoin at every few steps.
@example(name="adaptive-R", runs=8, lam_alpha=0.2, horizon_s=10.0, occlusions=[],
         adaptive=True, seed=3, jobs=1)
@example(name="moving-horizon", runs=8, lam_alpha=0.2, horizon_s=10.0,
         occlusions=[(2.0, 3.5)], adaptive=True, seed=3, jobs=2)
def test_rows_equal_runs_made_one_at_a_time(name, runs, lam_alpha, horizon_s, occlusions,
                                            adaptive, seed, jobs):
    cfg = noise_mismatch(name, lam_alpha, horizon_s, occlusions, adaptive)
    with no_fallback_unless_alone(runs, jobs):
        got = monte_carlo(cfg, runs=runs, seed=seed, jobs=jobs)
    same_rows(got, per_run_rows(cfg, runs, seed))


def no_fallback_unless_alone(runs: int, jobs: int):
    """`experiments._rows` patched to refuse a block of one where every worker
    holds two or more runs.

    A block that raises is re-run as blocks of one, which would still give
    the same rows, so a sweep under test may not: each worker's range of at
    least two runs is one block.
    """
    rows = experiments._rows

    def refusing(context, name, runs, master_entropy):
        if len(runs) == 1:
            raise AssertionError("a block fell back to blocks of one")
        return rows(context, name, runs, master_entropy)

    return patch.object(experiments, "_rows", refusing if runs >= 2 * jobs else rows)


def test_seed_3_splits_the_adaptive_schedules():
    # The example above discriminates only if its runs follow different
    # schedules, so groups of one method hold some runs and not others.
    cfg = noise_mismatch("adaptive-R", lam_alpha=0.2)
    dyn = build_dynamics(cfg.model, cfg.methods)
    graph = graph_for(cfg, dyn)
    entropy = np.random.SeedSequence(3).entropy
    true_R = {m.id: 9.0 * m.R for m in cfg.methods}
    schedules, starts = set(), {}
    for run in range(8):
        truth_seed, meas_seed = np.random.SeedSequence(entropy, spawn_key=(run,)).spawn(2)
        _, path = simulate_sde(cfg.model, cfg.sim.horizon, cfg.sim.dt, truth_seed)
        source = GridMeasurementSource(cfg.model, path, cfg.sim.dt,
                                       np.random.default_rng(meas_seed), true_R=true_R)
        trace = run_loop(cfg.model, cfg.methods, graph, graph.policy, cfg.sim.horizon, source,
                         dyn, use_adaptive=True, window_length=cfg.sim.window)
        schedules.add(tuple(e.method_id for e in trace.epochs))
        for e in trace.epochs:
            starts.setdefault(e.t_steps, set()).add(e.method_id)
    assert len(schedules) == 7
    # Steps at which runs start epochs of both methods: two groups at once.
    assert sum(methods == {1, 2} for methods in starts.values()) >= 10


# Clean 3-run sweeps of the shipped configs, by config name.
_CLEAN = {}


class TestErrorIsolation:
    """A run that goes wrong changes its own row only, as in the per-run path."""

    @staticmethod
    def patch_sde(monkeypatch, module, corrupt):
        """`module.simulate_sde` with each path passed through `corrupt(run, path)`."""
        simulate = module.simulate_sde

        def corrupted(model, horizon_s, dt, seed):
            t, path = simulate(model, horizon_s, dt, seed)
            return t, corrupt(seed.spawn_key[0], path)

        monkeypatch.setattr(module, "simulate_sde", corrupted)

    def sweep_with(self, monkeypatch, cfg, runs, corrupt):
        self.patch_sde(monkeypatch, experiments, corrupt)
        return monte_carlo(cfg, runs=runs, seed=4)

    @staticmethod
    def corrupt_middle(value, column=0):
        """A `corrupt` that sets run 1's path to `value` from its middle on."""
        def corrupt(run, path):
            if run == 1:
                path = path.copy()
                path[len(path) // 2:, column] = value
            return path
        return corrupt

    @staticmethod
    def failed_row(cfg, run):
        """The row of a run whose path turns non-finite from its middle on."""
        middle = (window_steps(cfg.sim.horizon, cfg.sim.dt, 1e-9) + 1) // 2
        step = -(-middle // grid_ratio(cfg.model.dt_s, cfg.sim.dt))
        return {"run": run,
                "error": f"LatschedError: truth path is not finite at sensor step {step}"}

    @pytest.mark.parametrize("name", ["adaptive-R", "moving-horizon"])
    def test_non_finite_truth_path(self, monkeypatch, name):
        cfg = noise_mismatch(name, lam_alpha=0.2, horizon_s=4.0, occlusions=[(1.0, 1.5)])
        corrupt = self.corrupt_middle(np.nan)
        clean = monte_carlo(cfg, runs=4, seed=4)
        got = self.sweep_with(monkeypatch, cfg, 4, corrupt)
        want = per_run_rows(cfg, 4, 4, corrupt)
        assert got[1] == self.failed_row(cfg, 1)
        same_rows([got[0]] + got[2:], [want[0]] + want[2:])
        same_rows([got[0]] + got[2:], [clean[0]] + clean[2:])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("config", ["noise_mismatch", "occlusion_run"])
    def test_non_finite_path_fails_its_run_only(self, monkeypatch, config, value):
        cfg = load_scenario(CONFIGS / f"{config}.json")
        if config not in _CLEAN:
            _CLEAN[config] = monte_carlo(cfg, runs=3, seed=4)
        clean = _CLEAN[config]
        got = self.sweep_with(monkeypatch, cfg, 3, self.corrupt_middle(value, column=-1))
        assert got[1] == self.failed_row(cfg, 1)
        same_rows([got[0], got[2]], [clean[0], clean[2]])

    def test_cli_reports_the_failed_run(self, monkeypatch, tmp_path, capsys):
        config = CONFIGS / "noise_mismatch.json"
        message = self.failed_row(load_scenario(config), 1)["error"].split(": ", 1)[1]
        self.patch_sde(monkeypatch, experiments, self.corrupt_middle(np.nan))
        assert cli.main(["mc-eval", "-c", str(config), "-o", str(tmp_path / "mc.csv"),
                         "--runs", "3"]) == 0
        assert "3 runs (1 failed)" in capsys.readouterr().out
        corrupt = self.corrupt_middle(np.inf)
        self.patch_sde(monkeypatch, experiments, lambda run, path: corrupt(1, path))
        assert cli.main(["simulate", "-c", str(config), "-o", str(tmp_path / "sim.csv")]) == 2
        assert capsys.readouterr().err == f"runtime error: {message}\n"

    @pytest.mark.parametrize("name", ["adaptive-R", "moving-horizon"])
    def test_run_that_raises(self, monkeypatch, name):
        # A truth path that ends early: the block's paths no longer stack, and
        # run 1 alone fails in its metrics, as it does when run by itself (its
        # first track runs the fast method only, so its trace ends inside the
        # path and the cost finds the window uncovered).
        cfg = noise_mismatch(name, lam_alpha=5.0, horizon_s=4.0)

        def corrupt(run, path):
            return path[: len(path) // 2] if run == 1 else path

        clean = monte_carlo(cfg, runs=4, seed=4)
        got = self.sweep_with(monkeypatch, cfg, 4, corrupt)
        same_rows(got, per_run_rows(cfg, 4, 4, corrupt))
        assert list(got[1]) == ["run", "error"]
        same_rows([got[0]] + got[2:], [clean[0]] + clean[2:])


@pytest.fixture(scope="module")
def planar():
    model = ContinuousModel(
        A=[[0.0, 1.0], [0.0, 0.0]], B=np.eye(2), W=np.diag([0.5, 0.5]), C=np.eye(2),
        x0=[0.5, -0.2], P0=np.eye(2), dt_s=0.1,
    )
    methods = [
        PerceptionMethod(id=1, steps=1, R=np.diag([0.5, 0.5]), cpu=0.5, penalty=0.05),
        PerceptionMethod(id=2, steps=3, R=np.diag([0.05, 0.05]), cpu=0.8, penalty=0.24),
    ]
    dyn = build_dynamics(model, methods)
    graph = expand_graph(sample_region(2, 2.0, 40, seed=1), methods, dyn, b0=2.0)
    attach_policy(graph, 1.0, 0.2, methods, dyn)
    return model, methods, dyn, graph


def lockstep_traces(planar, runs, horizon_s, path_steps, adaptive, window, policy, occlusions,
                    seed):
    """A `run_lockstep` stack on random paths with the sources of its runs made one at a time.

    `policy` is "graph", "alternate" (methods 1 and 2 by node) or "slow"
    (method 2 only); `occlusions` holds (start, length) in sensor steps.
    """
    model, methods, dyn, graph = planar
    rng = np.random.default_rng(seed)
    paths = rng.standard_normal((runs, path_steps, 2))
    seeds = np.random.SeedSequence(seed).spawn(runs)
    occlusions = [(a / 10, (a + b) / 10) for a, b in occlusions]
    policy = {"graph": graph.policy, "alternate": 1 + np.arange(graph.size) % 2,
              "slow": np.full(graph.size, 2)}[policy]
    true_R = {2: np.diag([0.2, 0.3])}
    source = GridMeasurementSource(model, paths, model.dt_s,
                                   [np.random.default_rng(s) for s in seeds],
                                   occlusions=occlusions, true_R=true_R)
    traces = run_lockstep(model, methods, graph, policy, horizon_s, source, dyn,
                          use_adaptive=adaptive, window_length=window)

    def run_alone(run):
        one = GridMeasurementSource(model, paths[run], model.dt_s,
                                    np.random.default_rng(seeds[run]), occlusions=occlusions,
                                    true_R=true_R)
        return run_loop(model, methods, graph, policy, horizon_s, one, dyn,
                        use_adaptive=adaptive, window_length=window)

    return traces, run_alone


@settings(max_examples=80, deadline=None)
@given(
    runs=st.integers(1, 5),
    horizon_s=st.sampled_from([0.8, 0.9, 1.0, 2.3]),
    path_steps=st.integers(5, 30),
    adaptive=st.booleans(),
    window=st.integers(1, 4),
    policy=st.sampled_from(["graph", "alternate"]),
    occlusions=st.lists(st.tuples(st.integers(0, 20), st.integers(1, 6)), max_size=2),
    seed=st.integers(0, 2**16),
)
# Without adaptation the stack replays one covariance path: an occlusion
# over step 0 drops its first epoch, and a path that ends inside an
# occlusion runs out on a dropped step.
@example(runs=3, horizon_s=2.3, path_steps=30, adaptive=False, window=1, policy="graph",
         occlusions=[(0, 3)], seed=0)
@example(runs=3, horizon_s=2.3, path_steps=8, adaptive=False, window=1, policy="graph",
         occlusions=[(6, 5)], seed=1)
# Adaptive runs that start in lockstep, diverge, start together again, and
# do both once more (`test_the_adaptive_example_diverges_and_rejoins`).
@example(runs=2, horizon_s=2.3, path_steps=30, adaptive=True, window=3, policy="alternate",
         occlusions=[], seed=6)
def test_traces_equal_run_loop(planar, runs, horizon_s, path_steps, adaptive, window, policy,
                               occlusions, seed):
    # Whole traces, every epoch's belief included; paths that end before the
    # horizon end the runs early, and some horizons end on an epoch boundary.
    _, methods, dyn, _ = planar
    traces, run_alone = lockstep_traces(planar, runs, horizon_s, path_steps, adaptive, window,
                                        policy, occlusions, seed)
    for run, trace in enumerate(traces):
        want = run_alone(run)
        assert_same_trace(trace, want, methods, dyn)
        assert trace.end_steps == want.end_steps


def lockstep_pattern(traces) -> str:
    """One letter per epoch start of a stack: where its runs stand there.

    "L": every run starts an epoch there under one method; "p": the runs
    start apart.
    """
    starts = sorted({e.t_steps for trace in traces for e in trace.epochs})
    pattern = ""
    for t in starts:
        methods = [[e.method_id for e in trace.epochs if e.t_steps == t] for trace in traces]
        together = all(len(m) == 1 for m in methods) and len({m[0] for m in methods}) == 1
        pattern += "L" if together else "p"
    return pattern


def test_the_adaptive_example_diverges_and_rejoins(planar):
    # The adaptive example of test_traces_equal_run_loop discriminates only
    # if the stack leaves its lockstep and enters it again, twice.
    traces, _ = lockstep_traces(planar, 2, 2.3, 30, True, 3, "alternate", [], 6)
    pattern = lockstep_pattern(traces)
    assert re.fullmatch(r"L+p+L+p+L+p*", pattern), pattern


def test_an_empty_adaptive_stack_has_no_traces(planar):
    model, methods, dyn, graph = planar
    source = GridMeasurementSource(model, np.zeros((0, 30, 2)), model.dt_s, [])
    assert run_lockstep(model, methods, graph, graph.policy, 2.3, source, dyn,
                        use_adaptive=True) == []


@pytest.mark.parametrize("adaptive", [False, True])
def test_a_one_path_source_is_one_run(adaptive):
    # One path (N, n_x) is a stack of one run, not N runs of one point each.
    cfg = noise_mismatch("adaptive-R")
    dyn = build_dynamics(cfg.model, cfg.methods)
    graph = graph_for(cfg, dyn)
    _, path = simulate_sde(cfg.model, cfg.sim.horizon, cfg.sim.dt, 5)
    source = GridMeasurementSource(cfg.model, path, cfg.sim.dt, np.random.default_rng(6))
    traces = run_lockstep(cfg.model, cfg.methods, graph, graph.policy, cfg.sim.horizon, source,
                          dyn, use_adaptive=adaptive, window_length=cfg.sim.window)
    want = run_loop(cfg.model, cfg.methods, graph, graph.policy, cfg.sim.horizon, source, dyn,
                    use_adaptive=adaptive, window_length=cfg.sim.window)
    assert len(path) > 1 and len(traces) == 1
    assert source.runs == 1
    assert_same_trace(traces[0], want, cfg.methods, dyn)
    assert traces[0].end_steps == want.end_steps


def test_generators_must_match_the_paths(planar):
    model = planar[0]
    rngs = [np.random.default_rng(seed) for seed in range(2)]
    with pytest.raises(ValueError, match=r"^3 truth paths but 2 generators$"):
        GridMeasurementSource(model, np.zeros((3, 30, 2)), model.dt_s, rngs)


@settings(max_examples=80, deadline=None)
@given(
    runs=st.integers(1, 4),
    horizon_s=st.sampled_from([0.8, 1.0, 2.3]),
    path_steps=st.integers(0, 30),
    adaptive=st.booleans(),
    policy=st.sampled_from(["graph", "alternate", "slow"]),
    occlusions=st.lists(st.tuples(st.integers(0, 20), st.integers(1, 6)), max_size=2),
    beyond=st.integers(0, 3),
    seed=st.integers(0, 2**16),
)
# A run that ends early on a short path.
@example(runs=2, horizon_s=2.3, path_steps=7, adaptive=True, policy="graph", occlusions=[],
         beyond=0, seed=0)
# An empty trace: the source runs out before the first epoch.
@example(runs=2, horizon_s=1.0, path_steps=0, adaptive=False, policy="graph", occlusions=[],
         beyond=0, seed=0)
# Method 2's epochs start at steps 0, 3, 6 and 9 and end at 12: the last
# crosses the edge of a window of 10 or 11 steps, at the horizon or beyond
# it, and a window of 13 steps is not covered.
@example(runs=2, horizon_s=1.0, path_steps=30, adaptive=False, policy="slow", occlusions=[],
         beyond=0, seed=0)
@example(runs=2, horizon_s=1.0, path_steps=30, adaptive=True, policy="slow", occlusions=[],
         beyond=1, seed=0)
@example(runs=2, horizon_s=1.0, path_steps=30, adaptive=False, policy="slow", occlusions=[],
         beyond=3, seed=0)
def test_block_mse_checks_coverage_as_check_covering(planar, runs, horizon_s, path_steps,
                                                     adaptive, policy, occlusions, beyond,
                                                     seed):
    # block_mse decides coverage from a trace's end, without its records;
    # the decision and the error must be those of check_covering over the
    # schedule of the trace's epochs, at the horizon and beyond it.
    _, methods, dyn, _ = planar
    traces, _ = lockstep_traces(planar, runs, horizon_s, path_steps, adaptive, 2, policy,
                                occlusions, seed)
    tf_steps = window_steps(horizon_s, dyn.dt_s) + beyond
    truths = np.random.default_rng(seed).standard_normal((runs, tf_steps + 1, 2))
    for trace, truth in zip(traces, truths):
        got = outcome(lambda: block_mse([trace], truth[None], methods, tf_steps * dyn.dt_s, dyn,
                                        dyn.dt_s))
        want = outcome(lambda: check_covering(_schedule(trace.starts, tf_steps),
                                              tf_steps, methods))
        if want is None:
            assert isinstance(got, list)
        else:
            assert got == want


def outcome(make):
    """`make()`'s value, or the type and message of what it raised."""
    try:
        return make()
    except Exception as exc:  # noqa: BLE001 - compared with another call's
        return type(exc), str(exc)


@pytest.mark.parametrize("adaptive", [False, True])
@pytest.mark.parametrize("policy,horizon_s", [("graph", 2.3), ("slow", 0.9)])
def test_records_are_built_on_first_read(planar, adaptive, policy, horizon_s):
    # No EpochRecord is built by the loop or by block_mse on covering traces,
    # those whose last epoch ends on the window's edge (method 2 only, 0.9 s)
    # included; the first read of `epochs` builds them, and the second
    # returns them.
    _, methods, dyn, _ = planar
    tf_steps = window_steps(horizon_s, dyn.dt_s)
    with patch.object(horizon, "EpochRecord", wraps=EpochRecord) as made:
        traces, run_alone = lockstep_traces(planar, 4, horizon_s, 30, adaptive, 3, policy,
                                            [(5, 4)], 7)
        truths = np.random.default_rng(7).standard_normal((4, tf_steps + 1, 2))
        block_mse(traces, truths, methods, horizon_s, dyn, dyn.dt_s)
        assert made.call_count == 0
        assert policy != "slow" or {trace.end_steps for trace in traces} == {tf_steps}
        first = [trace.epochs for trace in traces]
        assert made.call_count == sum(map(len, first)) > 0
        assert all(trace.epochs is epochs for trace, epochs in zip(traces, first))
        assert made.call_count == sum(map(len, first))
    for run, trace in enumerate(traces):
        assert_same_trace(trace, run_alone(run), methods, dyn)


@pytest.mark.parametrize("runs,adaptive", [(4, False), (1, False), (1, True)])
@pytest.mark.parametrize("policy,horizon_s", [("graph", 2.3), ("slow", 0.9)])
def test_metrics_read_the_loop_log(planar, runs, adaptive, policy, horizon_s):
    # A trace that `_shared_path` stepped gives its cost, attention and CPU
    # load from the loop's log, building no EpochRecord, and they equal
    # those read from its records bit for bit, at the horizon and inside it.
    _, methods, dyn, _ = planar
    tf_steps = window_steps(horizon_s, dyn.dt_s)
    traces, _ = lockstep_traces(planar, runs, horizon_s, 30, adaptive, 3, policy, [(5, 4)], 7)
    truths = np.random.default_rng(7).standard_normal((runs, tf_steps + 1, 2))
    windows = (horizon_s, 0.5)
    with patch.object(horizon, "EpochRecord", wraps=EpochRecord) as made:
        got = [block_metrics(traces, truths, 5.0, methods, tf, dyn, dyn.dt_s) for tf in windows]
        assert made.call_count == 0
    for trace in traces:
        assert trace.epochs
    want = [block_metrics(traces, truths, 5.0, methods, tf, dyn, dyn.dt_s) for tf in windows]
    assert got == want


@pytest.mark.parametrize("adaptive,calls", [(False, 1), (True, 4)])
def test_block_metrics_computes_each_table_once(planar, adaptive, calls):
    # The runs of a stack without adaptation share one table of epoch
    # starts, so the block computes their cost, attention and CPU load once;
    # an adaptive stack's runs hold a table each. Every row is the run's own
    # `metrics`, bit for bit.
    _, methods, dyn, _ = planar
    traces, _ = lockstep_traces(planar, 4, 2.3, 30, adaptive, 3, "graph", [(5, 4)], 7)
    truths = np.random.default_rng(7).standard_normal((4, 24, 2))
    with patch.object(sim, "_window_metrics", wraps=sim._window_metrics) as window:
        rows = block_metrics(traces, truths, 5.0, methods, 2.3, dyn, dyn.dt_s)
        assert window.call_count == calls
    for trace, truth, row in zip(traces, truths, rows):
        want = metrics(trace, truth, 5.0, methods, 2.3, dyn, dyn.dt_s)
        assert [np.float64(v).tobytes() for v in dataclasses.astuple(row)] == \
            [np.float64(v).tobytes() for v in dataclasses.astuple(want)]


@pytest.mark.parametrize("runs,adaptive", [(1, False), (1, True), (3, False), (3, True)])
def test_traces_keep_the_surface_the_benchmark_reads(planar, runs, adaptive):
    # The benchmark replaces a loop trace's epochs and grid steps to make a
    # truncated trace, and reads each record's fields; records stay
    # read-only, and a trace's table of epoch starts follows its epochs.
    traces, _ = lockstep_traces(planar, runs, 2.3, 30, adaptive, 3, "graph", [(5, 4)], 7)
    for trace in traces:
        assert not trace.grid_xhat.flags.writeable
        for k, epoch in enumerate(trace.epochs):
            assert (epoch.k, epoch.t_steps, epoch.method_id, epoch.measured) == (
                k, trace.starts.t[k], trace.starts.method_id[k], trace.starts.measured[k])
            assert epoch.belief.Phat is trace.starts.P[k]
            assert epoch.belief.xhat.tobytes() == trace.grid_xhat[epoch.t_steps].tobytes()
            assert not epoch.belief.xhat.flags.writeable
            assert not epoch.belief.Phat.flags.writeable
        short = dataclasses.replace(trace, epochs=trace.epochs[:-5],
                                    grid_steps=trace.grid_steps[:-20])
        assert len(short.epochs) == len(trace.epochs) - 5 > 0
        assert all(a is b for a, b in zip(short.epochs, trace.epochs))
        assert short.grid_steps.tolist() == trace.grid_steps[:-20].tolist()
        assert short.starts.t == tuple(e.t_steps for e in short.epochs)
        assert short.end_steps is None and trace.end_steps is not None
        trace.epochs = trace.epochs[:2]
        assert trace.starts.t == tuple(e.t_steps for e in trace.epochs)
        assert trace.end_steps is None


@settings(max_examples=40, deadline=None)
@given(
    n_z=st.integers(1, 3),
    length=st.integers(1, 6),
    runs=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_windows_estimate_what_adaptive_R_estimates(n_z, length, runs, seed):
    # Runs push at different epochs and skip some, so their windows hold
    # different counts of live innovations, some older than `length` epochs.
    rng = np.random.default_rng(seed)
    model = ContinuousModel(
        A=np.zeros((n_z, n_z)), B=np.eye(n_z), W=np.eye(n_z), C=np.eye(n_z),
        x0=np.zeros(n_z), P0=np.eye(n_z), dt_s=0.1,
    )
    method = PerceptionMethod(id=1, steps=1, R=np.eye(n_z), cpu=0.5, penalty=0.0)
    ring = (np.zeros((runs, length, n_z, n_z)), np.full((runs, length), -length - 1))
    singles = [InnovationWindow(length) for _ in range(runs)]
    epochs = np.zeros(runs, dtype=np.int64)
    for _ in range(int(rng.integers(1, 4 * length))):
        epochs += rng.integers(1, length + 2, size=runs)
        pushing = np.flatnonzero(rng.random(runs) < 0.7)
        if not pushing.size:
            continue
        e = rng.standard_normal((pushing.size, n_z)) * 10.0 ** rng.uniform(-3, 3)
        e[rng.random(e.shape) < 0.2] = -0.0
        P = np.eye(n_z) * 10.0 ** rng.uniform(-4, 2, size=(pushing.size, 1, 1))
        outer, count = horizon._push(ring, pushing, epochs[pushing], e, length)
        got = horizon._estimate_R(outer, count, P, method, model)
        for j, run in enumerate(pushing):
            singles[run].push(1, int(epochs[run]), e[j])
            want = adaptive_R(singles[run], method, int(epochs[run]),
                              BeliefState(0.0, np.zeros(n_z), P[j]), model)
            assert got[j].tobytes() == want.tobytes()


@pytest.mark.parametrize("threshold", [0, covgraph._SCAN_ENTRIES])
def test_stacked_quantize_is_nearest_member_by_member(monkeypatch, threshold):
    # Scanned (small graph) and scored (large graph) alike.
    monkeypatch.setattr(covgraph, "_SCAN_ENTRIES", threshold)
    rng = np.random.default_rng(5)
    reps = sample_region(2, 2.0, 200, rng)
    graph = covgraph.CovarianceGraph(reps=np.concatenate([reps, reps[:20]]),
                                     succ=np.zeros((220, 1)), delta=0.0, b0=2.0, bound=2.0)
    points = np.concatenate([sample_region(2, 2.5, 300, rng), reps[:30], reps[:30] + 1e-17])
    got = quantize(points, graph)
    assert got.tolist() == [graph.nearest(P)[0] for P in points]


def draw_model():
    """A 3-state model seen through 2 channels, with a one-step and a two-step method."""
    model = ContinuousModel(
        A=np.eye(3, k=1), B=np.eye(3), W=np.eye(3), C=[[1.0, 0.0, 2.0], [0.0, -1.5, 0.5]],
        x0=np.zeros(3), P0=np.eye(3), dt_s=0.1,
    )
    methods = [PerceptionMethod(id=1, steps=1, R=np.eye(2), cpu=0.5, penalty=0.0),
               PerceptionMethod(id=2, steps=2, R=0.1 * np.eye(2), cpu=0.5, penalty=0.0)]
    return model, methods


@settings(max_examples=80, deadline=None)
@given(
    runs=st.integers(1, 7),
    ratio=st.sampled_from([1, 3]),
    path_points=st.integers(1, 40),
    occlusions=st.lists(st.tuples(st.integers(0, 14), st.integers(1, 6)), max_size=2),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_draws_equal_the_noise_rule(runs, ratio, path_points, occlusions, seed):
    # Draws at sensor steps in a random order, repeated steps, dropped steps
    # and steps past the end of the paths included, each under one of two
    # methods whose true noise roots differ, of some runs as an index array,
    # of every run as a slice or of one run by its index. Run i's z at step t
    # must be C x(t) + R^(1/2) n_t, with n_t row t of its generator's normals
    # read ahead, bit for bit, whatever was drawn before. Its own one-path
    # source must give the same Measurement, and all must run out together.
    model, methods = draw_model()
    true_R = {2: np.array([[0.3, 0.1], [0.1, 0.2]])}
    rng = np.random.default_rng(seed)
    paths = rng.standard_normal((runs, path_points, 3)) * 10.0 ** rng.uniform(-2, 2, (runs, 1, 3))
    seeds = np.random.SeedSequence(seed).spawn(runs)
    dt = model.dt_s / ratio
    occlusions = [(a * model.dt_s, (a + b) * model.dt_s) for a, b in occlusions]
    stacked = GridMeasurementSource(model, paths, dt, [np.random.default_rng(s) for s in seeds],
                                    occlusions=occlusions, true_R=true_R)
    ones = [GridMeasurementSource(model, path, dt, np.random.default_rng(s),
                                  occlusions=occlusions, true_R=true_R)
            for path, s in zip(paths, seeds)]
    sensor_steps = -(-path_points // ratio)
    normals = [np.random.default_rng(s).standard_normal((sensor_steps, 2)) for s in seeds]
    roots = {m.id: sqrt_psd(true_R.get(m.id, m.R)) for m in methods}
    for t in rng.integers(0, sensor_steps + 2, size=2 * sensor_steps + 4).tolist():
        method = methods[rng.integers(2)]
        some = rng.permutation(runs)[:rng.integers(1, runs + 1)]
        idx = [some, slice(None), int(some[0])][rng.integers(3)]
        drawn = np.atleast_1d(np.arange(runs)[idx])
        if t >= sensor_steps:
            with pytest.raises(SourceExhausted):
                stacked.draw(idx, t, method)
            for run in drawn:
                with pytest.raises(SourceExhausted):
                    ones[run](t, t, method)
            continue
        z = stacked.draw(idx, t, method)
        alone = [ones[run](t, t, method) for run in drawn]
        if any(a <= t * model.dt_s < b for a, b in occlusions):
            assert z is None and alone == [None] * drawn.size
            continue
        assert z.shape == ((2,) if isinstance(idx, int) else (drawn.size, 2))
        for run, row, meas in zip(drawn, np.atleast_2d(z), alone):
            want = model.C @ paths[run, t * ratio] + roots[method.id] @ normals[run][t]
            assert row.tobytes() == meas.z.tobytes() == want.tobytes()
            assert meas.produced_at == (t + method.steps) * model.dt_s


@settings(max_examples=80, deadline=None)
@given(
    runs=st.integers(1, 5),
    plan=st.lists(st.tuples(st.booleans(), st.integers(1, 2), st.integers(0, 2**16)),
                  max_size=12),
    occluded=st.sets(st.integers(0, 11), max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_whole_draws_equal_index_draws(runs, plan, occluded, seed):
    # A draw of every run as slice(None) against the same draw as
    # np.arange(runs), mixed with partial draws of some runs: the rows must
    # agree bit for bit at every draw.
    model, methods = draw_model()
    rng = np.random.default_rng(seed)
    paths = rng.standard_normal((runs, 12, 3))
    seeds = np.random.SeedSequence(seed).spawn(runs)
    occlusions = [(t * model.dt_s, (t + 1) * model.dt_s) for t in occluded]
    whole, indexed = (GridMeasurementSource(model, paths, model.dt_s,
                                            [np.random.default_rng(s) for s in seeds],
                                            occlusions=occlusions, true_R={2: 0.3 * np.eye(2)})
                      for _ in range(2))
    for t, (every, method_id, pick) in enumerate(plan):
        method = methods[method_id - 1]
        if every:
            got, want = whole.draw(slice(None), t, method), indexed.draw(np.arange(runs), t,
                                                                          method)
        else:
            idx = np.flatnonzero(np.random.default_rng(pick).random(runs) < 0.5)
            got, want = whole.draw(idx, t, method), indexed.draw(idx, t, method)
        assert (got is None) == (want is None) == (t in occluded)
        if got is not None:
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def synthetic_trace(rng, points: int, n_x: int) -> TrackingTrace:
    """A trace of `points` grid means whose three one-step epochs cover 0.3 s."""
    epochs = [EpochRecord(k, k, 1, k != 1, BeliefState(0.1 * k, np.zeros(n_x),
                                                       (1.0 + k) * np.eye(n_x)))
              for k in range(3)]
    xhat = rng.standard_normal((points, n_x)) * 10.0 ** rng.uniform(-3, 3, (points, n_x))
    return TrackingTrace(0.1, 3, epochs, epochs[-1].belief, np.arange(points), xhat)


def one_step_model(n_x):
    model = ContinuousModel(A=np.zeros((n_x, n_x)), B=np.eye(n_x), W=np.eye(n_x),
                            C=np.eye(n_x), x0=np.zeros(n_x), P0=np.eye(n_x), dt_s=0.1)
    methods = [PerceptionMethod(id=1, steps=1, R=np.eye(n_x), cpu=0.5, penalty=0.1)]
    return methods, build_dynamics(model, methods)


@settings(max_examples=80, deadline=None)
@given(
    runs=st.integers(1, 9),
    points=st.integers(1, 400),
    n_x=st.integers(1, 4),
    ratio=st.sampled_from([1, 2]),
    ragged=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(runs=9, points=129, n_x=3, ratio=1, ragged=False, seed=0)
def test_block_metrics_equal_each_runs_metrics(runs, points, n_x, ratio, ragged, seed):
    # np.add.reduce sums a contiguous axis pairwise, in blocks of 8, and
    # rounds otherwise, so the block's reductions must run along the axes a
    # run's own do: lengths on both sides of 8 and 128, bit for bit. Traces
    # of different lengths are reduced one at a time. Each trace's three
    # one-step epochs cover the window; epochs 0 and 2 measure.
    rng = np.random.default_rng(seed)
    methods, dyn = one_step_model(n_x)
    lengths = rng.integers(1, points + 1, size=runs) if ragged else [points] * runs
    traces = [synthetic_trace(rng, length, n_x) for length in lengths]
    truths = rng.standard_normal((runs, (points - 1) * ratio + 1 + int(rng.integers(0, 3)), n_x))
    dt = dyn.dt_s / ratio
    got = block_metrics(traces, truths, 0.5, methods, 0.3, dyn, dt)
    mses = block_mse(traces, truths, methods, 0.3, dyn, dt)
    for trace, truth, a, mse in zip(traces, truths, got, mses):
        err = trace.grid_xhat - truth[np.arange(len(trace.grid_steps)) * ratio]
        want = np.mean(np.sum(err * err, axis=1))
        assert np.float64(a.mse).tobytes() == want.tobytes()
        assert np.float64(mse).tobytes() == want.tobytes()
        assert np.float64(metrics(trace, truth, 0.5, methods, 0.3, dyn, dt).mse).tobytes() == \
            want.tobytes()
        # Three 0.1 s epochs at CPU 0.5, summed in epoch order over the 0.3 s window.
        assert (a.j_empirical, a.attention, a.cpu_load) == (
            empirical_cost(trace, 0.5, methods, 0.3, dyn), 2, sum([0.5 * 0.1] * 3) / 0.3)


def test_block_errors_are_each_runs_own():
    # A trace that does not cover the window and a path that ends before the
    # trace's last point fail alike in `metrics` and the block functions.
    rng = np.random.default_rng(2)
    methods, dyn = one_step_model(2)
    trace = synthetic_trace(rng, 5, 2)
    cases = [(0.5, rng.standard_normal((5, 2)), IncompleteScheduleError,
              "schedule of 3 epochs (3 steps) does not minimally cover 5 steps"),
             (0.3, rng.standard_normal((4, 2)), ValueError,
              "truth path has 4 points; the trace reads 5")]
    for tf, truth, error, message in cases:
        for block in (lambda: metrics(trace, truth, 0.5, methods, tf, dyn, dyn.dt_s),
                      lambda: block_metrics([trace], truth[None], 0.5, methods, tf, dyn,
                                            dyn.dt_s),
                      lambda: block_mse([trace], truth[None], methods, tf, dyn, dyn.dt_s)):
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                block()


@pytest.fixture(scope="module")
def occlusion_context():
    return experiments._prepare_tracking(load_scenario(CONFIGS / "occlusion_run.json"))


@pytest.mark.parametrize("runs", [1, 2, 7])
def test_moving_horizon_block_equals_each_runs_metrics(occlusion_context, runs):
    # The shipped occlusion run's three variants run without adaptation, so
    # a block computes their cost, CPU load and attention once, from its
    # first run; every run's own metrics must equal them, bit for bit.
    cfg = occlusion_context["cfg"]
    assert not cfg.sim.adaptive and cfg.sim.occlusions
    entropy = np.random.SeedSequence(11).entropy
    seeds = [np.random.SeedSequence(entropy, spawn_key=(run,)) for run in range(runs)]
    got = experiments._rows_moving_horizon(occlusion_context, list(range(runs)), seeds)
    same_rows(got, per_run_rows(cfg, runs, 11, graph=occlusion_context["graph"]))
