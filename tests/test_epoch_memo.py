"""The graph's memo of epoch transitions: warm runs equal cold runs bit for bit.

`run_loop` reads the covariance half of an epoch (gain, next covariance,
next node) from `CovarianceGraph._epochs` when it has run the same
transition before on that graph. A cold run is the same run on a
fresh `dataclasses.replace(graph)`, whose memo starts empty.
"""

import dataclasses
import json
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latsched import (
    ContinuousModel,
    CovarianceGraph,
    PerceptionMethod,
    SourceExhausted,
    attach_policy,
    build_dynamics,
    expand_graph,
    run_loop,
    sample_region,
)
from latsched import estimator, horizon
from latsched.config import load_scenario
from latsched.experiments import _build_graph, _tracks, _truths
from test_horizon_oracle import StepSource

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def assert_same_trace(got, want, methods, dyn):
    """Every array of two TrackingTraces and every epoch's belief, bit for bit.

    The arrays include `grid`'s columns, derived under `methods` and `dyn`.
    """
    assert (got.dt_s, got.horizon_steps) == (want.dt_s, want.horizon_steps)
    columns = [(name, getattr(got, name), getattr(want, name))
               for name in ("grid_steps", "grid_xhat")]
    columns += zip(("grid_trP", "grid_method", "grid_measured"), got.grid(methods, dyn),
                   want.grid(methods, dyn))
    for name, a, b in columns:
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert len(got.epochs) == len(want.epochs)
    for a, b in zip(got.epochs, want.epochs):
        assert (a.k, a.t_steps, a.method_id, a.measured) == (
            b.k, b.t_steps, b.method_id, b.measured)
        assert_same_belief(a.belief, b.belief)
    assert_same_belief(got.final_belief, want.final_belief)


def assert_same_belief(a, b):
    assert a.t == b.t
    assert a.xhat.tobytes() == b.xhat.tobytes()
    assert a.Phat.tobytes() == b.Phat.tobytes()


def memo_table(graph):
    return {} if graph._epochs is None else graph._epochs[2]


@pytest.fixture(scope="module")
def occlusion():
    cfg = load_scenario(CONFIGS / "occlusion_run.json")
    dyn = build_dynamics(cfg.model, cfg.methods)
    graph = _build_graph(cfg, dyn, cfg.graph.count, cfg.graph.seed)
    attach_policy(graph, cfg.tf, cfg.lam_alpha, cfg.methods, dyn)
    return cfg, dyn, graph


def occlusion_track(occlusion, graph, seed, **kwargs):
    cfg, dyn, _ = occlusion
    (trace,), (run_metrics,) = _tracks(cfg, dyn, graph,
                                       *_truths(cfg, [np.random.SeedSequence(seed)]), **kwargs)
    return trace, run_metrics


class TestShippedOcclusion:
    def test_warm_runs_equal_cold_runs(self, occlusion):
        cfg, dyn, built = occlusion
        warm = dataclasses.replace(built)
        occlusion_track(occlusion, warm, 99)
        assert memo_table(warm)
        for seed in (0, 1, 2, 3):
            got, got_metrics = occlusion_track(occlusion, warm, seed)
            want, want_metrics = occlusion_track(occlusion, dataclasses.replace(built), seed)
            assert_same_trace(got, want, cfg.methods, dyn)
            assert got_metrics == want_metrics

    def test_moving_horizon_tracks_share_one_memo(self, occlusion):
        cfg, dyn, built = occlusion
        statics = [np.full(built.size, m.id, dtype=np.int64) for m in cfg.methods]
        runs = [{}] + [{"policy": p, "adaptive": False} for p in statics]
        warm = dataclasses.replace(built)
        for seed in (5, 6):
            for kwargs in runs:
                got, got_metrics = occlusion_track(occlusion, warm, seed, **kwargs)
                want, want_metrics = occlusion_track(occlusion, dataclasses.replace(built),
                                                     seed, **kwargs)
                assert_same_trace(got, want, cfg.methods, dyn)
                assert got_metrics == want_metrics
        # One memo serves all three policies: its entries hold nodes, not methods.
        assert {key[1] for key in memo_table(warm) if isinstance(key, tuple)} == {1, 2}

    def test_second_identical_run_does_no_covariance_work(self, occlusion):
        # A hit skips the Riccati kernel and quantization altogether; a later
        # change that breaks the hit path fails here, with no timer involved.
        cfg, dyn, built = occlusion
        graph = dataclasses.replace(built)
        with patch.object(estimator, "_gain_and_next_cov",
                          wraps=estimator._gain_and_next_cov) as gains, \
                patch.object(CovarianceGraph, "_nearest_id", autospec=True,
                             side_effect=CovarianceGraph._nearest_id) as nearest:
            first, _ = occlusion_track(occlusion, graph, 4)
            assert gains.call_count > 0 and nearest.call_count > 0
            gains.reset_mock()
            nearest.reset_mock()
            second, _ = occlusion_track(occlusion, graph, 4)
        assert (gains.call_count, nearest.call_count) == (0, 0)
        assert_same_trace(second, first, cfg.methods, dyn)


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
    attach_policy(graph, 1.0, 5.0, methods, dyn)
    return model, methods, dyn, graph


class Stopping:
    """A source that raises SourceExhausted from epoch `stop` on."""

    def __init__(self, source, stop):
        self.source = source
        self.stop = stop

    def __call__(self, k, t_steps, method):
        if k >= self.stop:
            raise SourceExhausted("stop")
        return self.source(k, t_steps, method)


def warm_and_cold(model, methods, graph, policy, horizon_s, make_source, dyn, **kwargs):
    """The run on `graph` as it is, then on a fresh copy of it."""
    got = run_loop(model, methods, graph, policy, horizon_s, make_source(), dyn, **kwargs)
    want = run_loop(model, methods, dataclasses.replace(graph), policy, horizon_s,
                    make_source(), dyn, **kwargs)
    return got, want


class TestSmallRuns:
    def test_source_exhaustion(self, planar):
        model, methods, dyn, built = planar
        graph = dataclasses.replace(built)
        make = lambda: Stopping(StepSource(model, lambda t: 10 <= t < 20), 17)
        run_loop(model, methods, graph, graph.policy, 9.0, make(), dyn)
        got, want = warm_and_cold(model, methods, graph, graph.policy, 9.0, make, dyn)
        assert len(got.epochs) == 17
        assert_same_trace(got, want, methods, dyn)

    def test_adaptive_run_leaves_the_memo_empty(self, planar):
        model, methods, dyn, built = planar
        graph = dataclasses.replace(built)
        run_loop(model, methods, graph, graph.policy, 5.0,
                 StepSource(model, lambda t: 10 <= t < 20), dyn, use_adaptive=True)
        assert graph._epochs is None

    @pytest.mark.parametrize("variant", ["dyn", "R", "steps", "equal dyn"])
    def test_other_dynamics_or_methods_never_read_old_entries(self, planar, variant):
        model, methods, dyn, built = planar
        new_methods, new_dyn = {
            "dyn": (methods, build_dynamics(dataclasses.replace(model, W=2 * np.eye(2)),
                                            methods)),
            "R": ([methods[0], dataclasses.replace(methods[1], R=np.diag([0.2, 0.05]))], dyn),
            "steps": ([methods[0], dataclasses.replace(methods[1], steps=2)], dyn),
            "equal dyn": (methods, build_dynamics(model, methods)),
        }[variant]
        policy = 1 + np.arange(built.size) % 2
        make = lambda: StepSource(model, lambda t: 12 <= t < 30)
        graph = dataclasses.replace(built)
        run_loop(model, methods, graph, policy, 6.0, make(), dyn)
        old = graph._epochs[2]
        got, want = warm_and_cold(model, new_methods, graph, policy, 6.0, make, new_dyn)
        assert_same_trace(got, want, new_methods, new_dyn)
        assert {e.method_id for e in got.epochs} == {1, 2}
        assert graph._epochs[2] is not old

    def test_a_cut_last_epoch_reads_the_full_epochs_entry(self, planar):
        # At 0.9 s the last 3-step epoch is recorded whole; at 0.7 and 0.8 s
        # the same transition records 2 and 3 of its steps, from the entry
        # the whole epoch wrote.
        model, methods, dyn, built = planar
        graph = dataclasses.replace(built)
        policy = np.full(built.size, 2, dtype=np.int64)
        run_loop(model, methods, graph, policy, 0.9, StepSource(model), dyn)
        keys = set(memo_table(graph))
        assert {key[1:] for key in keys if isinstance(key, tuple)} == {(2, True)}
        for horizon_s in (0.7, 0.8):
            got, want = warm_and_cold(model, methods, graph, policy, horizon_s,
                                      lambda: StepSource(model), dyn)
            assert_same_trace(got, want, methods, dyn)
            assert set(memo_table(graph)) == keys

    def test_save_writes_no_memo_and_load_starts_empty(self, planar, tmp_path):
        model, methods, dyn, built = planar
        graph = dataclasses.replace(built)
        run_loop(model, methods, graph, graph.policy, 3.0, StepSource(model), dyn)
        assert memo_table(graph)
        path = tmp_path / "graph.json"
        graph.save(path)
        assert set(json.loads(path.read_text())) == {
            "format_version", "n", "delta", "b0", "bound", "reps", "edges", "policy",
            "policy_meta"}
        assert CovarianceGraph.load(path)._epochs is None
        assert dataclasses.replace(graph)._epochs is None

    def test_non_repeating_run_stays_within_the_cap(self, planar):
        # Every epoch is occluded, so the covariance grows and never repeats.
        model, methods, dyn, built = planar
        graph = dataclasses.replace(built)
        sizes = []
        source = StepSource(model, lambda t: True)

        def watched(k, t_steps, method):
            sizes.append(len(memo_table(graph)))
            return source(k, t_steps, method)

        policy = np.ones(built.size, dtype=np.int64)
        with patch.object(horizon, "_MEMO_ENTRIES", 8):
            got = run_loop(model, methods, graph, policy, 5.0, watched, dyn)
        assert len(got.epochs) == 50
        assert max(sizes) == 8 and len(memo_table(graph)) <= 8
        want = run_loop(model, methods, dataclasses.replace(built), policy, 5.0,
                        StepSource(model, lambda t: True), dyn)
        assert_same_trace(got, want, methods, dyn)


@settings(max_examples=40, deadline=None)
@given(
    windows=st.lists(st.tuples(st.integers(0, 60), st.integers(1, 25)), max_size=3),
    static=st.sampled_from([None, 1, 2]),
    horizon_s=st.sampled_from([3.0, 4.5, 6.1]),
)
def test_warm_equals_cold_over_random_occlusions(planar, windows, static, horizon_s):
    # The fixture's graph stays warm across examples, so later examples
    # read entries that earlier ones wrote.
    model, methods, dyn, graph = planar
    drop = lambda t: any(a <= t < a + w for a, w in windows)
    policy = graph.policy if static is None else np.full(graph.size, static, dtype=np.int64)
    got, want = warm_and_cold(model, methods, graph, policy, horizon_s,
                              lambda: StepSource(model, drop), dyn)
    assert_same_trace(got, want, methods, dyn)
