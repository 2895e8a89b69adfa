import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from latsched import (
    Schedule,
    attach_policy,
    build_dynamics,
    dyn_prog_exact,
    evaluate_schedule,
    expand_graph,
    monte_carlo,
    qdp,
    quantize,
    sample_region,
    static_schedule,
)
from latsched.config import load_scenario
from latsched.covgraph import default_admit_tol
from lsbench import oracles
from lsbench.layers import LayerSizes, layer_suite, scaling_label
from lsbench.tracer import Tracer
from lsbench.workloads import (REFERENCE_CALLS, WORKLOADS, Recorder, Sizes, measure,
                               tracking_run)

from conftest import REPO


def _spec():
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def small_graph():
    cfg = load_scenario(os.path.join(REPO, "configs", "double_integrator.json"))
    dyn = build_dynamics(cfg.model, cfg.methods)
    reps = sample_region(4, cfg.graph.b0, 40, 0)
    graph = expand_graph(reps, cfg.methods, dyn)
    attach_policy(graph, cfg.tf, cfg.lam_alpha, cfg.methods, dyn)
    return cfg, dyn, graph, default_admit_tol(reps)


def _copy_graph(graph):
    return replace(graph, reps=graph.reps.copy(), succ=graph.succ.copy(),
                   policy=graph.policy.copy())


# -- workloads ---------------------------------------------------------------

def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in _spec()["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_runs_end_to_end_at_tiny_size(name):
    workload = WORKLOADS[name](Sizes.tiny())
    ctx = workload.setup(Tracer(enabled=False))
    rec = Recorder()
    tracer = Tracer()
    cycles = measure(workload, ctx, 0.0, [1, 0], tracer, rec)
    assert cycles == 1
    assert rec.failed == 0, rec.failures
    assert rec.attempted >= 1
    assert rec.primary_s and rec.secondary_s
    assert {name: len(times) for name, times in rec.reference_s.items()} == {
        "scalar": REFERENCE_CALLS, "vector": REFERENCE_CALLS}
    assert all(t > 0 for t in rec.primary_s + rec.secondary_s + sum(rec.reference_s.values(), []))
    assert len(rec.primary_ref) == len(rec.primary_s)
    assert len(rec.secondary_ref) == len(rec.secondary_s)
    assert any(span[1] == "oracle" for span in tracer.spans)


def test_same_seed_gives_same_inputs():
    workload = WORKLOADS["track-occlusion"](Sizes.tiny())
    ctx = workload.setup(Tracer(enabled=False))
    seq = lambda: np.random.SeedSequence([5, 0], spawn_key=(0,))  # noqa: E731
    a, ma, _, _ = tracking_run(ctx["cfg"], ctx["dyn"], ctx["occ_graph"], seq(), Tracer(False))
    b, mb, _, _ = tracking_run(ctx["cfg"], ctx["dyn"], ctx["occ_graph"], seq(), Tracer(False))
    assert np.array_equal(a.grid_xhat, b.grid_xhat) and ma == mb


def test_failing_operation_is_counted_not_raised():
    workload = WORKLOADS["mc-adaptive"](Sizes.tiny())
    ctx = workload.setup(Tracer(enabled=False))
    ctx["cfg"].experiment.name = "no-such-experiment"
    rec = Recorder()
    measure(workload, ctx, 0.0, [1, 0], Tracer(enabled=False), rec)
    assert (rec.attempted, rec.failed) == (2, 1)
    assert "no-such-experiment" in rec.failures[0]
    assert rec.secondary_s and not rec.primary_s


def _per_layer_names(lsizes):
    """BENCHMARK.json's per-layer names, with the scaling labels of `lsizes`."""
    default = {f"covgraph.expand_graph_s.{scaling_label(n)}" for n in LayerSizes().scaling_seeds}
    own = {f"covgraph.expand_graph_s.{scaling_label(n)}" for n in lsizes.scaling_seeds}
    return {m["name"] for m in _spec()["per_layer"]} - default | own


def test_scaling_labels_match_benchmark_json():
    assert [scaling_label(n) for n in LayerSizes().scaling_seeds] == ["1k", "2k", "4k"]
    assert [scaling_label(n) for n in LayerSizes.tiny().scaling_seeds] == ["20", "40", "80"]
    assert _per_layer_names(LayerSizes()) == {m["name"] for m in _spec()["per_layer"]}


def test_layer_suite_reports_every_per_layer_metric(tmp_path):
    lsizes = LayerSizes.tiny()
    values, failures = layer_suite(Tracer(), np.random.SeedSequence(1), Sizes.tiny(),
                                   lsizes, str(tmp_path))
    assert failures == []
    assert _per_layer_names(lsizes) - {"trace.overhead_frac"} <= set(values)
    assert values["experiments.failed_runs"] == 0
    assert values["covgraph.riccati_steps"] >= values["covgraph.nodes"]
    assert values["sim.em_steps"] > 0 and values["horizon.epochs"] > 0
    assert os.listdir(tmp_path) == []  # the suite's graph file is removed


@pytest.mark.parametrize("name,spans", [
    ("track-occlusion", {"op.tracking_run", "horizon.run_loop", "sim.source"}),
    ("mc-adaptive", {"op.mc_sweep", "experiments.monte_carlo", "op.tracking_run"}),
    ("schedule-query", {"op.qdp_query", "qdp.qdp", "exact.dyn_prog_exact"}),
])
def test_traced_run_writes_spans_and_reports_every_layer(name, spans, tmp_path):
    import run

    workload = WORKLOADS[name](Sizes.tiny())
    meta = {"seed": 4, "seed2": 0}
    values, attempted, failed, failures, detail = run.run_traced(
        workload, 0.0, [4, 0], str(tmp_path), meta, LayerSizes.tiny())
    assert failed == 0, failures
    assert _per_layer_names(LayerSizes.tiny()) <= set(values)
    with open(detail["trace_file"]) as fh:
        payload = json.load(fh)
    names = {span[1] for span in payload["workload_spans"]["spans"]}
    assert {"setup", "oracle"} | spans <= names
    assert "qdp.backward_tables" in payload["layer_suite_spans"]["self_time_s"]


# -- oracles fail on corrupted inputs ------------------------------------------

def test_graph_oracle_accepts_a_built_graph(small_graph):
    cfg, dyn, graph, tol = small_graph
    oracles.check_graph(graph, cfg.methods, dyn, tol, np.random.default_rng(0), pairs=200)


def test_graph_oracle_rejects_out_of_range_succ(small_graph):
    cfg, dyn, graph, tol = small_graph
    bad = _copy_graph(graph)
    bad.succ[3, 0] = bad.size
    with pytest.raises(oracles.OracleError, match="outside the node range"):
        oracles.check_graph(bad, cfg.methods, dyn, tol, np.random.default_rng(0))


def test_graph_oracle_rejects_edge_to_a_far_node(small_graph):
    cfg, dyn, graph, tol = small_graph
    bad = _copy_graph(graph)
    far = np.argmax(np.linalg.norm(bad.reps.reshape(bad.size, -1), axis=1))
    bad.succ[:, 0] = far
    with pytest.raises(oracles.OracleError, match="above delta"):
        oracles.check_graph(bad, cfg.methods, dyn, tol, np.random.default_rng(0), pairs=200)


def test_graph_oracle_rejects_delta_above_tolerance(small_graph):
    cfg, dyn, graph, tol = small_graph
    with pytest.raises(oracles.OracleError, match="exceeds admit_tol"):
        oracles.check_graph(graph, cfg.methods, dyn, graph.delta / 2, np.random.default_rng(0))


def test_graph_oracle_rejects_invalid_policy(small_graph):
    cfg, dyn, graph, tol = small_graph
    bad = _copy_graph(graph)
    bad.policy[0] = 0
    with pytest.raises(oracles.OracleError, match="policy"):
        oracles.check_graph(bad, cfg.methods, dyn, tol, np.random.default_rng(0))


def test_roundtrip_oracle(small_graph, tmp_path):
    _, _, graph, _ = small_graph
    path = tmp_path / "g.json"
    graph.save(path)
    loaded = type(graph).load(path)
    oracles.check_roundtrip(graph, loaded)
    loaded.reps[0, 0, 0] += 1e-12
    with pytest.raises(oracles.OracleError, match="reps"):
        oracles.check_roundtrip(graph, loaded)


@pytest.fixture(scope="module")
def occlusion_run():
    workload = WORKLOADS["track-occlusion"](Sizes.tiny())
    ctx = workload.setup(Tracer(enabled=False))
    trace, run_metrics, _, _ = tracking_run(ctx["cfg"], ctx["dyn"], ctx["occ_graph"],
                                         np.random.SeedSequence(3), Tracer(False))
    return ctx, trace, run_metrics


def test_track_oracle_accepts_a_run(occlusion_run):
    ctx, trace, run_metrics = occlusion_run
    oracles.check_track(trace, run_metrics, ctx["cfg"].methods, ctx["cfg"].sim.horizon, ctx["dyn"])


def test_track_oracle_rejects_a_truncated_trace(occlusion_run):
    ctx, trace, run_metrics = occlusion_run
    short = replace(trace, epochs=trace.epochs[:-5], grid_steps=trace.grid_steps[:-20])
    with pytest.raises(oracles.OracleError):
        oracles.check_track(short, run_metrics, ctx["cfg"].methods, ctx["cfg"].sim.horizon,
                            ctx["dyn"])


@pytest.mark.parametrize("field,delta", [("attention", 1), ("cpu_load", 1e-3),
                                          ("mse", float("nan"))])
def test_track_oracle_rejects_wrong_metrics(occlusion_run, field, delta):
    ctx, trace, run_metrics = occlusion_run
    wrong = replace(run_metrics, **{field: getattr(run_metrics, field) + delta})
    with pytest.raises(oracles.OracleError):
        oracles.check_track(trace, wrong, ctx["cfg"].methods, ctx["cfg"].sim.horizon, ctx["dyn"])


def test_qdp_oracle(small_graph):
    cfg, dyn, graph, _ = small_graph
    q0 = quantize(cfg.model.P0, graph)
    schedule, cost = qdp(q0, cfg.tf, cfg.lam_alpha, graph, cfg.methods, dyn)
    oracles.check_qdp(graph, q0, schedule, cost, cfg.tf, cfg.lam_alpha, cfg.methods, dyn)
    with pytest.raises(oracles.OracleError, match="cost_on_graph"):
        oracles.check_qdp(graph, q0, schedule, cost * 1.01, cfg.tf, cfg.lam_alpha,
                          cfg.methods, dyn)
    short = Schedule(schedule.methods[:-1])
    with pytest.raises(oracles.OracleError, match="minimal cover"):
        oracles.check_qdp(graph, q0, short, cost, cfg.tf, cfg.lam_alpha, cfg.methods, dyn)


def test_exact_oracles(small_graph):
    cfg, dyn, _, _ = small_graph
    tf, lam = 0.5, 0.5
    P0 = sample_region(4, 5.0, 1, 7)[0]
    schedule, cost = dyn_prog_exact(P0, tf, lam, cfg.methods, dyn)
    oracles.check_exact(P0, schedule, cost, tf, lam, cfg.methods, dyn)
    oracles.check_exact_bruteforce(P0, tf, lam, cfg.methods, dyn)
    statics = [static_schedule(m.id, tf, cfg.methods, dyn) for m in cfg.methods]
    costs = [evaluate_schedule(P0, s, tf, lam, cfg.methods, dyn) for s in statics]
    worst = statics[int(np.argmax(costs))]
    with pytest.raises(oracles.OracleError, match="exceeds static"):
        oracles.check_exact(P0, worst, max(costs), tf, lam, cfg.methods, dyn)
    with pytest.raises(oracles.OracleError, match="minimal cover"):
        oracles.check_exact(P0, Schedule(schedule.methods[:-1]), cost, tf, lam, cfg.methods, dyn)


def test_mc_rows_oracle():
    rows = [{"run": 0, "mse_adaptive": 1.0}, {"run": 1, "mse_adaptive": 2.0}]
    oracles.check_mc_rows(rows, 2)
    with pytest.raises(oracles.OracleError, match="failed"):
        oracles.check_mc_rows([rows[0], {"run": 1, "error": "ValueError: x"}], 2)
    with pytest.raises(oracles.OracleError, match="rows for"):
        oracles.check_mc_rows(rows[:1], 2)


def test_adaptive_row_oracle():
    workload = WORKLOADS["mc-adaptive"](Sizes.tiny())
    ctx = workload.setup(Tracer(enabled=False))
    rows = monte_carlo(ctx["cfg"], runs=2, seed=11, jobs=1)
    args = (11, ctx["track_cfg"], ctx["dyn"], ctx["graph"])
    oracles.check_adaptive_row(rows[1], 1, *args)
    with pytest.raises(oracles.OracleError, match="recomputed"):
        oracles.check_adaptive_row(rows[0], 1, *args)
    for wrong in (rows[1]["mse_adaptive"] * 1.001, float("nan")):
        with pytest.raises(oracles.OracleError, match="mse_adaptive"):
            oracles.check_adaptive_row(dict(rows[1], mse_adaptive=wrong), 1, *args)
    with pytest.raises(oracles.OracleError, match="mse_nominal"):
        oracles.check_adaptive_row({"run": 1, "mse_adaptive": rows[1]["mse_adaptive"]}, 1,
                                   *args)


# -- tracer --------------------------------------------------------------------

def test_tracer_records_parents_roots_and_self_time():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner", calls=4):
            pass
    with tracer.span("outer"):
        pass
    ids = [(s[0], s[1], s[4], s[5]) for s in tracer.spans]
    assert ids == [(0, "outer", None, 0), (1, "inner", 0, 0), (2, "outer", None, 2)]
    self_times = tracer.self_times_s()
    inner = tracer.spans[1][3] - tracer.spans[1][2]
    total_outer = sum(s[3] - s[2] for s in tracer.spans if s[1] == "outer")
    assert self_times["outer"] == pytest.approx((total_outer - inner) / 1e9)
    assert tracer.per_call_s("inner")[0] == pytest.approx(inner / 4e9)
    disabled = Tracer(enabled=False)
    with disabled.span("x"):
        pass
    assert disabled.spans == []


# -- command line ----------------------------------------------------------------

def _run(cwd, *args):
    env = dict(os.environ, PYTHONPATH="")
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=170)


def test_result_line_has_the_documented_shape():
    proc = _run(REPO, "--workload", "mc-adaptive", "--seed", "3", "--seconds", "0.3",
                "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_latencies_are_divided_by_the_reference_loops_around_their_cycle(monkeypatch):
    import lsbench.workloads as workloads

    loops = iter([{"scalar": [1.0] * REFERENCE_CALLS, "vector": [2.0] * REFERENCE_CALLS},
                  {"scalar": [3.0] * REFERENCE_CALLS, "vector": [2.0] * REFERENCE_CALLS}])
    monkeypatch.setattr(workloads, "time_reference", lambda calls: next(loops))

    class Fixed:
        primary_ref, secondary_ref = "vector", "scalar"

        def cycle(self, ctx, seq, tracer, rec):
            rec.primary(6.0, units=2)
            rec.secondary_s.extend([12.0, 24.0])

    rec = Recorder()
    measure(Fixed(), None, 0.0, [1, 0], Tracer(False), rec)  # one cycle, scalar loops of 1 s
    measure(Fixed(), None, 0.0, [1, 0], Tracer(False), rec)  # scalar loops of 3 s
    assert rec.primary_ref == [1.5, 1.5]
    assert rec.secondary_ref == [12.0, 24.0, 4.0, 8.0]


def test_reference_loops_do_not_use_latsched():
    import lsbench.reference as reference

    with open(reference.__file__) as fh:
        imports = [line for line in fh if line.startswith(("import ", "from "))]
    assert imports and not any("latsched" in line for line in imports)
    assert np.all(np.isfinite(reference.scalar_loop()))
    table = reference.vector_loop()
    assert np.isfinite(table).sum() > table.shape[0]  # stages past the first were reached


def test_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.join(REPO, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    proc = _run(tmp_path, "--workload", "track-occlusion", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_unknown_workload_fails():
    proc = _run(REPO, "--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
