import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latsched import (
    CovarianceGraph,
    ConfigError,
    GridMeasurementSource,
    attach_policy,
    build_dynamics,
    expand_graph,
    experiments,
    metrics,
    monte_carlo,
    run_loop,
    sample_region,
    simulate_sde,
)
from latsched.cli import main
from latsched.config import (
    ExperimentConfig,
    GraphConfig,
    SimConfig,
    load_scenario,
    parse_scenario,
)
from latsched.experiments import _built_graph
from latsched.qdp import policy_meta

from conftest import exact_spd
from test_experiments import planar_payload
from test_qdp import count_sweeps

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class TestConfigParsing:
    def test_full_payload(self):
        cfg = parse_scenario(planar_payload())
        assert cfg.model.n_x == 2
        assert [m.id for m in cfg.methods] == [1, 2]
        assert cfg.tf == 1.0

    def test_penalty_derivation(self):
        payload = planar_payload()
        payload["methods"][0] = {
            "steps": 1, "R": [[0.5, 0], [0, 0.5]], "cpu": 0.5,
            "lambda_load": 2.0, "lambda_att": 0.3,
        }
        cfg = parse_scenario(payload)
        assert np.isclose(cfg.methods[0].penalty, 2.0 * 0.5 * 1 * 0.1 + 0.3)

    def test_missing_field_names_path(self):
        payload = planar_payload()
        del payload["model"]["W"]
        with pytest.raises(ConfigError, match="model.W"):
            parse_scenario(payload)

    def test_bad_method_steps_names_path(self):
        payload = planar_payload()
        payload["methods"][1]["steps"] = 0
        with pytest.raises(ConfigError, match=r"methods\[1\].steps"):
            parse_scenario(payload)

    def test_dimension_mismatch_named(self):
        payload = planar_payload()
        payload["methods"][0]["R"] = [[0.5]]
        with pytest.raises(ConfigError, match=r"methods\[0\].R"):
            parse_scenario(payload)

    def test_tf_grid_check(self):
        payload = planar_payload()
        payload["cost"]["Tf"] = 0.55
        with pytest.raises(ConfigError, match="cost.Tf"):
            parse_scenario(payload)

    def test_non_finite_number_rejected(self):
        payload = planar_payload()
        payload["cost"]["Tf"] = float("nan")
        with pytest.raises(ConfigError, match="cost.Tf: must be finite"):
            parse_scenario(payload)

    def test_non_numeric_occlusion_rejected(self):
        payload = planar_payload(sim={"occlusions": [["a", 1.0]]})
        with pytest.raises(ConfigError, match="sim.occlusions: expected a number"):
            parse_scenario(payload)

    def test_unknown_experiment_rejected(self):
        payload = planar_payload(experiment={"name": "nope"})
        with pytest.raises(ConfigError, match="experiment.name"):
            parse_scenario(payload)

    def test_removed_oracle_keys_are_ignored(self):
        experiment = {"name": "cost-histogram", "graph_sizes": [10]}
        old = parse_scenario(planar_payload(
            experiment={**experiment, "oracle": "random", "oracle_samples": 50}))
        new = parse_scenario(planar_payload(experiment=experiment))
        assert old.experiment == new.experiment == ExperimentConfig(**experiment)
        assert monte_carlo(old, runs=2, seed=3) == monte_carlo(new, runs=2, seed=3)

    def test_certificate_block(self):
        payload = planar_payload()
        payload["certificate"] = {
            "gamma": 0.9,
            "Omega": [[1.0, 0.0], [0.0, 1.0]],
            "Y": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        }
        cfg = parse_scenario(payload)
        assert cfg.certificate is not None
        assert cfg.certificate.gamma == 0.9

    def test_true_R_validation(self):
        for key, R, message in [
            ("9", [[1, 0], [0, 1]], "no such method id"),
            ("0", [[1, 0], [0, 1]], "no such method id"),
            ("3", [[1, 0], [0, 1]], "no such method id"),
            ("1", [[-1, 0], [0, 1]], r"R has eigenvalue -1.000e\+00 below the PSD tolerance"),
            ("2", [[float("nan"), 0], [0, 1]], "R contains non-finite entries"),
            ("2", [[1, 0.5], [0, 1]], "R is not symmetric"),
        ]:
            payload = planar_payload(
                sim={"dt": 0.01, "horizon": 2.0, "seed": 7, "runs": 1,
                     "true_R": {key: R}},
            )
            with pytest.raises(ConfigError, match=f"true_R.{key}: {message}"):
                parse_scenario(payload)

    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_non_boolean_adaptive_R_rejected(self, value):
        payload = planar_payload(sim={"adaptive_R": value})
        with pytest.raises(ConfigError, match="sim.adaptive_R: expected true or false"):
            parse_scenario(payload)

    @pytest.mark.parametrize("horizon", [2.05, 0.04])
    def test_horizon_grid_check(self, horizon):
        with pytest.raises(ConfigError, match="sim.horizon: must be an integer multiple"):
            parse_scenario(planar_payload(sim={"horizon": horizon}))

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_scenario(tmp_path / "missing.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_scenario(path)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_scenario(path)


def write_config(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestCli:
    def test_build_graph_then_qdp_round_trip(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, planar_payload())
        graph_path = str(tmp_path / "graph.json")
        assert main(["build-graph", "-c", cfg_path, "-o", graph_path]) == 0
        loaded = CovarianceGraph.load(graph_path)
        assert loaded.policy is not None
        assert loaded.policy_meta == {"tf": 1.0, "lam_alpha": 5.0,
                                      "methods": [[1, 0.05], [3, 0.24]]}

        out_a = str(tmp_path / "qdp_a.json")
        out_b = str(tmp_path / "qdp_b.json")
        assert main(["schedule-qdp", "-c", cfg_path, "-o", out_a,
                     "--graph", graph_path]) == 0
        assert main(["schedule-qdp", "-c", cfg_path, "-o", out_b]) == 0
        a = json.loads(Path(out_a).read_text())
        b = json.loads(Path(out_b).read_text())
        assert a["methods"] == b["methods"]
        assert a["cost"] == pytest.approx(b["cost"], rel=1e-12)

    def test_schedule_qdp_sweeps_once(self, tmp_path, monkeypatch):
        cfg_path = write_config(tmp_path, planar_payload())
        graph_path = str(tmp_path / "graph.json")
        assert main(["build-graph", "-c", cfg_path, "-o", graph_path]) == 0
        calls = count_sweeps(monkeypatch)
        for extra in ([], ["--graph", graph_path]):
            calls.clear()
            assert main(["schedule-qdp", "-c", cfg_path, "-o", str(tmp_path / "q.json")]
                        + extra) == 0
            assert len(calls) == 1

    @pytest.mark.parametrize("edits", [({"penalty": 5.0}, {"penalty": 0.0}),
                                       ({"steps": 10}, {})])
    def test_policy_for_other_methods_is_recomputed(self, tmp_path, edits):
        graph_path = str(tmp_path / "graph.json")
        assert main(["build-graph", "-c", write_config(tmp_path, planar_payload()),
                     "-o", graph_path]) == 0
        payload = planar_payload()
        for method, edit in zip(payload["methods"], edits):
            method.update(edit)
        cfg = parse_scenario(payload)
        dyn = build_dynamics(cfg.model, cfg.methods)
        graph = _built_graph(cfg, dyn, graph_path)
        stored = CovarianceGraph.load(graph_path)
        assert not np.array_equal(graph.policy, stored.policy)
        fresh = attach_policy(stored, cfg.tf, cfg.lam_alpha, cfg.methods, dyn)
        assert np.array_equal(graph.policy, fresh.policy)
        assert graph.policy_meta == policy_meta(cfg.tf, cfg.lam_alpha, cfg.methods)

    def test_current_policy_is_reused_and_old_meta_recomputed(self, tmp_path, monkeypatch):
        cfg_path = write_config(tmp_path, planar_payload())
        graph_path = tmp_path / "graph.json"
        assert main(["build-graph", "-c", cfg_path, "-o", str(graph_path)]) == 0
        cfg = load_scenario(cfg_path)
        dyn = build_dynamics(cfg.model, cfg.methods)
        calls = count_sweeps(monkeypatch)
        _built_graph(cfg, dyn, graph_path)
        assert calls == []
        # A file whose policy_meta has no method entry holds a policy of unknown methods.
        payload = json.loads(graph_path.read_text())
        del payload["policy_meta"]["methods"]
        graph_path.write_text(json.dumps(payload))
        graph = _built_graph(cfg, dyn, graph_path)
        assert len(calls) == 1
        assert graph.policy_meta == policy_meta(cfg.tf, cfg.lam_alpha, cfg.methods)

    def test_schedule_exact(self, tmp_path):
        cfg_path = write_config(tmp_path, planar_payload())
        out = str(tmp_path / "exact.json")
        assert main(["schedule-exact", "-c", cfg_path, "-o", out]) == 0
        payload = json.loads(Path(out).read_text())
        assert payload["methods"]
        assert payload["cost"] > 0
        assert np.isclose(payload["penalty_term"] + payload["covariance_term"],
                          payload["cost"])

    def test_single_node_high_penalty_schedule(self, tmp_path):
        base = planar_payload(graph={"B0": 2.0, "count": 1, "seed": 0})
        base["cost"]["lambda_alpha"] = 15.0
        cfg_path = write_config(tmp_path, base)
        out = str(tmp_path / "qdp.json")
        assert main(["schedule-qdp", "-c", cfg_path, "-o", out]) == 0
        payload = json.loads(Path(out).read_text())
        assert payload["methods"] == [1] * 10

    def test_bound_check_scalar_toy(self, tmp_path):
        payload = {
            "model": {
                "A": [[float(np.log(0.5))]], "B": [[1.0]], "W": [[0.0]],
                "C": [[1.0]], "x0": [0.0], "P0": [[1.0]], "dt_s": 1.0,
            },
            "methods": [{"steps": 1, "R": [[1.0]], "cpu": 0.5, "penalty": 0.0}],
            "cost": {"Tf": 2.0, "lambda_alpha": 1.0},
            "certificate": {"gamma": 0.3, "Omega": [[1.0]], "Y": [[[0.0]]]},
        }
        cfg_path = write_config(tmp_path, payload)
        out = str(tmp_path / "bound.json")
        assert main(["bound-check", "-c", cfg_path, "-o", out]) == 0
        result = json.loads(Path(out).read_text())
        assert result["feasible"] is True
        assert np.isclose(result["margin"], 0.05)

    def test_simulate_zero_noise_mse(self, tmp_path):
        payload = planar_payload(
            sim={"dt": 0.01, "horizon": 1.0, "seed": 3, "runs": 1,
                 "true_R": {"1": [[0, 0], [0, 0]], "2": [[0, 0], [0, 0]]}},
        )
        payload["model"]["W"] = [[0.0, 0.0], [0.0, 0.0]]
        payload["model"]["P0"] = [[0.0, 0.0], [0.0, 0.0]]
        cfg_path = write_config(tmp_path, payload)
        out = str(tmp_path / "trace.csv")
        assert main(["simulate", "-c", cfg_path, "-o", out]) == 0
        lines = Path(out).read_text().strip().splitlines()
        assert lines[0].startswith("t,xhat_0")
        assert len(lines) == 12  # 11 sensor-grid points + header

    @pytest.mark.parametrize("name", ["occlusion_run", "noise_mismatch"])
    def test_simulate_equals_the_public_pipeline(self, tmp_path, capsys, name):
        # The reference reads the whole sim.dt path and builds its graph,
        # source and loop from the public functions; `simulate` must write
        # the same bytes and print the same summary.
        cfg = load_scenario(CONFIGS / f"{name}.json")
        dyn = build_dynamics(cfg.model, cfg.methods)
        graph = expand_graph(
            sample_region(cfg.model.n_x, cfg.graph.b0, cfg.graph.count, cfg.graph.seed),
            cfg.methods, dyn, admit_tol=cfg.graph.admit_tol, b0=cfg.graph.b0)
        attach_policy(graph, cfg.tf, cfg.lam_alpha, cfg.methods, dyn)
        truth_seed, meas_seed = np.random.SeedSequence(cfg.sim.seed).spawn(2)
        _, path = simulate_sde(cfg.model, cfg.sim.horizon, cfg.sim.dt, truth_seed)
        source = GridMeasurementSource(cfg.model, path, cfg.sim.dt,
                                       np.random.default_rng(meas_seed),
                                       occlusions=cfg.sim.occlusions, true_R=cfg.sim.true_R)
        trace = run_loop(cfg.model, cfg.methods, graph, graph.policy, cfg.sim.horizon, source,
                         dyn, use_adaptive=cfg.sim.adaptive, window_length=cfg.sim.window)
        m = metrics(trace, path, cfg.lam_alpha, cfg.methods, cfg.sim.horizon, dyn, cfg.sim.dt)
        want = tmp_path / "want.csv"
        trace.write_csv(want, cfg.methods, dyn)
        out = tmp_path / "trace.csv"
        assert main(["simulate", "-c", str(CONFIGS / f"{name}.json"), "-o", str(out)]) == 0
        assert out.read_bytes() == want.read_bytes()
        assert capsys.readouterr().out == (
            f"simulate: J={m.j_empirical:.6g} cpu={m.cpu_load:.3f} "
            f"attention={m.attention} mse={m.mse:.6g} -> {out}\n")

    def test_mc_eval_writes_csv(self, tmp_path):
        payload = planar_payload(experiment={"name": "adaptive-R"})
        payload["sim"]["runs"] = 2
        cfg_path = write_config(tmp_path, payload)
        out = str(tmp_path / "mc.csv")
        assert main(["mc-eval", "-c", cfg_path, "-o", out, "--runs", "2"]) == 0
        lines = Path(out).read_text().strip().splitlines()
        assert lines[0].split(",")[0] == "run"
        assert len(lines) == 3

    def test_validation_error_exit_code(self, tmp_path, capsys):
        payload = planar_payload()
        del payload["cost"]
        cfg_path = write_config(tmp_path, payload)
        assert main(["schedule-exact", "-c", cfg_path, "-o",
                     str(tmp_path / "x.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_cost_histogram_past_exact_caps_exits_2(self, tmp_path, capsys):
        payload = planar_payload(cost={"Tf": 2.5, "lambda_alpha": 5.0},
                                 experiment={"name": "cost-histogram", "graph_sizes": [10]})
        out = tmp_path / "mc.csv"
        assert main(["mc-eval", "-c", write_config(tmp_path, payload), "-o", str(out)]) == 2
        assert "recursion depth 25 > 24" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, experiment", [
        ("bound-check", "moving-horizon"),
        ("mc-eval", "bound-validation"),
    ])
    def test_failed_certificate_synthesis_exits_2(self, tmp_path, capsys, monkeypatch,
                                                  command, experiment):
        monkeypatch.setattr(experiments, "synthesize_certificate", lambda *args: None)
        cfg_path = write_config(tmp_path, planar_payload(experiment={"name": experiment}))
        out = tmp_path / "out"
        assert main([command, "-c", cfg_path, "-o", str(out)]) == 2
        assert capsys.readouterr().err == ("runtime error: certificate synthesis failed; "
                                           "supply Omega/Y in the certificate block\n")
        assert not out.exists()

    def test_runtime_error_exit_code(self, tmp_path, capsys):
        payload = planar_payload()
        payload["cost"]["Tf"] = 40.0  # depth guard in the exact scheduler
        cfg_path = write_config(tmp_path, payload)
        assert main(["schedule-exact", "-c", cfg_path, "-o",
                     str(tmp_path / "x.json")]) == 2
        assert "runtime error" in capsys.readouterr().err

    @pytest.mark.parametrize("command, override", [
        ("schedule-qdp", ["--Tf", "0"]),
        ("schedule-qdp", ["--Tf", "-1"]),
        ("schedule-qdp", ["--Tf", "nan"]),
        ("build-graph", ["--seed", "-1"]),
        ("mc-eval", ["--runs", "0"]),
        ("mc-eval", ["--jobs", "0"]),
    ])
    def test_bad_override_exits_1(self, tmp_path, capsys, command, override):
        cfg_path = write_config(tmp_path, planar_payload())
        out = tmp_path / "out"
        assert main([command, "-c", cfg_path, "-o", str(out)] + override) == 1
        assert f"error: {override[0]}: must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["--seed", "1.5"], "argument --seed: invalid int value: '1.5'"),
        (["--runs", "x"], "argument --runs: invalid int value: 'x'"),
        (["--bogus"], "unrecognized arguments: --bogus"),
    ])
    def test_malformed_argument_exits_2_before_config(self, tmp_path, capsys, argv, message):
        # argparse rejects these before any config is read: usage exit 2, not 1.
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["build-graph", "-c", str(tmp_path / "missing.json"), "-o", str(out)] + argv)
        assert exc.value.code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("block, seed, message", [
        pytest.param("graph", -1, "must be >= 0", id="graph"),
        pytest.param("sim", -1, "must be >= 0", id="sim"),
        pytest.param("graph", 1.5, "expected an integer, got float", id="graph-1.5"),
        pytest.param("sim", 2.7, "expected an integer, got float", id="sim-2.7"),
    ])
    def test_negative_seed_in_file_exits_1(self, tmp_path, capsys, block, seed, message):
        cfg_path = write_config(tmp_path, planar_payload(**{block: {"seed": seed}}))
        out = tmp_path / "graph.json"
        assert main(["build-graph", "-c", cfg_path, "-o", str(out)]) == 1
        assert f"error: {block}.seed: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("tweak, message", [
        ({"cost": 5}, "cost: expected an object"),
        ({"graph": [1]}, "graph: expected an object"),
        ({"graph": None}, "graph: expected an object"),
        ({"sim": 3}, "sim: expected an object"),
        ({"certificate": "x"}, "certificate: expected an object"),
        ({"experiment": []}, "experiment: expected an object"),
        ({"experiment": {"name": []}}, "experiment.name: expected one of"),
        ({"experiment": {"graph_sizes": 5}}, "experiment.graph_sizes: expected an array"),
        ({"experiment": {"graph_sizes": [50, "a"]}},
         r"experiment.graph_sizes\[1\]: expected a positive integer"),
        ({"experiment": {"graph_sizes": [0]}},
         r"experiment.graph_sizes\[0\]: expected a positive integer"),
        ({"experiment": {"true_R_factor": 0}}, "experiment.true_R_factor: must be > 0"),
        ({"experiment": {"schedule_steps": True}},
         "experiment.schedule_steps: expected a positive integer"),
        ({"graph": {"count": 0.5}}, "graph.count: expected a positive integer"),
        ({"graph": {"count": 500.0}}, "graph.count: expected a positive integer"),
    ])
    def test_malformed_block_in_file_exits_1(self, tmp_path, capsys, tweak, message):
        cfg_path = write_config(tmp_path, planar_payload(**tweak))
        out = tmp_path / "graph.json"
        assert main(["build-graph", "-c", cfg_path, "-o", str(out)]) == 1
        assert re.match(f"error: {message}", capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "mc-eval"])
    @pytest.mark.parametrize("sim, message", [
        ({"adaptive_R": "false"}, "sim.adaptive_R: expected true or false"),
        ({"horizon": 10.05}, "sim.horizon: must be an integer multiple of model.dt_s"),
        ({"window": 0.5}, "sim.window: expected a positive integer"),
        ({"runs": 2.0}, "sim.runs: expected a positive integer"),
        ({"true_R": [1]}, "sim.true_R: expected an object"),
        ({"occlusions": [[6.0, 4.0]]}, "sim.occlusions[0]: start must be < stop"),
        ({"occlusions": [[1.0, 2.0], [3.0, 3.0]]}, "sim.occlusions[1]: start must be < stop"),
        ({"true_R": {"1": [[-1, 0], [0, 1]]}}, "sim.true_R.1: R has eigenvalue"),
        ({"true_R": {"1": [[float("nan"), 0], [0, 1]]}},
         "sim.true_R.1: R contains non-finite entries"),
    ])
    def test_bad_sim_block_exits_1(self, tmp_path, capsys, command, sim, message):
        payload = json.loads((CONFIGS / "noise_mismatch.json").read_text())
        payload["sim"].update(sim)
        cfg_path = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main([command, "-c", cfg_path, "-o", str(out), "--runs", "2"]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, experiment", [
        ("simulate", None), ("mc-eval", "moving-horizon"), ("mc-eval", "adaptive-R"),
    ])
    def test_default_sim_grid_checked_exits_1(self, tmp_path, capsys, command, experiment):
        # Without a sim block, sim.dt defaults to 1e-3, which does not divide 1/30.
        payload = json.loads((CONFIGS / "double_integrator.json").read_text())
        del payload["sim"]
        if experiment:
            payload["experiment"] = {"name": experiment}
        cfg_path = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main([command, "-c", cfg_path, "-o", str(out)]) == 1
        assert "error: sim.dt: must divide model.dt_s exactly" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["build-graph", "schedule-exact", "schedule-qdp"])
    def test_no_sim_block_needed_without_simulation(self, tmp_path, command):
        payload = json.loads((CONFIGS / "double_integrator.json").read_text())
        del payload["sim"]
        payload["graph"]["count"] = 50
        cfg_path = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main([command, "-c", cfg_path, "-o", str(out), "--Tf", "0.5"]) == 0
        assert out.exists()

    def test_seed_override_changes_graph(self, tmp_path):
        cfg_path = write_config(tmp_path, planar_payload())
        g1 = str(tmp_path / "g1.json")
        g2 = str(tmp_path / "g2.json")
        assert main(["build-graph", "-c", cfg_path, "-o", g1]) == 0
        assert main(["build-graph", "-c", cfg_path, "-o", g2, "--seed", "99"]) == 0
        a = CovarianceGraph.load(g1)
        b = CovarianceGraph.load(g2)
        assert not np.array_equal(a.reps[: min(a.size, b.size)],
                                  b.reps[: min(a.size, b.size)])


def _put(path, value):
    """Edit that sets payload[path[0]][path[1]]... to `value`."""
    def edit(payload):
        for key in path[:-1]:
            payload = payload[key]
        payload[path[-1]] = value
    return edit


def _drop(path):
    """Edit that deletes payload[path[0]][path[1]]..."""
    def edit(payload):
        for key in path[:-1]:
            payload = payload[key]
        del payload[path[-1]]
    return edit


class TestGraphFile:
    """Malformed graph files given to --graph exit with code 1, never a traceback."""

    @pytest.fixture(scope="class")
    def built(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("graph")
        cfg_path = write_config(tmp, planar_payload())
        graph_path = tmp / "graph.json"
        assert main(["build-graph", "-c", cfg_path, "-o", str(graph_path)]) == 0
        return cfg_path, json.loads(graph_path.read_text())

    @pytest.mark.parametrize("edit,match", [
        (_drop(("edges", -1)), "exactly one edge"),
        (_put(("edges", -1), [0, 1, 0]), "exactly one edge"),
        (_put(("edges", -1, 1), 3), "exactly one edge"),
        (_put(("edges", 0, 0), 10**6), r"\(node, method\) outside"),
        (_put(("edges", 0, 1), 0), r"\(node, method\) outside"),
        (_put(("edges", 0, 2), 10**6), "successor outside"),
        (_put(("edges", 0, 2), -1), "successor outside"),
        (_put(("reps", 0, 0), float("nan")), "non-finite"),
        (_put(("reps", 0, 1), float("inf")), "non-finite"),
        (_drop(("reps", 0, -1)), "graph.reps"),
        (_put(("n",), 3), "graph.reps: expected"),
        (_put(("reps",), []), "graph.reps"),
        (_drop(("policy", -1)), "graph.policy"),
        (_put(("policy", 0), 3), "graph.policy"),
        (_put(("policy", 0), 0), "graph.policy"),
        (_put(("format_version",), 99), "unsupported graph format"),
        (_drop(("format_version",)), "unsupported graph format"),
        (_drop(("reps",)), "graph.reps: missing"),
        (_drop(("edges",)), "graph.edges: missing"),
        (_drop(("delta",)), "graph.delta: missing"),
        (_put(("delta",), "small"), "graph.delta: expected a number"),
        (_put(("n",), "2"), "graph.n"),
        (_put(("edges",), "none"), "graph.edges"),
        (_put(("edges", 0, 2), 1.5), "graph.edges"),
        (_drop(("edges", 0, -1)), "graph.edges"),
        (_put(("policy",), ["1"] * 3), "graph.policy"),
        (_put(("policy_meta",), [1.0, 5.0]), "graph.policy_meta"),
        (_put(("reps", 0), [1.0, 0.0, 0.0, -1.0]),
         r"graph.reps\[0\]: eigenvalue -1.000e\+00 below the PSD tolerance"),
        (_put(("reps", 1), [1.0, 0.0, 0.0, -1e-9]), r"graph.reps\[1\]: eigenvalue"),
        (_put(("reps", 2), [1.0, 2.0, 2.0, 1.0]), r"graph.reps\[2\]: eigenvalue"),
    ])
    def test_malformed_graph_exits_1(self, built, tmp_path, capsys, edit, match):
        cfg_path, payload = built
        payload = json.loads(json.dumps(payload))
        edit(payload)
        graph_path = tmp_path / "bad.json"
        graph_path.write_text(json.dumps(payload))
        assert main(["schedule-qdp", "-c", cfg_path, "-o", str(tmp_path / "q.json"),
                     "--graph", str(graph_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: graph file")
        assert re.search(match, err)

    def test_not_json_exits_1(self, built, tmp_path, capsys):
        cfg_path, _ = built
        graph_path = tmp_path / "bad.json"
        graph_path.write_text("{not json")
        assert main(["schedule-qdp", "-c", cfg_path, "-o", str(tmp_path / "q.json"),
                     "--graph", str(graph_path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_not_utf8_exits_1(self, built, tmp_path, capsys):
        cfg_path, _ = built
        graph_path = tmp_path / "bad.json"
        graph_path.write_bytes(b"\xff\xfe")
        assert main(["schedule-qdp", "-c", cfg_path, "-o", str(tmp_path / "q.json"),
                     "--graph", str(graph_path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("command, out", [("schedule-qdp", "q.json"), ("simulate", "t.csv")])
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_graph_exits_1(self, built, tmp_path, capsys, command, out, kind):
        # As an unreadable -c file does: a config error naming the path, not exit 2.
        cfg_path, _ = built
        graph_path = tmp_path / "graph.json"
        if kind == "directory":
            graph_path.mkdir()
        assert main([command, "-c", cfg_path, "-o", str(tmp_path / out),
                     "--graph", str(graph_path)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: graph file {graph_path}: cannot read: [Errno")
        assert not (tmp_path / out).exists()

    def test_graph_from_another_model_exits_1(self, built, tmp_path, capsys):
        _, payload = built
        scenario = planar_payload()
        scenario["methods"].append(dict(scenario["methods"][0], steps=2))
        cfg_path = write_config(tmp_path, scenario)
        graph_path = tmp_path / "graph.json"
        graph_path.write_text(json.dumps(payload))
        assert main(["simulate", "-c", cfg_path, "-o", str(tmp_path / "t.csv"),
                     "--graph", str(graph_path)]) == 1
        assert "2 methods; the scenario has n=2 and 3" in capsys.readouterr().err

    def test_round_off_negative_rep_loads(self, built, tmp_path):
        # -1e-12 lies within 1e-10 of the rep's Frobenius norm (about 1).
        cfg_path, payload = built
        payload = json.loads(json.dumps(payload))
        payload["reps"][1] = [1.0, 0.0, 0.0, -1e-12]
        graph_path = tmp_path / "graph.json"
        graph_path.write_text(json.dumps(payload))
        assert main(["schedule-qdp", "-c", cfg_path, "-o", str(tmp_path / "q.json"),
                     "--graph", str(graph_path)]) == 0

    def test_untouched_graph_still_loads(self, built, tmp_path):
        cfg_path, payload = built
        graph_path = tmp_path / "graph.json"
        graph_path.write_text(json.dumps(payload))
        assert main(["schedule-qdp", "-c", cfg_path, "-o", str(tmp_path / "q.json"),
                     "--graph", str(graph_path)]) == 0


def run_python(code: str) -> subprocess.CompletedProcess:
    """`python -c code` in a fresh interpreter that imports latsched from src/."""
    env = dict(os.environ, PYTHONPATH=str(CONFIGS.parent / "src"))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=False)


class TestNumpyOnlyRuntime:
    """The library and CLI run on numpy alone; scipy is a test oracle only."""

    def test_cli_import_loads_no_scipy(self):
        done = run_python("import sys, latsched.cli\n"
                          "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    @pytest.mark.parametrize("command, config", [
        ("schedule-exact", "double_integrator"),
        ("simulate", "occlusion_run"),
    ])
    def test_cli_runs_without_scipy(self, tmp_path, command, config):
        argv = [command, "-c", str(CONFIGS / f"{config}.json"), "-o", str(tmp_path / "out")]
        done = run_python("import sys\nsys.modules['scipy'] = None\n"
                          f"from latsched.cli import main\nsys.exit(main({argv!r}))")
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "out").stat().st_size > 0


@st.composite
def scenario_payloads(draw):
    """Valid scenario JSON objects; each optional block is present or not.

    C is diagonally dominant, so (A, C) is observable, and every covariance is
    exactly symmetric positive definite, so validation keeps it as written.
    """
    n, n_w, D = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 3))
    floats = st.floats(-2.0, 2.0)

    def matrix(rows, cols):
        return np.array(draw(st.lists(floats, min_size=rows * cols, max_size=rows * cols))
                        ).reshape(rows, cols).tolist()

    def spd(size):
        return draw(exact_spd(size)).tolist()

    dt_s = draw(st.floats(1e-3, 1.0))
    positive = st.floats(1e-3, 1e3)
    counts = st.integers(1, 10**4)
    payload = {
        "model": {
            "A": matrix(n, n), "B": matrix(n, n_w), "W": spd(n_w),
            "C": (np.array(matrix(n, n)) + 10.0 * np.eye(n)).tolist(),
            "x0": draw(st.lists(floats, min_size=n, max_size=n)), "P0": spd(n), "dt_s": dt_s,
        },
        "methods": [{"steps": draw(st.integers(1, 20)), "R": spd(n),
                     "cpu": draw(st.floats(0.0, 1.0, exclude_min=True)),
                     "penalty": draw(st.floats(0.0, 10.0))} for _ in range(D)],
        "cost": {"Tf": draw(st.integers(1, 600)) * dt_s,
                 "lambda_alpha": draw(st.floats(0.0, 100.0))},
    }
    if draw(st.booleans()):
        payload["graph"] = {"B0": draw(positive), "count": draw(counts),
                            "seed": draw(st.integers(0, 2**32)),
                            "admit_tol": draw(st.none() | positive)}
    if draw(st.booleans()):
        sim_dt = dt_s / draw(st.integers(1, 20))
        starts = draw(st.lists(st.floats(0.0, 10.0), max_size=3))
        payload["sim"] = {
            "dt": sim_dt, "horizon": draw(st.integers(1, 50)) * dt_s,
            "occlusions": [[a, a + draw(st.floats(1e-3, 5.0))] for a in starts],
            "true_R": {str(i): spd(n) for i in draw(st.sets(st.integers(1, D)))},
            "seed": draw(st.integers(0, 2**32)), "runs": draw(counts),
            "adaptive_R": draw(st.booleans()), "window": draw(counts),
        }
    if draw(st.booleans()):
        cert = {"gamma": draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))}
        if draw(st.booleans()):
            cert.update(Omega=spd(n), Y=[matrix(n, n) for _ in range(D)])
        payload["certificate"] = cert
    if draw(st.booleans()):
        payload["experiment"] = {
            "name": draw(st.sampled_from(
                ["bound-validation", "cost-histogram", "moving-horizon", "adaptive-R"])),
            "graph_sizes": draw(st.lists(counts, max_size=4)),
            "schedule_steps": draw(counts),
            "true_R_factor": draw(positive),
        }
    return payload


def same(value, array) -> bool:
    """A JSON number or nested list equals the array bit for bit, shape included."""
    expected = np.array(value, dtype=float)
    return expected.shape == np.shape(array) and expected.tobytes() == \
        np.asarray(array, dtype=float).tobytes()


@settings(max_examples=60, deadline=None)
@given(payload=scenario_payloads())
def test_config_json_round_trip(payload, tmp_path_factory):
    path = tmp_path_factory.mktemp("config") / "scenario.json"
    path.write_text(json.dumps(payload))
    cfg = load_scenario(path)
    model = payload["model"]
    for name in ("A", "B", "W", "C", "x0", "P0", "dt_s"):
        assert same(model[name], getattr(cfg.model, name))
    assert len(cfg.methods) == len(payload["methods"])
    for i, (method, entry) in enumerate(zip(cfg.methods, payload["methods"]), start=1):
        assert (method.id, method.steps) == (i, entry["steps"])
        assert same(entry["R"], method.R)
        assert same(entry["cpu"], method.cpu) and same(entry["penalty"], method.penalty)
    assert same(payload["cost"]["Tf"], cfg.tf)
    assert same(payload["cost"]["lambda_alpha"], cfg.lam_alpha)

    graph = payload.get("graph")
    if graph is None:
        assert cfg.graph == GraphConfig()
    else:
        assert same(graph["B0"], cfg.graph.b0)
        assert (cfg.graph.count, cfg.graph.seed) == (graph["count"], graph["seed"])
        assert cfg.graph.admit_tol is None if graph["admit_tol"] is None \
            else same(graph["admit_tol"], cfg.graph.admit_tol)

    sim = payload.get("sim")
    if sim is None:
        assert cfg.sim == SimConfig()
    else:
        assert same(sim["dt"], cfg.sim.dt) and same(sim["horizon"], cfg.sim.horizon)
        assert same(sim["occlusions"], cfg.sim.occlusions)
        assert sorted(cfg.sim.true_R) == sorted(int(k) for k in sim["true_R"])
        assert all(same(R, cfg.sim.true_R[int(k)]) for k, R in sim["true_R"].items())
        assert (cfg.sim.seed, cfg.sim.runs, cfg.sim.adaptive, cfg.sim.window) == \
            (sim["seed"], sim["runs"], sim["adaptive_R"], sim["window"])

    cert = payload.get("certificate", {})
    assert same(cert.get("gamma", 0.98), cfg.gamma)
    if "Omega" in cert:
        assert same(cert["Omega"], cfg.certificate.omega)
        assert same(cert["Y"], cfg.certificate.ys)
        assert same(cert["gamma"], cfg.certificate.gamma)
    else:
        assert cfg.certificate is None

    experiment = payload.get("experiment")
    if experiment is None:
        assert cfg.experiment == ExperimentConfig()
    else:
        e = cfg.experiment
        assert (e.name, e.graph_sizes, e.schedule_steps) == \
            tuple(experiment[key] for key in ("name", "graph_sizes", "schedule_steps"))
        assert same(experiment["true_R_factor"], e.true_R_factor)
