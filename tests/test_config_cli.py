import json
import re
from pathlib import Path

import numpy as np
import pytest

from latsched import CovarianceGraph, ConfigError
from latsched.cli import main
from latsched.config import load_scenario, parse_scenario

from test_experiments import planar_payload

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

        out_a = str(tmp_path / "qdp_a.json")
        out_b = str(tmp_path / "qdp_b.json")
        assert main(["schedule-qdp", "-c", cfg_path, "-o", out_a,
                     "--graph", graph_path]) == 0
        assert main(["schedule-qdp", "-c", cfg_path, "-o", out_b]) == 0
        a = json.loads(Path(out_a).read_text())
        b = json.loads(Path(out_b).read_text())
        assert a["methods"] == b["methods"]
        assert a["cost"] == pytest.approx(b["cost"], rel=1e-12)

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
        ({"experiment": {"oracle_samples": 1.5}},
         "experiment.oracle_samples: expected a positive integer"),
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
