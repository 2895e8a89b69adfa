"""Command-line front end.

Subcommands map one-to-one onto library operations:

  build-graph     sample and expand a covariance graph, attach the policy
                  table, and write both to a JSON container.
  schedule-exact  run the exact scheduler from the model's P0.
  schedule-qdp    run the quantized scheduler (building or loading a graph;
                  the graph's policy table is not used).
  bound-check     verify a certificate (or synthesize one) and report B_s.
  simulate        one full tracking run; writes the trace CSV.
  mc-eval         a Monte-Carlo experiment sweep; writes the aggregate CSV.

Exit status: 0 success, 1 configuration/validation error, 2 runtime error.
Diagnostics go to stderr; results go to the output file (and a short summary
to stdout).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .bounds import bound_bs, gbar, lmi_feasible
from .config import ScenarioConfig, _number, _seed, _tf, load_scenario
from .covgraph import quantize
from .dynamics import build_dynamics
from .errors import ConfigError, InvalidModelError, LatschedError
from .exact import dyn_prog_exact, evaluate_schedule, schedule_cpu_load
from .experiments import (
    _block_source,
    _built_graph,
    _prepare_tracking,
    _tracks,
    certificate,
    monte_carlo,
    rows_to_csv,
)
from .qdp import qdp


def _apply_overrides(cfg: ScenarioConfig, args) -> ScenarioConfig:
    if getattr(args, "tf", None) is not None:
        cfg.tf = _tf(args.tf, cfg.model.dt_s, "--Tf")
    if getattr(args, "seed", None) is not None:
        cfg.sim.seed = cfg.graph.seed = _seed(args.seed, "--seed")
    if getattr(args, "runs", None) is not None:
        cfg.sim.runs = int(_number(args.runs, "--runs", positive=True))
    if getattr(args, "gamma", None) is not None:
        if not (0.0 < args.gamma < 1.0):
            raise ConfigError("--gamma must lie strictly in (0, 1)")
        cfg.gamma = args.gamma
    return cfg


def _schedule_payload(cfg, dyn, schedule, cost) -> dict:
    epochs = []
    t_steps = 0
    for k, pid in enumerate(schedule):
        epochs.append({"k": k, "t": t_steps * dyn.dt_s, "method": pid})
        t_steps += cfg.methods[pid - 1].steps
    penalty_term = cfg.lam_alpha * sum(cfg.methods[pid - 1].penalty for pid in schedule) / cfg.tf
    return {
        "methods": list(schedule),
        "cost": cost,
        "penalty_term": penalty_term,
        "covariance_term": cost - penalty_term,
        "cpu_load": schedule_cpu_load(schedule, cfg.tf, cfg.methods, dyn),
        "epochs": epochs,
    }


def _cmd_build_graph(cfg: ScenarioConfig, args) -> int:
    dyn = build_dynamics(cfg.model, cfg.methods)
    graph = _built_graph(cfg, dyn)
    graph.save(args.output)
    print(f"graph: {graph.size} nodes, delta={graph.delta:.4g}, "
          f"bound={graph.bound:.4g} -> {args.output}")
    return 0


def _cmd_schedule_exact(cfg: ScenarioConfig, args) -> int:
    dyn = build_dynamics(cfg.model, cfg.methods)
    schedule, cost = dyn_prog_exact(cfg.model.P0, cfg.tf, cfg.lam_alpha,
                                    cfg.methods, dyn)
    with open(args.output, "w") as fh:
        json.dump(_schedule_payload(cfg, dyn, schedule, cost), fh, indent=2)
    print(f"exact schedule {list(schedule)} cost={cost:.6g} -> {args.output}")
    return 0


def _cmd_schedule_qdp(cfg: ScenarioConfig, args) -> int:
    dyn = build_dynamics(cfg.model, cfg.methods)
    # The query reads its own sweep, not the policy table.
    graph = _built_graph(cfg, dyn, args.graph, with_policy=False)
    q0 = quantize(cfg.model.P0, graph)
    schedule, graph_cost = qdp(q0, cfg.tf, cfg.lam_alpha, graph, cfg.methods, dyn)
    payload = _schedule_payload(cfg, dyn, schedule, graph_cost)
    payload["cost_on_graph"] = graph_cost
    payload["cost"] = evaluate_schedule(cfg.model.P0, schedule, cfg.tf,
                                        cfg.lam_alpha, cfg.methods, dyn)
    payload["start_node"] = q0
    with open(args.output, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"qdp schedule {list(schedule)} cost={payload['cost']:.6g} -> {args.output}")
    return 0


def _cmd_bound_check(cfg: ScenarioConfig, args) -> int:
    dyn = build_dynamics(cfg.model, cfg.methods)
    cert = certificate(cfg, dyn)
    feasible, margin = lmi_feasible(cert, cfg.methods, dyn)
    payload = {
        "feasible": feasible,
        "margin": margin,
        "gamma": cert.gamma,
        "synthesized": cfg.certificate is None,
        "gbar": gbar(cert, cfg.methods, dyn),
    }
    if feasible:
        payload["bs"] = bound_bs(cert, cfg.graph.b0, cfg.methods, dyn)
        payload["b0"] = cfg.graph.b0
    with open(args.output, "w") as fh:
        json.dump(payload, fh, indent=2)
    status = "feasible" if feasible else "infeasible"
    print(f"certificate {status}, margin={margin:.4g}"
          + (f", Bs={payload['bs']:.4g}" if feasible else "")
          + f" -> {args.output}")
    return 0


def _cmd_simulate(cfg: ScenarioConfig, args) -> int:
    ctx = _prepare_tracking(cfg, args.graph)
    (trace,), (m,) = _tracks(cfg, ctx["dyn"], ctx["graph"],
                             _block_source(cfg, [np.random.SeedSequence(cfg.sim.seed)]))
    trace.write_csv(args.output, cfg.methods, ctx["dyn"])
    print(f"simulate: J={m.j_empirical:.6g} cpu={m.cpu_load:.3f} "
          f"attention={m.attention} mse={m.mse:.6g} -> {args.output}")
    return 0


def _cmd_mc_eval(cfg: ScenarioConfig, args) -> int:
    rows = monte_carlo(cfg, jobs=int(_number(args.jobs, "--jobs", positive=True)))
    rows_to_csv(rows, args.output)
    failed = sum(1 for row in rows if "error" in row)
    print(f"mc-eval {cfg.experiment.name}: {len(rows)} runs "
          f"({failed} failed) -> {args.output}")
    return 0


_COMMANDS = {
    "build-graph": _cmd_build_graph,
    "schedule-exact": _cmd_schedule_exact,
    "schedule-qdp": _cmd_schedule_qdp,
    "bound-check": _cmd_bound_check,
    "simulate": _cmd_simulate,
    "mc-eval": _cmd_mc_eval,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latsched",
        description="Latency-aware estimation and perception scheduling",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("-c", "--config", required=True, help="scenario JSON")
        cmd.add_argument("-o", "--output", required=True, help="output file")
        cmd.add_argument("--Tf", dest="tf", type=float, help="override cost.Tf")
        cmd.add_argument("--seed", type=int, help="override seeds")
        cmd.add_argument("--runs", type=int, help="override sim.runs")
        cmd.add_argument("--gamma", type=float, help="override certificate.gamma")
        if name in ("schedule-qdp", "simulate"):
            cmd.add_argument("--graph", help="load a previously built graph file")
        if name == "mc-eval":
            cmd.add_argument("--jobs", type=int, default=1, help="worker cap")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _apply_overrides(load_scenario(args.config), args)
        return _COMMANDS[args.command](cfg, args)
    except (ConfigError, InvalidModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except LatschedError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
