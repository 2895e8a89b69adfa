"""Digest every CLI subcommand's output on the three shipped configs.

Usage, from any directory:

    python tools/output_digest.py [--root CHECKOUT] > digest.txt

Each subcommand runs on each config in `configs/` of CHECKOUT (default: the
checkout this file is in), in a fresh process that imports latsched from
CHECKOUT's `src/`, writing into a temporary directory. `mc-eval` runs at
`--runs` 20, 20 and 40 (double_integrator, occlusion_run, noise_mismatch),
and the two tracking experiments (occlusion_run, noise_mismatch) run once
more at `--jobs 2`, which splits their runs into one block per worker.
`schedule-qdp` and `simulate` run once more on each config with `--graph`,
reading the graph file that config's `build-graph` run wrote, and `simulate`
runs once more with `--seed 1`, which draws another graph, truth path and
schedule. One line is printed per run:

    <sha256> <exit code> <subcommand> <config>

where a `--jobs 2` run's subcommand reads `mc-eval--jobs2`, a `--graph`
run's reads `schedule-qdp--graph` or `simulate--graph`, a `--seed 1` run's
reads `simulate--seed1`, and the hash covers
the output file, stdout and stderr, with the temporary directory's path
replaced by a fixed name. Two checkouts give the same outputs when their
digests are the same, which one `diff` shows.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from typing import NamedTuple

COMMANDS = ("build-graph", "schedule-exact", "schedule-qdp", "bound-check", "simulate",
            "mc-eval")
MC_RUNS = {"double_integrator": 20, "occlusion_run": 20, "noise_mismatch": 40}
POOLED = ("occlusion_run", "noise_mismatch")
GRAPH_READERS = ("schedule-qdp", "simulate")


class Run(NamedTuple):
    label: str
    command: str
    config: str
    jobs: int = 1
    graph: bool = False
    seed: int | None = None


def _run_list() -> tuple:
    runs = []
    for config in sorted(MC_RUNS):
        runs += [Run(command, command, config) for command in COMMANDS]
        if config in POOLED:
            runs.append(Run("mc-eval--jobs2", "mc-eval", config, jobs=2))
        runs += [Run(f"{command}--graph", command, config, graph=True)
                 for command in GRAPH_READERS]
        runs.append(Run("simulate--seed1", "simulate", config, seed=1))
    return tuple(runs)


# Every run, in the order the digest prints them; a `--graph` run reads the
# graph file its config's `build-graph` run wrote earlier in the same workdir.
RUNS = _run_list()


def execute(root: str, run: Run, workdir: str) -> tuple[str, subprocess.CompletedProcess]:
    """`run` of the checkout at `root`, in a fresh process; its output path and process."""
    tag = ("--graph" if run.graph else "") + ("" if run.seed is None else f"--seed{run.seed}")
    output = os.path.join(workdir, f"{run.command}{tag}-{run.config}.out")
    argv = [sys.executable, "-m", "latsched.cli", run.command,
            "-c", os.path.join(root, "configs", f"{run.config}.json"), "-o", output]
    if run.command == "mc-eval":
        argv += ["--runs", str(MC_RUNS[run.config])]
    if run.jobs > 1:
        argv += ["--jobs", str(run.jobs)]
    if run.graph:
        argv += ["--graph", os.path.join(workdir, f"build-graph-{run.config}.out")]
    if run.seed is not None:
        argv += ["--seed", str(run.seed)]
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    return output, subprocess.run(argv, env=env, capture_output=True, check=False)


def digest(root: str, run: Run, workdir: str) -> tuple[str, int]:
    output, done = execute(root, run, workdir)
    sha = hashlib.sha256()
    if os.path.exists(output):
        with open(output, "rb") as fh:
            sha.update(fh.read())
    for stream in (done.stdout, done.stderr):
        sha.update(b"\0" + stream.replace(workdir.encode(), b"<tmp>"))
    return sha.hexdigest(), done.returncode


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), help="latsched checkout to run")
    root = os.path.abspath(parser.parse_args().root)
    with tempfile.TemporaryDirectory() as workdir:
        for run in RUNS:
            sha, code = digest(root, run, workdir)
            print(sha, code, run.label, run.config, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
