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

COMMANDS = ("build-graph", "schedule-exact", "schedule-qdp", "bound-check", "simulate",
            "mc-eval")
MC_RUNS = {"double_integrator": 20, "occlusion_run": 20, "noise_mismatch": 40}
POOLED = ("occlusion_run", "noise_mismatch")
GRAPH_READERS = ("schedule-qdp", "simulate")


def digest(root: str, command: str, config: str, workdir: str,
           jobs: int = 1, graph: str | None = None, seed: int | None = None) -> tuple[str, int]:
    tag = ("--graph" if graph else "") + ("" if seed is None else f"--seed{seed}")
    output = os.path.join(workdir, f"{command}{tag}-{config}.out")
    argv = [sys.executable, "-m", "latsched.cli", command,
            "-c", os.path.join(root, "configs", f"{config}.json"), "-o", output]
    if command == "mc-eval":
        argv += ["--runs", str(MC_RUNS[config])]
    if jobs > 1:
        argv += ["--jobs", str(jobs)]
    if graph:
        argv += ["--graph", graph]
    if seed is not None:
        argv += ["--seed", str(seed)]
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    done = subprocess.run(argv, env=env, capture_output=True, check=False)
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
        for config in sorted(MC_RUNS):
            for command in COMMANDS:
                sha, code = digest(root, command, config, workdir)
                print(sha, code, command, config, flush=True)
            if config in POOLED:
                sha, code = digest(root, "mc-eval", config, workdir, jobs=2)
                print(sha, code, "mc-eval--jobs2", config, flush=True)
            graph = os.path.join(workdir, f"build-graph-{config}.out")
            for command in GRAPH_READERS:
                sha, code = digest(root, command, config, workdir, graph=graph)
                print(sha, code, f"{command}--graph", config, flush=True)
            sha, code = digest(root, "simulate", config, workdir, seed=1)
            print(sha, code, "simulate--seed1", config, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
