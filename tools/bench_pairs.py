"""Run the benchmark as alternating pairs: a parent checkout against this one.

Usage, from any directory:

    python tools/bench_pairs.py --parent PARENT --workload schedule-query \\
        --pairs 10 --seconds 25 --seed 1 --out BENCH_20.json [--seed2 7] [--trace 1]
    python tools/bench_pairs.py --parent PARENT --cli --pairs 5 --out BENCH_22.json
    python tools/bench_pairs.py --parent PARENT --sweep configs/noise_mismatch.json \\
        --runs 200 --pairs 10 --out BENCH_27.json

PARENT is a checkout of the commit to compare against (for example made with
`git clone` or `git archive`); the change side is the checkout this file is
in. Pair i runs `python3 perfbench/run.py --workload W --seed SEED+i ...` once
in each checkout, one process at a time with PYTHONDONTWRITEBYTECODE=1, the
parent first in even pairs and the change first in odd ones, so a drift in
the machine's speed falls on both sides alike.

Each call adds one set of pairs to OUT (created if missing) in the layout of
the earlier BENCH_*.json files: the run records under "runs" (each with the
`detail` block run.py prints, such as raw milliseconds), and under
"summary" for the set, per metric, both sides' medians and quartiles, the
ratio of the medians and the pairs the change won. A metric's direction is
read from BENCHMARK.json. The summary and the printout also give both
sides' medians of the `detail` timings `primary_ms_p50`, `secondary_ms_p50`
and `secondary_ms_p90`, in milliseconds and without a verdict, so a change
in reference-loop units can be read in time too. OUT is rewritten after
every pair, so an interrupted call keeps the pairs it finished, and the
set's description (its count of pairs and range of seeds) names those pairs
only. For every metric the call
prints whether the claim rule holds: the change is better in at least 9 of
10 pairs, and the medians differ, in its favour, by more than the parent's
interquartile range. It also prints the mirror verdict: "worse" when the
change is worse in at least 9 of 10 pairs and its median is worse by more
than the parent's interquartile range, "not worse" otherwise. Both
verdicts need at least 10 pairs: from fewer, 9 of 10 is not a count the pairs
can reach (2 of 2 is not evidence), so the set prints "unresolved (N pairs)"
and stores `resolved` false. Quartiles are `statistics.quantiles(n=4)`'s, the
exclusive method.

With `--cli` in place of `--workload`, a pair times CLI processes instead:
each of `tools/output_digest.py`'s 30 runs (every subcommand on every
shipped config) once in each checkout, back to back, the parent first in even
pairs and the change first in odd ones. A run's metric is its process's wall
time in seconds, `wall_s.<subcommand>.<config>`, start-up included; both
sides must exit alike. Each side writes into its own temporary directory,
where its `--graph` runs read its own `build-graph` output. Before the first
pair each side imports `latsched.cli` once, untimed, so both run from
compiled bytecode.

With `--sweep CONFIG --runs N`, a pair times Monte-Carlo sweeps in-process:
one child process per checkout, the parent first in even pairs, each loading
CONFIG, running one warm-up sweep at seed
SEED + i and then timing consecutive sweeps
`monte_carlo(cfg, runs=N, seed=S, jobs=1)` for about SWEEP_SECONDS, and at
least SWEEP_LEAST of them, with single-threaded BLAS as perfbench fixes it.
Sweep j of pair i runs seed S = (SEED + i) * SEED_STRIDE + j, so no two
sweeps share a seed. A run's metric is `sweep_ms.<experiment>`, the median
of its child's timed sweeps in milliseconds: a 20 ms sweep timed once is one
sample of the machine's noise. The warm-up sweep's milliseconds are
`sweep_first_ms.<experiment>`: it pays the first-call costs a one-call CLI
process pays, set-up and cold memos included. Neither is a BENCHMARK.json
metric, so their summary rows are marked `gated` false, but they get both
verdicts under the same rules, from at least 10 pairs. No sweep of a child
may fail a row. A relative CONFIG is read inside each checkout, so each side
sweeps its own version of a shipped config; an absolute one is the same file
for both sides.
"""

import argparse
import json
import os
import platform
import statistics
import string
import subprocess
import sys
import tempfile
import time

from output_digest import RUNS, execute

CHANGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Fewest pairs from which "9 of 10" can give a verdict.
MIN_PAIRS = 10
# Raw millisecond timings of a run's `detail` block, summarized by their
# medians beside the gated metrics but given no verdict.
DETAIL_MS = ("primary_ms_p50", "secondary_ms_p50", "secondary_ms_p90")
# A sweep child times consecutive sweeps for about SWEEP_SECONDS, and at
# least SWEEP_LEAST of them; its sweep j of seed s runs seed s * SEED_STRIDE + j.
SWEEP_SECONDS = 1.0
SWEEP_LEAST = 3
SEED_STRIDE = 10 ** 6


def run_once(root: str, args, seed: int) -> dict:
    """One benchmark process in `root`; its result line and machine block."""
    argv = [sys.executable, "perfbench/run.py", "--workload", args.workload,
            "--seed", str(seed), "--seed2", str(args.seed2),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{root}: {' '.join(argv[1:])} exited {done.returncode}:\n"
                           f"{done.stderr.strip()}")
    return {"head": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def sweep_timings(sweep, seed: int, clock=time.perf_counter) -> dict:
    """A sweep child's timings: its first sweep, `sweep(seed)`, then `sweep_times`.

    Returns the first sweep's milliseconds (`first_ms`), the median of the
    consecutive sweeps' (`ms`) and their count (`sweeps`).
    """
    begin = clock()
    sweep(seed)
    first = 1e3 * (clock() - begin)
    times = sweep_times(sweep, seed, clock)
    return {"first_ms": first, "ms": statistics.median(times), "sweeps": len(times)}


def sweep_times(sweep, seed: int, clock=time.perf_counter) -> list:
    """Milliseconds of consecutive `sweep(s)` calls, sweep j with s = seed * SEED_STRIDE + j.

    Sweeps run until SWEEP_SECONDS have passed and SWEEP_LEAST have run.
    """
    times = []
    start = clock()
    while len(times) < SWEEP_LEAST or clock() - start < SWEEP_SECONDS:
        begin = clock()
        sweep(seed * SEED_STRIDE + len(times))
        times.append(1e3 * (clock() - begin))
    return times


# Timed sweeps in a child process: argv is CONFIG RUNS SEED, and the
# directory of this file, whose `sweep_timings` times them.
SWEEP_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[4])
from bench_pairs import sweep_timings
from latsched import monte_carlo
from latsched.config import load_scenario
cfg = load_scenario(sys.argv[1])
runs, seed = int(sys.argv[2]), int(sys.argv[3])
failed = []
def sweep(s):
    rows = monte_carlo(cfg, runs=runs, seed=s, jobs=1)
    failed.append(sum("error" in row for row in rows))
timings = sweep_timings(sweep, seed)
print(json.dumps({"experiment": cfg.experiment.name, **timings, "failed": sum(failed)}))
"""


def time_sweep(root: str, config: str, runs: int, seed: int) -> dict:
    """One sweep process in `root`: its experiment, `sweep_timings` and failed rows.

    A relative `config` is read inside `root`, the child's working directory.
    """
    # Single-threaded BLAS, as perfbench/run.py fixes it.
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.path.join(root, "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    tools = os.path.dirname(os.path.abspath(__file__))
    done = subprocess.run([sys.executable, "-c", SWEEP_SCRIPT, config, str(runs), str(seed),
                           tools], cwd=root, env=env, capture_output=True, text=True,
                          check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{root}: sweep of {config} exited {done.returncode}:\n"
                           f"{done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def time_cli(roots: dict, order: tuple, workdirs: dict) -> dict:
    """One CLI pair: every digest run in both checkouts; per side, wall seconds by metric."""
    walls = {side: {} for side in order}
    for run in RUNS:
        codes = {}
        for side in order:
            start = time.perf_counter()
            _, done = execute(roots[side], run, workdirs[side])
            walls[side][f"wall_s.{run.label}.{run.config}"] = time.perf_counter() - start
            codes[side] = done.returncode
        if len(set(codes.values())) > 1:
            raise RuntimeError(f"{run.label} {run.config}: exit codes differ: {codes}")
    return walls


def directions() -> dict:
    with open(os.path.join(CHANGE_ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(runs: list, better: dict) -> dict:
    """Per metric: both sides' medians and quartiles and the pairs the change won.

    A metric outside `better` (a sweep's `sweep_ms.*`) is marked `gated`
    false and read as lower-is-better. Each of DETAIL_MS that every run's
    `detail` holds gets both sides' medians and their ratio only, marked
    `gated` false.
    """
    by_side = {side: [r for r in runs if r["side"] == side] for side in ("parent", "change")}
    by_pair = {side: {r["pair"]: r for r in rs} for side, rs in by_side.items()}
    pairs = sorted(set(by_pair["parent"]) & set(by_pair["change"]))
    resolved = len(pairs) >= MIN_PAIRS

    def values(side, block, name):
        return [by_pair[side][p][block][name] for p in pairs]

    summary = {}
    for name in by_side["parent"][0]["metrics"] if pairs else ():
        parent, change = values("parent", "metrics", name), values("change", "metrics", name)
        sign = 1.0 if better.get(name, "lower") == "lower" else -1.0
        p_med, c_med = statistics.median(parent), statistics.median(change)
        (p_q1, p_q3), (c_q1, c_q3) = quartiles(parent), quartiles(change)
        won = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        lost = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        summary[name] = {
            "parent_median": p_med,
            "change_median": c_med,
            "ratio": c_med / p_med if p_med else None,
            "change_better_pairs": won,
            "change_worse_pairs": lost,
            "pairs": len(pairs),
            "parent_q1": p_q1,
            "parent_q3": p_q3,
            "parent_iqr": p_q3 - p_q1,
            "change_q1": c_q1,
            "change_q3": c_q3,
            "better": better.get(name, "lower"),
            "resolved": resolved,
            "rule_holds": (resolved and 10 * won >= 9 * len(pairs)
                           and sign * (p_med - c_med) > p_q3 - p_q1),
            "regressed": (resolved and 10 * lost >= 9 * len(pairs)
                          and sign * (c_med - p_med) > p_q3 - p_q1),
            "gated": name in better,
        }
    for name in DETAIL_MS:
        if not pairs or any(name not in r.get("detail", {}) for r in runs):
            continue
        p_med = statistics.median(values("parent", "detail", name))
        c_med = statistics.median(values("change", "detail", name))
        summary[name] = {"parent_median": p_med, "change_median": c_med,
                         "ratio": c_med / p_med, "pairs": len(pairs), "unit": "ms",
                         "gated": False}
    return summary


def machine(head: dict | None) -> dict:
    """The machine block: perfbench's (`head`), or this interpreter's for CLI pairs."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    if head is None:
        return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version()}
    block = head["machine"]
    return {"nproc": block["nproc"], "cpu": cpu, "python": block["python"],
            "numpy": block["numpy"], "blas": block["blas"]}


def describe(args, pairs: int) -> str:
    """A set's description, from the `pairs` it holds: pair i ran seed SEED + i."""
    if args.cli:
        text = (f"cli, {pairs} pairs of the {len(RUNS)} tools/output_digest.py runs, "
                "wall seconds per process")
    elif args.sweep:
        text = (f"sweep {args.sweep}, {args.runs} runs, {pairs} pairs, --seed "
                f"{args.seed}..{args.seed + pairs - 1}, in-process ms after a warm-up sweep, "
                f"the median of {SWEEP_LEAST} or more sweeps over about {SWEEP_SECONDS:g} s "
                "per process, and the warm-up sweep's ms")
    else:
        text = (f"{args.workload}, {pairs} pairs, --seed {args.seed}..{args.seed + pairs - 1}, "
                f"--seed2 {args.seed2}, --seconds {args.seconds:g}, --trace {args.trace}")
    return text + (f"; {args.note}" if args.note else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    kind = parser.add_mutually_exclusive_group(required=True)
    kind.add_argument("--workload")
    kind.add_argument("--cli", action="store_true",
                      help="time the CLI runs of tools/output_digest.py instead")
    kind.add_argument("--sweep", metavar="CONFIG",
                      help="time in-process monte_carlo sweeps of CONFIG instead")
    parser.add_argument("--runs", type=int, help="runs of a --sweep sweep")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="run length of a --workload run")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--seed2", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--issue", type=int)
    parser.add_argument("--title")
    parser.add_argument("--change", help="one line on what the change does")
    parser.add_argument("--claim", help="the metric the change claims to improve")
    parser.add_argument("--note", help="appended to this set's description")
    args = parser.parse_args(argv)
    parent_root = os.path.abspath(args.parent)
    needed = os.path.join("perfbench", "run.py") if args.workload else \
        os.path.join("src", "latsched", "cli.py")
    if not os.path.exists(os.path.join(parent_root, needed)):
        parser.error(f"{parent_root} is not a checkout with {needed}")
    if args.workload and args.seconds is None:
        parser.error("--workload needs --seconds")
    if args.sweep and (args.runs is None or args.runs < 1):
        parser.error("--sweep needs --runs of at least 1")

    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    for key in ("issue", "title", "change", "claim"):
        if getattr(args, key) is not None or key not in doc:
            doc[key] = getattr(args, key)
    doc["command"] = ("python3 perfbench/run.py --workload W --seed N --seed2 S "
                      "--seconds T --trace X; a cli set runs each tools/output_digest.py "
                      "run, python -m latsched.cli <subcommand> -c configs/<config>.json "
                      "-o OUT [--runs R] [--jobs 2] [--graph G] [--seed 1]; a sweep set "
                      "times consecutive monte_carlo(cfg, runs=R, seed=N * 10**6 + j, "
                      "jobs=1) calls in a child process after one warm-up sweep at seed "
                      "N, timed on its own, and takes their median")
    doc["protocol"] = ("alternating parent/change pairs, one process per run, one run at "
                       "a time, PYTHONDONTWRITEBYTECODE=1 for perfbench; the side that "
                       "ran first alternates by pair (in a cli set, for each run); "
                       "quartiles by the exclusive method")
    doc.setdefault("sets", {})
    doc.setdefault("summary", {})
    doc.setdefault("runs", [])
    label = next(c for c in string.ascii_uppercase if c not in doc["sets"])
    better = directions()
    roots = {"parent": parent_root, "change": CHANGE_ROOT}
    if args.cli:
        for root in roots.values():
            subprocess.run([sys.executable, "-c", "import latsched.cli"], check=True,
                           env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")))
    runs = []
    with tempfile.TemporaryDirectory() as parent_dir, tempfile.TemporaryDirectory() as change_dir:
        workdirs = {"parent": parent_dir, "change": change_dir}
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            if args.sweep:
                doc.setdefault("machine", machine(None))
                for side in order:
                    out = time_sweep(roots[side], args.sweep, args.runs, seed)
                    if out["failed"]:
                        raise RuntimeError(f"{side}: {out['failed']} rows of "
                                           f"{out['sweeps']} sweeps failed")
                    runs.append({"set": label, "workload": "sweep", "side": side, "pair": i,
                                 "seed": seed, "sweeps": out["sweeps"],
                                 "first_in_pair": side == order[0],
                                 "metrics": {f"sweep_ms.{out['experiment']}": out["ms"],
                                             f"sweep_first_ms.{out['experiment']}":
                                                 out["first_ms"]}})
            elif args.cli:
                walls = time_cli(roots, order, workdirs)
                doc.setdefault("machine", machine(None))
                runs += [{"set": label, "workload": "cli", "side": side, "pair": i,
                          "first_in_pair": side == order[0], "metrics": walls[side]}
                         for side in order]
            else:
                for side in order:
                    out = run_once(roots[side], args, seed)
                    result = out["result"]
                    doc.setdefault("machine", machine(out["head"]))
                    runs.append({
                        "set": label, "workload": args.workload, "side": side, "pair": i,
                        "seed": seed, "seed2": args.seed2, "trace": args.trace,
                        "first_in_pair": side == order[0],
                        "correct": result["correct"], "attempted": result["attempted"],
                        "failed": result["failed"],
                        "git_commit": out["head"]["machine"]["git_commit"],
                        "source_sha256": out["head"]["machine"]["source_sha256"],
                        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                        "detail": out["head"]["detail"],
                    })
            doc["sets"][label] = describe(args, i + 1)
            doc["summary"][label] = summarize(runs, better)
            doc["runs"] = [r for r in doc["runs"] if r["set"] != label] + runs
            with open(args.out, "w") as fh:
                json.dump(doc, fh, indent=1)
                fh.write("\n")
            print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)

    print(f"set {label}: {doc['sets'][label]}")
    for name, row in doc["summary"][label].items():
        if "resolved" not in row:
            print(f"  {name}: parent {row['parent_median']:.6g} ms, change "
                  f"{row['change_median']:.6g} ms, ratio {row['ratio']:.3g}; ungated")
            continue
        if row["resolved"]:
            verdict = "rule " + ("holds" if row["rule_holds"] else "does not hold") + \
                "; " + ("worse" if row["regressed"] else "not worse")
        else:
            verdict = f"unresolved ({row['pairs']} pairs)"
        print(f"  {name}: parent {row['parent_median']:.6g} (IQR {row['parent_iqr']:.3g}), "
              f"change {row['change_median']:.6g}, better in {row['change_better_pairs']}/"
              f"{row['pairs']} pairs, worse in {row['change_worse_pairs']}; {verdict}"
              + ("" if row["gated"] else "; ungated"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
