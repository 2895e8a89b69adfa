"""latsched benchmark: one workload per process, one JSON result line.

Run from the root of a latsched checkout:

    python3 perfbench/run.py --workload track-occlusion --seed 1 --seconds 25 --trace 0

--trace 0 measures the end-to-end metrics with tracing off; --trace 1 runs
the workload once untraced and once traced (their difference is the tracing
overhead), then the per-layer suite, writes every span to perfbench/out/ and
reports the per-layer metrics. The metric names and units come from
BENCHMARK.json. The last line of standard output is the result object; the
line before it holds the machine block, the workload's own metric names and
any failures.

--seed2 is mixed into every input stream. Its default is 0; pass another
value to re-check a claim on inputs not used while the claim was written.
"""

import os

# The benchmark fixes single-threaded BLAS; numpy reads these on import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 4, 50, 2.0
LAYER_SUITE_KEY = 1_000_000


class CheckoutError(Exception):
    """The working directory is not the root of a latsched checkout."""


def _load_checkout(root: str) -> dict:
    spec_path = os.path.join(root, "BENCHMARK.json")
    src = os.path.join(root, "src")
    for needed in (spec_path, os.path.join(src, "latsched", "__init__.py"),
                   os.path.join(root, "configs")):
        if not os.path.exists(needed):
            raise CheckoutError(f"{needed} not found; run from the root of a latsched checkout")
    sys.path[:0] = [src, HERE]
    import latsched

    if not os.path.abspath(latsched.__file__).startswith(src + os.sep):
        raise CheckoutError(f"latsched imported from {latsched.__file__}, not from {src}")
    with open(spec_path) as fh:
        return json.load(fh)


def _git_commit(root: str):
    """HEAD's commit read from .git without running git; None outside a repo."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256(root: str) -> str:
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "latsched")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def machine_block(root: str, seed: int, seed2: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "loadavg": list(os.getloadavg()),
        "seed": seed,
        "seed2": seed2,
        "git_commit": _git_commit(root),
        "source_sha256": _source_sha256(root),
    }


def _p90(values: list) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


def timed_setups(workload, tracer) -> tuple:
    """Set the workload up SETUP_MIN or more times.

    Returns the last context, each set-up's seconds, and each set-up's time
    in units of the scalar reference loops timed just before and just after it.
    """
    from lsbench.reference import time_reference
    from lsbench.workloads import REFERENCE_CALLS

    setup_s: list[float] = []
    setup_ref: list[float] = []
    while len(setup_s) < SETUP_MIN or (len(setup_s) < SETUP_MAX and sum(setup_s) < SETUP_BUDGET_S):
        before = time_reference(REFERENCE_CALLS)["scalar"]
        t0 = time.perf_counter()
        ctx = workload.setup(tracer)
        elapsed = time.perf_counter() - t0
        setup_s.append(elapsed)
        after = time_reference(REFERENCE_CALLS)["scalar"]
        setup_ref.append(elapsed / statistics.median(before + after))
    return ctx, setup_s, setup_ref


def end_to_end(rec, setup_s: list, setup_ref: list) -> dict:
    primary = statistics.median(rec.primary_s)
    secondary = statistics.median(rec.secondary_s)
    return {
        "setup_s": statistics.median(setup_s),
        "setup_ref": statistics.median(setup_ref),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "primary_ref_p50": statistics.median(rec.primary_ref),
        "secondary_ref_p50": statistics.median(rec.secondary_ref),
        "primary_ms_p50": 1e3 * primary,
        "secondary_ms_p50": 1e3 * secondary,
        "secondary_ms_p90": 1e3 * _p90(rec.secondary_s),
        "primary_per_s": rec.primary_units / rec.primary_busy_s,
        **{f"{name}_loop_ms_p50": 1e3 * statistics.median(times)
           for name, times in rec.reference_s.items()},
    }


def run_untraced(workload, seconds: float, entropy) -> tuple:
    from lsbench.tracer import Tracer
    from lsbench.workloads import Recorder, measure

    tracer = Tracer(enabled=False)
    ctx, setup_s, setup_ref = timed_setups(workload, tracer)
    rec = Recorder()
    cycles = measure(workload, ctx, seconds, entropy, tracer, rec)
    if not rec.primary_s or not rec.secondary_s:
        raise RuntimeError(f"no successful operation: {rec.failures}")
    values = end_to_end(rec, setup_s, setup_ref)
    detail = {"cycles": cycles, "setup_runs": len(setup_s),
              "secondary_samples": len(rec.secondary_s), "failed_frac": rec.failed / rec.attempted}
    for name in ("setup_ref", "primary_ms_p50", "secondary_ms_p50", "secondary_ms_p90",
                 "scalar_loop_ms_p50", "vector_loop_ms_p50"):
        detail[name] = values[name]
    for alias, metric in workload.aliases.items():
        detail[alias] = values[metric]
    return values, rec.attempted, rec.failed, rec.failures, detail


def run_traced(workload, seconds: float, entropy, out_dir: str, meta: dict,
               layer_sizes=None) -> tuple:
    import numpy as np
    from lsbench.layers import LayerSizes, layer_suite
    from lsbench.tracer import Tracer
    from lsbench.workloads import Recorder, measure

    tracer = Tracer(enabled=True)
    with tracer.span("setup"):
        ctx = workload.setup(tracer)
    # Both halves start at cycle 0, so they time the same inputs.
    untraced, traced = Recorder(), Recorder()
    measure(workload, ctx, seconds / 2, entropy, Tracer(enabled=False), untraced)
    measure(workload, ctx, seconds / 2, entropy, tracer, traced)
    common = min(len(untraced.primary_s), len(traced.primary_s))
    if common == 0:
        raise RuntimeError(f"no successful operation: {untraced.failures + traced.failures}")
    suite = Tracer(enabled=True)
    values, suite_failures = layer_suite(
        suite, np.random.SeedSequence(entropy, spawn_key=(LAYER_SUITE_KEY,)),
        workload.sizes, layer_sizes or LayerSizes(), out_dir, occ_graph=ctx.get("occ_graph"))
    values["trace.overhead_frac"] = (statistics.median(traced.primary_s[:common])
                                     / statistics.median(untraced.primary_s[:common]) - 1.0)
    path = os.path.join(out_dir, f"trace-{workload.name}-s{meta['seed']}-{meta['seed2']}.json")
    with open(path, "w") as fh:
        json.dump({"workload": workload.name, "machine": meta, "metrics": values,
                   "workload_spans": tracer.as_dict(), "layer_suite_spans": suite.as_dict()}, fh)
    attempted = untraced.attempted + traced.attempted + 1
    failed = untraced.failed + traced.failed + (1 if suite_failures else 0)
    failures = untraced.failures + traced.failures + suite_failures
    detail = {"trace_file": os.path.relpath(path), "spans": len(tracer.spans) + len(suite.spans)}
    return values, attempted, failed, failures, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seed2", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = os.getcwd()
    try:
        spec = _load_checkout(root)
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from lsbench.workloads import WORKLOADS, Sizes

    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names or args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    section = spec["per_layer" if args.trace else "end_to_end"]

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    meta = machine_block(root, args.seed, args.seed2)
    workload = WORKLOADS[args.workload](Sizes())
    entropy = [args.seed, args.seed2]
    if args.trace:
        values, attempted, failed, failures, detail = run_traced(
            workload, args.seconds, entropy, out_dir, meta)
    else:
        values, attempted, failed, failures, detail = run_untraced(
            workload, args.seconds, entropy)

    missing = [m["name"] for m in section if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    print(json.dumps({"workload": args.workload, "machine": meta, "detail": detail,
                      "failures": failures}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in section},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
