"""Offline benchmark of attack trials and detect runs on seeded synthetic graphs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fextra-ols --seed 0 --seconds 50 --trace 0

One process imports the package from ``src/``, builds the base graph from
``--seed``, runs one untimed warm-up trial and then the workload's
operations back to back, one at a time (a closed loop with one client), as
many whole ones as fit in ``--seconds``. BLAS is pinned to one thread.
Outputs are checked as they arrive (see ``workloads.py``). End-to-end times
are in scaled seconds, which a change in the host's speed leaves alone (see
``speed.py``).

With ``--trace 0`` the end-to-end metrics are measured with nothing patched.
With ``--trace 1`` the same operations run twice, untraced and then traced;
the traced pass reports per-layer self time and counts (see ``layers.py``),
the gap between the passes gives ``trace.overhead_frac``, and each traced
operation must repeat the untraced flip sequence of the same seed.

The next-to-last line of standard output is a JSON report (environment,
base graph, every operation's outcome, failures by exception class); the
last line is the result: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("fextra-ols", "pole-unsym", "detect")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 11
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@dataclass(frozen=True)
class Scale:
    base: dict             # keyword arguments of synth.two_community
    subsample: int         # nodes per attack trial
    corpus_sizes: tuple    # clean detector corpus: sample sizes ...
    corpus_per_size: int   # ... and samples of each size


FULL = Scale(base={"n": 1000, "avg_degree": 24, "noise": 0.05},
             subsample=300, corpus_sizes=(300, 400, 500), corpus_per_size=10)
# Small enough for a smoke test; below the size where POLE factorization diverges.
TINY = Scale(base={"n": 160, "avg_degree": 16, "noise": 0.05},
             subsample=60, corpus_sizes=(40, 50), corpus_per_size=3)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def set_up(seed, scale, clock):
    """Import the package afresh and build the base graph.

    Returns the graph and the (wall, scaled) seconds it took.
    """
    for name in [m for m in sys.modules
                 if m in ("signedattack", "synth") or m.startswith("signedattack.")]:
        del sys.modules[name]
    start = clock.mark()
    importlib.import_module("signedattack.experiments")
    synth = importlib.import_module("synth")
    g = synth.two_community(seed, **scale.base)
    return g, clock.since(start)


def git_commit():
    """Commit of the checkout, or None outside a git repository."""
    try:
        # the ceiling keeps git from reporting a repository that merely encloses ROOT
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment():
    import numpy as np

    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
            "python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(), "commit": git_commit()}


def run_pass(workload, dataset, seed, residuals, clock, seconds=None, count=None):
    """Operations 0, 1, ...: exactly ``count``, or as many as fit in ``seconds``.

    With ``seconds`` the first operation always runs, and another starts only
    if one of the mean length so far would still end within ``seconds``.
    """
    ops = []
    start = time.perf_counter()

    def another():
        if count is not None:
            return len(ops) < count
        elapsed = time.perf_counter() - start
        return not ops or elapsed * (len(ops) + 1) / len(ops) <= seconds

    while another():
        ops.append(workload.run_op(dataset, seed, len(ops), residuals, clock))
    return ops


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def measure(args, scale):
    """Run the workload; returns (report, result) as JSON-ready dicts."""
    import speed

    with speed.Sampler() as clock:
        dataset, setup_seconds = None, []
        for _ in range(SETUP_REPEATS):
            dataset, secs = set_up(args.seed, scale, clock)
            setup_seconds.append(secs)
        import layers
        import workloads
        from signedattack.graph import positive_ratio

        workload = workloads.make_workload(args.workload, scale)
        residuals = []
        traced = []
        with layers.Patches() as patches:
            layers.observe_factor_residuals(patches, residuals)
            warm_digest = workload.warm_up(dataset, args.seed)
            ops = run_pass(workload, dataset, args.seed, residuals, clock, seconds=args.seconds)
            if args.trace:
                tracer = layers.Tracer()
                tracer.install(patches)
                traced = run_pass(workload, dataset, args.seed, residuals, clock, count=len(ops))
    if ops[0].digests[:1] != [warm_digest] and not (warm_digest is None and ops[0].error):
        ops[0].problems.append("first trial's flips differ from the warm-up run of the same seed")
    for plain, op in zip(ops, traced):
        if plain.digests != op.digests:
            op.problems.append("flip sequences differ from the untraced run of the same seed")

    everything = ops + traced
    failures = {}
    for op in everything:
        for cause in ([op.error] if op.error else []) + [f"check: {p}" for p in op.problems]:
            failures[cause] = failures.get(cause, 0) + 1
    failed = sum(op.failed for op in everything)

    if args.trace:
        untraced = sum(op.scaled for op in ops)
        values = tracer.metrics(len(traced), sum(op.outcome.get("rejected", 0) for op in traced))
        values["trace.overhead_frac"] = (sum(op.scaled for op in traced) - untraced) / untraced
    else:
        op_seconds = statistics.median(op.seconds for op in ops)
        trial_seconds = op_seconds
        if args.workload == "detect":
            # the attack trials a detect run makes for its poisoned set
            trial_seconds = statistics.median(
                t for op in ops for t in ([math.inf] if op.failed
                                          else op.outcome["trial_scaled_seconds"]))
        values = {
            "setup_s": statistics.median(scaled for _, scaled in setup_seconds),
            "trial_s": trial_seconds,
            # the attack workloads make no detect run, and every run must print
            # every metric, so there detect_s repeats trial_s
            "detect_s": op_seconds,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    metrics = {k: {"value": float(v), "unit": unit_of(k)} for k, v in values.items()}

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": environment(),
        "base_graph": {"family": "two_community", "seed": args.seed, **scale.base,
                       "community_frac": 0.5,
                       "lcc_n": dataset.n, "lcc_m": dataset.num_edges,
                       "positive_ratio": positive_ratio(dataset)},
        "setup_wall_seconds": [wall for wall, _ in setup_seconds],
        "setup_scaled_seconds": [scaled for _, scaled in setup_seconds],
        "speed_kernel_seconds": _summary(clock.samples),
        "fail_frac": failed / len(everything),
        "failures": failures,
        "ops": [op.to_json_dict() for op in ops],
        "traced_ops": [op.to_json_dict() for op in traced],
    }
    result = {"correct": failed == 0, "attempted": len(everything), "failed": failed,
              "metrics": metrics}
    return report, result


def _summary(samples):
    return {"count": len(samples), "median": statistics.median(samples),
            "min": min(samples), "max": max(samples)} if samples else {"count": 0}


def main(argv=None, scale=FULL):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "signedattack" / "__init__.py").is_file():
        print(f"error: package sources not found at {src / 'signedattack'}; "
              f"run from the root of a checkout", file=sys.stderr)
        return 2
    # pin BLAS before numpy is first imported
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(src), str(HERE)]
    report, result = measure(args, scale)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
