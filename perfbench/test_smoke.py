"""Tiny-size smoke test of the benchmark.

Run from the root of the repository with ``python -m pytest perfbench``.
Every run here uses ``run.TINY``: a 160-node base graph and 60-node trials,
so each workload finishes in seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def run_tiny(workload, seed, trace):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    code = f"import sys; sys.path.insert(0, 'perfbench'); import run; sys.exit(run.main({argv!r}, run.TINY))"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.splitlines()
    return json.loads(report_line)["report"], json.loads(result_line)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["fextra-ols", "pole-unsym", "detect"])
def test_result_line_carries_every_metric(workload, trace):
    report, result = run_tiny(workload, 5, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    assert report["env"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert report["base_graph"]["lcc_m"] > 0 and report["failures"] == {}


def test_same_seed_gives_same_flip_sequences():
    for workload in ("fextra-ols", "detect"):
        first, _ = run_tiny(workload, 7, 0)
        again, _ = run_tiny(workload, 7, 0)
        pairs = list(zip(first["ops"], again["ops"]))
        assert pairs and all(all(a["digests"]) for a, _ in pairs)
        assert all(a["digests"] == b["digests"] for a, b in pairs)


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *BENCHMARK["command"][1:], "--workload", "detect",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_checks_reject_wrong_outputs():
    import synth
    import workloads
    from signedattack.attacks import flips_for_power
    from signedattack.graph import split_edges

    g = synth.two_community(0, n=160, avg_degree=16, noise=0.05)
    split = split_edges(g, 0.1, 0)
    signs = g.signs()
    k = flips_for_power(g, 0.01)
    train_flipped = signs.copy()
    train_flipped[split.train[:k]] *= -1
    assert workloads.check_snapshot(g, split, g.with_signs(train_flipped), 0.01) == []
    test_flipped = signs.copy()
    test_flipped[split.test[:k]] *= -1
    assert workloads.check_snapshot(g, split, g.with_signs(test_flipped), 0.01)
    assert workloads.check_snapshot(g, split, g.with_signs(train_flipped), 0.01,
                                    first_flips=list(split.train[k:2 * k]))

    u, v, _ = g.edges[split.train[0]]
    assert workloads.check_flips(g, split, [(u, v)], 1) == []
    assert workloads.check_flips(g, split, [(u, v), (u, v)], 2)
    tu, tv, _ = g.edges[split.test[0]]
    assert workloads.check_flips(g, split, [(tu, tv)], 1)
    assert workloads.check_flips(g, split, [(u, v)], 2)
    assert workloads.check_aucs([0.0, 0.5, 1.0]) == []
    assert workloads.check_aucs([float("nan")]) and workloads.check_aucs([1.5])


def test_sampler_scales_by_the_kernel_time_inside_the_interval():
    import statistics

    import speed

    with speed.Sampler() as clock:
        mark = clock.mark()
        while len(clock.samples) < 5:
            speed.kernel_seconds()
    wall, scaled = clock.since(mark)
    assert scaled == pytest.approx(wall * speed.REFERENCE_S / statistics.median(clock.samples))
