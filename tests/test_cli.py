import csv
import json
import os

import numpy as np
import pytest

from signedattack.cli import main
from signedattack.graph import load_graph_json
from synthgraphs import geometric_polarized


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    g = geometric_polarized(80, k=10, noise=0.05, seed=0)
    path = root / "synthetic.csv"
    g.write_plain(path)
    return str(path)


def read_csv(path):
    with open(path) as f:
        return list(csv.DictReader(f))


def test_ingest(dataset_file, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["ingest", "--dataset", dataset_file, "--format", "plain",
               "--out", str(out)])
    assert rc == 0
    stats = json.load(open(out / "stats.json"))
    g = load_graph_json(out / "graph.json")
    assert stats["n"] == g.n and stats["edges"] == g.num_edges
    assert "positive_ratio" in stats
    assert "n=" in capsys.readouterr().out


def test_ingest_missing_file(tmp_path):
    rc = main(["ingest", "--dataset", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
    assert rc == 2


def test_bad_config_json(dataset_file, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    rc = main(["ingest", "--config", str(cfg), "--dataset", dataset_file,
               "--out", str(tmp_path / "o")])
    assert rc == 2


def test_unknown_config_key(dataset_file, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus_key": 1}))
    rc = main(["ingest", "--config", str(cfg), "--dataset", dataset_file,
               "--out", str(tmp_path / "o")])
    assert rc == 2


def test_metrics_command(dataset_file, tmp_path):
    out = tmp_path / "m"
    rc = main(["metrics", "--dataset", dataset_file, "--format", "plain",
               "--out", str(out)])
    assert rc == 0
    rep = json.load(open(out / "balance.json"))
    assert 0.0 <= rep["T"] <= 1.0
    assert rep["total_triads"] > 0


def test_attack_command_rows_and_artifacts(dataset_file, tmp_path):
    out = tmp_path / "a"
    rc = main(["attack", "--dataset", dataset_file, "--format", "plain",
               "--out", str(out), "--target", "fextra-ols",
               "--seed", "0,1", "--power", "0.0,0.05", "--subsample", "0"])
    assert rc == 0
    rows = read_csv(out / "attack_auc.csv")
    assert len(rows) == 4  # 2 seeds x 2 powers
    for r in rows:
        if float(r["power"]) == 0.0:
            assert r["auc_poisoned"] == r["auc_clean"]
    assert os.path.exists(out / "trace_seed0.json")
    assert os.path.exists(out / "poisoned_seed0_power0.05.json")


def test_attack_csv_bytewise_deterministic(dataset_file, tmp_path):
    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    args = ["attack", "--dataset", dataset_file, "--format", "plain",
            "--target", "fextra-ols", "--seed", "3", "--power", "0.05",
            "--subsample", "0"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "attack_auc.csv").read_bytes() == (out2 / "attack_auc.csv").read_bytes()


def test_attack_penalty_flags_zero_identical(dataset_file, tmp_path):
    out1, out2 = tmp_path / "p1", tmp_path / "p2"
    base = ["attack", "--dataset", dataset_file, "--format", "plain",
            "--target", "fextra-ols", "--seed", "2", "--power", "0.05",
            "--subsample", "0"]
    assert main(base + ["--out", str(out1)]) == 0
    assert main(base + ["--lambda", "0", "--eta", "0", "--out", str(out2)]) == 0
    r1 = (out1 / "attack_auc.csv").read_bytes()
    r2 = (out2 / "attack_auc.csv").read_bytes()
    # the lam/eta=0 run labels itself identically and flips identically
    assert r1 == r2


def test_attack_baseline_rand(dataset_file, tmp_path):
    out = tmp_path / "b"
    rc = main(["attack", "--dataset", dataset_file, "--format", "plain",
               "--out", str(out), "--target", "fextra-ols", "--baseline", "rand",
               "--seed", "0", "--power", "0.05", "--subsample", "0"])
    assert rc == 0
    rows = read_csv(out / "attack_auc.csv")
    assert rows[0]["attack"] == "rand"


def test_poisoned_graph_reload_budget_identity(dataset_file, tmp_path):
    out = tmp_path / "g"
    rc = main(["attack", "--dataset", dataset_file, "--format", "plain",
               "--out", str(out), "--target", "fextra-ols",
               "--seed", "0", "--power", "0.05", "--subsample", "0"])
    assert rc == 0
    clean = load_graph_json(out / ".." / "g" / "poisoned_seed0_power0.05.json")
    g0 = geometric_polarized(80, k=10, noise=0.05, seed=0)
    delta = np.abs(clean.adjacency() - g0.adjacency()).sum() / 4.0
    assert delta == round(0.05 * g0.num_edges)


def test_detect_command(dataset_file, tmp_path):
    out = tmp_path / "det"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "corpus_sizes": [50, 60], "corpus_per_size": 4, "corpus_seed": 1,
        "seeds": [0], "subsample": 60, "powers": [0.05, 0.10],
    }))
    rc = main(["detect", "--config", str(cfg), "--dataset", dataset_file,
               "--format", "plain", "--out", str(out), "--target", "fextra-ols"])
    assert rc == 0
    summary = json.load(open(out / "detector_summary.json"))
    assert {"metric_auc", "tsvd_auc", "ensemble_max_auc"} <= set(summary)
    rows = read_csv(out / "detector_scores.csv")
    assert len(rows) == 8 + 2  # corpus graphs + seeds x powers
