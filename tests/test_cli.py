import csv
import dataclasses
import json
import os
from pathlib import Path

import numpy as np
import pytest

from signedattack import cli, experiments
from signedattack.attacks import TARGETS
from signedattack.cli import build_config, main, make_parser
from signedattack.errors import ConfigError, MissingEdgeError
from signedattack.experiments import ExperimentConfig, load_dataset
from signedattack.graph import load_graph_json
from synthgraphs import geometric_polarized


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    g = geometric_polarized(80, k=10, noise=0.05, seed=0)
    path = root / "synthetic.csv"
    g.write_plain(path)
    return str(path)


@pytest.fixture
def reads(monkeypatch):
    """The configs the graph was read with: ``cli`` reads it by its own name
    (ingest, metrics) and ``experiments`` by its (attack, detect)."""
    calls = []

    def recording(cfg, load=experiments.load_dataset):
        calls.append(cfg)
        return load(cfg)

    for module in (cli, experiments):
        monkeypatch.setattr(module, "load_dataset", recording)
    return calls


def read_csv(path):
    with open(path) as f:
        return list(csv.DictReader(f))


def test_ingest(dataset_file, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["ingest", "--dataset", dataset_file, "--format", "plain",
               "--out", str(out)])
    assert rc == 0
    stats = json.loads((out / "stats.json").read_text())
    g = load_graph_json(out / "graph.json")
    assert stats["n"] == g.n and stats["edges"] == g.num_edges
    assert "positive_ratio" in stats
    assert "n=" in capsys.readouterr().out


def test_ingest_missing_file(tmp_path):
    rc = main(["ingest", "--dataset", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("row", ["0,1,nan", "3,0,inf", "2.7,3,1"])
def test_ingest_of_a_malformed_rating_or_node_id_exits_2(tmp_path, capsys, row):
    path = tmp_path / "g.csv"
    path.write_text(f"0,2,1\n{row}\n")
    out = tmp_path / "o"
    rc = main(["ingest", "--dataset", str(path), "--format", "rated", "--out", str(out)])
    assert rc == 2
    assert "line 2" in capsys.readouterr().err
    assert not out.exists()


# each exited 1 with a traceback, or 0 having read n or a node id as another integer
MALFORMED_DUMPS = {
    "truncated": ('{"n": 3, "edges": [[0, 1, 1], [1, 2', "bad graph JSON"),
    "list": ("[[0, 1, 1]]", "must be a JSON object"),
    "no-n": ('{"edges": [[0, 1, 1]]}', "'n' must be an integer >= 0"),
    "n-string": ('{"n": "abc", "edges": [[0, 1, 1]]}', "'n' must be an integer >= 0"),
    "n-negative": ('{"n": -1, "edges": []}', "'n' must be an integer >= 0"),
    "n-float": ('{"n": 2.7, "edges": [[0, 1, 1]]}', "'n' must be an integer >= 0"),
    "n-bool": ('{"n": true, "edges": []}', "'n' must be an integer >= 0"),
    "edges-number": ('{"n": 3, "edges": 5}', "'edges' must be a list"),
    "sign-string": ('{"n": 3, "edges": [[0, 1, "x"]]}', "not an integer (u, v, sign) triple"),
    "node-float": ('{"n": 3, "edges": [[0.5, 1, 1], [1, 2, 1]]}',
                   "not an integer (u, v, sign) triple"),
    # these two overflowed int64, and json refused the third with ValueError
    "n-huge": ('{"n": %d, "edges": [[0, 1, 1]]}' % 10**20, "'n' must be an integer >= 0"),
    "node-huge": ('{"n": 3, "edges": [[0, %d, 1]]}' % 10**20,
                  "not an integer (u, v, sign) triple"),
    "n-5000-digits": ('{"n": 1%s, "edges": []}' % ("0" * 5000), "bad graph JSON"),
    "node-past-pair-keys": ('{"n": %d, "edges": [[0, %d, 1]]}' % (2**62, 2**40),
                            "node ids that links join must be below"),
    # exited 0 and wrote the sign back into its dump
    "sign-min-int64": ('{"n": 3, "edges": [[0, 1, -9223372036854775808], [1, 2, 1]]}',
                       "edge (0,1) has sign -9223372036854775808"),
}


@pytest.mark.parametrize("document,error", MALFORMED_DUMPS.values(), ids=MALFORMED_DUMPS)
def test_ingest_of_a_malformed_graph_dump_exits_2(tmp_path, capsys, document, error):
    path = tmp_path / "g.json"
    path.write_text(document)
    out = tmp_path / "o"
    rc = main(["ingest", "--dataset", str(path), "--out", str(out)])
    assert rc == 2
    assert error in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", ["g.json", "g.csv", "cfg.json"])
def test_ingest_of_a_file_that_is_not_utf8_exits_2(dataset_file, tmp_path, capsys, name):
    # a graph dump, an edge list and a config document each exited 1 with
    # UnicodeDecodeError
    path = tmp_path / name
    path.write_bytes(b"\xff\xfe0\x00,\x001\x00,\x001\x00\n\x00")
    out = tmp_path / "o"
    files = (["--config", str(path), "--dataset", dataset_file] if name == "cfg.json"
             else ["--dataset", str(path)])
    rc = main(["ingest", *files, "--format", "plain", "--out", str(out)])
    assert rc == 2
    assert "can't decode byte 0xff" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name,text", [("g.csv", "0,2,1\n0,1,x\n"),
                                       ("g.json", '{"n": 3, "edges": 5}')],
                         ids=["edge-list", "dump"])
def test_a_malformed_dataset_is_reported_as_an_input_error(tmp_path, capsys, name, text):
    # it was reported as a config error
    path = tmp_path / name
    path.write_text(text)
    rc = main(["ingest", "--dataset", str(path), "--format", "plain",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("input error: ")


@pytest.mark.parametrize("text,rejected", [("u,v,s\n", 0), ("0,0,1\n1,1,1\n", 2)],
                         ids=["header-only", "self-loops-only"])
def test_an_edge_list_with_no_usable_row_is_an_input_error(tmp_path, capsys, text, rejected):
    # it was reported as "config error: empty graph has no components"
    path = tmp_path / "g.csv"
    path.write_text(text)
    rc = main(["ingest", "--dataset", str(path), "--format", "plain",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {path} has no usable row ({rejected} rows rejected")


@pytest.mark.parametrize("n", [0, 3])
def test_a_graph_dump_with_no_links_is_an_input_error(tmp_path, capsys, n):
    # n = 0 was reported as "config error: empty graph has no components";
    # n = 3 was ingested as a one-node graph with a NaN positive ratio
    path = tmp_path / "g.json"
    path.write_text(f'{{"n": {n}, "edges": []}}')
    out = tmp_path / "o"
    rc = main(["ingest", "--dataset", str(path), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"input error: {path} has no links (n = {n})")
    assert not out.exists()


def test_ingest_of_a_dump_whose_n_dwarfs_its_links_keeps_the_linked_component(tmp_path):
    # n = 2^62 exited 1 with MemoryError: the graph built one label per node
    path = tmp_path / "g.json"
    path.write_text('{"n": %d, "edges": [[2, 3, 1], [3, 4, -1]]}' % 2**62)
    out = tmp_path / "o"
    assert main(["ingest", "--dataset", str(path), "--out", str(out)]) == 0
    assert json.loads((out / "graph.json").read_text()) == {"n": 3,
                                                            "edges": [[0, 1, 1], [1, 2, -1]]}


@pytest.mark.parametrize("document,error", [("{", "bad config JSON"),
                                            ('{"bogus": 1}', "unknown config key"),
                                            ('{"nu": 2}', "nu must be"),
                                            ('{"format": "bogus"}', "unknown edge-list format")],
                         ids=["not-json", "unknown-key", "unusable-setting", "unknown-format"])
def test_a_config_fault_is_reported_as_a_config_error(reads, dataset_file, tmp_path, capsys,
                                                      document, error):
    # an unknown format was refused only when the dataset was read
    cfg = tmp_path / "cfg.json"
    cfg.write_text(document)
    rc = main(["ingest", "--config", str(cfg), "--dataset", dataset_file,
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and error in err
    assert reads == []


@pytest.mark.parametrize("command", ["ingest", "attack", "detect", "metrics"])
@pytest.mark.parametrize("out", ["afile", "afile/sub"])
def test_an_out_that_is_or_lies_under_a_file_exits_2_before_the_graph_is_read(
        reads, dataset_file, tmp_path, capsys, command, out):
    # ingest exited 1 with FileExistsError and metrics with NotADirectoryError;
    # attack and detect failed so only after every trial had run
    (tmp_path / "afile").write_text("")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seeds": [0], "powers": [0.05], "subsample": 0,
                               "corpus_sizes": [50, 60], "corpus_per_size": 2}))
    rc = main([command, "--config", str(cfg), "--dataset", dataset_file, "--format", "plain",
               "--out", str(tmp_path / out)])
    assert rc == 2
    assert f"{str(tmp_path / 'afile')!r} is not a directory" in capsys.readouterr().err
    assert reads == [] and (tmp_path / "afile").read_text() == ""


@pytest.mark.parametrize("command", ["ingest", "attack", "detect", "metrics"])
def test_a_command_without_a_dataset_exits_2(tmp_path, capsys, command):
    out = tmp_path / "o"
    rc = main([command, "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error: a dataset path is required")
    assert not out.exists()


def test_write_atomic_leaves_no_temporary_file_when_its_writer_raises(tmp_path):
    def fail(f):
        f.write("partial")
        raise RuntimeError("writer failed")

    with pytest.raises(RuntimeError, match="writer failed"):
        cli._write_atomic(str(tmp_path / "out" / "rows.csv"), fail)
    assert os.listdir(tmp_path / "out") == []


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


@pytest.mark.parametrize("document", ["[1, 2]", "3"], ids=["list", "number"])
def test_a_config_document_that_is_not_an_object_exits_2(dataset_file, tmp_path, capsys,
                                                         document):
    # it exited 1 with AttributeError: 'list' object has no attribute 'items'
    cfg = tmp_path / "cfg.json"
    cfg.write_text(document)
    out = tmp_path / "o"
    rc = main(["ingest", "--config", str(cfg), "--dataset", dataset_file, "--out", str(out)])
    assert rc == 2
    assert "the config document must be a JSON object" in capsys.readouterr().err
    assert not out.exists()


def test_a_directory_given_as_the_dataset_exits_2_before_it_is_read(reads, tmp_path, capsys):
    # it passed os.path.exists and then exited 1 with IsADirectoryError
    out = tmp_path / "o"
    rc = main(["ingest", "--dataset", str(tmp_path), "--out", str(out)])
    assert rc == 2
    assert "dataset file not found" in capsys.readouterr().err
    assert reads == [] and not out.exists()


def test_load_dataset_reads_edge_lists_and_json_dumps(dataset_file, tmp_path):
    want = load_dataset(ExperimentConfig(dataset=dataset_file, format="plain"))
    path = tmp_path / "dump.json"
    want.write_json(path)
    got = load_dataset(ExperimentConfig(dataset=str(path)))
    assert got.to_json_dict() == want.to_json_dict()


@pytest.mark.parametrize("command", ["attack", "detect"])
def test_attack_flags_offer_every_target(command):
    parser = make_parser()
    for target in TARGETS:
        args = parser.parse_args([command, "--target", target, "--power", "0.1",
                                  "--lambda", "1", "--eta", "2", "--subsample", "50"])
        assert (args.target, args.powers, args.lam, args.eta, args.subsample) == \
            (target, (0.1,), 1.0, 2.0, 50)
    with pytest.raises(SystemExit):
        parser.parse_args([command, "--target", "bogus"])


@pytest.mark.parametrize("baseline", [None, "rand"])
@pytest.mark.parametrize("target", ["pole-sym", "bogus"])
@pytest.mark.parametrize("command", ["attack", "detect"])
def test_a_config_naming_an_unknown_target_is_refused(dataset_file, tmp_path, capsys, command,
                                                      target, baseline):
    # a retired or misspelled target must not run as some victim
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"target": target, "baseline": baseline}))
    out = tmp_path / "o"
    rc = main([command, "--config", str(cfg), "--dataset", dataset_file, "--format", "plain",
               "--out", str(out), "--seed", "0", "--power", "0.05", "--subsample", "0"])
    assert rc == 2
    assert "unknown attack target" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["attack", "detect"])
def test_a_config_naming_an_unknown_baseline_is_refused_before_the_graph_is_read(
        reads, dataset_file, tmp_path, capsys, command):
    # build_config passed it, and the run refused it only after reading the graph
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"baseline": "bogus"}))
    out = tmp_path / "o"
    rc = main([command, "--config", str(cfg), "--dataset", dataset_file, "--format", "plain",
               "--out", str(out), "--seed", "0", "--power", "0.05", "--subsample", "0"])
    assert rc == 2
    assert "unknown baseline" in capsys.readouterr().err
    assert reads == [] and not out.exists()


@pytest.mark.parametrize("power", ["-0.05", "nan", "inf"])
def test_an_unusable_power_flag_exits_2_before_the_attack(reads, dataset_file, tmp_path,
                                                          capsys, power):
    # -0.05 exited 1 with KeyError after the whole attack, nan with
    # ValueError and inf with OverflowError
    out = tmp_path / "o"
    rc = main(["attack", "--dataset", dataset_file, "--format", "plain", "--out", str(out),
               "--seed", "0", f"--power={power}", "--subsample", "0"])
    assert rc == 2
    assert "attack power" in capsys.readouterr().err
    assert reads == [] and not out.exists()


@pytest.mark.parametrize("flag,value", [("--seed", "x"), ("--seed", "1,,2"), ("--power", "abc")],
                         ids=["seed-x", "seed-empty-item", "power-abc"])
def test_an_unparsable_list_flag_exits_2(dataset_file, tmp_path, capsys, flag, value):
    # each exited 1 with a ValueError traceback
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(["attack", "--dataset", dataset_file, "--format", "plain", "--out", str(out),
              "--subsample", "0", flag, value])
    assert exc.value.code == 2
    assert "invalid comma-separated" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config,error", [
    ({"powers": [0.1, 0.05]}, "strictly ascending"),
    ({"powers": [0.05, 0.05]}, "strictly ascending"),
    ({"seeds": [1, 1]}, "seeds must be distinct"),
], ids=["powers-descending", "powers-repeated", "seeds-repeated"])
def test_a_config_with_unordered_powers_or_repeated_seeds_exits_2(
        reads, dataset_file, tmp_path, capsys, config, error):
    # the powers were sorted silently, and a repeated seed or power wrote
    # duplicate CSV rows and overwrote its trace or snapshot file
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seeds": [0], **config}))
    out = tmp_path / "o"
    rc = main(["attack", "--config", str(cfg), "--dataset", dataset_file, "--format", "plain",
               "--out", str(out), "--subsample", "0"])
    assert rc == 2
    assert error in capsys.readouterr().err
    assert reads == [] and not out.exists()


def test_a_detect_config_with_a_negative_power_exits_2(reads, dataset_file, tmp_path,
                                                        capsys):
    # it exited 1 with KeyError after poisoning
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"powers": [0.05, -0.01]}))
    out = tmp_path / "o"
    rc = main(["detect", "--config", str(cfg), "--dataset", dataset_file, "--format", "plain",
               "--out", str(out), "--seed", "0", "--subsample", "0"])
    assert rc == 2
    assert "attack power" in capsys.readouterr().err
    assert reads == [] and not out.exists()


@pytest.mark.parametrize("command,config,error", [
    ("detect", {"strategy": "bogus"}, "unknown ensemble strategy"),
    ("detect", {"embed_dim": -1}, "embed_dim must be"),
    ("detect", {"embed_dim": 0}, "embed_dim must be"),
    ("detect", {"gamma": -1.0}, "gamma must be"),
    ("detect", {"nu": 0}, "nu must be"),
    ("detect", {"nu": 2}, "nu must be"),
    ("detect", {"corpus_per_size": 1, "corpus_sizes": [40]}, "at least 2 graphs"),
    ("detect", {"seeds": []}, "at least one seed"),
    ("attack", {"seeds": []}, "at least one seed"),
    ("attack", {"seeds": [-1]}, "seeds must be distinct and >= 0"),
    ("detect", {"corpus_seed": -1}, "corpus_seed must be"),
    ("attack", {"split_fraction": float("nan")}, "split_fraction must be"),
    ("attack", {"split_fraction": 1.5}, "split_fraction must be"),
    ("detect", {"corpus_sizes": [-3, 40]}, "corpus sizes must be"),
    ("attack", {"lam": float("nan")}, "lam and eta must be finite"),
    ("attack", {"eta": float("inf")}, "lam and eta must be finite"),
], ids=["strategy-bogus", "embed-dim-negative", "embed-dim-0", "gamma-negative", "nu-0", "nu-2",
        "one-corpus-graph", "detect-no-seed", "attack-no-seed", "seed-negative",
        "corpus-seed-negative", "split-fraction-nan", "split-fraction-1.5",
        "corpus-size-negative", "lam-nan", "eta-inf"])
def test_an_unusable_run_setting_exits_2_before_the_graph_is_read(
        reads, dataset_file, tmp_path, capsys, command, config, error):
    # each ran the poisoning first and then exited 2 or 1, or exited 0 with
    # AUCs of 0 (gamma -1), an empty embedding (embed_dim 0) or a header-only CSV;
    # a negative seed, a NaN split fraction and a negative corpus size exited 1
    # with a bare ValueError, 1.5 exited 2 once the graph was read, and a NaN or
    # infinite penalty weight exited 3 after the clean victim fit
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "o"
    rc = main([command, "--config", str(cfg), "--dataset", dataset_file, "--format", "plain",
               "--out", str(out), "--power", "0.05", "--subsample", "0"])
    assert rc == 2
    assert error in capsys.readouterr().err
    assert reads == [] and not out.exists()


# (flag, flag value, config key, config value, value the flag sets): every
# flag of ``detect`` but --config
FLAG_OVERRIDES = [
    ("--dataset", "<copy>", "dataset", "<dataset>", "<copy>"),
    ("--format", "rated", "format", "plain", "rated"),
    ("--out", "flag-out", "out", "config-out", "flag-out"),
    ("--seed", "2,3", "seeds", [1], (2, 3)),
    ("--t", "0.5", "t", 2.0, 0.5),
    ("--target", "pole-unsym", "target", "fextra-meta", "pole-unsym"),
    ("--power", "0.01,0.02", "powers", [0.1], (0.01, 0.02)),
    ("--lambda", "2", "lam", 1.0, 2.0),
    ("--eta", "3", "eta", 1.0, 3.0),
    ("--subsample", "50", "subsample", 60, 50),
    ("--baseline", "greedy-triads", "baseline", "rand", "greedy-triads"),
    ("--strategy", "min", "strategy", "mean", "min"),
]


def test_the_flag_override_table_covers_every_detect_flag():
    parser = make_parser()
    dests = set()
    for flag, value, *_ in FLAG_OVERRIDES:
        args = vars(parser.parse_args(["detect", flag, value]))
        dests |= {k for k, v in args.items() if v is not None} - {"command", "func"}
    assert dests == set(vars(parser.parse_args(["detect"]))) - {"command", "func", "config"}


@pytest.mark.parametrize("flag,value,key,config_value,want", FLAG_OVERRIDES,
                         ids=[row[0].lstrip("-") for row in FLAG_OVERRIDES])
def test_each_flag_overrides_its_config_key_and_no_other(dataset_file, tmp_path, flag, value,
                                                         key, config_value, want):
    copy = tmp_path / "copy.csv"
    copy.write_text(Path(dataset_file).read_text())
    paths = {"<dataset>": dataset_file, "<copy>": str(copy)}
    value, config_value, want = (paths.get(x, x) if isinstance(x, str) else x
                                 for x in (value, config_value, want))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dataset": dataset_file, key: config_value}))
    parser = make_parser()
    from_file = build_config(parser.parse_args(["detect", "--config", str(cfg)]))
    flagged = build_config(parser.parse_args(["detect", "--config", str(cfg), flag, value]))
    assert getattr(flagged, key) == want != getattr(from_file, key)
    rest = [{k: v for k, v in dataclasses.asdict(c).items() if k != key}
            for c in (from_file, flagged)]
    assert rest[0] == rest[1]


def test_an_unknown_target_flag_exits_2(dataset_file, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["attack", "--dataset", dataset_file, "--target", "pole-sym",
              "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert not (tmp_path / "o").exists()


def test_metrics_command(dataset_file, tmp_path):
    out = tmp_path / "m"
    rc = main(["metrics", "--dataset", dataset_file, "--format", "plain",
               "--out", str(out)])
    assert rc == 0
    rep = json.loads((out / "balance.json").read_text())
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
    summary = json.loads((out / "detector_summary.json").read_text())
    assert {"metric_auc", "tsvd_auc", "ensemble_max_auc"} <= set(summary)
    rows = read_csv(out / "detector_scores.csv")
    assert len(rows) == 8 + 2  # corpus graphs + seeds x powers


@pytest.mark.parametrize("args", [
    ["metrics", "--t", "0"],
    ["metrics", "--t", "nan"],
    ["attack", "--target", "pole-unsym", "--t", "0"],
    ["detect", "--target", "fextra-ols", "--t", "-1"],
], ids=["metrics-zero", "metrics-nan", "attack-pole-zero", "detect-negative"])
def test_nonpositive_markov_time_is_a_numeric_failure(args, dataset_file, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "corpus_sizes": [50, 60], "corpus_per_size": 4, "corpus_seed": 1,
        "seeds": [0], "subsample": 60, "powers": [0.05],
    }))
    rc = main(args + ["--config", str(cfg), "--dataset", dataset_file, "--format", "plain",
                      "--out", str(tmp_path / "o")])
    assert rc == 3


def test_fextra_attack_reads_no_markov_time(dataset_file, tmp_path):
    base = ["attack", "--dataset", dataset_file, "--format", "plain", "--target", "fextra-ols",
            "--seed", "0", "--power", "0.05", "--subsample", "0"]
    assert main(base + ["--out", str(tmp_path / "a")]) == 0
    assert main(base + ["--t", "0", "--out", str(tmp_path / "b")]) == 0
    assert ((tmp_path / "a" / "attack_auc.csv").read_bytes()
            == (tmp_path / "b" / "attack_auc.csv").read_bytes())


@pytest.mark.parametrize("command,config,key", [
    ("attack", {"seeds": 3}, "seeds"),
    ("attack", {"corpus_sizes": 300}, "corpus_sizes"),
    ("attack", {"subsample": "100"}, "subsample"),
    ("attack", {"lam": "2"}, "lam"),
    ("detect", {"t": "1"}, "t"),
    ("attack", {"subsample": True}, "subsample"),
    ("attack", {"seeds": [0, 1.5]}, "seeds"),
    ("attack", {"baseline": 1}, "baseline"),
], ids=["seeds-int", "corpus-sizes-int", "subsample-str", "lam-str", "detect-t-str",
        "subsample-bool", "seeds-float", "baseline-int"])
def test_a_config_value_of_the_wrong_type_exits_2_before_the_graph_is_read(
        reads, dataset_file, tmp_path, capsys, command, config, key):
    # the first five raised TypeError or ValueError (lam only after the whole attack)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "o"
    rc = main([command, "--config", str(cfg), "--dataset", dataset_file, "--format", "plain",
               "--out", str(out), "--power", "0.05"])
    assert rc == 2
    assert f"config key {key!r}" in capsys.readouterr().err
    assert reads == [] and not out.exists()


@pytest.mark.parametrize("command,flags,config,error", [
    ("attack", ["--subsample", "-5"], {}, "subsample must be >= 0"),
    ("attack", [], {"subsample": -3}, "subsample must be >= 0"),
    ("metrics", [], {"seeds": []}, "at least one seed"),
    ("ingest", [], {"nu": 2}, "nu must be"),
    ("attack", [], {"strategy": "bogus"}, "unknown ensemble strategy"),
], ids=["attack-subsample-flag", "attack-subsample-config", "metrics-no-seed", "ingest-nu-2",
        "attack-strategy-bogus"])
def test_every_command_refuses_an_unusable_setting_before_the_graph_is_read(
        reads, dataset_file, tmp_path, capsys, command, flags, config, error):
    # a negative subsample ran on the full graph, and the commands other than
    # detect ran with detector settings no run can use; each exited 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "o"
    rc = main([command, "--config", str(cfg), "--dataset", dataset_file, "--format", "plain",
               "--out", str(out), *flags])
    assert rc == 2
    assert error in capsys.readouterr().err
    assert reads == [] and not out.exists()


@pytest.mark.parametrize("field", dataclasses.fields(ExperimentConfig),
                         ids=lambda f: f.name)
def test_each_config_field_refuses_a_value_of_the_wrong_type(field):
    # a field whose annotation has no type rule fails here with KeyError
    wrong = 1 if field.type.startswith("str") else "1"
    with pytest.raises(ConfigError, match=f"config key {field.name!r} must be"):
        ExperimentConfig(**{field.name: wrong})


def test_a_made_config_cannot_be_changed_into_an_unusable_one():
    cfg = ExperimentConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.nu = 2.0
    with pytest.raises(ConfigError, match="nu must be"):
        dataclasses.replace(cfg, nu=2.0)
    with pytest.raises(ConfigError, match="subsample must be >= 0"):
        ExperimentConfig(subsample=-1)


def test_a_config_stores_a_list_given_for_a_tuple_field_as_a_tuple():
    cfg = ExperimentConfig(seeds=[2, 3], powers=[0.05], corpus_sizes=[40, 50])
    assert (cfg.seeds, cfg.powers, cfg.corpus_sizes) == ((2, 3), (0.05,), (40, 50))


def test_a_config_accepts_an_int_for_a_float_field(dataset_file, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lam": 0, "split_fraction": 0.1, "baseline": None}))
    rc = main(["attack", "--config", str(cfg), "--dataset", dataset_file, "--format", "plain",
               "--out", str(tmp_path / "o"), "--seed", "0", "--power", "0.05",
               "--subsample", "0"])
    assert rc == 0


def test_detect_baseline_flag_poisons_with_that_baseline(monkeypatch, dataset_file, tmp_path):
    # argparse refused --baseline on detect, though a config file could set it
    calls = []
    monkeypatch.setattr(experiments, "baseline_rand",
                        lambda *a, run=experiments.baseline_rand, **kw:
                        calls.append(a) or run(*a, **kw))
    monkeypatch.setattr(experiments, "flip_attack",
                        lambda *a, **kw: pytest.fail("the gradient attack ran"))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"corpus_sizes": [50, 60], "corpus_per_size": 4, "corpus_seed": 1,
                               "seeds": [0], "subsample": 60, "powers": [0.05]}))
    rc = main(["detect", "--config", str(cfg), "--dataset", dataset_file, "--format", "plain",
               "--out", str(tmp_path / "det"), "--baseline", "rand"])
    assert rc == 0
    assert len(calls) == 1


def test_any_other_package_error_exits_2_as_an_error(monkeypatch, dataset_file, tmp_path, capsys):
    # neither a config, input nor numeric error: the last handler of main
    def missing(args):
        raise MissingEdgeError("no edge (0, 1)")

    monkeypatch.setattr(cli, "cmd_ingest", missing)
    rc = main(["ingest", "--dataset", dataset_file, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == "error: no edge (0, 1)\n"
