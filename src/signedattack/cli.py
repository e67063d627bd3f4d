"""Batch experiment command line.

Subcommands: ingest, attack, detect, metrics. Options come from an
optional JSON config document plus flags of the same name that override it;
``attack`` and ``detect`` share their attack flags; ``--target``,
``--baseline`` and ``--strategy`` offer ``attacks.TARGETS``,
``experiments.BASELINES`` and ``detectors.STRATEGIES`` (``--seed`` and
``--power`` take comma-separated lists). The config document must be a JSON
object whose keys are ``ExperimentConfig`` fields; the config checks itself
when made, so every command refuses a setting of the wrong type or one no
run can use before the graph is read, as it does an ``out`` that is a file
or lies under one. Every command reads its graph through
``experiments.load_dataset`` (an edge list or a ``.json`` dump, cut to its
largest connected component). Exit codes: 0 success, 2 configuration or
usage error ("config error") or a malformed dataset ("input error"), 3
numeric failure (a non-positive Markov time is one).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import tempfile

from .attacks import TARGETS
from .balance import balance_report
from .errors import (ConfigError, InvalidSplitError, MetricUndefinedError,
                     NumericError, ParseError, SignedAttackError)
from .detectors import STRATEGIES
from .experiments import (BASELINES, ExperimentConfig, load_dataset, run_attack_experiment,
                          run_detect_experiment)
from .graph import EDGE_LIST_FORMATS, positive_ratio


def _write_atomic(path, writer):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as f:
            writer(f)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path, rows, columns):
    def do(f):
        w = csv.writer(f)
        w.writerow(columns)
        for r in rows:
            w.writerow([_fmt(r[c]) for c in columns])
    _write_atomic(path, do)


def _fmt(x):
    if isinstance(x, float):
        return f"{x:.6f}"
    return x


def _write_json(path, obj):
    _write_atomic(path, lambda f: json.dump(obj, f, indent=2, sort_keys=True))


def build_config(args) -> ExperimentConfig:
    document = {}
    if args.config:
        with open(args.config, encoding="utf-8") as f:
            try:
                document = json.load(f)
            except ValueError as e:  # not JSON, not UTF-8, or an integer of over 4300 digits
                raise ConfigError(f"bad config JSON: {e}") from e
        if not isinstance(document, dict):
            raise ConfigError("the config document must be a JSON object")
    keys = {f.name for f in dataclasses.fields(ExperimentConfig)}
    for key in document:
        if key not in keys:
            raise ConfigError(f"unknown config key {key!r}")
    # each flag has its field's name as its dest and converts to the field's type
    flags = {k: v for k, v in vars(args).items() if k in keys and v is not None}
    cfg = ExperimentConfig(**{**document, **flags})
    if not cfg.dataset:
        raise ConfigError("a dataset path is required (--dataset or config)")
    if not os.path.isfile(cfg.dataset):
        raise ConfigError(f"dataset file not found: {cfg.dataset}")
    # the output directory is made at the first write: its nearest existing
    # ancestor, or itself, must be a directory
    existing = cfg.out
    while existing and not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if existing and not os.path.isdir(existing):
        raise ConfigError(f"output directory {cfg.out!r}: {existing!r} is not a directory")
    return cfg


def cmd_ingest(args) -> int:
    cfg = build_config(args)
    g = load_dataset(cfg)
    stats = {"n": g.n, "edges": g.num_edges,
             "positive_ratio": round(positive_ratio(g), 4),
             "rejected_rows": g.meta.get("rejected_rows", 0)}
    _write_json(os.path.join(cfg.out, "graph.json"), g.to_json_dict())
    _write_json(os.path.join(cfg.out, "stats.json"), stats)
    print(f"n={stats['n']} edges={stats['edges']} "
          f"positive_ratio={stats['positive_ratio']:.4f}")
    return 0


def cmd_attack(args) -> int:
    cfg = build_config(args)
    rows, traces = run_attack_experiment(cfg)
    _write_csv(os.path.join(cfg.out, "attack_auc.csv"), rows,
               ["seed", "power", "attack", "model", "auc_clean", "auc_poisoned",
                "self_label_acc"])
    for seed, trace in traces.items():
        _write_json(os.path.join(cfg.out, f"trace_seed{seed}.json"),
                    trace.to_json_dict())
        for p, g_p in trace.snapshots.items():
            _write_json(os.path.join(cfg.out, f"poisoned_seed{seed}_power{p:g}.json"),
                        g_p.to_json_dict())
    for r in rows:
        print(f"seed={r['seed']} power={r['power']:g} attack={r['attack']} "
              f"auc_clean={r['auc_clean']:.4f} auc_poisoned={r['auc_poisoned']:.4f} "
              f"self_label_acc={r['self_label_acc']:.4f}")
    return 0


def cmd_detect(args) -> int:
    cfg = build_config(args)
    summary, rows, _ = run_detect_experiment(cfg)
    columns = list(rows[0].keys())
    _write_csv(os.path.join(cfg.out, "detector_scores.csv"), rows, columns)
    _write_json(os.path.join(cfg.out, "detector_summary.json"), summary)
    for k in sorted(summary):
        print(f"{k}={summary[k]:.4f}")
    return 0


def cmd_metrics(args) -> int:
    cfg = build_config(args)
    g = load_dataset(cfg)
    report = balance_report(g, t=cfg.t)
    _write_json(os.path.join(cfg.out, "balance.json"), report.to_json_dict())
    t_str = "undefined" if report.T is None else f"{report.T:.4f}"
    print(f"T={t_str} triads={report.total_triads} pol={report.pol_graph:.4f}")
    return 0


def _list_of(convert):
    """An argparse type: the tuple of comma-separated values, each read by ``convert``."""
    def parse(text):
        return tuple(convert(x) for x in text.split(","))
    parse.__name__ = f"comma-separated {convert.__name__}"  # argparse's error names it
    return parse


def _add_common(p):
    p.add_argument("--config", help="JSON config document")
    p.add_argument("--dataset", help="edge-list or graph-dump path")
    p.add_argument("--format", default=None, choices=EDGE_LIST_FORMATS)
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--seed", dest="seeds", type=_list_of(int), default=None,
                   help="comma-separated trial seeds")
    p.add_argument("--t", type=float, default=None, help="Markov time")


def _add_attack(p):
    p.add_argument("--target", choices=TARGETS, default=None)
    p.add_argument("--power", dest="powers", type=_list_of(float), default=None,
                   help="comma-separated attack powers, ascending")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="balance-ratio penalty weight")
    p.add_argument("--eta", type=float, default=None,
                   help="polarization penalty weight")
    p.add_argument("--subsample", type=int, default=None)
    p.add_argument("--baseline", choices=BASELINES, default=None)


def make_parser():
    ap = argparse.ArgumentParser(prog="signedattack",
                                 description="Signed-graph poisoning attack toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="load a dataset, keep the LCC, dump stats")
    _add_common(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("attack", help="run poisoning trials and report victim AUC")
    _add_common(p)
    _add_attack(p)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("detect", help="fit detectors on clean subgraphs, score attacks")
    _add_common(p)
    _add_attack(p)
    p.add_argument("--strategy", choices=STRATEGIES, default=None)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("metrics", help="balance report for a graph file")
    _add_common(p)
    p.set_defaults(func=cmd_metrics)
    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParseError, InvalidSplitError, FileNotFoundError) as e:
        label = "input" if isinstance(e, ParseError) else "config"
        print(f"{label} error: {e}", file=sys.stderr)
        return 2
    except (NumericError, MetricUndefinedError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    except SignedAttackError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
