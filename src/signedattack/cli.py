"""Batch experiment command line.

Subcommands: ingest, attack, detect, metrics. Options come from an
optional JSON config document plus flags of the same name that override it.
Exit codes: 0 success, 2 configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import tempfile

from .balance import balance_report
from .errors import (ConfigError, InvalidSplitError, MetricUndefinedError,
                     NumericError, ParseError, SignedAttackError)
from .experiments import ExperimentConfig, run_attack_experiment, run_detect_experiment
from .graph import load_edge_list, load_graph_json, largest_connected_component, positive_ratio


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


def _load_graph_any(path, fmt):
    if str(path).endswith(".json"):
        return load_graph_json(path)
    return load_edge_list(path, fmt)


def build_config(args) -> ExperimentConfig:
    base = {}
    if args.config:
        with open(args.config) as f:
            try:
                base = json.load(f)
            except json.JSONDecodeError as e:
                raise ConfigError(f"bad config JSON: {e}") from e
    cfg = ExperimentConfig()
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    for key, val in base.items():
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
        setattr(cfg, key, tuple(val) if isinstance(val, list) else val)
    overrides = {
        "dataset": args.dataset, "format": args.format, "out": args.out,
        "target": getattr(args, "target", None),
        "baseline": getattr(args, "baseline", None),
        "lam": getattr(args, "lam", None), "eta": getattr(args, "eta", None),
        "subsample": getattr(args, "subsample", None),
        "t": getattr(args, "t", None),
        "strategy": getattr(args, "strategy", None),
    }
    for key, val in overrides.items():
        if val is not None:
            setattr(cfg, key, val)
    if getattr(args, "seed", None):
        cfg.seeds = tuple(int(s) for s in args.seed.split(","))
    if getattr(args, "power", None):
        cfg.powers = tuple(float(p) for p in args.power.split(","))
        if list(cfg.powers) != sorted(cfg.powers):
            raise ConfigError("attack powers must be ascending")
    if not cfg.dataset:
        raise ConfigError("a dataset path is required (--dataset or config)")
    if not os.path.exists(cfg.dataset):
        raise ConfigError(f"dataset file not found: {cfg.dataset}")
    return cfg


def cmd_ingest(args) -> int:
    cfg = build_config(args)
    g = largest_connected_component(_load_graph_any(cfg.dataset, cfg.format))
    stats = {"n": g.n, "edges": g.num_edges,
             "positive_ratio": round(positive_ratio(g), 4),
             "rejected_rows": g.meta.get("rejected_rows", 0)}
    os.makedirs(cfg.out, exist_ok=True)
    _write_json(os.path.join(cfg.out, "graph.json"), g.to_json_dict())
    _write_json(os.path.join(cfg.out, "stats.json"), stats)
    print(f"n={stats['n']} edges={stats['edges']} "
          f"positive_ratio={stats['positive_ratio']:.4f}")
    return 0


def cmd_attack(args) -> int:
    cfg = build_config(args)
    dataset = largest_connected_component(_load_graph_any(cfg.dataset, cfg.format))
    rows, traces = run_attack_experiment(cfg, dataset)
    os.makedirs(cfg.out, exist_ok=True)
    _write_csv(os.path.join(cfg.out, "attack_auc.csv"), rows,
               ["seed", "power", "attack", "model", "auc_clean", "auc_poisoned"])
    for seed, (trace, _) in traces.items():
        _write_json(os.path.join(cfg.out, f"trace_seed{seed}.json"),
                    trace.to_json_dict())
        for p, g_p in trace.snapshots.items():
            _write_json(os.path.join(cfg.out, f"poisoned_seed{seed}_power{p:g}.json"),
                        g_p.to_json_dict())
    for r in rows:
        print(f"seed={r['seed']} power={r['power']:g} attack={r['attack']} "
              f"auc_clean={r['auc_clean']:.4f} auc_poisoned={r['auc_poisoned']:.4f}")
    return 0


def cmd_detect(args) -> int:
    cfg = build_config(args)
    dataset = largest_connected_component(_load_graph_any(cfg.dataset, cfg.format))
    summary, rows, _ = run_detect_experiment(cfg, dataset)
    os.makedirs(cfg.out, exist_ok=True)
    columns = list(rows[0].keys())
    _write_csv(os.path.join(cfg.out, "detector_scores.csv"), rows, columns)
    _write_json(os.path.join(cfg.out, "detector_summary.json"), summary)
    for k in sorted(summary):
        print(f"{k}={summary[k]:.4f}")
    return 0


def cmd_metrics(args) -> int:
    cfg = build_config(args)
    g = largest_connected_component(_load_graph_any(cfg.dataset, cfg.format))
    report = balance_report(g, t=cfg.t)
    os.makedirs(cfg.out, exist_ok=True)
    _write_json(os.path.join(cfg.out, "balance.json"), report.to_json_dict())
    t_str = "undefined" if report.T is None else f"{report.T:.4f}"
    print(f"T={t_str} triads={report.total_triads} pol={report.pol_graph:.4f}")
    return 0


def _add_common(p):
    p.add_argument("--config", help="JSON config document")
    p.add_argument("--dataset", help="edge-list or graph-dump path")
    p.add_argument("--format", default=None, choices=["plain", "rated"])
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--seed", default=None, help="comma-separated trial seeds")
    p.add_argument("--t", type=float, default=None, help="Markov time")


def make_parser():
    ap = argparse.ArgumentParser(prog="signedattack",
                                 description="Signed-graph poisoning attack toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="load a dataset, keep the LCC, dump stats")
    _add_common(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("attack", help="run poisoning trials and report victim AUC")
    _add_common(p)
    p.add_argument("--target", choices=["fextra-ols", "fextra-meta",
                                        "pole-sym", "pole-unsym"], default=None)
    p.add_argument("--baseline", choices=["rand", "greedy-triads"], default=None)
    p.add_argument("--power", default=None, help="comma-separated attack powers")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="balance-ratio penalty weight")
    p.add_argument("--eta", type=float, default=None,
                   help="polarization penalty weight")
    p.add_argument("--subsample", type=int, default=None)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("detect", help="fit detectors on clean subgraphs, score attacks")
    _add_common(p)
    p.add_argument("--target", choices=["fextra-ols", "fextra-meta",
                                        "pole-sym", "pole-unsym"], default=None)
    p.add_argument("--power", default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--subsample", type=int, default=None)
    p.add_argument("--strategy", choices=["mean", "min", "max"], default=None)
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
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (NumericError, MetricUndefinedError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    except SignedAttackError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
