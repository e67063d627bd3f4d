"""Seeded experiment pipelines: attack trials and detection runs.

This module is the engine behind the command-line interface; everything
here is importable so tests and notebooks can drive the same protocol.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attacks import (AttackConfig, baseline_greedy_triads, baseline_rand, flip_attack,
                      flips_for_power, victim_model_kind, victim_probs)
from .detectors import DetectorView, detector_eval
from .errors import ConfigError
from .fextra import auc
from .graph import (EdgeSplit, GraphCorpus, SignedGraph, largest_connected_component,
                    load_edge_list, sample_subgraph_corpus, split_edges)
from .pole import WalkParams

FEXTRA_POWERS = (0.01, 0.05, 0.10, 0.15, 0.20)
POLE_POWERS = (0.01, 0.03, 0.05, 0.07, 0.10)


@dataclass
class ExperimentConfig:
    dataset: str = ""
    format: str = "rated"
    subsample: int = 300          # 0 means the full graph
    split_fraction: float = 0.1
    target: str = "fextra-ols"
    baseline: str | None = None   # "rand" | "greedy-triads"
    powers: tuple = ()
    lam: float = 0.0
    eta: float = 0.0
    inner_iters: int = 100
    inner_lr: float = 0.01
    t: float = 1.0
    seeds: tuple = (0, 1, 2, 3, 4)
    out: str = "out"
    # detector settings
    corpus_sizes: tuple = (300, 400, 500)
    corpus_per_size: int = 20
    corpus_seed: int = 12345
    nu: float = 0.1
    gamma: float = 0.1
    embed_dim: int = 32
    strategy: str = "max"

    def resolved_powers(self):
        if self.powers:
            return tuple(sorted(self.powers))
        return POLE_POWERS if self.target.startswith("pole") else FEXTRA_POWERS

    def attack_config(self, budget, seed):
        return AttackConfig(budget=budget, lam=self.lam, eta=self.eta,
                            inner_iters=self.inner_iters, inner_lr=self.inner_lr,
                            t=self.t, seed=seed,
                            checkpoints=self.resolved_powers())


def load_dataset(cfg: ExperimentConfig) -> SignedGraph:
    g = load_edge_list(cfg.dataset, cfg.format)
    return largest_connected_component(g)


def subsample_graph(g: SignedGraph, size: int, seed: int) -> SignedGraph:
    """LCC of a uniform random induced subgraph (size 0 keeps the graph)."""
    if size <= 0 or size >= g.n:
        return g
    rng = np.random.default_rng(seed)
    nodes = rng.choice(g.n, size=size, replace=False)
    return largest_connected_component(g.induced_subgraph(nodes))


def victim_test_auc(g: SignedGraph, split: EdgeSplit, model: str,
                    t=1.0, seed=0) -> float:
    """Retrain the victim on the (possibly poisoned) graph and score test links."""
    probs = victim_probs(model, g, split, WalkParams(t=t), seed)
    return auc(probs, (split.hidden_signs > 0).astype(int))


def run_attack_trial(dataset: SignedGraph, cfg: ExperimentConfig, seed: int):
    """One seeded trial: subsample, split, attack, per-power victim AUC rows."""
    g = subsample_graph(dataset, cfg.subsample, seed)
    split = split_edges(g, cfg.split_fraction, seed)
    model = victim_model_kind(cfg.target)
    clean_auc = victim_test_auc(g, split, model, cfg.t, seed)

    powers = cfg.resolved_powers()
    budget = max(flips_for_power(g, p) for p in powers)
    if cfg.baseline == "rand":
        trace = baseline_rand(g, split, budget, seed, checkpoints=powers)
        attack_name = "rand"
    elif cfg.baseline == "greedy-triads":
        trace = baseline_greedy_triads(g, split, budget, checkpoints=powers)
        attack_name = "greedy-triads"
    elif cfg.baseline:
        raise ConfigError(f"unknown baseline {cfg.baseline!r}")
    else:
        trace = flip_attack(g, split, cfg.target, cfg.attack_config(budget, seed))
        attack_name = cfg.target
        if cfg.lam or cfg.eta:
            attack_name += f"(lam={cfg.lam:g},eta={cfg.eta:g})"

    rows = []
    for p in powers:
        g_p = trace.snapshots[p]
        poisoned_auc = (clean_auc if flips_for_power(g, p) == 0
                        else victim_test_auc(g_p, split, model, cfg.t, seed))
        rows.append({"seed": seed, "power": p, "attack": attack_name, "model": model,
                     "auc_clean": clean_auc, "auc_poisoned": poisoned_auc})
    return rows, trace, g


def run_attack_experiment(cfg: ExperimentConfig, dataset: SignedGraph | None = None):
    dataset = dataset if dataset is not None else load_dataset(cfg)
    all_rows, traces = [], {}
    for seed in cfg.seeds:
        rows, trace, g = run_attack_trial(dataset, cfg, seed)
        all_rows.extend(rows)
        traces[seed] = (trace, g)
    all_rows.sort(key=lambda r: (r["seed"], r["power"]))
    return all_rows, traces


def build_poisoned_set(dataset: SignedGraph, cfg: ExperimentConfig):
    """Poisoned snapshots for the detection protocol: seeds x powers graphs."""
    poisoned = []
    powers = cfg.resolved_powers()
    for seed in cfg.seeds:
        g = subsample_graph(dataset, cfg.subsample, seed)
        split = split_edges(g, cfg.split_fraction, seed)
        budget = max(flips_for_power(g, p) for p in powers)
        trace = flip_attack(g, split, cfg.target, cfg.attack_config(budget, seed))
        poisoned.extend(trace.snapshots[p] for p in powers)
    return poisoned


def run_detect_experiment(cfg: ExperimentConfig, dataset: SignedGraph | None = None,
                          corpus: GraphCorpus | None = None, poisoned=None):
    dataset = dataset if dataset is not None else load_dataset(cfg)
    if corpus is None:
        corpus = sample_subgraph_corpus(dataset, cfg.corpus_sizes,
                                        cfg.corpus_per_size, cfg.corpus_seed)
    if poisoned is None:
        poisoned = build_poisoned_set(dataset, cfg)
    views = [DetectorView("metric", t=cfg.t, nu=cfg.nu, gamma=cfg.gamma),
             DetectorView("tsvd", d=cfg.embed_dim, nu=cfg.nu, gamma=cfg.gamma)]
    ensemble_auc, rows = detector_eval(corpus, poisoned, views, cfg.strategy)
    anomalous = np.array([r["label"] == -1 for r in rows], dtype=int)
    summary = {f"{v.kind}_auc": auc(-np.array([r[f"view_{v.kind}"] for r in rows]), anomalous)
               for v in views}
    summary[f"ensemble_{cfg.strategy}_auc"] = ensemble_auc
    return summary, rows, views

