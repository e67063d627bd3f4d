"""Seeded experiment pipelines: attack trials and detection runs.

This module is the engine behind the command-line interface; everything
here is importable so tests and notebooks can drive the same protocol.
``run_trial`` is the one place a trial is built: subsample, split, one
clean victim fit, then the configured attack or baseline up to the budget
of the largest power, whose snapshot at each power is the trial graph with
that power's prefix of the flips applied (``AttackTrace.poisoned``). An
attack trial scores those graphs and a detection run's poisoned set
collects them. They share their links, so a FeXtra trial builds one wedge
index. An ``ExperimentConfig`` checks its settings when it is made. The
Markov time ``t`` reaches only the walks: the POLE victim and losses, the
polarization penalty and the detector's metric view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .attacks import (AttackConfig, AttackTrace, baseline_greedy_triads, baseline_rand,
                      flip_attack, flips_for_power, victim_model_kind, victim_probs)
from .detectors import (DEFAULT_EMBED_DIM, DEFAULT_GAMMA, DEFAULT_NU, STRATEGIES, DetectorView,
                        detector_eval)
from .errors import ConfigError
from .fextra import auc
from .graph import (EDGE_LIST_FORMATS, EdgeSplit, SignedGraph, largest_connected_component,
                    load_edge_list, load_graph_json, sample_subgraph_corpus, split_edges)
from .pole import check_markov_time

FEXTRA_POWERS = (0.01, 0.05, 0.10, 0.15, 0.20)
POLE_POWERS = (0.01, 0.03, 0.05, 0.07, 0.10)
BASELINES = ("rand", "greedy-triads")


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# ExperimentConfig field annotation -> (check of a value, what it expects); a
# tuple field takes a list or a tuple and stores a tuple
_TYPE_RULES = {
    "str": (lambda v: isinstance(v, str), "a string"),
    "str | None": (lambda v: v is None or isinstance(v, str), "a string or null"),
    "int": (_is_int, "an integer"),
    "float": (_is_number, "a number"),
    "tuple[int, ...]": (lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v)),
                        "a list of integers"),
    "tuple[float, ...]": (lambda v: isinstance(v, (list, tuple)) and all(map(_is_number, v)),
                          "a list of numbers"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """The settings of a run, checked when made: an instance is a usable config.

    Making one, directly or by ``dataclasses.replace``, raises ``ConfigError``
    for a value of the wrong type for its field, then for an attack setting
    and then a detector setting that no run can use. The Markov time is
    checked where a walk reads it (``pole.check_markov_time``).
    """
    dataset: str = ""
    format: str = "rated"
    subsample: int = 300          # 0 means the full graph
    split_fraction: float = 0.1
    target: str = "fextra-ols"
    baseline: str | None = None   # "rand" | "greedy-triads"
    powers: tuple[float, ...] = ()
    lam: float = 0.0
    eta: float = 0.0
    t: float = 1.0
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    out: str = "out"
    # detector settings
    corpus_sizes: tuple[int, ...] = (300, 400, 500)
    corpus_per_size: int = 20
    corpus_seed: int = 12345
    nu: float = DEFAULT_NU
    gamma: float = DEFAULT_GAMMA
    embed_dim: int = DEFAULT_EMBED_DIM
    strategy: str = "max"

    def __post_init__(self):
        for f in fields(self):
            val = getattr(self, f.name)
            check, expected = _TYPE_RULES[f.type]
            if not check(val):
                raise ConfigError(f"config key {f.name!r} must be {expected}, got {val!r}")
            if isinstance(val, list):
                object.__setattr__(self, f.name, tuple(val))
        if self.format not in EDGE_LIST_FORMATS:
            raise ConfigError(f"unknown edge-list format {self.format!r}")
        # attack settings
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if len(set(self.seeds)) != len(self.seeds) or min(self.seeds) < 0:
            raise ConfigError(f"seeds must be distinct and >= 0, got {list(self.seeds)}")
        if self.subsample < 0:
            raise ConfigError(f"subsample must be >= 0, got {self.subsample}")
        if not 0 < self.split_fraction < 1:
            raise ConfigError(f"split_fraction must be in (0, 1), got {self.split_fraction}")
        if not (math.isfinite(self.lam) and math.isfinite(self.eta)):
            raise ConfigError(f"lam and eta must be finite, got {self.lam} and {self.eta}")
        victim_model_kind(self.target)
        if self.baseline and self.baseline not in BASELINES:
            raise ConfigError(f"unknown baseline {self.baseline!r}; expected one of {BASELINES}")
        for p in self.powers:
            if not 0 <= p < math.inf:
                raise ConfigError(f"attack power {p!r} must be a finite number >= 0")
        if any(a >= b for a, b in zip(self.powers, self.powers[1:])):
            raise ConfigError(f"attack powers must be strictly ascending, "
                              f"got {list(self.powers)}")
        # detector settings
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown ensemble strategy {self.strategy!r}; "
                              f"expected one of {STRATEGIES}")
        if not 0 < self.nu <= 1:
            raise ConfigError(f"nu must be in (0, 1], got {self.nu}")
        if not 0 < self.gamma < math.inf:
            raise ConfigError(f"gamma must be a finite number > 0, got {self.gamma}")
        if self.embed_dim < 1:
            raise ConfigError(f"embed_dim must be at least 1, got {self.embed_dim}")
        if self.corpus_seed < 0:
            raise ConfigError(f"corpus_seed must be >= 0, got {self.corpus_seed}")
        if any(size < 1 for size in self.corpus_sizes):
            raise ConfigError(f"corpus sizes must be at least 1, got {list(self.corpus_sizes)}")
        if len(self.corpus_sizes) * self.corpus_per_size < 2:
            raise ConfigError("the clean corpus needs at least 2 graphs")

    def resolved_powers(self):
        if self.powers:
            return self.powers
        return POLE_POWERS if victim_model_kind(self.target) == "pole" else FEXTRA_POWERS


def load_dataset(cfg: ExperimentConfig) -> SignedGraph:
    """The largest connected component of ``cfg.dataset``, a ``.json`` graph dump
    or else an edge list in ``cfg.format``."""
    if str(cfg.dataset).endswith(".json"):
        g = load_graph_json(cfg.dataset)
    else:
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
                    t=1.0) -> float:
    """Retrain the victim on the (possibly poisoned) graph and score test links.

    A poisoned snapshot shares the trial graph's links, so the FeXtra retrain
    reads the wedge index the clean fit built (``fextra.link_index``).
    """
    probs = victim_probs(model, g, split, t)
    return auc(probs, (split.hidden_signs > 0).astype(int))


@dataclass(frozen=True)
class Trial:
    """One seeded trial (``run_trial``): the trial graph and its split, the clean
    victim's AUC and self-labels, and the trace of the attack or baseline ``attack``."""
    g: SignedGraph
    split: EdgeSplit
    clean_auc: float
    y_hat: np.ndarray
    trace: AttackTrace
    attack: str


def run_trial(dataset: SignedGraph, cfg: ExperimentConfig, seed: int) -> Trial:
    """Subsample, split, fit the clean victim once, then poison to the largest power's budget.

    The clean victim's test probabilities give the clean AUC and, thresholded
    at 0.5 (ties -> 1) as ``self_train_labels`` does, the self-labels the
    gradient attack targets. The trace's ``snapshots`` hold
    ``trace.poisoned(g, p)`` at each power.
    """
    g = subsample_graph(dataset, cfg.subsample, seed)
    split = split_edges(g, cfg.split_fraction, seed)
    probs = victim_probs(victim_model_kind(cfg.target), g, split, cfg.t)
    y_hat = (probs >= 0.5).astype(float)
    powers = cfg.resolved_powers()
    budget = max(flips_for_power(g, p) for p in powers)
    if cfg.baseline == "rand":
        trace, name = baseline_rand(g, split, budget, seed), "rand"
    elif cfg.baseline == "greedy-triads":
        trace, name = baseline_greedy_triads(g, split, budget), "greedy-triads"
    else:
        attack = AttackConfig(budget=budget, lam=cfg.lam, eta=cfg.eta, t=cfg.t)
        trace, name = flip_attack(g, split, cfg.target, attack, y_hat), cfg.target
        if cfg.lam or cfg.eta:
            name += f"(lam={cfg.lam:g},eta={cfg.eta:g})"
    trace.snapshots = {p: trace.poisoned(g, p) for p in powers}
    return Trial(g, split, auc(probs, (split.hidden_signs > 0).astype(int)), y_hat, trace, name)


def run_attack_trial(dataset: SignedGraph, cfg: ExperimentConfig, seed: int):
    """One seeded trial's per-power victim AUC rows, its trace and its graph.

    Each row also carries ``self_label_acc``, the share of test links whose
    self-label equals the hidden sign.
    """
    trial = run_trial(dataset, cfg, seed)
    g, split, model = trial.g, trial.split, victim_model_kind(cfg.target)
    self_label_acc = float(np.mean(trial.y_hat == (split.hidden_signs > 0)))
    rows = []
    for p in cfg.resolved_powers():
        poisoned_auc = victim_test_auc(trial.trace.snapshots[p], split, model, cfg.t)
        rows.append({"seed": seed, "power": p, "attack": trial.attack, "model": model,
                     "auc_clean": trial.clean_auc, "auc_poisoned": poisoned_auc,
                     "self_label_acc": self_label_acc})
    return rows, trial.trace, g


def run_attack_experiment(cfg: ExperimentConfig, dataset: SignedGraph | None = None):
    """Each seed's trial: (rows sorted by seed and power, {seed: trace})."""
    dataset = dataset if dataset is not None else load_dataset(cfg)
    all_rows, traces = [], {}
    for seed in cfg.seeds:
        rows, traces[seed], _ = run_attack_trial(dataset, cfg, seed)
        all_rows.extend(rows)
    all_rows.sort(key=lambda r: (r["seed"], r["power"]))
    return all_rows, traces


def build_poisoned_set(dataset: SignedGraph, cfg: ExperimentConfig):
    """Poisoned snapshots for the detection protocol: seeds x powers graphs, each
    seed's from its one ``run_trial``, the same graphs its attack trial scores."""
    return [snapshot for seed in cfg.seeds
            for snapshot in run_trial(dataset, cfg, seed).trace.snapshots.values()]


def run_detect_experiment(cfg: ExperimentConfig, dataset: SignedGraph | None = None,
                          corpus: list[SignedGraph] | None = None, poisoned=None):
    """Detector AUCs on clean corpus graphs against poisoned snapshots.

    Returns ``detector_eval``'s (summary, rows) and the fitted views. A
    Markov time the metric view cannot read its walk at fails here, before
    the dataset is read or the corpus sampled.
    """
    check_markov_time(cfg.t)
    dataset = dataset if dataset is not None else load_dataset(cfg)
    if corpus is None:
        corpus = sample_subgraph_corpus(dataset, cfg.corpus_sizes,
                                        cfg.corpus_per_size, cfg.corpus_seed)
    if poisoned is None:
        poisoned = build_poisoned_set(dataset, cfg)
    views = [DetectorView("metric", t=cfg.t, nu=cfg.nu, gamma=cfg.gamma),
             DetectorView("tsvd", d=cfg.embed_dim, nu=cfg.nu, gamma=cfg.gamma)]
    summary, rows = detector_eval(corpus, poisoned, views, cfg.strategy)
    return summary, rows, views

