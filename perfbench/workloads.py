"""The benchmark's workloads and the checks on their outputs.

Each workload is a sequence of operations drawn from the run's seed. An
operation goes through the public entry points the command-line interface
uses, so it does the same work as ``signedattack attack`` or ``signedattack
detect`` on the same graph:

- ``fextra-ols`` and ``pole-unsym``: one attack trial, ``run_attack_trial``
  (subsample, split, self-labels, every flip, a victim retrain per power).
- ``detect``: one detect run: the poisoned set from ``fextra-ols`` trials on
  two seeds (``build_poisoned_set``, one call per seed so each trial is
  timed), then ``run_detect_experiment`` (corpus sampling, both views fitted,
  the ``max`` ensemble).

An operation fails when it raises a ``SignedAttackError`` or when one of its
outputs fails a check; the failure is recorded, never skipped.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from signedattack.attacks import flips_for_power
from signedattack.errors import SignedAttackError
from signedattack.experiments import (ExperimentConfig, build_poisoned_set, run_attack_trial,
                                      run_detect_experiment, subsample_graph)
from signedattack.graph import split_edges

DETECT_POWERS = (0.01, 0.05, 0.10)
POLE_POWERS = (0.01, 0.03, 0.05)
POISON_TRIALS = 2


@dataclass
class Op:
    """One operation's timing, failure and outcome fields."""

    index: int
    wall: float = 0.0                    # seconds until it returned or raised
    scaled: float = 0.0                  # the same in scaled seconds (see speed.py)
    error: str | None = None             # "<exception class>: <message>"
    problems: list = field(default_factory=list)  # failed output checks
    digests: list = field(default_factory=list)  # per trial: hash of its flips or snapshots
    outcome: dict = field(default_factory=dict)

    @property
    def failed(self):
        return self.error is not None or bool(self.problems)

    @property
    def seconds(self):
        """Scaled seconds; a failed operation counts as infinitely slow."""
        return math.inf if self.failed else self.scaled

    def to_json_dict(self):
        return {"index": self.index, "wall_seconds": self.wall, "scaled_seconds": self.scaled,
                "error": self.error, "problems": self.problems, "digests": self.digests,
                **self.outcome}


def op_seeds(seed: int, index: int, count: int):
    """Independent non-negative seeds for operation ``index`` of a run."""
    return [int(s) for s in np.random.SeedSequence([seed, index]).generate_state(count)]


def error_key(exc: SignedAttackError) -> str:
    """Exception class and message without the trailing "(value ...)" detail."""
    message = str(exc).split(" (", 1)[0]
    return f"{type(exc).__name__}: {message}"


def flips_digest(trace) -> str:
    return _digest([[u, v] for u, v, *_ in trace.flips])


def snapshots_digest(snapshots) -> str:
    return _digest([snap.signs().tolist() for snap in snapshots])


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:16]


def check_snapshot(g, split, snapshot, power, first_flips=None):
    """A poisoned snapshot changes exactly ``flips_for_power`` training signs.

    With ``first_flips`` (edge indices in flip order) the changed links must
    also be the first ones the attack flipped.
    """
    k = flips_for_power(g, power)
    if not np.array_equal(snapshot.edge_array(), g.edge_array()):
        return [f"power {power:g}: snapshot has other links than the clean graph"]
    changed = np.flatnonzero(snapshot.signs() != g.signs())
    problems = []
    if len(changed) != k:
        problems.append(f"power {power:g}: changed signs differ in number from flips_for_power")
    if np.isin(changed, split.test).any():
        problems.append(f"power {power:g}: a test link changed sign")
    if first_flips is not None and set(changed.tolist()) != set(first_flips[:k]):
        problems.append(f"power {power:g}: changed links are not the first flips")
    return problems


def check_flips(g, split, flips, budget):
    """Flips are distinct training links and number exactly the budget."""
    problems = []
    if len(flips) != budget:
        problems.append("flip count differs from the budget")
    if not all(g.has_edge(u, v) for u, v, *_ in flips):
        return problems + ["a flip is not a link of the graph"]
    idx = [g.edge_index(u, v) for u, v, *_ in flips]
    if len(set(idx)) != len(idx):
        problems.append("a link was flipped twice")
    if not set(idx) <= set(split.train.tolist()):
        problems.append("a flipped link is not a training link")
    return problems


def check_aucs(values):
    if all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values):
        return []
    return ["an AUC is not finite or not in [0, 1]"]


class AttackTrials:
    """Attack trials back to back, each on a fresh 300-node subsample."""

    def __init__(self, target, subsample, powers=()):
        self.cfg = ExperimentConfig(target=target, subsample=subsample, powers=powers)

    def warm_up(self, dataset, seed):
        """Run operation 0's trial untimed; returns its flip hash, None if it raised."""
        try:
            _, trace, _ = run_attack_trial(dataset, self.cfg, op_seeds(seed, 0, 1)[0])
        except SignedAttackError:
            return None
        return flips_digest(trace)

    def run_op(self, dataset, seed, index, residuals, clock):
        cfg = self.cfg
        (trial_seed,) = op_seeds(seed, index, 1)
        residuals.clear()
        op = Op(index=index, outcome={"trial_seed": trial_seed})
        start = clock.mark()
        try:
            rows, trace, g = run_attack_trial(dataset, cfg, trial_seed)
        except SignedAttackError as exc:
            op.error = error_key(exc)
        op.wall, op.scaled = clock.since(start)
        op.outcome["factor_residual"] = residuals[-1] if residuals else None
        if op.error:
            return op

        powers = cfg.resolved_powers()
        split = split_edges(g, cfg.split_fraction, trial_seed)
        flip_idx = [g.edge_index(u, v) for u, v, *_ in trace.flips if g.has_edge(u, v)]
        op.problems += check_flips(g, split, trace.flips,
                                   max(flips_for_power(g, p) for p in powers))
        for p in powers:
            op.problems += check_snapshot(g, split, trace.snapshots[p], p, flip_idx)
        op.problems += check_aucs([rows[0]["auc_clean"]] + [r["auc_poisoned"] for r in rows])
        op.digests = [flips_digest(trace)]
        op.outcome.update({
            "n": g.n, "m": g.num_edges, "flips": len(trace.flips),
            "auc_clean": rows[0]["auc_clean"],
            "auc_poisoned": {f"{r['power']:g}": r["auc_poisoned"] for r in rows},
        })
        return op


class DetectRun:
    """Whole detect runs: poisoned set, corpus, both views, ``max`` ensemble."""

    def __init__(self, subsample, corpus_sizes, corpus_per_size):
        self.cfg = ExperimentConfig(target="fextra-ols", subsample=subsample,
                                    powers=DETECT_POWERS, corpus_sizes=corpus_sizes,
                                    corpus_per_size=corpus_per_size, strategy="max")

    def warm_up(self, dataset, seed):
        """Run operation 0's first poisoning trial untimed; returns its snapshot hash."""
        _, trial_seed, *_ = op_seeds(seed, 0, 1 + POISON_TRIALS)
        try:
            return snapshots_digest(build_poisoned_set(dataset, replace(self.cfg, seeds=(trial_seed,))))
        except SignedAttackError:
            return None

    def run_op(self, dataset, seed, index, residuals, clock):
        corpus_seed, *trial_seeds = op_seeds(seed, index, 1 + POISON_TRIALS)
        cfg = replace(self.cfg, corpus_seed=corpus_seed, seeds=tuple(trial_seeds))
        trial_wall, trial_scaled = [], []
        op = Op(index=index, outcome={"corpus_seed": corpus_seed, "trial_seeds": trial_seeds,
                                      "trial_wall_seconds": trial_wall,
                                      "trial_scaled_seconds": trial_scaled})
        batches = []  # each trial's snapshots, one per power
        start = clock.mark()
        try:
            for s in cfg.seeds:
                trial_start = clock.mark()
                batches.append(build_poisoned_set(dataset, replace(cfg, seeds=(s,))))
                wall, scaled = clock.since(trial_start)
                trial_wall.append(wall)
                trial_scaled.append(scaled)
            poisoned = [snapshot for batch in batches for snapshot in batch]
            summary, _, views = run_detect_experiment(cfg, dataset, poisoned=poisoned)
        except SignedAttackError as exc:
            op.error = error_key(exc)
        op.wall, op.scaled = clock.since(start)
        if op.error:
            return op

        for s, batch in zip(cfg.seeds, batches):
            g = subsample_graph(dataset, cfg.subsample, s)
            split = split_edges(g, cfg.split_fraction, s)
            for p, snapshot in zip(cfg.resolved_powers(), batch, strict=True):
                op.problems += check_snapshot(g, split, snapshot, p)
        op.problems += check_aucs(summary.values())
        op.digests = [snapshots_digest(batch) for batch in batches]
        op.outcome.update({"detector_auc": summary,
                           "rejected": sum(v.rejected for v in views)})
        return op


def make_workload(name, scale):
    if name == "fextra-ols":
        return AttackTrials("fextra-ols", scale.subsample)
    if name == "pole-unsym":
        return AttackTrials("pole-unsym", scale.subsample, POLE_POWERS)
    if name == "detect":
        return DetectRun(scale.subsample, scale.corpus_sizes, scale.corpus_per_size)
    raise ValueError(f"unknown workload {name!r}")
