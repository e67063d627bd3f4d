"""Greedy sign-flip poisoning attacks against the two trust predictors.

Every attack and baseline runs the same loop, flipping one training link
per step; they differ only in how the step chooses it. The gradient attacks
evaluate the attack objective on the current poisoned graph, back-propagate
to the adjacency, score each not-yet-flipped training link by the
first-order objective increase a flip would cause, and flip the best one.
The triad baseline scores links by their balanced-triad count and the random
baseline replays a seeded draw. The objective being *maximized* is the
prediction error on the self-labelled test links, optionally penalized to
keep the balance metrics (and thereby the attack's visibility to detectors)
close to the clean graph:

    J = -(sum_e y_e log p_e + (1 - y_e) log(1 - p_e)) + lambda T + eta Pol

The recorded per-step ``loss_curve`` holds the raw log-likelihood sum (the
first term without the leading minus), so more negative means more damage.

The FeXtra surrogates differentiate a closed-form ridge fit or an unrolled
logistic fit. The POLE surrogate scores a test link by the cosine of an exact
factor of the autocovariance R, which is R normalized by its own diagonal, so
no embedding is fitted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tape as tp
from .balance import abs_triad_trace, balance_ratio_terms, polarization_term
from .errors import ConfigError, MetricUndefinedError
from .fextra import (extract_features, link_features, lr_predict, lr_train, lr_train_theta,
                     ols_theta, with_intercept)
from .graph import EdgeSplit, SignedGraph
from .pole import (WalkParams, cosine_normalize, degree_weight_matrix, pole_predict,
                   transition_matrix)

LOG_CLIP = 1e-12

TARGETS = ("fextra-ols", "fextra-meta", "pole-sym", "pole-unsym")


@dataclass
class AttackConfig:
    budget: int
    lam: float = 0.0
    eta: float = 0.0
    inner_iters: int = 100
    inner_lr: float = 0.01
    t: float = 1.0
    seed: int = 0
    checkpoints: tuple = ()  # attack powers (fractions of |E|) to snapshot


@dataclass
class AttackTrace:
    flips: list = field(default_factory=list)  # (u, v, step, predicted_gain)
    loss_curve: list = field(default_factory=list)
    snapshots: dict = field(default_factory=dict)  # power -> poisoned SignedGraph
    pool: set = field(default_factory=set)
    events: list = field(default_factory=list)

    def to_json_dict(self):
        return {
            "flips": [[int(u), int(v), int(s), float(g)] for u, v, s, g in self.flips],
            "loss_curve": [float(x) for x in self.loss_curve],
            "events": list(self.events),
            "snapshot_powers": sorted(self.snapshots),
        }


def flips_for_power(g: SignedGraph, power: float) -> int:
    """Flip count for an attack power given as a fraction of all links."""
    return int(round(power * g.num_edges))


def victim_model_kind(target: str) -> str:
    return "fextra" if target.startswith("fextra") else "pole"


def victim_probs(model: str, g: SignedGraph, split: EdgeSplit, params: WalkParams,
                 seed: int):
    """Victim positive-sign probabilities for the test links of ``split``.

    The victim is fit on ``g`` with the test signs hidden, from the training
    signs only.
    """
    masked = g.mask(split.test)
    if model == "fextra":
        pairs = [(u, v) for u, v, _ in masked.edges]
        feats = extract_features(masked, pairs).data
        y_tr = (masked.signs()[split.train] > 0).astype(float)
        fitted = lr_train(feats[split.train], y_tr, seed=seed)
        return lr_predict(fitted, feats[split.test])
    if model == "pole":
        return pole_predict(masked, split, params, seed=seed)
    raise ConfigError(f"unknown victim model {model!r}")


def self_train_labels(model, g_clean: SignedGraph, split: EdgeSplit,
                      params: WalkParams | None = None, seed: int = 0):
    """Victim predictions on the test links, thresholded at 0.5 (ties -> 1).

    The labels are produced from the clean masked graph once and stay fixed
    for the whole attack.
    """
    probs = victim_probs(model, g_clean, split, params or WalkParams(), seed)
    return (probs >= 0.5).astype(float)


def _log_likelihood(p, y_hat):
    """sum_e y log p + (1-y) log(1-p) with clipped log arguments."""
    p_lo = tp.clamp(p, LOG_CLIP, 1.0)
    p_hi = tp.clamp((1.0 - p), LOG_CLIP, 1.0)
    return tp.sum_(y_hat * tp.log(p_lo) + (1.0 - y_hat) * tp.log(p_hi))


class _FextraLoss:
    """Attack loss for the feature-based predictor (closed-form or unrolled)."""

    def __init__(self, masked: SignedGraph, split: EdgeSplit, y_hat, cfg: AttackConfig,
                 fit: str):
        edge = masked.edge_array()
        self.us, self.vs = edge[:, 0], edge[:, 1]
        support = masked.support()
        self.common = tp.bilinear_gather(support, support, self.us, self.vs)
        self.split = split
        self.y_hat = np.asarray(y_hat, dtype=float)
        self.cfg = cfg
        self.fit = fit
        rng = np.random.default_rng(cfg.seed)
        self.theta0 = rng.uniform(size=10)

    def __call__(self, A, signs):
        A_plus = tp.relu(A)
        A_minus = A_plus - A
        X = link_features(A_plus, A_minus, self.common, self.us, self.vs)
        X_tr = tp.gather_rows(X, self.split.train)
        X_te = tp.gather_rows(X, self.split.test)
        y_tr = (signs[self.split.train] > 0).astype(float)
        if self.fit == "ols":
            theta = ols_theta(X_tr, y_tr)
            p = tp.sigmoid(with_intercept(tp.log(X_te + 1.0)) @ theta)
        else:
            theta = lr_train_theta(with_intercept(X_tr), y_tr,
                                   self.cfg.inner_lr, self.cfg.inner_iters, self.theta0)
            p = tp.sigmoid(with_intercept(X_te) @ theta)
        return _log_likelihood(p, self.y_hat)


class _PoleLoss:
    """Attack loss through transition -> R -> cosine -> test-link gather."""

    def __init__(self, masked: SignedGraph, split: EdgeSplit, y_hat, cfg: AttackConfig,
                 mode: str):
        self.split = split
        self.y_hat = np.asarray(y_hat, dtype=float)
        self.cfg = cfg
        self.mode = mode
        self.degrees = masked.degrees()
        self.W = degree_weight_matrix(self.degrees)
        edge = masked.edge_array()
        self.us_te = edge[split.test, 0]
        self.vs_te = edge[split.test, 1]

    def __call__(self, A, signs):
        M = transition_matrix(A, self.degrees, self.cfg.t, self.mode)
        R = tp.transpose(M) @ self.W @ M
        _, P = cosine_normalize(R)
        p_e = tp.gather(P, self.us_te, self.vs_te)
        return _log_likelihood(p_e, self.y_hat)


def make_attack_loss(target: str, masked: SignedGraph, split: EdgeSplit,
                     y_hat, cfg: AttackConfig):
    if target == "fextra-ols":
        return _FextraLoss(masked, split, y_hat, cfg, fit="ols")
    if target == "fextra-meta":
        return _FextraLoss(masked, split, y_hat, cfg, fit="meta")
    if target == "pole-sym":
        return _PoleLoss(masked, split, y_hat, cfg, mode="sym")
    if target == "pole-unsym":
        return _PoleLoss(masked, split, y_hat, cfg, mode="unsym")
    raise ConfigError(f"unknown attack target {target!r}; expected one of {TARGETS}")


@dataclass(frozen=True)
class Penalty:
    """Weights of lambda T + eta Pol and the constants of |A| they need.

    Flips never change |A|, so tr(|A|^3) and the unsigned walk are computed
    once per attack, each only when its weight is nonzero.
    """

    lam: float
    eta: float
    t: float
    degrees: np.ndarray
    tr_abs: float
    M_abs: np.ndarray | None

    @classmethod
    def for_graph(cls, abs_mask, degrees, t, lam, eta):
        tr_abs = abs_triad_trace(abs_mask) if lam != 0.0 else 0.0
        M_abs = transition_matrix(abs_mask, degrees, t, "sym") if eta != 0.0 else None
        return cls(lam, eta, t, degrees, tr_abs, M_abs)


def penalized_loss(base, A, penalty: Penalty, events=None):
    """base + lambda T(A) + eta Pol(A, t), each term on the tape.

    An undefined balance term contributes zero and logs an event. The
    polarization term runs on symmetric-mode transitions.
    """
    out = base
    if penalty.lam != 0.0:
        try:
            out = out + penalty.lam * balance_ratio_terms(A, penalty.tr_abs)
        except MetricUndefinedError:
            if events is not None:
                events.append("balance term undefined (no triads); contributed 0")
    if penalty.eta != 0.0:
        M_sign = transition_matrix(A, penalty.degrees, penalty.t, "sym")
        out = out + penalty.eta * polarization_term(M_sign, penalty.M_abs)
    return out


def _check_budget(budget: int, split: EdgeSplit):
    if budget > len(split.train):
        raise ConfigError(f"budget {budget} exceeds {len(split.train)} training links")


def _pick_flip(scores, us, vs, pooled):
    """Index of the max score, ties toward the smallest (u, v) pair."""
    s = np.where(pooled, -np.inf, scores)
    order = np.lexsort((vs, us, -s))
    return int(order[0])


def _greedy_flips(g0: SignedGraph, split: EdgeSplit, budget: int, checkpoints,
                  choose) -> AttackTrace:
    """Flip ``budget`` (checked by the caller) training links one at a time.

    ``choose(A, signs, pooled, trace)`` gets the masked adjacency and signs,
    the mask of flipped training links and the trace so far, and returns the
    position in ``split.train`` of the next flip and its predicted gain.
    Snapshots carry the original test signs: the graph the analyst observes.
    """
    masked = g0.mask(split.test)
    A, signs, full_signs = masked.adjacency(), masked.signs(), g0.signs()
    edge = masked.edge_array()
    trace = AttackTrace()
    pooled = np.zeros(len(split.train), dtype=bool)

    def snapshot():
        for p in checkpoints:
            if flips_for_power(g0, p) == len(trace.flips):
                trace.snapshots[p] = g0.with_signs(full_signs)

    snapshot()
    for step in range(budget):
        j, gain = choose(A, signs, pooled, trace)
        k = int(split.train[j])
        u, v = edge[k]
        A[u, v] = A[v, u] = -A[u, v]
        signs[k], full_signs[k] = -signs[k], -full_signs[k]
        pooled[j] = True
        trace.pool.add(k)
        trace.flips.append((int(u), int(v), step, gain))
        snapshot()
    return trace


def gradient_chooser(g0: SignedGraph, split: EdgeSplit, target: str, cfg: AttackConfig,
                     y_hat=None):
    """The greedy step of ``flip_attack``: a ``_greedy_flips`` chooser that
    flips the link with the largest first-order increase of the objective."""
    masked = g0.mask(split.test)
    if y_hat is None:
        y_hat = self_train_labels(victim_model_kind(target), g0, split,
                                  WalkParams(t=cfg.t), seed=cfg.seed)
    loss_fn = make_attack_loss(target, masked, split, y_hat, cfg)
    penalty = Penalty.for_graph(masked.abs_adjacency(), masked.degrees(), cfg.t,
                                cfg.lam, cfg.eta)
    us, vs = masked.edge_array()[split.train].T

    def choose(A_cur, signs, pooled, trace):
        tape = tp.Tape()
        A = tape.leaf(A_cur, requires_grad=True)
        base = loss_fn(A, signs)
        tape.backward(penalized_loss(-base, A, penalty, trace.events))
        G = A.grad_or_zero()
        tape.release()
        scores = (-2.0 * signs[split.train]) * (G[us, vs] + G[vs, us])
        j = _pick_flip(scores, us, vs, pooled)
        gain = float(scores[j])
        if gain <= 0:
            trace.events.append(f"step {len(trace.flips)}: no positive first-order gain; "
                                f"least-bad flip taken")
        trace.loss_curve.append(float(tp._data(base)))
        return j, gain

    return choose


def flip_attack(g0: SignedGraph, split: EdgeSplit, target: str,
                cfg: AttackConfig, y_hat=None) -> AttackTrace:
    """Greedy budgeted sign-flip attack on the chosen target model.

    ``g0`` is the clean graph; test links are masked internally and never
    flipped.
    """
    _check_budget(cfg.budget, split)
    choose = gradient_chooser(g0, split, target, cfg, y_hat)
    return _greedy_flips(g0, split, cfg.budget, cfg.checkpoints, choose)


def baseline_rand(g0: SignedGraph, split: EdgeSplit, budget: int, seed: int,
                  checkpoints=()) -> AttackTrace:
    """Flip a uniform random set of training links, in draw order."""
    _check_budget(budget, split)
    # the same draw as rng.choice(split.train, ...), as positions in split.train
    order = np.random.default_rng(seed).choice(len(split.train), size=budget, replace=False)
    return _greedy_flips(g0, split, budget, checkpoints,
                         lambda A, signs, pooled, trace: (int(order[len(trace.flips)]), 0.0))


def baseline_greedy_triads(g0: SignedGraph, split: EdgeSplit, budget: int,
                           checkpoints=()) -> AttackTrace:
    """Flip the training link whose flip most reduces the balanced-triad count.

    For a link (u, v) with sign s, the balanced-minus-unbalanced count of
    triads through it is s * (A^2)[u, v]; flipping negates it, so the greedy
    score is exactly that quantity.
    """
    _check_budget(budget, split)
    us, vs = g0.edge_array()[split.train].T

    def choose(A, signs, pooled, trace):
        scores = signs[split.train] * (A @ A)[us, vs]
        j = _pick_flip(scores, us, vs, pooled)
        return j, float(scores[j])

    return _greedy_flips(g0, split, budget, checkpoints, choose)
