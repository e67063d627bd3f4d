"""Greedy sign-flip poisoning attacks against the two trust predictors.

Every attack and baseline runs the same loop, flipping one training link
per step; they differ only in how the step chooses it. The gradient attacks
evaluate the attack objective on the current poisoned graph, back-propagate
to the sign vector s (one entry per link, hidden signs 0), score each
not-yet-flipped training link k by the first-order objective increase of
its flip, -2 s_k dJ/ds_k, and flip the best one. A loss that needs the dense
adjacency builds it from s with ``tape.sym_scatter``.
The triad baseline scores links by their balanced-triad count, read off the
FeXtra wedge sums, and the random baseline replays a seeded draw. The
objective being *maximized* is the prediction error on the self-labelled
test links, optionally penalized to keep the balance metrics (and thereby
the attack's visibility to detectors) close to the clean graph:

    J = -(sum_e y_e log p_e + (1 - y_e) log(1 - p_e)) + lambda T + eta Pol

The recorded per-step ``loss_curve`` holds the raw log-likelihood sum (the
first term without the leading minus), so more negative means more damage.

The FeXtra losses put the victim's feature map in front of either the
closed-form ridge surrogate (``fextra-ols``) or the victim's own converged
logistic fit (``fextra-meta``), which the tape differentiates implicitly at
its optimum. The POLE surrogate scores a test link by the cosine of an exact
factor of the autocovariance R, which is R normalized by its own diagonal, so
no embedding is fitted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tape as tp
from .balance import balance_ratio_terms, polarization_term, triad_terms
from .errors import ConfigError, MetricUndefinedError
from .fextra import (WedgeIndex, extract_features, link_features, lr_predict, lr_train,
                     ols_fit, wedge_index)
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
    t: float = 1.0
    checkpoints: tuple = ()  # attack powers (fractions of |E|) to snapshot


@dataclass
class AttackTrace:
    flips: list = field(default_factory=list)  # (u, v, step, predicted_gain)
    loss_curve: list = field(default_factory=list)
    snapshots: dict = field(default_factory=dict)  # power -> poisoned SignedGraph
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


def victim_probs(model: str, g: SignedGraph, split: EdgeSplit, params: WalkParams):
    """Victim positive-sign probabilities for the test links of ``split``.

    The victim is fit on ``g`` with the test signs hidden, from the training
    signs only.
    """
    masked = g.mask(split.test)
    if model == "fextra":
        feats = extract_features(masked, masked.edge_array())
        y_tr = (masked.signs()[split.train] > 0).astype(float)
        return lr_predict(lr_train(feats[split.train], y_tr), feats[split.test])
    if model == "pole":
        return pole_predict(masked, split, params)
    raise ConfigError(f"unknown victim model {model!r}")


def self_train_labels(model, g_clean: SignedGraph, split: EdgeSplit,
                      params: WalkParams | None = None):
    """Victim predictions on the test links, thresholded at 0.5 (ties -> 1).

    The labels are produced from the clean masked graph once and stay fixed
    for the whole attack.
    """
    probs = victim_probs(model, g_clean, split, params or WalkParams())
    return (probs >= 0.5).astype(float)


def _log_likelihood(p, y_hat):
    """sum_e y log p + (1-y) log(1-p) with clipped log arguments."""
    p_lo = tp.clamp(p, LOG_CLIP, 1.0)
    p_hi = tp.clamp((1.0 - p), LOG_CLIP, 1.0)
    return tp.sum_(y_hat * tp.log(p_lo) + (1.0 - y_hat) * tp.log(p_hi))


class _FextraLoss:
    """Attack loss for the feature-based predictor, through ``fit`` on the tape."""

    def __init__(self, masked: SignedGraph, split: EdgeSplit, y_hat, fit):
        self.index = wedge_index(masked, masked.edge_array())
        self.split = split
        self.y_hat = np.asarray(y_hat, dtype=float)
        self.fit = fit

    def __call__(self, s, A=None):
        # the feature map reads the sign vector; A is not needed
        X = link_features(s, self.index)
        X_tr = tp.gather_rows(X, self.split.train)
        X_te = tp.gather_rows(X, self.split.test)
        y_tr = (tp._data(s)[self.split.train] > 0).astype(float)
        p = lr_predict(self.fit(X_tr, y_tr), X_te)
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
        self.n = masked.n
        self.edge = masked.edge_array()
        self.us_te = self.edge[split.test, 0]
        self.vs_te = self.edge[split.test, 1]

    def __call__(self, s, A=None):
        if A is None:
            A = tp.sym_scatter(s, *self.edge.T, self.n)
        M = transition_matrix(A, self.degrees, self.cfg.t, self.mode)
        R = tp.transpose(M) @ self.W @ M
        _, P = cosine_normalize(R)
        p_e = tp.gather(P, self.us_te, self.vs_te)
        return _log_likelihood(p_e, self.y_hat)


def make_attack_loss(target: str, masked: SignedGraph, split: EdgeSplit,
                     y_hat, cfg: AttackConfig):
    """The loss ``(s, A=None) -> log-likelihood`` of ``target``; A is the dense adjacency of s,
    which a POLE loss scatters itself when it is not passed."""
    if target == "fextra-ols":
        return _FextraLoss(masked, split, y_hat, ols_fit)
    if target == "fextra-meta":
        return _FextraLoss(masked, split, y_hat, lr_train)
    if target == "pole-sym":
        return _PoleLoss(masked, split, y_hat, cfg, mode="sym")
    if target == "pole-unsym":
        return _PoleLoss(masked, split, y_hat, cfg, mode="unsym")
    raise ConfigError(f"unknown attack target {target!r}; expected one of {TARGETS}")


@dataclass(frozen=True)
class Penalty:
    """Weights of lambda T + eta Pol, the links, and the constants of |A| they need.

    Flips never change |A|, so the wedge index and tr(|A|^3) of the lambda
    term and the unsigned walk of the eta term are computed once per attack,
    each only when its weight is nonzero.
    """

    lam: float
    eta: float
    t: float
    n: int
    edge: np.ndarray  # the masked graph's links, one row (u, v) per entry of s
    degrees: np.ndarray
    index: WedgeIndex | None
    tr_abs: float
    M_abs: np.ndarray | None

    @classmethod
    def for_graph(cls, masked: SignedGraph, t, lam, eta):
        degrees = masked.degrees()
        index, tr_abs = triad_terms(masked) if lam != 0.0 else (None, 0.0)
        M_abs = (transition_matrix(masked.abs_adjacency(), degrees, t, "unsym")
                 if eta != 0.0 else None)
        return cls(lam, eta, t, masked.n, masked.edge_array(), degrees, index, tr_abs, M_abs)


def penalized_loss(base, s, penalty: Penalty, events=None, A=None):
    """base + lambda T(s) + eta Pol(A, t), each term on the tape.

    T reads the wedge sums of the sign vector ``s``. A is the dense
    adjacency of ``s`` over ``penalty.edge``; the caller may pass the one it
    built, and it is scattered here only when eta is nonzero and none was
    passed. An undefined balance term contributes zero and logs an event.
    The polarization term is ``balance.polarization_term`` on the
    row-normalized (``unsym``) walk, the one ``balance.graph_polarization``
    reports.
    """
    out = base
    if penalty.lam != 0.0:
        try:
            out = out + penalty.lam * balance_ratio_terms(s, penalty.index, penalty.tr_abs)
        except MetricUndefinedError:
            if events is not None:
                events.append("balance term undefined (no triads); contributed 0")
    if penalty.eta != 0.0:
        if A is None:
            A = tp.sym_scatter(s, *penalty.edge.T, penalty.n)
        M_sign = transition_matrix(A, penalty.degrees, penalty.t, "unsym")
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

    ``choose(signs, pooled, trace)`` gets the masked signs (hidden signs 0),
    the mask of flipped training links and the trace so far, and returns the
    position in ``split.train`` of the next flip and its predicted gain.
    Snapshots carry the original test signs: the graph the analyst observes.
    """
    signs, full_signs = g0.mask(split.test).signs(), g0.signs()
    edge = g0.edge_array()
    trace = AttackTrace()
    pooled = np.zeros(len(split.train), dtype=bool)

    def snapshot():
        for p in checkpoints:
            if flips_for_power(g0, p) == len(trace.flips):
                trace.snapshots[p] = g0.with_signs(full_signs)

    snapshot()
    for step in range(budget):
        j, gain = choose(signs, pooled, trace)
        k = int(split.train[j])
        u, v = edge[k]
        signs[k], full_signs[k] = -signs[k], -full_signs[k]
        pooled[j] = True
        trace.flips.append((int(u), int(v), step, gain))
        snapshot()
    return trace


def gradient_chooser(g0: SignedGraph, split: EdgeSplit, target: str, cfg: AttackConfig,
                     y_hat=None):
    """The greedy step of ``flip_attack``: a ``_greedy_flips`` chooser that
    flips the link with the largest first-order increase of the objective."""
    masked = g0.mask(split.test)
    if y_hat is None:
        y_hat = self_train_labels(victim_model_kind(target), g0, split, WalkParams(t=cfg.t))
    loss_fn = make_attack_loss(target, masked, split, y_hat, cfg)
    penalty = Penalty.for_graph(masked, cfg.t, cfg.lam, cfg.eta)
    edge = masked.edge_array()
    us, vs = edge[split.train].T
    dense = victim_model_kind(target) == "pole" or cfg.eta != 0.0

    def choose(signs, pooled, trace):
        tape = tp.Tape()
        s = tape.leaf(signs, requires_grad=True)
        # one dense adjacency per step, shared by the POLE loss and the eta term
        A = tp.sym_scatter(s, *edge.T, masked.n) if dense else None
        base = loss_fn(s, A)
        tape.backward(penalized_loss(-base, s, penalty, trace.events, A))
        G = s.grad_or_zero()
        tape.release()
        scores = (-2.0 * signs[split.train]) * G[split.train]
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
                         lambda signs, pooled, trace: (int(order[len(trace.flips)]), 0.0))


def baseline_greedy_triads(g0: SignedGraph, split: EdgeSplit, budget: int,
                           checkpoints=()) -> AttackTrace:
    """Flip the training link whose flip most reduces the balanced-triad count.

    For a link (u, v) with sign s, the balanced-minus-unbalanced count of
    triads through it is s (tri_pp - tri_pm - tri_mp + tri_mm), exact wedge
    sums of the FeXtra feature map over an index built once per attack.
    Flipping negates it, so the greedy score is exactly that quantity.
    """
    _check_budget(budget, split)
    index = wedge_index(g0.mask(split.test), g0.edge_array()[split.train])

    def choose(signs, pooled, trace):
        tri = link_features(signs, index)[:, 5:]
        scores = signs[split.train] * (tri[:, 0] - tri[:, 1] - tri[:, 2] + tri[:, 3])
        j = _pick_flip(scores, index.us, index.vs, pooled)
        return j, float(scores[j])

    return _greedy_flips(g0, split, budget, checkpoints, choose)
