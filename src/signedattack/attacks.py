"""Greedy sign-flip poisoning attacks against the two trust predictors.

Every attack and baseline runs the same loop, flipping one training link
per step; they differ only in how the step chooses it. An attack returns
its flip sequence alone: the poisoned graph at an attack power is the clean
graph with a prefix of it applied (``AttackTrace.poisoned``). The gradient
attacks evaluate the attack objective on the current poisoned graph,
back-propagate to the sign vector s (one entry per link, hidden signs 0),
score each not-yet-flipped training link k by the first-order objective
increase of its flip, -2 s_k dJ/ds_k, and flip the best one. The triad
baseline scores links by their balanced-triad count, read off the wedge
sums of the trial's FeXtra block of all links (over its cached index), and
the random baseline replays a seeded draw. The objective being *maximized*
is the prediction error on the self-labelled test links, optionally
penalized to keep the balance metrics (and thereby the attack's visibility
to detectors) close to the clean graph:

    J = -(sum_e y_e log p_e + (1 - y_e) log(1 - p_e)) + lambda T + eta Pol

``make_attack_loss`` is that one objective. It builds every per-attack
constant once and, called on s, returns the log-likelihood ``base`` and J;
``penalized_loss`` adds the two penalty terms. A step computes each graph
quantity of s at most once, and every term reads it: the FeXtra feature
block X for a FeXtra target or lambda, and the walk M over the adjacency
scattered from s (``tape.sym_scatter``) for a POLE target or eta. The
recorded per-step ``loss_curve`` holds ``base``, so more negative means more damage.

The FeXtra losses put the victim's feature map in front of either the
closed-form ridge surrogate (``fextra-ols``) or the victim's own converged
logistic fit (``fextra-meta``), which the tape differentiates implicitly at
its optimum; the FeXtra victim runs the ``fextra-meta`` prediction off the
tape. The whole ``fextra-ols`` head, from the feature block to ``base``, is
one tape node (``_ols_log_likelihood``), so an unpenalized step records
three nodes: the features, the head and the negation. The POLE surrogate
scores a test link (u, v) by the cosine of an exact factor of the
autocovariance R of M (the victim's own walk): R_uv normalized by R_uu and
R_vv, which one ``pole.autocovariance`` call reads off one transpose of M,
so no embedding is fitted and no n x n array is built after the walk.
The Markov time ``t`` is a plain float here; only the POLE losses, the POLE
victim and the polarization penalty read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tape as tp
from .balance import balance_ratio_terms, polarization_term, triad_traces
from .errors import ConfigError, MetricUndefinedError, NumericError
from .fextra import (BALANCED_WEDGES, link_features, link_index, ols_design, ols_theta,
                     split_probs)
from .graph import EdgeSplit, SignedGraph
from .pole import autocovariance, cosine_normalize, pole_predict, transition_matrix

LOG_CLIP = 1e-12

TARGETS = ("fextra-ols", "fextra-meta", "pole-unsym")


@dataclass
class AttackConfig:
    """One gradient attack: ``budget`` flips, the penalty weights and the Markov time."""
    budget: int
    lam: float = 0.0
    eta: float = 0.0
    t: float = 1.0


@dataclass
class AttackTrace:
    flips: list = field(default_factory=list)  # (u, v, step, predicted_gain)
    loss_curve: list = field(default_factory=list)
    snapshots: dict = field(default_factory=dict)  # power -> poisoned graph, set by the caller
    events: list = field(default_factory=list)

    def poisoned(self, g0: SignedGraph, power: float) -> SignedGraph:
        """``g0`` with its first ``flips_for_power(g0, power)`` flips negated, test signs
        kept: the graph the analyst observes. ``ConfigError`` past the last flip."""
        k = flips_for_power(g0, power)
        if k > len(self.flips):
            raise ConfigError(f"attack power {power:g} needs {k} flips, "
                              f"over the {len(self.flips)} of the trace")
        signs = g0.signs()
        flipped = [g0.edge_index(u, v) for u, v, *_ in self.flips[:k]]
        signs[flipped] = -signs[flipped]
        return g0.with_signs(signs)

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
    """The victim ``target`` attacks, "fextra" or "pole"; ``ConfigError`` outside ``TARGETS``.

    The one check of a target name: ``experiments.ExperimentConfig`` and
    ``make_attack_loss`` reach it before anything is fit."""
    if target not in TARGETS:
        raise ConfigError(f"unknown attack target {target!r}; expected one of {TARGETS}")
    return "fextra" if target.startswith("fextra") else "pole"


def victim_probs(model: str, g: SignedGraph, split: EdgeSplit, t: float):
    """Victim positive-sign probabilities for the test links of ``split``.

    The victim is fit on ``g`` with the test signs hidden, from the training
    signs only. Both victims end in the shared head ``fextra.split_probs``:
    the FeXtra victim on the feature block of all links, the POLE victim
    (``pole_predict``) on its autocovariance pairs. Only the POLE victim
    reads the Markov time ``t``.
    """
    masked = g.mask(split.test)
    if model == "fextra":
        signs = masked.signs()
        X = link_features(signs, link_index(masked))
        return split_probs(X, signs, split)
    if model == "pole":
        return pole_predict(masked, split, t)
    raise ConfigError(f"unknown victim model {model!r}")


def self_train_labels(model, g_clean: SignedGraph, split: EdgeSplit, t: float = 1.0):
    """Victim predictions on the test links, thresholded at 0.5 (ties -> 1).

    The labels are produced from the clean masked graph once and stay fixed
    for the whole attack.
    """
    probs = victim_probs(model, g_clean, split, t)
    return (probs >= 0.5).astype(float)


def _clipped_log_likelihood(p, y_hat):
    """sum_e y log p + (1-y) log(1-p) on plain arrays, log arguments clipped to
    [LOG_CLIP, 1]: (value, pullback from its cotangent to p).

    The pullback adds its terms in the order the backward of the expression
    written as tape primitives (clamps, logs, products and a sum) visits
    them, so it equals that composite's gradient bit for bit. A clipped
    argument passes no gradient.
    """
    q = 1.0 - p
    p_lo, p_hi = np.clip(p, LOG_CLIP, 1.0), np.clip(q, LOG_CLIP, 1.0)
    value = (y_hat * np.log(p_lo) + (1.0 - y_hat) * np.log(p_hi)).sum()

    def pullback(g):
        q_bar = g * (1.0 - y_hat) / p_hi * ((q > LOG_CLIP) & (q < 1.0))
        return -q_bar + g * y_hat / p_lo * ((p > LOG_CLIP) & (p < 1.0))

    return value, pullback


def _log_likelihood(p, y_hat):
    """``_clipped_log_likelihood`` of p; one tape node when p is a Value."""
    value, pullback = _clipped_log_likelihood(tp._data(p), y_hat)
    return tp._apply(lambda p: value, (lambda g, out, p: pullback(g),), p)


def _ols_log_likelihood(X, s, split: EdgeSplit, y_hat):
    """The ``fextra-ols`` log-likelihood from the feature block X of all links; one tape node.

    ``fextra.ols_theta`` fits the training rows of X to the 0/1 labels
    s > 0 of the sign vector ``s``, with the label logits and the ridge
    taken from its module constants; the test rows give
    p = sigmoid([1, ln(X+1)] @ theta), the design matrix written by
    ``fextra.ols_design`` and the sigmoid evaluated on plain arrays, and
    ``_clipped_log_likelihood`` scores p against ``y_hat``. The adjoint
    replays the backward of that chain written as tape primitives (sigmoid,
    the product with theta, ln(x+1), the fit's pullback), so the gradient is
    the composite's bit for bit (``tests/densefeatures.py``). It writes the
    test rows of the cotangent and then the training rows: the two row sets
    are disjoint, so this equals scattering each and adding.
    """
    Xd, y_tr = tp._data(X), tp._data(s)[split.train] > 0
    theta, theta_pullback = ols_theta(Xd[split.train], y_tr)
    X1, Z = ols_design(Xd[split.test])
    p = 1.0 / (1.0 + np.exp(-(Z @ theta)))
    value, p_pullback = _clipped_log_likelihood(p, y_hat)

    def vjp(g, out, Xd):
        a_bar = p_pullback(g) * p * (1.0 - p)
        X_bar = np.zeros_like(Xd)
        X_bar[split.test] = a_bar[:, None] * theta[1:] / X1
        X_bar[split.train] = theta_pullback(Z.T @ a_bar)
        return X_bar

    return tp._apply(lambda X: value, (vjp,), X)


class _Objective:
    """J = -base + lambda T + eta Pol on the sign vector, and every per-attack constant.

    ``base`` is the self-labels' log-likelihood under the target's
    surrogate. Flips never change the support, so each constant is built
    once, and only when a term reads it: the wedge index for the FeXtra
    features and the lambda term, the unsigned walk for eta. The index is
    ``fextra.link_index`` of the masked graph, so an objective built in a
    trial whose clean victim was already fit reuses that fit's index. The
    ``fextra-ols`` base is one tape node over X (``_ols_log_likelihood``);
    the ``fextra-meta`` and POLE bases (the latter over one ``autocovariance``
    call's R_uv, R_uu, R_vv) end in one ``_log_likelihood`` node.
    """

    def __init__(self, target, masked: SignedGraph, split: EdgeSplit, y_hat, t, lam, eta):
        self.split, self.t, self.lam, self.eta = split, t, lam, eta
        self.target, self.y_hat = target, np.asarray(y_hat, dtype=float)
        pole = victim_model_kind(target) == "pole"
        self.n, self.edge, self.degrees = masked.n, masked.edge_array(), masked.degrees()
        self.us_te, self.vs_te = self.edge[split.test].T
        self.walks = pole or eta != 0.0
        self.index = link_index(masked) if not pole or lam != 0.0 else None
        self.M_abs = (transition_matrix(np.abs(masked.adjacency()), self.degrees, t)
                      if eta != 0.0 else None)

    def step_quantities(self, s):
        """The feature block X of all links and the walk M of ``s``; None where no term reads it."""
        X = link_features(s, self.index) if self.index is not None else None
        M = (transition_matrix(tp.sym_scatter(s, *self.edge.T, self.n), self.degrees, self.t)
             if self.walks else None)
        return X, M

    def __call__(self, s, events=None):
        """(base, J) at the sign vector ``s``, both on its tape."""
        X, M = self.step_quantities(s)
        if self.target == "fextra-ols":
            base = _ols_log_likelihood(X, s, self.split, self.y_hat)
        elif self.target == "fextra-meta":
            base = _log_likelihood(split_probs(X, s, self.split), self.y_hat)
        else:
            _, P = cosine_normalize(*autocovariance(M, self.degrees, self.us_te, self.vs_te))
            base = _log_likelihood(P, self.y_hat)
        return base, penalized_loss(-base, s, X, M, self, events)


def make_attack_loss(target: str, masked: SignedGraph, split: EdgeSplit, y_hat, t,
                     lam=0.0, eta=0.0):
    """The greedy objective of ``target``: ``loss(s, events=None) -> (base, J)``.

    ``masked`` is the graph with the test signs hidden and ``s`` its sign
    vector on a tape; J = -base + lambda T + eta Pol is what a step
    differentiates (``_Objective``). Only a POLE loss and the eta term read
    the Markov time ``t``. An unknown ``target`` raises ``ConfigError``
    (``victim_model_kind``).
    """
    return _Objective(target, masked, split, y_hat, t, lam, eta)


def penalized_loss(err, s, X, M, objective: _Objective, events=None):
    """err + lambda T(s) + eta Pol(M), each term on the tape, weighted by ``objective``.

    X and M are the step's ``objective.step_quantities(s)``. T reads both
    traces off X (``balance.triad_traces``); Pol is ``balance.polarization_term``
    on M, as ``balance.graph_polarization`` reports it. An undefined balance
    term contributes zero and logs an event in ``events``.
    """
    out = err
    if objective.lam != 0.0:
        try:
            out = out + objective.lam * balance_ratio_terms(*triad_traces(s, X))
        except MetricUndefinedError:
            if events is not None:
                events.append("balance term undefined (no triads); contributed 0")
    if objective.eta != 0.0:
        out = out + objective.eta * polarization_term(M, objective.M_abs)
    return out


def _check_budget(split: EdgeSplit, budget: int):
    """``ConfigError`` unless the training links hold ``budget`` flips."""
    if budget > len(split.train):
        raise ConfigError(f"budget {budget} exceeds {len(split.train)} training links")


def _pick_flip(scores, us, vs, pooled):
    """Index of the max score among unpooled links, ties toward the smallest (u, v) pair.

    NaN ranks below every number; when no unpooled score is a number the
    step raises ``NumericError`` rather than flip a pooled link back.
    """
    live = ~pooled & ~np.isnan(scores)
    if not live.any():
        raise NumericError("no unpooled link has a numeric flip score")
    tied = np.flatnonzero(live & (scores == scores[live].max()))
    return int(tied[np.lexsort((vs[tied], us[tied]))[0]])


def _greedy_flips(g0: SignedGraph, split: EdgeSplit, budget: int, choose) -> AttackTrace:
    """Flip ``budget`` training links one at a time; the caller ran ``_check_budget``.

    ``choose(signs, pooled, trace)`` gets the masked signs (hidden signs 0),
    the mask of flipped training links and the trace so far, and returns the
    position in ``split.train`` of the next flip and its predicted gain.
    It records no graph: ``AttackTrace.poisoned`` applies a prefix of the flips.
    """
    signs = g0.mask(split.test).signs()
    edge = g0.edge_array()
    trace = AttackTrace()
    pooled = np.zeros(len(split.train), dtype=bool)
    for step in range(budget):
        j, gain = choose(signs, pooled, trace)
        k = int(split.train[j])
        u, v = edge[k]
        signs[k] = -signs[k]
        pooled[j] = True
        trace.flips.append((int(u), int(v), step, gain))
    return trace


def gradient_chooser(g0: SignedGraph, split: EdgeSplit, target: str, cfg: AttackConfig,
                     y_hat=None):
    """The greedy step of ``flip_attack``: a ``_greedy_flips`` chooser that
    flips the link with the largest first-order increase of the objective."""
    if y_hat is None:
        y_hat = self_train_labels(victim_model_kind(target), g0, split, cfg.t)
    loss = make_attack_loss(target, g0.mask(split.test), split, y_hat, cfg.t, cfg.lam, cfg.eta)
    us, vs = g0.edge_array()[split.train].T

    def choose(signs, pooled, trace):
        tape = tp.Tape()
        s = tape.leaf(signs)
        base, J = loss(s, trace.events)
        tape.backward(J)
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
    _check_budget(split, cfg.budget)
    choose = gradient_chooser(g0, split, target, cfg, y_hat)
    return _greedy_flips(g0, split, cfg.budget, choose)


def baseline_rand(g0: SignedGraph, split: EdgeSplit, budget: int, seed: int) -> AttackTrace:
    """Flip a uniform random set of training links, in draw order."""
    _check_budget(split, budget)
    # the same draw as rng.choice(split.train, ...), as positions in split.train
    order = np.random.default_rng(seed).choice(len(split.train), size=budget, replace=False)
    return _greedy_flips(g0, split, budget,
                         lambda signs, pooled, trace: (int(order[len(trace.flips)]), 0.0))


def baseline_greedy_triads(g0: SignedGraph, split: EdgeSplit, budget: int) -> AttackTrace:
    """Flip the training link whose flip most reduces the balanced-triad count.

    For a link (u, v) with sign s, the balanced-minus-unbalanced count of
    triads through it is s W, where W = X @ ``BALANCED_WEDGES`` is its exact
    wedge sum, read off the FeXtra feature block X of all links over the
    trial's cached index (``fextra.link_index``). Flipping negates it, so the
    greedy score of a training link is exactly s W.
    """
    _check_budget(split, budget)
    index = link_index(g0.mask(split.test))
    us, vs = g0.edge_array()[split.train].T

    def choose(signs, pooled, trace):
        scores = (signs * (link_features(signs, index) @ BALANCED_WEDGES))[split.train]
        j = _pick_flip(scores, us, vs, pooled)
        return j, float(scores[j])

    return _greedy_flips(g0, split, budget, choose)
