import gc
import weakref

import numpy as np
import pytest

from signedattack import tape as tp
from signedattack.attacks import (AttackConfig, Penalty, baseline_greedy_triads, baseline_rand,
                                  flip_attack, flips_for_power, make_attack_loss,
                                  penalized_loss, self_train_labels)
from signedattack.balance import balance_ratio, triad_census
from signedattack.errors import ConfigError
from signedattack.fextra import auc
from signedattack.graph import EdgeSplit, SignedGraph, split_edges
from signedattack.pole import WalkParams
from signedattack.tape import Tape
from synthgraphs import all_positive_triangle, complete_graph, geometric_polarized, two_community


def small_instance(n=14, deg=5, noise=0.1, seed=0, frac=0.15):
    g = geometric_polarized(n, k=deg, noise=noise, seed=seed)
    split = split_edges(g, frac, seed=seed)
    return g, split


def eval_loss(target, g, split, y_hat, cfg, A=None, signs=None):
    masked = g.mask(split.test)
    loss_fn = make_attack_loss(target, masked, split, y_hat, cfg)
    t = Tape()
    Av = t.leaf(masked.adjacency() if A is None else A, requires_grad=True)
    out = loss_fn(Av, masked.signs() if signs is None else signs)
    return float(tp._data(out))


def test_self_train_perfect_model_recovers_labels():
    g = geometric_polarized(40, k=8, noise=0.0, seed=2)
    split = split_edges(g, 0.1, seed=0)
    y_hat = self_train_labels("fextra", g, split, seed=0)
    truth = (split.hidden_signs > 0).astype(float)
    assert np.mean(y_hat == truth) > 0.9


def test_self_train_degenerate_model_ties_positive():
    from signedattack.fextra import LRModel, lr_predict

    X = np.zeros((4, 9))
    p = lr_predict(LRModel(theta=np.zeros(10)), X)
    assert np.all((p >= 0.5).astype(float) == 1.0)


def test_attack_loss_plugin_values():
    # y_hat matching predictions at p=0.9 gives |test| * log 0.9
    g, split = small_instance()
    cfg = AttackConfig(budget=1, seed=0)
    y = np.ones(len(split.test))
    p = tp.Tape().leaf(np.full(len(split.test), 0.9))
    from signedattack.attacks import _log_likelihood

    val = float(tp._data(_log_likelihood(p, y)))
    assert val == pytest.approx(len(split.test) * np.log(0.9), rel=1e-9)
    p5 = tp.Tape().leaf(np.full(len(split.test), 0.5))
    val5 = float(tp._data(_log_likelihood(p5, np.zeros(len(split.test)))))
    assert val5 == pytest.approx(len(split.test) * np.log(0.5), rel=1e-9)


def test_attack_loss_clipping_at_certainty():
    from signedattack.attacks import _log_likelihood

    p = tp.Tape().leaf(np.array([1.0, 1.0]))
    val = float(tp._data(_log_likelihood(p, np.ones(2))))
    assert abs(val) < 1e-9


@pytest.mark.parametrize("target", ["fextra-ols", "pole-sym", "pole-unsym"])
def test_attack_loss_gradient_matches_finite_differences(target):
    g, split = small_instance(n=12, deg=4, noise=0.15, seed=3)
    cfg = AttackConfig(budget=1, seed=0)
    y_hat = self_train_labels("fextra" if "fextra" in target else "pole",
                              g, split, WalkParams(), seed=0)
    masked = g.mask(split.test)
    loss_fn = make_attack_loss(target, masked, split, y_hat, cfg)
    signs = masked.signs()
    A0 = masked.adjacency()
    entries = [(int(u), int(v)) for u, v in masked.edge_array()[split.train]]

    from signedattack.tape import grad_check

    err = grad_check(lambda v: loss_fn(v, signs), A0, h=1e-5, entries=entries)
    assert err < 1e-3


def test_pole_sym_vs_unsym_loss_on_regular_cycle():
    signs = [1, -1, 1, -1, 1, -1, 1, -1]
    edges = sorted((min(i, (i + 1) % 8), max(i, (i + 1) % 8), signs[i]) for i in range(8))
    g = SignedGraph(8, edges)
    split = EdgeSplit(train=np.arange(6), test=np.array([6, 7]),
                      hidden_signs=np.array([e[2] for e in g.edges])[[6, 7]])
    cfg = AttackConfig(budget=1, seed=0)
    y_hat = np.array([1.0, 0.0])
    a = eval_loss("pole-sym", g, split, y_hat, cfg)
    b = eval_loss("pole-unsym", g, split, y_hat, cfg)
    assert a == pytest.approx(b, abs=1e-6)


@pytest.mark.parametrize("target", ["pole-sym", "pole-unsym"])
def test_pole_attack_runs_at_300_nodes(target):
    g = two_community(300, avg_deg=24, seed=0)
    split = split_edges(g, 0.1, seed=0)
    trace = flip_attack(g, split, target, AttackConfig(budget=5, seed=0))
    assert len(trace.flips) == 5
    assert all(gain > 0 for *_, gain in trace.flips)
    assert all(np.isfinite(trace.loss_curve))


def test_penalized_loss_recovers_base_and_adds_T():
    g = all_positive_triangle()
    A0 = g.adjacency()
    t = Tape()
    A = t.leaf(A0, requires_grad=True)
    base = tp.sum_(A * 0.0) + 2.5
    out0 = penalized_loss(base, A, Penalty.for_graph(np.abs(A0), g.degrees(), 1.0, 0.0, 0.0))
    assert float(tp._data(out0)) == 2.5
    out1 = penalized_loss(base, A, Penalty.for_graph(np.abs(A0), g.degrees(), 1.0, 1.0, 0.0))
    assert float(tp._data(out1)) == pytest.approx(3.5)  # T = 1


def test_penalized_loss_no_triads_contributes_zero():
    g = SignedGraph(3, [(0, 1, 1), (1, 2, 1)])
    A0 = g.adjacency()
    t = Tape()
    A = t.leaf(A0, requires_grad=True)
    events = []
    out = penalized_loss(t.constant(1.0), A,
                         Penalty.for_graph(np.abs(A0), g.degrees(), 1.0, 5.0, 0.0), events)
    assert float(tp._data(out)) == 1.0
    assert events


def test_flip_attack_budget_zero_returns_clean():
    g, split = small_instance()
    cfg = AttackConfig(budget=0, seed=0, checkpoints=(0.0,))
    trace = flip_attack(g, split, "fextra-ols", cfg)
    assert trace.flips == []
    assert trace.snapshots[0.0].edges == g.edges


def test_flip_attack_full_budget_saturates_pool():
    g, split = small_instance(n=12, deg=4, seed=1)
    power = len(split.train) / g.num_edges
    cfg = AttackConfig(budget=len(split.train), seed=0, checkpoints=(power,))
    trace = flip_attack(g, split, "fextra-ols", cfg)
    assert len(trace.flips) == len(split.train)
    assert trace.pool == set(int(k) for k in split.train)
    # every training sign flipped exactly once, every test sign kept
    poisoned = trace.snapshots[power].signs()
    assert np.array_equal(poisoned[split.train], -g.signs()[split.train])
    assert np.array_equal(poisoned[split.test], g.signs()[split.test])


def test_flip_attack_budget_identity_and_degrees():
    g, split = small_instance(n=16, deg=5, seed=2)
    B = 6
    cfg = AttackConfig(budget=B, seed=0, checkpoints=(B / g.num_edges,))
    trace = flip_attack(g, split, "fextra-ols", cfg)
    g_p = trace.snapshots[B / g.num_edges]
    delta = np.abs(g_p.adjacency() - g.adjacency()).sum() / 4.0
    assert delta == B
    assert np.array_equal(np.abs(g_p.adjacency()), np.abs(g.adjacency()))


def test_flip_attack_pool_never_touches_test_links():
    g, split = small_instance(n=16, deg=5, seed=4)
    cfg = AttackConfig(budget=10, seed=0)
    trace = flip_attack(g, split, "fextra-ols", cfg)
    assert len(trace.pool) == 10
    assert trace.pool.isdisjoint(set(int(k) for k in split.test))
    flips = [(u, v) for u, v, _, _ in trace.flips]
    assert len(set(flips)) == len(flips)


def test_flip_attack_budget_exceeds_train_errors():
    g, split = small_instance(n=10, deg=4, seed=5)
    with pytest.raises(ConfigError):
        flip_attack(g, split, "fextra-ols", AttackConfig(budget=10 ** 6))


def test_lambda_eta_zero_recovers_basic_flip_sequence():
    g, split = small_instance(n=14, deg=5, seed=6)
    cfg0 = AttackConfig(budget=5, lam=0.0, eta=0.0, seed=3)
    cfg1 = AttackConfig(budget=5, lam=0.0, eta=0.0, seed=3)
    t0 = flip_attack(g, split, "fextra-ols", cfg0)
    t1 = flip_attack(g, split, "fextra-ols", cfg1)
    assert t0.flips == t1.flips
    assert t0.loss_curve == t1.loss_curve


def test_penalty_changes_flip_choice_but_same_interface():
    g, split = small_instance(n=16, deg=6, seed=7)
    basic = flip_attack(g, split, "fextra-ols", AttackConfig(budget=6, seed=0))
    pen = flip_attack(g, split, "fextra-ols", AttackConfig(budget=6, lam=20.0, seed=0))
    assert len(pen.flips) == 6
    # strong balance penalty keeps T higher than the basic attack
    def t_of(trace):
        signs = g.mask(split.test).signs()
        gi = g.mask(split.test)
        for u, v, _, _ in trace.flips:
            gi = gi.flip_sign(u, v)
        return balance_ratio(gi)

    assert t_of(pen) >= t_of(basic) - 1e-12


def exact_flip_gains(loss_fn, A, signs, edge, candidates, pool):
    """Exact objective increase for each candidate single flip.

    The objective is the error with the training labels held at the current
    step, i.e. the same function of A that the greedy score linearizes (the
    discrete label swap of the flipped edge lives outside the differentiable
    pipeline, in the paper's method as well as here).
    """

    def err_at(Amat):
        return -float(tp._data(loss_fn(Tape().leaf(Amat), signs)))

    base = err_at(A)
    gains = {}
    for k in candidates:
        k = int(k)
        if k in pool:
            continue
        u, v = edge[k]
        A2 = A.copy()
        A2[u, v] = A2[v, u] = -A2[u, v]
        gains[k] = err_at(A2) - base
    return gains


def test_greedy_flip_is_near_optimal_single_flip():
    # exhaustive oracle: at each step the chosen flip's exact gain ranks in
    # the top 3 among all candidate single flips (first-order vs exact gap
    # tolerated; the +-2 entry jump makes this instance-dependent, so the
    # instance is pinned)
    g, split = small_instance(n=12, deg=4, noise=0.05, seed=8)
    y_hat = self_train_labels("fextra", g, split, seed=0)
    masked = g.mask(split.test)
    loss_fn = make_attack_loss("fextra-ols", masked, split, y_hat,
                               AttackConfig(budget=3, seed=0))
    edge = masked.edge_array()
    A = masked.adjacency()
    signs = masked.signs()
    pool = set()
    for step in range(3):
        gains = exact_flip_gains(loss_fn, A, signs, edge, split.train, pool)
        trace = flip_attack(g, split, "fextra-ols",
                            AttackConfig(budget=step + 1, seed=0), y_hat=y_hat)
        u, v, _, _ = trace.flips[step]
        k_chosen = masked.edge_index(u, v)
        ranked = sorted(gains, key=gains.get, reverse=True)
        assert k_chosen in ranked[:3], (step, gains[k_chosen], gains[ranked[0]])
        u, v = edge[k_chosen]
        A[u, v] = A[v, u] = -A[u, v]
        signs[k_chosen] = -signs[k_chosen]
        pool.add(k_chosen)


def test_greedy_scores_correlate_with_exact_gains():
    # the +-2 jumps make any single 12-node instance noisy; across seeds the
    # first-order scores must still rank usefully and the chosen flip must
    # beat the median candidate
    corrs, beats_median = [], 0
    seeds = range(8)
    for seed in seeds:
        g, split = small_instance(n=12, deg=5, noise=0.1, seed=seed)
        y_hat = self_train_labels("fextra", g, split, seed=0)
        masked = g.mask(split.test)
        loss_fn = make_attack_loss("fextra-ols", masked, split, y_hat,
                                   AttackConfig(budget=1, seed=0))
        edge = masked.edge_array()
        A = masked.adjacency()
        signs = masked.signs()
        t = Tape()
        Av = t.leaf(A, requires_grad=True)
        t.backward(tp.mul(loss_fn(Av, signs), -1.0))
        G = Av.grad_or_zero()
        gains = exact_flip_gains(loss_fn, A, signs, edge, split.train, set())
        ks = sorted(gains)
        pred = np.array([(-2 * signs[k]) * (G[edge[k][0], edge[k][1]] +
                                            G[edge[k][1], edge[k][0]]) for k in ks])
        real = np.array([gains[k] for k in ks])
        corrs.append(np.corrcoef(pred, real)[0, 1])
        chosen = ks[int(np.argmax(pred))]
        if gains[chosen] >= np.median(real):
            beats_median += 1
    assert np.mean(corrs) > 0.25
    assert beats_median >= 6


def test_baseline_rand_deterministic_and_full():
    g, split = small_instance(n=12, deg=4, seed=9)
    t1 = baseline_rand(g, split, len(split.train), seed=4)
    t2 = baseline_rand(g, split, len(split.train), seed=4)
    assert t1.flips == t2.flips
    assert t1.pool == set(int(k) for k in split.train)
    with pytest.raises(ConfigError):
        baseline_rand(g, split, len(split.train) + 1, seed=0)


def test_baseline_greedy_triads_k4():
    g = complete_graph(4)
    split = EdgeSplit(train=np.arange(6), test=np.array([], dtype=int),
                      hidden_signs=np.array([], dtype=int))
    trace = baseline_greedy_triads(g, split, budget=1)
    u, v, _, _ = trace.flips[0]
    assert (u, v) == (0, 1)  # tie-break toward the smallest pair
    balanced_before = triad_census(g)[0]
    g_p = g.flip_sign(u, v)
    assert triad_census(g_p)[0] == balanced_before - 2


def test_baseline_greedy_triads_no_triads_tie_break_order():
    g = SignedGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    split = EdgeSplit(train=np.arange(3), test=np.array([], dtype=int),
                      hidden_signs=np.array([], dtype=int))
    trace = baseline_greedy_triads(g, split, budget=3)
    assert [(u, v) for u, v, _, _ in trace.flips] == [(0, 1), (1, 2), (2, 3)]


def test_baseline_greedy_triads_monotone_T():
    g = geometric_polarized(16, k=6, noise=0.05, seed=10)
    split = split_edges(g, 0.15, seed=0)
    trace = baseline_greedy_triads(g, split, budget=6)
    cur = g
    prev_T = balance_ratio(g.mask(split.test))
    masked = g.mask(split.test)
    for u, v, _, _ in trace.flips:
        masked = masked.flip_sign(u, v)
        T = balance_ratio(masked)
        assert T <= prev_T + 1e-12
        prev_T = T


def test_attack_trace_independent_of_hidden_signs():
    # the attacker must never read the ground-truth test signs
    g, split = small_instance(n=14, deg=5, seed=11)
    cfg = AttackConfig(budget=4, seed=0)
    y_hat = self_train_labels("fextra", g, split, seed=0)
    t1 = flip_attack(g, split, "fextra-ols", cfg, y_hat=y_hat)
    scrambled = EdgeSplit(train=split.train, test=split.test,
                          hidden_signs=-split.hidden_signs)
    t2 = flip_attack(g, scrambled, "fextra-ols", cfg, y_hat=y_hat)
    assert t1.flips == t2.flips


def test_flips_for_power():
    g, _ = small_instance()
    assert flips_for_power(g, 0.0) == 0
    assert flips_for_power(g, 1.0) == g.num_edges


@pytest.mark.parametrize("target,lam,eta", [("fextra-ols", 0.0, 0.0), ("fextra-meta", 0.0, 0.0),
                                            ("pole-sym", 2.0, 5.0), ("pole-unsym", 0.0, 0.0)])
def test_flip_attack_frees_each_step_tape_without_gc(monkeypatch, target, lam, eta):
    made = []

    class RecordingTape(tp.Tape):
        def __init__(self):
            super().__init__()
            made.append(weakref.ref(self))

    monkeypatch.setattr(tp, "Tape", RecordingTape)
    g = geometric_polarized(20, k=6, noise=0.1, seed=0)
    split = split_edges(g, 0.2, seed=0)
    cfg = AttackConfig(budget=3, lam=lam, eta=eta, inner_iters=5)
    gc.collect()
    gc.disable()
    try:
        trace = flip_attack(g, split, target, cfg)
        alive = sum(ref() is not None for ref in made)
    finally:
        gc.enable()
    assert len(trace.flips) == 3
    assert len(made) == 3
    assert alive == 0
