import gc
import weakref

import numpy as np
import pytest

from signedattack import attacks, balance, experiments, fextra, pole
from signedattack import tape as tp
from signedattack.attacks import (LOG_CLIP, AttackTrace, _log_likelihood, _ols_log_likelihood,
                                  _pick_flip, baseline_greedy_triads, baseline_rand, flip_attack,
                                  flips_for_power, gradient_chooser, make_attack_loss,
                                  penalized_loss, self_train_labels, victim_model_kind,
                                  victim_probs)
from signedattack.balance import balance_ratio, graph_polarization, triad_census
from signedattack.errors import ConfigError, NumericError
from signedattack.experiments import ExperimentConfig, run_attack_trial
from signedattack.fextra import link_features, lr_predict, lr_train
from signedattack.graph import EdgeSplit, SignedGraph, split_edges
from signedattack.tape import Tape
from balanceoracles import dense_greedy_triads
from densefeatures import (DenseFextraLoss, composite_log_likelihood,
                           composite_ols_log_likelihood, extract_features, ols_fit, predict)
from synthgraphs import (all_positive_triangle, complete_graph, flipped, geometric_polarized,
                         two_community)


def small_instance(n=14, deg=5, noise=0.1, seed=0, frac=0.15):
    g = geometric_polarized(n, k=deg, noise=noise, seed=seed)
    split = split_edges(g, frac, seed=seed)
    return g, split


def objective(g, lam, eta):
    """The attack objective of g with penalty weights lam and eta and every link in training."""
    empty = np.array([], dtype=int)
    split = EdgeSplit(train=np.arange(g.num_edges), test=empty, hidden_signs=empty)
    return make_attack_loss("fextra-ols", g, split, [], 1.0, lam, eta)


def penalty(err, s, objective, events=None):
    """``penalized_loss`` of err at the sign vector s, reading the X and M of its step."""
    return penalized_loss(err, s, *objective.step_quantities(s), objective, events)


def test_self_train_perfect_model_recovers_labels():
    g = geometric_polarized(40, k=8, noise=0.0, seed=2)
    split = split_edges(g, 0.1, seed=0)
    y_hat = self_train_labels("fextra", g, split)
    truth = (split.hidden_signs > 0).astype(float)
    assert np.mean(y_hat == truth) > 0.9


def test_self_train_degenerate_model_ties_positive():
    from signedattack.fextra import LRModel, lr_predict

    X = np.zeros((4, 9))
    p = lr_predict(LRModel(theta=np.zeros(10), center=0.0, scale=1.0), X)
    assert np.all((p >= 0.5).astype(float) == 1.0)


def test_attack_loss_plugin_values():
    # y_hat matching predictions at p=0.9 gives |test| * log 0.9
    g, split = small_instance()
    y = np.ones(len(split.test))
    p = tp.Tape().leaf(np.full(len(split.test), 0.9))
    val = float(tp._data(_log_likelihood(p, y)))
    assert val == pytest.approx(len(split.test) * np.log(0.9), rel=1e-9)
    p5 = tp.Tape().leaf(np.full(len(split.test), 0.5))
    val5 = float(tp._data(_log_likelihood(p5, np.zeros(len(split.test)))))
    assert val5 == pytest.approx(len(split.test) * np.log(0.5), rel=1e-9)


def test_attack_loss_clipping_at_certainty():
    p = tp.Tape().leaf(np.array([1.0, 1.0]))
    val = float(tp._data(_log_likelihood(p, np.ones(2))))
    assert abs(val) < 1e-9


@pytest.mark.parametrize("target", ["fextra-ols", "fextra-meta", "pole-unsym"])
def test_attack_loss_gradient_matches_finite_differences(target):
    g, split = small_instance(n=12, deg=4, noise=0.15, seed=3)
    y_hat = self_train_labels(victim_model_kind(target), g, split)
    masked = g.mask(split.test)
    loss_fn = make_attack_loss(target, masked, split, y_hat, 1.0)
    entries = [(int(k),) for k in split.train]

    from signedattack.tape import grad_check

    err = grad_check(lambda s: loss_fn(s)[0], masked.signs(), h=1e-5, entries=entries)
    assert err < 1e-3


@pytest.mark.parametrize("target", ["pole-unsym"])
def test_pole_attack_runs_at_300_nodes(target):
    g = two_community(300, avg_deg=24, seed=0)
    split = split_edges(g, 0.1, seed=0)
    trace = flip_attack(g, split, target, 5)
    assert len(trace.flips) == 5
    assert all(gain > 0 for *_, gain in trace.flips)
    assert all(np.isfinite(trace.loss_curve))


def test_penalized_loss_recovers_base_and_adds_T():
    g = all_positive_triangle()
    t = Tape()
    s = t.leaf(g.signs())
    base = tp.sum_(s * 0.0) + 2.5
    out0 = penalty(base, s, objective(g, 0.0, 0.0))
    assert float(tp._data(out0)) == 2.5
    out1 = penalty(base, s, objective(g, 1.0, 0.0))
    assert float(tp._data(out1)) == pytest.approx(3.5)  # T = 1


@pytest.mark.parametrize("seed", range(3))
def test_polarization_penalty_is_the_detector_polarization(seed):
    # at the clean graph the eta term equals the polarization the metric
    # detector view reports
    g = two_community(60, 8, 0.1, seed=seed)
    t = Tape()
    s = t.leaf(g.signs())
    eta_term = float(tp._data(penalty(0.0, s, objective(g, 0.0, 1.0))))
    assert eta_term == graph_polarization(g, 1.0)


@pytest.mark.parametrize("seed", range(3))
def test_balance_penalty_is_the_detector_balance_ratio(seed):
    # the lambda twin: at the clean graph the lambda term is the detector's T
    g = two_community(60, 8, 0.1, seed=seed)
    t = Tape()
    s = t.leaf(g.signs())
    assert float(tp._data(penalty(0.0, s, objective(g, 1.0, 0.0)))) == balance_ratio(g)


def test_penalized_loss_no_triads_contributes_zero():
    g = SignedGraph(3, [(0, 1, 1), (1, 2, 1)])
    t = Tape()
    s = t.leaf(g.signs())
    events = []
    out = penalty(1.0, s, objective(g, 5.0, 0.0), events)
    assert float(tp._data(out)) == 1.0
    assert events


def test_flip_attack_budget_zero_returns_clean():
    g, split = small_instance()
    trace = flip_attack(g, split, "fextra-ols", 0)
    assert trace.flips == []
    assert trace.poisoned(g, 0.0).edges == g.edges


def flipped_links(g, trace):
    """Edge indices of the links a trace flipped."""
    return {g.edge_index(u, v) for u, v, *_ in trace.flips}


def test_flip_attack_full_budget_saturates_pool():
    g, split = small_instance(n=12, deg=4, seed=1)
    power = len(split.train) / g.num_edges
    trace = flip_attack(g, split, "fextra-ols", len(split.train))
    assert len(trace.flips) == len(split.train)
    assert flipped_links(g, trace) == set(int(k) for k in split.train)
    # every training sign flipped exactly once, every test sign kept
    poisoned = trace.poisoned(g, power).signs()
    assert np.array_equal(poisoned[split.train], -g.signs()[split.train])
    assert np.array_equal(poisoned[split.test], g.signs()[split.test])


def test_flip_attack_budget_identity_and_degrees():
    g, split = small_instance(n=16, deg=5, seed=2)
    B = 6
    trace = flip_attack(g, split, "fextra-ols", B)
    g_p = trace.poisoned(g, B / g.num_edges)
    delta = np.abs(g_p.adjacency() - g.adjacency()).sum() / 4.0
    assert delta == B
    assert np.array_equal(np.abs(g_p.adjacency()), np.abs(g.adjacency()))


def test_flip_attack_pool_never_touches_test_links():
    g, split = small_instance(n=16, deg=5, seed=4)
    trace = flip_attack(g, split, "fextra-ols", 10)
    assert len(flipped_links(g, trace)) == 10
    assert flipped_links(g, trace).isdisjoint(set(int(k) for k in split.test))
    flips = [(u, v) for u, v, _, _ in trace.flips]
    assert len(set(flips)) == len(flips)


def test_flip_attack_budget_exceeds_train_errors():
    g, split = small_instance(n=10, deg=4, seed=5)
    with pytest.raises(ConfigError):
        flip_attack(g, split, "fextra-ols", 10 ** 6)


@pytest.mark.parametrize("attack", [
    lambda g, split: flip_attack(g, split, "fextra-ols", 2),
    lambda g, split: baseline_rand(g, split, 2, 0),
    lambda g, split: baseline_greedy_triads(g, split, 2),
], ids=["flip_attack", "baseline_rand", "baseline_greedy_triads"])
def test_a_checkpoint_beyond_the_budget_errors(attack):
    # power 0.5 of 120 links needs 60 flips; a budget of 2 never reaches it,
    # and a snapshot there would be the graph at power 2/120
    g = two_community(40, 6, 0.1, seed=4)
    trace = attack(g, split_edges(g, 0.2, seed=0))
    assert trace.poisoned(g, 2 / g.num_edges).signs().tolist() != g.signs().tolist()
    with pytest.raises(ConfigError, match="attack power 0.5 needs 60 flips, over the 2"):
        trace.poisoned(g, 0.5)


@pytest.mark.parametrize("attack", [
    lambda g, split: flip_attack(g, split, "fextra-ols", 8),
    lambda g, split: baseline_rand(g, split, 8, 3),
    lambda g, split: baseline_greedy_triads(g, split, 8),
], ids=["fextra-ols", "rand", "greedy-triads"])
def test_poisoned_negates_exactly_the_first_flips_of_the_power(attack):
    g, split = small_instance(n=16, deg=5, seed=3)
    trace = attack(g, split)
    flipped = [g.edge_index(u, v) for u, v, *_ in trace.flips]
    for power in (0.0, 1 / g.num_edges, 0.05, 5 / g.num_edges, 8 / g.num_edges):
        k = flips_for_power(g, power)
        g_p = trace.poisoned(g, power)
        assert [e[:2] for e in g_p.edges] == [e[:2] for e in g.edges]
        changed = np.flatnonzero(g_p.signs() != g.signs())
        assert changed.tolist() == sorted(flipped[:k])
        assert np.array_equal(g_p.signs()[split.test], g.signs()[split.test])


def test_lambda_eta_zero_recovers_basic_flip_sequence():
    g, split = small_instance(n=14, deg=5, seed=6)
    t0 = flip_attack(g, split, "fextra-ols", 5)
    t1 = flip_attack(g, split, "fextra-ols", 5, lam=0.0, eta=0.0)
    assert t0.flips == t1.flips
    assert t0.loss_curve == t1.loss_curve


def test_penalty_changes_flip_choice_but_same_interface():
    g, split = small_instance(n=16, deg=6, seed=7)
    basic = flip_attack(g, split, "fextra-ols", 6)
    pen = flip_attack(g, split, "fextra-ols", 6, lam=20.0)
    assert len(pen.flips) == 6
    # strong balance penalty keeps T higher than the basic attack
    def t_of(trace):
        signs = g.mask(split.test).signs()
        gi = g.mask(split.test)
        for u, v, _, _ in trace.flips:
            gi = flipped(gi, u, v)
        return balance_ratio(gi)

    assert t_of(pen) >= t_of(basic) - 1e-12


def exact_flip_gains(loss_fn, signs, candidates, pool):
    """Exact objective increase for each candidate single flip of a ``fextra-ols`` loss.

    The objective is the error with the training labels held at ``signs``,
    i.e. the same function of s that the greedy score linearizes (the
    discrete label swap of the flipped edge lives outside the differentiable
    pipeline, in the paper's method as well as here).
    """
    train, test = loss_fn.split.train, loss_fn.split.test
    y_tr = (signs[train] > 0).astype(float)

    def err_at(s):
        X = link_features(s, loss_fn.index)
        return -float(_log_likelihood(predict(ols_fit(X[train], y_tr), X[test]),
                                      loss_fn.y_hat))

    base = err_at(signs)
    gains = {}
    for k in candidates:
        k = int(k)
        if k in pool:
            continue
        s2 = signs.copy()
        s2[k] = -s2[k]
        gains[k] = err_at(s2) - base
    return gains


def test_greedy_flip_is_near_optimal_single_flip():
    # exhaustive oracle: at each step the chosen flip's exact gain ranks in
    # the top 3 among all candidate single flips (first-order vs exact gap
    # tolerated; the +-2 entry jump makes this instance-dependent, so the
    # instance is pinned)
    g, split = small_instance(n=12, deg=4, noise=0.05, seed=8)
    y_hat = self_train_labels("fextra", g, split)
    masked = g.mask(split.test)
    loss_fn = make_attack_loss("fextra-ols", masked, split, y_hat, 1.0)
    signs = masked.signs()
    pool = set()
    for step in range(3):
        gains = exact_flip_gains(loss_fn, signs, split.train, pool)
        trace = flip_attack(g, split, "fextra-ols", step + 1, y_hat=y_hat)
        u, v, _, _ = trace.flips[step]
        k_chosen = masked.edge_index(u, v)
        ranked = sorted(gains, key=gains.get, reverse=True)
        assert k_chosen in ranked[:3], (step, gains[k_chosen], gains[ranked[0]])
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
        y_hat = self_train_labels("fextra", g, split)
        masked = g.mask(split.test)
        loss_fn = make_attack_loss("fextra-ols", masked, split, y_hat, 1.0)
        signs = masked.signs()
        t = Tape()
        s = t.leaf(signs)
        t.backward(tp.mul(loss_fn(s)[0], -1.0))
        G = s.grad_or_zero()
        gains = exact_flip_gains(loss_fn, signs, split.train, set())
        ks = sorted(gains)
        pred = np.array([(-2 * signs[k]) * G[k] for k in ks])
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
    assert flipped_links(g, t1) == set(int(k) for k in split.train)
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
    g_p = flipped(g, u, v)
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
        masked = flipped(masked, u, v)
        T = balance_ratio(masked)
        assert T <= prev_T + 1e-12
        prev_T = T


def test_attack_trace_independent_of_hidden_signs():
    # the attacker must never read the ground-truth test signs
    g, split = small_instance(n=14, deg=5, seed=11)
    y_hat = self_train_labels("fextra", g, split)
    t1 = flip_attack(g, split, "fextra-ols", 4, y_hat=y_hat)
    scrambled = EdgeSplit(train=split.train, test=split.test,
                          hidden_signs=-split.hidden_signs)
    t2 = flip_attack(g, scrambled, "fextra-ols", 4, y_hat=y_hat)
    assert t1.flips == t2.flips


def test_flips_for_power():
    g, _ = small_instance()
    assert flips_for_power(g, 0.0) == 0
    assert flips_for_power(g, 1.0) == g.num_edges


@pytest.mark.parametrize("target,lam,eta", [("fextra-ols", 0.0, 0.0), ("fextra-meta", 0.0, 0.0),
                                            ("pole-unsym", 2.0, 5.0), ("pole-unsym", 0.0, 0.0)])
def test_flip_attack_frees_each_step_tape_without_gc(monkeypatch, target, lam, eta):
    made = []

    class RecordingTape(tp.Tape):
        def __init__(self):
            super().__init__()
            made.append(weakref.ref(self))

    monkeypatch.setattr(tp, "Tape", RecordingTape)
    g = geometric_polarized(20, k=6, noise=0.1, seed=0)
    split = split_edges(g, 0.2, seed=0)
    gc.collect()
    gc.disable()
    try:
        trace = flip_attack(g, split, target, 3, lam=lam, eta=eta)
        alive = sum(ref() is not None for ref in made)
    finally:
        gc.enable()
    assert len(trace.flips) == 3
    assert len(made) == 3
    assert alive == 0


def test_fextra_meta_step_records_a_small_tape(monkeypatch):
    # the converged fit is one tape primitive; the unrolled 100 descent
    # steps it replaced recorded 831 nodes per greedy step
    sizes = []

    class RecordingTape(tp.Tape):
        def backward(self, loss):
            sizes.append(len(self))
            super().backward(loss)

    monkeypatch.setattr(tp, "Tape", RecordingTape)
    g = geometric_polarized(20, k=6, noise=0.1, seed=0)
    split = split_edges(g, 0.2, seed=0)
    flip_attack(g, split, "fextra-meta", 2)
    assert len(sizes) == 2 and max(sizes) <= 60


@pytest.mark.parametrize("lam,eta", [(0.0, 0.0), (2.0, 5.0)])
@pytest.mark.parametrize("target,fit", [("fextra-ols", ols_fit), ("fextra-meta", lr_train)])
def test_fextra_flip_scores_match_the_dense_feature_map(target, fit, lam, eta):
    g = two_community(60, 8, 0.1, seed=4)
    split = split_edges(g, 0.1, seed=4)
    y_hat = self_train_labels("fextra", g, split)
    masked = g.mask(split.test)
    # score a poisoned state too: five training links flipped
    signs1 = masked.signs()
    signs1[split.train[:5]] *= -1

    def link_grads(loss_fn, signs):
        t = Tape()
        s = t.leaf(signs)
        t.backward(loss_fn(s)[1])
        return s.grad_or_zero()[split.train]

    sparse = make_attack_loss(target, masked, split, y_hat, 1.0, lam, eta)
    dense_loss = DenseFextraLoss(masked, split, y_hat, fit)

    def dense(s):
        base = dense_loss(s)
        return base, penalty(-base, s, sparse)

    for signs in (masked.signs(), signs1):
        got, want = link_grads(sparse, signs), link_grads(dense, signs)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def head_gradient(head, X0, s, split, y_hat):
    """(base, dJ/dX, nodes) of J = -head(X, s, split, y_hat) at the feature block X0."""
    t = Tape()
    X = t.leaf(X0)
    base = head(X, s, split, y_hat)
    t.backward(-base)
    return float(tp._data(base)), X.grad_or_zero(), len(t)


def graph_head_instance(seed):
    """Features of a poisoned two-community graph with its split and random self-labels."""
    g = two_community(60, 8, 0.1, seed=seed)
    split = split_edges(g, 0.15, seed=seed)
    masked = g.mask(split.test)
    s = masked.signs()
    s[split.train[:5]] *= -1
    X = link_features(s, fextra.wedge_index(masked))
    y_hat = np.random.default_rng(seed).integers(0, 2, len(split.test)).astype(float)
    return X, s, split, y_hat


def clipped_head_instance(single_class=False):
    """Count features with a few huge test entries, so p reaches 1.0 and drops below LOG_CLIP.

    Those four test links are self-labelled against their prediction, where
    the clip decides the gradient. Rows 36-39 are in neither split and must
    get a zero cotangent."""
    rng = np.random.default_rng(3)
    X = rng.integers(0, 6, size=(40, 9)).astype(float)
    order = rng.permutation(40)
    split = EdgeSplit(train=order[:24], test=order[24:36], hidden_signs=np.ones(12))
    s = np.ones(40) if single_class else rng.choice([-1.0, 1.0], 40)
    X[split.test[:4], rng.integers(0, 9, 4)] = 1e15
    y_hat = rng.integers(0, 2, 12).astype(float)
    p = predict(ols_fit(X[split.train], (s[split.train] > 0).astype(float)), X[split.test])
    y_hat[:4] = p[:4] < 0.5
    return X, s, split, y_hat


HEAD_INSTANCES = {
    **{f"graph-{seed}": lambda seed=seed: graph_head_instance(seed) for seed in range(3)},
    "clipped": clipped_head_instance,
    "single-class": lambda: clipped_head_instance(single_class=True),
}


@pytest.mark.parametrize("name", HEAD_INSTANCES)
def test_the_fextra_ols_head_node_equals_the_composite_bit_for_bit(name):
    X, s, split, y_hat = HEAD_INSTANCES[name]()
    got = head_gradient(_ols_log_likelihood, X, s, split, y_hat)
    want = head_gradient(composite_ols_log_likelihood, X, s, split, y_hat)
    assert got[0] == want[0] and np.array_equal(got[1], want[1])
    assert (got[2], want[2]) == (2, 27)
    outside = np.setdiff1d(np.arange(len(X)), np.r_[split.train, split.test])
    assert not got[1][outside].any()
    y_tr = (s[split.train] > 0).astype(float)
    if name == "clipped":
        p = predict(ols_fit(X[split.train], y_tr), X[split.test])
        assert (p == 1.0).any() and (p < LOG_CLIP).any()
    if name == "single-class":
        assert y_tr.all()


@pytest.mark.parametrize("seed", range(3))
def test_the_log_likelihood_node_equals_the_composite_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    p0 = np.r_[rng.random(20), 0.0, 1e-13, LOG_CLIP, 1.0 - 1e-13, 1.0]
    y = rng.integers(0, 2, len(p0)).astype(float)
    results = []
    for loglik in (_log_likelihood, composite_log_likelihood):
        t = Tape()
        p = t.leaf(p0)
        t.backward(-loglik(p, y))
        results.append((float(tp._data(loglik(p0, y))), p.grad_or_zero()))
    (got, got_grad), (want, want_grad) = results
    assert got == want and np.array_equal(got_grad, want_grad)


class _NoAddAt:
    """``np.add`` with its ``at`` method turned into a failure."""

    def __init__(self, ufunc):
        self._ufunc = ufunc

    def __call__(self, *args, **kwargs):
        return self._ufunc(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._ufunc, name)

    def at(self, *args, **kwargs):
        raise AssertionError("np.add.at called")


def test_fextra_ols_step_records_3_nodes_and_no_add_at(monkeypatch):
    # the features, the fused surrogate head and the negation, and no
    # np.add.at scatter; on this 300-node graph the step recorded 50 nodes
    # with the composite feature map and 28 with the composite head
    sizes = []

    class RecordingTape(tp.Tape):
        def backward(self, loss):
            sizes.append(len(self))
            super().backward(loss)

    monkeypatch.setattr(tp, "Tape", RecordingTape)
    monkeypatch.setattr(np, "add", _NoAddAt(np.add))
    g = two_community(300, avg_deg=24, seed=0)
    split = split_edges(g, 0.1, seed=0)
    trace = flip_attack(g, split, "fextra-ols", 2)
    assert len(trace.flips) == 2
    assert sizes == [3, 3]


def _raises(name):
    def proxy(*args, **kwargs):
        raise AssertionError(f"{name} called in a step")
    return proxy


@pytest.mark.parametrize("lam", [0.0, 2.0])
def test_a_fextra_ols_step_builds_no_stacked_block(monkeypatch, lam):
    # the feature block and the design matrices are written into preallocated
    # blocks; np.stack and tp.prepend_ones (column_stack) built them each step
    g = two_community(60, 8, 0.1, seed=4)
    split = split_edges(g, 0.1, seed=4)
    choose = gradient_chooser(g, split, "fextra-ols", lam=lam)
    for name in ("stack", "column_stack"):
        monkeypatch.setattr(np, name, _raises(f"np.{name}"))
    monkeypatch.setattr(tp, "prepend_ones", _raises("tp.prepend_ones"))
    signs = g.mask(split.test).signs()
    trace = AttackTrace()
    for _ in range(2):
        choose(signs, np.zeros(len(split.train), dtype=bool), trace)
    assert len(trace.loss_curve) == 2


def test_a_fextra_ols_trial_builds_one_wedge_index(monkeypatch):
    # the clean fit, the objective and the retrain at each of the five
    # powers built one each: 7 per trial
    built = []
    wedge_index = counting(built, fextra.wedge_index)
    for module in (balance, fextra):
        monkeypatch.setattr(module, "wedge_index", wedge_index)
    cfg = ExperimentConfig(subsample=0, seeds=(0,))
    rows, trace, g = run_attack_trial(two_community(60, 8, 0.1, seed=4), cfg, 0)
    assert len(rows) == 5 and len(trace.snapshots) == 5
    assert len(built) == 1


def test_a_greedy_triads_trial_builds_one_wedge_index(monkeypatch):
    # the baseline built a second index, of the training links alone; it
    # now reads the training rows of the block the clean fit indexed
    built = []
    monkeypatch.setattr(fextra, "WedgeIndex", counting(built, fextra.WedgeIndex))
    cfg = ExperimentConfig(baseline="greedy-triads", subsample=0, seeds=(0,))
    rows, trace, g = run_attack_trial(two_community(60, 8, 0.1, seed=4), cfg, 0)
    assert len(rows) == 5 and len(trace.snapshots) == 5
    assert len(built) == 1


def test_a_checkpoint_count_shared_by_two_powers_snapshots_both():
    g, split = small_instance()
    budget = flips_for_power(g, 0.1)
    powers = (0.0, 0.0001, 0.1, 0.1 + 0.1 / g.num_edges)
    assert flips_for_power(g, powers[1]) == 0 and flips_for_power(g, powers[3]) == budget
    cfg = ExperimentConfig(baseline="rand", subsample=0, split_fraction=0.15, powers=powers)
    trial = experiments.run_trial(g, cfg, 0)
    assert trial.g is g and trial.split.test.tolist() == split.test.tolist()
    trace = trial.trace
    assert len(trace.flips) == budget
    assert list(trace.snapshots) == list(powers)
    assert trace.snapshots[0.0].signs().tolist() == g.signs().tolist()
    assert trace.snapshots[0.0001].signs().tolist() == g.signs().tolist()
    assert trace.snapshots[0.1] is not trace.snapshots[powers[3]]
    assert trace.snapshots[0.1].signs().tolist() == trace.snapshots[powers[3]].signs().tolist()


def lexsort_pick_flip(scores, us, vs, pooled):
    """The former pick: one three-key lexsort, pooled links scored -inf."""
    s = np.where(pooled, -np.inf, scores)
    return int(np.lexsort((vs, us, -s))[0])


@pytest.mark.parametrize("seed", range(8))
def test_pick_flip_equals_the_lexsort_pick(seed):
    rng = np.random.default_rng(seed)
    for _ in range(50):
        m = int(rng.integers(1, 40))
        scores = rng.integers(-3, 4, m).astype(float)  # many ties
        us, vs = rng.integers(0, 10, m), rng.integers(0, 10, m)
        pooled = rng.random(m) < rng.random()
        pooled[rng.integers(m)] = False
        assert _pick_flip(scores, us, vs, pooled) == lexsort_pick_flip(scores, us, vs, pooled)


def test_pick_flip_ranks_nan_below_every_number():
    us, vs = np.array([0, 0, 1, 2]), np.array([1, 2, 2, 3])
    scores = np.array([np.nan, -5.0, np.nan, -7.0])
    assert _pick_flip(scores, us, vs, np.zeros(4, dtype=bool)) == 1
    assert _pick_flip(scores, us, vs, np.array([False, True, False, False])) == 3


def test_pick_flip_never_returns_a_pooled_link():
    # the lexsort pick ranked the pooled -inf above NaN and flipped link 0 back
    us, vs = np.array([0, 0, 1, 2]), np.array([1, 2, 2, 3])
    scores = np.array([5.0, np.nan, np.nan, np.nan])
    pooled = np.array([True, False, False, False])
    assert lexsort_pick_flip(scores, us, vs, pooled) == 0
    with pytest.raises(NumericError):
        _pick_flip(scores, us, vs, pooled)


def test_fextra_ols_step_records_no_n_by_n_array(monkeypatch):
    # the feature map reads the links through a wedge index; the dense map
    # recorded relu(A) and A_plus - A, n x n each, at every greedy step
    largest = []

    class RecordingTape(tp.Tape):
        def backward(self, loss):
            largest.append(max(node.data.size for node in self._nodes))
            super().backward(loss)

    monkeypatch.setattr(tp, "Tape", RecordingTape)
    g = two_community(300, avg_deg=24, seed=0)
    split = split_edges(g, 0.1, seed=0)
    flip_attack(g, split, "fextra-ols", 1)
    assert len(largest) == 1 and largest[0] < g.n ** 2


def test_a_pole_step_records_no_n_by_n_array_after_the_walk(monkeypatch):
    # the loss reads R at the test links and their ends; the dense R = M^T W M
    # and its cosine matrix were n x n nodes of every step. The walk's one
    # transpose, shared by the pair read's two gathers, is a view of the walk
    # and owns no array; the other nodes are k x n gathers of k test links or
    # smaller
    walks, shapes, views = [], [], []

    def recording_walk(*args):
        walks.append(pole.transition_matrix(*args))
        return walks[-1]

    class RecordingTape(tp.Tape):
        def backward(self, loss):
            walk = walks[-1].data
            after = self._nodes[[v.data is walk for v in self._nodes].index(True) + 1:]
            owned = [v.data.shape for v in after if not np.shares_memory(v.data, walk)]
            shapes.append(set(owned))
            views.append(len(after) - len(owned))
            super().backward(loss)

    monkeypatch.setattr(tp, "Tape", RecordingTape)
    monkeypatch.setattr(attacks, "transition_matrix", recording_walk)
    g = two_community(300, avg_deg=24, seed=0)
    split = split_edges(g, 0.1, seed=0)
    flip_attack(g, split, "pole-unsym", 1)
    k = len(split.test)
    assert shapes == [{(k, g.n), (k,), ()}] and views == [1]


def test_fextra_ols_step_differentiates_the_sign_vector(monkeypatch):
    # the leaf is one sign per link, and no node or adjoint of the step is
    # n x n; a dense adjacency leaf made both the leaf and its gradient n x n
    leaves, largest = [], []

    class RecordingTape(tp.Tape):
        def leaf(self, data):
            value = super().leaf(data)
            leaves.append(value)
            return value

        def backward(self, loss):
            super().backward(loss)
            held = [*leaves, *self._nodes]
            largest.append(max(max(v.data.size, np.size(v.grad)) for v in held))

    monkeypatch.setattr(tp, "Tape", RecordingTape)
    g = two_community(300, avg_deg=24, seed=0)
    split = split_edges(g, 0.1, seed=0)
    flip_attack(g, split, "fextra-ols", 1)
    assert [v.data.shape for v in leaves] == [(g.num_edges,)]
    assert leaves[0].grad.shape == (g.num_edges,)
    assert len(largest) == 1 and largest[0] < g.n ** 2


def test_attack_trial_fits_the_clean_victim_once(monkeypatch):
    # the clean AUC and the self-labels come from one victim fit; the flips
    # equal an attack that fits its own self-labels
    from signedattack import attacks, experiments

    fitted = []
    victim_probs = attacks.victim_probs

    def recording(model, g, *args):
        fitted.append(g)
        return victim_probs(model, g, *args)

    monkeypatch.setattr(experiments, "victim_probs", recording)
    monkeypatch.setattr(attacks, "victim_probs", recording)
    cfg = ExperimentConfig(subsample=0, powers=(0.05,), seeds=(0,))
    rows, trace, g = run_attack_trial(geometric_polarized(40, k=8, noise=0.2, seed=3), cfg, 0)
    assert sum(f is g for f in fitted) == 1

    split = split_edges(g, cfg.split_fraction, 0)
    want = flip_attack(g, split, "fextra-ols", len(trace.flips))
    assert trace.flips == want.flips
    acc = np.mean(self_train_labels("fextra", g, split) == (split.hidden_signs > 0))
    assert 0.0 < acc < 1.0
    assert [r["self_label_acc"] for r in rows] == [acc]


@pytest.mark.parametrize("seed", range(6))
def test_baseline_greedy_triads_matches_the_dense_oracle(seed):
    # the wedge sums give the dense s_uv (A @ A)[u, v] score exactly, hidden
    # test links included (they are 0 in A)
    g = two_community(30 + 5 * seed, 6 + seed, 0.1, seed=seed)
    split = split_edges(g, 0.2, seed=seed)
    budget = len(split.train) // 2
    got = baseline_greedy_triads(g, split, budget)
    want = dense_greedy_triads(g, split, budget)
    assert got.flips == want.flips
    power = budget / g.num_edges
    assert got.poisoned(g, power).edges == want.poisoned(g, power).edges


def counting(calls, fn):
    """``fn`` that appends its positional arguments to ``calls`` on every call."""
    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    return wrapper


@pytest.mark.parametrize("target", ["pole-sym", "bogus"])
def test_an_unknown_target_is_refused_before_any_victim_fit(monkeypatch, target):
    g, split = small_instance()
    fits = []
    monkeypatch.setattr(attacks, "pole_predict", counting(fits, attacks.pole_predict))
    monkeypatch.setattr(fextra, "wedge_index", counting(fits, fextra.wedge_index))
    with pytest.raises(ConfigError, match="unknown attack target"):
        make_attack_loss(target, g.mask(split.test), split, [], 1.0)
    assert fits == []


# The two refusals below happen when a trial's config is made, so no run
# function, and no victim fit, is ever reached with it.

def test_an_unknown_baseline_is_refused_before_any_victim_fit():
    # it was refused in ``poison``, after the clean victim fit
    with pytest.raises(ConfigError, match="unknown baseline"):
        ExperimentConfig(baseline="bogus", subsample=0, powers=(0.1,))


@pytest.mark.parametrize("power,error", [
    (-0.05, "attack power"), (float("nan"), "attack power"), (float("inf"), "attack power"),
    ("0.05", "config key 'powers' must be a list of numbers"),
], ids=["-0.05", "nan", "inf", "0.05"])
def test_an_unusable_power_is_refused_before_any_victim_fit(power, error):
    # a negative power ran the whole attack and then raised KeyError; nan
    # and inf raised ValueError and OverflowError from the flip count
    for baseline in (None, "rand"):
        with pytest.raises(ConfigError, match=error):
            ExperimentConfig(baseline=baseline, subsample=0, powers=(0.05, power))


def test_power_zero_is_a_usable_power():
    g, _ = small_instance()
    rows, trace, _ = run_attack_trial(g, ExperimentConfig(subsample=0, powers=(0, 0.05)), 0)
    assert rows[0]["auc_poisoned"] == rows[0]["auc_clean"]
    assert trace.snapshots[0].signs().tolist() == g.signs().tolist()


def test_penalized_fextra_attack_builds_one_wedge_index(monkeypatch):
    # the FeXtra features and the lambda term read one index; a separate
    # penalty object built a second, identical one. The self-labels come from
    # an equal graph: a fit on g itself would leave g's index cached.
    g, split = small_instance(n=16, deg=6, seed=7)
    y_hat = self_train_labels("fextra", small_instance(n=16, deg=6, seed=7)[0], split)
    built = []
    wedge_index = counting(built, fextra.wedge_index)
    for module in (balance, fextra):
        monkeypatch.setattr(module, "wedge_index", wedge_index)
    gradient_chooser(g, split, "fextra-ols", y_hat, lam=2.0)
    assert len(built) == 1


# the POLE loss and the eta term share one scatter; FeXtra without eta needs none
@pytest.mark.parametrize("target,eta,scatters", [("pole-unsym", 2.0, 1), ("pole-unsym", 0.0, 1),
                                                 ("fextra-ols", 2.0, 1), ("fextra-ols", 0.0, 0)],
                         ids=["pole-shared-by-loss-and-eta", "pole-unsym-no-eta",
                              "fextra-ols-eta", "fextra-ols-no-eta"])
def test_a_step_scatters_the_dense_adjacency_once_when_the_objective_reads_it(
        monkeypatch, target, eta, scatters):
    g, split = small_instance(n=16, deg=6, seed=7)
    y_hat = self_train_labels(victim_model_kind(target), g, split)
    choose = gradient_chooser(g, split, target, y_hat, lam=1.0, eta=eta)
    calls = []
    monkeypatch.setattr(tp, "sym_scatter", counting(calls, tp.sym_scatter))
    choose(g.mask(split.test).signs(), np.zeros(len(split.train), dtype=bool), AttackTrace())
    assert len(calls) == scatters


# tape nodes of one step at (lambda, eta) = (0, 0), (2, 0), (0, 5), (2, 5): the
# fextra-ols head is one node, the other bases end in one log-likelihood node
# and each walk's exponential is one node; the composite heads recorded
# 28/36/54/62, 32/40/58/66 and 34/43/51/60, and with the exponential's
# symmetrization as three more nodes 3/11/29/37, 23/31/49/57 and 25/34/42/51.
# The POLE loss reads R_uv, R_uu and R_vv in one pair read of twenty small
# nodes (one transpose, two gathers, the two ends' M^T w and five per output)
# and normalizes them in nine; three pair calls of ten nodes each recorded
# 47/56/64/73, and the dense R (3 nodes), the cosine matrix (10) and the
# gather of P at the test links 22/31/39/48. Each walk's generator
# t (D^-1/2 A D^-1/2 - I) is one node; as three it recorded 3/11/26/34,
# 23/31/46/54 and 37/46/54/63
STEP_NODES = {"fextra-ols": (3, 11, 24, 32), "fextra-meta": (23, 31, 44, 52),
              "pole-unsym": (35, 44, 52, 61)}


@pytest.mark.parametrize("eta", [0.0, 5.0])
@pytest.mark.parametrize("lam", [0.0, 2.0])
@pytest.mark.parametrize("target", ["fextra-ols", "fextra-meta", "pole-unsym"])
def test_a_step_computes_the_features_and_the_walk_at_most_once(monkeypatch, target, lam, eta):
    # the features when the FeXtra surrogate or lambda reads them, the walk
    # when the POLE loss or eta reads it; the eta term walked a second time
    g, split = small_instance(n=16, deg=6, seed=7)
    y_hat = self_train_labels(victim_model_kind(target), g, split)
    choose = gradient_chooser(g, split, target, y_hat, lam=lam, eta=eta)
    features, exps, nodes = [], [], []

    class RecordingTape(tp.Tape):
        def backward(self, loss):
            nodes.append(len(self))
            super().backward(loss)

    monkeypatch.setattr(tp, "Tape", RecordingTape)
    monkeypatch.setattr(attacks, "link_features", counting(features, fextra.link_features))
    monkeypatch.setattr(pole, "sym_matrix_exp", counting(exps, pole.sym_matrix_exp))
    choose(g.mask(split.test).signs(), np.zeros(len(split.train), dtype=bool), AttackTrace())
    fextra_target = victim_model_kind(target) == "fextra"
    assert len(features) == (1 if fextra_target or lam else 0)
    assert sum(tp._is_value(S) for S, in exps) == (1 if not fextra_target or eta else 0)
    assert nodes == [STEP_NODES[target][2 * (eta != 0.0) + (lam != 0.0)]]


def feature_block_victim(g, split):
    """The FeXtra victim as the feature block of all links, fit on its training rows."""
    masked = g.mask(split.test)
    feats = extract_features(masked, masked.edge_array())
    y_tr = (masked.signs()[split.train] > 0).astype(float)
    return lr_predict(lr_train(feats[split.train], y_tr), feats[split.test])


@pytest.mark.parametrize("seed", range(4))
def test_fextra_victim_equals_the_feature_block_oracle(seed):
    g = two_community(40 + 10 * seed, 8, 0.1, seed=seed)
    split = split_edges(g, 0.15, seed=seed)
    assert np.array_equal(victim_probs("fextra", g, split, 1.0), feature_block_victim(g, split))


def test_flip_attack_calls_the_objective_and_the_penalty_through_the_module(monkeypatch):
    # perfbench times both by wrapping these module attributes; a call that
    # bypasses them would leave its span at zero
    made, penalized = [], []
    monkeypatch.setattr(attacks, "make_attack_loss", counting(made, attacks.make_attack_loss))
    monkeypatch.setattr(attacks, "penalized_loss", counting(penalized, attacks.penalized_loss))
    g, split = small_instance()
    trace = flip_attack(g, split, "fextra-ols", 2)
    assert len(trace.flips) == 2
    assert (len(made), len(penalized)) == (1, 2)


def test_an_unknown_victim_model_raises_config_error():
    g, split = small_instance()
    with pytest.raises(ConfigError, match="unknown victim model 'bogus'"):
        victim_probs("bogus", g, split, 1.0)
