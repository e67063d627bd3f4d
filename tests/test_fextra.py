import numpy as np
import pytest

from signedattack import tape as tp
from signedattack.errors import MetricUndefinedError, MissingEdgeError, NumericError
from signedattack.experiments import victim_test_auc
from signedattack.fextra import (LR_GRAD_TOL, LR_RIDGE, OLS_LABEL_EPS, OLS_LOGITS, auc,
                                 link_features, link_index, logistic_theta, lr_predict, lr_train,
                                 ols_theta, wedge_index)
from signedattack.graph import SignedGraph, largest_connected_component, split_edges
from densefeatures import (composite_link_features, composite_ols_theta, dense_extract_features,
                           extract_features, ols_fit, predict, support)
from synthgraphs import (all_positive_triangle, flipped, geometric_polarized,
                         random_signed_graph, two_community)


def lr_train_theta(X1, y, lr, iters, theta0, ridge=0.0):
    """Full-batch gradient descent on mean cross-entropy + ridge/2 |theta|^2.

    The gradient-descent oracle for the Newton fit of ``lr_train``.
    """
    m = X1.shape[0]
    theta = np.asarray(theta0, dtype=float)
    for _ in range(iters):
        p = 1.0 / (1.0 + np.exp(-(X1 @ theta)))
        theta = theta - lr * (X1.T @ (p - y) / m + ridge * theta)
    return theta


def brute_force_features(g, u, v):
    """Per-link oracle: direct neighbor-set enumeration."""
    sign = {}
    neighbors = {x: set() for x in range(g.n)}
    for a, b, s in g.edges:
        neighbors[a].add(b)
        neighbors[b].add(a)
        sign[(a, b)] = sign[(b, a)] = s

    def deg(x, want):
        return sum(1 for y in neighbors[x] if sign[(x, y)] == want)

    common = neighbors[u] & neighbors[v]
    tri = {(1, 1): 0, (1, -1): 0, (-1, 1): 0, (-1, -1): 0}
    for w in common:
        s1, s2 = sign[(u, w)], sign[(w, v)]
        if s1 != 0 and s2 != 0:
            tri[(s1, s2)] += 1
    return np.array([deg(u, 1), deg(u, -1), deg(v, 1), deg(v, -1), len(common),
                     tri[(1, 1)], tri[(1, -1)], tri[(-1, 1)], tri[(-1, -1)]], dtype=float)


def test_feature_example_path_graph():
    g = SignedGraph(4, [(0, 1, 1), (1, 2, 1), (0, 2, -1), (2, 3, 1)])
    X = extract_features(g, [(0, 1)])
    assert np.array_equal(X[0], [1, 1, 2, 0, 1, 0, 0, 1, 0])


def test_feature_single_edge():
    g = SignedGraph(2, [(0, 1, 1)])
    X = extract_features(g, [(0, 1)])
    assert np.array_equal(X[0], [1, 0, 1, 0, 0, 0, 0, 0, 0])


def test_feature_all_positive_triangle():
    X = extract_features(all_positive_triangle(), [(0, 1)])
    assert np.array_equal(X[0], [2, 0, 2, 0, 1, 1, 0, 0, 0])


def test_feature_missing_link_errors():
    g = SignedGraph(3, [(0, 1, 1), (1, 2, 1)])
    with pytest.raises(MissingEdgeError):
        extract_features(g, [(0, 2)])
    # (0, 5) shares its flat position 0 * 3 + 5 with the link (1, 2)
    with pytest.raises(MissingEdgeError):
        extract_features(g, [(0, 5)])


@pytest.mark.parametrize("seed", range(100))
def test_features_match_enumeration_oracle(seed):
    g = random_signed_graph(5 + seed % 21, density=0.3, seed=seed)
    if g.num_edges == 0:
        return
    links = [(u, v) for u, v, _ in g.edges]
    X = extract_features(g, links)
    for i, (u, v) in enumerate(links):
        assert np.array_equal(X[i], brute_force_features(g, u, v)), (seed, u, v)


def test_features_on_masked_graph_gamma_exceeds_triads():
    # hidden-sign edges count toward common neighbors but not triad types
    g = SignedGraph(3, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
    m = g.mask([1])  # hide (0, 2)
    X = extract_features(m, [(0, 1)])
    assert X[0][4] == 1  # common neighbor still known
    assert X[0][5:].sum() == 0  # but no fully signed triad


@pytest.mark.parametrize("graph", [geometric_polarized(40, k=8, noise=0.1, seed=1),
                                   two_community(60, 8, 0.1, seed=2)],
                         ids=["geometric_polarized", "two_community"])
def test_features_equal_the_dense_map(graph):
    # masked links count as common neighbours but carry sign 0; a link list
    # may repeat a link or cover only some of them
    split = split_edges(graph, 0.2, seed=0)
    links = graph.edge_array()
    subset = links[np.random.default_rng(0).choice(len(links), len(links) // 3,
                                                   replace=False)]
    for g in (graph, graph.mask(split.test)):
        for pairs in (links, subset, np.vstack([subset, subset])):
            assert np.array_equal(extract_features(g, pairs), dense_extract_features(g, pairs))


def _map_and_grad(feature_map, signs, index, w):
    t = tp.Tape()
    s = t.leaf(signs)
    X = feature_map(s, index)
    t.backward(tp.sum_(X * w))
    return X.data, s.grad


@pytest.mark.parametrize("graph", [geometric_polarized(40, k=8, noise=0.1, seed=1),
                                   two_community(60, 8, 0.1, seed=2)],
                         ids=["geometric_polarized", "two_community"])
def test_fused_feature_map_equals_the_tape_composite(graph):
    # the one-node map and its hand-written adjoint repeat the composite of
    # gathers, relu and segment sums bit for bit, on a poisoned state too
    split = split_edges(graph, 0.2, seed=0)
    rng = np.random.default_rng(3)
    for g in (graph, graph.mask(split.test)):
        index = wedge_index(g)
        poisoned = g.signs()
        poisoned[rng.choice(g.num_edges, 10, replace=False)] *= -1
        for signs in (g.signs(), poisoned):
            w = rng.standard_normal((g.num_edges, 9))
            X, grad = _map_and_grad(link_features, signs, index, w)
            X_ref, grad_ref = _map_and_grad(composite_link_features, signs, index, w)
            assert np.array_equal(X, X_ref)
            assert np.array_equal(grad, grad_ref)


def test_fused_feature_map_gradient_check():
    # off the relu kink at 0 the map is quadratic in the signs, so central
    # differences are exact up to rounding
    g = two_community(30, 6, 0.1, seed=5)
    index = wedge_index(g)
    rng = np.random.default_rng(5)
    x0 = rng.choice([-1.0, 1.0], g.num_edges) * rng.uniform(0.5, 1.5, g.num_edges)
    w = rng.standard_normal((g.num_edges, 9))
    assert tp.grad_check(lambda s: tp.sum_(link_features(s, index) * w), x0) < 1e-6


def test_masked_and_resigned_graphs_share_one_link_index():
    g = two_community(40, 6, 0.1, seed=3)
    split = split_edges(g, 0.2, seed=3)
    index = link_index(g)
    masked = g.mask(split.test)
    resigned = masked.with_signs(-g.signs())
    assert link_index(masked) is index and link_index(resigned) is index
    assert link_index(resigned.mask(split.train)) is index
    want = wedge_index(g)
    for field in ("rows", "edge", "us", "vs", "first", "second", "link", "common"):
        assert np.array_equal(getattr(index, field), getattr(want, field)), field


def test_a_graph_on_other_links_builds_its_own_link_index():
    g = two_community(40, 6, 0.1, seed=3)
    index = link_index(g)
    for other in (g.induced_subgraph(range(g.n)), largest_connected_component(g),
                  SignedGraph(g.n, g.edges)):
        assert link_index(other) is not index
        assert np.array_equal(link_index(other).first, index.first)
    # a mask taken before the first build shares the index all the same
    h = two_community(40, 6, 0.1, seed=3)
    masked = h.mask([0, 1])
    assert link_index(masked) is link_index(h)


@pytest.mark.parametrize("label", [0, 1])
def test_each_label_logit_constant_is_the_clipped_logit_of_its_label(label):
    yc = np.clip(np.array([float(label)]), OLS_LABEL_EPS, 1.0 - OLS_LABEL_EPS)
    assert OLS_LOGITS[label] == np.log(yc / (1 - yc))[0]
    # as ols_theta evaluated it on a block of labels
    block = np.clip(np.full(37, float(label)), OLS_LABEL_EPS, 1.0 - OLS_LABEL_EPS)
    assert (np.log(block / (1 - block)) == OLS_LOGITS[label]).all()


def test_feature_map_records_one_node():
    g = two_community(30, 6, 0.1, seed=5)
    t = tp.Tape()
    link_features(t.leaf(g.signs()), wedge_index(g))
    assert len(t) == 1


def test_flip_changes_only_incident_feature_rows():
    g = two_community(20, 6, 0.1, seed=0)
    links = [(u, v) for u, v, _ in g.edges]
    X0 = extract_features(g, links)
    u0, v0, _ = g.edges[0]
    X1 = extract_features(flipped(g, u0, v0), links)
    changed = np.where(np.any(X0 != X1, axis=1))[0]
    S = support(g)
    neigh = {x for x in range(g.n) if S[x, u0] or S[x, v0]}
    neigh |= {u0, v0}
    for k in changed:
        u, v = links[k]
        assert u in neigh or v in neigh


def test_lr_predict_zero_theta_gives_half():
    from signedattack.fextra import LRModel

    X = np.random.default_rng(0).random((4, 9))
    p = lr_predict(LRModel(theta=np.zeros(10), center=0.0, scale=1.0), X)
    assert np.allclose(p, 0.5)


def test_lr_predict_logit_values():
    from signedattack.fextra import LRModel

    X = np.array([[np.log(3.0)], [-np.log(3.0)]])
    m = LRModel(theta=np.array([0.0, 1.0]), center=0.0, scale=1.0)
    p = lr_predict(m, X)
    assert p[0] == pytest.approx(0.75)
    assert p[1] == pytest.approx(0.25)


def test_lr_train_all_ones_drives_probs_up():
    # a single-class training set: the ridge keeps the optimum finite, and
    # with no label variation the feature weights stay at zero
    X = np.random.default_rng(1).random((10, 3))
    m = lr_train(X, np.ones(10))
    assert np.all(np.isfinite(m.theta)) and m.grad_norm <= 1e-9
    assert np.abs(m.theta[1:]).max() < 1e-12
    assert np.all(lr_predict(m, X) > 0.9)


def test_lr_train_matches_long_run_oracle():
    # the Newton optimum equals 10^5 gradient-descent steps on the same
    # z-scored ridge objective; the third column is constant, so its std is 1
    rng = np.random.default_rng(2)
    X = np.column_stack([rng.standard_normal((50, 2)) * [1.0, 5.0] + [0.0, 3.0],
                         np.full(50, 4.0)])
    true_theta = np.array([0.3, 1.5, -0.4, 0.0])
    p = 1.0 / (1.0 + np.exp(-(tp.prepend_ones(X) @ true_theta)))
    y = (rng.random(50) < p).astype(float)
    model = lr_train(X, y)
    std = X.std(axis=0)
    Z1 = tp.prepend_ones((X - X.mean(axis=0)) / np.where(std == 0, 1.0, std))
    oracle = lr_train_theta(Z1, y, 0.5, 10 ** 5, np.zeros(4), ridge=LR_RIDGE)
    assert model.grad_norm <= 1e-9
    assert np.abs(model.theta - oracle).max() < 1e-8
    assert model.theta[3] == 0.0


def test_lr_train_raises_when_it_cannot_converge():
    with pytest.raises(NumericError, match="gradient norm"), np.errstate(invalid="ignore"):
        lr_train(np.array([[0.0], [np.nan], [1.0]]), np.array([0.0, 1.0, 1.0]))


def test_a_newton_step_that_raises_the_objective_is_retried_at_half_length(monkeypatch):
    # on this design a full Newton step overshoots once; the fit still
    # converges to the minimizer. One objective evaluation per step taken,
    # one at the start and one per retry.
    Z = np.array([[1.0, 1.0], [16.0, 24.0], [-5.0, 26.0], [6.0, 28.0]])
    y = np.array([1.0, 1.0, 0.0, 1.0])
    evaluations, steps = [], []
    logaddexp, solve = np.logaddexp, np.linalg.solve
    monkeypatch.setattr(np, "logaddexp", lambda *a: evaluations.append(1) or logaddexp(*a))
    monkeypatch.setattr(np.linalg, "solve", lambda *a: steps.append(1) or solve(*a))
    theta, grad_norm = logistic_theta(Z, y)
    monkeypatch.undo()
    assert len(evaluations) > len(steps) + 1
    assert grad_norm <= LR_GRAD_TOL
    p = 1.0 / (1.0 + np.exp(-(Z @ theta)))
    assert np.linalg.norm(Z.T @ (p - y) / len(y) + LR_RIDGE * theta) <= LR_GRAD_TOL


@pytest.mark.parametrize("seed", range(4))
def test_lr_victim_auc_at_least_ols_on_degree_24_graphs(seed):
    g = two_community(600, 24, 0.05, seed=seed)
    split = split_edges(g, 0.1, seed)
    masked = g.mask(split.test)
    X = extract_features(masked, [(u, v) for u, v, _ in masked.edges])
    y = (masked.signs()[split.train] > 0).astype(float)
    truth = (split.hidden_signs > 0).astype(int)
    ols_auc = auc(predict(ols_fit(X[split.train], y), X[split.test]), truth)
    assert victim_test_auc(g, split, "fextra") >= ols_auc


def test_ols_two_points_interpolates():
    X = np.array([[0.0], [3.0]])
    y = np.array([0.0, 1.0])
    theta, _ = ols_theta(X, y)
    # transformed labels reproduced exactly by the linear fit
    z = np.log(np.array([0.01, 0.99]) / (1 - np.array([0.01, 0.99])))
    Z = tp.prepend_ones(np.log(X + 1.0))
    assert np.abs(Z @ theta - z).max() < 1e-3


def test_ols_constant_labels():
    X = np.random.default_rng(3).random((20, 9)) * 4
    theta, _ = ols_theta(X, np.ones(20))
    logit = np.log(0.99 / 0.01)
    assert np.abs(theta[1:]).max() < 1e-3
    assert theta[0] == pytest.approx(logit, abs=1e-2)


@pytest.mark.parametrize("seed", range(5))
def test_ols_matches_normal_equations_oracle(seed):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 6, size=(30, 9)).astype(float)
    y = (rng.random(30) < 0.7).astype(float)
    theta, _ = ols_theta(X, y)
    assert np.array_equal(theta, composite_ols_theta(X, y))
    # independent normal-equations solve
    Z = tp.prepend_ones(np.log(X + 1.0))
    yc = np.clip(y, 0.01, 0.99)
    z = np.log(yc / (1 - yc))
    oracle = np.linalg.solve(Z.T @ Z + 1e-6 * np.eye(10), Z.T @ z)
    assert np.abs(theta - oracle).max() < 1e-8


def test_ols_self_training_agrees_with_lr_on_separable_data():
    from synthgraphs import geometric_polarized

    g = geometric_polarized(60, k=10, noise=0.0, seed=1)
    links = [(u, v) for u, v, _ in g.edges]
    X = extract_features(g, links)
    y = (g.signs() > 0).astype(float)
    lr_m = lr_train(X, y)
    ols_m = ols_fit(X, y)
    agree = np.mean((lr_predict(lr_m, X) >= 0.5) == (predict(ols_m, X) >= 0.5))
    assert agree >= 0.95


def test_auc_perfect_ranking():
    assert auc([0.9, 0.8, 0.1], [1, 1, 0]) == 1.0


def test_auc_all_ties():
    assert auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5


def test_auc_half_concordant():
    assert auc([0.9, 0.2, 0.8, 0.1], [1, 0, 0, 1]) == 0.5


def test_auc_single_class_errors():
    with pytest.raises(MetricUndefinedError):
        auc([0.1, 0.9], [1, 1])


@pytest.mark.parametrize("seed", range(10))
def test_auc_invariant_under_monotone_transforms(seed):
    rng = np.random.default_rng(seed)
    scores = rng.standard_normal(30)
    labels = rng.integers(0, 2, 30)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    base = auc(scores, labels)
    assert auc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
    assert auc(3.0 * scores + 7.0, labels) == pytest.approx(base, abs=1e-12)


def loop_auc(scores, labels):
    """Mann-Whitney AUC with tie groups found by a Python loop over the sorted scores.

    The oracle for the vectorized ranks of ``fextra.auc``: a group grows while
    the next score equals its first one, so each NaN is a group of its own.
    """
    scores = np.asarray(scores, dtype=float)
    pos = np.asarray(labels) == 1
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


@pytest.mark.parametrize("seed", range(6))
def test_auc_equals_the_tie_group_loop(seed):
    rng = np.random.default_rng(seed)
    values = np.array([np.nan, -0.0, 0.0, -1.5, 0.25, 1.0, 3.0])
    for _ in range(500):
        m = int(rng.integers(2, 40))
        scores = rng.choice(values[:int(rng.integers(2, len(values) + 1))], m)
        labels = rng.integers(0, 2, m)
        labels[:2] = (0, 1)
        assert auc(scores, labels) == loop_auc(scores, labels)
