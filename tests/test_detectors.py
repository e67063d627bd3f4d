import numpy as np
import pytest

from signedattack.detectors import (DetectorView, OCSVMModel, detector_eval,
                                    metric_features, ocsvm_decision, ocsvm_fit,
                                    tsvd_features)
from signedattack.errors import ConfigError, MetricUndefinedError
from signedattack.fextra import auc
from signedattack.graph import GraphCorpus, SignedGraph
from signedattack.linalg import truncated_svd
from synthgraphs import (all_positive_triangle, geometric_polarized, random_signed_graph,
                         two_community)


def svd_tsvd_features(g, d):
    """The TSVD feature from a dense SVD of the adjacency: the oracle of the eigenvector form."""
    d_eff = min(d, g.n)
    U, _, _ = truncated_svd(g.adjacency(), d_eff)
    return np.concatenate([U.mean(axis=0), np.zeros(d - d_eff)])


def test_metric_features_triangle():
    f = metric_features(all_positive_triangle(), t=1.0)
    assert f[0] == pytest.approx(1.0)
    assert f[1] == pytest.approx(1.0, abs=1e-9)


def test_metric_features_one_negative_triangle():
    g = SignedGraph(3, [(0, 1, 1), (0, 2, -1), (1, 2, 1)])
    f = metric_features(g, t=1.0)
    assert f[0] == 0.0
    assert -1.0 <= f[1] <= 1.0


def test_metric_features_no_triads_rejected():
    g = SignedGraph(3, [(0, 1, 1), (1, 2, 1)])
    with pytest.raises(MetricUndefinedError):
        metric_features(g, t=1.0)


def test_tsvd_features_padding_small_graph():
    g = SignedGraph(2, [(0, 1, 1)])
    f = tsvd_features(g, d=32)
    assert f.shape == (32,)
    assert np.all(f[2:] == 0.0)


def test_tsvd_features_permutation_invariance():
    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(20):
        g = random_signed_graph(12, density=0.4, seed=trial, connected=True)
        f0 = tsvd_features(g, d=6)
        for _ in range(5):
            perm = rng.permutation(g.n)
            edges = sorted((min(perm[u], perm[v]), max(perm[u], perm[v]), s)
                           for u, v, s in g.edges)
            h = SignedGraph(g.n, edges)
            worst = max(worst, np.abs(tsvd_features(h, d=6) - f0).max())
    assert worst <= 1e-8


@pytest.mark.parametrize("seed", range(10))
def test_tsvd_features_match_the_svd_oracle(seed):
    d = 8
    g = (geometric_polarized(30, k=6, noise=0.1, seed=seed) if seed % 2
         else two_community(40, 6, 0.1, seed=seed))
    for h in (g, g.mask(np.arange(0, g.num_edges, 5))):
        top = np.sort(np.abs(np.linalg.eigvalsh(h.adjacency())))[::-1][:d + 1]
        # the top-d vectors are defined (up to sign) where the top d + 1 |eigenvalues| differ
        assert -np.diff(top).min() > 1e-3
        assert np.abs(tsvd_features(h, d) - svd_tsvd_features(h, d)).max() <= 1e-10


def test_featurizing_runs_no_svd(monkeypatch):
    g = geometric_polarized(30, k=6, noise=0.1, seed=1)

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    for view in (DetectorView("metric"), DetectorView("tsvd", d=8)):
        assert np.isfinite(view.featurize(g)).all()


def test_tsvd_features_distinguish_structures():
    g1 = geometric_polarized(20, k=6, seed=1)
    g2 = random_signed_graph(20, density=0.3, seed=2, connected=True)
    d = min(g1.n, g2.n, 8)
    assert np.linalg.norm(tsvd_features(g1, d) - tsvd_features(g2, d)) > 1e-6


def test_ocsvm_identical_rows_on_boundary():
    X = np.ones((10, 2))
    m = ocsvm_fit(X, nu=0.5, gamma=0.1)
    d = ocsvm_decision(m, X)
    assert np.abs(d).max() < 1e-4


def test_ocsvm_nu_property():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((60, 2))
    for nu in (0.1, 0.3):
        m = ocsvm_fit(X, nu=nu, gamma=0.1)
        frac_out = (ocsvm_decision(m, X) < -1e-9).mean()
        assert frac_out <= nu + 2.0 / len(X)


def test_ocsvm_alpha_constraints():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((40, 3))
    m = ocsvm_fit(X, nu=0.2, gamma=0.1)
    assert m.alphas.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(m.alphas >= -1e-12)
    assert np.all(m.alphas <= 1.0 / (0.2 * 40) + 1e-12)


def test_ocsvm_far_outlier_scores_lowest():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((50, 2)) * 0.5 + 2.0
    m = ocsvm_fit(X, nu=0.1, gamma=0.1)
    train_scores = ocsvm_decision(m, X)
    outlier = ocsvm_decision(m, np.array([[40.0, -40.0]]))
    assert outlier[0] < train_scores.min()


def test_ocsvm_decision_pointwise():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((30, 2))
    m = ocsvm_fit(X, nu=0.2, gamma=0.1)
    q = rng.standard_normal((5, 2))
    single = np.array([ocsvm_decision(m, q[i])[0] for i in range(5)])
    batch = ocsvm_decision(m, q)
    assert np.allclose(single, batch)
    # duplicating a query row never changes other rows' scores
    batch2 = ocsvm_decision(m, np.vstack([q, q[:1]]))
    assert np.allclose(batch2[:5], batch)


def test_ocsvm_requires_two_rows_and_valid_nu():
    with pytest.raises(ConfigError):
        ocsvm_fit(np.ones((1, 2)))
    with pytest.raises(ConfigError):
        ocsvm_fit(np.ones((5, 2)), nu=0.0)


def make_corpus(n_graphs=12, seed=0):
    graphs = [geometric_polarized(40 + 4 * (i % 3), k=8, noise=0.03, seed=seed + i)
              for i in range(n_graphs)]
    return GraphCorpus(graphs=graphs, provenance={"source": "synthetic"})


def test_detector_eval_leaves_out_graphs_a_view_rejects():
    corpus = make_corpus(6)
    path = SignedGraph(3, [(0, 1, 1), (1, 2, 1)])  # no triads
    corpus.graphs.append(path)
    rng = np.random.default_rng(9)
    poisoned = [g.with_signs([1 if rng.random() < 0.5 else -1 for _ in g.edges])
                for g in corpus.graphs[:2]]
    views = [DetectorView("metric", t=1.0), DetectorView("tsvd", d=8)]
    value, rows = detector_eval(corpus, poisoned, views, "max")
    assert [v.rejected for v in views] == [1, 0]
    assert [r["graph"] for r in rows] == [0, 1, 2, 3, 4, 5, 7, 8]
    labels = np.array([r["label"] == -1 for r in rows], dtype=int)
    assert value == auc(-np.array([r["combined"] for r in rows]), labels)
    # a rejected poisoned graph leaves the evaluation set without one
    with pytest.raises(MetricUndefinedError):
        detector_eval(corpus, [path], views, "max")


def test_detector_eval_fits_each_view_on_its_defined_clean_rows():
    corpus = make_corpus(6)
    path = SignedGraph(3, [(0, 1, 1), (1, 2, 1)])  # no triads: metric view rejects it
    corpus.graphs.insert(2, path)
    rng = np.random.default_rng(4)
    poisoned = [g.with_signs([1 if rng.random() < 0.5 else -1 for _ in g.edges])
                for g in corpus.graphs[:2]]
    views = [DetectorView("metric", t=1.0, nu=0.3, gamma=0.5), DetectorView("tsvd", d=8)]
    detector_eval(corpus, poisoned, views, "max")
    defined = {"metric": [g for g in corpus.graphs if g is not path], "tsvd": corpus.graphs}
    for view in views:
        want = ocsvm_fit(np.vstack([view.featurize(g) for g in defined[view.kind]]),
                         nu=view.nu, gamma=view.gamma)
        assert np.array_equal(view.model.support_vectors, want.support_vectors)
        assert np.array_equal(view.model.alphas, want.alphas)
        assert view.model.rho == want.rho
        assert (view.model.nu, view.model.gamma) == (view.nu, view.gamma)


def test_detector_eval_needs_two_defined_clean_graphs_per_view():
    path = SignedGraph(3, [(0, 1, 1), (1, 2, 1)])  # no triads
    corpus = make_corpus(1)
    corpus.graphs += [path, path]
    poisoned = [corpus.graphs[0].with_signs([-1] * len(corpus.graphs[0].edges))]
    with pytest.raises(ConfigError, match="metric view"):
        detector_eval(corpus, poisoned, [DetectorView("tsvd", d=8),
                                         DetectorView("metric", t=1.0)], "max")


def test_detector_eval_requires_poisoned():
    corpus = make_corpus(4)
    view = DetectorView("metric", t=1.0)
    with pytest.raises(MetricUndefinedError):
        detector_eval(corpus, [], [view], "max")


def test_detector_eval_separates_scrambled_graphs():
    corpus = make_corpus(10)
    rng = np.random.default_rng(5)
    poisoned = []
    for i in range(4):
        g = corpus.graphs[i]
        signs = [1 if rng.random() < 0.5 else -1 for _ in g.edges]
        poisoned.append(g.with_signs(signs))
    view = DetectorView("metric", t=1.0)
    value, rows = detector_eval(corpus, poisoned, [view], "max")
    assert value == 1.0
    assert len(rows) == len(corpus.graphs) + 4


def test_single_view_auc_invariant_to_minmax():
    corpus = make_corpus(8)
    rng = np.random.default_rng(6)
    poisoned = [corpus.graphs[0].with_signs(
        [1 if rng.random() < 0.5 else -1 for _ in corpus.graphs[0].edges])
        for _ in range(3)]
    view = DetectorView("metric", t=1.0)
    value, _ = detector_eval(corpus, poisoned, [view], "max")
    graphs = corpus.graphs + poisoned
    raw = ocsvm_decision(view.model, np.vstack([view.featurize(g) for g in graphs]))
    labels = np.array([0] * len(corpus.graphs) + [1] * len(poisoned))
    assert auc(-raw, labels) == pytest.approx(value, abs=1e-12)


def test_detector_eval_strategies_and_rows():
    corpus = make_corpus(10)
    rng = np.random.default_rng(7)
    poisoned = [corpus.graphs[i].with_signs(
        [1 if rng.random() < 0.6 else -1 for _ in corpus.graphs[i].edges])
        for i in range(3)]
    views = [DetectorView("metric", t=1.0), DetectorView("tsvd", d=8)]
    for strategy in ("mean", "min", "max"):
        value, rows = detector_eval(corpus, poisoned, views, strategy)
        assert 0.0 <= value <= 1.0
        assert {r["label"] for r in rows} == {1, -1}
    with pytest.raises(ConfigError):
        detector_eval(corpus, poisoned, views, "median")


def test_model_round_trip_fields():
    X = np.random.default_rng(8).standard_normal((20, 2))
    m = ocsvm_fit(X, nu=0.25, gamma=0.1)
    d = m.to_json_dict()
    assert set(d) == {"support_vectors", "alphas", "rho", "gamma", "nu", "normalizer"}
