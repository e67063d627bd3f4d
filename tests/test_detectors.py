import os
import sys
import threading
from dataclasses import dataclass, replace

import numpy as np
import pytest

from signedattack import detectors, experiments
from signedattack.detectors import (BLAS_THREAD_VARS, DetectorView, detector_eval,
                                    featurize_graphs, featurize_workers, metric_features,
                                    ocsvm_decision, ocsvm_fit, tsvd_features)
from signedattack.errors import ConfigError, MetricUndefinedError, NumericError
from signedattack.experiments import (ExperimentConfig, build_poisoned_set,
                                      run_attack_experiment, run_attack_trial,
                                      run_detect_experiment)
from signedattack.fextra import auc
from signedattack.graph import SignedGraph
from signedattack.linalg import truncated_svd
from synthgraphs import (all_positive_triangle, geometric_polarized, random_signed_graph,
                         two_community)
from test_detect_pins import PINNED, detect_inputs  # noqa: F401 (a fixture)


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
    return [geometric_polarized(40 + 4 * (i % 3), k=8, noise=0.03, seed=seed + i)
            for i in range(n_graphs)]


def test_detector_eval_leaves_out_graphs_a_view_rejects():
    corpus = make_corpus(6)
    path = SignedGraph(3, [(0, 1, 1), (1, 2, 1)])  # no triads
    corpus.append(path)
    rng = np.random.default_rng(9)
    poisoned = [g.with_signs([1 if rng.random() < 0.5 else -1 for _ in g.edges])
                for g in corpus[:2]]
    views = [DetectorView("metric", t=1.0), DetectorView("tsvd", d=8)]
    summary, rows = detector_eval(corpus, poisoned, views, "max")
    assert [v.rejected for v in views] == [1, 0]
    assert [r["graph"] for r in rows] == [0, 1, 2, 3, 4, 5, 7, 8]
    labels = np.array([r["label"] == -1 for r in rows], dtype=int)
    # each AUC is the one its column of the rows gives
    assert summary == {f"{name}_auc": auc(-np.array([r[column] for r in rows]), labels)
                       for name, column in [("metric", "view_metric"), ("tsvd", "view_tsvd"),
                                            ("ensemble_max", "combined")]}
    assert list(summary) == ["metric_auc", "tsvd_auc", "ensemble_max_auc"]
    # a rejected poisoned graph leaves the evaluation set without one
    with pytest.raises(MetricUndefinedError):
        detector_eval(corpus, [path], views, "max")


def test_detector_eval_fits_each_view_on_its_defined_clean_rows():
    corpus = make_corpus(6)
    path = SignedGraph(3, [(0, 1, 1), (1, 2, 1)])  # no triads: metric view rejects it
    corpus.insert(2, path)
    rng = np.random.default_rng(4)
    poisoned = [g.with_signs([1 if rng.random() < 0.5 else -1 for _ in g.edges])
                for g in corpus[:2]]
    views = [DetectorView("metric", t=1.0, nu=0.3, gamma=0.5), DetectorView("tsvd", d=8)]
    detector_eval(corpus, poisoned, views, "max")
    defined = {"metric": [g for g in corpus if g is not path], "tsvd": corpus}
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
    corpus += [path, path]
    poisoned = [corpus[0].with_signs([-1] * len(corpus[0].edges))]
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
        g = corpus[i]
        signs = [1 if rng.random() < 0.5 else -1 for _ in g.edges]
        poisoned.append(g.with_signs(signs))
    view = DetectorView("metric", t=1.0)
    summary, rows = detector_eval(corpus, poisoned, [view], "max")
    assert summary == {"metric_auc": 1.0, "ensemble_max_auc": 1.0}
    assert len(rows) == len(corpus) + 4


def test_single_view_auc_invariant_to_minmax():
    corpus = make_corpus(8)
    rng = np.random.default_rng(6)
    poisoned = [corpus[0].with_signs(
        [1 if rng.random() < 0.5 else -1 for _ in corpus[0].edges])
        for _ in range(3)]
    view = DetectorView("metric", t=1.0)
    summary, _ = detector_eval(corpus, poisoned, [view], "max")
    graphs = corpus + poisoned
    raw = ocsvm_decision(view.model, np.vstack([view.featurize(g) for g in graphs]))
    labels = np.array([0] * len(corpus) + [1] * len(poisoned))
    for value in summary.values():
        assert auc(-raw, labels) == pytest.approx(value, abs=1e-12)


def test_detector_eval_strategies_and_rows():
    corpus = make_corpus(10)
    rng = np.random.default_rng(7)
    poisoned = [corpus[i].with_signs(
        [1 if rng.random() < 0.6 else -1 for _ in corpus[i].edges])
        for i in range(3)]
    views = [DetectorView("metric", t=1.0), DetectorView("tsvd", d=8)]
    for strategy in ("mean", "min", "max"):
        summary, rows = detector_eval(corpus, poisoned, views, strategy)
        assert list(summary) == ["metric_auc", "tsvd_auc", f"ensemble_{strategy}_auc"]
        assert all(0.0 <= value <= 1.0 for value in summary.values())
        assert {r["label"] for r in rows} == {1, -1}
    with pytest.raises(ConfigError):
        detector_eval(corpus, poisoned, views, "median")


def scrambled(graphs, seed):
    rng = np.random.default_rng(seed)
    return [g.with_signs([1 if rng.random() < 0.5 else -1 for _ in g.edges]) for g in graphs]


SCORES = ("combined", "view_metric", "view_tsvd")


@pytest.mark.parametrize("strategy", ["mean", "min", "max"])
def test_a_graphs_row_does_not_depend_on_the_other_graphs_scored(strategy):
    # each view's decisions were min-max normalized over the scored set, so a
    # graph's scores moved when another poisoned graph joined it
    corpus = make_corpus(8)
    poisoned = scrambled(corpus[:3], seed=8)
    views = [DetectorView("metric", t=1.0), DetectorView("tsvd", d=8)]
    _, rows = detector_eval(corpus, poisoned, views, strategy)
    clean_rows = [[r[c] for c in SCORES] for r in rows[:len(corpus)]]
    for k, g in enumerate(poisoned):
        _, alone = detector_eval(corpus, [g], views, strategy)
        assert [[r[c] for c in SCORES] for r in alone[:len(corpus)]] == clean_rows
        assert [alone[-1][c] for c in SCORES] == [rows[len(corpus) + k][c] for c in SCORES]


def test_a_view_score_is_its_decision_over_the_fitted_offset():
    corpus = make_corpus(8)
    graphs = corpus + scrambled(corpus[:3], seed=9)
    views = [DetectorView("metric", t=1.0), DetectorView("tsvd", d=8)]
    _, rows = detector_eval(corpus, graphs[len(corpus):], views, "mean")
    for view in views:
        assert view.model.rho > 0
        decision = ocsvm_decision(view.model, np.vstack([view.featurize(g) for g in graphs]))
        assert [r[f"view_{view.kind}"] for r in rows] == (decision / view.model.rho).tolist()


def use_cpus(monkeypatch, cpus, blas_env):
    """Make ``cpus`` CPUs usable and set exactly the BLAS variables of ``blas_env``."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    for var in BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in blas_env.items():
        monkeypatch.setenv(var, value)


@pytest.mark.parametrize("cpus,blas_env,n_graphs,workers", [
    (2, {}, 36, 1),  # unpinned, BLAS already runs a thread per CPU
    (2, {"OPENBLAS_NUM_THREADS": "1"}, 36, 2),
    (2, {"OMP_NUM_THREADS": "1"}, 36, 2),
    (2, {"MKL_NUM_THREADS": "1"}, 36, 2),
    (8, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 36, 4),
    (8, {"OMP_NUM_THREADS": "4", "MKL_NUM_THREADS": "1"}, 36, 2),
    (8, {"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "x", "MKL_NUM_THREADS": "2"}, 36, 4),
    (2, {"OMP_NUM_THREADS": "4"}, 36, 1),
    (1, {"OMP_NUM_THREADS": "1"}, 36, 1),
    (8, {"OMP_NUM_THREADS": "1"}, 3, 3),
    (8, {"OMP_NUM_THREADS": "1"}, 0, 1),
], ids=["unpinned", "openblas-1", "omp-1", "mkl-1", "openblas-read-first", "omp-before-mkl",
        "first-positive-integer", "at-least-one", "one-cpu", "one-per-graph", "no-graphs"])
def test_the_worker_count_is_the_usable_cpus_over_the_blas_threads(monkeypatch, cpus, blas_env,
                                                                   n_graphs, workers):
    use_cpus(monkeypatch, cpus, blas_env)
    assert featurize_workers(n_graphs) == workers


BARRIER_TIMEOUT_S = 30  # a worker that never takes a graph breaks the barrier


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("strategy", sorted(PINNED))
def test_the_detect_pins_hold_with_one_and_with_two_workers(detect_inputs, monkeypatch,
                                                            strategy, workers):
    # each thread's first featurize waits at the barrier, so every worker
    # takes a graph: the calling thread cannot drain the queue alone
    use_cpus(monkeypatch, workers, {"OMP_NUM_THREADS": "1"})
    threads = set()
    barrier = threading.Barrier(workers, timeout=BARRIER_TIMEOUT_S)
    featurize = DetectorView.featurize

    def recording(self, g):
        if threading.get_ident() not in threads:
            threads.add(threading.get_ident())
            barrier.wait()
        return featurize(self, g)

    monkeypatch.setattr(DetectorView, "featurize", recording)
    cfg, dataset, corpus, poisoned = detect_inputs
    summary, rows, _ = run_detect_experiment(replace(cfg, strategy=strategy), dataset, corpus,
                                             poisoned)
    want_summary, want_rows = PINNED[strategy]
    assert summary == want_summary
    assert [(r["graph"], r["label"], r["combined"], r["view_metric"], r["view_tsvd"])
            for r in rows] == want_rows
    assert len(threads) == workers


@pytest.mark.parametrize("workers", [1, 2, 8])
def test_each_worker_takes_the_largest_graph_left_and_featurizes_it_once_per_view(monkeypatch,
                                                                                  workers):
    # 8 workers is more than most hosts have CPUs; with a short switch
    # interval, a graph taken twice or never shows in the counts
    use_cpus(monkeypatch, workers, {"OPENBLAS_NUM_THREADS": "1"})
    graphs = make_corpus(9) + make_corpus(3, seed=20)  # sizes 40, 44, 48, with ties
    visits = []  # (thread, view kind, graph); appended to from several threads
    featurize = DetectorView.featurize

    def recording(self, g):
        visits.append((threading.get_ident(), self.kind, id(g)))
        return featurize(self, g)

    monkeypatch.setattr(DetectorView, "featurize", recording)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        featurize_graphs(graphs, [DetectorView("metric"), DetectorView("tsvd", d=8)])
    finally:
        sys.setswitchinterval(interval)
    size = {id(g): g.n for g in graphs}
    assert sorted((kind, graph) for _, kind, graph in visits) == sorted(
        (kind, id(g)) for kind in ("metric", "tsvd") for g in graphs)
    for thread in {t for t, _, _ in visits}:
        sizes = [size[graph] for t, _, graph in visits if t == thread]
        assert sizes == sorted(sizes, reverse=True)


@dataclass
class FailingView(DetectorView):
    fail_on: tuple = ()  # sizes of the graphs this view raises on

    def featurize(self, g):
        if g.n in self.fail_on:
            raise NumericError(f"{self.kind} view failed on the {g.n}-node graph")
        return super().featurize(g)


@pytest.mark.parametrize("workers", [1, 2])
def test_the_error_raised_is_the_first_in_serial_view_then_graph_order(monkeypatch, workers):
    # graph i has 20 + 4i nodes, so largest-first featurizes the last serial
    # graph first and meets the serial-first error last; graph-then-view
    # order would pick the tsvd error on graph 0
    use_cpus(monkeypatch, workers, {"OPENBLAS_NUM_THREADS": "1"})
    graphs = [two_community(20 + 4 * i, 6, 0.1, seed=i) for i in range(6)]
    views = [FailingView("metric", fail_on=(36, 24)), FailingView("tsvd", d=8, fail_on=(40, 20))]
    with pytest.raises(NumericError, match="^metric view failed on the 24-node graph$"):
        detector_eval(graphs[:4], graphs[4:], views)


class Interrupt(BaseException):
    """Raised the way ``KeyboardInterrupt`` is: not an ``Exception``."""


def test_an_interrupt_in_the_calling_thread_stops_the_other_workers_at_their_next_graph(
        monkeypatch):
    use_cpus(monkeypatch, 2, {"OPENBLAS_NUM_THREADS": "1"})
    graphs = make_corpus(8)
    caller = threading.get_ident()
    barrier = threading.Barrier(2, timeout=BARRIER_TIMEOUT_S)
    joining = threading.Event()  # set once the calling thread waits for the workers
    taken = []  # (thread, graph)
    featurize = DetectorView.featurize
    join = threading.Thread.join

    def interrupting(self, g):
        first = threading.get_ident() not in {t for t, _ in taken}
        taken.append((threading.get_ident(), id(g)))
        if first:
            barrier.wait()
            if threading.get_ident() == caller:
                raise Interrupt
            assert joining.wait(BARRIER_TIMEOUT_S)
        return featurize(self, g)

    def joining_join(self, timeout=None):
        joining.set()
        return join(self, timeout)

    monkeypatch.setattr(DetectorView, "featurize", interrupting)
    monkeypatch.setattr(threading.Thread, "join", joining_join)
    before = threading.active_count()
    with pytest.raises(Interrupt):
        featurize_graphs(graphs, [DetectorView("metric"), DetectorView("tsvd", d=8)])
    assert threading.active_count() == before
    # the caller's one graph, and the other worker's first for both views
    assert len({graph for _, graph in taken}) == 2
    assert sorted(t == caller for t, _ in taken) == [False, False, True]


def test_an_interrupt_in_a_helper_thread_is_raised_by_the_call(monkeypatch):
    # an abort lost with its thread would leave the helper's graph without
    # features, so it would drop out of the AUCs or count as rejected
    use_cpus(monkeypatch, 2, {"OPENBLAS_NUM_THREADS": "1"})
    graphs = make_corpus(8)
    caller = threading.get_ident()
    barrier = threading.Barrier(2, timeout=BARRIER_TIMEOUT_S)
    seen = set()
    featurize = DetectorView.featurize

    def interrupting(self, g):
        if threading.get_ident() not in seen:
            seen.add(threading.get_ident())
            barrier.wait()
            if threading.get_ident() != caller:
                raise Interrupt
        return featurize(self, g)

    monkeypatch.setattr(DetectorView, "featurize", interrupting)
    before = threading.active_count()
    with pytest.raises(Interrupt):
        featurize_graphs(graphs, [DetectorView("metric"), DetectorView("tsvd", d=8)])
    assert threading.active_count() == before


@pytest.mark.parametrize("settings", [{}, {"baseline": "rand"}, {"baseline": "greedy-triads"},
                                      {"target": "pole-unsym"}, {"target": "fextra-meta"},
                                      {"lam": 2.0, "eta": 5.0}],
                         ids=["None", "rand", "greedy-triads", "pole-unsym", "fextra-meta",
                              "fextra-ols-penalized"])
def test_poisoned_set_is_poisoned_by_the_configured_attack_or_baseline(settings):
    # the detect protocol poisons each seed's graph as an attack trial does
    g = geometric_polarized(60, k=8, noise=0.1, seed=2)
    cfg = ExperimentConfig(subsample=0, powers=(0.05, 0.10), seeds=(0, 1), **settings)
    want = [run_attack_trial(g, cfg, seed)[1].snapshots[p]
            for seed in cfg.seeds for p in cfg.powers]
    got = build_poisoned_set(g, cfg)
    assert [x.signs().tolist() for x in got] == [x.signs().tolist() for x in want]


def test_a_poisoned_set_runs_one_trial_per_seed(monkeypatch):
    # a seed's snapshots come from its one trial: one subsample, split and poisoning
    sampled = []
    monkeypatch.setattr(experiments, "subsample_graph",
                        lambda *args: sampled.append(args) or args[0])
    g = geometric_polarized(40, k=8, noise=0.1, seed=2)
    cfg = ExperimentConfig(subsample=0, powers=(0.05, 0.10), seeds=(3, 0, 1))
    assert len(build_poisoned_set(g, cfg)) == 6
    assert [seed for _, _, seed in sampled] == [3, 0, 1]


# The refusals below happen when a run's config is made, so no run function
# is ever reached with it: nothing is read, sampled or poisoned.
DETECT_CFG = ExperimentConfig(dataset="unread.csv", subsample=0, powers=(0.05,), seeds=(0,))


def test_poisoned_set_rejects_an_unknown_baseline():
    with pytest.raises(ConfigError, match="unknown baseline"):
        ExperimentConfig(subsample=0, powers=(0.05,), seeds=(0,), baseline="bogus")


@pytest.mark.parametrize("target,baseline,error",
                         [("bogus", "rand", "unknown attack target"),
                          ("fextra-ols", "bogus", "unknown baseline")],
                         ids=["target-with-baseline", "baseline"])
def test_detect_refuses_an_unknown_name_before_reading_or_sampling(target, baseline, error):
    # the unknown target with a baseline ran to the end, and the unknown
    # baseline was refused only after the clean corpus was sampled
    with pytest.raises(ConfigError, match=error):
        replace(DETECT_CFG, target=target, baseline=baseline)


@pytest.mark.parametrize("power", [-0.01, float("nan"), float("inf")])
def test_detect_refuses_an_unusable_power_before_reading_or_sampling(power):
    # a negative power raised KeyError only after the poisoned set was built
    with pytest.raises(ConfigError, match="attack power"):
        replace(DETECT_CFG, powers=(0.05, power))


@pytest.mark.parametrize("settings,error", [({"seeds": ()}, "at least one seed")],
                         ids=["no-seed"])
def test_detect_refuses_unusable_detector_settings_before_reading_or_sampling(settings, error):
    # the other detector settings no run can use are in test_config.py
    with pytest.raises(ConfigError, match=error):
        replace(DETECT_CFG, **settings)


def test_an_attack_experiment_without_a_seed_is_refused_before_reading():
    # it returned no rows, so the command wrote a CSV with only its header
    with pytest.raises(ConfigError, match="at least one seed"):
        ExperimentConfig(dataset="unread.csv", subsample=0, powers=(0.05,), seeds=())


def test_an_attack_experiment_returns_its_rows_and_each_seeds_trace():
    g = geometric_polarized(40, k=8, noise=0.2, seed=3)
    cfg = ExperimentConfig(subsample=0, powers=(0.05, 0.10), seeds=(1, 0))
    rows, traces = run_attack_experiment(cfg, g)
    assert [(r["seed"], r["power"]) for r in rows] == [(0, 0.05), (0, 0.10), (1, 0.05), (1, 0.10)]
    assert list(traces) == [1, 0]
    for seed in cfg.seeds:
        want_rows, want_trace, _ = run_attack_trial(g, cfg, seed)
        assert [r for r in rows if r["seed"] == seed] == want_rows
        assert traces[seed].flips == want_trace.flips


@pytest.mark.parametrize("t", [-1.0, float("nan")])
def test_detect_rejects_a_nonpositive_markov_time_before_poisoning(monkeypatch, t):
    trials = []
    monkeypatch.setattr(experiments, "run_trial", lambda *args, **kwargs: trials.append(args))
    cfg = ExperimentConfig(subsample=0, powers=(0.05,), seeds=(0,), t=t)
    with pytest.raises(NumericError, match="Markov time must be positive"):
        run_detect_experiment(cfg, geometric_polarized(30, k=6, noise=0.1, seed=0))
    assert trials == []


def test_the_run_config_and_a_detector_view_share_the_detector_defaults():
    cfg, view = ExperimentConfig(), DetectorView("tsvd")
    assert (cfg.nu, cfg.gamma, cfg.embed_dim) == (view.nu, view.gamma, view.d)


def test_an_unknown_view_kind_raises_config_error_when_it_featurizes():
    with pytest.raises(ConfigError, match="unknown view kind 'bogus'"):
        DetectorView("bogus").featurize(two_community(20, 6, 0.1, seed=0))


def test_an_ocsvm_fit_out_of_passes_raises_numeric_error_naming_the_kkt_gap(monkeypatch):
    monkeypatch.setattr(detectors, "OCSVM_PASSES_PER_ROW", 0)
    X = np.random.default_rng(0).normal(size=(10, 3))
    with pytest.raises(NumericError, match=r"did not converge \(KKT gap inf\)"):
        ocsvm_fit(X)
