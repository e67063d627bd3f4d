"""Detect-run outputs, pinned on a small seeded dataset.

The expected values were recorded once the FeXtra victim, whose
self-labels drive the ``fextra-ols`` poisoning, was the converged logistic
fit. The ``view_tsvd`` column, and the ``combined`` values that read it,
were re-recorded when the TSVD feature moved from a dense SVD to the
adjacency's eigendecomposition, which moves the normalized scores in their
last digits (about 5e-15); the summaries and ``view_metric`` did not move.
They must be reproduced exactly. The featurize count pins one
featurization per graph per view, shared by fitting and scoring.
"""

from dataclasses import replace

import pytest

from signedattack.detectors import DetectorView
from signedattack.experiments import ExperimentConfig, build_poisoned_set, run_detect_experiment
from signedattack.graph import sample_subgraph_corpus
from synthgraphs import geometric_polarized

# strategy -> (summary, rows as (graph, label, combined, view_metric, view_tsvd))
PINNED = {
    "max": ({"metric_auc": 1.0, "tsvd_auc": 0.5, "ensemble_max_auc": 0.53125},
            [(0, 1, 0.8742913898264308, 0.8742913898264308, 0.5942489437735974),
             (1, 1, 0.8965369146528178, 0.8965369146528178, 0.5942511916159683),
             (2, 1, 0.9374161254461715, 0.9374161254461715, 0.594250209873597),
             (3, 1, 0.8742913898264311, 0.8742913898264311, 0.594250252526237),
             (4, 1, 0.9750643473574064, 0.9750643473574064, 0.5942520350174973),
             (5, 1, 1.0, 1.0, 0.5942520350174979),
             (6, 1, 0.8742903256478141, 0.8742903256478141, 0.5942488629174304),
             (7, 1, 0.883487373822536, 0.883487373822536, 0.6568690197740468),
             (8, -1, 1.0, 0.0846998982007509, 1.0),
             (9, -1, 0.0, 0.0, 0.0)]),
    "mean": ({"metric_auc": 1.0, "tsvd_auc": 0.5, "ensemble_mean_auc": 1.0},
             [(0, 1, 0.7342701668000141, 0.8742913898264308, 0.5942489437735974),
              (1, 1, 0.745394053134393, 0.8965369146528178, 0.5942511916159683),
              (2, 1, 0.7658331676598842, 0.9374161254461715, 0.594250209873597),
              (3, 1, 0.734270821176334, 0.8742913898264311, 0.594250252526237),
              (4, 1, 0.784658191187452, 0.9750643473574064, 0.5942520350174973),
              (5, 1, 0.7971260175087489, 1.0, 0.5942520350174979),
              (6, 1, 0.7342695942826223, 0.8742903256478141, 0.5942488629174304),
              (7, 1, 0.7701781967982914, 0.883487373822536, 0.6568690197740468),
              (8, -1, 0.5423499491003755, 0.0846998982007509, 1.0),
              (9, -1, 0.0, 0.0, 0.0)]),
}


@pytest.fixture(scope="module")
def detect_inputs():
    dataset = geometric_polarized(80, k=10, noise=0.05, seed=0)
    cfg = ExperimentConfig(subsample=60, seeds=(0,), powers=(0.05, 0.10),
                           target="fextra-ols", corpus_sizes=(45, 55), corpus_per_size=4,
                           corpus_seed=1, embed_dim=8)
    corpus = sample_subgraph_corpus(dataset, cfg.corpus_sizes, cfg.corpus_per_size,
                                    cfg.corpus_seed)
    return cfg, dataset, corpus, build_poisoned_set(dataset, cfg)


@pytest.mark.parametrize("strategy", sorted(PINNED))
def test_detect_run_matches_pinned(detect_inputs, strategy):
    cfg, dataset, corpus, poisoned = detect_inputs
    summary, rows, views = run_detect_experiment(replace(cfg, strategy=strategy), dataset,
                                                 corpus, poisoned)
    want_summary, want_rows = PINNED[strategy]
    assert summary == want_summary
    assert list(summary) == list(want_summary)
    assert [(r["graph"], r["label"], r["combined"], r["view_metric"], r["view_tsvd"])
            for r in rows] == want_rows
    assert [v.kind for v in views] == ["metric", "tsvd"]


def test_detect_run_featurizes_each_graph_once_per_view(detect_inputs, monkeypatch):
    cfg, dataset, corpus, poisoned = detect_inputs
    calls = {}
    featurize = DetectorView.featurize

    def counting(self, g):
        calls[self.kind] = calls.get(self.kind, 0) + 1
        return featurize(self, g)

    monkeypatch.setattr(DetectorView, "featurize", counting)
    run_detect_experiment(cfg, dataset, corpus, poisoned)
    expected = len(corpus.graphs) + len(poisoned)
    assert calls == {"metric": expected, "tsvd": expected}
