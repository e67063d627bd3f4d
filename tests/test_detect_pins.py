"""Detect-run outputs, pinned on a small seeded dataset.

The expected values were recorded when each single-view AUC came from its
own ``detector_eval`` call, which featurized every graph again. They must be
reproduced exactly. The featurize count pins one featurization per graph
per view, shared by fitting and scoring.
"""

from dataclasses import replace

import pytest

from signedattack.detectors import DetectorView
from signedattack.experiments import ExperimentConfig, build_poisoned_set, run_detect_experiment
from signedattack.graph import sample_subgraph_corpus
from synthgraphs import geometric_polarized

# strategy -> (summary, rows as (graph, label, combined, view_metric, view_tsvd))
PINNED = {
    "max": ({"metric_auc": 1.0, "tsvd_auc": 0.0, "ensemble_max_auc": 0.53125},
            [(0, 1, 0.8347224834622258, 0.8347224834622258, 2.2054815096338834e-07),
             (1, 1, 0.8639701626172824, 0.8639701626172824, 6.351898336999951e-06),
             (2, 1, 0.9177167948377876, 0.9177167948377876, 3.6740387358626615e-06),
             (3, 1, 0.834722483462226, 0.834722483462226, 3.7903806461516126e-06),
             (4, 1, 0.9672154299031224, 0.9672154299031224, 8.652411128402912e-06),
             (5, 1, 1.0, 1.0, 8.652411127586984e-06),
             (6, 1, 0.8347210843154315, 0.8347210843154315, 0.0),
             (7, 1, 0.846813058601819, 0.846813058601819, 0.17080650999633248),
             (8, -1, 0.6119537032710142, 0.5701569009329123, 0.6119537032710142),
             (9, -1, 1.0, 0.0, 1.0)]),
    "mean": ({"metric_auc": 1.0, "tsvd_auc": 0.0, "ensemble_mean_auc": 0.125},
             [(0, 1, 0.41736135200518837, 0.8347224834622258, 2.2054815096338834e-07),
              (1, 1, 0.4319882572578097, 0.8639701626172824, 6.351898336999951e-06),
              (2, 1, 0.45886023443826174, 0.9177167948377876, 3.6740387358626615e-06),
              (3, 1, 0.41736313692143606, 0.834722483462226, 3.7903806461516126e-06),
              (4, 1, 0.48361204115712536, 0.9672154299031224, 8.652411128402912e-06),
              (5, 1, 0.5000043262055638, 1.0, 8.652411127586984e-06),
              (6, 1, 0.41736054215771573, 0.8347210843154315, 0.0),
              (7, 1, 0.5088097842990758, 0.846813058601819, 0.17080650999633248),
              (8, -1, 0.5910553021019632, 0.5701569009329123, 0.6119537032710142),
              (9, -1, 0.5, 0.0, 1.0)]),
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
