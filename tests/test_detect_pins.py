"""Detect-run outputs, pinned on a small seeded dataset.

The expected values were recorded once the FeXtra victim, whose
self-labels drive the ``fextra-ols`` poisoning, was the converged logistic
fit. The score columns were re-recorded when a view's score became its
decision divided by the fitted offset rho instead of a min-max over the
scored set; ``metric_auc`` and ``tsvd_auc`` did not move and
``ensemble_max_auc`` went from 0.53125 to 0.5. Clean graphs on a view's
margin score within about 1e-6 of 0, the dual solver's tolerance.
They must be reproduced exactly. The featurize count pins one
featurization per graph per view, shared by fitting and scoring.
"""

from collections import Counter
from dataclasses import replace

import pytest

from signedattack.detectors import DetectorView
from signedattack.experiments import ExperimentConfig, build_poisoned_set, run_detect_experiment
from signedattack.graph import sample_subgraph_corpus
from synthgraphs import geometric_polarized

# strategy -> (summary, rows as (graph, label, combined, view_metric, view_tsvd))
PINNED = {
    "max": ({"metric_auc": 1.0, "tsvd_auc": 0.5, "ensemble_max_auc": 0.5},
            [(0, 1, 3.9138467578043717e-07, 3.9138467578043717e-07, -1.065177333352613e-06),
             (1, 1, 0.024544835515009775, 0.024544835515009775, 4.6905500372555786e-07),
             (2, 1, 0.06964862664784302, 0.06964862664784302, -2.0101906920424695e-07),
             (3, 1, 3.9138467598619455e-07, 3.9138467598619455e-07, -1.719071259938244e-07),
             (4, 1, 0.11118752880989212, 0.11118752880989212, 1.0447065332557089e-06),
             (5, 1, 0.13870010663919008, 0.13870010663919008, 1.0447065336640442e-06),
             (6, 1, -7.827693534126908e-07, -7.827693534126908e-07, -1.1203645420946265e-06),
             (7, 1, 0.042739363063828126, 0.010146715968041653, 0.042739363063828126),
             (8, -1, 0.27693845661908845, -0.8711898548892851, 0.27693845661908845),
             (9, -1, -0.40559709700839, -0.964642894790927, -0.40559709700839)]),
    "mean": ({"metric_auc": 1.0, "tsvd_auc": 0.5, "ensemble_mean_auc": 1.0},
             [(0, 1, -3.3689632878608795e-07, 3.9138467578043717e-07, -1.065177333352613e-06),
              (1, 1, 0.012272652285006751, 0.024544835515009775, 4.6905500372555786e-07),
              (2, 1, 0.034824212814386905, 0.06964862664784302, -2.0101906920424695e-07),
              (3, 1, 1.0973877499618507e-07, 3.9138467598619455e-07, -1.719071259938244e-07),
              (4, 1, 0.05559428675821269, 0.11118752880989212, 1.0447065332557089e-06),
              (5, 1, 0.06935057567286187, 0.13870010663919008, 1.0447065336640442e-06),
              (6, 1, -9.515669477536587e-07, -7.827693534126908e-07, -1.1203645420946265e-06),
              (7, 1, 0.02644303951593489, 0.010146715968041653, 0.042739363063828126),
              (8, -1, -0.29712569913509834, -0.8711898548892851, 0.27693845661908845),
              (9, -1, -0.6851199958996586, -0.964642894790927, -0.40559709700839)]),
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
    calls = []  # appended to, as graphs may be featurized on several threads
    featurize = DetectorView.featurize

    def counting(self, g):
        calls.append(self.kind)
        return featurize(self, g)

    monkeypatch.setattr(DetectorView, "featurize", counting)
    run_detect_experiment(cfg, dataset, corpus, poisoned)
    expected = len(corpus) + len(poisoned)
    assert Counter(calls) == {"metric": expected, "tsvd": expected}
