"""The traced benchmark run wraps program functions by name.

``perfbench/layers.py`` lists each traced layer as an (owner, attribute)
pair, and the benchmark also wraps ``attacks.make_attack_loss``. A rename
that drops one of them would otherwise show up only in the slow benchmark
smoke test. A layer whose name resolves but that no program path calls any
more reads a structural 0, so the layers a ``fextra-ols`` step, a
``pole-unsym`` trial and a ``fextra-meta`` step must run are also counted on
small attacks.
"""

import importlib.util
from pathlib import Path

import pytest

from signedattack import attacks
from signedattack.attacks import AttackConfig, flip_attack, self_train_labels
from signedattack.experiments import ExperimentConfig, run_attack_trial
from signedattack.graph import split_edges
from synthgraphs import two_community

_spec = importlib.util.spec_from_file_location(
    "perfbench_layers", Path(__file__).resolve().parents[1] / "perfbench" / "layers.py")
layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layers)

TRACED = [(name, owner, attr) for name, owner, attr in layers.LAYERS]
TRACED.append(("attacks.loss", attacks, "make_attack_loss"))


@pytest.mark.parametrize("name, owner, attr", TRACED, ids=[f"{n}:{a}" for n, _, a in TRACED])
def test_traced_name_resolves(name, owner, attr):
    assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr} is gone"


def test_a_fextra_ols_step_runs_the_fit_the_features_and_one_backward():
    g = two_community(60, 8, 0.1, seed=4)
    split = split_edges(g, 0.1, seed=4)
    y_hat = self_train_labels("fextra", g, split)
    tracer = layers.Tracer()
    with layers.Patches() as patches:
        tracer.install(patches)
        trace = flip_attack(g, split, "fextra-ols", AttackConfig(budget=4), y_hat)
    assert len(trace.flips) == 4
    for name in ("fextra.ols", "fextra.features", "tape.backward"):
        assert tracer.calls[name] == 4, name


def test_a_pole_trial_and_a_fextra_meta_step_reach_the_shared_head_and_the_walk():
    # both victims end in one logistic head; the POLE victim and every POLE
    # step walk through the one eigenbasis exponential
    g = two_community(40, 6, 0.1, seed=4)
    cfg = ExperimentConfig(target="pole-unsym", subsample=0, powers=(0.05,), seeds=(0,))
    tracer = layers.Tracer()
    with layers.Patches() as patches:
        tracer.install(patches)
        _, trace, _ = run_attack_trial(g, cfg, 0)
    # the clean fit and one retrain, each over the signed and the unsigned walk
    assert tracer.calls["pole.predict"] == tracer.calls["fextra.lr_train"] == 2
    assert tracer.calls["linalg.sym_matrix_exp"] == 4 + len(trace.flips) > 4

    split = split_edges(g, 0.1, seed=4)
    y_hat = self_train_labels("fextra", g, split)
    tracer = layers.Tracer()
    with layers.Patches() as patches:
        tracer.install(patches)
        flip_attack(g, split, "fextra-meta", AttackConfig(budget=2), y_hat)
    assert tracer.calls["fextra.lr_train"] == 2
