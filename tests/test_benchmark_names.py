"""The traced benchmark run wraps program functions by name.

``perfbench/layers.py`` lists each traced layer as an (owner, attribute)
pair, and the benchmark also wraps ``attacks.make_attack_loss``. A rename
that drops one of them would otherwise show up only in the slow benchmark
smoke test.
"""

import importlib.util
from pathlib import Path

import pytest

from signedattack import attacks

_spec = importlib.util.spec_from_file_location(
    "perfbench_layers", Path(__file__).resolve().parents[1] / "perfbench" / "layers.py")
layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layers)

TRACED = [(name, owner, attr) for name, owner, attr in layers.LAYERS]
TRACED.append(("attacks.loss", attacks, "make_attack_loss"))


@pytest.mark.parametrize("name, owner, attr", TRACED, ids=[f"{n}:{a}" for n, _, a in TRACED])
def test_traced_name_resolves(name, owner, attr):
    assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr} is gone"
