"""Settings no run can use, each refused when an ``ExperimentConfig`` is made.

A config checks itself in ``__post_init__``, so the run functions never see
one of these: making it, directly or by ``dataclasses.replace``, raises
``ConfigError`` with the message in the table. The command-line exit codes
for the same settings are tested in ``test_cli.py``.
"""

from dataclasses import replace

import pytest

from signedattack.errors import ConfigError
from signedattack.experiments import ExperimentConfig

# case -> (settings, the message ConfigError must match)
UNUSABLE = {
    # attack settings
    "target-bogus": ({"target": "bogus"}, "unknown attack target"),
    "target-pole-sym": ({"target": "pole-sym"}, "unknown attack target"),
    "target-bogus-with-rand": ({"target": "bogus", "baseline": "rand"}, "unknown attack target"),
    "baseline-bogus": ({"baseline": "bogus"}, "unknown baseline"),
    "power-negative": ({"powers": (0.05, -0.05)}, "attack power"),
    "power-nan": ({"powers": (0.05, float("nan"))}, "attack power"),
    "power-inf": ({"powers": (0.05, float("inf"))}, "attack power"),
    "power-string": ({"powers": (0.05, "0.05")}, "config key 'powers' must be a list of numbers"),
    "no-seed": ({"seeds": ()}, "at least one seed"),
    # detector settings
    "strategy-bogus": ({"strategy": "bogus"}, "unknown ensemble strategy"),
    "nu-0": ({"nu": 0.0}, "nu must be"),
    "nu-2": ({"nu": 2.0}, "nu must be"),
    "gamma-negative": ({"gamma": -1.0}, "gamma must be"),
    "gamma-inf": ({"gamma": float("inf")}, "gamma must be"),
    "embed-dim-negative": ({"embed_dim": -1}, "embed_dim must be"),
    "embed-dim-0": ({"embed_dim": 0}, "embed_dim must be"),
    "one-corpus-graph": ({"corpus_sizes": (40,), "corpus_per_size": 1}, "at least 2 graphs"),
    "corpus-seed-negative": ({"corpus_seed": -1}, "corpus_seed must be"),
    "corpus-size-0": ({"corpus_sizes": (0, 40)}, "corpus sizes must be"),
}


@pytest.mark.parametrize("settings,error", UNUSABLE.values(), ids=UNUSABLE)
def test_an_unusable_config_is_refused_when_made(settings, error):
    with pytest.raises(ConfigError, match=error):
        ExperimentConfig(**settings)
    with pytest.raises(ConfigError, match=error):
        replace(ExperimentConfig(), **settings)
