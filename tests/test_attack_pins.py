"""Flip sequences of every attack, pinned on small seeded instances.

Each case runs one attack to a budget of ``BUDGET`` flips on a seeded
``geometric_polarized`` graph and pins its flips, their gains, its loss
curve and its snapshot signs. The FeXtra and POLE cases pin the gradient
attacks against the converged logistic victim; the two ``-penalized``
cases pin the lambda and eta terms on FeXtra and on POLE. A change that
moves a value re-records it in the same change and logs the old and new
value in CHANGES.md. ``test_cases_cover_every_attack`` keeps ``CASES`` in
step with ``attacks.TARGETS``.
Every value must be reproduced exactly.
"""

import pytest

from signedattack.attacks import (TARGETS, baseline_greedy_triads, baseline_rand, flip_attack,
                                  victim_model_kind)
from signedattack.graph import split_edges
from synthgraphs import geometric_polarized

BUDGET = 6

# name -> (attack, graph seed, config overrides)
CASES = {
    "fextra-ols": ("fextra-ols", 0, {}),
    "fextra-ols-penalized": ("fextra-ols", 1, {"lam": 2.0, "eta": 5.0}),
    "fextra-meta": ("fextra-meta", 2, {}),
    "pole-unsym": ("pole-unsym", 5, {}),
    "pole-unsym-penalized": ("pole-unsym", 4, {"lam": 2.0, "eta": 5.0}),
    "rand": ("rand", 6, {}),
    "greedy-triads": ("greedy-triads", 7, {}),
}


def run_case(name):
    attack, seed, overrides = CASES[name]
    g = geometric_polarized(20, k=6, noise=0.1, seed=seed)
    split = split_edges(g, 0.15, seed=seed)
    powers = (3 / g.num_edges, BUDGET / g.num_edges)
    if attack == "rand":
        trace = baseline_rand(g, split, BUDGET, seed=seed)
    elif attack == "greedy-triads":
        trace = baseline_greedy_triads(g, split, BUDGET)
    else:
        trace = flip_attack(g, split, attack, BUDGET, **overrides)
    return {
        "flips": [(u, v, step) for u, v, step, _ in trace.flips],
        "gains": [gain for *_, gain in trace.flips],
        "loss": list(trace.loss_curve),
        "snapshots": ["".join("+" if s > 0 else "-" for s in trace.poisoned(g, p).signs())
                      for p in powers],
    }


PINNED = {'fextra-meta': {'flips': [(14, 17, 0), (0, 17, 1), (10, 11, 2), (0, 19, 3), (1, 19, 4),
                           (9, 11, 5)],
                 'gains': [1.4857101121751333, 1.4916237792691562, 2.0405374092858093,
                           3.3220775378198732, 4.008700033493419, 3.3818080180151107],
                 'loss': [-1.456209634603534, -3.051082885161883, -4.650041319486104,
                          -6.999911065299873, -8.806308720378246, -9.956677818916283],
                 'snapshots': ['++++--+++--+++-+++++++++++++++++-+-++--+++++++++++++-+++++++',
                               '++++-++++-++++-+++++++++++++++++-++++--+++++++++++++-+++++++']},
 'fextra-ols': {'flips': [(0, 1, 0), (11, 12, 1), (13, 14, 2), (8, 9, 3), (9, 10, 4), (10, 12, 5)],
                'gains': [3.386257796742184, 5.946214133596408, 6.442496470784658,
                          8.896612962274622, 3.3712706771660534, 2.698182682927448],
                'loss': [-2.5932867972891698, -6.632077726245455, -11.296958966435989,
                         -14.827110055259794, -7.29744082409911, -5.542836414268666],
                'snapshots': ['+++---+++--+++-++++++++-+-----++++-+++++++++++++-+++++++++++',
                              '+++---+++--+++-++++++++-+------++--++-++++++++++-+++++++++++']},
 'fextra-ols-penalized': {'flips': [(16, 18, 0), (12, 14, 1), (14, 17, 2), (13, 15, 3),
                                    (16, 19, 4), (16, 17, 5)],
                          'gains': [1.7114055113610909, 3.4944275809088303, 2.714864640592457,
                                    5.846913843611497, 5.209860611830468, 4.307575797606102],
                          'loss': [-2.557308559338811, -3.1121971244327264, -3.227734354112278,
                                   -9.111521488630089, -10.46000692633818, -12.768724440053349],
                          'snapshots': ['+++-+-+++--+++-+++++++-++-+++++++++-+----++-+++-++-++++-++++',
                                        '+++-+-+++--+++-+++++++-++-+++++++++-+----++-++--++-+++---+++']},
 'greedy-triads': {'flips': [(13, 14, 0), (0, 19, 1), (6, 7, 2), (11, 12, 3), (2, 3, 4),
                             (7, 10, 5)],
                   'gains': [4.0, 3.0, 3.0, 3.0, 2.0, 2.0],
                   'loss': [],
                   'snapshots': ['+++--+--+--+++-+++-+++++------++-+++++-++++++-+++++++-++++++',
                                 '+++--+--+---++-+++-+++++-----+++-+++++--+++++-+++++++-++++++']},
 'pole-unsym': {'flips': [(7, 9, 0), (6, 8, 1), (2, 5, 2), (10, 11, 3), (9, 11, 4), (5, 8, 5)],
                'gains': [0.4507392179217505, 0.27688218792125824, 0.16995007292529138,
                          0.16962734069722302, 0.2558337674858351, 0.1751221383074447],
                'loss': [-5.883234605009081, -6.385233066147612, -6.6771443793673395,
                         -6.8533758245413745, -7.060362319109677, -7.299276657612686],
                'snapshots': ['+++----++--++---+-+++++++-++-+++-++-+--+++++++++++++++++++++',
                              '+++----++--++---+-+++++-+-++-+++-+-----+++++++++++++++++++++']},
 'pole-unsym-penalized': {'flips': [(0, 19, 0), (0, 17, 1), (8, 10, 2), (7, 10, 3), (2, 19, 4),
                                    (5, 7, 5)],
                          'gains': [0.3549440297897454, 0.2846983944940199, 0.2650205885447311,
                                    0.23414802903255472, 0.2217925463094303, 0.21361606499001154],
                          'loss': [-5.554599209602593, -6.045868224212573, -6.166747361272919,
                                   -6.54524506255731, -6.703358965010247, -6.839679762567161],
                          'snapshots': ['++++-+++++-+++-+++++-+-----++++-+++++-+++++++++++++++++++-++',
                                        '++++-+++++-+++++++++-++----++-+-+++++-+++++++++++++++++++-++']},
 'rand': {'flips': [(5, 8, 0), (6, 8, 1), (7, 10, 2), (16, 17, 3), (8, 9, 4), (5, 6, 5)],
          'gains': [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
          'loss': [],
          'snapshots': ['+++---+++--+++-++++++++-+-++-++-+----++++++-++++++++++++++++',
                        '+++---+++--+++-++++++-+-+-++-+--+----++++++-++++++++++-+++++']}}


@pytest.mark.parametrize("name", sorted(CASES))
def test_flip_sequence_pinned(name):
    got, want = run_case(name), PINNED[name]
    assert got["flips"] == want["flips"]
    assert got["snapshots"] == want["snapshots"]
    assert got["gains"] == want["gains"]
    assert got["loss"] == want["loss"]


def test_cases_cover_every_attack():
    # a target added without a pin, or a pin left behind by a deleted
    # target, fails here; so does a victim without a penalized pin
    attacks = {attack for attack, _, _ in CASES.values()}
    assert attacks == set(TARGETS) | {"rand", "greedy-triads"}
    penalized = {victim_model_kind(attack) for attack, _, overrides in CASES.values()
                 if overrides}
    assert penalized == {victim_model_kind(target) for target in TARGETS}
