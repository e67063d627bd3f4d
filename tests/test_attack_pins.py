"""Flip sequences of every attack, pinned on small seeded instances.

The expected values were recorded when each attack had its own loop and
``unsym`` walks used the Taylor-series exponential. They must be reproduced
exactly, except the ``pole-unsym`` gains and losses: that walk now comes from
the symmetric eigendecomposition, which agrees with Taylor to rounding.
"""

import pytest

from signedattack.attacks import (AttackConfig, baseline_greedy_triads, baseline_rand,
                                  flip_attack)
from signedattack.graph import split_edges
from synthgraphs import geometric_polarized

BUDGET = 6

# name -> (attack, graph seed, config overrides)
CASES = {
    "fextra-ols": ("fextra-ols", 0, {}),
    "fextra-ols-penalized": ("fextra-ols", 1, {"lam": 2.0, "eta": 5.0}),
    "fextra-meta": ("fextra-meta", 2, {"inner_iters": 30}),
    "pole-sym": ("pole-sym", 3, {}),
    "pole-sym-penalized": ("pole-sym", 4, {"lam": 2.0, "eta": 5.0}),
    "pole-unsym": ("pole-unsym", 5, {}),
    "rand": ("rand", 6, {}),
    "greedy-triads": ("greedy-triads", 7, {}),
}


def run_case(name):
    attack, seed, overrides = CASES[name]
    g = geometric_polarized(20, k=6, noise=0.1, seed=seed)
    split = split_edges(g, 0.15, seed=seed)
    checkpoints = (3 / g.num_edges, BUDGET / g.num_edges)
    if attack == "rand":
        trace = baseline_rand(g, split, BUDGET, seed=seed, checkpoints=checkpoints)
    elif attack == "greedy-triads":
        trace = baseline_greedy_triads(g, split, BUDGET, checkpoints=checkpoints)
    else:
        cfg = AttackConfig(budget=BUDGET, seed=seed, factor_dim=8, factor_iters=20,
                           checkpoints=checkpoints, **overrides)
        trace = flip_attack(g, split, attack, cfg)
    return {
        "flips": [(u, v, step) for u, v, step, _ in trace.flips],
        "gains": [gain for *_, gain in trace.flips],
        "loss": list(trace.loss_curve),
        "snapshots": ["".join("+" if s > 0 else "-" for s in trace.snapshots[p].signs())
                      for p in checkpoints],
    }


PINNED = {'fextra-meta': {'flips': [(13, 14, 0), (8, 11, 1), (5, 6, 2), (1, 18, 3), (0, 18, 4),
                           (15, 16, 5)],
                 'gains': [0.14057694843584279, 0.0918796286224628, 0.08395462781870151,
                           0.06322990256492846, 0.10695422848373765, 0.09008280257619032],
                 'loss': [-0.6555306465610601, -0.5644909809507329, -0.5875308092982768,
                          -0.6545830380901024, -0.6487842071755519, -0.6446478521714765],
                 'snapshots': ['+++---+++--+++-++++++-++++++++++++-+---++++++-++++-+-+++++++',
                               '+++-+-++++-+++-++++++-++++++++++++-+---++++++-++++---+++++++']},
 'fextra-ols': {'flips': [(0, 1, 0), (13, 14, 1), (11, 12, 2), (17, 19, 3), (18, 19, 4),
                          (6, 9, 5)],
                'gains': [4.731644816881977, 8.141803882599211, 13.702112603050693,
                          8.868088577822204, 8.412118154844455, 13.754111027169914],
                'loss': [-9.444142836067387, -11.669181926732021, -11.879072614541197,
                         -17.735249478267768, -12.15366325567295, -17.550412858776802],
                'snapshots': ['+++---+++--+++-++++++++-+-----++++-+++++++++++++-+++++++++++',
                              '+++---+++--+++-++++++++-+-+---++++-+++++++++++++-+++++++++--']},
 'fextra-ols-penalized': {'flips': [(16, 18, 0), (8, 9, 1), (10, 11, 2), (2, 5, 3), (6, 9, 4),
                                    (14, 15, 5)],
                          'gains': [1.2349633243367406, 2.263746184112846, 5.5825378796304115,
                                    4.539469805941588, 5.758092445550252, 7.664533486871939],
                          'loss': [-1.328062864610073, -2.438662913266554, -6.328366271465418,
                                   -8.995812973518653, -9.651784593070591,
                                   -10.204410273080951],
                          'snapshots': ['+++-+-+++--+++-+++++++-++-++++-++++------++++++-+++++++-++++',
                                        '+++-+-+++--++--+++++++-++--+++-++++------++++++--++++++-++++']},
 'greedy-triads': {'flips': [(13, 14, 0), (0, 19, 1), (6, 7, 2), (11, 12, 3), (2, 3, 4),
                             (7, 10, 5)],
                   'gains': [4.0, 3.0, 3.0, 3.0, 2.0, 2.0],
                   'loss': [],
                   'snapshots': ['+++--+--+--+++-+++-+++++------++-+++++-++++++-+++++++-++++++',
                                 '+++--+--+---++-+++-+++++-----+++-+++++--+++++-+++++++-++++++']},
 'pole-sym': {'flips': [(12, 13, 0), (9, 12, 1), (5, 6, 2), (5, 8, 3), (0, 2, 4), (12, 15, 5)],
              'gains': [0.017408696088468106, 0.013760885002736303, 0.01250515155958298,
                        0.007620274832047362, 0.006979138282864619, 0.006979077684902261],
              'loss': [-6.231242048731996, -6.248966174594507, -6.264003485732226,
                       -6.27658091550235, -6.284742202923187, -6.292264807013895],
              'snapshots': ['-++---++++-++--++-+++-++++++++++-+-+---+++-++++++++++++++++-',
                            '--+---++++-++--++-+++-+-++++++++-+-+---+++-+-++++++++++++++-']},
 'pole-sym-penalized': {'flips': [(17, 18, 0), (10, 12, 1), (0, 18, 2), (0, 17, 3),
                                  (17, 19, 4), (5, 7, 5)],
                        'gains': [0.19464926971967525, 0.12409314010815164,
                                  0.03203625946424894, 0.06441135328631459,
                                  0.09208463647481185, 0.01050642136574974],
                        'loss': [-6.226088393688187, -6.196961089468626, -6.184793979615813,
                                 -6.219358222196033, -6.225801689553041, -6.267087177264338],
                        'snapshots': ['+++-+-++++-+++-+++++-+-----+++++++++++++++++++++++++++++++++',
                                      '+++++-++++-+++-+++++-++----+++++++++++++++++++++++++++++++-+']},
 'pole-unsym': {'flips': [(8, 9, 0), (11, 13, 1), (6, 7, 2), (0, 17, 3), (2, 5, 4),
                          (17, 19, 5)],
                'gains': [0.02163928944968437, 0.015170445048574998, 0.012381029855343187,
                          0.01233099246719459, 0.010674658648939728, 0.009186130396677874],
                'loss': [-6.232081978117918, -6.254037059170013, -6.270465696306611,
                         -6.283124558488661, -6.294875551322658, -6.305927556567566],
                'snapshots': ['+++----++--+++--+-++++++-+++++-+-++-+--+-+++++++++++++++++++',
                              '++++---++--++---+-++++++-+++++-+-++-+--+-+++++++++++++++++-+']},
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
    if name == "pole-unsym":
        assert got["gains"] == pytest.approx(want["gains"], rel=1e-9)
        assert got["loss"] == pytest.approx(want["loss"], rel=1e-9)
    else:
        assert got["gains"] == want["gains"]
        assert got["loss"] == want["loss"]
