"""Flip sequences of every attack, pinned on small seeded instances.

The FeXtra and baseline values were recorded when each attack had its own
loop. The POLE values were recorded once the attack loss normalized R by its
own diagonal (the cosine of an exact factor) instead of by the row norms of
an unrolled gradient-descent factor. Every value must be reproduced exactly.
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
        cfg = AttackConfig(budget=BUDGET, seed=seed, checkpoints=checkpoints, **overrides)
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
 'pole-sym': {'flips': [(5, 6, 0), (0, 2, 1), (0, 19, 2), (17, 19, 3), (4, 6, 4), (5, 8, 5)],
              'gains': [0.23925525653379115, 0.2244657191798729, 0.3168103387449824,
                        0.20820291285320305, 0.17491567884961984, 0.15408843473467929],
              'loss': [-6.532517735960287, -6.798753549945656, -7.057377734084394,
                       -7.370571821649889, -7.602629599639403, -7.779290689785264],
              'snapshots': ['--+--+++++-++--++-+++-++++++++++-+-----++++++++++++++++++++-',
                            '--+--+++++-++--++-+-+-+-++++++++-+-----+++++++++++++++++++--']},
 'pole-sym-penalized': {'flips': [(0, 19, 0), (0, 17, 1), (2, 19, 2), (8, 10, 3), (7, 10, 4),
                                  (10, 13, 5)],
                        'gains': [0.35436145711790595, 0.2904110080356441, 0.25599341204930975,
                                  0.22117169204332984, 0.30663796068497046, 0.21314058853079984],
                        'loss': [-6.113775303593093, -6.599882489139141, -6.7305279010787755,
                                 -6.895858355504421, -7.172869813593889, -7.399608864935772],
                        'snapshots': ['++++-+++++-+++++++++-+-----++++++++++-+++++++++++++++++++-++',
                                      '++++-+++++-+++++++++-+-----++-+-+++++--++++++++++++++++++-++']},
 'pole-unsym': {'flips': [(8, 9, 0), (11, 13, 1), (6, 7, 2), (11, 14, 3), (2, 5, 4), (2, 19, 5)],
                'gains': [0.4923978907585948, 0.3701800016370413, 0.2812484425012668,
                          0.1713383456831615, 0.17034643116636483, 0.13572218423387142],
                'loss': [-6.154175459994191, -6.694865283476062, -7.069988613967629,
                         -7.377335919031211, -7.538480514648483, -7.71442866749869],
                'snapshots': ['+++----++--+++--+-++++++-+++++-+-++-+--+-+++++++++++++++++++',
                              '+++----++--++-+-+-++++++-+++++-+-++-+--+--++++++++++++++++++']},
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
