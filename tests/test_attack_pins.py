"""Flip sequences of every attack, pinned on small seeded instances.

The baseline values were recorded when each attack had its own loop. The
FeXtra and POLE values were recorded once both victims were the converged
logistic fit (which sets the self-labels of every gradient attack, and the
fit that ``fextra-meta`` differentiates) and the polarization penalty ran on
the row-normalized walk. The ``fextra-ols-penalized`` gains were
re-recorded when the feature map moved from dense products to group sums
over the links: the penalty and the base gradient now add up in another
order, which moved its first gain by one ulp. They were re-recorded again
when the attacks moved from a dense adjacency leaf to the sign vector: the
penalty's and the feature map's gradients are now summed per link, not per
adjacency entry. Gain 0 went 1.7114055113610909 -> 1.7114055113610906 (its
value before the move to group sums) and gain 4 went 5.209860611830469 ->
5.209860611830468, one ulp each. The ``pole-sym-penalized`` gain 4 was
re-recorded when the polarization penalty became the detector's exact
polarization (mean over the nodes whose correlation is defined, no variance
floor, means taken by dividing by the count): 0.24885717953390782 ->
0.24885717953390785, one ulp; its flips, losses and snapshots did not move.
Both penalized cases were re-recorded when the lambda term moved from the
dense trace to wedge sums over the sign vector and a POLE step started
sharing one dense adjacency between its loss and the eta term: the
``fextra-ols-penalized`` gain 0 went 1.7114055113610906 -> 1.7114055113610909
and the ``pole-sym-penalized`` gain 5 went 0.2166257739135554 ->
0.21662577391355536, one ulp each; flips, losses and snapshots did not move.
Every value must be reproduced exactly.
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
    "fextra-meta": ("fextra-meta", 2, {}),
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
        cfg = AttackConfig(budget=BUDGET, checkpoints=checkpoints, **overrides)
        trace = flip_attack(g, split, attack, cfg)
    return {
        "flips": [(u, v, step) for u, v, step, _ in trace.flips],
        "gains": [gain for *_, gain in trace.flips],
        "loss": list(trace.loss_curve),
        "snapshots": ["".join("+" if s > 0 else "-" for s in trace.snapshots[p].signs())
                      for p in checkpoints],
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
                          'gains': [1.7114055113610909, 3.4944275809088303, 2.7148646405924564,
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
 'pole-sym': {'flips': [(11, 13, 0), (5, 6, 1), (0, 2, 2), (0, 19, 3), (13, 14, 4), (17, 19, 5)],
              'gains': [0.2528946480688299, 0.24317070358067144, 0.22486305329432726,
                        0.3164550914652793, 0.22314515688154202, 0.20920688837711],
              'loss': [-5.932990408483837, -6.252721634268839, -6.522344303769043,
                       -6.78137196021622, -7.094104392647896, -7.3550326759656945],
              'snapshots': ['--+---++++-++--++-+++-++++++++++-+-----+-++++++++++++++++++-',
                            '--+--+++++-++--++-+++-++++++++++-+-----+-++++-++++++++++++--']},
 'pole-sym-penalized': {'flips': [(0, 19, 0), (0, 17, 1), (8, 10, 2), (7, 10, 3), (2, 19, 4),
                                  (5, 7, 5)],
                        'gains': [0.34889716535705295, 0.2910432372004055, 0.27299488808896244,
                                  0.260839636340526, 0.24885717953390785, 0.21662577391355536],
                        'loss': [-5.44363504696254, -5.929344313144042, -6.058734783222226,
                                 -6.449265182179852, -6.626720196320836, -6.784280389675811],
                        'snapshots': ['++++-+++++-+++-+++++-+-----++++-+++++-+++++++++++++++++++-++',
                                      '++++-+++++-+++++++++-++----++-+-+++++-+++++++++++++++++++-++']},
 'pole-unsym': {'flips': [(7, 9, 0), (6, 8, 1), (2, 5, 2), (10, 11, 3), (9, 11, 4), (5, 8, 5)],
                'gains': [0.45073921792175037, 0.27688218792125824, 0.16995007292529143,
                          0.169627340697223, 0.25583376748583503, 0.17512213830744464],
                'loss': [-5.883234605009082, -6.385233066147612, -6.6771443793673395,
                         -6.8533758245413745, -7.060362319109677, -7.299276657612687],
                'snapshots': ['+++----++--++---+-+++++++-++-+++-++-+--+++++++++++++++++++++',
                              '+++----++--++---+-+++++-+-++-+++-+-----+++++++++++++++++++++']},
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
