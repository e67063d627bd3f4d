"""Signed-graph trust prediction, sign-flip poisoning attacks and detectors."""

from .errors import (ConfigError, InvalidSplitError, MetricUndefinedError,
                     MissingEdgeError, NumericError, ParseError, SignedAttackError)
from .graph import (EdgeSplit, SignedGraph, largest_connected_component,
                    load_edge_list, load_graph_json, positive_ratio,
                    sample_subgraph_corpus, split_edges)
from .tape import Tape, Value, grad_check
from .linalg import sym_eig, sym_matrix_exp
from .fextra import LRModel, auc, lr_predict, lr_train
from .pole import autocovariance, cosine_normalize, pole_predict, transition_matrix
from .balance import BalanceReport, balance_ratio, balance_report, graph_polarization
from .attacks import (AttackTrace, baseline_greedy_triads, baseline_rand, flip_attack,
                      flips_for_power, penalized_loss, self_train_labels)
from .detectors import (DetectorView, OCSVMModel, detector_eval, metric_features,
                        ocsvm_decision, ocsvm_fit, tsvd_features)
from .experiments import (ExperimentConfig, run_attack_experiment, run_detect_experiment,
                          victim_test_auc)

__version__ = "0.1.0"
