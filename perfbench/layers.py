"""Per-layer spans recorded from outside the program.

A layer is a public function (or method) of one ``signedattack`` module.
:class:`Patches` replaces such a function in every ``signedattack`` module
that holds a reference to it, because ``from .pole import transition_matrix``
copies the reference into ``attacks`` and ``balance``; patching only the
defining module would miss those calls. Methods are patched on their class.

:class:`Tracer` wraps each layer in a span and keeps, per layer, the call
count, the inclusive time and the self time (inclusive time minus the time of
the spans it caused). Spans are aggregated in memory as they close. Work the
tracer does on its own behalf (counting tape nodes, hashing graphs) is kept
out of every span's self time.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

from signedattack import attacks, balance, detectors, experiments, fextra, graph, linalg, pole, tape

# (layer name, owner, attribute): each owner is a module or a class
LAYERS = (
    ("tape.backward", tape.Tape, "backward"),
    ("fextra.features", fextra, "link_features"),
    ("fextra.ols", fextra, "ols_theta"),
    ("fextra.lr_train", fextra, "lr_train"),
    ("linalg.matrix_exp", linalg, "matrix_exp"),
    ("linalg.sym_matrix_exp", linalg, "sym_matrix_exp"),
    ("linalg.truncated_svd", linalg, "truncated_svd"),
    ("pole.transition", pole, "transition_matrix"),
    ("pole.factorization", pole, "factorization_steps"),
    ("pole.cosine", pole, "cosine_normalize"),
    ("pole.predict", pole, "pole_predict"),
    ("attacks.self_labels", attacks, "self_train_labels"),
    ("attacks.penalty", attacks, "penalized_loss"),
    ("attacks.flip", attacks, "flip_attack"),
    ("experiments.victim_retrain", experiments, "victim_test_auc"),
    ("balance.triad_census", balance, "triad_census"),
    ("balance.polarization", balance, "graph_polarization"),
    ("balance.ratio", balance, "balance_ratio"),
    ("detectors.featurize", detectors.DetectorView, "featurize"),
    ("detectors.ocsvm_fit", detectors, "ocsvm_fit"),
    ("detectors.decision", detectors, "ocsvm_decision"),
    ("graph.subsample", experiments, "subsample_graph"),
    ("graph.subsample", graph, "sample_subgraph_corpus"),
    ("graph.split", graph, "split_edges"),
    ("graph.mask", graph.SignedGraph, "mask"),
    ("graph.snapshot", graph.SignedGraph, "with_signs"),
)


class Patches:
    """Replaces functions program-wide and restores them on exit."""

    def __init__(self):
        self._undo = []

    def replace(self, owner, attr, make_wrapper):
        original = getattr(owner, attr)
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            holders = [owner]
        else:
            holders = [m for name, m in sys.modules.items()
                       if m is not None and (name == "signedattack"
                                             or name.startswith("signedattack."))]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._undo.append((holder, key, value))
                    setattr(holder, key, wrapper)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for holder, key, value in reversed(self._undo):
            setattr(holder, key, value)
        self._undo.clear()


def observe_factor_residuals(patches: Patches, residuals: list):
    """Append the final residual of every ``factorization_steps`` call.

    Only observes return values and reads no clock, so it is also installed
    in the untraced run, where it supplies an outcome field.
    """
    def make(fn):
        def factorization_steps(*args, **kwargs):
            U, curve = fn(*args, **kwargs)
            residuals.append(float(curve[-1]))
            return U, curve
        return factorization_steps

    patches.replace(pole, "factorization_steps", make)


class Tracer:
    """Self time, inclusive time and counts per layer, kept in memory."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.count = defaultdict(float)   # work counters named by the hooks
        self.peak = defaultdict(float)
        self._featurized = set()
        self._children = []               # child-span seconds of each open span

    def span(self, name, fn, after=None):
        """``fn`` wrapped in a span; ``after(args, result)`` runs off the clock."""
        def wrapper(*args, **kwargs):
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = self._children.pop()
                self.calls[name] += 1
                self.inclusive[name] += elapsed
                self.self_time[name] += elapsed - children
                if self._children:
                    self._children[-1] += elapsed
            if after is not None:
                hook_start = time.perf_counter()
                after(args, result)
                if self._children:
                    self._children[-1] += time.perf_counter() - hook_start
            return result
        return wrapper

    # -- hooks: counts taken where the work happens -------------------------
    def _after_backward(self, args, _):
        nodes = args[0]._nodes
        held = sum(v.data.nbytes + (0 if v.grad is None else v.grad.nbytes) for v in nodes)
        self.peak["tape.nodes"] = max(self.peak["tape.nodes"], len(nodes))
        self.peak["tape.mb"] = max(self.peak["tape.mb"], held / 2 ** 20)

    def _after_factorization(self, _, result):
        self.count["pole.accepted_steps"] += len(result[1]) - 1

    def _after_flip_attack(self, _, trace):
        self.count["attacks.flips"] += len(trace.flips)
        self.count["attacks.positive_gains"] += sum(1 for f in trace.flips if f[3] > 0)

    def _after_featurize(self, args, _):
        view, g = args[0], args[1]
        self._featurized.add((view.kind, g.n, tuple(g.edges)))

    def install(self, patches: Patches):
        hooks = {"tape.backward": self._after_backward,
                 "pole.factorization": self._after_factorization,
                 "attacks.flip": self._after_flip_attack,
                 "detectors.featurize": self._after_featurize}
        for name, owner, attr in LAYERS:
            patches.replace(owner, attr,
                            lambda fn, name=name: self.span(name, fn, hooks.get(name)))

        def make_loss_factory(fn):
            def make_attack_loss(*args, **kwargs):
                return self.span("attacks.loss", fn(*args, **kwargs))
            return make_attack_loss

        patches.replace(attacks, "make_attack_loss", make_loss_factory)

    def metrics(self, ops: int, rejected: float):
        """Per-layer metrics: self seconds and counts per operation unless named otherwise."""
        timed = {name for name, _, _ in LAYERS} - {"attacks.flip"} | {"attacks.loss"}
        out = {f"{name}_s": self.self_time[name] / ops for name in sorted(timed)}
        for name in ("tape.backward", "linalg.matrix_exp", "experiments.victim_retrain",
                     "detectors.featurize"):
            out[f"{name}_calls"] = self.calls[name] / ops
        flips = self.count["attacks.flips"]
        out.update({
            "attacks.flips": flips / ops,
            "detectors.rejected": rejected / ops,
            "tape.peak_nodes": self.peak["tape.nodes"],
            "tape.peak_mb": self.peak["tape.mb"],
            # accepted descent steps per factorization call; a call that raised has none
            "pole.factorization_steps": _ratio(self.count["pole.accepted_steps"],
                                               self.calls["pole.factorization"]),
            "attacks.flip_step_s": _ratio(self.inclusive["attacks.flip"], flips),
            "attacks.flip_self_s": _ratio(self.self_time["attacks.flip"], flips),
            "attacks.positive_gain_frac": _ratio(self.count["attacks.positive_gains"], flips),
            "detectors.featurize_unique_frac": _ratio(len(self._featurized),
                                                      self.calls["detectors.featurize"]),
        })
        return out


def _ratio(part, whole):
    return part / whole if whole else 0.0
