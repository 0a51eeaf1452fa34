"""Per-layer tracing from outside the library.

``install()`` wraps the public functions of each layer in every probboost
module that looks them up (and the methods on their classes).  A wrapped
call is a span; a layer's self time is the time inside its spans minus the
time inside wrapped spans they called.  Counts are taken at the same
boundaries.  Spans are accumulated in memory per operation and scaled by
that operation's speed factor, so layer times are in normalised seconds.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from pathlib import Path

from probboost import adaboost, bounds, cli, core, matryoshka, persist, ptree, specfun, weak_learner, _zstats
from probboost.weak_learner import R_MAX_DEFAULT

#: Per-layer metric name -> (unit, better).  Times are normalised seconds
#: per operation, counts are per operation.
PER_LAYER = {
    "core.generator_calls": ("count", "lower"),
    "core.generator_s": ("s", "lower"),
    "weak_learner.train_calls": ("count", "lower"),
    "weak_learner.train_s": ("s", "lower"),
    "weak_learner.sample_rounds": ("count", "lower"),
    "weak_learner.draws": ("count", "lower"),
    "weak_learner.estimate_s": ("s", "lower"),
    "weak_learner.kept_round_share": ("ratio", "higher"),
    "zstats.calls": ("count", "lower"),
    "zstats.s": ("s", "lower"),
    "ptree.select_calls": ("count", "lower"),
    "ptree.select_s": ("s", "lower"),
    "ptree.leaf_product_calls": ("count", "lower"),
    "ptree.attach_s": ("s", "lower"),
    "ptree.predict_calls": ("count", "lower"),
    "ptree.predict_s": ("s", "lower"),
    "ptree.exact_bound_s": ("s", "lower"),
    "matryoshka.collects": ("count", "lower"),
    "matryoshka.walks": ("count", "lower"),
    "matryoshka.walk_entries": ("count", "lower"),
    "matryoshka.walk_table_s": ("s", "lower"),
    "matryoshka.edge_fit_s": ("s", "lower"),
    "bounds.calls": ("count", "lower"),
    "bounds.s": ("s", "lower"),
    "persist.save_s": ("s", "lower"),
    "persist.load_s": ("s", "lower"),
    "persist.bytes": ("B", "lower"),
    "cli.self_s": ("s", "lower"),
}

#: Layers whose self time is reported, by the metric that reports it.
TIMED_LAYERS = {
    "core.generator": "core.generator_s",
    "weak_learner.train": "weak_learner.train_s",
    "weak_learner.estimate": "weak_learner.estimate_s",
    "zstats": "zstats.s",
    "ptree.select": "ptree.select_s",
    "ptree.attach": "ptree.attach_s",
    "ptree.predict": "ptree.predict_s",
    "ptree.exact_bound": "ptree.exact_bound_s",
    "matryoshka.walk_table": "matryoshka.walk_table_s",
    "matryoshka.edge_fit": "matryoshka.edge_fit_s",
    "bounds": "bounds.s",
    "persist.save": "persist.save_s",
    "persist.load": "persist.load_s",
    "cli": "cli.self_s",
}


class Tracer:
    def __init__(self):
        self._stack: list[list[float]] = []  # child time of each open span
        self.op_self: dict[str, float] = defaultdict(float)  # wall s, current op
        self.op_counts: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)  # normalised s, all ops
        self.counts: dict[str, float] = defaultdict(float)
        self.ops = 0

    def span(self, fn, layer, after=None):
        """Wrap ``fn``; ``layer`` may be a function of the call's arguments."""

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            name = layer(*args, **kwargs) if callable(layer) else layer
            frame = [0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                self._stack.pop()
                self.op_self[name] += elapsed - frame[0]
                if self._stack:
                    self._stack[-1][0] += elapsed
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapped

    def counter(self, fn, metric):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            self.op_counts[metric] += 1
            return fn(*args, **kwargs)

        return wrapped

    def add(self, metric: str, amount: float) -> None:
        self.op_counts[metric] += amount

    def discard(self) -> None:
        """Drop what was recorded since the last operation closed."""
        self.op_self.clear()
        self.op_counts.clear()

    def end_op(self, factor: float) -> float:
        """Close one operation; returns the wall seconds its spans covered."""
        covered = sum(self.op_self.values())
        for name, seconds in self.op_self.items():
            self.self_s[name] += seconds * factor
        for name, count in self.op_counts.items():
            self.counts[name] += count
        self.discard()
        self.ops += 1
        return covered

    def metrics(self) -> dict[str, float]:
        ops = max(self.ops, 1)
        out = {name: 0.0 for name in PER_LAYER}
        for layer, metric in TIMED_LAYERS.items():
            out[metric] = self.self_s.get(layer, 0.0) / ops
        for metric, count in self.counts.items():
            if metric in out:
                out[metric] = count / ops
        rounds = self.counts.get("weak_learner.sample_rounds", 0.0)
        kept = self.counts.get("kept_rounds", 0.0)
        out["weak_learner.kept_round_share"] = kept / rounds if rounds else 0.0
        return out


def _replace(original, replacement) -> None:
    """Point every attribute of probboost's modules and of the workloads
    module that is bound to ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] in ("probboost", "workloads"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    def wrap_function(fn, layer, after=None):
        _replace(fn, tracer.span(fn, layer, after))

    def wrap_method(cls, attr, layer, after=None):
        setattr(cls, attr, tracer.span(getattr(cls, attr), layer, after))

    # core: one numpy Generator per draw
    wrap_method(core.RandomStream, "generator", "core.generator",
                after=lambda *_a, **_k: tracer.add("core.generator_calls", 1))

    # weak learners: the raw .train calls
    for cls in (weak_learner.NoisyStumpLearner, weak_learner.ConstantEdgeLearner):
        wrap_method(cls, "train", "weak_learner.train",
                    after=lambda *_a, **_k: tracer.add("weak_learner.train_calls", 1))

    # q: strategy-A sampling and exact/composite q of tree nodes
    def after_estimate(result, classifier, dataset, *args, **kwargs):
        _, spent = result
        r_max = kwargs.get("r_max", R_MAX_DEFAULT)
        tracer.add("weak_learner.sample_rounds", spent)
        tracer.add("weak_learner.draws", spent * dataset.n_examples)
        # strategy A keeps the estimate of the round before the first rise,
        # or every round when it reaches r_max
        tracer.add("kept_rounds", spent if spent >= r_max else spent - 1)

    wrap_function(weak_learner.estimate_q_strategy_A, "weak_learner.estimate", after_estimate)
    wrap_function(weak_learner.map_z_estimate, "weak_learner.estimate")
    wrap_function(ptree.node_q, "weak_learner.estimate")

    # W/Z kernels
    for fn in (_zstats.w_statistics, _zstats.optimal_alphas, _zstats.z_value, _zstats.z_min,
               adaboost.update_weights, ptree.children_weights):
        wrap_function(fn, "zstats", after=lambda *_a, **_k: tracer.add("zstats.calls", 1))

    # tree growth
    wrap_function(ptree.select_growth_leaf, "ptree.select",
                  after=lambda *_a, **_k: tracer.add("ptree.select_calls", 1))
    ptree.TreeModel.leaf_product = tracer.counter(ptree.TreeModel.leaf_product,
                                                  "ptree.leaf_product_calls")

    def attach_layer(tree, leaf, classifier, *args, **kwargs):
        return "ptree.attach" if classifier.leaf_table is None else "matryoshka.edge_fit"

    wrap_function(ptree.attach_node, attach_layer)

    # tree evaluation
    wrap_function(ptree.predict_tree, "ptree.predict",
                  after=lambda *_a, **_k: tracer.add("ptree.predict_calls", 1))
    wrap_function(ptree.exact_tree_bound, "ptree.exact_bound")

    # matryoshka: collections and walk tables
    _replace(matryoshka.collect_leaves, tracer.counter(matryoshka.collect_leaves, "matryoshka.collects"))

    def after_walks(result, *args, **kwargs):
        reach, _ = result
        tracer.add("matryoshka.walks", reach.shape[1])
        tracer.add("matryoshka.walk_entries", reach.size)

    wrap_function(ptree.walk_table, "matryoshka.walk_table", after_walks)

    # bound calculus and its special functions
    for name in bounds.__all__:
        fn = getattr(bounds, name)
        if callable(fn) and not isinstance(fn, type):
            wrap_function(fn, "bounds", after=lambda *_a, **_k: tracer.add("bounds.calls", 1))
    for fn in (specfun.log_gamma, specfun.lgamma_diff, specfun.beta, specfun.digamma):
        wrap_function(fn, "bounds")

    # persistence
    def after_io(result, model_or_path, path=None):
        tracer.add("persist.bytes", Path(path if path is not None else model_or_path).stat().st_size)

    wrap_function(persist.save_model, "persist.save", after_io)
    wrap_function(persist.load_model, "persist.load", after_io)

    # the CLI: a span around each in-process `probboost` invocation
    cli.main.main = tracer.span(cli.main.main, "cli")
