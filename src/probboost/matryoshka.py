"""Matryoshka (recursively nested) decision trees.

A trained subtree can be collected into a single composite node one level
up.  A draw of the composite walks the inner tree; the composite branches
on the sign of the walk's score H_inner (ties go to +1), so it stays a
two-branch Bernoulli node, and the edge s it takes adds alpha_s * H_inner
to the outer score, the confidence-rated form of Schapire & Singer.  Each
alpha_s minimizes its Z_s starting from alpha_s = 1, where Z_+ + Z_- is
the inner tree's C on the node's weights; so a composite's Z is at most
its inner C, the premise of the nesting recursions F(T/T1, F(T1, rho))
and M2.

The fixed-2 builder nests two-node trees L levels deep; the greedy builder
grows a plain tree and collects a subtree whenever the analytic nesting
decrease rate beats the observed one.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace

from .bounds import rate_matryoshka, rate_simple
from .core import Dataset
from .ptree import CompositeNode, TreeModel, _drop_walk_tables, _leaf_weights, attach_node, grow_tree
from .weak_learner import ProbClassifier, TrainConfig, WeakLearner

__all__ = [
    "MatryoshkaPolicy",
    "CountingLearner",
    "collect_leaves",
    "build_fixed_2_matryoshka",
    "build_greedy_matryoshka",
]


def collect_leaves(subtree: TreeModel) -> CompositeNode:
    """Wrap a trained subtree as a single composite probabilistic node."""
    return CompositeNode(subtree)


@dataclass
class MatryoshkaPolicy:
    mode: str = "fixed-2"  # "fixed-2" | "greedy"

    def __post_init__(self) -> None:
        if self.mode not in ("fixed-2", "greedy"):
            raise ValueError(f"unknown mode {self.mode!r}")


class CountingLearner(WeakLearner):
    """Wrapper counting raw weak-learner invocations (budget accounting)."""

    def __init__(self, base: WeakLearner):
        self.base = base
        self.calls = 0

    def train(self, dataset, weights) -> ProbClassifier:
        self.calls += 1
        return self.base.train(dataset, weights)


def _unit_seed(seed: int, k: int) -> int:
    """The seed of the k-th unit trained under ``seed``: a 63-bit hash of
    both, so that no two units sample alike."""
    digest = hashlib.blake2s(f"{seed}\x00unit-{k}".encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


class _UnitLearner(WeakLearner):
    """Level-k unit: a two-node tree of level-(k-1) units, collected.  The
    k-th unit it builds samples q with the seed ``_unit_seed(seed, k)``."""

    def __init__(self, level: int, base: WeakLearner, config: TrainConfig):
        self.level = level
        self.base = base
        self.config = config
        self.units = 0

    def train(self, dataset: Dataset, weights) -> ProbClassifier:
        if self.level == 0:
            return self.base.train(dataset, weights)
        config = replace(self.config, seed=_unit_seed(self.config.seed, self.units))
        self.units += 1
        positioned = dataset.reweighted(weights)
        unit = _UnitLearner(self.level - 1, self.base, config)
        return collect_leaves(grow_tree(positioned, unit, max_nodes=2, config=config))


def build_fixed_2_matryoshka(
    dataset: Dataset,
    learner: WeakLearner,
    L: int,
    config=None,
) -> TreeModel:
    """L-level 2-matryoshka; the top two-node tree is returned uncollected.

    Total raw weak-classifier budget is 2^L.
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    config = config or TrainConfig()
    tree = grow_tree(dataset, _UnitLearner(L - 1, learner, config), max_nodes=2, config=config)
    _drop_walk_tables(tree)  # nothing reads them after training
    tree.metadata.update(kind="matryoshka", mode="fixed-2", levels=L)
    return tree


@dataclass
class TraceEvent:
    """One step of a training trace, an AdaBoost stage or a tree node grown
    or collected at ``path``, with the bound C after it.  A value the step
    lacks is None: ``Z`` is a stage's, ``Z_plus``/``Z_minus`` a node's."""

    step: int
    action: str  # "stage" | "grow" | "collect"
    path: str | None
    alpha_plus: float
    alpha_minus: float
    Z: float | None
    Z_plus: float | None
    Z_minus: float | None
    C: float
    rate_simple: float | None = None
    rate_matryoshka: float | None = None

    @classmethod
    def of_node(cls, step: int, action: str, path: str, node, C: float, *rates: float) -> "TraceEvent":
        return cls(step, action, path, node.alpha_plus, node.alpha_minus, None,
                   node.z_plus, node.z_minus, C, *rates)

    def to_json(self) -> str:
        """One strict-JSON object; a non-finite number is written as null."""
        return json.dumps({key: None if isinstance(value, float) and not math.isfinite(value) else value
                           for key, value in vars(self).items()}, allow_nan=False)


def build_greedy_matryoshka(
    dataset: Dataset,
    learner: WeakLearner,
    max_raw_nodes: int,
    policy: MatryoshkaPolicy | None = None,
    config=None,
) -> tuple[TreeModel, list[TraceEvent]]:
    """Grow greedily; after each added node, scan enclosing subtrees from
    the top and collect the first whose analytic nesting rate beats the
    observed decrease rate.  At most one collection per step, traced as a
    collect event after that step's grow event.

    ``policy`` is accepted for callers that pass one; nothing in it
    changes how the greedy builder runs."""
    history: dict[str, list[float]] = {}
    log: list[TraceEvent] = []

    def collect_if_faster(tree: TreeModel, leaf: str) -> None:
        step = log[-1].step + 1 if log else 1
        log.append(TraceEvent.of_node(step, "grow", leaf, tree.nodes[leaf], tree.recorded_bound()))
        # scan enclosing subtrees starting from the top; a collect drops the
        # history below it, so deeper subtrees need no C this step
        for prefix_len in range(len(leaf) + 1):
            p = leaf[:prefix_len]
            t_sub = sum(path.startswith(p) for path in tree.nodes)
            c_now = tree.leaf_sum(p)
            c_values = history.setdefault(p, [])
            c_values.append(c_now)
            if t_sub < 2 or len(c_values) < 2 or not 0.0 < c_now <= 1.0:
                continue
            if len(c_values) >= 3:
                simple = rate_simple(c_values[-3], c_values[-1])
            else:
                # first opportunity: forward difference from C(0) = 1
                simple = c_values[-1] - c_values[-2]
            matry = rate_matryoshka(c_now, t_sub)
            if matry < simple:
                _collect_subtree(tree, p, dataset)
                for key in [key for key in history if key.startswith(p)]:
                    del history[key]
                history[p] = [tree.leaf_sum(p)]
                log.append(TraceEvent.of_node(step, "collect", p, tree.nodes[p],
                                              tree.recorded_bound(), simple, matry))
                break

    tree = grow_tree(dataset, learner, max_nodes=max_raw_nodes, config=config,
                     on_grow=collect_if_faster)
    _drop_walk_tables(tree)
    tree.metadata.update(kind="matryoshka", mode="greedy")
    return tree, log


def _collect_subtree(tree: TreeModel, p: str, dataset: Dataset) -> None:
    """Replace the subtree rooted at ``p`` by one composite node."""
    inner = {path[len(p):]: tree.nodes.pop(path) for path in list(tree.nodes) if path.startswith(p)}
    composite = collect_leaves(TreeModel(nodes=inner, metadata={"dimension": dataset.dimension}))
    # a composite's edges come from its walk table; nothing is sampled
    attach_node(tree, p, composite, None, _leaf_weights(tree, p, dataset), dataset.label_split,
                tree.leaf_product(p))
    # attach_node's incremental update assumed plain growth; restate C exactly,
    # unless attach_node just did (its error bound is then 0)
    if tree.c_error:
        tree.restate_bound()
