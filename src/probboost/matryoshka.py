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
import math
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from .bounds import rate_matryoshka, rate_simple
from .core import Dataset
from .ptree import TreeModel, _leaf_weights, attach_node, grow_tree, walk_table
from .weak_learner import ProbClassifier, TrainConfig, WeakLearner, register_classifier_kind

__all__ = [
    "CompositeNode",
    "MatryoshkaPolicy",
    "CountingLearner",
    "collect_leaves",
    "build_fixed_2_matryoshka",
    "build_greedy_matryoshka",
]


class CompositeNode(ProbClassifier):
    """A collected subtree acting as a single two-branch node.

    A draw's score is H_inner of one walk through the inner tree, nested
    composites included; its output is sign(H_inner) with ties to +1.  Its
    outcomes on rows X are the inner walks: their probabilities on each row
    and their H_inner.  ``leaf_table`` holds them for the training
    examples, built once from what the inner nodes stored so that it agrees
    with the inner tree's recorded C.
    """

    def __init__(self, inner: TreeModel):
        self.inner = inner
        self.leaf_table = walk_table(inner)

    def outcomes(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return walk_table(self.inner, X)

    def to_record(self) -> dict[str, Any]:
        # the inner nodes only: walk tables and bounds read nothing else
        nodes = {path: node.to_record() for path, node in self.inner.nodes.items()}
        return {"kind": "composite", "inner": {"nodes": nodes}}

    @classmethod
    def from_record(cls, record: dict[str, Any]) -> "CompositeNode":
        return cls(TreeModel.from_record(record["inner"]))


register_classifier_kind("composite", CompositeNode)


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
        positioned = Dataset(dataset.features, dataset.labels, np.asarray(weights, float))
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
    tree.metadata["kind"] = "matryoshka"
    tree.metadata["mode"] = "fixed-2"
    tree.metadata["levels"] = L
    return tree


@dataclass
class _BuildLogEntry:
    step: int
    subtree: str
    action: str  # "grow" | "collect"
    C: float
    T: int
    rate_simple: float
    rate_matryoshka: float


def build_greedy_matryoshka(
    dataset: Dataset,
    learner: WeakLearner,
    max_raw_nodes: int,
    policy: MatryoshkaPolicy | None = None,
    config=None,
) -> tuple[TreeModel, list[_BuildLogEntry]]:
    """Grow greedily; after each added node, scan enclosing subtrees from
    the top and collect the first whose analytic nesting rate beats the
    observed decrease rate.  At most one collection per step.

    ``policy`` is accepted for callers that pass one; nothing in it
    changes how the greedy builder runs."""
    history: dict[str, list[float]] = {}
    log: list[_BuildLogEntry] = []
    step = 0

    def collect_if_faster(tree: TreeModel, leaf: str) -> None:
        nonlocal step
        step += 1
        log.append(
            _BuildLogEntry(step, leaf, "grow", tree.recorded_bound(), tree.n_nodes,
                           math.nan, math.nan)
        )
        # scan enclosing subtrees starting from the top; a collect drops the
        # history below it, so deeper subtrees need no C this step
        for prefix_len in range(len(leaf) + 1):
            p = leaf[:prefix_len]
            products = tree.leaf_products(p)
            t_sub = len(products) - 1  # a binary tree has one node fewer than leaves
            c_now = 0.0
            for product in products.values():  # summed as ``leaf_sum`` sums
                c_now += product
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
                for key in list(history):
                    if key.startswith(p) and key != p:
                        del history[key]
                history[p] = [tree.leaf_sum(p)]
                log.append(
                    _BuildLogEntry(step, p, "collect", tree.recorded_bound(),
                                   tree.n_nodes, simple, matry)
                )
                break

    tree = grow_tree(dataset, learner, max_nodes=max_raw_nodes, config=config,
                     on_grow=collect_if_faster)
    tree.metadata["kind"] = "matryoshka"
    tree.metadata["mode"] = "greedy"
    return tree, log


def _collect_subtree(tree: TreeModel, p: str, dataset: Dataset) -> None:
    """Replace the subtree rooted at ``p`` by one composite node."""
    inner = {path[len(p):]: tree.nodes.pop(path) for path in list(tree.nodes) if path.startswith(p)}
    composite = collect_leaves(TreeModel(nodes=inner))
    # a composite's edges come from its walk table; nothing is sampled
    attach_node(tree, p, composite, None, _leaf_weights(tree, p, dataset), dataset.labels)
    # attach_node's incremental update assumed plain growth; restate C exactly
    tree.trajectory[-1] = tree.leaf_sum()
