"""Boosted probabilistic decision trees.

Every node is trained on the whole dataset with weights that fold in both
the boosting reweighting and the probability of reaching the node.  Each
child edge s carries a domain-partitioned weight alpha_s and a normalizer
Z_s; the running bound C(T) is the sum over leaves of the product of Z
along the path, and growth greedily expands the leaf with the largest
product.

Sign convention: the per-node factor of an example is
q(sign, X) * exp(-sign * alpha * y), so the minus child uses
exp(+alpha_{s-} y).  This is the form under which the leaf-sum identity
C(T) = sum_leaves prod Z holds together with the signed leaf values
H_l = sum sign * alpha.

A node whose classifier is a collected subtree (a composite, see
``matryoshka``) draws a real score h, the H of one walk through its inner
tree; it branches on sign(h), ties to +, and its edge s adds alpha_s * h.
Its per-example factor on edge s is the sum over the inner walks w on that
side of p(w, X) * exp(-alpha_s * h_w * y), so the same identity holds with
composites expanded into their inner walks.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ._zstats import optimal_alphas, w_statistics
from .core import Dataset, RandomStream, validate_path
from .weak_learner import PLAIN_SCORES, ProbClassifier, TrainConfig, WeakLearner
from .weak_learner import _train_step, classifier_from_record, node_q

__all__ = [
    "DEAD_BRANCH_THRESHOLD",
    "TreeNode",
    "TreeModel",
    "children_weights",
    "walk_table",
    "select_growth_leaf",
    "grow_tree",
    "exact_tree_bound",
    "predict_tree",
]

DEAD_BRANCH_THRESHOLD = 1e-300
SCALE_SEARCH_STEPS = 100
# Walks multiply at every nesting level (about K -> K^2 / 2 per fixed-2
# level), so walk tables are capped in (rows x walks) entries.
MAX_WALK_ENTRIES = 2**22


def children_weights(
    weights: np.ndarray,
    q_plus: np.ndarray,
    labels: np.ndarray,
    alpha_plus: float,
    alpha_minus: float,
) -> tuple[np.ndarray, float, np.ndarray, float]:
    """Split a node's weights into its two children.

    Returns (D_{s+}, Z_{s+}, D_{s-}, Z_{s-}); a child with unnormalized
    mass below the dead-branch threshold keeps Z but gets a zero vector.
    """
    weights = np.asarray(weights, dtype=float)
    q_plus = np.asarray(q_plus, dtype=float)
    y = np.asarray(labels, dtype=float)
    mass_plus = weights * q_plus * np.exp(-alpha_plus * y)
    mass_minus = weights * (1.0 - q_plus) * np.exp(alpha_minus * y)
    z_plus = float(mass_plus.sum())
    z_minus = float(mass_minus.sum())
    d_plus = mass_plus / z_plus if z_plus >= DEAD_BRANCH_THRESHOLD else np.zeros_like(weights)
    d_minus = mass_minus / z_minus if z_minus >= DEAD_BRANCH_THRESHOLD else np.zeros_like(weights)
    return d_plus, z_plus, d_minus, z_minus


def _sign(edge: str) -> int:
    """The sign of an edge of a path: +1 for '+', -1 for '-'."""
    return 1 if edge == "+" else -1


def _side(scores: np.ndarray, sign: int) -> np.ndarray:
    """Outcomes that take the edge ``sign``: sign(h), ties to +."""
    return scores >= 0.0 if sign == 1 else scores < 0.0


def _edge_factor(
    reach: np.ndarray, scores: np.ndarray, labels: np.ndarray, sign: int, alpha: float
) -> np.ndarray:
    """Per-example sum of p(outcome) * exp(-alpha * h * y) over the edge's outcomes."""
    side = _side(scores, sign)
    y = np.asarray(labels, dtype=float)
    return np.sum(reach[:, side] * np.exp(-alpha * np.outer(y, scores[side])), axis=1)


def _fit_edge_scale(mass: np.ndarray, margins: np.ndarray) -> float:
    """Descend Z(a) = sum mass * exp(-a * margins) from a = 1.

    Z is convex in a; damped Newton steps are taken only when they lower Z,
    so the result never has a larger Z than a = 1.
    """
    alpha = 1.0
    z = float(np.sum(mass * np.exp(-margins)))
    for _ in range(SCALE_SEARCH_STEPS):
        terms = mass * np.exp(-alpha * margins)
        slope = -float(np.sum(terms * margins))
        curvature = float(np.sum(terms * margins * margins))
        if not curvature > 0.0:
            break
        step = -slope / curvature
        while abs(step) > 1e-12 * max(1.0, abs(alpha)):
            z_next = float(np.sum(mass * np.exp(-(alpha + step) * margins)))
            if z_next < z:
                alpha, z = alpha + step, z_next
                break
            step *= 0.5
        else:
            break  # no step lowers Z any more
    return alpha


def _scored_children(
    weights: np.ndarray, labels: np.ndarray, reach: np.ndarray, scores: np.ndarray
) -> tuple[float, float, np.ndarray, float, np.ndarray, float]:
    """Edges of a node whose outcomes carry real scores (a composite).

    Each alpha_s minimizes Z_s starting from alpha_s = 1, where
    Z_+ + Z_- is the inner tree's C on these weights.  Returns
    (alpha_+, alpha_-, D_{s+}, Z_{s+}, D_{s-}, Z_{s-}).
    """
    weights = np.asarray(weights, dtype=float)
    y = np.asarray(labels, dtype=float)
    edges = []
    for sign in (1, -1):
        side = _side(scores, sign)
        alpha = _fit_edge_scale(weights[:, None] * reach[:, side], np.outer(y, scores[side]))
        mass = weights * _edge_factor(reach, scores, y, sign, alpha)
        z = float(mass.sum())
        edges.append((alpha, mass / z if z >= DEAD_BRANCH_THRESHOLD else np.zeros_like(weights), z))
    (a_plus, d_plus, z_plus), (a_minus, d_minus, z_minus) = edges
    return a_plus, a_minus, d_plus, z_plus, d_minus, z_minus


@dataclass
class TreeNode:
    """An inner node: its classifier plus the statistics of its two edges."""

    classifier: ProbClassifier
    # per-example branch probabilities used in training; None for a
    # composite, whose outcomes are its inner walk table
    q_plus: np.ndarray | None
    alpha_plus: float
    alpha_minus: float
    z_plus: float
    z_minus: float
    # children's weights D_{s+}, D_{s-}: training state, not part of the record
    weights_plus: np.ndarray | None = None
    weights_minus: np.ndarray | None = None

    def alpha(self, sign: int) -> float:
        return self.alpha_plus if sign == 1 else self.alpha_minus

    def z(self, sign: int) -> float:
        return self.z_plus if sign == 1 else self.z_minus

    def child_weights(self, sign: int) -> np.ndarray:
        return self.weights_plus if sign == 1 else self.weights_minus

    def to_record(self) -> dict[str, Any]:
        return {
            "classifier": self.classifier.to_record(),
            "q_plus": None if self.q_plus is None else self.q_plus.tolist(),
            "alpha_plus": self.alpha_plus,
            "alpha_minus": self.alpha_minus,
            "z_plus": self.z_plus,
            "z_minus": self.z_minus,
        }

    @classmethod
    def from_record(cls, record: dict[str, Any]) -> "TreeNode":
        classifier = classifier_from_record(record["classifier"])
        plain = classifier.leaf_table is None  # older files store a composite's q too
        return cls(
            classifier=classifier,
            q_plus=np.array(record["q_plus"], dtype=float) if plain else None,
            alpha_plus=record["alpha_plus"],
            alpha_minus=record["alpha_minus"],
            z_plus=record["z_plus"],
            z_minus=record["z_minus"],
        )


@dataclass
class TreeModel:
    nodes: dict[str, TreeNode] = field(default_factory=dict)
    trajectory: list[float] = field(default_factory=list)  # C(0), C(1), ...
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def recorded_bound(self) -> float:
        return self.trajectory[-1] if self.trajectory else 1.0

    def leaf_products(self, root: str = "") -> dict[str, float]:
        """Leaves under ``root`` with the product of Z_s along their path
        below it, from one breadth-first pass: shorter paths first, '+'
        before '-' at equal depth."""
        products = {}
        queue = deque([(root, 1.0)])
        while queue:
            path, product = queue.popleft()
            node = self.nodes.get(path)
            if node is None:
                products[path] = product
            else:
                queue.append((path + "+", product * node.z_plus))
                queue.append((path + "-", product * node.z_minus))
        return products

    def leaf_product(self, leaf: str) -> float:
        """Product of Z_s over the edges of the path to the leaf."""
        product = 1.0
        for depth, edge in enumerate(leaf):
            product *= self.nodes[leaf[:depth]].z(_sign(edge))
        return product

    def leaf_sum(self, root: str = "") -> float:
        """C of the subtree rooted at ``root``: its leaves' Z products."""
        total = 0.0
        for product in self.leaf_products(root).values():
            total += product
        return total

    def to_record(self) -> dict[str, Any]:
        return {
            "kind": self.metadata.get("kind", "ptree"),
            "metadata": self.metadata,
            "trajectory": list(self.trajectory),
            "nodes": {path: node.to_record() for path, node in self.nodes.items()},
        }

    @classmethod
    def from_record(cls, record: dict[str, Any]) -> "TreeModel":
        nodes = {
            validate_path(path): TreeNode.from_record(node)
            for path, node in record["nodes"].items()
        }
        for path in nodes:
            if path and path[:-1] not in nodes:
                raise ValueError(f"node {path!r} has no parent in the record")
        return cls(
            nodes=nodes,
            trajectory=list(record.get("trajectory", [])),
            metadata=record.get("metadata", {}),
        )


def _node_outcomes(node: TreeNode, X: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """(reach, scores) of a node's classifier on the rows X.  Without X the
    rows are the training examples and come from what training stored: a
    plain node draws +1 with its stored q and -1 otherwise; a composite
    draws its inner walks."""
    if X is not None:
        return node.classifier.outcomes(X)
    if node.classifier.leaf_table is not None:
        return node.classifier.leaf_table
    return np.column_stack([node.q_plus, 1.0 - node.q_plus]), PLAIN_SCORES


def walk_table(tree: TreeModel, X: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Reach probabilities (rows, K) and scores H (K,) of every root-to-leaf
    walk, each composite on the way expanded into its inner walks.

    The rows are X, each node asked for its classifier's ``outcomes``; without
    X they are the training examples, read from what training stored.  A tree
    without nodes has one walk, H = 0.
    """
    walks_reach, walks_score = [], []
    stack = [("", np.ones((1 if X is None else len(X), 1)), np.zeros(1))]
    entries = 0
    while stack:
        path, reach, score = stack.pop()
        node = tree.nodes.get(path)
        if node is None:
            walks_reach.append(reach)
            walks_score.append(score)
            continue
        node_reach, node_scores = _node_outcomes(node, X)
        for sign, child in ((-1, "-"), (1, "+")):  # '+' is expanded first
            side = _side(node_scores, sign)
            entries += max(len(reach), len(node_reach)) * reach.shape[1] * int(side.sum())
            if entries > MAX_WALK_ENTRIES:
                raise ValueError(f"walk table exceeds {MAX_WALK_ENTRIES} entries; nesting too deep")
            child_reach = reach[:, :, None] * node_reach[:, None, side]
            child_score = score[:, None] + node.alpha(sign) * node_scores[side]
            stack.append((path + child, child_reach.reshape(len(child_reach), -1), child_score.ravel()))
    return np.hstack(walks_reach), np.concatenate(walks_score)


def _growth_key(leaf: str, product: float) -> tuple[float, int, str]:
    """Growth order: the largest Z product first, ties to the first leaf in
    breadth-first order (shorter paths first; '+' sorts before '-')."""
    return (-product, len(leaf), leaf)


def _frontier(tree: TreeModel) -> list[tuple[float, int, str]]:
    """Heap of the live leaves by ``_growth_key``, from one pass over the
    tree.  A leaf is dead when its last edge's Z is below
    ``DEAD_BRANCH_THRESHOLD``."""
    frontier = [
        _growth_key(leaf, product)
        for leaf, product in tree.leaf_products().items()
        if not leaf or tree.nodes[leaf[:-1]].z(_sign(leaf[-1])) >= DEAD_BRANCH_THRESHOLD
    ]
    heapq.heapify(frontier)
    return frontier


def select_growth_leaf(tree: TreeModel) -> str:
    """Live leaf with the largest Z product; ties go to the first leaf in
    breadth-first order."""
    frontier = _frontier(tree)
    if not frontier:
        raise ValueError("all leaves are dead; growth cannot continue")
    return frontier[0][2]


def grow_tree(
    dataset: Dataset,
    learner: WeakLearner,
    max_nodes: int | None = None,
    target_bound: float | None = None,
    config=None,
    on_grow=None,
) -> TreeModel:
    """Greedy bound-reducing growth, one weak classifier per step.

    Stops after ``max_nodes`` growth steps (weak-learner calls), once
    C(T) <= ``target_bound``, or when every leaf is dead.  The leaf grown
    at each step is the one ``select_growth_leaf`` picks, taken from a heap
    of the live leaves that each step extends by the grown leaf's two
    children.  ``on_grow(tree, leaf)`` is invoked after every step and may
    rewrite the tree (the greedy matryoshka builder collects subtrees
    there); the heap is rebuilt after it.  Tree nodes sample q with
    strategy A only, from the stream seeded by ``config.seed``.
    """
    if max_nodes is None and target_bound is None:
        raise ValueError("either max_nodes or target_bound must be given")
    if max_nodes is not None and max_nodes < 1:
        raise ValueError("max_nodes must be >= 1")
    config = config or TrainConfig()
    if config.strategy == "B":
        raise ValueError("strategy B is for AdaBoost; trees sample q with strategy A")
    stream = RandomStream(config.seed)
    tree = TreeModel(trajectory=[1.0], metadata=_metadata(config, max_nodes, target_bound))
    tree.metadata["dimension"] = dataset.dimension
    frontier = [_growth_key("", 1.0)]
    step = 0
    while frontier and (max_nodes is None or step < max_nodes):
        if target_bound is not None and tree.recorded_bound() <= target_bound:
            break
        negated_product, _, leaf = heapq.heappop(frontier)
        step += 1
        weights = _leaf_weights(tree, leaf, dataset)
        classifier = _train_step(learner, dataset, weights, f"node {leaf!r} (step {step})")
        q = node_q(classifier, dataset, weights, config, stream, f"tree-q-est-{step}")
        attach_node(tree, leaf, classifier, q, weights, dataset.labels)
        node = tree.nodes[leaf]
        for child, z in ((leaf + "+", node.z_plus), (leaf + "-", node.z_minus)):
            if z >= DEAD_BRANCH_THRESHOLD:  # the same product as leaf_product(child)
                heapq.heappush(frontier, _growth_key(child, -negated_product * z))
        if on_grow is not None:
            on_grow(tree, leaf)
            frontier = _frontier(tree)
    return tree


def _leaf_weights(tree: TreeModel, leaf: str, dataset: Dataset) -> np.ndarray:
    """Training weights at a leaf: the dataset's at the root, otherwise the
    parent's weights for that edge."""
    if leaf == "":
        return dataset.weights.copy()
    return tree.nodes[leaf[:-1]].child_weights(_sign(leaf[-1]))


def attach_node(
    tree: TreeModel,
    leaf: str,
    classifier: ProbClassifier,
    q: np.ndarray | None,
    weights: np.ndarray,
    labels: np.ndarray,
) -> None:
    """Install a trained classifier at a leaf and update the C trajectory.
    ``q`` is the plain classifier's per-example q(+); None for a composite."""
    if leaf in tree.nodes:
        raise ValueError(f"{leaf!r} is already an inner node")
    if classifier.leaf_table is None:
        q = np.asarray(q, dtype=float)
        a_plus, a_minus = optimal_alphas(w_statistics(weights, q, labels))
        d_plus, z_plus, d_minus, z_minus = children_weights(weights, q, labels, a_plus, a_minus)
    else:
        a_plus, a_minus, d_plus, z_plus, d_minus, z_minus = _scored_children(
            weights, labels, *classifier.leaf_table
        )
    tree.nodes[leaf] = TreeNode(
        classifier=classifier,
        q_plus=q,
        alpha_plus=a_plus,
        alpha_minus=a_minus,
        z_plus=z_plus,
        z_minus=z_minus,
        weights_plus=d_plus,
        weights_minus=d_minus,
    )
    prefix_product = tree.leaf_product(leaf)  # product above the grown leaf
    c_prev = tree.trajectory[-1]
    tree.trajectory.append(c_prev + prefix_product * (z_plus + z_minus - 1.0))


def _metadata(config, max_nodes, target_bound) -> dict[str, Any]:
    return {
        "kind": "ptree",
        "seed": config.seed,
        "exact_q": config.exact_q,
        "estimator": config.estimator,
        "max_nodes": max_nodes,
        "target_bound": target_bound,
    }


def exact_tree_bound(tree: TreeModel, dataset: Dataset) -> float:
    """Weighted expected exponential loss, every walk enumerated.

    Sum over examples of D(n) times the sum over leaves of the product of
    the edge factors along the path; a composite's factor sums over its
    inner walks.  Equals the recorded leaf-sum of Z products.
    """
    y = dataset.labels.astype(float)

    def below(path: str):
        node = tree.nodes.get(path)
        if node is None:
            return 1.0
        reach, scores = _node_outcomes(node, None)
        if len(reach) != len(y):
            raise ValueError("dataset size does not match the stored model")
        return sum(
            _edge_factor(reach, scores, y, sign, node.alpha(sign)) * below(path + child)
            for sign, child in ((1, "+"), (-1, "-"))
        )

    return float(np.sum(dataset.weights * below("")))


def predict_tree(
    tree: TreeModel, X: np.ndarray, stream: RandomStream, purpose: str, trials: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``trials`` root-to-leaf walks for every row of X.

    Returns (scores H, leaves), both of shape (trials, len(X)): each walk's
    score and the top-level leaf it ends at.  The tree is walked node by
    node over the walks that reach each node; a plain node draws with its
    classifier's ``sample_batch``, and a composite walks its inner tree.
    The uniform of a walk's k-th draw is keyed by (row, trial, k) in the
    stream tagged ``purpose``, so the result does not depend on the order
    in which nodes are visited, and fewer trials give the first trials'
    walks.
    """
    X = np.asarray(X, dtype=float)
    dim = tree.metadata.get("dimension")
    if X.ndim != 2 or (dim is not None and X.shape[1] != dim):
        raise ValueError(f"expected rows of feature dimension {dim}, got shape {X.shape}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if trials >= 2**32:
        raise ValueError("trials must be below 2^32")
    trial, row = np.divmod(np.arange(trials * len(X)), len(X))
    draws = np.zeros(len(row), dtype=np.uint64)
    scores, leaves = _walk(tree, X, row, trial.astype(np.uint64), draws, stream, purpose)
    return scores.reshape(trials, len(X)), leaves.reshape(trials, len(X))


def _walk(tree, X, row, trial, draws, stream, purpose) -> tuple[np.ndarray, np.ndarray]:
    """One walk through ``tree`` per entry of ``row`` (the example) and
    ``trial``; ``draws`` counts each walk's draws so far and is advanced in
    place.  Returns each walk's score and leaf path."""
    scores = np.zeros(len(row))
    leaves = np.empty(len(row), dtype=object)
    stack = [("", np.arange(len(row)))]
    while stack:
        path, at = stack.pop()
        if len(at) == 0:
            continue
        node = tree.nodes.get(path)
        if node is None:
            leaves[at] = path
            continue
        if node.classifier.leaf_table is not None:  # a composite: walk its inner tree
            inner_draws = draws[at]
            h, _ = _walk(node.classifier.inner, X, row[at], trial[at], inner_draws, stream, purpose)
            draws[at] = inner_draws
        else:
            u = stream.uniforms(purpose, row[at], (draws[at] << np.uint64(32)) | trial[at])
            h = node.classifier.sample_batch(X[row[at]], u)
            draws[at] += np.uint64(1)
        plus = h >= 0.0
        scores[at] += np.where(plus, node.alpha_plus, node.alpha_minus) * h
        stack.append((path + "-", at[~plus]))
        stack.append((path + "+", at[plus]))
    return scores, leaves
