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

A node whose classifier is a collected subtree (a ``CompositeNode``, which
the ``matryoshka`` builders make) draws a real score h, the H of one walk
through its inner tree; it branches on sign(h), ties to +, and its edge s
adds alpha_s * h.
Its per-example factor on edge s is the sum over the inner walks w on that
side of p(w, X) * exp(-alpha_s * h_w * y), so the same identity holds with
composites expanded into their inner walks.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ._zstats import ClassTable, LabelSplit, optimal_alphas
from ._zstats import _exp_table, _scale_edges, _side, _w_of_mass, _weighted_mass
from .core import Dataset, RandomStream, _check_trials
from .weak_learner import ProbClassifier, TrainConfig, WeakLearner, _Edges, _model_metadata, _train_step, node_q

__all__ = [
    "DEAD_BRANCH_THRESHOLD",
    "TreeNode",
    "TreeModel",
    "CompositeNode",
    "children_weights",
    "walk_table",
    "select_growth_leaf",
    "grow_tree",
    "exact_tree_bound",
    "predict_tree",
]

DEAD_BRANCH_THRESHOLD = 1e-300
# C is restated as its leaf sum once the bound on its rounding error passes this share of it
C_RELATIVE_ERROR = 1e-12
_EPS = float(np.finfo(float).eps)
SCALE_SEARCH_STEPS = 100
# a composite edge fit stops once a Newton step can lower Z by no more than this many ulp of Z
FIT_STOP_ULPS = 8
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
    y = np.asarray(labels, dtype=float)
    return _split_mass(_weighted_mass(weights, q_plus), y, alpha_plus, alpha_minus)


def _plain_children(
    weights: np.ndarray, q_plus: np.ndarray, labels: LabelSplit
) -> tuple[float, float, np.ndarray, float, np.ndarray, float]:
    """Edges of a plain node, as ``_scored_children`` returns them, from one
    (2, N) mass [w q, w (1 - q)]: its W from one take by the positive-first
    order, the optimal alphas, then the mass scaled in place by one exp table
    into the children's unnormalized weights."""
    mass = _weighted_mass(weights, q_plus)
    alpha_plus, alpha_minus = optimal_alphas(_w_of_mass(mass, labels))
    return (alpha_plus, alpha_minus, *_split_mass(mass, labels.y, alpha_plus, alpha_minus))


def _split_mass(mass: np.ndarray, y: np.ndarray, alpha_plus: float, alpha_minus: float):
    """``children_weights`` from a ``_weighted_mass``, scaled in place by ``_scale_edges``."""
    z_plus, z_minus = np.add.reduce(_scale_edges(mass, y, alpha_plus, alpha_minus), axis=1).tolist()
    d_plus = mass[0] / z_plus if z_plus >= DEAD_BRANCH_THRESHOLD else np.zeros(mass.shape[1])
    d_minus = mass[1] / z_minus if z_minus >= DEAD_BRANCH_THRESHOLD else np.zeros(mass.shape[1])
    return d_plus, z_plus, d_minus, z_minus


def _fit_edge(label_mass: np.ndarray, h: np.ndarray) -> tuple[float, np.ndarray]:
    """Descend Z(a) = sum_k M+_k exp(-a h_k) + M-_k exp(a h_k) from a = 1, where
    ``label_mass`` is (M+, M-): each outcome's weight * reach summed over the
    +1 examples, then the -1 examples.  Z is convex in a; damped Newton steps
    are taken only when they lower Z, so the result never has a larger Z than
    a = 1.  Returns alpha and ``_exp_table(alpha, h)``, bit for bit.

    A Newton step and then its halvings, down to |step| <= 1e-12 max(1, |alpha|),
    are tried one exp pass each until one lowers Z.  While Z is finite the fit
    stops before a step whose predicted decrease s^2 / (2 c), for the slope -s
    and curvature c, is at most ``FIT_STOP_ULPS`` ulp of Z, which only rounding
    could make; s^2 is never formed, since it underflows to 0 below Z ~ 1e-154.
    """
    margins = np.concatenate((h, -h))  # y * h for y = +1, then y = -1
    moments = np.empty((2, len(margins)))  # -dZ/da and d2Z/da2 by entry, less the exp factor
    np.multiply(label_mass, margins, out=moments[0])
    np.multiply(moments[0], margins, out=moments[1])
    alpha, terms = 1.0, _exp_table(1.0, h)
    z = float((label_mass * terms).sum())
    for _ in range(SCALE_SEARCH_STEPS):
        minus_slope, curvature = (moments * terms).sum(axis=1).tolist()
        if not curvature > 0.0:
            break
        step, tolerance = minus_slope / curvature, 1e-12 * max(1.0, abs(alpha))
        if math.isfinite(z) and 0.5 * minus_slope * step <= FIT_STOP_ULPS * _EPS * z:
            break  # the step could lower Z only by rounding
        while abs(step) > tolerance:
            trial_terms = _exp_table(alpha + step, h)
            trial_z = float((label_mass * trial_terms).sum())
            if trial_z < z:
                alpha, z, terms = alpha + step, trial_z, trial_terms
                break
            step *= 0.5
        else:
            break  # no step lowers Z any more
    return alpha, terms


def _scored_children(
    weights: np.ndarray, y: np.ndarray, table: ClassTable
) -> tuple[float, float, np.ndarray, float, np.ndarray, float]:
    """Edges of a node whose outcomes carry real scores (a composite), from its
    class table (``CompositeNode.leaf_table``); ``y`` is the labels as floats.

    Each alpha_s minimizes Z_s starting from alpha_s = 1, where
    Z_+ + Z_- is the inner tree's C on these weights.  Returns
    (alpha_+, alpha_-, D_{s+}, Z_{s+}, D_{s-}, Z_{s-}).
    """
    weights, scores = np.asarray(weights, dtype=float), table.scores
    label_sums, negative = table.label_sums(weights, y > 0.0), y < 0.0
    edges = []
    for side in (_side(scores, 1), _side(scores, -1)):
        alpha, exps = _fit_edge(label_sums.compress(side, axis=1).ravel(), scores.compress(side))
        mass = weights * table.factor(side, exps, negative)
        z = float(mass.sum())
        edges.append((alpha, mass / z if z >= DEAD_BRANCH_THRESHOLD else np.zeros_like(weights), z))
    (a_plus, d_plus, z_plus), (a_minus, d_minus, z_minus) = edges
    return a_plus, a_minus, d_plus, z_plus, d_minus, z_minus


@dataclass
class TreeNode(_Edges):
    """An inner node: its classifier's edges and their normalizers Z_+, Z_-."""

    z_plus: float
    z_minus: float
    # children's weights D_{s+}, D_{s-}: training state, not part of the record
    weights_plus: np.ndarray | None = None
    weights_minus: np.ndarray | None = None

    def alpha(self, sign: int) -> float:
        return self.alpha_plus if sign == 1 else self.alpha_minus

    def z(self, edge: str) -> float:
        return self.z_plus if edge == "+" else self.z_minus

    def child_weights(self, edge: str) -> np.ndarray:
        return self.weights_plus if edge == "+" else self.weights_minus


@dataclass
class TreeModel:
    nodes: dict[str, TreeNode] = field(default_factory=dict)
    trajectory: list[float] = field(default_factory=list)  # C(0), C(1), ...
    metadata: dict[str, Any] = field(default_factory=dict)
    # a bound on the rounding error of the last C since it was last restated
    # as ``leaf_sum()``: training state, not part of the record
    c_error: float = field(default=0.0, init=False, repr=False, compare=False)

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
            product *= self.nodes[leaf[:depth]].z(edge)
        return product

    def leaf_sum(self, root: str = "") -> float:
        """C of the subtree rooted at ``root``: its leaves' Z products."""
        total = 0.0
        for product in self.leaf_products(root).values():
            total += product
        return total

    def restate_bound(self) -> None:
        """Set the last C to ``leaf_sum()``, which has no cancellation error."""
        self.trajectory[-1], self.c_error = self.leaf_sum(), 0.0

    def to_record(self) -> dict[str, Any]:
        """The model's record (``persist.model_record``)."""
        return persist.model_record(self)


class CompositeNode(ProbClassifier):
    """A collected subtree acting as a single two-branch node.

    A draw's score is H_inner of one walk through the inner tree, nested
    composites included; its output is sign(H_inner) with ties to +1.  Its
    outcomes on rows X are the inner walks: their probabilities on each row
    and their H_inner.  ``leaf_table`` holds them for the training
    examples, from what the inner nodes stored so that it agrees with the
    inner tree's recorded C, as a ``ClassTable`` of the classes of
    ``_row_classes``.  It is built on first read, and dropped when a wrapping
    composite builds its table (these walks expanded) or the matryoshka
    builder returns; a later read rebuilds it, bit for bit.
    """

    def __init__(self, inner: TreeModel):
        self.inner = inner
        self._leaf_table: ClassTable | None = None

    @property
    def leaf_table(self) -> ClassTable:
        if self._leaf_table is None:
            classes = _row_classes(self.inner)
            self._leaf_table = ClassTable(*walk_table(self.inner, classes=classes), classes[1])
            _drop_walk_tables(self.inner)
        return self._leaf_table

    def outcomes(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return walk_table(self.inner, X)


def _drop_walk_tables(tree: TreeModel) -> None:
    """Drop the walk tables of the composites among ``tree``'s nodes."""
    for node in tree.nodes.values():
        if isinstance(node.classifier, CompositeNode):
            node.classifier._leaf_table = None


def _row_classes(tree: TreeModel) -> tuple[np.ndarray, np.ndarray]:
    """(first example of each class, class of each example) of the training
    examples of a tree's walk table, classes numbered in order of appearance.
    Examples whose inner outcomes are bitwise equal, every plain node's stored q
    and every composite's class, have bitwise-equal rows, so a class is read at
    one example.  The examples' keys are grouped in one pass, as byte strings.
    A tree without nodes stores no rows: its one walk is one class of one example."""
    if not tree.nodes:
        return np.zeros(1, np.intp), np.zeros(1, np.intp)
    keys = np.array([node.classifier.leaf_table.classes if node.q_plus is None else node.q_plus.view(np.uint64)
                     for node in tree.nodes.values()], dtype=np.uint64).T.copy()
    first = {}
    owner = [first.setdefault(key, n) for n, key in enumerate(keys.view(f"V{keys.shape[1] * 8}").ravel().tolist())]
    representatives = np.fromiter(first.values(), np.intp, len(first))
    return representatives, np.searchsorted(representatives, owner)


def _feature_rows(tree: TreeModel, X) -> np.ndarray:
    """X as float rows, refused unless 2-D and of the tree's recorded feature dimension, if any."""
    X = np.asarray(X, dtype=float)
    dim = tree.metadata.get("dimension")
    if X.ndim != 2 or (dim is not None and X.shape[1] != dim):
        raise ValueError(f"expected rows of feature dimension {dim}, got shape {X.shape}")
    return X


def walk_table(
    tree: TreeModel, X: np.ndarray | None = None, classes: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Reach probabilities (rows, K) and scores H (K,) of every root-to-leaf
    walk, each composite on the way expanded into its inner walks.

    The rows are X, each node asked for its ``outcomes(X)`` (``_Edges``); without
    X they are the training examples, read from what training stored, or with
    ``classes`` (``_row_classes``) one per class of them.  The cap counts the rows
    of X or every training example.  A tree without nodes has one walk, H = 0.
    """
    X = None if X is None else _feature_rows(tree, X)
    root_rows = 1 if X is None else len(X)
    rows = None if classes is None else classes[0]
    if "" not in tree.nodes:
        return np.ones((root_rows, 1)), np.zeros(1)
    # A walk is its parent's reach (1 at the root) times its edge's outcome
    # columns, formed when the walk is expanded; a leaf walk is written once,
    # into its block of the table, when every block's width is known.
    leaves, stack, entries = [], [("", None, None, np.zeros(1))], 0
    while stack:
        path, parent, columns, score = stack.pop()
        node = tree.nodes.get(path)
        if node is None:
            leaves.append((parent, columns, score))
            continue
        reach = _outer_walks(parent, columns)
        node_reach, node_scores = node.outcomes(X, rows)
        examples = len(node_reach) if classes is None else len(classes[1])
        for sign, child in ((-1, "-"), (1, "+")):  # '+' is expanded first
            side = _side(node_scores, sign)
            child_score = (score[:, None] + node.alpha(sign) * node_scores[side]).ravel()
            entries += examples * len(child_score)
            if entries > MAX_WALK_ENTRIES:
                raise ValueError(f"walk table exceeds {MAX_WALK_ENTRIES} entries; nesting too deep")
            stack.append((path + child, reach, node_reach.compress(side, axis=1), child_score))
    scores = np.concatenate([score for _, _, score in leaves])
    table = np.empty((len(leaves[0][1]), len(scores)))
    start = 0
    for parent, columns, score in leaves:
        _outer_walks(parent, columns, out=table[:, start : start + len(score)])
        start += len(score)
    return table, scores


def _outer_walks(
    parent: np.ndarray | None, columns: np.ndarray | None, out: np.ndarray | None = None
) -> np.ndarray | None:
    """Every parent walk's reach times every outcome column, row by row:
    (rows, K_parent * K_columns), parent-major.  A parent of None is the
    root's reach, 1, and the root itself has no columns either.  ``out``
    may be a column block of a larger table."""
    if parent is None:
        if out is not None:
            out[...] = columns
        return columns
    if out is None:
        out = np.empty((max(len(parent), len(columns)), parent.shape[1] * columns.shape[1]))
    blocks = out.reshape(len(out), parent.shape[1], columns.shape[1])  # a view, also of a column block
    np.multiply(parent[:, :, None], columns[:, None, :], out=blocks)
    return out


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
        if not leaf or tree.nodes[leaf[:-1]].z(leaf[-1]) >= DEAD_BRANCH_THRESHOLD
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
    metadata = _model_metadata(config, dataset, kind="ptree", max_nodes=max_nodes,
                               target_bound=target_bound)
    tree = TreeModel(trajectory=[1.0], metadata=metadata)
    labels = dataset.label_split
    frontier = [_growth_key("", 1.0)]
    step = 0
    while frontier and (max_nodes is None or step < max_nodes):
        if target_bound is not None and tree.recorded_bound() <= target_bound:
            break
        negated_product, _, leaf = heapq.heappop(frontier)
        step += 1
        weights = _leaf_weights(tree, leaf, dataset)
        classifier = _train_step(learner, dataset, weights, "node {!r} (step {})", leaf, step)
        q = node_q(classifier, dataset, weights, config, stream, f"tree-q-est-{step}")
        node = attach_node(tree, leaf, classifier, q, weights, labels, -negated_product)
        for child, z in ((leaf + "+", node.z_plus), (leaf + "-", node.z_minus)):
            if z >= DEAD_BRANCH_THRESHOLD:  # _growth_key of the same product as leaf_product(child)
                heapq.heappush(frontier, (negated_product * z, len(child), child))
        if on_grow is not None:
            on_grow(tree, leaf)
            frontier = _frontier(tree)
    return tree


def _leaf_weights(tree: TreeModel, leaf: str, dataset: Dataset) -> np.ndarray:
    """Training weights at a leaf: the dataset's at the root, otherwise the
    parent's weights for that edge."""
    if leaf == "":
        return dataset.weights.copy()
    return tree.nodes[leaf[:-1]].child_weights(leaf[-1])


def attach_node(
    tree: TreeModel,
    leaf: str,
    classifier: ProbClassifier,
    q: np.ndarray | None,
    weights: np.ndarray,
    labels,
    prefix_product: float,
) -> TreeNode:
    """Install a trained classifier at a leaf, update the C trajectory, and
    return the new node.  ``q`` is the plain classifier's per-example q(+);
    None for a composite.  ``labels`` may be the dataset's ``label_split``.
    ``prefix_product`` is the leaf's product of Z, ``tree.leaf_product(leaf)``.

    C grows by prefix_product * (Z_+ + Z_- - 1), which cancels once C is far
    below 1; when the bound on its accumulated rounding error passes
    ``C_RELATIVE_ERROR`` of C, or C is not positive, C is restated as
    ``leaf_sum()``."""
    if leaf in tree.nodes:
        raise ValueError(f"{leaf!r} is already an inner node")
    labels = LabelSplit.of(labels)
    if classifier.leaf_table is None:
        q = np.asarray(q, dtype=float)
        a_plus, a_minus, d_plus, z_plus, d_minus, z_minus = _plain_children(weights, q, labels)
    else:
        a_plus, a_minus, d_plus, z_plus, d_minus, z_minus = _scored_children(
            weights, labels.y, classifier.leaf_table
        )
    node = tree.nodes[leaf] = TreeNode(
        classifier=classifier,
        q_plus=q,
        alpha_plus=a_plus,
        alpha_minus=a_minus,
        z_plus=z_plus,
        z_minus=z_minus,
        weights_plus=d_plus,
        weights_minus=d_minus,
    )
    c = tree.trajectory[-1] + prefix_product * (z_plus + z_minus - 1.0)
    tree.trajectory.append(c)
    # the sum, the difference, the product and the addition each round by at most eps
    tree.c_error += _EPS * (prefix_product * (z_plus + z_minus + 1.0) + abs(c))
    if c <= 0.0 or tree.c_error > C_RELATIVE_ERROR * c:
        tree.restate_bound()
    return node


def exact_tree_bound(tree: TreeModel, dataset: Dataset) -> float:
    """Weighted expected exponential loss, every walk enumerated.

    Sum over examples of D(n) times the sum over leaves of the product of
    the edge factors along the path; a composite's factor sums over its
    inner walks.  Equals the recorded leaf-sum of Z products.  Rows of
    weight 0 are left out, so a product that overflows there adds no 0 * inf.
    """
    y, kept = dataset.label_split.y, dataset.weights > 0.0

    def below(path: str):
        node = tree.nodes.get(path)
        if node is None:
            return 1.0
        return sum(factor[kept] * below(path + child) for factor, child in zip(node.edge_factors(y), "+-"))

    return float(np.sum(dataset.weights[kept] * below("")))


def predict_tree(
    tree: TreeModel, X: np.ndarray, stream: RandomStream, purpose: str, trials: int, *, leaves: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """Sample ``trials`` root-to-leaf walks for every row of X.

    Returns (scores H, leaves), both of shape (trials, len(X)): each walk's
    score and the top-level leaf it ends at; with ``leaves=False`` no leaf
    is recorded and the second is None.  The walks go down the tree
    level by level: the walks at the level's plain nodes draw in one
    ``uniforms`` call, each node's walks with its classifier's
    ``sample_batch``, and a composite walks its inner tree.  The uniform of
    a walk's k-th draw is keyed by (row, trial, k) in the stream tagged
    ``purpose``, so the result does not depend on the order in which walks
    or nodes are visited, and fewer trials give the first trials' walks.
    """
    X = _feature_rows(tree, X)
    _check_trials(trials)
    trial, row = np.divmod(np.arange(trials * len(X)), len(X))
    draws = np.zeros(len(row), dtype=np.uint64)
    paths = np.empty(len(row), dtype=object) if leaves else None
    scores = _walk(tree, X, row, trial.astype(np.uint64), draws, stream, purpose, paths)
    return scores.reshape(trials, len(X)), None if paths is None else paths.reshape(trials, len(X))


def _walk(tree, X, row, trial, draws, stream, purpose, leaves=None) -> np.ndarray:
    """One walk through ``tree`` per entry of ``row`` (the example) and
    ``trial``; ``draws`` counts each walk's draws so far and is advanced in
    place.  Returns each walk's score, and writes its leaf path into
    ``leaves`` if given (an inner tree's are not needed).  The walks go down
    level by level, as ``predict_tree`` says, each keyed by its own row,
    trial and draw count; a walk adds its nodes' terms in path order, so its
    score is that of the walk taken alone."""
    scores = np.zeros(len(row))
    level = [("", np.arange(len(row)))] if len(row) else []
    while level:
        drawn, plain = [], []  # (path, node, walks, h) and (path, node, walks)
        for path, at in level:
            node = tree.nodes.get(path)
            if node is None:
                if leaves is not None:
                    leaves[at] = path
            elif isinstance(node.classifier, CompositeNode):  # walk its inner tree; builds no table
                inner_draws = draws[at]
                h = _walk(node.classifier.inner, X, row[at], trial[at], inner_draws, stream, purpose)
                draws[at] = inner_draws
                drawn.append((path, node, at, h))
            else:
                plain.append((path, node, at))
        if plain:
            walks = np.concatenate([at for _, _, at in plain])
            walk_rows, walk_draws = row[walks], draws[walks]
            u = stream.uniforms(purpose, walk_rows, (walk_draws << np.uint64(32)) | trial[walks])
            draws[walks] = walk_draws + np.uint64(1)
            rows, start = X[walk_rows], 0
            for path, node, at in plain:
                stop = start + len(at)
                drawn.append((path, node, at, node.classifier.sample_batch(rows[start:stop], u[start:stop])))
                start = stop
        level = []
        for path, node, at, h in drawn:
            plus = _side(h, 1)  # a NaN score walks '-', as walk tables and edge factors take it
            scores[at] += np.where(plus, node.alpha_plus, node.alpha_minus) * h
            level += [(child, walks) for child, walks in ((path + "+", at[plus]), (path + "-", at[~plus]))
                      if len(walks)]
    return scores


# persist reads this module's classes; imported once they are defined, it breaks the cycle
from . import persist  # noqa: E402
