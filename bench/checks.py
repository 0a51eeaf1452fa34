"""Correctness checks, computed by the benchmark itself.

Nothing here compares against stored output.  Every check recomputes a
quantity from the model's classifiers and the data, or tests a property
the method must have, and returns a list of problems (empty when the
output is right).  The walk enumeration below is written independently of
``probboost.ptree.walk_table`` and ``exact_tree_bound``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from probboost.matryoshka import CompositeNode
from probboost.persist import load_model

#: A composite's walks are enumerated for this many examples at a time, so
#: that a check needs less memory than the build it checks (peak_rss_mb
#: counts both).
CHUNK = 8
REL_TOL = 1e-9
Z_SLACK = 1e-9
COLLECT_SLACK = 1e-12
MC_SIGMAS = 5.0


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def product_bound_F(T: int, rho: float) -> float:
    """F(T, rho) as the running product prod_{t<T} (t + rho) / (t + 1)."""
    value = 1.0
    for t in range(T):
        value *= (t + rho) / (t + 1)
    return value


def iterated_M2(levels: int, rho: float) -> float:
    """M2(2^levels, rho): ``levels`` steps of x -> x (1 + x) / 2 from rho."""
    value = rho
    for _ in range(levels):
        value = value * (1.0 + value) / 2.0
    return value


# ---------------------------------------------------------------------------
# Walk enumeration from the classifiers' q on given features.

def classifier_outcomes(classifier, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P, h): P[n, k] is the probability that the classifier draws outcome
    k on X[n], and h[k] is that outcome's score.  A plain classifier draws
    +1 or -1; a composite draws one walk of its inner tree, scored by the
    walk's H."""
    if isinstance(classifier, CompositeNode):
        # the walks and their H are the same for every example; only their
        # probabilities differ, so the examples can go in chunks
        chunks = [tree_walks(classifier.inner, X[i:i + CHUNK]) for i in range(0, len(X), CHUNK)]
        return np.vstack([P for P, _ in chunks]), chunks[0][1]
    q = np.array([classifier.q_plus(x) for x in X], dtype=float)
    return np.column_stack([q, 1.0 - q]), np.array([1.0, -1.0])


def _edges(node, h: np.ndarray):
    """(sign, child suffix, alpha, outcome mask) for both edges; a draw takes
    edge sign(h), ties to +."""
    return (
        (1, "+", node.alpha_plus, h >= 0.0),
        (-1, "-", node.alpha_minus, h < 0.0),
    )


def tree_walks(tree, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every root-to-leaf walk: P (N, K) walk probabilities, H (K,) scores.
    Each edge adds alpha_s times the score of the outcome drawn."""
    n = len(X)

    def below(path: str):
        node = tree.nodes.get(path)
        if node is None:
            return np.ones((n, 1)), np.zeros(1)
        P, h = classifier_outcomes(node.classifier, X)
        parts_p, parts_h = [], []
        for _, suffix, alpha, side in _edges(node, h):
            child_p, child_h = below(path + suffix)
            parts_p.append((P[:, side][:, :, None] * child_p[:, None, :]).reshape(n, -1))
            parts_h.append((alpha * h[side][:, None] + child_h[None, :]).ravel())
        return np.hstack(parts_p), np.concatenate(parts_h)

    return below("")


def exact_exp_loss(tree, X: np.ndarray, y: np.ndarray, D: np.ndarray) -> float:
    """Sum_n D(n) E[exp(-y_n H(X_n))], factorised node by node so that only
    composites are expanded into walks."""
    y = np.asarray(y, dtype=float)

    def below(path: str) -> np.ndarray:
        node = tree.nodes.get(path)
        if node is None:
            return np.ones(len(X))
        P, h = classifier_outcomes(node.classifier, X)
        total = np.zeros(len(X))
        for _, suffix, alpha, side in _edges(node, h):
            factor = np.sum(P[:, side] * np.exp(-alpha * np.outer(y, h[side])), axis=1)
            total += factor * below(path + suffix)
        return total

    return float(np.sum(D * below("")))


def exact_01_loss(tree, X: np.ndarray, y: np.ndarray, D: np.ndarray) -> float:
    """Sum_n D(n) P(y_n H(X_n) <= 0): ties count as errors."""
    P, H = tree_walks(tree, X)
    wrong = (np.asarray(y, dtype=float)[:, None] * H[None, :]) <= 0.0
    return float(np.sum(D * np.sum(P * wrong, axis=1)))


# ---------------------------------------------------------------------------
# Probabilistic AdaBoost.

def stump_error(X, y, w, feature, threshold, polarity, constant=None) -> float:
    if constant is not None:
        decision = np.full(len(y), constant)
    else:
        decision = np.where(X[:, feature] >= threshold, 1, -1) * polarity
    return float(np.sum(w[decision != y]))


def best_stump_error(X: np.ndarray, y: np.ndarray, w: np.ndarray) -> float:
    """Least weighted error over every (feature, midpoint threshold,
    polarity), by brute force."""
    best = math.inf
    for j in range(X.shape[1]):
        values = np.unique(X[:, j])
        thresholds = 0.5 * (values[:-1] + values[1:])
        if thresholds.size == 0:
            continue
        above = X[None, :, j] >= thresholds[:, None]  # (thresholds, N)
        for polarity in (1, -1):
            decision = np.where(above, 1, -1) * polarity
            errors = np.sum(w[None, :] * (decision != y[None, :]), axis=1)
            best = min(best, float(errors.min()))
    return best


def check_adaboost(model, dataset) -> list[str]:
    """Replay every stage's weight update from the stored q and alphas, and
    check the stump each stage chose against a brute-force scan."""
    problems = []
    X, y, w = dataset.features, dataset.labels, dataset.weights.copy()
    yf = y.astype(float)
    product = 1.0
    for t, stage in enumerate(model.stages, start=1):
        clf = stage.classifier
        err = stump_error(X, y, w, clf.feature, clf.threshold, clf.polarity, clf.constant)
        best = best_stump_error(X, y, w)
        if err > best + 1e-12:
            problems.append(f"stage {t}: stump error {err!r} above the best {best!r}")
        q = stage.q_plus
        factors = q * np.exp(-stage.alpha_plus * yf) + (1.0 - q) * np.exp(stage.alpha_minus * yf)
        z = float(np.sum(w * factors))
        if z > 1.0 + Z_SLACK:
            problems.append(f"stage {t}: replayed Z {z!r} > 1")
        product *= z
        w = w * factors / z
    if not _close(product, model.recorded_bound()):
        problems.append(f"replayed Z product {product!r} != recorded bound {model.recorded_bound()!r}")
    return problems


def check_reload(model, path: Path) -> list[str]:
    """The saved file must reload to the record that was saved."""
    record = model.to_record()
    stored = json.loads(Path(path).read_text(encoding="utf-8"))
    stored.pop("format_version", None)
    problems = []
    if stored != json.loads(json.dumps(record)):
        problems.append("saved JSON differs from the model's record")
    if load_model(path).to_record() != record:
        problems.append("reloaded model's record differs from the saved one")
    return problems


# ---------------------------------------------------------------------------
# Trees and matryoshki.

def check_exact_identity(tree, dataset) -> list[str]:
    exact = exact_exp_loss(tree, dataset.features, dataset.labels, dataset.weights)
    recorded = tree.recorded_bound()
    if not _close(recorded, exact):
        return [f"recorded bound {recorded!r} != exact loss {exact!r}"]
    return []


def check_ptree(tree, dataset, T: int, rho: float) -> list[str]:
    problems = check_exact_identity(tree, dataset)
    if tree.n_nodes != T:
        problems.append(f"tree has {tree.n_nodes} nodes, expected {T}")
    F = product_bound_F(T, rho)
    if tree.recorded_bound() > F + 1e-9:
        problems.append(f"recorded bound {tree.recorded_bound()!r} > F(T, rho) = {F!r}")
    trajectory = tree.trajectory
    if len(trajectory) != T + 1:
        problems.append(f"trajectory has {len(trajectory)} values, expected {T + 1}")
    if any(b > a for a, b in zip(trajectory, trajectory[1:])):
        problems.append("trajectory increases")
    return problems


def check_analytic(name: str, value: float, expected: float) -> list[str]:
    if not _close(value, expected):
        return [f"{name} = {value!r}, the product form gives {expected!r}"]
    return []


def check_fixed_2(tree, dataset, L: int, rho: float, calls: int) -> list[str]:
    problems = check_exact_identity(tree, dataset)
    m2 = iterated_M2(L, rho)
    if tree.recorded_bound() > m2 + 1e-9:
        problems.append(f"recorded bound {tree.recorded_bound()!r} > M2 = {m2!r}")
    if calls != 2**L:
        problems.append(f"{calls} weak-learner calls, budget {2**L}")
    return problems


def check_greedy(tree, log, dataset, budget: int, calls: int) -> list[str]:
    problems = check_exact_identity(tree, dataset)
    for before, entry in zip(log, log[1:]):
        if entry.action == "collect" and entry.C > before.C + COLLECT_SLACK:
            problems.append(f"collect at step {entry.step} raised C from {before.C!r} to {entry.C!r}")
    if calls != budget:
        problems.append(f"{calls} weak-learner calls, budget {budget}")
    return problems


# ---------------------------------------------------------------------------
# probboost eval output.

def parse_eval(text: str) -> dict[str, float]:
    """The numbers `probboost eval` prints."""
    out = {}
    for line in text.splitlines():
        if line.startswith("mc loss: "):
            fields = line[len("mc loss: "):].split()
            out["mc_loss"], out["mc_se"] = float(fields[0]), float(fields[2])
        elif line.startswith("exact exponential bound: "):
            out["exact"] = float(line.split(": ", 1)[1])
        elif line.startswith("recorded training bound: "):
            out["recorded"] = float(line.split(": ", 1)[1])
    return out


def check_eval(text: str, model, dataset) -> list[str]:
    printed = parse_eval(text)
    missing = {"mc_loss", "mc_se", "exact", "recorded"} - printed.keys()
    if missing:
        return [f"eval output lacks {sorted(missing)}"]
    problems = []
    X, y, D = dataset.features, dataset.labels, dataset.weights
    exact = exact_exp_loss(model, X, y, D)
    if not _close(printed["exact"], exact):
        problems.append(f"printed exact bound {printed['exact']!r} != {exact!r} on the data")
    loss01 = exact_01_loss(model, X, y, D)
    # the printed figures are rounded to 6 decimals
    if abs(printed["mc_loss"] - loss01) > MC_SIGMAS * printed["mc_se"] + 1e-6:
        problems.append(
            f"mc loss {printed['mc_loss']} is more than {MC_SIGMAS} standard errors "
            f"({printed['mc_se']}) from the exact 0/1 loss {loss01!r}"
        )
    return problems
