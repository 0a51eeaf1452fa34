"""Probabilistic weak learners, Bernoulli-parameter estimation, and the two
parameterless sampling strategies.

A weak learner returns, for any weighting of the training set, a classifier
whose output on X is a Bernoulli draw over {-1, +1} with parameter
q(+, X).  The branch probabilities q are unknown in general and are
estimated by repeated sampling (ML or MAP); the two strategies decide when
to stop spending samples on the current classifier.  Both draw rounds with
``_draw_plus`` and score them with ``map_z_estimate``.  Strategy A is below;
strategy B's rule and loop are ``adaboost._train_strategy_B``.
"""

from __future__ import annotations

import hashlib
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any

import numpy as np

from ._zstats import ClassTable, WStats, _check_size, _scale_edges, _side, optimal_alphas, w_statistics, z_value
from .core import MAX_BLOCK_DRAWS, Dataset, RandomStream

__all__ = [
    "ProbClassifier",
    "WeakLearner",
    "map_z_estimate",
    "estimate_q_strategy_A",
    "node_q",
    "builtin_constant_edge_oracle",
    "builtin_noisy_stump",
    "ConstantEdgeClassifier",
    "TrainingSet",
    "StumpClassifier",
]

# Strategy A may stop once it has sampled more than R_MIN_DEFAULT rounds and
# stops at R_MAX_DEFAULT; strategy B looks ahead at most R_MAX_DEFAULT * T times.
R_MIN_DEFAULT = 2
R_MAX_DEFAULT = 10_000
PLAIN_SCORES = np.array([1.0, -1.0])  # the outcomes of a plain node: +1, then -1


@dataclass
class TrainConfig:
    """What a user chooses for training; the sampling strategies themselves
    take no parameters."""

    seed: int = 0
    exact_q: bool = False
    estimator: str = "map"  # "map" | "ml"
    strategy: str = "A"  # "A" | "B"

    def __post_init__(self) -> None:
        if self.estimator not in ("map", "ml"):
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.strategy not in ("A", "B"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.strategy == "B" and self.exact_q:
            raise ValueError("strategy B samples q; it cannot run with exact q")


def _model_metadata(config: TrainConfig, dataset: Dataset, **fields) -> dict[str, Any]:
    """A model's metadata: the training choices every model records, the
    dimension of its training data, and the model's own ``fields``."""
    return {
        "seed": config.seed,
        "exact_q": config.exact_q,
        "estimator": config.estimator,
        "dimension": dataset.dimension,
        **fields,
    }


class ProbClassifier(ABC):
    """A per-input Bernoulli oracle over {-1, +1}."""

    #: None for a plain +/-1 classifier.  A classifier whose tree edges carry
    #: real-valued scores (a collected subtree) gives its ``outcomes`` on the
    #: training examples here, as a ``ClassTable``.
    leaf_table: ClassTable | None = None

    def outcomes(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(reach (len(X), K), scores (K,)): the probability of each outcome
        the classifier can draw on each row of X, and that outcome's score.
        Only a classifier whose q is known has them."""
        raise NotImplementedError("exact q unavailable; sample instead")

    def _q(self, X: np.ndarray) -> np.ndarray:
        """Exact q(+, x) on each row of X, which draws, exact q and a plain node's
        walk columns read: the reach of the outcomes on the + side (``_side``)."""
        reach, scores = self.outcomes(X)
        return reach[:, _side(scores, 1)].sum(axis=1)

    def q_plus(self, x: np.ndarray) -> float:
        """Exact q(+, x) on one row."""
        return float(self._q(np.asarray(x, dtype=float)[None])[0])

    def sample_batch(self, X: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Draws from uniforms u in [0, 1) of shape (..., len(X)), whose last
        axis runs over the rows of X: the scores drawn, in u's shape, whose
        sign is the branch a tree takes.  By default +1 where u < q(+, x),
        else -1; a classifier without exact q overrides this."""
        return np.where(np.asarray(u) < self._q(X), 1.0, -1.0)

    def _training_q(self) -> np.ndarray | None:
        """Exact q(+) on the rows the classifier was trained on, where its
        record and the model file rebuild it: a node or stage with that q
        then stores none.  None where the file cannot."""
        return None


def _plain_outcomes(q_plus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The outcome table of a plain classifier that draws +1 with
    probability ``q_plus`` on each row: (reach, ``PLAIN_SCORES``)."""
    return np.array((q_plus, 1.0 - q_plus)).T.copy(), PLAIN_SCORES  # a C-ordered (N, 2) copy


class _PlainClassifier(ProbClassifier):
    """A built-in plain classifier: it defines its exact q(+, x) on rows X,
    ``_q(X)``, once, and its outcome table is read from that q."""

    @abstractmethod
    def _q(self, X: np.ndarray) -> np.ndarray: ...

    def outcomes(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _plain_outcomes(self._q(X))


class WeakLearner(ABC):
    """Example weights to a classifier whose draws are random; nothing else."""

    @abstractmethod
    def train(self, dataset: Dataset, weights: np.ndarray) -> ProbClassifier: ...


def _train_step(learner: WeakLearner, dataset: Dataset, weights, where: str, *args) -> ProbClassifier:
    """One weak-learner call.  A ValueError (bad input) passes through; any
    other failure is the learner's, at ``where.format(*args)`` ("round 2",
    "node '+' (step 3)"), formatted only then."""
    try:
        return learner.train(dataset, weights)
    except ValueError:
        raise
    except Exception as exc:
        raise RuntimeError(f"weak learner failed at {where.format(*args)}") from exc


def _q_estimate(counts_plus: np.ndarray, rounds, estimator: str) -> np.ndarray:
    """q(+) estimates from the counts of draws on the + side after
    ``rounds`` rounds: an int, or a column of ints for one row per round."""
    if estimator == "map":
        return (1.0 + counts_plus) / (rounds + 2)
    if estimator == "ml":
        if np.any(rounds < 1):
            raise ValueError("ML estimate undefined without observations")
        return counts_plus / rounds
    raise ValueError(f"unknown estimator {estimator!r}")


def _draw_plus(classifier, dataset: Dataset, stream: RandomStream, purpose: str, rounds) -> np.ndarray:
    """The sampling rounds numbered ``rounds`` (a 1-D sequence) on the N
    training rows, one ``uniforms`` and one ``sample_batch`` call: a
    (len(rounds), N) array, True where the score drawn takes the + branch."""
    u = stream.uniforms(purpose, np.arange(dataset.n_examples), np.asarray(rounds)[:, None])
    return _side(classifier.sample_batch(dataset.features, u), 1)


def map_z_estimate(q: np.ndarray, weights: np.ndarray, labels):
    """The Z estimate at the optimal alphas of each row of q estimates
    (R, N), each bit for bit that of the row alone; ``labels`` may be a
    ``LabelSplit``.  One W pass covers the rows; a row's alphas and Z are
    computed when the generator reaches it."""
    for w in map(WStats._make, zip(*w_statistics(weights, q, labels))):
        yield z_value(w, *optimal_alphas(w))


def estimate_q_strategy_A(
    classifier: ProbClassifier,
    dataset: Dataset,
    weights: np.ndarray,
    stream: RandomStream,
    purpose: str = "strategy-A",
    estimator: str = "map",
) -> tuple[np.ndarray, int]:
    """Sample until the Z_T estimate first increases; return the estimates
    from the round preceding the increase.

    Returns (q_plus estimates, rounds spent).  A hard cap of
    ``R_MAX_DEFAULT`` rounds aborts with the current estimates.

    Rounds are drawn in blocks of at most ``MAX_BLOCK_DRAWS`` uniforms (one
    round once N > MAX_BLOCK_DRAWS / 2), each block one ``uniforms`` call, W
    pass and ``sample_batch`` call on the training rows with u of shape
    (rounds, N).
    A draw is a pure function of (example, round) and each round's W is
    summed as that round alone, so the result is bit for bit that of one
    round per call; rounds drawn past the stop are dropped.
    """
    n = dataset.n_examples
    per_block = max(1, min(MAX_BLOCK_DRAWS // n, R_MAX_DEFAULT))
    counts = np.zeros(n, dtype=int)
    prev_z = math.inf
    prev_q = _q_estimate(counts, 0, "map")  # prior mean before any observation
    done = 0
    while done < R_MAX_DEFAULT:
        rounds = np.arange(done + 1, min(done + per_block, R_MAX_DEFAULT) + 1)
        plus = _draw_plus(classifier, dataset, stream, purpose, rounds)
        # a cumsum down the rows costs one call per example; one round needs none
        counts = counts + (plus.cumsum(axis=0) if len(rounds) > 1 else plus)
        q = _q_estimate(counts, rounds[:, None], estimator)
        for r, q_r, z in zip(rounds.tolist(), q, map_z_estimate(q, weights, dataset.label_split)):
            if r > R_MIN_DEFAULT and z > prev_z:
                return prev_q.copy(), r
            prev_z, prev_q = z, q_r
        counts, done = counts[-1], done + len(rounds)
    return prev_q.copy(), R_MAX_DEFAULT


def node_q(classifier, dataset, weights, config, stream, purpose: str) -> np.ndarray | None:
    """Per-example q(+) of a new node or boosting stage: exact, or estimated
    by sampling the stream tagged ``purpose``.  None for a composite, whose
    outcomes on the training set are its ``leaf_table``."""
    if classifier.leaf_table is not None:
        return None
    if config.exact_q:
        return classifier._q(dataset.features)
    return estimate_q_strategy_A(classifier, dataset, weights, stream, purpose, config.estimator)[0]


# ---------------------------------------------------------------------------
# Built-in learners.

def _row_keys(X: np.ndarray) -> np.ndarray:
    """Each row of a float matrix as one opaque byte string; -0.0 is stored
    as 0.0 so that equal rows have equal keys."""
    X = np.ascontiguousarray(X + 0.0)
    return X.view(np.dtype((np.void, X.dtype.itemsize * X.shape[1]))).ravel()


class TrainingSet:
    """The examples a constant-edge oracle knows, shared by every classifier
    trained on them: their rows sorted by bytes for binary search, the
    oracle's q on the rows themselves for each epsilon, and the fingerprint
    that names them in a model file (a blake2s digest of the shape, the row
    bytes with -0.0 stored as 0.0, and the labels)."""

    def __init__(self, features, labels):
        try:
            self.features = np.asarray(features, dtype=float)
            self.labels = np.asarray(labels, dtype=int)
        except ValueError as exc:  # a ragged row, or a string that is not a number
            raise TypeError(f"malformed training set: {exc}") from None
        if self.features.ndim != 2 or self.labels.shape != (len(self.features),):
            shapes = f"features of shape {self.features.shape}, labels of shape {self.labels.shape}"
            raise TypeError(f"malformed training set: {shapes}")
        digest = hashlib.blake2s(digest_size=16)
        digest.update("{},{}\x00".format(*self.features.shape).encode("ascii"))
        digest.update((self.features + 0.0).astype("<f8").tobytes())
        digest.update(self.labels.astype("<i8").tobytes())
        self.fingerprint = digest.hexdigest()
        self._edge_q: dict[float, np.ndarray] = {}  # filled by ConstantEdgeClassifier._q
        keys = _row_keys(self.features)
        # a repeated row takes the label of its last copy
        self._order = np.argsort(keys, kind="stable")
        self._sorted_keys = keys[self._order]

    def _search(self, keys: np.ndarray) -> np.ndarray:
        at = np.searchsorted(self._sorted_keys, keys, side="right") - 1
        if np.any(at < 0) or np.any(self._sorted_keys[at] != keys):
            raise ValueError("constant-edge oracle only knows its training examples")
        return self.labels[self._order[at]]

    def labels_of(self, X: np.ndarray) -> np.ndarray:
        """The label of each row of X."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.features.shape[1]:
            raise ValueError(f"expected rows of dimension {self.features.shape[1]}, got shape {X.shape}")
        return self._search(_row_keys(X))


class ConstantEdgeClassifier(_PlainClassifier):
    """Synthetic oracle: outputs the true label with probability 1/2 + eps."""

    def __init__(self, epsilon: float, training_set: TrainingSet):
        self.epsilon = float(epsilon)
        self.training_set = training_set

    def _q(self, X: np.ndarray) -> np.ndarray:
        """On the training rows themselves, which the file holds, q is built
        once per (training set, epsilon) and shared read-only."""
        own = X is self.training_set.features
        q = self.training_set._edge_q.get(self.epsilon) if own else None
        if q is None:
            q = np.where(self.training_set.labels_of(X) == 1, 0.5 + self.epsilon, 0.5 - self.epsilon)
            if own:
                q.flags.writeable = False
                self.training_set._edge_q[self.epsilon] = q
        return q

    def _training_q(self) -> np.ndarray:
        return self._q(self.training_set.features)

class ConstantEdgeLearner(WeakLearner):
    """Training ignores the weights entirely; the error is 1/2 - eps always."""

    def __init__(self, epsilon: float):
        if not 0.0 < epsilon <= 0.5:
            raise ValueError(f"epsilon must be in (0, 1/2], got {epsilon}")
        self.epsilon = epsilon
        # the one classifier of the last dataset trained on, which every node trained on it shares
        self._classifier: ConstantEdgeClassifier | None = None

    def train(self, dataset: Dataset, weights) -> ConstantEdgeClassifier:
        known = self._classifier and self._classifier.training_set
        if known is None or known.features is not dataset.features or known.labels is not dataset.labels:
            self._classifier = ConstantEdgeClassifier(self.epsilon, TrainingSet(dataset.features, dataset.labels))
        return self._classifier


def builtin_constant_edge_oracle(epsilon: float) -> ConstantEdgeLearner:
    return ConstantEdgeLearner(epsilon)


class StumpClassifier(_PlainClassifier):
    """Axis-aligned threshold stump whose decision is flipped w.p. p_flip."""

    def __init__(
        self,
        feature: int,
        threshold: float,
        polarity: int,
        p_flip: float,
        constant: int | None = None,
    ):
        self.feature = feature
        self.threshold = threshold
        self.polarity = polarity
        self.p_flip = p_flip
        self.constant = constant

    def decisions(self, X: np.ndarray) -> np.ndarray:
        """The noiseless +/-1 decision on each row of X."""
        X = np.asarray(X, dtype=float)
        if self.constant is not None:
            return np.full(len(X), self.constant)
        return np.where(X[:, self.feature] >= self.threshold, 1, -1) * self.polarity

    def _q(self, X: np.ndarray) -> np.ndarray:
        return np.where(self.decisions(X) == 1, 1.0 - self.p_flip, self.p_flip)

class NoisyStumpLearner(WeakLearner):
    """Exhaustive scan over (feature, midpoint threshold, polarity)."""

    def __init__(self, p_flip: float = 0.1):
        if not 0.0 <= p_flip < 0.5:
            raise ValueError(f"p_flip must be in [0, 0.5), got {p_flip}")
        self.p_flip = p_flip

    def train(self, dataset: Dataset, weights) -> StumpClassifier:
        weights = np.asarray(weights, dtype=float)
        y = dataset.labels
        best: tuple[float, int, float, int] | None = None  # (err, feature, thr, pol)
        for j in range(dataset.dimension):
            values = dataset.features[:, j]
            order = np.argsort(values, kind="stable")
            sv, sy, sw = values[order], y[order], weights[order]
            cuts = np.flatnonzero(sv[:-1] != sv[1:])  # a threshold goes after position i
            if not cuts.size:
                continue
            # wrong mass for polarity +1 (predict +1 where v >= thr) with the
            # threshold placed after position i: D[y=+1, v<thr] + D[y=-1, v>=thr]
            pos_mass = np.cumsum(np.where(sy == 1, sw, 0.0))
            neg_mass = np.cumsum(np.where(sy == -1, sw, 0.0))
            err_plus = pos_mass[cuts] + (neg_mass[-1] - neg_mass[cuts])
            errs = np.column_stack([err_plus, 1.0 - err_plus]).ravel()  # each cut: pol +1, then -1
            # a candidate no lower than an earlier one fails the test below,
            # which that one already passed or failed
            new_low = np.append(True, errs[1:] < np.minimum.accumulate(errs)[:-1])
            for k in np.flatnonzero(new_low).tolist():
                if best is None or errs[k] < best[0] - 1e-15:
                    i = cuts[k // 2]
                    best = (errs[k], j, 0.5 * (sv[i] + sv[i + 1]), (1, -1)[k % 2])
        if best is None:
            majority = 1 if float(np.sum(weights[y == 1])) >= 0.5 else -1
            return StumpClassifier(0, 0.0, 1, self.p_flip, constant=majority)
        _, feature, thr, pol = best
        return StumpClassifier(feature, thr, pol, self.p_flip)


def builtin_noisy_stump(p_flip: float = 0.1) -> NoisyStumpLearner:
    return NoisyStumpLearner(p_flip)


@dataclass
class _Edges:
    """A weak classifier and its domain-partitioned edge weights, the unit that an
    AdaBoost stage and a tree node share; each adds its Z fields.  It is the
    one class that evaluates the unit: ``outcomes`` and ``edge_factors``."""

    classifier: ProbClassifier
    q_plus: np.ndarray | None  # q(+) per training example; None for a composite, whose outcomes are its walks
    alpha_plus: float
    alpha_minus: float

    def outcomes(self, X: np.ndarray | None = None, rows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(reach, scores) of the classifier on the rows X.  Without X the rows
        are the training examples, or those indexed by ``rows``, and come from
        what training stored.  A plain classifier draws +1 with its q(+), stored
        or its ``_q(X)``, and -1 otherwise; a composite draws its inner walks,
        each example its class's row of the ``leaf_table``."""
        if X is not None:
            return self.classifier.outcomes(X) if self.q_plus is None else _plain_outcomes(self.classifier._q(X))
        if self.q_plus is None:  # a composite
            table = self.classifier.leaf_table
            return table.rows(rows), table.scores
        return _plain_outcomes(self.q_plus if rows is None else self.q_plus[rows])

    def edge_factors(self, y: np.ndarray):
        """The + and - edge factors on the training examples, ``y`` their labels
        as floats: a composite's ``ClassTable.edge_factors``; a plain classifier's
        q e^{-alpha+ y} and (1 - q) e^{alpha- y}, one (2, N) array as training scaled its mass."""
        if self.q_plus is None:
            return self.classifier.leaf_table.edge_factors(y, self.alpha_plus, self.alpha_minus)
        _check_size(self.q_plus, y)
        return _scale_edges(np.array((self.q_plus, 1.0 - self.q_plus)), y, self.alpha_plus, self.alpha_minus)
