"""Probabilistic weak learners, Bernoulli-parameter estimation, and the two
parameterless sampling strategies.

A weak learner returns, for any weighting of the training set, a classifier
whose output on X is a Bernoulli draw over {-1, +1} with parameter
q(+, X).  The branch probabilities q are unknown in general and are
estimated by repeated sampling (ML or MAP); the two strategies decide when
to stop spending samples on the current classifier.  Strategy A is below;
strategy B's loop is ``adaboost._train_strategy_B``, which compares its
options with ``_log_rate``.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any

import numpy as np

from ._zstats import optimal_alphas, w_statistics, z_value
from .core import Dataset, RandomStream

__all__ = [
    "ProbClassifier",
    "WeakLearner",
    "OracleEstimate",
    "map_z_estimate",
    "estimate_q_strategy_A",
    "node_q",
    "builtin_constant_edge_oracle",
    "builtin_noisy_stump",
    "ConstantEdgeClassifier",
    "StumpClassifier",
    "classifier_from_record",
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


class ProbClassifier(ABC):
    """A per-input Bernoulli oracle over {-1, +1}."""

    #: None for a plain +/-1 classifier.  A classifier whose tree edges carry
    #: real-valued scores (a collected subtree) sets it to its ``outcomes``
    #: on the training examples.
    leaf_table: tuple[np.ndarray, np.ndarray] | None = None

    def outcomes(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(reach (len(X), K), scores (K,)): the probability of each outcome
        the classifier can draw on each row of X, and that outcome's score.
        A plain classifier draws +1 with its exact q(+, x), else -1
        (``PLAIN_SCORES``).  Only a classifier whose q is known has them."""
        raise NotImplementedError("exact q unavailable; sample instead")

    def q_plus(self, x: np.ndarray) -> float:
        """Exact q(+, x) on one row: the probability of drawing a score >= 0."""
        reach, scores = self.outcomes(np.asarray(x, dtype=float)[None])
        return float(reach[0, scores >= 0.0].sum())

    def sample_batch(self, X: np.ndarray, u: np.ndarray) -> np.ndarray:
        """One draw per row of X, made from the uniform in [0, 1) at the same
        position of ``u``: the score of the outcome drawn, whose sign is the
        branch a tree takes.  A plain classifier's score is its +/-1 output,
        +1 where u < q(+, x).  A classifier without exact q overrides this."""
        reach, scores = self.outcomes(X)
        picked = np.sum(np.cumsum(reach, axis=1) <= np.asarray(u)[:, None], axis=1)
        return scores[np.minimum(picked, len(scores) - 1)]

    @abstractmethod
    def to_record(self) -> dict[str, Any]: ...


class WeakLearner(ABC):
    """Example weights to a classifier whose draws are random; nothing else."""

    @abstractmethod
    def train(self, dataset: Dataset, weights: np.ndarray) -> ProbClassifier: ...


def _train_step(learner: WeakLearner, dataset: Dataset, weights, where: str) -> ProbClassifier:
    """One weak-learner call.  A ValueError (bad input) passes through; any
    other failure is the learner's, at ``where`` ("round 2", "node '+' (step 3)")."""
    try:
        return learner.train(dataset, weights)
    except ValueError:
        raise
    except Exception as exc:
        raise RuntimeError(f"weak learner failed at {where}") from exc


@dataclass
class OracleEstimate:
    """Running per-example observation counts for one classifier."""

    counts_plus: np.ndarray  # observed +1 outputs per example
    rounds: int = 0

    @classmethod
    def empty(cls, n_examples: int) -> "OracleEstimate":
        return cls(counts_plus=np.zeros(n_examples, dtype=int), rounds=0)

    def observe(self, outputs: np.ndarray) -> None:
        self.counts_plus += (np.asarray(outputs) == 1).astype(int)
        self.rounds += 1

    def q_plus(self, estimator: str = "map") -> np.ndarray:
        if estimator == "map":
            return (1.0 + self.counts_plus) / (self.rounds + 2)
        if estimator == "ml":
            if self.rounds < 1:
                raise ValueError("ML estimate undefined without observations")
            return self.counts_plus / self.rounds
        raise ValueError(f"unknown estimator {estimator!r}")


def map_z_estimate(
    estimate: OracleEstimate,
    weights: np.ndarray,
    labels: np.ndarray,
    estimator: str = "map",
) -> tuple[float, np.ndarray]:
    """Z_T estimate at the optimal alphas for the current q estimates."""
    q = estimate.q_plus(estimator)
    w = w_statistics(weights, q, labels)
    a_plus, a_minus = optimal_alphas(w)
    return z_value(w, a_plus, a_minus), q


def _sample_round(
    classifier: ProbClassifier,
    dataset: Dataset,
    stream: RandomStream,
    purpose: str,
    counter: int,
) -> np.ndarray:
    u = stream.uniforms(purpose, np.arange(dataset.n_examples), counter)
    return classifier.sample_batch(dataset.features, u)


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
    """
    estimate = OracleEstimate.empty(dataset.n_examples)
    prev_z = math.inf
    prev_q = estimate.q_plus("map")  # prior mean before any observation
    for r in range(1, R_MAX_DEFAULT + 1):
        estimate.observe(_sample_round(classifier, dataset, stream, purpose, r))
        z, q = map_z_estimate(estimate, weights, dataset.labels, estimator)
        if r > R_MIN_DEFAULT and z > prev_z:
            return prev_q, r
        prev_z, prev_q = z, q
    return prev_q, estimate.rounds


def node_q(classifier, dataset, weights, config, stream, purpose: str) -> np.ndarray | None:
    """Per-example q(+) of a new node or boosting stage: exact, or estimated
    by sampling the stream tagged ``purpose``.  None for a composite, whose
    outcomes on the training set are its ``leaf_table``."""
    if classifier.leaf_table is not None:
        return None
    if config.exact_q:
        reach, scores = classifier.outcomes(dataset.features)
        return reach[:, scores >= 0.0].sum(axis=1)
    return estimate_q_strategy_A(classifier, dataset, weights, stream, purpose, config.estimator)[0]


# ---------------------------------------------------------------------------
# Strategy B: look-ahead arbitrated by bound decrease per pass.
#
# The training loop (``adaboost._train_strategy_B``) compares two options
# each iteration: option A trains a candidate h_{T+1} on the weights the
# current estimates give and samples it once; option B samples h_T once
# more.  Each option's cost is counted in passes over the N training
# examples (a weak-learner call is one pass, a sampling round is one pass),
# so option A costs 2 and option B costs 1.  No clock is read, so the same
# seed always gives the same decisions.  The loop advances when
# ln(Z_{T+1}) / 2 <= ln(Z'_T / Z_T) / 1; ties go to A.


def _log_rate(z_factor: float, passes: float) -> float:
    """ln of the bound decrease rate z^(1/passes).  It orders options as the
    rate does, but cannot underflow to 0 when the exponent is large.  z = 0
    gives -inf."""
    if z_factor == 0.0:
        return -math.inf
    return math.log(z_factor) / passes


# ---------------------------------------------------------------------------
# Built-in learners.

def _row_keys(X: np.ndarray) -> np.ndarray:
    """Each row of a float matrix as one opaque byte string; -0.0 is stored
    as 0.0 so that equal rows have equal keys."""
    X = np.ascontiguousarray(X + 0.0)
    return X.view(np.dtype((np.void, X.dtype.itemsize * X.shape[1]))).ravel()


class ConstantEdgeClassifier(ProbClassifier):
    """Synthetic oracle: outputs the true label with probability 1/2 + eps."""

    def __init__(self, epsilon: float, features: np.ndarray, labels: np.ndarray):
        self.epsilon = float(epsilon)
        self._features = np.asarray(features, dtype=float)
        self._labels = np.asarray(labels, dtype=int)
        # training rows sorted by their bytes, so that rows of X are found by
        # binary search; a repeated row takes the label of its last copy
        keys = _row_keys(self._features)
        self._order = np.argsort(keys, kind="stable")
        self._sorted_keys = keys[self._order]

    def _true_labels(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self._features.shape[1]:
            raise ValueError(f"expected rows of dimension {self._features.shape[1]}, got shape {X.shape}")
        keys = _row_keys(X)
        at = np.searchsorted(self._sorted_keys, keys, side="right") - 1
        if np.any(at < 0) or np.any(self._sorted_keys[at] != keys):
            raise ValueError("constant-edge oracle only knows its training examples")
        return self._labels[self._order[at]]

    def outcomes(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        q = np.where(self._true_labels(X) == 1, 0.5 + self.epsilon, 0.5 - self.epsilon)
        return np.column_stack([q, 1.0 - q]), PLAIN_SCORES

    def to_record(self) -> dict[str, Any]:
        return {
            "kind": "constant-edge",
            "epsilon": self.epsilon,
            "features": self._features.tolist(),
            "labels": self._labels.tolist(),
        }

    @classmethod
    def from_record(cls, record: dict[str, Any]) -> "ConstantEdgeClassifier":
        return cls(record["epsilon"], np.array(record["features"]), np.array(record["labels"]))


class ConstantEdgeLearner(WeakLearner):
    """Training ignores the weights entirely; the error is 1/2 - eps always."""

    def __init__(self, epsilon: float):
        if not 0.0 < epsilon <= 0.5:
            raise ValueError(f"epsilon must be in (0, 1/2], got {epsilon}")
        self.epsilon = epsilon

    def train(self, dataset: Dataset, weights) -> ConstantEdgeClassifier:
        return ConstantEdgeClassifier(self.epsilon, dataset.features, dataset.labels)


def builtin_constant_edge_oracle(epsilon: float) -> ConstantEdgeLearner:
    return ConstantEdgeLearner(epsilon)


class StumpClassifier(ProbClassifier):
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

    def outcomes(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        q = np.where(self.decisions(X) == 1, 1.0 - self.p_flip, self.p_flip)
        return np.column_stack([q, 1.0 - q]), PLAIN_SCORES

    def to_record(self) -> dict[str, Any]:
        return {
            "kind": "stump",
            "feature": self.feature,
            "threshold": self.threshold,
            "polarity": self.polarity,
            "p_flip": self.p_flip,
            "constant": self.constant,
        }

    @classmethod
    def from_record(cls, record: dict[str, Any]) -> "StumpClassifier":
        return cls(
            record["feature"],
            record["threshold"],
            record["polarity"],
            record["p_flip"],
            record["constant"],
        )


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
            if sv[0] == sv[-1]:
                continue
            # wrong mass for polarity +1 (predict +1 where v >= thr) with the
            # threshold placed after position i: D[y=+1, v<thr] + D[y=-1, v>=thr]
            pos_mass = np.cumsum(np.where(sy == 1, sw, 0.0))
            neg_mass = np.cumsum(np.where(sy == -1, sw, 0.0))
            total_neg = neg_mass[-1]
            for i in range(len(sv) - 1):
                if sv[i] == sv[i + 1]:
                    continue
                thr = 0.5 * (sv[i] + sv[i + 1])
                err_plus = pos_mass[i] + (total_neg - neg_mass[i])
                for pol, err in ((1, err_plus), (-1, 1.0 - err_plus)):
                    cand = (err, j, thr, pol)
                    if best is None or cand[0] < best[0] - 1e-15:
                        best = cand
        if best is None:
            majority = 1 if float(np.sum(weights[y == 1])) >= 0.5 else -1
            return StumpClassifier(0, 0.0, 1, self.p_flip, constant=majority)
        _, feature, thr, pol = best
        return StumpClassifier(feature, thr, pol, self.p_flip)


def builtin_noisy_stump(p_flip: float = 0.1) -> NoisyStumpLearner:
    return NoisyStumpLearner(p_flip)


_CLASSIFIER_KINDS: dict[str, Any] = {
    "constant-edge": ConstantEdgeClassifier,
    "stump": StumpClassifier,
}


def register_classifier_kind(kind: str, cls) -> None:
    _CLASSIFIER_KINDS[kind] = cls


def classifier_from_record(record: dict[str, Any]) -> ProbClassifier:
    kind = record.get("kind")
    if kind not in _CLASSIFIER_KINDS:
        raise ValueError(f"unknown classifier kind {kind!r}")
    return _CLASSIFIER_KINDS[kind].from_record(record)
