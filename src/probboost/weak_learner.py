"""Probabilistic weak learners, Bernoulli-parameter estimation, and the two
parameterless sampling strategies.

A weak learner returns, for any weighting of the training set, a classifier
whose output on X is a Bernoulli draw over {-1, +1} with parameter
q(+, X).  The branch probabilities q are unknown in general and are
estimated by repeated sampling (ML or MAP); the two strategies below decide
when to stop spending samples on the current classifier.
"""

from __future__ import annotations

import math
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Protocol

import numpy as np

from ._zstats import WStats, optimal_alphas, w_statistics, z_value
from .core import Dataset, RandomStream, normalize_weights

__all__ = [
    "ProbClassifier",
    "WeakLearner",
    "OracleEstimate",
    "Stopwatch",
    "SystemStopwatch",
    "FakeStopwatch",
    "ml_estimate",
    "map_estimate",
    "map_z_estimate",
    "estimate_q_strategy_A",
    "estimate_q_strategy_B",
    "decrease_rate",
    "OptionMeasurement",
    "SamplingState",
    "builtin_constant_edge_oracle",
    "builtin_noisy_stump",
    "ConstantEdgeClassifier",
    "StumpClassifier",
    "classifier_from_record",
]

R_MIN_DEFAULT = 2
R_MAX_DEFAULT = 10_000


class ProbClassifier(ABC):
    """A per-input Bernoulli oracle over {-1, +1}."""

    #: True when q(+, X) is analytically available (synthetic oracles).
    has_exact_q: bool = False

    #: None for a plain +/-1 classifier.  A classifier whose tree edges carry
    #: real-valued scores (a collected subtree) sets it to (reach, scores):
    #: per training example, the probability of each outcome it can draw,
    #: and the score of that outcome.
    leaf_table: tuple[np.ndarray, np.ndarray] | None = None

    def q_plus(self, x: np.ndarray) -> float:
        """Exact Bernoulli parameter q(+, x); only for synthetic oracles."""
        raise NotImplementedError("exact q unavailable; sample instead")

    def sample(self, x: np.ndarray, rng: np.random.Generator) -> int:
        """One Bernoulli draw of the classifier output on x."""
        return 1 if rng.random() < self.q_plus(x) else -1

    def sample_score(self, x: np.ndarray, rng: np.random.Generator) -> float:
        """One draw of the score a tree edge scales by its alpha; its sign is
        the branch taken.  A plain classifier's score is its +/-1 output."""
        return float(self.sample(x, rng))

    @abstractmethod
    def to_record(self) -> dict[str, Any]: ...


class WeakLearner(ABC):
    @abstractmethod
    def train(
        self, dataset: Dataset, weights: np.ndarray, rng: np.random.Generator
    ) -> ProbClassifier: ...


def ml_estimate(count_y: int, R: int) -> float:
    """Maximum-likelihood Bernoulli estimate count/R."""
    if R < 1:
        raise ValueError("ML estimate undefined without observations")
    if not 0 <= count_y <= R:
        raise ValueError(f"count {count_y} outside [0, {R}]")
    return count_y / R

def map_estimate(count_y: int, R: int) -> float:
    """MAP estimate (1 + count) / (R + 2) under the uniform [0, 1] prior."""
    if R < 0 or not 0 <= count_y <= R:
        raise ValueError(f"invalid counts ({count_y}, {R})")
    return (1 + count_y) / (R + 2)


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
    outputs = np.empty(dataset.n_examples, dtype=int)
    for n in range(dataset.n_examples):
        rng = stream.generator(purpose, n, counter)
        outputs[n] = classifier.sample(dataset.features[n], rng)
    return outputs


def estimate_q_strategy_A(
    classifier: ProbClassifier,
    dataset: Dataset,
    weights: np.ndarray,
    stream: RandomStream,
    purpose: str = "strategy-A",
    estimator: str = "map",
    r_min: int = R_MIN_DEFAULT,
    r_max: int = R_MAX_DEFAULT,
) -> tuple[np.ndarray, int]:
    """Sample until the Z_T estimate first increases; return the estimates
    from the round preceding the increase.

    Returns (q_plus estimates, rounds spent).  A hard cap ``r_max`` aborts
    with the current estimates.
    """
    estimate = OracleEstimate.empty(dataset.n_examples)
    prev_z = math.inf
    prev_q = estimate.q_plus("map")  # prior mean before any observation
    for r in range(1, r_max + 1):
        estimate.observe(_sample_round(classifier, dataset, stream, purpose, r))
        z, q = map_z_estimate(estimate, weights, dataset.labels, estimator)
        if r > r_min and z > prev_z:
            return prev_q, r
        prev_z, prev_q = z, q
    return prev_q, estimate.rounds


# ---------------------------------------------------------------------------
# Strategy B: stopwatch-arbitrated look-ahead.

class Stopwatch(Protocol):
    def now(self) -> float: ...


class SystemStopwatch:
    def now(self) -> float:
        return time.perf_counter()


class FakeStopwatch:
    """Scripted clock for tests; each now() pops the next instant."""

    def __init__(self, instants: list[float]):
        self._instants = list(instants)

    def now(self) -> float:
        return self._instants.pop(0)


_MIN_ELAPSED = 1e-9  # zero elapsed time counts as the smallest duration


def decrease_rate(z_factor: float, elapsed: float) -> float:
    """Instantaneous bound decrease rate per unit time, z^(1/S)."""
    if z_factor < 0.0:
        raise ValueError("Z factor must be nonnegative")
    return z_factor ** (1.0 / max(elapsed, _MIN_ELAPSED))


@dataclass
class OptionMeasurement:
    z_factor: float  # Z_{T+1} for option A, Z'_T / Z_T for option B
    elapsed: float


def _log_rate(option: OptionMeasurement) -> float:
    """ln of ``decrease_rate``, ln z / S; it orders options as z^(1/S) does
    but does not underflow to 0 for short S.  z = 0 gives -inf."""
    if option.z_factor == 0.0:
        return -math.inf
    return math.log(option.z_factor) / max(option.elapsed, _MIN_ELAPSED)


def _choose(option_a: OptionMeasurement, option_b: OptionMeasurement) -> str:
    return "A" if _log_rate(option_a) <= _log_rate(option_b) else "B"


@dataclass
class SamplingState:
    """Mutable training-loop state that strategy B arbitrates over."""

    dataset: Dataset
    learner: WeakLearner
    stream: RandomStream
    t: int  # index of the current classifier
    weights: np.ndarray  # D_t used to train the current classifier
    classifier: ProbClassifier
    estimate: OracleEstimate
    z: float  # current MAP-based Z_t estimate
    estimator: str = "map"

    def q_plus(self) -> np.ndarray:
        return self.estimate.q_plus(self.estimator)


def estimate_q_strategy_B(state: SamplingState, stopwatch: Stopwatch) -> str:
    """Measure both options, pick the smaller decrease rate, commit it.

    Option A trains a candidate h_{T+1} on weights derived from the current
    estimates and samples it once; option B spends one more sampling pass on
    h_T.  Returns "A" (advance to the new classifier) or "B" (keep the
    refreshed estimate).
    """
    from .adaboost import update_weights  # local import to avoid a cycle

    dataset = state.dataset
    labels = dataset.labels

    t0 = stopwatch.now()
    q_hat = state.q_plus()
    w = w_statistics(state.weights, q_hat, labels)
    a_plus, a_minus = optimal_alphas(w)
    next_weights, _ = update_weights(state.weights, q_hat, labels, a_plus, a_minus)
    rng = state.stream.generator("strategy-B-train", 0, state.t + 1)
    candidate = state.learner.train(dataset, next_weights, rng)
    cand_estimate = OracleEstimate.empty(dataset.n_examples)
    cand_estimate.observe(
        _sample_round(candidate, dataset, state.stream, f"strategy-B-cand-{state.t + 1}", 1)
    )
    z_next, _ = map_z_estimate(cand_estimate, next_weights, labels, state.estimator)
    t1 = stopwatch.now()
    option_a = OptionMeasurement(z_factor=z_next, elapsed=t1 - t0)

    refreshed = OracleEstimate(
        counts_plus=state.estimate.counts_plus.copy(), rounds=state.estimate.rounds
    )
    refreshed.observe(
        _sample_round(
            state.classifier,
            dataset,
            state.stream,
            f"strategy-B-resample-{state.t}",
            refreshed.rounds + 1,
        )
    )
    z_prime, _ = map_z_estimate(refreshed, state.weights, labels, state.estimator)
    t2 = stopwatch.now()
    option_b = OptionMeasurement(z_factor=z_prime / state.z, elapsed=t2 - t1)

    decision = _choose(option_a, option_b)
    if decision == "A":
        state.t += 1
        state.weights = next_weights
        state.classifier = candidate
        state.estimate = cand_estimate
        state.z = z_next
    else:
        state.estimate = refreshed
        state.z = z_prime
    return decision


# ---------------------------------------------------------------------------
# Built-in learners.

class ConstantEdgeClassifier(ProbClassifier):
    """Synthetic oracle: outputs the true label with probability 1/2 + eps."""

    has_exact_q = True

    def __init__(self, epsilon: float, features: np.ndarray, labels: np.ndarray):
        self.epsilon = float(epsilon)
        self._features = np.asarray(features, dtype=float)
        self._labels = np.asarray(labels, dtype=int)
        self._lookup = {
            tuple(row): int(lab) for row, lab in zip(self._features, self._labels)
        }

    def _true_label(self, x: np.ndarray) -> int:
        key = tuple(np.asarray(x, dtype=float))
        try:
            return self._lookup[key]
        except KeyError:
            raise LookupError("constant-edge oracle only knows its training examples") from None

    def q_plus(self, x: np.ndarray) -> float:
        if self._true_label(x) == 1:
            return 0.5 + self.epsilon
        return 0.5 - self.epsilon

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

    def train(self, dataset: Dataset, weights, rng) -> ConstantEdgeClassifier:
        return ConstantEdgeClassifier(self.epsilon, dataset.features, dataset.labels)


def builtin_constant_edge_oracle(epsilon: float) -> ConstantEdgeLearner:
    return ConstantEdgeLearner(epsilon)


class StumpClassifier(ProbClassifier):
    """Axis-aligned threshold stump whose decision is flipped w.p. p_flip."""

    has_exact_q = True

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

    def decision(self, x: np.ndarray) -> int:
        if self.constant is not None:
            return self.constant
        raw = 1 if x[self.feature] >= self.threshold else -1
        return raw * self.polarity

    def q_plus(self, x: np.ndarray) -> float:
        if self.decision(x) == 1:
            return 1.0 - self.p_flip
        return self.p_flip

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

    def train(self, dataset: Dataset, weights, rng) -> StumpClassifier:
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
