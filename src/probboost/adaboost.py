"""Probabilistic AdaBoost: sequential boosting of Bernoulli weak classifiers.

The weight-update rule replaces the deterministic margin with the branch
probabilities q(+/-, X); everything else mirrors AdaBoost with
domain-partitioned alphas.  Recorded Z statistics are the actual update
normalizers, so the product of recorded Z equals the exact weighted
expected exponential loss (the telescoping identity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ._zstats import (
    WStats,
    optimal_alphas,
    w_statistics,
    z_min,
    z_value,
)
from .core import Dataset, RandomStream
from .weak_learner import (
    R_MAX_DEFAULT,
    OracleEstimate,
    ProbClassifier,
    TrainConfig,
    WeakLearner,
    _log_rate,
    _sample_round,
    _train_step,
    classifier_from_record,
    map_z_estimate,
    node_q,
)

__all__ = [
    "WStats",
    "w_statistics",
    "optimal_alphas",
    "z_value",
    "z_min",
    "update_weights",
    "TrainConfig",
    "StageRecord",
    "AdaboostModel",
    "train_adaboost",
    "exact_expected_bound",
    "mc_misclassification",
]


def update_weights(
    weights: np.ndarray,
    q_plus: np.ndarray,
    labels: np.ndarray,
    alpha_plus: float,
    alpha_minus: float,
) -> tuple[np.ndarray, float]:
    """One probabilistic-AdaBoost weight update; returns (D_{t+1}, Z_t)."""
    weights = np.asarray(weights, dtype=float)
    q_plus = np.asarray(q_plus, dtype=float)
    y = np.asarray(labels, dtype=float)
    factors = q_plus * np.exp(-alpha_plus * y) + (1.0 - q_plus) * np.exp(alpha_minus * y)
    z = float(np.sum(weights * factors))
    return weights * factors / z, z


@dataclass
class StageRecord:
    classifier: ProbClassifier
    q_plus: np.ndarray  # training-time estimates (or exact q) per example
    alpha_plus: float
    alpha_minus: float
    z: float

    def to_record(self) -> dict[str, Any]:
        return {
            "classifier": self.classifier.to_record(),
            "q_plus": self.q_plus.tolist(),
            "alpha_plus": self.alpha_plus,
            "alpha_minus": self.alpha_minus,
            "z": self.z,
        }

    @classmethod
    def from_record(cls, record: dict[str, Any]) -> "StageRecord":
        return cls(
            classifier=classifier_from_record(record["classifier"]),
            q_plus=np.array(record["q_plus"], dtype=float),
            alpha_plus=record["alpha_plus"],
            alpha_minus=record["alpha_minus"],
            z=record["z"],
        )


@dataclass
class AdaboostModel:
    stages: list[StageRecord]
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    def recorded_bound(self) -> float:
        return math.prod(stage.z for stage in self.stages)

    def to_record(self) -> dict[str, Any]:
        return {
            "kind": "adaboost",
            "metadata": self.metadata,
            "stages": [stage.to_record() for stage in self.stages],
        }

    @classmethod
    def from_record(cls, record: dict[str, Any]) -> "AdaboostModel":
        if record.get("kind") != "adaboost":
            raise ValueError("not an adaboost model record")
        return cls(
            stages=[StageRecord.from_record(s) for s in record["stages"]],
            metadata=record.get("metadata", {}),
        )


def _make_stage(
    classifier: ProbClassifier,
    q: np.ndarray,
    weights: np.ndarray,
    labels: np.ndarray,
) -> tuple[StageRecord, np.ndarray]:
    w = w_statistics(weights, q, labels)
    a_plus, a_minus = optimal_alphas(w)
    next_weights, z = update_weights(weights, q, labels, a_plus, a_minus)
    stage = StageRecord(classifier, q, a_plus, a_minus, z)
    return stage, next_weights


def train_adaboost(
    dataset: Dataset,
    learner: WeakLearner,
    T: int,
    config: TrainConfig | None = None,
) -> AdaboostModel:
    """Train T rounds; each round trains, estimates q, and reweights."""
    if T < 1:
        raise ValueError("T must be >= 1")
    config = config or TrainConfig()
    stream = RandomStream(config.seed)
    if config.strategy == "B":
        return _train_strategy_B(dataset, learner, T, config, stream)

    weights = dataset.weights.copy()
    stages: list[StageRecord] = []
    for t in range(1, T + 1):
        classifier = _train_step(learner, dataset, weights, f"round {t}")
        q = node_q(classifier, dataset, weights, config, stream, f"q-est-{t}")
        stage, weights = _make_stage(classifier, q, weights, dataset.labels)
        stages.append(stage)
    return AdaboostModel(stages, metadata=_metadata(config, T, dataset))


# Strategy B's option costs in passes over the training set (see the
# strategy-B notes in ``weak_learner``).
_ADVANCE_PASSES = 2  # train the candidate, then sample it once
_RESAMPLE_PASSES = 1  # sample the current classifier once more


def _train_strategy_B(
    dataset: Dataset,
    learner: WeakLearner,
    T: int,
    config: TrainConfig,
    stream: RandomStream,
) -> AdaboostModel:
    """Look ahead each iteration: advance to a candidate h_{t+1} or resample
    h_t, whichever decreases the bound faster per pass."""
    labels = dataset.labels
    weights = dataset.weights.copy()
    classifier = _train_step(learner, dataset, weights, "round 1")
    estimate = OracleEstimate.empty(dataset.n_examples)
    estimate.observe(_sample_round(classifier, dataset, stream, "q-est-1", 1))
    z, _ = map_z_estimate(estimate, weights, labels, config.estimator)
    stages: list[StageRecord] = []
    t, looks = 1, 0
    while t < T and looks <= R_MAX_DEFAULT * T:
        looks += 1
        stage, next_weights = _make_stage(classifier, estimate.q_plus(config.estimator), weights, labels)
        candidate = _train_step(learner, dataset, next_weights, f"round {t + 1}")
        cand_estimate = OracleEstimate.empty(dataset.n_examples)
        cand_estimate.observe(_sample_round(candidate, dataset, stream, f"strategy-B-cand-{t + 1}", 1))
        z_next, _ = map_z_estimate(cand_estimate, next_weights, labels, config.estimator)

        refreshed = OracleEstimate(estimate.counts_plus.copy(), estimate.rounds)
        refreshed.observe(
            _sample_round(classifier, dataset, stream, f"strategy-B-resample-{t}", refreshed.rounds + 1)
        )
        z_prime, _ = map_z_estimate(refreshed, weights, labels, config.estimator)

        if _log_rate(z_next, _ADVANCE_PASSES) <= _log_rate(z_prime / z, _RESAMPLE_PASSES):
            stages.append(stage)
            t, weights, classifier, estimate, z = t + 1, next_weights, candidate, cand_estimate, z_next
        else:
            estimate, z = refreshed, z_prime
    stage, _ = _make_stage(classifier, estimate.q_plus(config.estimator), weights, labels)
    stages.append(stage)
    return AdaboostModel(stages, metadata=_metadata(config, T, dataset))


def _metadata(config: TrainConfig, T: int, dataset: Dataset) -> dict[str, Any]:
    return {
        "T": T,
        "dimension": dataset.dimension,
        "seed": config.seed,
        "exact_q": config.exact_q,
        "estimator": config.estimator,
        "strategy": config.strategy,
    }


def exact_expected_bound(model: AdaboostModel, dataset: Dataset) -> float:
    """Weighted expected exponential loss.  Given X the stage outputs are
    independent, so the expectation over their 2^T joint outputs factorizes
    per example: sum_n D(n) prod_t (q e^{-alpha+ y} + (1 - q) e^{alpha- y}).
    Equals the product of recorded Z statistics (telescoping identity)."""
    y = dataset.labels.astype(float)
    factors = np.ones(dataset.n_examples)
    for stage in model.stages:
        q = stage.q_plus
        if len(q) != len(y):
            raise ValueError("dataset size does not match the stored model")
        factors *= q * np.exp(-stage.alpha_plus * y) + (1.0 - q) * np.exp(stage.alpha_minus * y)
    return float(np.sum(dataset.weights * factors))


def mc_misclassification(
    model: AdaboostModel,
    dataset: Dataset,
    trials: int,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte-Carlo weighted 0/1 loss of the sampled ensemble.

    Ties H(X) = 0 count as misclassification.  Returns (mean, standard error).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    stream = RandomStream(seed)
    examples, draws = np.arange(dataset.n_examples), np.arange(trials)[:, None]
    H = np.zeros((trials, dataset.n_examples))
    for t, stage in enumerate(model.stages, start=1):
        plus = stream.uniforms(f"mc-stage-{t}", examples, draws) < stage.q_plus
        H += np.where(plus, stage.alpha_plus, -stage.alpha_minus)
    wrong = (H * dataset.labels[None, :]) <= 0.0
    per_trial = wrong @ dataset.weights
    mean = float(per_trial.mean())
    se = float(per_trial.std(ddof=1) / math.sqrt(trials)) if trials > 1 else float("inf")
    return mean, se
