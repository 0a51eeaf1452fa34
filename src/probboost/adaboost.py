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

from ._zstats import LabelSplit, _check_size, _stage_factor, optimal_alphas, w_statistics
from .core import Dataset, RandomStream, _check_trials, _mc_summary
from .weak_learner import (
    R_MAX_DEFAULT,
    ProbClassifier,
    TrainConfig,
    WeakLearner,
    _draw_plus,
    _Edges,
    _model_metadata,
    _q_estimate,
    _train_step,
    map_z_estimate,
    node_q,
)

__all__ = [
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
    factors = _stage_factor(q_plus, y, alpha_plus, alpha_minus)
    z = float(np.sum(weights * factors))
    return weights * factors / z, z


@dataclass
class StageRecord(_Edges):
    z: float


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
        """The model's record (``persist.model_record``)."""
        return persist.model_record(self)


def _make_stage(
    classifier: ProbClassifier,
    q: np.ndarray,
    weights: np.ndarray,
    labels: LabelSplit,
) -> tuple[StageRecord, np.ndarray]:
    w = w_statistics(weights, q, labels)
    a_plus, a_minus = optimal_alphas(w)
    next_weights, z = update_weights(weights, q, labels.y, a_plus, a_minus)
    stage = StageRecord(classifier, q, a_plus, a_minus, z)
    return stage, next_weights


def train_adaboost(
    dataset: Dataset,
    learner: WeakLearner,
    T: int,
    config: TrainConfig | None = None,
) -> AdaboostModel:
    """Train T rounds; each round trains, estimates q, and reweights.  Strategy B's look
    cap can stop it with fewer stages; ``metadata["T"]`` is the T requested."""
    if T < 1:
        raise ValueError("T must be >= 1")
    config = config or TrainConfig()
    stream = RandomStream(config.seed)
    if config.strategy == "B":
        stages = _train_strategy_B(dataset, learner, T, config, stream)
    else:
        weights = dataset.weights.copy()
        stages = []
        for t in range(1, T + 1):
            classifier = _train_step(learner, dataset, weights, "round {}", t)
            q = node_q(classifier, dataset, weights, config, stream, f"q-est-{t}")
            stage, weights = _make_stage(classifier, q, weights, dataset.label_split)
            stages.append(stage)
    return AdaboostModel(stages, metadata=_model_metadata(config, dataset, T=T, strategy=config.strategy))


# ---------------------------------------------------------------------------
# Strategy B: look-ahead arbitrated by bound decrease per pass.
#
# Each iteration compares two options: option A trains a candidate h_{t+1}
# on the weights the current estimates give and samples it once; option B
# samples h_t once more.  Each option's cost is counted in passes over the
# N training examples (a weak-learner call is one pass, a sampling round is
# one pass), so option A costs 2 and option B costs 1.  No clock is read, so
# the same seed always gives the same decisions.  The loop advances when
# ln(Z_{t+1}) / 2 <= ln(Z'_t / Z_t) / 1; ties go to A.  It looks ahead at
# most R_MAX_DEFAULT * T times.
_ADVANCE_PASSES = 2  # train the candidate, then sample it once
_RESAMPLE_PASSES = 1  # sample the current classifier once more


def _log_rate(z_factor: float, passes: float) -> float:
    """ln of the bound decrease rate z^(1/passes).  It orders options as the
    rate does, but cannot underflow to 0 when the exponent is large.  z = 0
    gives -inf."""
    if z_factor == 0.0:
        return -math.inf
    return math.log(z_factor) / passes


def _train_strategy_B(
    dataset: Dataset,
    learner: WeakLearner,
    T: int,
    config: TrainConfig,
    stream: RandomStream,
) -> list[StageRecord]:
    """Look ahead each iteration: advance to a candidate h_{t+1} or resample
    h_t, whichever decreases the bound faster per pass."""
    labels = dataset.label_split

    def sample(classifier, purpose, weights, counts=0, rounds=0):
        """A classifier's estimate after one more round of draws: its + counts
        per example in a (1, N) row, the rounds sampled, the q estimates from
        them and their Z estimate under ``weights``."""
        counts = counts + _draw_plus(classifier, dataset, stream, purpose, [rounds + 1])
        q = _q_estimate(counts, rounds + 1, config.estimator)
        return counts, rounds + 1, q, next(map_z_estimate(q, weights, labels))

    weights = dataset.weights.copy()
    classifier = _train_step(learner, dataset, weights, "round 1")
    counts, rounds, q, z = sample(classifier, "q-est-1", weights)
    stages: list[StageRecord] = []
    t, looks = 1, 0
    while t < T and looks < R_MAX_DEFAULT * T:
        looks += 1
        stage, next_weights = _make_stage(classifier, q[0], weights, labels)
        candidate = _train_step(learner, dataset, next_weights, "round {}", t + 1)
        advanced = sample(candidate, f"strategy-B-cand-{t + 1}", next_weights)
        refreshed = sample(classifier, f"strategy-B-resample-{t}", weights, counts, rounds)
        if _log_rate(advanced[-1], _ADVANCE_PASSES) <= _log_rate(refreshed[-1] / z, _RESAMPLE_PASSES):
            stages.append(stage)
            t, weights, classifier, (counts, rounds, q, z) = t + 1, next_weights, candidate, advanced
        else:
            counts, rounds, q, z = refreshed
    stages.append(_make_stage(classifier, q[0], weights, labels)[0])
    return stages


def exact_expected_bound(model: AdaboostModel, dataset: Dataset) -> float:
    """Weighted expected exponential loss.  Given X the stage outputs are
    independent, so the expectation over their 2^T joint outputs factorizes
    per example: sum_n D(n) prod_t (q e^{-alpha+ y} + (1 - q) e^{alpha- y}).
    Equals the product of recorded Z statistics (telescoping identity).  Rows
    of weight 0 are left out, so a product that overflows there adds no 0 * inf."""
    y, kept = dataset.labels.astype(float), dataset.weights > 0.0
    factors = np.ones(np.count_nonzero(kept))
    for stage in model.stages:
        factors *= np.add(*stage.edge_factors(y))[kept]
    return float(np.sum(dataset.weights[kept] * factors))


def mc_misclassification(
    model: AdaboostModel,
    dataset: Dataset,
    trials: int,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte-Carlo weighted 0/1 loss of the sampled ensemble.

    Ties H(X) = 0 count as misclassification.  Returns (mean, standard error).
    """
    _check_trials(trials)
    stream = RandomStream(seed)
    examples, draws = np.arange(dataset.n_examples), np.arange(trials)[:, None]
    H = np.zeros((trials, dataset.n_examples))
    for t, stage in enumerate(model.stages, start=1):
        _check_size(stage.q_plus, dataset.labels)
        plus = stream.uniforms(f"mc-stage-{t}", examples, draws) < stage.outcomes()[0][:, 0]  # q(+)
        H += np.where(plus, stage.alpha_plus, -stage.alpha_minus)
    return _mc_summary(H, dataset)


# persist reads this module's classes; imported once they are defined, it breaks the cycle
from . import persist  # noqa: E402
