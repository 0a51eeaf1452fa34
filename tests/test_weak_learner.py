"""Weak learners, Bernoulli-parameter estimation, and stopping strategies."""

import math

import numpy as np
import pytest

from probboost import weak_learner
from probboost.adaboost import TrainConfig, train_adaboost
from probboost.core import Dataset, RandomStream
from probboost.matryoshka import build_fixed_2_matryoshka
from probboost.ptree import grow_tree
from probboost.weak_learner import (
    ConstantEdgeClassifier,
    OracleEstimate,
    StumpClassifier,
    WeakLearner,
    _log_rate,
    builtin_constant_edge_oracle,
    builtin_noisy_stump,
    classifier_from_record,
    estimate_q_strategy_A,
    map_z_estimate,
)


def _counts(counts, rounds):
    return OracleEstimate(counts_plus=np.array(counts), rounds=rounds)


class TestPointEstimates:
    def test_ml(self):
        np.testing.assert_array_equal(_counts([3, 0, 4], 4).q_plus("ml"), [0.75, 0.0, 1.0])
        np.testing.assert_array_equal(_counts([7], 7).q_plus("ml"), [1.0])

    def test_ml_errors(self):
        with pytest.raises(ValueError, match="without observations"):
            OracleEstimate.empty(3).q_plus("ml")
        with pytest.raises(ValueError, match="unknown estimator"):
            _counts([1], 2).q_plus("mle")

    def test_map(self):
        np.testing.assert_array_equal(OracleEstimate.empty(2).q_plus("map"), [0.5, 0.5])
        assert _counts([3], 4).q_plus("map")[0] == pytest.approx(4 / 6)
        assert _counts([0], 8).q_plus("map")[0] == pytest.approx(0.1)

    def test_map_strictly_interior(self):
        q = _counts([0, 1000], 1000).q_plus("map")
        assert np.all((0.0 < q) & (q < 1.0))

    def test_oracle_estimate_counts(self):
        est = OracleEstimate.empty(3)
        est.observe(np.array([1, -1, 1]))
        est.observe(np.array([1, -1, -1]))
        np.testing.assert_array_equal(est.counts_plus, [2, 0, 1])
        assert est.rounds == 2
        np.testing.assert_allclose(est.q_plus("map"), [3 / 4, 1 / 4, 2 / 4])
        np.testing.assert_allclose(est.q_plus("ml"), [1.0, 0.0, 0.5])


class TestMapBias:
    def test_expected_map_decreases_with_rounds(self):
        # true q below 1/2: MAP is biased upward, bias shrinking in R
        true_q = 0.3
        rng = np.random.default_rng(12345)
        trials = 10_000
        means, sems = [], []
        for R in (1, 4, 16, 64):
            counts = rng.binomial(R, true_q, size=trials)
            est = (1.0 + counts) / (R + 2)
            means.append(est.mean())
            sems.append(est.std(ddof=1) / math.sqrt(trials))
        for m in means:
            assert m > true_q
        for i in range(len(means) - 1):
            assert means[i + 1] <= means[i] + 2.0 * (sems[i] + sems[i + 1])
        assert means[-1] == pytest.approx(true_q, abs=0.02)

    def test_ml_map_consistency_at_large_R(self):
        true_q = 0.3
        R = 10_000
        rng = np.random.default_rng(777)
        counts = rng.binomial(R, true_q, size=1000)
        ml = counts / R
        mp = (1.0 + counts) / (R + 2)
        assert np.mean(np.abs(ml - true_q) <= 0.02) >= 0.99
        assert np.mean(np.abs(mp - true_q) <= 0.02) >= 0.99


class TestStrategyA:
    def test_r_max_one_returns_single_round_map(self, tiny_dataset, monkeypatch):
        learner = builtin_constant_edge_oracle(0.3)
        clf = learner.train(tiny_dataset, tiny_dataset.weights)
        stream = RandomStream(0)
        monkeypatch.setattr(weak_learner, "R_MAX_DEFAULT", 1)
        q, rounds = estimate_q_strategy_A(clf, tiny_dataset, tiny_dataset.weights, stream)
        assert rounds == 1
        # single observation per example: MAP values are (1 + c)/3, c in {0, 1}
        assert set(np.round(q, 12)) <= {round(1 / 3, 12), round(2 / 3, 12)}

    def test_terminates_and_returns_valid_estimates(self, small_dataset):
        learner = builtin_constant_edge_oracle(0.2)
        clf = learner.train(small_dataset, small_dataset.weights)
        q, rounds = estimate_q_strategy_A(
            clf, small_dataset, small_dataset.weights, RandomStream(42)
        )
        assert 1 <= rounds < 10_000
        assert np.all((q > 0.0) & (q < 1.0))

    def test_deterministic_classifier_accuracy(self, tiny_dataset, monkeypatch):
        # noiseless stump: q is exactly 0/1, so the MAP estimate after R
        # rounds sits exactly 1/(R+2) away from the truth
        clf = builtin_noisy_stump(0.0).train(tiny_dataset, tiny_dataset.weights)
        monkeypatch.setattr(weak_learner, "R_MAX_DEFAULT", 50)
        q, rounds = estimate_q_strategy_A(clf, tiny_dataset, tiny_dataset.weights, RandomStream(5))
        true_q = np.array([clf.q_plus(x) for x in tiny_dataset.features])
        assert np.all(np.abs(q - true_q) <= 1.0 / (rounds + 2) + 1e-12)

    def test_deterministic_z_sequence_nonincreasing(self):
        # a classifier that always answers +1 on all-positive data: the MAP
        # Z-estimate trace is deterministic and never increases
        ds = Dataset.from_arrays([[0.0], [1.0], [2.0]], [1, 1, 1])
        est = OracleEstimate.empty(3)
        values = []
        for _ in range(20):
            est.observe(np.array([1, 1, 1]))
            z, _ = map_z_estimate(est, ds.weights, ds.labels)
            values.append(z)
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


class TestDecreaseRate:
    # a rate is ln z per pass over the training set, the unit strategy B
    # counts its options' cost in
    def test_equal_time_prefers_smaller_factor(self):
        assert _log_rate(0.8, 1) < _log_rate(0.99, 1)

    def test_slow_option_loses(self):
        assert _log_rate(0.8, 100) == pytest.approx(math.log(0.8) / 100, rel=1e-12)
        assert _log_rate(0.9, 1) < _log_rate(0.8, 100)

    def test_worsened_estimate_rate_above_one(self):
        assert _log_rate(1.05, 1) > 0.0 > _log_rate(0.97, 1)

    def test_zero_factor_gives_minus_infinity(self):
        assert _log_rate(0.0, 2) == -math.inf

    def test_short_options_compared_without_underflow(self):
        # 0.8**1e4 and 0.5**1e4 both round to 0.0; 0.5 still decreases faster
        assert 0.8**1e4 == 0.5**1e4 == 0.0
        assert _log_rate(0.8, 1e-4) > _log_rate(0.5, 1e-4)


def _stage_rounds(q, r_max=1000):
    """The number of sampling rounds R behind MAP estimates (1 + c) / (R + 2)."""
    for rounds in range(1, r_max):
        scaled = q * (rounds + 2)
        if np.allclose(scaled, np.round(scaled), rtol=0.0, atol=1e-9):
            return rounds
    raise AssertionError("q is not a MAP estimate")


class TestStrategyB:
    def test_side_effects_match_decision(self, small_dataset):
        # an advance starts h_{t+1} from one round; a resample adds one round
        # to h_t; the last stage is never resampled
        T = 4
        for seed in range(6):
            calls = []

            class Counting:
                def train(self, dataset, weights):
                    calls.append(1)
                    return builtin_constant_edge_oracle(0.3).train(dataset, weights)

            model = train_adaboost(small_dataset, Counting(), T, TrainConfig(seed=seed, strategy="B"))
            rounds = [_stage_rounds(stage.q_plus) for stage in model.stages]
            looks = len(calls) - 1
            assert model.n_stages == T
            assert rounds[-1] == 1
            assert sum(r - 1 for r in rounds) == looks - (T - 1)

    def test_slow_candidate_loses_to_improving_resample(self, small_dataset):
        # advancing costs two passes (train and sample), resampling one, so
        # an improving resample wins some look-aheads: some stage's q was
        # sampled in more than one round (MAP denominator above 3)
        rounds = []
        for seed in range(10):
            model = train_adaboost(
                small_dataset, builtin_constant_edge_oracle(0.3), 3, TrainConfig(seed=seed, strategy="B")
            )
            rounds += [_stage_rounds(stage.q_plus) for stage in model.stages]
        assert max(rounds) > 1


class TestUserLearner:
    def test_trains_from_dataset_and_weights(self, small_dataset):
        class Edge(WeakLearner):
            def __init__(self):
                self.calls = 0

            def train(self, dataset, weights):
                self.calls += 1
                return ConstantEdgeClassifier(0.3, dataset.features, dataset.labels)

        for strategy in ("A", "B"):
            model = train_adaboost(small_dataset, Edge(), 3, TrainConfig(seed=1, strategy=strategy))
            assert model.n_stages == 3
        learner = Edge()
        assert grow_tree(small_dataset, learner, max_nodes=3, config=TrainConfig(seed=1)).n_nodes == 3
        assert learner.calls == 3
        learner = Edge()
        tree = build_fixed_2_matryoshka(small_dataset, learner, 2, TrainConfig(seed=1))
        assert tree.n_nodes == 2 and learner.calls == 4


class TestConstantEdgeOracle:
    def test_exact_q(self, tiny_dataset):
        clf = builtin_constant_edge_oracle(0.2).train(tiny_dataset, tiny_dataset.weights)
        q = np.array([clf.q_plus(x) for x in tiny_dataset.features])
        expected = np.where(tiny_dataset.labels == 1, 0.7, 0.3)
        np.testing.assert_allclose(q, expected)

    def test_weighted_error_exact(self, small_dataset):
        eps = 0.17
        clf = builtin_constant_edge_oracle(eps).train(small_dataset, small_dataset.weights)
        rng = np.random.default_rng(1)
        for _ in range(5):
            w = rng.random(small_dataset.n_examples)
            w /= w.sum()
            err = sum(
                wi * (1.0 - clf.q_plus(x) if y == 1 else clf.q_plus(x))
                for wi, x, y in zip(w, small_dataset.features, small_dataset.labels)
            )
            assert err == pytest.approx(0.5 - eps, abs=1e-12)

    def test_perfect_at_half(self, tiny_dataset):
        clf = builtin_constant_edge_oracle(0.5).train(tiny_dataset, tiny_dataset.weights)
        for x, y in zip(tiny_dataset.features, tiny_dataset.labels):
            assert clf.q_plus(x) == (1.0 if y == 1 else 0.0)

    def test_empirical_rate(self, tiny_dataset):
        eps = 0.124
        clf = builtin_constant_edge_oracle(eps).train(tiny_dataset, tiny_dataset.weights)
        x, y = tiny_dataset.features[2], tiny_dataset.labels[2]
        n = 100_000
        u = RandomStream(3).uniforms("rate", 2, np.arange(n))
        correct = np.mean(clf.sample_batch(np.repeat(x[None], n, axis=0), u) == y)
        assert correct == pytest.approx(0.5 + eps, abs=0.01)

    def test_unknown_input_rejected(self, tiny_dataset):
        clf = builtin_constant_edge_oracle(0.2).train(tiny_dataset, tiny_dataset.weights)
        with pytest.raises(ValueError, match="only knows its training examples"):
            clf.q_plus(np.array([99.0]))
        with pytest.raises(ValueError, match="only knows its training examples"):
            clf.outcomes(np.array([[1.0], [99.0]]))

    def test_record_round_trip(self, tiny_dataset):
        clf = builtin_constant_edge_oracle(0.2).train(tiny_dataset, tiny_dataset.weights)
        clone = classifier_from_record(clf.to_record())
        assert isinstance(clone, ConstantEdgeClassifier)
        assert clone.q_plus(tiny_dataset.features[0]) == clf.q_plus(tiny_dataset.features[0])


    def test_array_outcomes_match_a_row_lookup(self):
        # reference: the per-row dict the oracle used to keep; a repeated row
        # takes its last label, and -0.0 is the same row as 0.0
        features = np.array([[0.5, 1.0], [-0.0, 2.0], [0.5, 1.0], [3.0, -1.0]])
        labels = np.array([1, -1, -1, 1])
        clf = ConstantEdgeClassifier(0.2, features, labels)
        lookup = {tuple(row): lab for row, lab in zip(features, labels)}
        X = np.array([[3.0, -1.0], [0.0, 2.0], [0.5, 1.0], [-0.0, 2.0]])
        expected = [0.5 + 0.2 if lookup[tuple(x)] == 1 else 0.5 - 0.2 for x in X]
        reach, scores = clf.outcomes(X)
        np.testing.assert_array_equal(reach[:, 0], expected)
        np.testing.assert_array_equal(reach[:, 1], 1.0 - np.array(expected))
        np.testing.assert_array_equal(scores, [1.0, -1.0])
        with pytest.raises(ValueError, match="dimension"):
            clf.outcomes(np.zeros((2, 3)))


class TestNoisyStump:
    def test_separable_noiseless(self, tiny_dataset):
        clf = builtin_noisy_stump(0.0).train(tiny_dataset, tiny_dataset.weights)
        err = tiny_dataset.weights @ (clf.decisions(tiny_dataset.features) != tiny_dataset.labels)
        assert err == 0.0

    def test_flip_probability_sets_q(self, tiny_dataset):
        clf = builtin_noisy_stump(0.1).train(tiny_dataset, tiny_dataset.weights)
        for x, y in zip(tiny_dataset.features, tiny_dataset.labels):
            q_correct = clf.q_plus(x) if y == 1 else 1.0 - clf.q_plus(x)
            assert q_correct == pytest.approx(0.9)

    def test_xor_error(self, xor_dataset):
        # no single axis-aligned threshold beats chance on the XOR corners:
        # every split leaves exactly two of the four points misclassified
        clf = builtin_noisy_stump(0.0).train(xor_dataset, xor_dataset.weights)
        err = xor_dataset.weights @ (clf.decisions(xor_dataset.features) != xor_dataset.labels)
        assert err == pytest.approx(0.5)

    def test_degenerate_features_fall_back_to_majority(self):
        ds = Dataset.from_arrays(
            [[1.0], [1.0], [1.0]], [1, 1, -1], weights=[0.4, 0.4, 0.2]
        )
        clf = builtin_noisy_stump(0.0).train(ds, ds.weights)
        assert clf.constant == 1
        assert clf.decisions(np.array([[1.0]])).tolist() == [1]

    @pytest.mark.parametrize("constant", [None, -1])
    def test_array_outcomes_match_the_row_rule(self, small_dataset, constant):
        clf = StumpClassifier(1, 0.1, -1, 0.15, constant)
        reach, _ = clf.outcomes(small_dataset.features)
        for x, q in zip(small_dataset.features, reach[:, 0]):
            decision = constant if constant is not None else (1 if x[1] >= 0.1 else -1) * -1
            assert q == (1.0 - 0.15 if decision == 1 else 0.15)
            assert clf.q_plus(x) == q

    def test_sample_batch_draws_plus_below_q(self, small_dataset):
        clf = StumpClassifier(0, 0.0, 1, 0.3)
        q = clf.outcomes(small_dataset.features)[0][:, 0]
        u = RandomStream(1).uniforms("u", np.arange(small_dataset.n_examples), 0)
        u[:2] = q[:2]  # u == q draws -1
        drawn = clf.sample_batch(small_dataset.features, u)
        np.testing.assert_array_equal(drawn, np.where(u < q, 1.0, -1.0))

    def test_record_round_trip(self, tiny_dataset):
        clf = builtin_noisy_stump(0.2).train(tiny_dataset, tiny_dataset.weights)
        clone = classifier_from_record(clf.to_record())
        assert isinstance(clone, StumpClassifier)
        assert (clone.feature, clone.threshold, clone.polarity, clone.p_flip) == (
            clf.feature, clf.threshold, clf.polarity, clf.p_flip,
        )

    def test_invalid_p_flip(self):
        with pytest.raises(ValueError):
            builtin_noisy_stump(0.5)
