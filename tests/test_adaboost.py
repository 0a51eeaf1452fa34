"""Sequential probabilistic boosting: W statistics, alphas, weight updates,
training, and the exact loss identity."""

import itertools
import math

import numpy as np
import pytest

from probboost import weak_learner
from probboost.adaboost import (
    AdaboostModel,
    TrainConfig,
    WStats,
    exact_expected_bound,
    mc_misclassification,
    optimal_alphas,
    train_adaboost,
    update_weights,
    w_statistics,
    z_min,
    z_value,
)
from probboost.core import Dataset, RandomStream, make_synthetic_dataset
from probboost.matryoshka import build_fixed_2_matryoshka, build_greedy_matryoshka
from probboost.persist import save_model
from probboost.ptree import grow_tree
from probboost.weak_learner import builtin_constant_edge_oracle, builtin_noisy_stump


class TestWStatistics:
    def test_deterministic_correct(self):
        w = w_statistics(np.array([0.5, 0.5]), np.array([1.0, 0.0]), np.array([1, -1]))
        assert (w.pp, w.mm, w.pm, w.mp) == (0.5, 0.5, 0.0, 0.0)

    def test_coin_flip(self):
        w = w_statistics(np.array([0.5, 0.5]), np.array([0.5, 0.5]), np.array([1, -1]))
        assert w == WStats(0.25, 0.25, 0.25, 0.25)

    def test_hand_sum(self):
        w = w_statistics(
            np.array([0.5, 0.25, 0.25]),
            np.array([0.8, 0.6, 0.3]),
            np.array([1, 1, -1]),
        )
        assert w.pp == pytest.approx(0.55)
        assert w.mp == pytest.approx(0.20)
        assert w.pm == pytest.approx(0.075)
        assert w.mm == pytest.approx(0.175)
        assert sum(w) == pytest.approx(1.0, abs=1e-12)

    def test_q_domain(self):
        with pytest.raises(ValueError):
            w_statistics(np.array([1.0]), np.array([1.5]), np.array([1]))


class TestOptimalAlphas:
    def test_symmetric(self):
        a_plus, a_minus = optimal_alphas(WStats(0.25, 0.25, 0.25, 0.25))
        assert a_plus == pytest.approx(0.0, abs=1e-7)
        assert a_minus == pytest.approx(0.0, abs=1e-7)

    def test_four_to_one(self):
        a_plus, a_minus = optimal_alphas(WStats(0.4, 0.1, 0.1, 0.4))
        assert a_plus == pytest.approx(0.5 * math.log(4.0), abs=1e-7)
        assert a_minus == pytest.approx(0.5 * math.log(4.0), abs=1e-7)

    def test_smoothing_keeps_alphas_finite(self):
        delta = 1e-8
        a_plus, _ = optimal_alphas(WStats(0.4, 0.0, 0.1, 0.5))
        assert a_plus == pytest.approx(0.5 * math.log((0.4 + delta) / delta))
        assert math.isfinite(a_plus)


class TestZValue:
    def test_no_advantage(self):
        assert z_value(WStats(0.25, 0.25, 0.25, 0.25), 0.0, 0.0) == pytest.approx(1.0)

    def test_strong_classifier(self):
        w = WStats(0.45, 0.05, 0.05, 0.45)
        assert z_min(w) == pytest.approx(0.6, rel=1e-12)
        a_plus, a_minus = optimal_alphas(w)
        assert z_value(w, a_plus, a_minus) == pytest.approx(0.6, abs=1e-6)

    def test_optimality_against_grid(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            raw = rng.random(4)
            raw /= raw.sum()
            w = WStats(*raw)
            a_plus, a_minus = optimal_alphas(w)
            base = z_value(w, a_plus, a_minus)
            for da in (-0.1, 0.0, 0.1):
                for db in (-0.1, 0.0, 0.1):
                    if da == db == 0.0:
                        continue
                    assert base <= z_value(w, a_plus + da, a_minus + db) + 1e-9


class TestUpdateWeights:
    def test_uniform_rescale(self):
        # deterministic correct classifier with equal alphas: every example's
        # factor is identical, so the distribution is unchanged
        weights = np.array([0.3, 0.2, 0.5])
        labels = np.array([1, -1, 1])
        q = np.where(labels == 1, 1.0, 0.0)
        out, z = update_weights(weights, q, labels, 0.7, 0.7)
        np.testing.assert_allclose(out, weights)
        assert z == pytest.approx(math.exp(-0.7))

    def test_reduces_to_classic_rule(self):
        # crisp q in {0, 1} is plain AdaBoost: factor exp(-alpha_pred h y)
        weights = np.array([0.25, 0.25, 0.25, 0.25])
        labels = np.array([1, 1, -1, -1])
        h = np.array([1, -1, -1, 1])  # one mistake per class
        q = (h == 1).astype(float)
        a_plus, a_minus = 0.4, 0.6
        out, z = update_weights(weights, q, labels, a_plus, a_minus)
        alpha_of_h = np.where(h == 1, a_plus, a_minus)
        classic = weights * np.exp(-alpha_of_h * h * labels)
        classic_z = classic.sum()
        np.testing.assert_allclose(out, classic / classic_z, rtol=1e-14)
        assert z == pytest.approx(classic_z, rel=1e-14)

    def test_two_example_hand_values(self):
        weights = np.array([0.5, 0.5])
        labels = np.array([1, -1])
        q = np.array([0.9, 0.2])
        out, z = update_weights(weights, q, labels, 0.5, 0.5)
        f0 = 0.9 * math.exp(-0.5) + 0.1 * math.exp(0.5)
        f1 = 0.2 * math.exp(0.5) + 0.8 * math.exp(-0.5)
        assert z == pytest.approx(0.5 * (f0 + f1), rel=1e-14)
        np.testing.assert_allclose(out, [f0 / (f0 + f1), f1 / (f0 + f1)], rtol=1e-14)
        # frozen: the normalized pair is (0.46585, 0.53415)
        assert out[0] == pytest.approx(0.4658459077107, abs=1e-10)
        assert out[1] == pytest.approx(0.5341540922893, abs=1e-10)

    def test_output_normalized(self):
        rng = np.random.default_rng(0)
        w = rng.random(6)
        w /= w.sum()
        labels = np.array([1, -1, 1, 1, -1, -1])
        q = rng.random(6)
        out, _ = update_weights(w, q, labels, 0.3, -0.2)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)


class TestTrainAdaboost:
    def test_perfect_stage_kills_bound(self, tiny_dataset):
        model = train_adaboost(
            tiny_dataset, builtin_noisy_stump(0.0), 1, TrainConfig(exact_q=True)
        )
        assert model.stages[0].z < 1e-3
        assert model.recorded_bound() < 1e-3

    def test_constant_edge_exact_q_hits_rho(self, small_dataset):
        eps = 0.3
        model = train_adaboost(
            small_dataset, builtin_constant_edge_oracle(eps), 5, TrainConfig(exact_q=True)
        )
        rho = math.sqrt(1.0 - 4.0 * eps * eps)
        for stage in model.stages:
            assert stage.z <= rho + 1e-12
        assert model.recorded_bound() <= rho**5 + 1e-12

    def test_constant_edge_estimated_q_near_rho(self, small_dataset, monkeypatch):
        # with enough sampling rounds the estimated alphas land close enough
        # to optimal that every stage normalizer sits near rho = 0.8
        monkeypatch.setattr(weak_learner, "R_MIN_DEFAULT", 1000)
        model = train_adaboost(
            small_dataset, builtin_constant_edge_oracle(0.3), 5, TrainConfig(seed=11)
        )
        for stage in model.stages:
            assert stage.z <= 0.8 + 0.02

    def test_training_builds_no_generator(self, small_dataset, monkeypatch):
        # a training step takes only the dataset and the weights, and every
        # sampling round and the Monte-Carlo loss draw Philox arrays, so no
        # trainer builds a numpy Generator
        calls = []
        generator = RandomStream.generator

        def counted(stream, purpose, example=0, counter=0):
            calls.append(purpose)
            return generator(stream, purpose, example, counter)

        monkeypatch.setattr(RandomStream, "generator", counted)
        stump = builtin_noisy_stump(0.1)
        model = train_adaboost(small_dataset, stump, 3, TrainConfig(seed=4))
        mc_misclassification(model, small_dataset, 50, seed=1)
        train_adaboost(small_dataset, stump, 3, TrainConfig(seed=4, strategy="B"))
        grow_tree(small_dataset, stump, max_nodes=4, config=TrainConfig(seed=4))
        build_fixed_2_matryoshka(small_dataset, stump, 3, TrainConfig(seed=4))
        build_greedy_matryoshka(small_dataset, stump, 8, config=TrainConfig(seed=4))
        assert calls == []

    def test_w_sums_to_one_per_stage(self, small_dataset):
        model = train_adaboost(
            small_dataset, builtin_constant_edge_oracle(0.2), 4, TrainConfig(exact_q=True)
        )
        weights = small_dataset.weights
        for stage in model.stages:
            w = w_statistics(weights, stage.q_plus, small_dataset.labels)
            assert sum(w) == pytest.approx(1.0, abs=1e-10)
            weights, _ = update_weights(
                weights, stage.q_plus, small_dataset.labels, stage.alpha_plus, stage.alpha_minus
            )

    def test_determinism(self, small_dataset):
        cfg = TrainConfig(seed=21)
        a = train_adaboost(small_dataset, builtin_noisy_stump(0.1), 4, cfg)
        b = train_adaboost(small_dataset, builtin_noisy_stump(0.1), 4, cfg)
        assert a.to_record() == b.to_record()

    def test_record_with_w_statistics_loads(self, small_dataset):
        model = train_adaboost(
            small_dataset, builtin_constant_edge_oracle(0.3), 3, TrainConfig(exact_q=True)
        )
        record = model.to_record()
        assert all("w" not in stage for stage in record["stages"])
        for stage in record["stages"]:
            stage["w"] = [0.4, 0.3, 0.2, 0.1]  # older files store each stage's W statistics
        loaded = AdaboostModel.from_record(record)
        assert loaded.to_record() == model.to_record()
        assert exact_expected_bound(loaded, small_dataset) == exact_expected_bound(model, small_dataset)

    def test_learner_failure_reports_round(self, small_dataset):
        class Boom:
            def train(self, dataset, weights):
                raise RuntimeError("nope")

        class FailsSecond:
            def __init__(self):
                self.calls = 0

            def train(self, dataset, weights):
                self.calls += 1
                if self.calls > 1:
                    raise KeyError("nope")
                return builtin_constant_edge_oracle(0.3).train(dataset, weights)

        for strategy in ("A", "B"):
            config = TrainConfig(strategy=strategy)
            with pytest.raises(RuntimeError, match="round 1"):
                train_adaboost(small_dataset, Boom(), 3, config)
            with pytest.raises(RuntimeError, match="round 2"):
                train_adaboost(small_dataset, FailsSecond(), 3, config)

    def test_strategy_b_training_runs(self, small_dataset):
        T = 3
        model = train_adaboost(
            small_dataset,
            builtin_constant_edge_oracle(0.3),
            T,
            TrainConfig(seed=5, strategy="B"),
        )
        assert model.n_stages == T
        assert 0.0 < model.recorded_bound() <= 1.0
        assert model.recorded_bound() == pytest.approx(
            exact_expected_bound(model, small_dataset), rel=1e-12
        )

    def test_strategy_b_same_seed_same_file(self, tmp_path):
        dataset = make_synthetic_dataset(40, seed=0)
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            model = train_adaboost(
                dataset, builtin_constant_edge_oracle(0.3), 4, TrainConfig(seed=5, strategy="B")
            )
            save_model(model, path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestTrainConfig:
    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            TrainConfig(strategy="C")

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ValueError, match="estimator"):
            TrainConfig(estimator="mle", exact_q=True)

    def test_strategy_b_with_exact_q_rejected(self):
        with pytest.raises(ValueError, match="exact q"):
            TrainConfig(strategy="B", exact_q=True)


def _enumerated_bound(model, dataset):
    """Expected exponential loss by summing over all 2^T joint stage outputs."""
    y = dataset.labels.astype(float)
    total = np.zeros(dataset.n_examples)
    for signs in itertools.product((1, -1), repeat=model.n_stages):
        term = np.ones(dataset.n_examples)
        for stage, s in zip(model.stages, signs):
            q_s = stage.q_plus if s == 1 else 1.0 - stage.q_plus
            alpha = stage.alpha_plus if s == 1 else stage.alpha_minus
            term = term * q_s * np.exp(-alpha * s * y)
        total += term
    return float(np.sum(dataset.weights * total))


class TestExactExpectedBound:
    def test_empty_model(self, tiny_dataset):
        assert exact_expected_bound(AdaboostModel(stages=[]), tiny_dataset) == 1.0

    def test_single_stage_equals_z(self):
        ds = Dataset.from_arrays([[0.0], [1.0]], [1, -1])
        model = train_adaboost(ds, builtin_constant_edge_oracle(0.3), 1, TrainConfig(exact_q=True))
        assert exact_expected_bound(model, ds) == pytest.approx(model.stages[0].z, abs=1e-12)

    @pytest.mark.parametrize("seed,T,exact", [(0, 6, True), (1, 6, False), (2, 10, True)])
    def test_telescoping(self, small_dataset, seed, T, exact):
        model = train_adaboost(
            small_dataset,
            builtin_constant_edge_oracle(0.25),
            T,
            TrainConfig(seed=seed, exact_q=exact),
        )
        assert exact_expected_bound(model, small_dataset) == pytest.approx(
            model.recorded_bound(), abs=1e-10
        )
        assert exact_expected_bound(model, small_dataset) == pytest.approx(
            _enumerated_bound(model, small_dataset), rel=1e-12
        )

    def test_telescoping_with_stumps(self, small_dataset):
        model = train_adaboost(
            small_dataset, builtin_noisy_stump(0.15), 5, TrainConfig(seed=9)
        )
        assert exact_expected_bound(model, small_dataset) == pytest.approx(
            model.recorded_bound(), abs=1e-10
        )

    def test_enumeration_cap(self, small_dataset):
        model = train_adaboost(
            small_dataset, builtin_constant_edge_oracle(0.3), 2, TrainConfig(exact_q=True)
        )
        y = small_dataset.labels.astype(float)
        factors = [
            s.q_plus * np.exp(-s.alpha_plus * y) + (1.0 - s.q_plus) * np.exp(s.alpha_minus * y)
            for s in model.stages
        ]
        expected = float(np.sum(small_dataset.weights * (factors[0] * factors[1]) ** 11))
        model.stages = model.stages * 11  # 22 stages, past what enumeration can reach
        assert exact_expected_bound(model, small_dataset) == pytest.approx(expected, rel=1e-12)


class TestMcMisclassification:
    def test_perfect_model(self, tiny_dataset):
        model = train_adaboost(
            tiny_dataset, builtin_noisy_stump(0.0), 1, TrainConfig(exact_q=True)
        )
        loss, _ = mc_misclassification(model, tiny_dataset, 200, seed=1)
        assert loss == 0.0

    def test_coin_flip_stage(self):
        # a single 50/50 stage with symmetric alphas on balanced data
        from probboost.adaboost import StageRecord
        from probboost.weak_learner import StumpClassifier

        ds = Dataset.from_arrays([[0.0], [1.0]], [1, -1])
        clf = StumpClassifier(0, 0.5, 1, 0.5)
        stage = StageRecord(
            classifier=clf,
            q_plus=np.array([0.5, 0.5]),
            alpha_plus=0.3,
            alpha_minus=0.3,
            z=1.0,
        )
        model = AdaboostModel(stages=[stage])
        loss, se = mc_misclassification(model, ds, 4000, seed=2)
        assert loss == pytest.approx(0.5, abs=3 * se)

    def test_below_exponential_bound(self, small_dataset):
        for seed in (0, 1):
            model = train_adaboost(
                small_dataset,
                builtin_constant_edge_oracle(0.3),
                6,
                TrainConfig(seed=seed, exact_q=True),
            )
            loss, se = mc_misclassification(model, small_dataset, 3000, seed=seed)
            assert loss <= exact_expected_bound(model, small_dataset) + 3 * se

    def test_seeded_reproducibility(self, small_dataset):
        model = train_adaboost(
            small_dataset, builtin_constant_edge_oracle(0.2), 3, TrainConfig(exact_q=True)
        )
        a = mc_misclassification(model, small_dataset, 500, seed=7)
        b = mc_misclassification(model, small_dataset, 500, seed=7)
        assert a == b
