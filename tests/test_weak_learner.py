"""Weak learners, Bernoulli-parameter estimation, and stopping strategies."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probboost import adaboost, weak_learner
from probboost.adaboost import TrainConfig, _log_rate, train_adaboost
from probboost.core import Dataset, RandomStream, _mc_summary, make_synthetic_dataset
from probboost._zstats import optimal_alphas, w_statistics, z_value
from probboost.matryoshka import build_fixed_2_matryoshka
from probboost.persist import _plain_record, _read_plain, _read_tables, _write_tables, save_model
from probboost.ptree import CompositeNode, TreeModel, TreeNode, grow_tree, predict_tree, walk_table
from probboost.weak_learner import (
    ConstantEdgeClassifier,
    ProbClassifier,
    StumpClassifier,
    TrainingSet,
    WeakLearner,
    _draw_plus,
    _q_estimate,
    builtin_constant_edge_oracle,
    builtin_noisy_stump,
    estimate_q_strategy_A,
    map_z_estimate,
)


def _q(counts, rounds, estimator):
    return _q_estimate(np.array(counts), rounds, estimator)


class _SignedDraws(ProbClassifier):
    """Sample-only: draws ``score`` with probability ``p_pos`` on rows whose
    first feature is >= 0 (``p_neg`` on the others), else ``-score``."""

    def __init__(self, p_pos, p_neg, score):
        self.p_pos, self.p_neg, self.score = p_pos, p_neg, score

    def sample_batch(self, X, u):
        return np.where(u < np.where(X[:, 0] >= 0.0, self.p_pos, self.p_neg), self.score, -self.score)


class _FixedScores(ProbClassifier):
    """Draws the given rows of scores, one row per round, whatever u."""

    def __init__(self, rows):
        self.rows = np.array(rows)

    def sample_batch(self, X, u):
        return self.rows[: len(u)]


class _Returns(WeakLearner):
    def __init__(self, classifier):
        self.classifier = classifier

    def train(self, dataset, weights):
        return self.classifier


class TestPointEstimates:
    def test_ml(self):
        np.testing.assert_array_equal(_q([3, 0, 4], 4, "ml"), [0.75, 0.0, 1.0])
        np.testing.assert_array_equal(_q([7], 7, "ml"), [1.0])

    def test_ml_errors(self):
        with pytest.raises(ValueError, match="without observations"):
            _q([0, 0, 0], 0, "ml")
        with pytest.raises(ValueError, match="without observations"):
            _q([[0, 0], [1, 0]], np.array([[0], [1]]), "ml")  # a row per round, the first unobserved
        with pytest.raises(ValueError, match="unknown estimator"):
            _q([1], 2, "mle")

    def test_map(self):
        np.testing.assert_array_equal(_q([0, 0], 0, "map"), [0.5, 0.5])
        assert _q([3], 4, "map")[0] == pytest.approx(4 / 6)
        assert _q([0], 8, "map")[0] == pytest.approx(0.1)

    def test_map_strictly_interior(self):
        q = _q([0, 1000], 1000, "map")
        assert np.all((0.0 < q) & (q < 1.0))

    def test_counts_of_drawn_rounds(self):
        # two rounds drawn in one call count as the sum of their rows
        ds = Dataset.from_arrays([[0.0], [1.0], [2.0]], [1, -1, 1])
        drawn = _FixedScores([[1.0, -1.0, 1.0], [1.0, -1.0, -1.0]])
        plus = _draw_plus(drawn, ds, RandomStream(0), "fixed", [1, 2])
        assert plus.shape == (2, 3)
        counts = plus.sum(axis=0)
        np.testing.assert_array_equal(counts, [2, 0, 1])
        np.testing.assert_allclose(_q_estimate(counts, 2, "map"), [3 / 4, 1 / 4, 2 / 4])
        np.testing.assert_allclose(_q_estimate(counts, 2, "ml"), [1.0, 0.0, 0.5])

    def test_counts_score_signs_with_ties_to_plus(self):
        # sample_batch returns the score drawn; its sign is the branch
        ds = Dataset.from_arrays([[0.0], [1.0], [2.0], [3.0]], [1, 1, -1, -1])
        plus = _draw_plus(_FixedScores([[0.5, -0.5, 0.0, -2.0]]), ds, RandomStream(0), "scores", [1])
        np.testing.assert_array_equal(plus, [[True, False, True, False]])


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
        always_plus = StumpClassifier(0, 0.0, 1, 0.0, constant=1)
        rounds = np.arange(1, 21)
        counts = _draw_plus(always_plus, ds, RandomStream(0), "always", rounds).cumsum(axis=0)
        values = list(map_z_estimate(_q_estimate(counts, rounds[:, None], "map"), ds.weights, ds.labels))
        assert len(values) == 20
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_rows_score_as_each_row_alone(self, small_dataset, monkeypatch):
        # a block of rows yields, row for row, the Z of that row alone, and
        # computes no Z past the last row read
        ds = small_dataset
        rounds = np.arange(1, 6)[:, None]
        counts = np.random.default_rng(0).binomial(rounds, 0.6, size=(5, ds.n_examples))
        q = _q_estimate(counts, rounds, "map")
        alone = []
        for row in q:
            w = w_statistics(ds.weights, row, ds.labels)
            alone.append(z_value(w, *optimal_alphas(w)))
        assert np.array(list(map_z_estimate(q, ds.weights, ds.labels))).tobytes() == np.array(alone).tobytes()
        taken = []
        monkeypatch.setattr(weak_learner, "z_value", lambda *args: taken.append(1) or z_value(*args))
        first_two = list(zip(range(2), map_z_estimate(q, ds.weights, ds.labels)))
        assert [z for _, z in first_two] == alone[:2] and len(taken) == 2

    def test_scores_other_than_one_count_by_sign(self, small_dataset):
        # draws of +-0.5 estimate the same q, round for round, as draws of +-1
        results = [
            estimate_q_strategy_A(_SignedDraws(0.9, 0.9, score), small_dataset, small_dataset.weights,
                                  RandomStream(0))
            for score in (0.5, 1.0)
        ]
        (q_half, rounds_half), (q_unit, rounds_unit) = results
        assert rounds_half == rounds_unit
        assert q_half.tobytes() == q_unit.tobytes()
        assert q_half.mean() > 0.5

    def test_certain_classifier_stays_cheap_to_the_cap(self, tiny_dataset, monkeypatch):
        # q is exactly 0 or 1, so the Z estimate never rises and sampling runs
        # to the cap (ROADMAP item 6); the MAP estimate after R rounds is
        # (1 + c) / (R + 2), with c = R on the + rows and 0 on the - rows
        spent = []

        def recording(*args, **kwargs):
            q, rounds = estimate_q_strategy_A(*args, **kwargs)
            spent.append(rounds)
            return q, rounds

        monkeypatch.setattr(weak_learner, "estimate_q_strategy_A", recording)
        tree = grow_tree(tiny_dataset, builtin_constant_edge_oracle(0.5), max_nodes=1, config=TrainConfig(seed=0))
        [rounds] = spent
        assert 1 <= rounds <= weak_learner.R_MAX_DEFAULT
        c = np.where(tiny_dataset.labels == 1, rounds, 0)
        assert tree.nodes[""].q_plus.tobytes() == ((1 + c) / (rounds + 2)).tobytes()


def _one_round_per_call(classifier, dataset, weights, stream, purpose, estimator):
    """Strategy A drawing one round per RandomStream call on plain counts:
    the reference that block draws must match bit for bit."""
    n = dataset.n_examples
    counts = np.zeros(n, dtype=int)
    prev_z, prev_q = math.inf, _q_estimate(counts, 0, "map")
    for r in range(1, weak_learner.R_MAX_DEFAULT + 1):
        u = stream.uniforms(purpose, np.arange(n), r)
        counts = counts + (classifier.sample_batch(dataset.features, u) >= 0.0)
        q = _q_estimate(counts, r, estimator)
        w = w_statistics(weights, q, dataset.labels)  # the 1-D W of this round alone
        z = weak_learner.z_value(w, *optimal_alphas(w))
        if r > weak_learner.R_MIN_DEFAULT and z > prev_z:
            return prev_q, r
        prev_z, prev_q = z, q
    return prev_q, weak_learner.R_MAX_DEFAULT


class _CallSizes(RandomStream):
    """A stream that records how many uniforms each call draws."""

    def __init__(self, seed):
        super().__init__(seed)
        self.sizes = []

    def uniforms(self, purpose, example, counter):
        u = super().uniforms(purpose, example, counter)
        self.sizes.append(u.size)
        return u


class _RowsSeen(ProbClassifier):
    """Draws as ``inner`` does, recording how many rows of X each
    ``sample_batch`` call is given."""

    def __init__(self, inner):
        self.inner, self.rows = inner, []

    def sample_batch(self, X, u):
        self.rows.append(len(X))
        return self.inner.sample_batch(X, u)


def _weighted_dataset(n):
    ds = Dataset.from_arrays([[0.5, -1.0]], [1]) if n == 1 else make_synthetic_dataset(n, seed=n)
    raw = np.random.default_rng(n).random(n) + 0.1
    return ds, raw / raw.sum()


_CLASSIFIERS = {
    "stump": lambda ds, w: builtin_noisy_stump(0.1).train(ds, w),
    "constant-edge": lambda ds, w: builtin_constant_edge_oracle(0.2).train(ds, w),
    "sample-only": lambda ds, w: _SignedDraws(0.8, 0.3, 0.5),
}


class TestBlockDraws:
    @pytest.fixture(autouse=True)
    def _record_z(self, monkeypatch):
        # both loops take each round's Z through weak_learner.z_value
        self.zs = []
        monkeypatch.setattr(weak_learner, "z_value", lambda *args: self.zs.append(z_value(*args)) or self.zs[-1])

    def _assert_matches_one_round_per_call(self, classifier, ds, weights, seed, estimator):
        stream = _CallSizes(seed)
        seen = _RowsSeen(classifier)
        q, rounds = estimate_q_strategy_A(seen, ds, weights, stream, "blocks", estimator)
        # a block of rounds is drawn on the N training rows, not on copies
        assert set(seen.rows) == {ds.n_examples}
        block_zs, self.zs[:] = self.zs[:], []
        q_ref, rounds_ref = _one_round_per_call(classifier, ds, weights, RandomStream(seed), "blocks", estimator)
        assert rounds == rounds_ref
        assert q.tobytes() == q_ref.tobytes()
        assert len(block_zs) == rounds  # every round up to the stop takes its Z
        assert np.array(block_zs).tobytes() == np.array(self.zs).tobytes()
        self.zs.clear()
        assert max(stream.sizes) <= max(weak_learner.MAX_BLOCK_DRAWS, ds.n_examples)
        return rounds

    @pytest.mark.parametrize("n", [1, 2, 40, 100, weak_learner.MAX_BLOCK_DRAWS + 1])
    @pytest.mark.parametrize("kind", sorted(_CLASSIFIERS))
    @pytest.mark.parametrize("estimator", ["map", "ml"])
    def test_same_bits_and_rounds(self, n, kind, estimator):
        ds, weights = _weighted_dataset(n)
        classifier = _CLASSIFIERS[kind](ds, weights)
        for seed in range(3):
            self._assert_matches_one_round_per_call(classifier, ds, weights, seed, estimator)

    @pytest.mark.parametrize("r_max", [1, 2, 3, 4, 7, 8])
    def test_cap_inside_a_block(self, monkeypatch, r_max):
        # three rounds per block, so a cap of 7 or 8 falls inside the third
        ds, weights = _weighted_dataset(40)
        monkeypatch.setattr(weak_learner, "MAX_BLOCK_DRAWS", 3 * 40)
        monkeypatch.setattr(weak_learner, "R_MAX_DEFAULT", r_max)
        noiseless = builtin_noisy_stump(0.0).train(ds, weights)  # its Z estimate never rises
        for estimator in ("map", "ml"):
            assert self._assert_matches_one_round_per_call(noiseless, ds, weights, 0, estimator) == r_max
            for kind, make in _CLASSIFIERS.items():
                self._assert_matches_one_round_per_call(make(ds, weights), ds, weights, 1, estimator)

    @pytest.mark.parametrize("r_min", [0, 1, 2, 4])
    def test_first_round_that_may_stop(self, monkeypatch, r_min):
        # the stop test fires at the earliest round it is allowed in some seed
        monkeypatch.setattr(weak_learner, "R_MIN_DEFAULT", r_min)
        ds, weights = _weighted_dataset(2)
        classifier = _SignedDraws(0.6, 0.6, 1.0)
        rounds = {self._assert_matches_one_round_per_call(classifier, ds, weights, seed, "map")
                  for seed in range(40)}
        assert min(rounds) == max(r_min, 1) + 1


def _composite(ds):
    tree = build_fixed_2_matryoshka(ds, builtin_constant_edge_oracle(0.3), 2, TrainConfig(exact_q=True))
    composite = tree.nodes[""].classifier
    assert isinstance(composite, CompositeNode)
    return composite


_SAMPLED = {**_CLASSIFIERS, "composite": lambda ds, w: _composite(ds)}


class TestSampleBatchLeadingAxes:
    @pytest.mark.parametrize("kind", sorted(_SAMPLED))
    @pytest.mark.parametrize("rounds", [(1,), (5,), (2, 3)])
    def test_rounds_draw_as_one_call_each(self, small_dataset, kind, rounds):
        # u of shape (..., N) draws as one call per row of uniforms would
        classifier = _SAMPLED[kind](small_dataset, small_dataset.weights)
        n = small_dataset.n_examples
        counters = np.arange(np.prod(rounds)).reshape(*rounds, 1)
        u = RandomStream(4).uniforms("axes", np.arange(n), counters)
        assert u.shape == (*rounds, n)
        drawn = classifier.sample_batch(small_dataset.features, u)
        one_call_each = np.stack([classifier.sample_batch(small_dataset.features, row) for row in u.reshape(-1, n)])
        assert drawn.shape == u.shape
        assert drawn.tobytes() == one_call_each.reshape(u.shape).tobytes()


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
    def test_scores_other_than_one_count_by_sign(self, small_dataset):
        # the look-ahead reads draws of +-0.5 as it reads draws of +-1
        models = [
            train_adaboost(small_dataset, _Returns(_SignedDraws(0.9, 0.9, score)), 3,
                           TrainConfig(seed=2, strategy="B"))
            for score in (0.5, 1.0)
        ]
        for half, unit in zip(*(model.stages for model in models)):
            assert half.q_plus.tobytes() == unit.q_plus.tobytes()
            assert (half.alpha_plus, half.alpha_minus, half.z) == (unit.alpha_plus, unit.alpha_minus, unit.z)
        assert min(stage.q_plus.mean() for stage in models[0].stages) > 0.5

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

    @pytest.mark.parametrize("T", [2, 3, 4])
    def test_looks_ahead_at_most_r_max_times_t(self, monkeypatch, T):
        # at seed 3 this run resamples stage 1 ten times, so a cap of
        # 1 * T look-aheads binds before the first advance
        monkeypatch.setattr(adaboost, "R_MAX_DEFAULT", 1)
        calls = []

        class Counting(WeakLearner):
            def train(self, dataset, weights):
                calls.append(1)
                return builtin_noisy_stump(0.1).train(dataset, weights)

        model = train_adaboost(make_synthetic_dataset(40, seed=3), Counting(), T, TrainConfig(seed=3, strategy="B"))
        assert len(calls) == 1 + T  # h_1, then one candidate per look-ahead
        assert model.n_stages == 1
        assert _stage_rounds(model.stages[0].q_plus) == 1 + T  # every look resampled h_1


class _ThreeOutcomes(ProbClassifier):
    """Exact outcomes 2, -1 and 0 (a tie, drawn as +) with fixed reach."""

    def outcomes(self, X):
        return np.tile([0.25, 0.5, 0.25], (len(X), 1)), np.array([2.0, -1.0, 0.0])


_BUILTIN_PLAIN = {
    "stump": _CLASSIFIERS["stump"],
    "noiseless-stump": lambda ds, w: builtin_noisy_stump(0.0).train(ds, w),
    "constant-stump": lambda ds, w: StumpClassifier(0, 0.0, 1, 0.3, constant=-1),
    "constant-edge": _CLASSIFIERS["constant-edge"],
    "certain-edge": lambda ds, w: builtin_constant_edge_oracle(0.5).train(ds, w),
}


class TestPlainOutcomes:
    @pytest.mark.parametrize("q", [[], [0.5], [0.0, 1.0, 0.3, 1e-300, 0.7]])
    def test_table_equals_column_stack(self, q):
        q = np.array(q, dtype=float)
        reach, scores = weak_learner._plain_outcomes(q)
        expected = np.column_stack([q, 1.0 - q])
        assert reach.shape == expected.shape and reach.flags.c_contiguous
        assert reach.tobytes() == expected.tobytes()
        assert scores is weak_learner.PLAIN_SCORES

    @pytest.mark.parametrize("kind", ["stump", "constant-edge", "three-outcomes"])
    def test_exact_node_q_equals_the_mask_and_sum(self, small_dataset, kind):
        make = {**_CLASSIFIERS, "three-outcomes": lambda ds, w: _ThreeOutcomes()}[kind]
        classifier = make(small_dataset, small_dataset.weights)
        reach, scores = classifier.outcomes(small_dataset.features)
        config = TrainConfig(exact_q=True)
        q = weak_learner.node_q(classifier, small_dataset, small_dataset.weights, config, RandomStream(0), "q")
        assert q.tobytes() == reach[:, scores >= 0.0].sum(axis=1).tobytes()

    @pytest.mark.parametrize("kind", sorted(_BUILTIN_PLAIN))
    @pytest.mark.parametrize("rounds", [(), (4,)])
    def test_q_gives_the_outcome_table_forms(self, small_dataset, kind, rounds):
        # a built-in plain classifier draws and gives exact q from its q alone,
        # as the defaults do from its outcome table; u of shape (N,) or (R, N)
        classifier = _BUILTIN_PLAIN[kind](small_dataset, small_dataset.weights)
        X, n = small_dataset.features, small_dataset.n_examples
        reach, scores = classifier.outcomes(X)
        assert scores is weak_learner.PLAIN_SCORES
        config = TrainConfig(exact_q=True)
        q = weak_learner.node_q(classifier, small_dataset, small_dataset.weights, config, RandomStream(0), "q")
        assert q.tobytes() == reach[:, 0].tobytes()
        counters = np.arange(np.prod(rounds, dtype=int)).reshape(*rounds, 1) if rounds else 0
        u = RandomStream(8).uniforms("plain", np.arange(n), counters)
        # and uniforms at q and one ulp either side of it, inside [0, 1)
        at_q = np.clip(np.stack([q, np.nextafter(q, -1.0), np.nextafter(q, 2.0)]), 0.0, np.nextafter(1.0, 0.0))
        for u in (u, at_q if rounds else at_q[0]):
            drawn = classifier.sample_batch(X, u)
            assert drawn.shape == u.shape
            assert drawn.tobytes() == ProbClassifier.sample_batch(classifier, X, u).tobytes()


class _TableOutcomes(ProbClassifier):
    """User outcomes only: row i of X (its first feature is i) draws score
    k with probability reach[i, k]."""

    def __init__(self, reach, scores):
        self.reach, self.scores = reach, scores

    def outcomes(self, X):
        return self.reach[np.asarray(X, dtype=float)[:, 0].astype(int)], self.scores


@st.composite
def _user_outcomes(draw):
    """Outcome tables of 1 to 5 columns in any order: scores with 0,
    negatives and values other than +/-1, and reach rows that sum to 1 and
    may hold zeros."""
    k = draw(st.integers(1, 5))
    n = draw(st.integers(1, 6))
    score = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.0, -1e-9]) | st.floats(-4.0, 4.0)
    scores = np.array(draw(st.lists(score, min_size=k, max_size=k)))
    mass = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    rows = [draw(st.lists(mass, min_size=k, max_size=k).filter(lambda row: sum(row) > 0.0)) for _ in range(n)]
    reach = np.array(rows)
    return reach / reach.sum(axis=1, keepdims=True), scores


class _Flipped(ProbClassifier):
    """Outcome columns (-1, +1): q(+) is 0.9 on rows with f0 >= 0, else 0.1."""

    def outcomes(self, X):
        q = np.where(X[:, 0] >= 0.0, 0.9, 0.1)
        return np.column_stack([1.0 - q, q]), np.array([-1.0, 1.0])


class TestOneQRule:
    """q(+) of a user classifier is the reach of its outcomes whose score is
    >= 0, wherever it is read: draws, exact node_q, q_plus and walk columns."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_user_outcomes())
    def test_every_reader_takes_the_reach_of_scores_at_least_zero(self, table):
        reach, scores = table
        n = len(reach)
        classifier = _TableOutcomes(reach, scores)
        X = np.arange(n, dtype=float)[:, None]
        q = reach[:, scores >= 0.0].sum(axis=1)
        for u in (RandomStream(3).uniforms("u", np.arange(n), 0),
                  RandomStream(3).uniforms("u", np.arange(n), np.arange(4)[:, None]),
                  np.clip(q, 0.0, np.nextafter(1.0, 0.0))):  # u == q draws -1
            assert classifier.sample_batch(X, u).tobytes() == np.where(u < q, 1.0, -1.0).tobytes()
        dataset = Dataset.from_arrays(X, np.where(np.arange(n) % 2 == 0, 1, -1))
        exact = weak_learner.node_q(classifier, dataset, dataset.weights, TrainConfig(exact_q=True),
                                    RandomStream(0), "q")
        assert exact.tobytes() == q.tobytes()
        assert np.array([classifier.q_plus(x) for x in X]).tobytes() == q.tobytes()
        tree = TreeModel(nodes={"": TreeNode(classifier, q, 1.0, 1.0, 0.5, 0.5)})
        for got, expected in zip(walk_table(tree, X), weak_learner._plain_outcomes(q)):
            assert got.tobytes() == expected.tobytes()

    def test_minus_first_columns(self):
        # the + column comes second: strategy A estimates q, not 1 - q
        dataset = make_synthetic_dataset(40, seed=0)
        classifier = _Flipped()
        q = np.where(dataset.features[:, 0] >= 0.0, 0.9, 0.1)
        estimate, _ = estimate_q_strategy_A(classifier, dataset, dataset.weights, RandomStream(0))
        assert np.mean(np.abs(estimate - q)) < 0.2 < np.mean(np.abs(estimate - (1.0 - q)))
        # and an exact-q tree's Monte-Carlo 0/1 loss is the enumerated one
        tree = grow_tree(dataset, _Returns(classifier), max_nodes=4, config=TrainConfig(exact_q=True))
        scores, _ = predict_tree(tree, dataset.features, RandomStream(1), "mc", 2000, leaves=False)
        loss, se = _mc_summary(scores, dataset)
        reach, walk_scores = walk_table(tree, dataset.features)
        wrong = walk_scores[None, :] * dataset.labels[:, None] <= 0.0  # ties count as errors
        exact = float(np.sum(reach * wrong, axis=1) @ dataset.weights)
        assert abs(loss - exact) < 5 * se


class TestUserLearner:
    def test_trains_from_dataset_and_weights(self, small_dataset):
        class Edge(WeakLearner):
            def __init__(self):
                self.calls = 0

            def train(self, dataset, weights):
                self.calls += 1
                return ConstantEdgeClassifier(0.3, TrainingSet(dataset.features, dataset.labels))

        for strategy in ("A", "B"):
            model = train_adaboost(small_dataset, Edge(), 3, TrainConfig(seed=1, strategy=strategy))
            assert model.n_stages == 3
        learner = Edge()
        assert grow_tree(small_dataset, learner, max_nodes=3, config=TrainConfig(seed=1)).n_nodes == 3
        assert learner.calls == 3
        learner = Edge()
        tree = build_fixed_2_matryoshka(small_dataset, learner, 2, TrainConfig(seed=1))
        assert tree.n_nodes == 2 and learner.calls == 4

    @pytest.mark.parametrize("train", [
        lambda data, learner: train_adaboost(data, learner, 2, TrainConfig(exact_q=True)),
        lambda data, learner: grow_tree(data, learner, max_nodes=2, config=TrainConfig(exact_q=True)),
        lambda data, learner: build_fixed_2_matryoshka(data, learner, 2, TrainConfig(exact_q=True)),
    ], ids=["adaboost", "ptree", "fixed2"])
    def test_unknown_classifier_refused_at_save(self, small_dataset, tmp_path, train):
        # a model file holds only the classifiers it can load: no file is written
        model = train(small_dataset, _Returns(_Flipped()))
        path = tmp_path / "m.json"
        with pytest.raises(TypeError, match="cannot hold a _Flipped classifier"):
            save_model(model, path)
        assert not path.exists()


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
        record = _plain_record(clf)
        tables = _read_tables(_write_tables({}, [(clf, {"classifier": record})]))
        clone = _read_plain(record, tables.training_sets)
        assert isinstance(clone, ConstantEdgeClassifier)
        assert clone.q_plus(tiny_dataset.features[0]) == clf.q_plus(tiny_dataset.features[0])


    def test_array_outcomes_match_a_row_lookup(self):
        # reference: the per-row dict the oracle used to keep; a repeated row
        # takes its last label, and -0.0 is the same row as 0.0
        features = np.array([[0.5, 1.0], [-0.0, 2.0], [0.5, 1.0], [3.0, -1.0]])
        labels = np.array([1, -1, -1, 1])
        clf = ConstantEdgeClassifier(0.2, TrainingSet(features, labels))
        lookup = {tuple(row): lab for row, lab in zip(features, labels)}
        X = np.array([[3.0, -1.0], [0.0, 2.0], [0.5, 1.0], [-0.0, 2.0]])
        expected = [0.5 + 0.2 if lookup[tuple(x)] == 1 else 0.5 - 0.2 for x in X]
        reach, scores = clf.outcomes(X)
        np.testing.assert_array_equal(reach[:, 0], expected)
        np.testing.assert_array_equal(reach[:, 1], 1.0 - np.array(expected))
        np.testing.assert_array_equal(scores, [1.0, -1.0])
        with pytest.raises(ValueError, match="dimension"):
            clf.outcomes(np.zeros((2, 3)))

    def test_training_rows_read_the_search_result(self):
        # the labels of the training array itself are looked up once; they
        # equal what the search gives a copy, repeated rows and -0.0 included
        features = np.array([[0.5, 1.0], [-0.0, 2.0], [0.5, 1.0], [0.0, 2.0], [3.0, -1.0]])
        labels = np.array([1, -1, -1, 1, 1])
        training_set = TrainingSet(features, labels)
        own = training_set.labels_of(features)
        np.testing.assert_array_equal(own, training_set.labels_of(features.copy()))
        np.testing.assert_array_equal(own, [-1, 1, -1, 1, 1])
        assert TrainingSet(features.copy(), labels.copy()).fingerprint == training_set.fingerprint
        assert TrainingSet(features + 0.0, labels).fingerprint == training_set.fingerprint
        assert TrainingSet(features, -labels).fingerprint != training_set.fingerprint

    def test_one_lookup_per_training_set(self, small_dataset, tiny_dataset):
        learner = builtin_constant_edge_oracle(0.2)
        first = learner.train(small_dataset, small_dataset.weights)
        # a dataset with the same arrays and other weights is the same training set
        reweighted = Dataset(small_dataset.features, small_dataset.labels, small_dataset.weights[::-1].copy())
        assert learner.train(reweighted, reweighted.weights).training_set is first.training_set
        other = learner.train(tiny_dataset, tiny_dataset.weights)
        assert other.training_set is not first.training_set
        assert other.training_set.fingerprint != first.training_set.fingerprint

    def test_one_q_per_training_set_and_epsilon(self, small_dataset):
        # every node trained on these rows reads one read-only q; other rows get their own
        learner = builtin_constant_edge_oracle(0.2)
        first = learner.train(small_dataset, small_dataset.weights)
        q = first._q(small_dataset.features)
        assert learner.train(small_dataset, small_dataset.weights)._q(small_dataset.features) is q
        assert first._training_q() is q and not q.flags.writeable
        expected = np.where(small_dataset.labels == 1, 0.7, 0.3)
        assert q.tobytes() == expected.tobytes()
        copy = first._q(small_dataset.features.copy())
        assert copy is not q and copy.flags.writeable and copy.tobytes() == q.tobytes()
        wider = ConstantEdgeClassifier(0.3, first.training_set)._q(small_dataset.features)
        assert wider is not q and wider.tolist() == np.where(small_dataset.labels == 1, 0.8, 0.2).tolist()
        assert ConstantEdgeClassifier(0.3, first.training_set)._q(small_dataset.features) is wider
        with pytest.raises(ValueError):
            q[0] = 0.5


def _reference_stump_scan(dataset, weights, p_flip):
    """The stump scan one (feature, threshold, polarity) at a time: cuts in
    order, polarity +1 then -1, and a candidate kept only when it beats the
    best so far by more than 1e-15."""
    weights = np.asarray(weights, dtype=float)
    y = dataset.labels
    best = None  # (err, feature, thr, pol)
    for j in range(dataset.dimension):
        values = dataset.features[:, j]
        order = np.argsort(values, kind="stable")
        sv, sy, sw = values[order], y[order], weights[order]
        if sv[0] == sv[-1]:
            continue
        pos_mass = np.cumsum(np.where(sy == 1, sw, 0.0))
        neg_mass = np.cumsum(np.where(sy == -1, sw, 0.0))
        total_neg = neg_mass[-1]
        for i in range(len(sv) - 1):
            if sv[i] == sv[i + 1]:
                continue
            thr = 0.5 * (sv[i] + sv[i + 1])
            err_plus = pos_mass[i] + (total_neg - neg_mass[i])
            for pol, err in ((1, err_plus), (-1, 1.0 - err_plus)):
                if best is None or err < best[0] - 1e-15:
                    best = (err, j, thr, pol)
    if best is None:
        majority = 1 if float(np.sum(weights[y == 1])) >= 0.5 else -1
        return StumpClassifier(0, 0.0, 1, p_flip, constant=majority)
    _, feature, thr, pol = best
    return StumpClassifier(feature, thr, pol, p_flip)


def _assert_scan_matches_reference(dataset, weights):
    record = _plain_record(builtin_noisy_stump(0.1).train(dataset, weights))
    # json text tells apart -0.0 and 0.0, and refuses numpy integers
    assert json.dumps(record) == json.dumps(_plain_record(_reference_stump_scan(dataset, weights, 0.1)))
    return record


@st.composite
def _stump_scan_cases(draw):
    n = draw(st.integers(1, 64))
    d = draw(st.integers(1, 3))
    rounded = st.floats(-2.0, 2.0).map(lambda v: round(v, 1))  # so that values tie
    features = np.array(draw(st.lists(st.lists(rounded, min_size=d, max_size=d), min_size=n, max_size=n)))
    if draw(st.booleans()):
        features[:, draw(st.integers(0, d - 1))] = 0.5  # a constant column
    labels = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    if draw(st.booleans()):
        weights = np.full(n, 1.0 / n)  # errors tie exactly
    else:
        mass = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
        weights = np.array(draw(st.lists(mass, min_size=n, max_size=n)))
        weights = weights / weights.sum() if weights.sum() > 0.0 else weights
    return Dataset.from_arrays(features, labels), weights


class TestNoisyStump:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(_stump_scan_cases())
    def test_scan_matches_one_candidate_at_a_time(self, case):
        _assert_scan_matches_reference(*case)

    def test_margin_rule_keeps_an_earlier_near_tie(self):
        # err 0.25 at thr 1.5 (pol -1) comes first; 2.5 is lower, by less than 1e-15
        ds = Dataset.from_arrays([[0.0], [1.0], [2.0], [3.0]], [-1, 1, 1, -1])
        raw = np.array([0.25, 1.1e-15, 0.5e-15, 0.75 - 1.6e-15])
        weights = raw / raw.sum()
        record = _assert_scan_matches_reference(ds, weights)
        assert (record["threshold"], record["polarity"]) == (1.5, -1)
        errors = [weights @ (StumpClassifier(0, thr, -1, 0.0).decisions(ds.features) != ds.labels)
                  for thr in (1.5, 2.5)]
        assert errors[1] < errors[0]  # the plain argmin would take 2.5

    @pytest.mark.parametrize("at", [0, 3, 7])
    def test_nan_weight_scans_as_one_candidate_at_a_time(self, small_dataset, at):
        weights = small_dataset.weights.copy()
        weights[at] = np.nan
        _assert_scan_matches_reference(small_dataset, weights)

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

    @pytest.mark.parametrize("p_flip", [0.0, 0.1, 0.3, 0.5 - 1e-12])
    def test_sample_batch_is_the_outcome_count(self, small_dataset, p_flip):
        # a plain draw equals counting the outcomes whose cumulative reach is
        # at most u, bit for bit, u == q included
        clf = StumpClassifier(0, 0.0, 1, p_flip)
        q = clf.outcomes(small_dataset.features)[0][:, 0]
        u = RandomStream(2).uniforms("u", np.arange(small_dataset.n_examples), np.arange(6)[:, None])
        u[0], u[1], u[2] = q, np.nextafter(q, 0.0), np.nextafter(q, 1.0)
        u = np.clip(u, 0.0, np.nextafter(1.0, 0.0))  # uniforms lie in [0, 1)
        reach, scores = clf.outcomes(small_dataset.features)
        # the outcomes whose cumulative reach is at most u, counted outcome-major
        picked = np.sum(np.cumsum(reach, axis=1).T.copy() <= u[..., None, :], axis=-2)
        counted = scores[np.minimum(picked, len(scores) - 1)]
        assert clf.sample_batch(small_dataset.features, u).tobytes() == counted.tobytes()

    def test_record_round_trip(self, tiny_dataset):
        clf = builtin_noisy_stump(0.2).train(tiny_dataset, tiny_dataset.weights)
        clone = _read_plain(_plain_record(clf), {})
        assert isinstance(clone, StumpClassifier)
        assert (clone.feature, clone.threshold, clone.polarity, clone.p_flip) == (
            clf.feature, clf.threshold, clf.polarity, clf.p_flip,
        )

    def test_invalid_p_flip(self):
        with pytest.raises(ValueError):
            builtin_noisy_stump(0.5)
