"""Nested trees: composite nodes, fixed-2 building, greedy collection."""

import math

import numpy as np
import pytest

from probboost.adaboost import TrainConfig
from probboost.bounds import rate_matryoshka, rate_simple
from probboost.core import Dataset, RandomStream
from probboost.matryoshka import (
    CompositeNode,
    CountingLearner,
    MatryoshkaPolicy,
    build_fixed_2_matryoshka,
    build_greedy_matryoshka,
    collect_leaves,
)
from probboost.persist import load_model, save_model
from probboost.ptree import (
    TreeModel,
    TreeNode,
    attach_node,
    exact_tree_bound,
    grow_tree,
    node_q,
    predict_tree,
    walk_table,
)
from probboost.weak_learner import (
    ConstantEdgeClassifier,
    ProbClassifier,
    builtin_constant_edge_oracle,
    builtin_noisy_stump,
    classifier_from_record,
)


def _single_split_tree(epsilon=0.2, labels=(1, -1)):
    # constant-edge classifier: q(x) is 1/2 + eps on the +1 example and
    # 1/2 - eps on the -1 example, matching the attached q table exactly
    ds = Dataset.from_arrays([[0.0], [1.0]], list(labels))
    clf = ConstantEdgeClassifier(epsilon, ds.features, ds.labels)
    q = np.array([clf.q_plus(x) for x in ds.features])
    tree = TreeModel(trajectory=[1.0])
    attach_node(tree, "", clf, q, ds.weights.copy(), ds.labels)
    return tree, ds


def _composites(tree):
    """Every composite in the tree, nested ones included."""
    for node in tree.nodes.values():
        if isinstance(node.classifier, CompositeNode):
            yield node.classifier
            yield from _composites(node.classifier.inner)


def _composite_records(record):
    """Every composite record under a tree record, nested ones included."""
    for node in record["nodes"].values():
        if node["classifier"]["kind"] == "composite":
            yield node["classifier"]
            yield from _composite_records(node["classifier"]["inner"])


def _composite_draws(composite, x, n, seed):
    """n draws of a composite's output on row x, made as ``predict_tree``
    makes them: a walk through a tree whose root is the composite."""
    outer = TreeModel(nodes={"": TreeNode(composite, None, 1.0, 1.0, 0.5, 0.5)})
    _, leaves = predict_tree(outer, np.asarray(x)[None], RandomStream(seed), "composite", n)
    return np.where(leaves[:, 0] == "+", 1, -1)


class TestCompositeNode:
    def test_root_only_always_plus(self):
        composite = collect_leaves(TreeModel())
        x = np.array([0.0])
        assert np.all(_composite_draws(composite, x, 10, seed=0) == 1)
        assert composite.q_plus(x) == 1.0
        reach, scores = composite.outcomes(np.zeros((3, 1)))  # one row per input
        assert reach.tolist() == [[1.0], [1.0], [1.0]] and scores.tolist() == [0.0]

    def test_deterministic_split_reproduced(self, tiny_dataset):
        inner = grow_tree(
            tiny_dataset,
            builtin_noisy_stump(0.0),
            max_nodes=1,
            config=TrainConfig(exact_q=True),
        )
        composite = collect_leaves(inner)
        for x, y in zip(tiny_dataset.features, tiny_dataset.labels):
            assert composite.q_plus(x) in (0.0, 1.0)
            assert np.all(_composite_draws(composite, x, 10, seed=1) == y)

    def test_single_split_q(self):
        # the + leaf has H = alpha_+ > 0, the - leaf H = -alpha_- < 0, so
        # the composite's +1 probability is exactly the branch probability
        tree, ds = _single_split_tree(0.2)
        node = tree.nodes[""]
        assert node.alpha_plus > 0.0 and node.alpha_minus > 0.0
        composite = collect_leaves(tree)
        assert composite.q_plus(ds.features[0]) == pytest.approx(0.7)
        assert composite.q_plus(ds.features[1]) == pytest.approx(0.3)

    def test_complement(self, small_dataset):
        inner = grow_tree(
            small_dataset,
            builtin_constant_edge_oracle(0.2),
            max_nodes=3,
            config=TrainConfig(exact_q=True),
        )
        composite = collect_leaves(inner)
        for x in small_dataset.features[:10]:
            q = composite.q_plus(x)
            assert 0.0 <= q <= 1.0  # and q(-) = 1 - q by construction

    def test_empirical_frequency_matches_exact_q(self, small_dataset):
        inner = grow_tree(
            small_dataset,
            builtin_constant_edge_oracle(0.3),
            max_nodes=2,
            config=TrainConfig(exact_q=True),
        )
        composite = collect_leaves(inner)
        n = 20_000
        for x in small_dataset.features[:3]:
            q = composite.q_plus(x)
            freq = np.mean(_composite_draws(composite, x, n, seed=5) == 1)
            se = math.sqrt(max(q * (1.0 - q), 1e-12) / n)
            assert freq == pytest.approx(q, abs=max(4 * se, 1e-3))

    def test_record_round_trip(self, small_dataset):
        inner = grow_tree(
            small_dataset,
            builtin_constant_edge_oracle(0.3),
            max_nodes=2,
            config=TrainConfig(exact_q=True),
        )
        composite = collect_leaves(inner)
        clone = classifier_from_record(composite.to_record())
        assert isinstance(clone, CompositeNode)
        x = small_dataset.features[0]
        assert clone.q_plus(x) == composite.q_plus(x)


    def test_nested_empirical_frequency_matches_exact_q(self, small_dataset):
        # the root of a 3-level tree is a composite of composites
        tree = build_fixed_2_matryoshka(
            small_dataset, builtin_constant_edge_oracle(0.3), 3, TrainConfig(exact_q=True)
        )
        root = tree.nodes[""]
        composite = root.classifier
        assert any(
            isinstance(node.classifier, CompositeNode) for node in composite.inner.nodes.values()
        )
        reach, scores = composite.leaf_table
        n = 4000
        for index in range(3):
            x = small_dataset.features[index]
            q = composite.q_plus(x)
            assert q == pytest.approx(reach[index, scores >= 0.0].sum(), abs=1e-12)
            freq = np.mean(_composite_draws(composite, x, n, seed=8) == 1)
            se = math.sqrt(max(q * (1.0 - q), 1e-12) / n)
            assert freq == pytest.approx(q, abs=max(4 * se, 1e-3))

    @pytest.mark.parametrize("L", [2, 3])
    def test_outcomes_on_training_rows_are_the_leaf_table(self, small_dataset, L):
        # one walk, two sources: the classifiers' q on the rows, and what
        # training stored; with exact q they agree bit for bit
        tree = build_fixed_2_matryoshka(
            small_dataset, builtin_constant_edge_oracle(0.3), L, TrainConfig(exact_q=True)
        )
        composite = tree.nodes[""].classifier
        reach, scores = composite.outcomes(small_dataset.features)
        np.testing.assert_array_equal(reach, composite.leaf_table[0])
        np.testing.assert_array_equal(scores, composite.leaf_table[1])

    def test_inner_classifier_without_exact_q(self):
        class SampleOnly(ProbClassifier):
            def sample_batch(self, X, u):
                return np.where(u < 0.9, 1.0, -1.0)

            def to_record(self):
                return {"kind": "sample-only"}

        ds = Dataset.from_arrays([[0.0], [1.0]], [1, -1])
        inner = TreeModel(trajectory=[1.0])
        attach_node(inner, "", SampleOnly(), np.array([0.9, 0.2]), ds.weights.copy(), ds.labels)
        composite = collect_leaves(inner)
        with pytest.raises(NotImplementedError):
            composite.q_plus(ds.features[0])
        with pytest.raises(NotImplementedError):
            composite.outcomes(ds.features)
        # a walk draws from the inner classifier itself, so it still samples
        draws = _composite_draws(composite, ds.features[0], 4000, seed=3)
        assert np.mean(draws == 1) == pytest.approx(0.9, abs=0.03)

    def test_older_record_with_composite_q_loads(self, small_dataset):
        # files written before composites stopped storing q still load
        tree = build_fixed_2_matryoshka(
            small_dataset, builtin_constant_edge_oracle(0.3), 3, TrainConfig(exact_q=True)
        )
        record = tree.to_record()
        assert record["nodes"][""]["q_plus"] is None
        reach, scores = tree.nodes[""].classifier.leaf_table
        for node in record["nodes"].values():
            node["q_plus"] = reach[:, scores >= 0.0].sum(axis=1).tolist()
        old = TreeModel.from_record(record)
        assert all(node.q_plus is None for node in old.nodes.values())
        assert old.to_record() == tree.to_record()
        assert exact_tree_bound(old, small_dataset) == exact_tree_bound(tree, small_dataset)

    def test_record_holds_only_inner_nodes(self, small_dataset):
        fixed = build_fixed_2_matryoshka(small_dataset, builtin_noisy_stump(0.1), 3, TrainConfig(seed=1))
        greedy, _ = build_greedy_matryoshka(
            small_dataset, builtin_constant_edge_oracle(0.3), 12, config=TrainConfig(exact_q=True)
        )
        for tree in (fixed, greedy):
            records = list(_composite_records(tree.to_record()))
            assert records
            for record in records:
                assert sorted(record) == ["inner", "kind"]
                assert sorted(record["inner"]) == ["nodes"]

    def test_older_record_with_inner_metadata_loads(self, small_dataset):
        # files written before composites held only their inner nodes
        tree = build_fixed_2_matryoshka(small_dataset, builtin_noisy_stump(0.1), 3, TrainConfig(seed=1))
        record = tree.to_record()
        for composite in _composite_records(record):
            composite["inner"].update(kind="ptree", metadata={"seed": 5, "max_nodes": 2},
                                      trajectory=[1.0, 0.9, 0.8])
        old = TreeModel.from_record(record)
        assert old.to_record() == tree.to_record()
        assert exact_tree_bound(old, small_dataset) == exact_tree_bound(tree, small_dataset)

    @pytest.mark.parametrize("levels", [1, 2])
    @pytest.mark.parametrize("exact", [True, False])
    def test_z_sum_at_most_inner_c(self, small_dataset, levels, exact):
        # premise of the nesting bounds: attached at the weights its inner
        # tree was trained on, a composite's Z_+ + Z_- is at most inner C
        raw = np.random.default_rng(11).uniform(0.5, 1.5, small_dataset.n_examples)
        ds = Dataset.from_arrays(small_dataset.features, small_dataset.labels, raw)
        config = TrainConfig(seed=3, exact_q=exact)
        if levels == 1:
            inner = grow_tree(ds, builtin_constant_edge_oracle(0.2), max_nodes=5, config=config)
        else:  # an inner tree whose nodes are themselves composites
            inner = build_fixed_2_matryoshka(ds, builtin_constant_edge_oracle(0.2), 3, config)
        composite = collect_leaves(inner)
        outer = TreeModel(trajectory=[1.0])
        q = node_q(composite, ds, ds.weights, config, RandomStream(0), "tree-q-est-1")
        attach_node(outer, "", composite, q, ds.weights, ds.labels)
        node = outer.nodes[""]
        assert node.z_plus + node.z_minus <= inner.recorded_bound() + 1e-12
        assert outer.recorded_bound() == pytest.approx(exact_tree_bound(outer, ds), abs=1e-12)

    def test_walk_table_size_is_capped(self, small_dataset, monkeypatch):
        from probboost import ptree

        tree = build_fixed_2_matryoshka(
            small_dataset, builtin_constant_edge_oracle(0.3), 3, TrainConfig(exact_q=True)
        )
        reach, _ = walk_table(tree)
        monkeypatch.setattr(ptree, "MAX_WALK_ENTRIES", reach.size - 1)
        with pytest.raises(ValueError, match="walk table"):
            walk_table(tree)


class TestFixedTwoMatryoshka:
    def test_level_one_equals_plain_tree(self, small_dataset):
        cfg = TrainConfig(seed=4, exact_q=True)
        matry = build_fixed_2_matryoshka(
            small_dataset, builtin_constant_edge_oracle(0.3), 1, cfg
        )
        plain = grow_tree(
            small_dataset,
            builtin_constant_edge_oracle(0.3),
            max_nodes=2,
            config=cfg,
        )
        assert matry.recorded_bound() == pytest.approx(plain.recorded_bound(), abs=1e-12)
        assert sorted(matry.nodes) == sorted(plain.nodes)

    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_budget_is_two_to_the_L(self, small_dataset, L):
        learner = CountingLearner(builtin_constant_edge_oracle(0.3))
        build_fixed_2_matryoshka(small_dataset, learner, L, TrainConfig(exact_q=True))
        assert learner.calls == 2**L

    def test_recorded_bound_consistent(self, small_dataset):
        # L = 3 puts composites inside composites
        for L in (2, 3):
            tree = build_fixed_2_matryoshka(
                small_dataset, builtin_constant_edge_oracle(0.3), L, TrainConfig(exact_q=True)
            )
            assert tree.metadata["kind"] == "matryoshka"
            assert tree.metadata["levels"] == L
            assert tree.recorded_bound() == pytest.approx(tree.leaf_sum(), abs=1e-10)
            assert exact_tree_bound(tree, small_dataset) == pytest.approx(
                tree.leaf_sum(), abs=1e-10
            )

    def test_sampled_walks_score_the_recorded_bound(self, small_dataset):
        # predict_tree adds alpha_s * H_inner at composites, so the sampled
        # exponential loss per example matches the enumerated one
        tree = build_fixed_2_matryoshka(
            small_dataset, builtin_constant_edge_oracle(0.3), 3, TrainConfig(exact_q=True)
        )
        reach, scores = walk_table(tree)
        n = 3000
        for index in (0, 15):
            x, y = small_dataset.features[index], small_dataset.labels[index]
            sampled, _ = predict_tree(tree, x[None], RandomStream(2), "check", n)
            losses = np.exp(-y * sampled[:, 0])
            expected = float(np.sum(reach[index] * np.exp(-scores * y)))
            se = losses.std(ddof=1) / math.sqrt(n)
            assert losses.mean() == pytest.approx(expected, abs=4 * se)

    def test_saved_model_keeps_its_bound(self, small_dataset, tmp_path):
        tree = build_fixed_2_matryoshka(
            small_dataset, builtin_constant_edge_oracle(0.3), 3, TrainConfig(seed=2)
        )
        save_model(tree, tmp_path / "m.json")
        loaded = load_model(tmp_path / "m.json")
        assert exact_tree_bound(loaded, small_dataset) == pytest.approx(
            tree.recorded_bound(), abs=1e-10
        )

    @pytest.mark.parametrize("seed", [0, -1, 2**62])
    def test_units_sample_with_their_own_seeds(self, small_dataset, tmp_path, seed):
        # every raw classifier of the constant-edge oracle is the same, so
        # only the seed of its unit tells the sampled q of two units apart
        oracle = builtin_constant_edge_oracle(0.3)
        tree = build_fixed_2_matryoshka(small_dataset, oracle, 3, TrainConfig(seed=seed))
        units = [c.inner for c in _composites(tree) if not any(_composites(c.inner))]
        assert len(units) == 4
        stored = [tuple(node.q_plus) for unit in units for node in unit.nodes.values()]
        assert len(stored) == 8 and len(set(stored)) == 8
        save_model(tree, tmp_path / "a.json")
        save_model(build_fixed_2_matryoshka(small_dataset, oracle, 3, TrainConfig(seed=seed)),
                   tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_determinism(self, small_dataset):
        cfg = TrainConfig(seed=6, exact_q=True)
        a = build_fixed_2_matryoshka(small_dataset, builtin_constant_edge_oracle(0.25), 2, cfg)
        b = build_fixed_2_matryoshka(small_dataset, builtin_constant_edge_oracle(0.25), 2, cfg)
        assert a.to_record() == b.to_record()

    def test_invalid_level(self, small_dataset):
        with pytest.raises(ValueError):
            build_fixed_2_matryoshka(small_dataset, builtin_constant_edge_oracle(0.3), 0)

    def test_strategy_b_rejected(self, small_dataset):
        with pytest.raises(ValueError, match="strategy B"):
            build_fixed_2_matryoshka(small_dataset, builtin_noisy_stump(0.1), 2,
                                     TrainConfig(strategy="B"))


class TestGreedyRates:
    def test_flat_trajectory_favors_collection(self):
        # flat below 1: observed rate 0, analytic nesting rate negative
        assert rate_simple(0.6, 0.6) == 0.0
        assert rate_matryoshka(0.6, 4.0) < 0.0

    def test_flat_at_one_never_collects(self):
        assert rate_matryoshka(1.0, 4.0) == 0.0
        assert not rate_matryoshka(1.0, 4.0) < rate_simple(1.0, 1.0)


class TestGreedyMatryoshka:
    def test_first_node_never_collected(self, small_dataset):
        tree, log = build_greedy_matryoshka(
            small_dataset,
            builtin_constant_edge_oracle(0.3),
            1,
            config=TrainConfig(exact_q=True),
        )
        assert [e.action for e in log] == ["grow"]
        assert tree.n_nodes == 1

    def test_structure_and_log_consistency(self, small_dataset):
        budget = 10
        tree, log = build_greedy_matryoshka(
            small_dataset,
            builtin_constant_edge_oracle(0.3),
            budget,
            config=TrainConfig(exact_q=True, seed=2),
        )
        grows = [e for e in log if e.action == "grow"]
        collects = [e for e in log if e.action == "collect"]
        assert len(grows) == budget
        assert collects
        for e in collects:
            # collection must look favorable at the moment it happens
            assert e.rate_matryoshka < e.rate_simple
        for before, entry in zip(log, log[1:]):
            # a composite's Z is at most its inner C, so collecting never raises C
            if entry.action == "collect":
                assert before.action == "grow"
                assert entry.C <= before.C + 1e-12
        # structural sanity after any collections
        assert tree.leaf_sum() == pytest.approx(tree.recorded_bound(), abs=1e-10)
        for path in tree.nodes:
            assert path == "" or path[:-1] in tree.nodes

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            MatryoshkaPolicy(mode="other")

    def test_strategy_b_rejected(self, small_dataset):
        with pytest.raises(ValueError, match="strategy B"):
            build_greedy_matryoshka(small_dataset, builtin_noisy_stump(0.1), 4,
                                    config=TrainConfig(strategy="B"))

    def test_determinism(self, small_dataset):
        cfg = TrainConfig(exact_q=True, seed=1)
        a, _ = build_greedy_matryoshka(
            small_dataset, builtin_constant_edge_oracle(0.2), 6, config=cfg
        )
        b, _ = build_greedy_matryoshka(
            small_dataset, builtin_constant_edge_oracle(0.2), 6, config=cfg
        )
        assert a.to_record() == b.to_record()
