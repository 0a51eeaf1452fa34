"""Probabilistic decision trees: children weights, leaf values (walk
scores), greedy growth, and the leaf-sum loss identity."""

import math

import numpy as np
import pytest

from probboost import ptree
from probboost._zstats import optimal_alphas, w_statistics
from probboost.adaboost import TrainConfig
from probboost.bounds import bound_F
from probboost.core import Dataset, RandomStream
from probboost.matryoshka import build_greedy_matryoshka
from probboost.ptree import (
    DEAD_BRANCH_THRESHOLD,
    TreeModel,
    TreeNode,
    attach_node,
    children_weights,
    exact_tree_bound,
    grow_tree,
    predict_tree,
    select_growth_leaf,
    walk_table,
)
from probboost.weak_learner import (
    StumpClassifier,
    builtin_constant_edge_oracle,
    builtin_noisy_stump,
)


def _manual_node(alpha_plus, alpha_minus, z_plus=0.5, z_minus=0.5, n=2, q=0.5):
    return TreeNode(
        classifier=StumpClassifier(0, 0.0, 1, 0.5),
        q_plus=np.full(n, q),
        alpha_plus=alpha_plus,
        alpha_minus=alpha_minus,
        z_plus=z_plus,
        z_minus=z_minus,
        weights_plus=np.full(n, 1.0 / n),
        weights_minus=np.full(n, 1.0 / n),
    )


def _leaf_values(tree):
    """H_l of each leaf of a plain tree: its walk's score, walks in sorted
    leaf order ('+' sorts before '-', as walk_table expands)."""
    return dict(zip(sorted(tree.leaf_products()), walk_table(tree)[1].tolist()))


class TestLeafValue:
    def test_root(self):
        tree = TreeModel()
        assert _leaf_values(tree) == {"": 0.0}

    def test_signed_path(self):
        tree = TreeModel(
            nodes={
                "": _manual_node(0.1, 0.9),
                "+": _manual_node(0.2, 0.8),
                "++": _manual_node(0.3, 0.7),
            }
        )
        # path (+, +, -): 0.1 + 0.2 - 0.7
        assert _leaf_values(tree)["++-"] == pytest.approx(0.1 + 0.2 - 0.7)

    def test_depth_one_minus(self):
        tree = TreeModel(nodes={"": _manual_node(0.3, 0.7)})
        assert _leaf_values(tree)["-"] == pytest.approx(-0.7)

    def test_unknown_path(self):
        tree = TreeModel(nodes={"": _manual_node(0.1, 0.1)})
        assert set(_leaf_values(tree)) == {"+", "-"}  # no walk ends at "++-"

    @pytest.mark.parametrize("seed", range(10))
    def test_walk_scores_are_signed_alpha_sums(self, small_dataset, seed):
        # H_l = sum over the path's edges of sign * alpha_sign, bit for bit
        learner = builtin_noisy_stump(0.1) if seed % 2 else builtin_constant_edge_oracle(0.3)
        tree = grow_tree(small_dataset, learner, max_nodes=3 + seed,
                         config=TrainConfig(seed=seed, exact_q=seed < 5))
        for leaf, value in _leaf_values(tree).items():
            expected = 0.0
            for depth, edge in enumerate(leaf):
                sign = 1 if edge == "+" else -1
                expected += sign * tree.nodes[leaf[:depth]].alpha(sign)
            assert value == expected


class TestChildrenWeights:
    def test_crisp_partition(self):
        weights = np.array([0.25, 0.25, 0.25, 0.25])
        labels = np.array([1, 1, -1, -1])
        q = np.array([1.0, 0.0, 1.0, 0.0])
        d_plus, z_plus, d_minus, z_minus = children_weights(weights, q, labels, 0.2, 0.3)
        # every example lands entirely in one child
        assert np.all((d_plus == 0.0) | (d_minus == 0.0))
        assert np.all((d_plus > 0.0) | (d_minus > 0.0))

    def test_symmetric_half_split(self):
        weights = np.array([0.3, 0.7])
        labels = np.array([1, -1])
        q = np.array([0.5, 0.5])
        d_plus, z_plus, d_minus, z_minus = children_weights(weights, q, labels, 0.0, 0.0)
        np.testing.assert_allclose(d_plus, weights)
        np.testing.assert_allclose(d_minus, weights)
        assert z_plus == pytest.approx(0.5)
        assert z_minus == pytest.approx(0.5)

    def test_hand_values_plus_child(self):
        weights = np.array([0.5, 0.5])
        labels = np.array([1, -1])
        q = np.array([0.9, 0.2])
        d_plus, z_plus, _, _ = children_weights(weights, q, labels, 0.3, 0.123)
        m0 = 0.5 * 0.9 * math.exp(-0.3)
        m1 = 0.5 * 0.2 * math.exp(0.3)
        assert z_plus == pytest.approx(m0 + m1, rel=1e-14)
        assert z_plus == pytest.approx(0.4683540800643, abs=1e-10)
        np.testing.assert_allclose(d_plus, [m0 / (m0 + m1), m1 / (m0 + m1)], rtol=1e-14)
        assert d_plus[0] == pytest.approx(0.7117866876722, abs=1e-10)
        assert d_plus[1] == pytest.approx(0.2882133123278, abs=1e-10)

    def test_dead_branch_zeroed(self):
        weights = np.array([1.0])
        labels = np.array([1])
        q = np.array([0.0])  # no mass reaches the + child
        d_plus, z_plus, d_minus, _ = children_weights(weights, q, labels, 0.0, 0.0)
        assert z_plus == 0.0
        np.testing.assert_array_equal(d_plus, [0.0])
        np.testing.assert_allclose(d_minus, [1.0])

    def test_children_normalized(self):
        rng = np.random.default_rng(4)
        w = rng.random(8)
        w /= w.sum()
        labels = np.where(rng.random(8) < 0.5, 1, -1)
        q = rng.random(8)
        d_plus, _, d_minus, _ = children_weights(w, q, labels, 0.4, -0.1)
        assert d_plus.sum() == pytest.approx(1.0, abs=1e-12)
        assert d_minus.sum() == pytest.approx(1.0, abs=1e-12)


class TestNodeAlphas:
    def test_symmetric_sum_one(self):
        weights = np.array([0.5, 0.5])
        labels = np.array([1, -1])
        q = np.array([0.5, 0.5])
        a_plus, a_minus = optimal_alphas(w_statistics(weights, q, labels))
        assert a_plus == pytest.approx(0.0, abs=1e-7)
        _, z_plus, _, z_minus = children_weights(weights, q, labels, a_plus, a_minus)
        assert z_plus + z_minus == pytest.approx(1.0, abs=1e-7)

    @pytest.mark.parametrize("eps", [0.1, 0.25, 0.43])
    def test_constant_edge_z_sum_below_rho(self, small_dataset, eps):
        clf = builtin_constant_edge_oracle(eps).train(small_dataset, small_dataset.weights)
        q = np.array([clf.q_plus(x) for x in small_dataset.features])
        rng = np.random.default_rng(0)
        rho = math.sqrt(1.0 - 4.0 * eps * eps)
        for _ in range(5):
            w = rng.random(small_dataset.n_examples)
            w /= w.sum()
            a_plus, a_minus = optimal_alphas(w_statistics(w, q, small_dataset.labels))
            _, z_plus, _, z_minus = children_weights(
                w, q, small_dataset.labels, a_plus, a_minus
            )
            assert z_plus + z_minus <= rho + 1e-12


class TestSelectGrowthLeaf:
    def test_root_only(self):
        assert select_growth_leaf(TreeModel()) == ""

    def test_argmax(self):
        tree = TreeModel(nodes={"": _manual_node(0.1, 0.1, z_plus=0.3, z_minus=0.4)})
        assert select_growth_leaf(tree) == "-"

    def test_tie_prefers_plus(self):
        tree = TreeModel(nodes={"": _manual_node(0.1, 0.1, z_plus=0.4, z_minus=0.4)})
        assert select_growth_leaf(tree) == "+"
        # equal products at depths 1 and 2: the shorter path wins
        tree = TreeModel(
            nodes={
                "": _manual_node(0.1, 0.1, z_plus=0.5, z_minus=0.25),
                "+": _manual_node(0.1, 0.1, z_plus=0.5, z_minus=0.5),
            }
        )
        assert tree.leaf_products() == {"-": 0.25, "++": 0.25, "+-": 0.25}
        assert select_growth_leaf(tree) == "-"

    def test_dead_leaf_never_selected(self):
        # '+' is dead (its Z is below the threshold) yet has the largest product
        tree = TreeModel(
            nodes={
                "": _manual_node(0.1, 0.1, z_plus=1e-301, z_minus=1e-160),
                "-": _manual_node(0.1, 0.1, z_plus=1e-160, z_minus=1e-161),
            }
        )
        products = tree.leaf_products()
        assert max(products, key=products.get) == "+"
        assert select_growth_leaf(tree) == "-+"
        tree.nodes["-"].z_plus = tree.nodes["-"].z_minus = 0.0
        with pytest.raises(ValueError, match="dead"):
            select_growth_leaf(tree)

    def test_pigeonhole(self, small_dataset):
        tree = grow_tree(
            small_dataset,
            builtin_constant_edge_oracle(0.2),
            max_nodes=10,
            config=TrainConfig(exact_q=True),
        )
        leaf = select_growth_leaf(tree)
        c = tree.leaf_sum()
        assert tree.leaf_product(leaf) >= c / (tree.n_nodes + 1) - 1e-12


class TestGrowTree:
    def test_one_leaf_product_per_step(self, small_dataset, monkeypatch):
        calls = []
        leaf_product = TreeModel.leaf_product

        def counted(tree, leaf):
            calls.append(leaf)
            return leaf_product(tree, leaf)

        monkeypatch.setattr(TreeModel, "leaf_product", counted)
        grow_tree(
            small_dataset,
            builtin_constant_edge_oracle(0.3),
            max_nodes=64,
            config=TrainConfig(exact_q=True),
        )
        assert len(calls) == 64

    def test_single_node_bound(self, small_dataset):
        eps = 0.3
        tree = grow_tree(
            small_dataset,
            builtin_constant_edge_oracle(eps),
            max_nodes=1,
            config=TrainConfig(exact_q=True),
        )
        rho = math.sqrt(1.0 - 4.0 * eps * eps)
        assert tree.recorded_bound() <= rho + 1e-12
        assert len(tree.trajectory) == 2
        assert tree.trajectory[0] == 1.0

    @pytest.mark.parametrize("rho", [0.25, 0.5, 0.75, 31 / 32])
    def test_trajectory_below_F(self, small_dataset, rho):
        eps = 0.5 * math.sqrt(1.0 - rho * rho)
        tree = grow_tree(
            small_dataset,
            builtin_constant_edge_oracle(eps),
            max_nodes=16,
            config=TrainConfig(exact_q=True),
        )
        for T, c in enumerate(tree.trajectory):
            if T == 0:
                assert c == 1.0
            else:
                assert c <= bound_F(T, rho) + 1e-9

    def test_growth_recursion_bookkeeping(self, small_dataset):
        events = []
        tree = grow_tree(
            small_dataset,
            builtin_constant_edge_oracle(0.3),
            max_nodes=8,
            config=TrainConfig(exact_q=True),
            on_grow=lambda t, leaf: events.append(leaf),
        )
        assert len(events) == 8
        # the one-pass products are the per-leaf products, bit for bit
        products = tree.leaf_products()
        assert products == {leaf: tree.leaf_product(leaf) for leaf in products}
        # C recomputed from scratch must match the incremental trajectory
        assert tree.leaf_sum() == pytest.approx(tree.trajectory[-1], abs=1e-12)
        for T in range(1, len(tree.trajectory)):
            assert tree.trajectory[T] <= tree.trajectory[T - 1] + 1e-12

    def test_perfect_split_flattens_bound(self, tiny_dataset):
        tree = grow_tree(
            tiny_dataset,
            builtin_noisy_stump(0.0),
            max_nodes=1,
            config=TrainConfig(exact_q=True),
        )
        assert tree.recorded_bound() < 1e-3

    def test_target_bound_stop(self, small_dataset):
        tree = grow_tree(
            small_dataset,
            builtin_constant_edge_oracle(0.3),
            target_bound=0.5,
            config=TrainConfig(exact_q=True),
        )
        assert tree.recorded_bound() <= 0.5
        assert tree.trajectory[-2] > 0.5

    def test_requires_stop_criterion(self, small_dataset):
        with pytest.raises(ValueError):
            grow_tree(small_dataset, builtin_constant_edge_oracle(0.3))
        with pytest.raises(ValueError, match="max_nodes must be >= 1"):
            grow_tree(small_dataset, builtin_constant_edge_oracle(0.3), max_nodes=0)

    def test_strategy_b_rejected(self, small_dataset):
        # tree nodes sample q with strategy A; B used to be ignored silently
        with pytest.raises(ValueError, match="strategy B"):
            grow_tree(small_dataset, builtin_noisy_stump(0.1), max_nodes=2,
                      config=TrainConfig(strategy="B"))

    def test_learner_failure_reports_node(self, small_dataset):
        class FailsAt:
            def __init__(self, call, exc):
                self.call, self.exc, self.calls = call, exc, 0

            def train(self, dataset, weights):
                self.calls += 1
                if self.calls == self.call:
                    raise self.exc
                return builtin_constant_edge_oracle(0.3).train(dataset, weights)

        with pytest.raises(RuntimeError, match=r"node '' \(step 1\)"):
            grow_tree(small_dataset, FailsAt(1, KeyError("nope")), max_nodes=3)
        with pytest.raises(RuntimeError, match=r"node '[+-]' \(step 2\)"):
            grow_tree(small_dataset, FailsAt(2, KeyError("nope")), max_nodes=3)
        # bad input is the caller's to report, not the learner's failure
        with pytest.raises(ValueError, match="^nope$"):
            grow_tree(small_dataset, FailsAt(2, ValueError("nope")), max_nodes=3)

    def test_determinism(self, small_dataset):
        cfg = TrainConfig(seed=13)
        a = grow_tree(small_dataset, builtin_noisy_stump(0.1), max_nodes=5, config=cfg)
        b = grow_tree(small_dataset, builtin_noisy_stump(0.1), max_nodes=5, config=cfg)
        assert a.to_record() == b.to_record()


class TestGrowthFrontier:
    """grow_tree keeps a heap of live leaves instead of walking the tree at
    every step; at every step it must grow the leaf a full walk picks."""

    @staticmethod
    def _picks(monkeypatch):
        """(grown leaf, leaf select_growth_leaf picks) for every growth step."""
        picks, ties = [], []
        attach = ptree.attach_node

        def checked(tree, leaf, *args):
            products = sorted(tree.leaf_products().values())
            ties.append(len(products) > 1 and products[-1] == products[-2])
            picks.append((leaf, select_growth_leaf(tree)))
            return attach(tree, leaf, *args)

        monkeypatch.setattr(ptree, "attach_node", checked)
        return picks, ties

    def test_exact_ties(self, small_dataset, monkeypatch):
        picks, ties = self._picks(monkeypatch)
        grow_tree(small_dataset, builtin_constant_edge_oracle(0.3), max_nodes=64,
                  config=TrainConfig(exact_q=True))
        assert len(picks) == 64 and sum(ties) > 10  # constant-edge Z products tie exactly
        assert all(grown == picked for grown, picked in picks)

    def test_dead_leaves(self, tiny_dataset, monkeypatch):
        picks, _ = self._picks(monkeypatch)
        tree = grow_tree(tiny_dataset, builtin_noisy_stump(0.0), max_nodes=16,
                         config=TrainConfig(exact_q=True))
        dead = [z for node in tree.nodes.values() for z in (node.z_plus, node.z_minus)
                if z < DEAD_BRANCH_THRESHOLD]
        assert len(picks) == 16 and dead
        assert all(grown == picked for grown, picked in picks)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sampled_q(self, small_dataset, monkeypatch, seed):
        picks, _ = self._picks(monkeypatch)
        grow_tree(small_dataset, builtin_noisy_stump(0.1), max_nodes=24,
                  config=TrainConfig(seed=seed))
        assert len(picks) == 24
        assert all(grown == picked for grown, picked in picks)

    def test_greedy_collects(self, small_dataset, monkeypatch):
        picks, _ = self._picks(monkeypatch)
        _, log = build_greedy_matryoshka(small_dataset, builtin_constant_edge_oracle(0.3), 16,
                                         config=TrainConfig(exact_q=True))
        assert sum(entry.action == "collect" for entry in log) >= 3
        assert len(picks) == 16
        assert all(grown == picked for grown, picked in picks)

    def test_plain_growth_walks_no_tree(self, small_dataset, monkeypatch):
        calls = []
        leaf_products = TreeModel.leaf_products

        def counted(tree, root=""):
            calls.append(root)
            return leaf_products(tree, root)

        monkeypatch.setattr(TreeModel, "leaf_products", counted)
        grow_tree(small_dataset, builtin_constant_edge_oracle(0.3), max_nodes=64,
                  config=TrainConfig(exact_q=True))
        assert calls == []


class TestExactTreeBound:
    def test_root_only(self, tiny_dataset):
        assert exact_tree_bound(TreeModel(), tiny_dataset) == pytest.approx(1.0)

    def test_single_split_equals_z_sum(self):
        ds = Dataset.from_arrays([[0.0], [1.0]], [1, -1])
        weights = ds.weights.copy()
        q = np.array([0.9, 0.2])
        a_plus, a_minus = optimal_alphas(w_statistics(weights, q, ds.labels))
        tree = TreeModel(trajectory=[1.0])
        attach_node(tree, "", StumpClassifier(0, 0.5, 1, 0.1), q, weights, ds.labels)
        node = tree.nodes[""]
        # but evaluate with the q actually stored in the tree
        assert exact_tree_bound(tree, ds) == pytest.approx(
            node.z_plus + node.z_minus, abs=1e-12
        )

    @pytest.mark.parametrize("seed,exact", [(0, True), (1, False), (2, True)])
    def test_leaf_sum_identity(self, small_dataset, seed, exact):
        tree = grow_tree(
            small_dataset,
            builtin_constant_edge_oracle(0.25),
            max_nodes=7,
            config=TrainConfig(seed=seed, exact_q=exact),
        )
        assert exact_tree_bound(tree, small_dataset) == pytest.approx(
            tree.leaf_sum(), abs=1e-10
        )
        assert tree.leaf_sum() == pytest.approx(tree.recorded_bound(), abs=1e-10)

    def test_leaf_sum_identity_stumps(self, small_dataset):
        tree = grow_tree(
            small_dataset,
            builtin_noisy_stump(0.2),
            max_nodes=6,
            config=TrainConfig(seed=3),
        )
        assert exact_tree_bound(tree, small_dataset) == pytest.approx(
            tree.leaf_sum(), abs=1e-10
        )

    def test_reach_probabilities_sum_to_one(self, small_dataset):
        tree = grow_tree(
            small_dataset,
            builtin_constant_edge_oracle(0.2),
            max_nodes=9,
            config=TrainConfig(exact_q=True),
        )
        for x in small_dataset.features[:5]:
            total = 0.0
            for leaf in tree.leaf_products():
                reach = 1.0
                for depth in range(1, len(leaf) + 1):
                    node = tree.nodes[leaf[: depth - 1]]
                    q = node.classifier.q_plus(x)
                    reach *= q if leaf[depth - 1] == "+" else 1.0 - q
                total += reach
            assert total == pytest.approx(1.0, abs=1e-12)


class TestPredictTree:
    def test_root_only(self):
        tree = TreeModel()
        scores, leaves = predict_tree(tree, np.zeros((3, 1)), RandomStream(0), "p", 2)
        assert scores.tolist() == [[0.0] * 3] * 2
        assert leaves.tolist() == [[""] * 3] * 2

    def test_deterministic_nodes_follow_fixed_path(self, tiny_dataset):
        tree = grow_tree(
            tiny_dataset,
            builtin_noisy_stump(0.0),
            max_nodes=2,
            config=TrainConfig(exact_q=True),
        )
        scores, leaves = predict_tree(tree, tiny_dataset.features, RandomStream(1), "p", 20)
        for n in range(tiny_dataset.n_examples):
            assert len(set(leaves[:, n])) == 1 and len(set(scores[:, n])) == 1
            assert scores[0, n] == pytest.approx(_leaf_values(tree)[leaves[0, n]])

    def test_leaf_frequencies_match_reach_probabilities(self, small_dataset):
        tree = grow_tree(
            small_dataset,
            builtin_constant_edge_oracle(0.3),
            max_nodes=3,
            config=TrainConfig(exact_q=True),
        )
        x = small_dataset.features[0]
        n = 20_000
        _, leaves = predict_tree(tree, x[None], RandomStream(8), "p", n)
        counts: dict[str, int] = {}
        for path in leaves[:, 0]:
            counts[path] = counts.get(path, 0) + 1
        for leaf in tree.leaf_products():
            reach = 1.0
            for depth in range(1, len(leaf) + 1):
                node = tree.nodes[leaf[: depth - 1]]
                q = node.classifier.q_plus(x)
                reach *= q if leaf[depth - 1] == "+" else 1.0 - q
            freq = counts.get(leaf, 0) / n
            se = math.sqrt(max(reach * (1.0 - reach), 1e-12) / n)
            assert freq == pytest.approx(reach, abs=max(4 * se, 1e-3))

    def test_dimension_mismatch(self, small_dataset):
        tree = grow_tree(
            small_dataset,
            builtin_constant_edge_oracle(0.3),
            max_nodes=1,
            config=TrainConfig(exact_q=True),
        )
        with pytest.raises(ValueError):
            predict_tree(tree, np.array([[1.0, 2.0, 3.0]]), RandomStream(0), "p", 1)

    def test_walks_are_keyed_by_row_and_trial(self, small_dataset):
        # each walk's draws are keyed by (row, trial, draw index), so the
        # same stream gives the same walks, and fewer trials the first ones
        tree = grow_tree(
            small_dataset,
            builtin_noisy_stump(0.2),
            max_nodes=7,
            config=TrainConfig(exact_q=True),
        )
        X = small_dataset.features
        scores, leaves = predict_tree(tree, X, RandomStream(4), "p", 30)
        again, _ = predict_tree(tree, X, RandomStream(4), "p", 30)
        np.testing.assert_array_equal(scores, again)
        first, first_leaves = predict_tree(tree, X, RandomStream(4), "p", 10)
        np.testing.assert_array_equal(first, scores[:10])
        np.testing.assert_array_equal(first_leaves, leaves[:10])
        other, _ = predict_tree(tree, X, RandomStream(4), "other", 30)
        assert not np.array_equal(other, scores)


class TestTreeSerialization:
    def test_round_trip(self, small_dataset):
        tree = grow_tree(
            small_dataset,
            builtin_noisy_stump(0.1),
            max_nodes=4,
            config=TrainConfig(seed=2),
        )
        record = tree.to_record()
        clone = TreeModel.from_record(record)
        assert clone.to_record() == record
        assert list(clone.leaf_products()) == list(tree.leaf_products())
        assert clone.recorded_bound() == tree.recorded_bound()
        # a node record holds no training weights
        for node in record["nodes"].values():
            assert set(node) == {
                "classifier", "q_plus", "alpha_plus", "alpha_minus", "z_plus", "z_minus"
            }
        # records that still carry training weights load and give the same bounds
        n = small_dataset.n_examples
        old = tree.to_record()
        for node in old["nodes"].values():
            for key in ("weights", "weights_plus", "weights_minus"):
                node[key] = [1.0 / n] * n
        old_clone = TreeModel.from_record(old)
        assert old_clone.recorded_bound() == clone.recorded_bound()
        assert exact_tree_bound(old_clone, small_dataset) == exact_tree_bound(clone, small_dataset)

    def test_prefix_closure_enforced(self, small_dataset):
        tree = grow_tree(
            small_dataset,
            builtin_noisy_stump(0.1),
            max_nodes=3,
            config=TrainConfig(seed=2),
        )
        record = tree.to_record()
        record["nodes"] = {"++": next(iter(record["nodes"].values()))}
        with pytest.raises(ValueError, match="parent"):
            TreeModel.from_record(record)
