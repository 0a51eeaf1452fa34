"""Probabilistic decision trees: children weights, leaf values (walk
scores), greedy growth, and the leaf-sum loss identity."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probboost import _zstats, core, ptree
from probboost._zstats import ClassTable, LabelSplit, WStats, optimal_alphas, w_statistics
from probboost.adaboost import TrainConfig
from probboost.bounds import bound_F
from probboost.core import MAX_BLOCK_DRAWS, Dataset, RandomStream, make_synthetic_dataset
from probboost.matryoshka import build_fixed_2_matryoshka, build_greedy_matryoshka
from probboost.persist import load_model, model_from_record, save_model
from probboost.ptree import (
    DEAD_BRANCH_THRESHOLD,
    CompositeNode,
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
    _plain_outcomes,
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


def _edge_factor(reach, scores, y, sign, alpha):
    """The class factor of one edge on a table whose every row is its own class."""
    side = ptree._side(scores, sign)
    return ClassTable(reach, scores, np.arange(len(reach))).factor(side, ptree._exp_table(alpha, scores[side]), y < 0.0)


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


def _reference_w(weights, q, labels):
    """W of one row of q, one 1-D sum per cell."""
    pos, neg = labels == 1, labels != 1
    w_pos, w_neg, q_pos, q_neg = weights[pos], weights[neg], q[pos], q[neg]
    return WStats(
        pp=float((w_pos * q_pos).sum()),
        pm=float((w_neg * q_neg).sum()),
        mp=float((w_pos * (1.0 - q_pos)).sum()),
        mm=float((w_neg * (1.0 - q_neg)).sum()),
    )


def _reference_children(weights, q, labels, a_plus, a_minus):
    """(D+, Z+, D-, Z-) of one row of q, one 1-D product and sum per child."""
    y = labels.astype(float)
    children = []
    for mass in (weights * q * np.exp(-a_plus * y), weights * (1.0 - q) * np.exp(a_minus * y)):
        z = float(mass.sum())
        children += [mass / z if z >= DEAD_BRANCH_THRESHOLD else np.zeros(len(q)), z]
    return tuple(children)


@st.composite
def _node_cases(draw, max_n=40):
    """(weights, q of shape (N,) or (R, N), labels), with zero weights, q of
    exactly 0 or 1, single-class labels and dead branches among them."""
    n = draw(st.integers(1, max_n))
    label = st.sampled_from([-1, 1])
    labels = np.array(draw(st.one_of(
        st.lists(label, min_size=n, max_size=n), label.map(lambda value: [value] * n))))
    weights = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n)))
    weights[draw(st.lists(st.integers(0, n - 1), max_size=3))] = 0.0
    if weights.sum() > 0.0 and draw(st.booleans()):
        weights = weights / weights.sum()
    q_value = st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0])
    rows = draw(st.sampled_from([None, 1, 3]))
    q = np.array(draw(st.lists(st.lists(q_value, min_size=n, max_size=n), min_size=rows or 1, max_size=rows or 1)))
    dead = draw(st.sampled_from([None, None, 0.0, 1.0]))  # every draw on one edge: the other is dead
    if dead is not None:
        q[:] = dead
    return weights, q if rows else q[0], labels


class TestPlainNodeKernel:
    """A plain node's W, alphas, Z and child weights from one mass array
    equal the 1-D formulas, bit for bit."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_node_cases())
    def test_matches_one_dimensional_formulas(self, case):
        weights, q, labels = case
        rows = np.atleast_2d(q)
        expected = [_reference_w(weights, row, labels) for row in rows]
        w = w_statistics(weights, q, labels)
        assert ([w] if q.ndim == 1 else [WStats(*cells) for cells in zip(*w)]) == expected
        for row, w_row in zip(rows, expected):
            alphas = optimal_alphas(w_row)
            d_plus, z_plus, d_minus, z_minus = _reference_children(weights, row, labels, *alphas)
            node = self._root(weights, row, labels)
            assert (node.alpha_plus, node.alpha_minus) == alphas
            for got in (children_weights(weights, row, labels, *alphas),
                        (node.weights_plus, node.z_plus, node.weights_minus, node.z_minus)):
                assert (got[1], got[3]) == (z_plus, z_minus)
                assert (got[0].tobytes(), got[2].tobytes()) == (d_plus.tobytes(), d_minus.tobytes())

    @staticmethod
    def _root(weights, q, labels):
        """The root node a plain classifier with this q gets from attach_node."""
        tree = TreeModel(trajectory=[1.0])
        attach_node(tree, "", StumpClassifier(0, 0.0, 1, 0.5), q, weights, labels, 1.0)
        return tree.nodes[""]

    @pytest.mark.parametrize("bad", [1.5, -0.1, 1.0 + 2.0**-52, -np.inf])
    def test_q_outside_unit_interval_raises(self, bad):
        weights, labels = np.full(3, 1.0 / 3), np.array([1, -1, 1])
        q = np.array([0.5, bad, 0.5])
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            w_statistics(weights, q, labels)
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            w_statistics(weights, np.array([[0.5, 0.5, 0.5], q]), labels)
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            self._root(weights, q, labels)


def _parent_mass(weights, q):
    """[w q, w (1 - q)] as the kernel's predecessor built it, q checked in [0, 1]."""
    q = np.asarray(q, dtype=float)
    mass = np.array((q, 1.0 - q))
    if mass.min(initial=0.0) < 0.0:
        raise ValueError("q estimates must lie in [0, 1]")
    mass *= weights
    return mass


def _parent_w(mass, labels):
    """W of a mass from a compress copy of each label's columns."""
    pos = labels == 1
    pp, mp = mass.compress(pos, axis=-1).sum(axis=-1).tolist()
    pm, mm = mass.compress(~pos, axis=-1).sum(axis=-1).tolist()
    return WStats(pp, pm, mp, mm)


def _parent_split(mass, labels, a_plus, a_minus):
    """(D+, Z+, D-, Z-) of a (2, N) mass scaled in place by its exp table."""
    mass *= np.exp(np.multiply.outer((-a_plus, a_minus), np.asarray(labels, dtype=float)))
    z_plus, z_minus = mass.sum(axis=1).tolist()
    d_plus = mass[0] / z_plus if z_plus >= DEAD_BRANCH_THRESHOLD else np.zeros(mass.shape[1])
    d_minus = mass[1] / z_minus if z_minus >= DEAD_BRANCH_THRESHOLD else np.zeros(mass.shape[1])
    return d_plus, z_plus, d_minus, z_minus


def _bytes(values):
    """The bytes of a sequence of floats, lists of floats and arrays, in order."""
    return b"".join(np.asarray(value, dtype=float).tobytes() for value in values)


class TestFusedPlainKernel:
    """The plain-node kernel on labels prepared once per dataset (one take by
    the positive-first order for W) equals, byte for byte, the composition it
    replaced: W from compress copies, the optimal alphas, then the mass scaled
    by the exp table."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(_node_cases(max_n=64))
    def test_equals_compress_composition(self, case):
        weights, q, labels = case
        split = LabelSplit.of(labels)
        expected_w = _parent_w(_parent_mass(weights, q), labels)
        for given_labels in (labels, split):
            assert _bytes(w_statistics(weights, q, given_labels)) == _bytes(expected_w)
        for row in np.atleast_2d(q):
            mass = _parent_mass(weights, row)
            alphas = optimal_alphas(_parent_w(mass, labels))
            expected = _bytes((*alphas, *_parent_split(mass, labels, *alphas)))
            node = TestPlainNodeKernel._root(weights, row, split)
            assert _bytes(ptree._plain_children(weights, row, split)) == expected
            assert _bytes((node.alpha_plus, node.alpha_minus, node.weights_plus, node.z_plus,
                           node.weights_minus, node.z_minus)) == expected
            assert _bytes((*alphas, *children_weights(weights, row, labels, *alphas))) == expected

    @pytest.mark.parametrize("bad", [1.5, -0.1, 1.0 + 2.0**-52, -np.inf])
    def test_q_outside_unit_interval_raises(self, bad):
        weights, split = np.full(3, 1.0 / 3), LabelSplit.of(np.array([1, -1, 1]))
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            ptree._plain_children(weights, np.array([0.5, bad, 0.5]), split)

    def test_dataset_prepares_its_labels_once(self):
        data = Dataset.from_arrays(np.zeros((6, 1)), [-1, 1, 1, -1, 1, -1])
        split = data.label_split
        assert split is data.label_split
        assert split.order.tolist() == [1, 2, 4, 0, 3, 5] and split.n_pos == 3
        assert split.y.tobytes() == data.labels.astype(float).tobytes()
        assert LabelSplit.of(split) is split
        # a fixed-2 unit's dataset: the same examples under other weights
        weights = np.arange(1.0, 7.0) / 21.0
        unit = data.reweighted(weights)
        assert unit.label_split is split and unit.weights.tobytes() == weights.tobytes()
        with pytest.raises(ValueError, match="sum to 1"):
            data.reweighted(np.ones(6))


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
        # each step's prefix product comes off the growth heap, so plain
        # growth asks the tree for none
        assert calls == []

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
        attach_node(tree, "", StumpClassifier(0, 0.5, 1, 0.1), q, weights, ds.labels, 1.0)
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


class TestRecordedBoundCancellation:
    """Noiseless stumps drive C far below 1, where the incremental update
    prefix * (Z+ + Z- - 1) cancels: the recorded C is restated as the leaf
    sum, so that it stays finite, positive and exact (ROADMAP item 7,
    cause 1).  Before, fixed-2 L=2 on the seed-1 data recorded -1.39e-17
    against a leaf sum of 9.95e-49."""

    @pytest.mark.parametrize("data_seed", [1, 11])
    @pytest.mark.parametrize("builder, size", [
        ("ptree", 12), ("ptree", 64), ("ptree", 128), ("fixed2", 2), ("greedy", 16), ("greedy", 28)])
    def test_noiseless_bound_is_the_leaf_sum(self, builder, size, data_seed):
        data = make_synthetic_dataset(40, seed=data_seed)  # seed 11 is tests/data/stump_data.csv
        learner, config = builtin_noisy_stump(0.0), TrainConfig(seed=data_seed, exact_q=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no exp overflow (item 7's cause 2) at these sizes
            if builder == "ptree":
                tree = grow_tree(data, learner, max_nodes=size, config=config)
            elif builder == "fixed2":
                tree = build_fixed_2_matryoshka(data, learner, size, config)
            else:
                tree, _ = build_greedy_matryoshka(data, learner, size, config=config)
            exact = exact_tree_bound(tree, data)
        recorded = tree.recorded_bound()
        assert math.isfinite(recorded) and recorded > 0.0
        for reference in (tree.leaf_sum(), exact):  # relative: the bounds reach 1e-129
            assert abs(recorded - reference) <= 1e-9 * reference

    def test_accurate_updates_are_kept(self, small_dataset):
        # a noisy tree's C stays near 1, so every step keeps the incremental update
        tree = grow_tree(small_dataset, builtin_noisy_stump(0.1), max_nodes=32,
                         config=TrainConfig(exact_q=True))
        c = [1.0]
        for path, node in tree.nodes.items():
            c.append(c[-1] + tree.leaf_product(path) * (node.z_plus + node.z_minus - 1.0))
        assert tree.trajectory == c
        assert 0.0 < tree.c_error <= 1e-12 * tree.recorded_bound()


@st.composite
def _composite_cases(draw):
    """(weights, labels, reach, scores) of a composite with K walks, 2K from
    2 to past 2 * MAX_BLOCK_DRAWS, so that both short and long sides are
    fitted.  Zero masses, scores tied at 0.0, an empty side and an absent
    label class are among them."""
    k = draw(st.one_of(st.integers(1, 8), st.integers(9, 700), st.integers(1300, 2100),
                       st.integers(2040, MAX_BLOCK_DRAWS + 100)))
    n = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scores = rng.normal(0.0, draw(st.sampled_from([0.05, 1.0, 4.0, 20.0])), k)
    scores[rng.random(k) < draw(st.sampled_from([0.0, 0.0, 0.2]))] = 0.0  # ties go to +
    empty = draw(st.sampled_from([None, None, "+", "-"]))
    if empty == "-":
        scores = np.abs(scores)
    elif empty == "+":
        scores = -np.abs(scores) - 0.1
    y = rng.choice([-1.0, 1.0], n) if draw(st.booleans()) else np.full(n, draw(st.sampled_from([-1.0, 1.0])))
    reach = rng.dirichlet(np.ones(k), n)
    reach[:, rng.random(k) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    weights = rng.dirichlet(np.ones(n))
    weights[rng.random(n) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    return weights, y, reach, scores


class TestCompositeEdgeFit:
    @staticmethod
    def _case(seed):
        rng = np.random.default_rng(seed)
        n, k = 12, 1 + seed * 3
        y = rng.choice([-1.0, 1.0], n)
        h = rng.normal(0.0, 2.0, k)
        reach = rng.dirichlet(np.ones(k), n)
        return y, h, reach, rng.uniform(0.0, 1.0, n)

    @staticmethod
    def _label_sums(weights, y, reach):
        """(M+, M-) of every outcome, each sum taken by a loop over the examples."""
        sums = {label: [0.0] * reach.shape[1] for label in (1.0, -1.0)}
        for n in range(len(y)):
            for k in range(reach.shape[1]):
                sums[y[n]][k] += weights[n] * reach[n, k]
        return np.array(sums[1.0] + sums[-1.0])

    @staticmethod
    def _rounding_only(slope, step, z):
        """The fit's stop rule: a Newton step predicts a decrease of at most
        ``FIT_STOP_ULPS`` ulp of a finite Z."""
        return math.isfinite(z) and 0.5 * -slope * step <= ptree.FIT_STOP_ULPS * ptree._EPS * z

    @classmethod
    def _one_trial_at_a_time(cls, mass, h, stop=True):
        """The line search with one exp pass per trial, every Newton step's
        Z, slope and curvature recomputed; ``stop=False`` is the full search,
        without the stop rule."""
        margins = np.concatenate((h, -h))  # y * h for y = +1, then y = -1

        def z_at(a):
            return float(np.sum(mass * np.exp(-a * margins)))

        alpha, z = 1.0, z_at(1.0)
        for _ in range(ptree.SCALE_SEARCH_STEPS):
            terms = np.exp(-alpha * margins)
            slope = -float(np.sum(mass * margins * terms))
            curvature = float(np.sum(mass * margins * margins * terms))
            if not curvature > 0.0:
                break
            step = -slope / curvature
            if stop and cls._rounding_only(slope, step, z):
                break
            while abs(step) > 1e-12 * max(1.0, abs(alpha)):
                z_next = z_at(alpha + step)
                if z_next < z:
                    alpha, z = alpha + step, z_next
                    break
                step *= 0.5
            else:
                break
        return alpha

    @classmethod
    def _outer_fit(cls, mass, margins):
        """The edge fit written with one exp per (example, outcome) and
        every Newton step's terms recomputed."""
        alpha, z = 1.0, float(np.sum(mass * np.exp(-margins)))
        for _ in range(ptree.SCALE_SEARCH_STEPS):
            terms = mass * np.exp(-alpha * margins)
            slope, curvature = -float(np.sum(terms * margins)), float(np.sum(terms * margins * margins))
            if not curvature > 0.0:
                break
            step = -slope / curvature
            if cls._rounding_only(slope, step, z):
                break
            while abs(step) > 1e-12 * max(1.0, abs(alpha)):
                z_next = float(np.sum(mass * np.exp(-(alpha + step) * margins)))
                if z_next < z:
                    alpha, z = alpha + step, z_next
                    break
                step *= 0.5
            else:
                break
        return alpha

    @pytest.mark.parametrize("seed", range(6))
    def test_fit_is_the_label_sum_form(self, seed):
        # labels are +/-1, so per-outcome label sums give Z of every
        # (example, outcome) pair; the fit matches its naive form bit for bit
        y, h, reach, weights = self._case(seed)
        mass = self._label_sums(weights, y, reach)
        # the row-order label sums are the loop's, bit for bit, one column (K = 1) included
        table = ClassTable(reach, h, np.arange(len(y)))
        np.testing.assert_array_equal(table.label_sums(weights, y > 0.0).ravel(), mass)
        assert ptree._fit_edge(mass, h)[0] == self._one_trial_at_a_time(mass, h)

    @pytest.mark.parametrize("seed", range(6))
    def test_exp_table_is_the_outer_product_form(self, seed):
        # the O(N K) form sums in another order: alpha and Z agree to
        # rounding, and the edge factor is the outer-product form bit for bit
        y, h, reach, weights = self._case(seed)
        table = ptree._exp_table(0.7, h)
        by_label = np.where(y[:, None] > 0.0, table[: len(h)], table[len(h) :])
        np.testing.assert_array_equal(by_label, np.exp(-0.7 * np.outer(y, h)))
        class_table = ClassTable(reach, h, np.arange(len(y)))
        a_plus, a_minus, _, z_plus, _, z_minus = ptree._scored_children(weights, y, class_table)
        for sign, alpha, z in ((1, a_plus, z_plus), (-1, a_minus, z_minus)):
            side = ptree._side(h, sign)
            margins = np.outer(y, h[side])
            outer = self._outer_fit(weights[:, None] * reach[:, side], margins)
            assert alpha == pytest.approx(outer, rel=1e-6)

            def z_at(a):
                return float(np.sum(weights[:, None] * reach[:, side] * np.exp(-a * margins)))

            assert z == pytest.approx(z_at(outer), rel=1e-12)
            assert z <= float(np.sum(weights * _edge_factor(reach, h, y, sign, 1.0)))
            expected = np.sum(reach[:, side] * np.exp(-alpha * np.outer(y, h[side])), axis=1)
            np.testing.assert_array_equal(_edge_factor(reach, h, y, sign, alpha), expected)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(_composite_cases())
    def test_edge_fit_is_the_one_trial_at_a_time_search(self, case):
        # the fit keeps the terms of the trial it takes for the next Newton
        # step; it takes the alpha of a search that recomputes them, and the
        # terms it returns are the edge's exp table
        weights, y, reach, scores = case
        original, tables = ClassTable.factor, []

        def factor(table, side, exps, negative):
            tables.append(exps)
            return original(table, side, exps, negative)

        # with one label class absent Z falls without bound and the fit runs
        # into exp overflow
        with np.errstate(over="ignore", invalid="ignore"), pytest.MonkeyPatch.context() as patch:
            patch.setattr(ClassTable, "factor", factor)
            table = ClassTable(reach, scores, np.arange(len(y)))
            a_plus, a_minus, *_ = ptree._scored_children(weights, y, table)
            for sign, alpha, exps in ((1, a_plus, tables[0]), (-1, a_minus, tables[1])):
                side = ptree._side(scores, sign)
                h = scores[side]
                mass = self._label_sums(weights, y, reach[:, side])
                np.testing.assert_array_equal(table.label_sums(weights, y > 0.0).compress(side, axis=1).ravel(), mass)
                expected = self._one_trial_at_a_time(mass, h)
                assert ptree._fit_edge(mass, h)[0] == expected
                assert alpha == expected
                np.testing.assert_array_equal(exps, ptree._exp_table(alpha, h))

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(_composite_cases(), st.sampled_from([None, 1e-238]))
    def test_stopped_fit_is_the_full_search_to_rounding(self, case, z_one):
        # the stop rule leaves at most rounding on the table: Z is never above
        # Z(1), and at most 16 eps above the full search's.  A Z(1) scaled to
        # 1e-238 has a slope whose square underflows to 0
        weights, y, reach, scores = case
        with np.errstate(over="ignore", invalid="ignore"):
            for sign in (1, -1):
                side = ptree._side(scores, sign)
                h = scores[side]
                mass = self._label_sums(weights, y, reach[:, side])
                margins = np.concatenate((h, -h))

                def z_at(a):
                    return float(np.sum(mass * np.exp(-a * margins)))

                if z_one is not None and 0.0 < z_at(1.0) < math.inf:
                    mass *= z_one / z_at(1.0)
                z_stopped = z_at(ptree._fit_edge(mass, h)[0])
                z_full = z_at(self._one_trial_at_a_time(mass, h, stop=False))
                assert z_stopped <= z_at(1.0)
                assert z_stopped <= z_full + 16 * ptree._EPS * z_full


def _reference_walks(tree, X, path="", reach=None, score=None):
    """Every walk by recursion, as one (rows, 1) column of ones times each
    edge's outcome columns, outer products flattened parent-major, the
    '+' walks first, joined with hstack."""
    if reach is None:
        reach, score = np.ones((1 if X is None else len(X), 1)), np.zeros(1)
    node = tree.nodes.get(path)
    if node is None:
        return reach, score
    node_reach, node_scores = node.outcomes(X)
    walks = []
    for sign, child in ((1, "+"), (-1, "-")):
        side = ptree._side(node_scores, sign)
        child_reach = reach[:, :, None] * node_reach[:, None, side]
        child_reach = child_reach.reshape(len(child_reach), -1)
        child_score = (score[:, None] + node.alpha(sign) * node_scores[side]).ravel()
        walks.append(_reference_walks(tree, X, path + child, child_reach, child_score))
    return np.hstack([w[0] for w in walks]), np.concatenate([w[1] for w in walks])


def _reference_edge_factor(reach, scores, y, sign, alpha):
    """The edge factor with the (N, K) exp table gathered by label."""
    side = ptree._side(scores, sign)
    h = scores[side]
    index = np.arange(len(h)) + len(h) * (y < 0.0)[:, None]
    return np.sum(reach[:, side] * ptree._exp_table(alpha, h)[index], axis=1)


def _reference_scored_children(weights, y, reach, scores):
    """The composite edges with the label sums taken from the (N, K)
    product weights * reach, one row subset per label."""
    weighted, positive = weights[:, None] * reach, y > 0.0
    label_sums = np.stack((weighted[positive].sum(axis=0), weighted[~positive].sum(axis=0)))
    edges = []
    for sign in (1, -1):
        side = ptree._side(scores, sign)
        alpha = ptree._fit_edge(label_sums[:, side].ravel(), scores[side])[0]
        mass = weights * _reference_edge_factor(reach, scores, y, sign, alpha)
        z = float(mass.sum())
        edges.append((alpha, mass / z if z >= DEAD_BRANCH_THRESHOLD else np.zeros_like(weights), z))
    (a_plus, d_plus, z_plus), (a_minus, d_minus, z_minus) = edges
    return a_plus, a_minus, d_plus, z_plus, d_minus, z_minus


class TestWalkKernels:
    """The walk table, the composite edges and the exact bound equal their
    naive forms bit for bit, so trained files do not move with them."""

    @staticmethod
    def _trees(dataset):
        for learner in (builtin_constant_edge_oracle(0.3), builtin_noisy_stump(0.1)):
            for L in (2, 3, 4):
                yield build_fixed_2_matryoshka(dataset, learner, L, TrainConfig(seed=L, exact_q=True))

    def test_walk_table_is_the_outer_product_form(self, small_dataset):
        rows = small_dataset.features[[3, 0, 0, 17, 9]]
        for tree in self._trees(small_dataset):
            inner = [node.classifier.inner for node in tree.nodes.values() if node.classifier.leaf_table is not None]
            assert inner
            for model in (tree, *inner):
                for X in (None, small_dataset.features, rows):
                    reach, scores = walk_table(model, X)
                    expected_reach, expected_scores = _reference_walks(model, X)
                    np.testing.assert_array_equal(reach, expected_reach)
                    np.testing.assert_array_equal(scores, expected_scores)
                    # row sums of the edge factor and the label sums add in C order
                    assert reach.flags.c_contiguous

    def test_walk_table_of_a_tree_without_nodes(self):
        for X, rows in ((None, 1), (np.zeros((3, 2)), 3)):
            reach, scores = walk_table(TreeModel(), X)
            np.testing.assert_array_equal(reach, np.ones((rows, 1)))
            np.testing.assert_array_equal(scores, np.zeros(1))

    def test_scored_children_are_the_gathered_form(self, small_dataset):
        y = small_dataset.labels.astype(float)
        for tree in self._trees(small_dataset):
            for path, node in tree.nodes.items():
                if node.classifier.leaf_table is None:
                    continue
                weights = ptree._leaf_weights(tree, path, small_dataset)
                reach, scores, classes = node.classifier.leaf_table
                got = ptree._scored_children(weights, y, node.classifier.leaf_table)
                expected = _reference_scored_children(weights, y, reach[classes], scores)
                for value, reference in zip(got, expected):
                    np.testing.assert_array_equal(value, reference)
                # the fitted edges are the ones training stored
                assert got[:2] == (node.alpha_plus, node.alpha_minus)
            assert exact_tree_bound(tree, small_dataset) == self._reference_bound(tree, small_dataset)

    @staticmethod
    def _reference_bound(tree, dataset):
        y = dataset.labels.astype(float)

        def below(path):
            node = tree.nodes.get(path)
            if node is None:
                return 1.0
            reach, scores = node.outcomes()
            return sum(
                _reference_edge_factor(reach, scores, y, sign, node.alpha(sign)) * below(path + child)
                for sign, child in ((1, "+"), (-1, "-"))
            )

        return float(np.sum(dataset.weights * below("")))

    @pytest.mark.parametrize(
        "case", ["no minus outcomes", "no plus outcomes", "no -1 labels", "no +1 labels", "zero weights"]
    )
    def test_scored_children_edge_cases(self, case):
        # a composite has at least two walks
        rng = np.random.default_rng(7)
        n, k = 9, 6
        y = rng.choice([-1.0, 1.0], n)
        scores = rng.normal(0.0, 1.0, k)
        reach = rng.dirichlet(np.ones(k), n)
        weights = rng.dirichlet(np.ones(n))
        if case == "no minus outcomes":
            scores = np.abs(scores)
            scores[2] = 0.0  # ties go to +
        elif case == "no plus outcomes":
            scores = -np.abs(scores) - 0.1
        elif case == "no -1 labels":
            y[:] = 1.0
        elif case == "no +1 labels":
            y[:] = -1.0
        else:
            weights[[1, 4]] = 0.0
        # with one label class absent Z falls without bound on both edges and
        # the fit runs into exp overflow; both forms still agree bit for bit,
        # also where classes of rows repeat and hold both labels
        classes = np.arange(n) % 4
        with np.errstate(over="ignore", invalid="ignore"):
            got = ptree._scored_children(weights, y, ClassTable(reach, scores, np.arange(n)))
            expected = _reference_scored_children(weights, y, reach, scores)
            by_class = ptree._scored_children(weights, y, ClassTable(reach[:4], scores, classes))
            by_class_expected = _reference_scored_children(weights, y, reach[classes], scores)
        for value, reference in (*zip(got, expected), *zip(by_class, by_class_expected)):
            np.testing.assert_array_equal(value, reference)
        for sign in (1, -1):
            np.testing.assert_array_equal(
                _edge_factor(reach, scores, y, sign, 0.8),
                _reference_edge_factor(reach, scores, y, sign, 0.8),
            )
        if case == "no minus outcomes":
            assert got[1] == 1.0 and got[5] == 0.0 and not got[4].any()


@st.composite
def _plain_factor_cases(draw):
    """(q, labels, alpha_+, alpha_-) of a plain node: q of exactly 0 or 1
    among the values, single-class labels, and alphas of either sign."""
    n = draw(st.integers(1, 64))
    label = st.sampled_from([-1, 1])
    labels = np.array(draw(st.one_of(
        st.lists(label, min_size=n, max_size=n), label.map(lambda value: [value] * n))))
    q = np.array(draw(st.lists(st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0]), min_size=n, max_size=n)))
    # 9.21 is about the alpha of a noiseless edge, 0.5 log(1 / ALPHA_SMOOTHING)
    alpha = st.floats(-20.0, 20.0) | st.sampled_from([0.0, -0.0, 9.210340371976184, -9.210340371976184])
    return q, labels, draw(alpha), draw(alpha)


class TestPlainEdgeFactors:
    """A plain node's two edge factors come from the (2, N) kernel that
    scales training's mass array, and equal the outcome-table form, bit for
    bit."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_plain_factor_cases())
    def test_shared_kernel_is_the_outcome_table_form(self, case):
        q, labels, a_plus, a_minus = case
        y = labels.astype(float)
        factors = _zstats._scale_edges(np.array((q, 1.0 - q)), y, a_plus, a_minus)
        reach, scores = _plain_outcomes(q)
        for factor, sign, alpha in ((factors[0], 1, a_plus), (factors[1], -1, a_minus)):
            assert factor.tobytes() == _edge_factor(reach, scores, y, sign, alpha).tobytes()
        # an AdaBoost stage's factor is their sum
        assert _zstats._stage_factor(q, y, a_plus, a_minus).tobytes() == (factors[0] + factors[1]).tobytes()
        # and exact_tree_bound takes them so: a one-node tree's bound is the old sum
        dataset = Dataset.from_arrays(np.zeros((len(q), 1)), labels)
        tree = TreeModel(nodes={"": TreeNode(StumpClassifier(0, 0.0, 1, 0.5), q, a_plus, a_minus, 0.5, 0.5)})
        expected = sum(_edge_factor(reach, scores, y, sign, alpha) * 1.0
                       for sign, alpha in ((1, a_plus), (-1, a_minus)))
        assert exact_tree_bound(tree, dataset) == float(np.sum(dataset.weights * expected))

    @pytest.mark.parametrize("p_flip, exact", [(0.1, True), (0.1, False), (0.0, True), (0.0, False)])
    def test_grown_tree_bound_is_the_outcome_table_form(self, small_dataset, p_flip, exact):
        tree = grow_tree(small_dataset, builtin_noisy_stump(p_flip), max_nodes=12,
                         config=TrainConfig(seed=2, exact_q=exact))
        assert all(node.q_plus is not None for node in tree.nodes.values())
        assert exact_tree_bound(tree, small_dataset) == TestWalkKernels._reference_bound(tree, small_dataset)


class TestNanScore:
    """A walk score of NaN takes the '-' edge everywhere: in walk tables, edge
    factors and row classes, as a drawn walk takes it.  A composite whose inner
    node has an alpha_plus of nan scores its inner '+' walk NaN."""

    @staticmethod
    def _tree():
        X = np.array([[1.0], [-1.0], [0.5]])
        dataset = Dataset.from_arrays(X, [1, -1, -1])
        stump = StumpClassifier(0, 0.0, 1, 0.25)
        inner = TreeModel(nodes={"": TreeNode(stump, stump._q(X), math.nan, 0.5, 0.5, 0.5)})
        return TreeModel(nodes={"": TreeNode(CompositeNode(inner), None, 1.0, 1.0, 0.5, 0.5)}), dataset

    def test_walk_table_rows_sum_to_one(self):
        tree, dataset = self._tree()
        for X in (None, dataset.features):
            reach, scores = walk_table(tree, X)
            assert np.isnan(scores).any()
            np.testing.assert_allclose(reach.sum(axis=1), 1.0, rtol=1e-15)

    def test_exact_bound_is_nan(self):
        tree, dataset = self._tree()
        assert math.isnan(exact_tree_bound(tree, dataset))

    def test_walk_takes_minus(self):
        tree, dataset = self._tree()
        scores, leaves = predict_tree(tree, dataset.features, RandomStream(0), "p", 200)
        drew_nan = np.isnan(scores)
        assert drew_nan.any() and (leaves[drew_nan] == "-").all()


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

    @pytest.mark.parametrize(
        "read, model",
        [("predict_tree", "plain"), ("predict_tree", "nested"), ("walk_table", "plain"), ("walk_table", "nested"),
         ("composite", "reloaded"), ("composite", "greedy")],
        ids=["predict_tree-plain", "predict_tree-nested", "walk_table-plain", "walk_table-nested",
             "composite-reloaded", "composite-greedy"],
    )
    def test_dimension_mismatch(self, small_dataset, read, model):
        # each refuses rows of another feature dimension by one check, before a
        # stump reads a column past the rows or of another feature; so does a
        # composite's own outcomes, loaded from a file or collected by the
        # greedy builder, whose inner tree holds no training metadata
        config = TrainConfig(seed=1, exact_q=True)
        if model == "plain":
            tree = grow_tree(small_dataset, builtin_constant_edge_oracle(0.3), max_nodes=1,
                             config=TrainConfig(exact_q=True))
        elif model == "greedy":
            tree, _ = build_greedy_matryoshka(small_dataset, builtin_noisy_stump(0.1), 12, config=config)
        else:
            tree = build_fixed_2_matryoshka(small_dataset, builtin_noisy_stump(0.1), 3, config)
            if model == "reloaded":
                tree = model_from_record(tree.to_record())
        composite = next((node.classifier for node in tree.nodes.values()
                          if isinstance(node.classifier, CompositeNode)), None)
        assert (composite is None) == (model == "plain")
        reads = {"predict_tree": lambda X: predict_tree(tree, X, RandomStream(0), "p", 1),
                 "walk_table": lambda X: walk_table(tree, X), "composite": lambda X: composite.outcomes(X)}
        for X in (np.array([[1.0, 2.0, 3.0]]), np.zeros((3, 5)), np.zeros((3, 1)), np.zeros(2)):
            with pytest.raises(ValueError, match=r"expected rows of feature dimension 2, got shape"):
                reads[read](X)

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


def _reference_walk(tree, X, row, trial, k, stream, purpose):
    """One walk taken alone, node by node: its k-th draw is the uniform keyed
    by (row, (k << 32) | trial), and a composite walks its inner tree.
    Returns (score, leaf, draws taken so far)."""
    score, path = 0.0, ""
    while path in tree.nodes:
        node = tree.nodes[path]
        if node.classifier.leaf_table is not None:
            h, _, k = _reference_walk(node.classifier.inner, X, row, trial, k, stream, purpose)
        else:
            u = stream.uniforms(purpose, row, (k << 32) | trial)
            h = float(node.classifier.sample_batch(X[row : row + 1], np.array([u]))[0])
            k += 1
        score += (node.alpha_plus if h >= 0.0 else node.alpha_minus) * h
        path += "+" if h >= 0.0 else "-"
    return score, path, k


class TestLevelWalks:
    @pytest.mark.parametrize(
        "trainer, size, oracle, exact_q",
        [
            ("ptree", 12, "stump", True),
            ("ptree", 12, "stump", False),
            ("ptree", 12, "edge", True),
            ("ptree", 12, "edge", False),
            ("fixed2", 2, "stump", True),
            ("fixed2", 3, "stump", False),
            ("fixed2", 3, "edge", True),
            ("greedy", 16, "edge", True),
        ],
    )
    def test_equals_walks_taken_alone(self, small_dataset, trainer, size, oracle, exact_q):
        learner = builtin_noisy_stump(0.2) if oracle == "stump" else builtin_constant_edge_oracle(0.3)
        config = TrainConfig(exact_q=exact_q, seed=3)
        if trainer == "ptree":
            tree = grow_tree(small_dataset, learner, max_nodes=size, config=config)
        elif trainer == "fixed2":
            tree = build_fixed_2_matryoshka(small_dataset, learner, size, config)
        else:
            tree, log = build_greedy_matryoshka(small_dataset, learner, size, config=config)
            assert any(entry.action == "collect" for entry in log)
        X, stream = small_dataset.features, RandomStream(9)
        reference = [
            [_reference_walk(tree, X, row, trial, 0, stream, "p")[:2] for row in range(len(X))]
            for trial in range(7)
        ]
        ref_scores = np.array([[score for score, _ in walks] for walks in reference])
        ref_leaves = np.array([[leaf for _, leaf in walks] for walks in reference], dtype=object)
        for trials in range(1, 8):
            scores, leaves = predict_tree(tree, X, stream, "p", trials)
            np.testing.assert_array_equal(scores, ref_scores[:trials])  # bit for bit
            np.testing.assert_array_equal(leaves, ref_leaves[:trials])
        if trainer == "ptree":  # walks of unequal length, drawn side by side
            assert len({len(leaf) for leaf in ref_leaves.ravel()}) > 1
        else:  # a composite at the root
            assert tree.nodes[""].classifier.leaf_table is not None

    def test_one_uniforms_call_per_level(self, monkeypatch):
        data = make_synthetic_dataset(40, seed=2)
        tree = grow_tree(data, builtin_noisy_stump(0.2), max_nodes=16, config=TrainConfig(exact_q=True))
        trials = 120  # 4,800 walks at the root: more than one Philox block
        assert trials * data.n_examples > MAX_BLOCK_DRAWS
        calls, evaluated = [], []
        philox = core._philox4x32

        def bounded_philox(counter, key):
            size = np.broadcast(*counter).size
            assert size <= MAX_BLOCK_DRAWS
            evaluated.append(size)
            return philox(counter, key)

        class CountingStream(RandomStream):
            def uniforms(self, purpose, example, counter):
                calls.append(np.size(example))
                return super().uniforms(purpose, example, counter)

        monkeypatch.setattr(core, "_philox4x32", bounded_philox)
        _, leaves = predict_tree(tree, data.features, CountingStream(1), "p", trials)
        monkeypatch.undo()
        depths = np.vectorize(len)(leaves)
        # one call per level of the deepest walk, not one per node
        assert len(calls) == depths.max() < tree.n_nodes
        assert calls == [int(np.sum(depths > level)) for level in range(depths.max())]
        assert calls[0] == trials * data.n_examples and max(evaluated) == MAX_BLOCK_DRAWS
        assert sum(evaluated) == sum(calls)


class TestTreeSerialization:
    def test_round_trip(self, small_dataset):
        tree = grow_tree(
            small_dataset,
            builtin_noisy_stump(0.1),
            max_nodes=4,
            config=TrainConfig(seed=2),
        )
        record = tree.to_record()
        clone = model_from_record(record)
        assert clone.to_record() == record
        assert list(clone.leaf_products()) == list(tree.leaf_products())
        assert clone.recorded_bound() == tree.recorded_bound()
        # a node record holds no training weights; its sampled q repeats values,
        # so it stores them once with each example's index
        for node in record["nodes"].values():
            assert set(node) == {
                "classifier", "q_plus", "q_index", "alpha_plus", "alpha_minus", "z_plus", "z_minus"
            }
        # records that still carry training weights load and give the same bounds
        n = small_dataset.n_examples
        old = tree.to_record()
        for node in old["nodes"].values():
            for key in ("weights", "weights_plus", "weights_minus"):
                node[key] = [1.0 / n] * n
        old_clone = model_from_record(old)
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
            model_from_record(record)


def _composites_by_depth(tree, depth=0):
    """(nesting depth, composite) of every composite in the tree, top-level
    ones at depth 0, each before the composites it wraps."""
    for node in tree.nodes.values():
        if isinstance(node.classifier, CompositeNode):
            yield depth, node.classifier
            yield from _composites_by_depth(node.classifier.inner, depth + 1)


class TestTableLifetime:
    """A composite builds its walk table on first read and drops the tables
    of the composites it wraps, and a finished matryoshka keeps none;
    reading one again rebuilds it bit for bit, and loading or predicting
    builds none."""

    @staticmethod
    def _models(dataset):
        config = TrainConfig(exact_q=True, seed=3)
        yield build_fixed_2_matryoshka(dataset, builtin_noisy_stump(0.1), 4, config)
        tree, log = build_greedy_matryoshka(dataset, builtin_constant_edge_oracle(0.3), 16, config=config)
        assert sum(event.action == "collect" for event in log) > 1  # a chain of composites
        yield tree

    @staticmethod
    def _recording(built):
        def recording(tree, X=None, classes=None):
            table = walk_table(tree, X, classes)
            if X is None:
                built.setdefault(id(tree), tuple(array.copy() for array in table))
            return table

        return recording

    def test_no_composite_keeps_a_table(self, small_dataset):
        for tree in self._models(small_dataset):
            composites = list(_composites_by_depth(tree))
            assert any(depth > 0 for depth, _ in composites)
            assert all(composite._leaf_table is None for _, composite in composites)

    def test_a_dropped_table_rebuilds_bit_for_bit(self, small_dataset, monkeypatch):
        built = {}  # the first table of each inner tree: the one training read
        monkeypatch.setattr(ptree, "walk_table", self._recording(built))

        def assert_rebuilt(composite):
            reach, scores, classes = composite.leaf_table
            expected_reach, expected_scores = built[id(composite.inner)]
            assert reach.tobytes() == expected_reach.tobytes()
            assert scores.tobytes() == expected_scores.tobytes()
            reference_reach, reference_scores = _reference_walks(composite.inner, None)
            assert reach[classes].tobytes() == reference_reach.tobytes()
            assert scores.tobytes() == reference_scores.tobytes()

        for tree in self._models(small_dataset):
            composites = list(_composites_by_depth(tree))
            top = [composite for depth, composite in composites if depth == 0]
            for composite in top:
                assert_rebuilt(composite)
            top_tables = [composite._leaf_table for composite in top]
            for depth, composite in composites:
                if depth > 0:
                    assert_rebuilt(composite)
            # a rebuild below drops nothing above it
            assert all(composite._leaf_table is table for composite, table in zip(top, top_tables))

    def test_loading_and_predicting_build_no_table(self, small_dataset, tmp_path, monkeypatch):
        calls = []

        def counting(tree, X=None, classes=None):
            calls.append(X is None)
            return walk_table(tree, X, classes)

        for index, tree in enumerate(self._models(small_dataset)):
            path = tmp_path / f"model-{index}.json"
            save_model(tree, path)
            bound = exact_tree_bound(tree, small_dataset)
            calls.clear()
            with monkeypatch.context() as patched:
                patched.setattr(ptree, "walk_table", counting)
                model = load_model(path)
                predict_tree(model, small_dataset.features, RandomStream(5), "p", 20)
                assert calls == []
                # the exact bound builds the tables it reads, from what the file stored
                assert exact_tree_bound(model, small_dataset) == bound
                assert calls
