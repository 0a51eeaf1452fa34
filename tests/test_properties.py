"""The paper's identities as properties of trained models: every trainer,
both oracles, exact and sampled q.  A RuntimeWarning is an error here (as in
the whole suite, by ``pyproject.toml``), so an overflow counts as a failure."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probboost.adaboost import AdaboostModel, exact_expected_bound, train_adaboost
from probboost.core import Dataset, make_synthetic_dataset
from probboost.matryoshka import build_fixed_2_matryoshka, build_greedy_matryoshka
from probboost.persist import load_model, save_model
from probboost.ptree import CompositeNode, exact_tree_bound, grow_tree
from probboost.weak_learner import TrainConfig, builtin_constant_edge_oracle, builtin_noisy_stump
from test_ptree import _reference_walks

REL_TOL = 1e-9
SIZES = {"adaboost-A": (2, 8), "adaboost-B": (2, 8), "ptree": (4, 16), "fixed2": (1, 4), "greedy": (4, 16)}


def _train(trainer, dataset, learner, size, config):
    if trainer.startswith("adaboost"):
        return train_adaboost(dataset, learner, size, config)
    if trainer == "ptree":
        return grow_tree(dataset, learner, max_nodes=size, config=config)
    if trainer == "fixed2":
        return build_fixed_2_matryoshka(dataset, learner, size, config)
    return build_greedy_matryoshka(dataset, learner, size, config=config)[0]


@st.composite
def _datasets(draw):
    """N from 1 to 48 rows of the synthetic blobs; labels of both classes, or
    all +1 or all -1; uniform weights, or weight 0 on some rows (never all)."""
    n = draw(st.integers(1, 48))
    blobs = make_synthetic_dataset(max(n, 2), seed=draw(st.integers(0, 2**16)))
    labels = draw(st.sampled_from([blobs.labels[:n], np.ones(n, dtype=int), -np.ones(n, dtype=int)]))
    weights = None
    if draw(st.booleans()):
        weights = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n)))
        weights[draw(st.integers(0, n - 1))] = 1.0
    return Dataset.from_arrays(blobs.features[:n], labels, weights)


@st.composite
def _models(draw, trainers=tuple(sorted(SIZES))):
    """(dataset, model) on ``_datasets()`` by one of ``trainers``.  Two cases whose composite edge fit
    overflows are left to the xfails below: a noiseless stump comes only with
    exact q and no composites, and fixed-2 stops at L = 2 when the rows of
    positive weight hold one label class (at L = 3 some such cases overflow,
    at L = 4 every one probed did)."""
    dataset = draw(_datasets())
    trainer = draw(st.sampled_from(trainers))
    composites = trainer in ("fixed2", "greedy")
    exact_q = trainer != "adaboost-B" and draw(st.booleans())
    if draw(st.booleans()):
        learner = builtin_constant_edge_oracle(draw(st.floats(0.05, 0.45)))
    elif exact_q and not composites and draw(st.booleans()):
        learner = builtin_noisy_stump(0.0)
    else:
        learner = builtin_noisy_stump(draw(st.floats(0.05, 0.45)))
    strategy = "B" if trainer == "adaboost-B" else "A"
    config = TrainConfig(seed=draw(st.integers(0, 2**16)), exact_q=exact_q, strategy=strategy)
    low, high = SIZES[trainer]
    if trainer == "fixed2" and len(np.unique(dataset.labels[dataset.weights > 0.0])) == 1:
        high = 2
    return dataset, _train(trainer, dataset, learner, draw(st.integers(low, high)), config)


def _composite_nodes(tree):
    """Every tree node whose classifier is a composite, nested ones included."""
    for node in tree.nodes.values():
        if isinstance(node.classifier, CompositeNode):
            yield node
            yield from _composite_nodes(node.classifier.inner)


def _check_identities(dataset, model):
    c = model.recorded_bound()
    assert math.isfinite(c) and c >= 0.0
    if isinstance(model, AdaboostModel):
        assert math.isclose(c, exact_expected_bound(model, dataset), rel_tol=REL_TOL, abs_tol=0.0)
    else:
        assert math.isclose(c, exact_tree_bound(model, dataset), rel_tol=REL_TOL, abs_tol=0.0)
        assert math.isclose(c, model.leaf_sum(), rel_tol=REL_TOL, abs_tol=0.0)
        # a collect whose composite keeps alpha = 1 leaves C as it was in exact arithmetic
        # (Z+ + Z- is the inner C), so restating C as the leaf sum may raise it by a few ulp
        trajectory = model.trajectory
        assert all(later <= earlier * (1.0 + REL_TOL) for earlier, later in zip(trajectory, trajectory[1:]))
        for node in _composite_nodes(model):
            assert node.z_plus + node.z_minus <= node.classifier.inner.leaf_sum() * (1.0 + REL_TOL)
    with tempfile.TemporaryDirectory() as directory:
        first, second = Path(directory, "first.json"), Path(directory, "second.json")
        save_model(model, first)
        save_model(load_model(first), second)
        assert first.read_bytes() == second.read_bytes()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_models())
def test_trained_model_identities(case):
    # C is finite, the exact bound and (for trees) the leaf sum, never rises,
    # bounds each composite's Z from above by its inner C, and survives a file
    _check_identities(*case)


def _q_signatures(tree):
    """Each training row's stored q of every plain node in ``tree``, nested
    composites' included, as its bits: one row of uint64 per example."""
    columns = []
    for node in tree.nodes.values():
        if isinstance(node.classifier, CompositeNode):
            columns.append(_q_signatures(node.classifier.inner))
        else:
            columns.append(node.q_plus.view(np.uint64)[:, None])
    return np.hstack(columns)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_models(trainers=("fixed2", "greedy")))
def test_composite_class_tables(case):
    # every composite at every depth keeps one walk-table row per class of
    # training rows; expanded to the rows it is the naive table bit for bit,
    # and its classes are the rows' distinct inner q signatures
    dataset, model = case
    for node in _composite_nodes(model):
        reach, scores, classes = node.classifier.leaf_table
        expected_reach, expected_scores = _reference_walks(node.classifier.inner, None)
        assert reach[classes].tobytes() == expected_reach.tobytes()
        assert scores.tobytes() == expected_scores.tobytes()
        signatures = _q_signatures(node.classifier.inner)
        assert len(reach) == len(np.unique(signatures, axis=0))
        assert len(reach) == len(np.unique(np.column_stack((classes.astype(np.uint64), signatures)), axis=0))
    n = dataset.n_examples + 1
    with pytest.raises(ValueError, match="dataset size does not match the stored model"):
        exact_tree_bound(model, Dataset.from_arrays(np.zeros((n, dataset.dimension)), np.ones(n, dtype=int)))


@pytest.mark.xfail(strict=True, reason="a noiseless composite's exp(alpha h) overflows in its edge fit")
def test_noiseless_fixed2_identities():
    dataset = make_synthetic_dataset(40, seed=1)
    config = TrainConfig(seed=1, exact_q=True)
    _check_identities(dataset, build_fixed_2_matryoshka(dataset, builtin_noisy_stump(0.0), 5, config))


@pytest.mark.xfail(strict=True, reason="with one label class a composite's exp(alpha h) overflows in its edge fit")
@pytest.mark.parametrize("L, epsilon", [(4, 0.3), (3, 0.45)])
def test_one_class_fixed2_identities(L, epsilon):
    blobs = make_synthetic_dataset(24, seed=0)  # its first 12 rows are the +1 blob
    dataset = Dataset.from_arrays(blobs.features[:12], np.ones(12, dtype=int))
    config = TrainConfig(seed=0, exact_q=True)
    _check_identities(dataset, build_fixed_2_matryoshka(dataset, builtin_constant_edge_oracle(epsilon), L, config))
