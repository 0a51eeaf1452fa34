"""Model files: one training-set table per file, and files from earlier versions."""

import copy
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from probboost.adaboost import AdaboostModel, StageRecord, TrainConfig, train_adaboost
from probboost.cli import main
from probboost.core import load_csv, make_synthetic_dataset
from probboost.matryoshka import build_fixed_2_matryoshka, build_greedy_matryoshka
from probboost.persist import _plain_record, _unit_record, load_model, save_model
from probboost.ptree import CompositeNode, TreeModel, TreeNode, grow_tree
from probboost.weak_learner import (ConstantEdgeClassifier, StumpClassifier, TrainingSet,
                                    builtin_constant_edge_oracle, builtin_noisy_stump)

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"

# Constant-edge models written before training sets were stored once per
# file, each constant-edge record carrying its rows, trained on
# data/edge_data.csv (a -0.0 feature and a repeated row with the other
# label included), with what that version's `eval --data edge_data.csv
# --trials 200 --seed 5` printed.
OLDER_FILES = {
    "edge_ptree.json": [
        "mc loss: 0.243182 +/- 0.006818 (200 trials)",
        "exact exponential bound: 0.7779619143981403",
        "recorded training bound: 0.7779619143981404",
    ],
    "edge_fixed2.json": [
        "mc loss: 0.154545 +/- 0.005430 (200 trials)",
        "exact exponential bound: 0.6692643028984434",
        "recorded training bound: 0.6692643028984433",
    ],
    "edge_greedy.json": [
        "mc loss: 0.254545 +/- 0.009045 (200 trials)",
        "exact exponential bound: 0.6984409332227847",
        "recorded training bound: 0.6984409332227848",
    ],
    "edge_adaboost.json": [
        "mc loss: 0.275000 +/- 0.008239 (200 trials)",
        "exact exponential bound: 0.8787348472677988",
        "recorded training bound: 0.8787348472677989",
    ],
}


# Noisy-stump models trained on data/stump_data.csv (40 examples) by
# `train --data stump_data.csv --seed 11` with `--algo ptree --T 20` and with
# `--algo matryoshka --mode fixed2 --L 3 --exact-q`, and what `eval --data
# stump_data.csv --trials 300 --seed 5` printed while tree walks drew node by
# node.  Their 12,000 walks take more than one Philox block at a level.
STUMP_FILES = {
    "stump_ptree.json": [
        "mc loss: 0.053417 +/- 0.001985 (300 trials)",
        "exact exponential bound: 0.3671479164307625",
        "recorded training bound: 0.36714791643076256",
    ],
    "stump_fixed2.json": [
        "mc loss: 0.041917 +/- 0.001722 (300 trials)",
        "exact exponential bound: 0.30541453519984507",
        "recorded training bound: 0.305414535199845",
    ],
    # `--algo ptree --T 16 --seed 12`, sampled q: 69 distinct stored q values
    "stump_ptree_sampled.json": [
        "mc loss: 0.053333 +/- 0.001948 (300 trials)",
        "exact exponential bound: 0.4401990575742388",
        "recorded training bound: 0.44019905757423894",
    ],
    # `--algo ptree --T 12 --p-flip 0 --exact-q --seed 11`: every q is 0 or 1
    "stump_ptree_noiseless.json": [
        "mc loss: 0.000000 +/- 0.000000 (300 trials)",
        "exact exponential bound: 3.5362047487001923e-13",
        "recorded training bound: 3.536259898390953e-13",
    ],
}


def _duplicated_rows_csv(path):
    """``make_synthetic_dataset(16, seed=3)``, then its first four rows again
    with the other label; every row has weight 1 but the sixth, of weight 0."""
    dataset = make_synthetic_dataset(16, seed=3)
    rows = [(f0, f1, label) for (f0, f1), label in zip(dataset.features.tolist(), dataset.labels.tolist())]
    rows += [(f0, f1, -label) for f0, f1, label in rows[:4]]
    lines = [f"{f0!r},{f1!r},{label},{int(n != 5)}" for n, (f0, f1, label) in enumerate(rows)]
    path.write_text("\n".join(["f0,f1,label,weight", *lines]) + "\n")


def _eval_lines(model, data=DATA / "edge_data.csv", trials=200):
    result = CliRunner().invoke(
        main, ["eval", "--model", str(model), "--data", str(data), "--trials", str(trials), "--seed", "5"]
    )
    return result.exit_code, result.output.splitlines()


def _constant_edge_classifiers(model):
    """Every constant-edge classifier of a model, inside composites too."""
    stack = [s.classifier for s in model.stages] if hasattr(model, "stages") else \
        [n.classifier for n in model.nodes.values()]
    while stack:
        classifier = stack.pop()
        if isinstance(classifier, ConstantEdgeClassifier):
            yield classifier
        elif hasattr(classifier, "inner"):
            stack.extend(n.classifier for n in classifier.inner.nodes.values())


def _plain_records(records, prefix=""):
    """(path, record) of every plain node or stage record, composites' inner nodes
    included; a classifier that records repeat is an index into ``classifiers``."""
    for path, record in records:
        if isinstance(record["classifier"], dict) and record["classifier"]["kind"] == "composite":
            yield from _plain_records(record["classifier"]["inner"]["nodes"].items(), f"{prefix}{path}/")
        else:
            yield prefix + str(path), record


def _model_plain_records(record):
    """(path, record) of every plain node or stage record of a model record."""
    return _plain_records(enumerate(record["stages"]) if "stages" in record else record["nodes"].items())


def _plain_q(record):
    """The stored ``q_plus`` of every plain record of a model record, by path."""
    return {path: plain["q_plus"] for path, plain in _model_plain_records(record)}


def _q_lists_filled_back(text):
    """A model file's text with each ``q_index`` expanded back into the
    per-example ``q_plus`` list, and each index into the ``classifiers`` table
    replaced by the record it names, as ``save_record`` dumps it: the file that
    versions before ``q_index`` and the table wrote."""
    record = json.loads(text)
    shared = record.pop("classifiers", [])
    for _, plain in _model_plain_records(record):
        if "q_index" in plain:
            plain["q_plus"] = [plain["q_plus"][i] for i in plain.pop("q_index")]
        if not isinstance(plain["classifier"], dict):
            plain["classifier"] = shared[plain["classifier"]]
    return json.dumps(record, sort_keys=True, separators=(",", ": ")) + "\n"


def _check_digest(path, digest):
    """Pin a model file's SHA-256.  A pair (file, lists) pins a file that stores
    ``q_index`` or a ``classifiers`` table and, as ``lists``, the digest it had
    before: that of the file with its q lists and classifier records filled
    back in (``_q_lists_filled_back``), which is checked first."""
    new, lists = (digest, digest) if isinstance(digest, str) else digest
    text = path.read_text(encoding="utf-8")
    assert hashlib.sha256(_q_lists_filled_back(text).encode()).hexdigest() == lists
    assert hashlib.sha256(text.encode()).hexdigest() == new


def _plain_nodes(model, prefix=""):
    """(path, node or stage) of every plain node or stage of a model, as ``_plain_records`` names them."""
    items = enumerate(model.stages) if hasattr(model, "stages") else model.nodes.items()
    for path, node in items:
        if isinstance(node.classifier, CompositeNode):
            yield from _plain_nodes(node.classifier.inner, f"{prefix}{path}/")
        else:
            yield prefix + str(path), node


def _numbers_zeroed(value):
    """A JSON value with each number written as 0: its shape, whatever the numbers' digits."""
    if isinstance(value, dict):
        return {key: _numbers_zeroed(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_numbers_zeroed(item) for item in value]
    return 0 if isinstance(value, (int, float)) and not isinstance(value, bool) else value


class TestOlderFiles:
    @pytest.mark.parametrize("name", sorted(OLDER_FILES))
    def test_evaluates_as_before(self, name):
        record = json.loads((DATA / name).read_text())
        assert "training_sets" not in record
        assert '"features": ' in (DATA / name).read_text()
        assert _eval_lines(DATA / name) == (0, OLDER_FILES[name])

    @pytest.mark.parametrize("name", sorted(OLDER_FILES))
    def test_one_lookup_per_training_set(self, name, tmp_path):
        model = load_model(DATA / name)
        lookups = {id(c.training_set) for c in _constant_edge_classifiers(model)}
        assert len(lookups) == 1
        # saved again, the rows are written once, the stored q lists become
        # null where q is exact (sampled q stays), and the file evaluates alike
        older = json.loads((DATA / name).read_text())
        assert all(isinstance(q, list) for q in _plain_q(older).values())
        save_model(model, tmp_path / name)
        record = json.loads((tmp_path / name).read_text())
        assert len(record["training_sets"]) == 1
        exact = older["metadata"]["exact_q"]
        assert all((q is None) == exact for q in _plain_q(record).values())
        assert _eval_lines(tmp_path / name) == (0, OLDER_FILES[name])


class TestConstantEdgeQ:
    """A constant-edge node or stage with exact q stores null: the file's
    training set and epsilon rebuild its q."""

    @staticmethod
    def _train(kind, data, learner, config):
        if kind == "ptree":
            return grow_tree(data, learner, max_nodes=8, config=config)
        if kind == "fixed2":
            return build_fixed_2_matryoshka(data, learner, 3, config)
        if kind == "greedy":
            model, log = build_greedy_matryoshka(data, learner, 12, config=config)
            assert any(entry.action == "collect" for entry in log)
            return model
        return train_adaboost(data, learner, 4, config)

    @pytest.mark.parametrize("kind", ["ptree", "fixed2", "greedy", "adaboost"])
    def test_round_trip(self, tmp_path, kind):
        model = self._train(kind, make_synthetic_dataset(20, seed=1), builtin_constant_edge_oracle(0.3),
                            TrainConfig(seed=1, exact_q=True))
        save_model(model, tmp_path / "a.json")
        stored = _plain_q(json.loads((tmp_path / "a.json").read_text()))
        assert len(stored) >= 4 and all(q is None for q in stored.values())
        loaded = load_model(tmp_path / "a.json")
        trained = dict(_plain_nodes(model))
        assert trained.keys() == stored.keys()
        for path, node in _plain_nodes(loaded):
            assert node.q_plus.tobytes() == trained[path].q_plus.tobytes()
            assert not node.q_plus.flags.writeable
        save_model(loaded, tmp_path / "b.json")
        assert (tmp_path / "b.json").read_bytes() == (tmp_path / "a.json").read_bytes()

    @pytest.mark.parametrize("kind", ["ptree", "adaboost"])
    def test_record_size_does_not_grow_with_n(self, kind):
        # the numbers' digits vary; the records' shape does not
        shapes = set()
        for n in (40, 400, 4000):
            model = self._train(kind, make_synthetic_dataset(n, seed=1), builtin_constant_edge_oracle(0.3),
                                TrainConfig(seed=1, exact_q=True))
            for _, node in _plain_nodes(model):
                record = _unit_record(node, [])
                assert record["q_plus"] is None
                shapes.add(len(json.dumps(_numbers_zeroed(record), sort_keys=True, separators=(",", ": "))))
        assert len(shapes) == 1

    def test_sampled_q_is_stored(self, tmp_path):
        data = make_synthetic_dataset(20, seed=1)
        model = grow_tree(data, builtin_constant_edge_oracle(0.3), max_nodes=4, config=TrainConfig(seed=1))
        save_model(model, tmp_path / "m.json")
        text = (tmp_path / "m.json").read_text()
        # a MAP estimate takes few values: each is stored once, with each example's index
        records = dict(_model_plain_records(json.loads(text)))
        assert all(len(plain["q_plus"]) < len(plain["q_index"]) == 20 for plain in records.values())
        stored = _plain_q(json.loads(_q_lists_filled_back(text)))
        assert stored.keys() == records.keys() and all(len(q) == 20 for q in stored.values())
        for path, node in _plain_nodes(load_model(tmp_path / "m.json")):
            assert node.q_plus.tolist() == stored[path]

    def test_filled_back_file_evaluates_alike(self, tmp_path):
        # a file with the lists written back in, as older versions stored them
        model = self._train("fixed2", make_synthetic_dataset(20, seed=1), builtin_constant_edge_oracle(0.3),
                            TrainConfig(seed=1, exact_q=True))
        save_model(model, tmp_path / "null.json")
        record = json.loads((tmp_path / "null.json").read_text())
        loaded = dict(_plain_nodes(load_model(tmp_path / "null.json")))
        for path, plain in _plain_records(record["nodes"].items()):
            plain["q_plus"] = loaded[path].q_plus.tolist()
        (tmp_path / "lists.json").write_text(json.dumps(record))
        csv = tmp_path / "data.csv"
        data = make_synthetic_dataset(20, seed=1)
        csv.write_text("f0,f1,label\n" + "".join(f"{a!r},{b!r},{y}\n" for (a, b), y in
                                                zip(data.features.tolist(), data.labels.tolist())))
        lines = _eval_lines(tmp_path / "null.json", csv)
        assert lines[0] == 0 and lines == _eval_lines(tmp_path / "lists.json", csv)


# q values in [0, 1], with 0.0, -0.0, 1.0 and subnormals drawn often
_Q_VALUES = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, -0.0, 1.0, 0.5, 5e-324, 1e-310]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(q=st.lists(_Q_VALUES, min_size=1, max_size=40), stage=st.booleans())
@example(q=[0.25, 0.75, 0.25, 0.25], stage=False)  # repeated values, shorter as a list
@example(q=[0.0, -0.0, 0.0, -0.0], stage=True)  # both zeros, each repeated
@example(q=[0.0, -0.0] * 8, stage=False)  # both zeros, shorter indexed
@example(q=[0.9, 0.1, 0.1, 0.9] * 10, stage=True)  # a stump's two values
@example(q=[0.0, 1.0, 1.0, 0.0], stage=False)  # 0 and 1
@example(q=[5e-324, 1e-310, 5e-324], stage=True)  # subnormals
@example(q=[0.5], stage=False)  # N = 1
@example(q=[0.5, 0.5], stage=False)  # 22 characters as a list, 36 indexed
@example(q=[0.0, -0.0, 0.1, 1.0], stage=True)  # every value distinct
def test_stored_q_round_trip(q, stage):
    # a stump's q is stored: its distinct values and each example's index
    # where that text is shorter than its list, its list otherwise; loading
    # gives q's bytes and saving again the same file
    q = np.array(q)
    stump = StumpClassifier(0, 0.0, 1, 0.1)
    model = AdaboostModel([StageRecord(stump, q, 0.5, 0.25, 0.75)]) if stage else \
        TreeModel(nodes={"": TreeNode(stump, q, 0.5, 0.25, 0.75, 0.5)})
    with tempfile.TemporaryDirectory() as directory:
        first, second = Path(directory, "first.json"), Path(directory, "second.json")
        save_model(model, first)
        loaded = load_model(first)
        save_model(loaded, second)
        (_, plain), = _model_plain_records(json.loads(first.read_text()))
        assert first.read_bytes() == second.read_bytes()
    held = loaded.stages[0] if stage else loaded.nodes[""]
    assert held.q_plus.dtype == np.float64 and held.q_plus.tobytes() == q.tobytes()
    values, index = np.unique(q.view(np.uint64), return_inverse=True)
    as_list = json.dumps({"q_plus": q.tolist()}, separators=(",", ": "))
    indexed = json.dumps({"q_index": index.tolist(), "q_plus": values.view(float).tolist()}, separators=(",", ": "))
    assert ("q_index" in plain) == (len(indexed) < len(as_list))
    assert len(plain["q_plus"]) == (len(values) if "q_index" in plain else len(q))


_SHARED_ROWS = TrainingSet(np.array([[0.5, -1.0], [-0.5, 1.0], [1.5, 0.0]]), np.array([1, -1, 1]))
# plain classifiers whose records differ, some only in the sign of a zero
_POOL = [StumpClassifier(0, 0.0, 1, 0.1), StumpClassifier(0, -0.0, 1, 0.1), StumpClassifier(1, 0.5, -1, 0.2),
         StumpClassifier(0, 0.0, 1, 0.1, constant=-1), ConstantEdgeClassifier(0.3, _SHARED_ROWS)]
_PATHS = ["", "+", "-", "++", "+-", "-+", "--"]


def _pool_classifier(draw):
    """One of the pool's classifiers, or a copy of it: a record that nodes
    repeat may come from one object or from several."""
    classifier = draw(st.sampled_from(_POOL))
    return copy.copy(classifier) if draw(st.booleans()) else classifier


@st.composite
def _pool_models(draw):
    """A tree (its root a composite of plain nodes, or not) or an AdaBoost
    model of 1 to 7 plain nodes or stages from ``_POOL``."""
    q = np.array([0.25, 0.75, 0.25])
    units = draw(st.integers(1, len(_PATHS)))
    if draw(st.booleans()):
        return AdaboostModel([StageRecord(_pool_classifier(draw), q, 0.5, 0.25, 0.75) for _ in range(units)])
    nodes = {path: TreeNode(_pool_classifier(draw), q, 0.5, 0.25, 0.75, 0.5) for path in _PATHS[:units]}
    if draw(st.booleans()):
        inner = {path: TreeNode(_pool_classifier(draw), q, 0.5, 0.25, 0.75, 0.5)
                 for path in _PATHS[:draw(st.integers(1, 3))]}
        nodes[""] = TreeNode(CompositeNode(TreeModel(nodes=inner)), None, 1.0, 1.0, 0.5, 0.25)
    return TreeModel(nodes=nodes)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(model=_pool_models())
def test_shared_classifiers_round_trip(model):
    # a plain classifier record that nodes or stages repeat is written once,
    # in the classifiers table, and each of them names its index
    with tempfile.TemporaryDirectory() as directory:
        first, second = Path(directory, "first.json"), Path(directory, "second.json")
        save_model(model, first)
        loaded = load_model(first)
        save_model(loaded, second)
        record = json.loads(first.read_text())
        assert first.read_bytes() == second.read_bytes()
    def text(classifier_record):  # as the file writes it
        return json.dumps(classifier_record, sort_keys=True, separators=(",", ": "))

    saved = {path: text(_plain_record(node.classifier)) for path, node in _plain_nodes(model)}
    assert {path: text(_plain_record(node.classifier)) for path, node in _plain_nodes(loaded)} == saved
    saved = list(saved.values())
    repeated = sorted({entry for entry in saved if saved.count(entry) > 1})
    for entry in repeated:  # decoded once, and shared by the nodes that name it
        assert len({id(node.classifier) for _, node in _plain_nodes(loaded)
                    if text(_plain_record(node.classifier)) == entry}) == 1
    table = record.get("classifiers")
    assert ("classifiers" in record) == bool(repeated)
    if table is not None:
        assert [text(entry) for entry in table] == repeated
    for _, plain in _model_plain_records(record):
        entry = plain["classifier"]
        if isinstance(entry, dict):
            assert saved.count(text(entry)) == 1
        else:
            assert saved.count(text(table[entry])) > 1


class TestStumpFiles:
    @pytest.mark.parametrize("name", sorted(STUMP_FILES))
    def test_evaluates_as_before(self, name):
        assert _eval_lines(DATA / name, DATA / "stump_data.csv", trials=300) == (0, STUMP_FILES[name])


class TestTrainingSetTable:
    def test_one_entry_per_file(self, tmp_path):
        data = make_synthetic_dataset(20, seed=1)
        config = TrainConfig(exact_q=True)
        fixed = build_fixed_2_matryoshka(data, builtin_constant_edge_oracle(0.3), 4, config)
        greedy, log = build_greedy_matryoshka(data, builtin_constant_edge_oracle(0.3), 12, config=config)
        assert any(entry.action == "collect" for entry in log)
        for model, raw_nodes in ((fixed, 16), (greedy, 12)):
            save_model(model, tmp_path / "m.json")
            record = json.loads((tmp_path / "m.json").read_text())
            (key, entry), = record["training_sets"].items()
            assert entry == {"features": data.features.tolist(), "labels": data.labels.tolist()}
            text = json.dumps(record["nodes"])
            # the raw nodes repeat one classifier record, which names the training set once per file
            assert '"features"' not in text and json.dumps(record).count(f'"training_set": "{key}"') == 1
            (shared,) = record["classifiers"]
            assert shared["training_set"] == key
            assert [plain["classifier"] for _, plain in _model_plain_records(record)] == [0] * raw_nodes
            assert load_model(tmp_path / "m.json").to_record() == model.to_record()

    @pytest.mark.parametrize(
        "args, digest",
        [
            ("train --algo ptree --T 8 --seed 3",
             ("733cbb1934c9a146feada8358b8fd3f404c9a594794329560a8ec93add470d9b",
              "d06e7f62d82a0884e2261bc2f2540e02cb1d46fd537046ae0ca7d85f85ab0473")),
            ("train --algo adaboost --T 4 --seed 3",
             ("1618cf87197a6f219e57e9ca3ee47871c89fe63f1c1ba670704d389f8534d6d8",
              "d3606e98a1ed241be833021ddfd59b58653a5bf4a78b9cea786e165268907820")),
            ("train --algo adaboost --T 4 --strategy B --seed 3",
             ("886d1c6599c0f60435e1bfe2d860a85d85535af9034e2f79a3f4c70f9dfca0fb",
              "94e8fae07ca20ee5626e4dc01bec76d446d6265ac3a4370648a85d20abdf2fde")),
            ("train --algo adaboost --T 4 --strategy B --estimator ml --seed 3",
             ("b04f4856f769985d076636b80c05d51e0733691acc4847e322108057b2faf230",
              "bc243f9b5a660f1c2401f01c9f13d03b4d78dc3edf57eafe1050e6a446d48d43")),
            ("train --algo adaboost --T 4 --estimator ml --seed 3",
             ("83d7c5bc702b412c4c40a5448a3389fb10e6121ff53ef64e1bfaf87eef7c9080",
              "74690d04b67cefb166d2fc4cc140846265777d5e803eed283440ad380890b0f2")),
        ],
        ids=["ptree", "adaboost", "adaboost-B", "adaboost-B-ml", "adaboost-ml"],
    )
    def test_stump_files_unchanged(self, tmp_path, args, digest):
        # noisy-stump files have no table, and their bytes are those that
        # versions before the table wrote; the strategy-B case samples its
        # stages for 11, 8, 4 and 1 rounds, so it both resamples and advances
        out = tmp_path / "m.json"
        result = CliRunner().invoke(main, [*args.split(), "--trials", "50", "--out", str(out)])
        assert result.exit_code == 0
        assert "training_sets" not in json.loads(out.read_text())
        _check_digest(out, digest)

    @pytest.mark.parametrize(
        "args, digest",
        [
            ("--mode fixed2 --L 4 --oracle constant-edge --epsilon 0.3 --exact-q --seed 3",
             ("6479dac38047c69562e76cee2e899688f3d853cfa13a87b897e9102a969c4d57",
              "7f0ce1608021e76fde98ee98d4deea86921c235e0476fb7f3b4a8f8e0de8f5bd")),
            ("--mode greedy --T 16 --oracle constant-edge --epsilon 0.3 --exact-q --seed 3",
             ("7716f7a22dde32e4f4502ea4b5d47d04f22adc47a8b6b34fd1570e25aa72ffe7",
              "1a22f0b0fd545c9d2f9db87522afab3bcd0bd0ed1e8ca54d4fc439bd7b2c434b")),
            ("--mode fixed2 --L 3 --seed 3",
             ("8ba7f6ba584c1394e1d2314c0a67aed85dad338055f67df44728362ea6fb8042",
              "420380eaf41298ab088504ce905a5d4d4e74925294acf1e8c3de33aaa16b0bff")),
        ],
        ids=["fixed2-edge", "greedy-edge", "fixed2-stump-sampled"],
    )
    def test_matryoshka_files_unchanged(self, tmp_path, args, digest):
        # composite edges, their walk tables and the greedy collects decide
        # these bytes; the greedy case collects 12 times
        out = tmp_path / "m.json"
        result = CliRunner().invoke(
            main, ["train", "--algo", "matryoshka", *args.split(), "--trials", "50", "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        _check_digest(out, digest)

    @pytest.mark.parametrize(
        "mode, size, n, oracle, digest",
        [
            ("fixed2", 6, 40, "constant-edge",
             ("2928d1dca06684f97354291536fd398c2de8e84e4111f85c42e16408d5976e55",
              "0c2579db6d8ba0bf8791b74583ab04a2daa9080232db1af7e90b277f955a472f")),
            ("greedy", 28, 20, "constant-edge",
             ("7731c48129937290b0f3a0c2e09a4726c2a4eed5173fff8e96e4c46042324c4b",
              "fcbff65d99aa38d529d03f336761e79c62e585f084959218ed6ce1965425611a")),
            ("fixed2", 5, 40, "stump",
             ("6ff9bc8addf48e6b780922979fe2030768baa248bce5a23ddb3aa34a48ff6a8c",
              "c73455acdde2d9048cb8eb47cc5ac161236ef33adb9f85de61f1868c7f48f2f1")),
        ],
        ids=["fixed2-L6-edge", "greedy-28-edge", "fixed2-L5-stump"],
    )
    def test_nested_trees_shapes_unchanged(self, tmp_path, mode, size, n, oracle, digest):
        # the benchmark's shapes, at the walk-table cap: a reordered sum in a
        # composite's edge fit, edge factors or walk table would flip a tie here
        data = make_synthetic_dataset(n, seed=1)
        learner = builtin_constant_edge_oracle(0.3) if oracle == "constant-edge" else builtin_noisy_stump()
        config = TrainConfig(seed=1, exact_q=True)
        if mode == "fixed2":
            model = build_fixed_2_matryoshka(data, learner, size, config)
        else:
            model, log = build_greedy_matryoshka(data, learner, size, config=config)
            assert any(entry.action == "collect" for entry in log)
        save_model(model, tmp_path / "m.json")
        _check_digest(tmp_path / "m.json", digest)

    @pytest.mark.parametrize(
        "case, digest",
        [
            ("greedy-16-exact",
             ("d7dfee9fa1728eb0d2c36111b4e1fd053d9a9a67182560199e0fcd8ece68f8b9",
              "8ee089499600907f5bed286d5ee1f688b13674f6bdabb9e60f226d3396315123")),
            ("greedy-16-sampled",
             ("148b4ede66a4d3cfc3d4b3a5de0234471705d8b6eed6a77448ca0688a0601aea",
              "9c6e64ef0029dec266faf61f6a3e81983c9a4d72676d291186f58935f97fee9f")),
            ("fixed2-3-duplicated-rows",
             ("61f4509df039b317df2742f8c9bd133fa41a266a138b66d94a14fb65a5bab642",
              "77e6adf838d79f7340a6500d7af261cddc2017bdc6fc847663759d6cb10a8cba")),
        ],
        ids=["greedy-16-exact", "greedy-16-sampled", "fixed2-3-duplicated-rows"],
    )
    def test_nested_trees_row_classes_unchanged(self, tmp_path, case, digest):
        # a composite's table has one row per class of training rows with
        # bitwise-equal inner outcomes: here many classes (noisy stumps, and
        # sampled q with its own q per row), and classes that hold both labels
        # (feature rows repeated with the other label, one of weight 0)
        mode, size, q = case.split("-", 2)
        if q == "duplicated-rows":
            _duplicated_rows_csv(tmp_path / "data.csv")
            data = load_csv(tmp_path / "data.csv")
        else:
            data = make_synthetic_dataset(40, seed=1)
        config = TrainConfig(seed=1, exact_q=q != "sampled")
        if mode == "fixed2":
            model = build_fixed_2_matryoshka(data, builtin_noisy_stump(), int(size), config)
        else:
            model, log = build_greedy_matryoshka(data, builtin_noisy_stump(), int(size), config=config)
            assert any(entry.action == "collect" for entry in log)
        save_model(model, tmp_path / "m.json")
        _check_digest(tmp_path / "m.json", digest)

    @pytest.mark.parametrize(
        "shape, digest",
        [
            ("ptree-128-edge", ("2f682e1b6551cfeb9c58315dc6e142131c97ef34b7700b43847d2c305b63a183",
                                 "37e9556ff617cdf180145ebe63a5f43014ba425f7be1d017cd1bb6210af1e741")),
            ("ptree-64-stump-exact",
             ("c16577093a5135683940c9ad42cf6adb99f1ad86ffcbef7849a2b4e4c4415f78",
              "5aa52eb0363b5dea072634d3dff4590c72baf1b309e63bafa3e2da380d017d07")),
            ("ptree-64-stump-sampled",
             ("0674e695b2faa18f7271b5a247c51e6c336ae57ebb3137bda4187356e893c6ea",
              "d67a1217a41176a75e65eb62c2f80ae2024ec02d2900231d5e405c7ba0cdac8b")),
            ("adaboost-3-sampled",
             ("d7af68d89249ec110a65975fae18fd831830a5a96bbcfa2fd2bc650c91057361",
              "7a5860d71bed9533b1c453970983dd94f2a693bdcc3226f70ba49b9a6e0869f1")),
        ],
        ids=["ptree-128-edge", "ptree-64-stump-exact", "ptree-64-stump-sampled", "adaboost-3-sampled"],
    )
    def test_plain_node_shapes_unchanged(self, tmp_path, shape, digest):
        # the exact-trees and sampled-boost shapes and noisy-stump ptrees: every
        # plain node's W, alphas, Z and child weights decide these bytes
        if shape == "adaboost-3-sampled":
            model = train_adaboost(make_synthetic_dataset(100, seed=1), builtin_noisy_stump(0.1), 3,
                                   TrainConfig(seed=1, estimator="map", strategy="A"))
        else:
            _, nodes, oracle, *q = shape.split("-")
            learner = builtin_constant_edge_oracle(0.3) if oracle == "edge" else builtin_noisy_stump(0.1)
            config = TrainConfig(seed=1, exact_q=q != ["sampled"])
            model = grow_tree(make_synthetic_dataset(40, seed=1), learner, max_nodes=int(nodes), config=config)
        save_model(model, tmp_path / "m.json")
        _check_digest(tmp_path / "m.json", digest)

    def test_foreign_rows_are_one_error_line(self, tmp_path):
        # as many rows as the training set, each moved off its training row
        header, *rows = (DATA / "edge_data.csv").read_text().splitlines()
        foreign = tmp_path / "other.csv"
        moved = [f"{float(row.split(',')[0]) + 0.5!r},{row.split(',', 1)[1]}" for row in rows]
        foreign.write_text("\n".join([header, *moved]) + "\n")
        # (AdaBoost's eval reads the stored q, not the rows it is given)
        for name in ("edge_ptree.json", "edge_fixed2.json", "edge_greedy.json"):
            save_model(load_model(DATA / name), tmp_path / name)  # and as a table
            for path in (DATA / name, tmp_path / name):
                code, lines = _eval_lines(path, foreign)
                assert code == 1
                assert lines == ["Error: constant-edge oracle only knows its training examples"]


def test_train_and_eval_in_separate_processes(tmp_path):
    # no state of the training process is needed to evaluate its file
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    cli = [sys.executable, "-m", "probboost.cli"]
    model = tmp_path / "m.json"
    train = subprocess.run(
        [*cli, "train", "--algo", "matryoshka", "--mode", "fixed2", "--L", "3", "--oracle",
         "constant-edge", "--exact-q", "--trials", "200", "--out", str(model)],
        env=env, capture_output=True, text=True, check=True,
    )
    evaluated = subprocess.run(
        [*cli, "eval", "--model", str(model), "--trials", "200"],
        env=env, capture_output=True, text=True, check=True,
    )
    recorded = next(line for line in train.stdout.splitlines() if line.startswith("recorded bound: "))
    assert f"recorded training bound: {recorded.split(': ')[1]}" in evaluated.stdout.splitlines()
    assert len(json.loads(model.read_text())["training_sets"]) == 1


def test_trained_file_does_not_depend_on_blas_threads(tmp_path):
    # the composite kernels call no BLAS, whose sums split over its threads;
    # at budget 28 the walk tables are long enough for OpenBLAS to split a dot
    digests = set()
    for threads in ("1", "2"):
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
            "OPENBLAS_NUM_THREADS": threads,
            "OMP_NUM_THREADS": threads,
        }
        model = tmp_path / f"greedy-{threads}.json"
        subprocess.run(
            [sys.executable, "-m", "probboost.cli", "train", "--algo", "matryoshka", "--mode", "greedy",
             "--T", "28", "--oracle", "constant-edge", "--epsilon", "0.3", "--exact-q", "--seed", "3",
             "--trials", "10", "--out", str(model)],
            env=env, capture_output=True, text=True, check=True,
        )
        assert '"kind": "composite"' in model.read_text()
        digests.add(hashlib.sha256(model.read_bytes()).hexdigest())
    assert len(digests) == 1
