"""Model files: one training-set table per file, and files from earlier versions."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from probboost.adaboost import TrainConfig, train_adaboost
from probboost.cli import main
from probboost.core import make_synthetic_dataset
from probboost.matryoshka import build_fixed_2_matryoshka, build_greedy_matryoshka
from probboost.persist import load_model, save_model
from probboost.ptree import grow_tree
from probboost.weak_learner import ConstantEdgeClassifier, builtin_constant_edge_oracle, builtin_noisy_stump

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
        # saved again, the rows are written once and the file evaluates alike
        save_model(model, tmp_path / name)
        assert len(json.loads((tmp_path / name).read_text())["training_sets"]) == 1
        assert _eval_lines(tmp_path / name) == (0, OLDER_FILES[name])


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
            assert '"features"' not in text and text.count(f'"training_set": "{key}"') == raw_nodes
            assert load_model(tmp_path / "m.json").to_record() == model.to_record()

    @pytest.mark.parametrize(
        "args, digest",
        [
            ("train --algo ptree --T 8 --seed 3",
             "d06e7f62d82a0884e2261bc2f2540e02cb1d46fd537046ae0ca7d85f85ab0473"),
            ("train --algo adaboost --T 4 --seed 3",
             "d3606e98a1ed241be833021ddfd59b58653a5bf4a78b9cea786e165268907820"),
            ("train --algo adaboost --T 4 --strategy B --seed 3",
             "94e8fae07ca20ee5626e4dc01bec76d446d6265ac3a4370648a85d20abdf2fde"),
            ("train --algo adaboost --T 4 --strategy B --estimator ml --seed 3",
             "bc243f9b5a660f1c2401f01c9f13d03b4d78dc3edf57eafe1050e6a446d48d43"),
            ("train --algo adaboost --T 4 --estimator ml --seed 3",
             "74690d04b67cefb166d2fc4cc140846265777d5e803eed283440ad380890b0f2"),
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
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "args, digest",
        [
            ("--mode fixed2 --L 4 --oracle constant-edge --epsilon 0.3 --exact-q --seed 3",
             "1ababc3412b0cc21a58013ab7429a6b30cd4338c1546b33c06dd37be0cbbd8e2"),
            ("--mode greedy --T 16 --oracle constant-edge --epsilon 0.3 --exact-q --seed 3",
             "6434ea02ac4fff372b466fa561544cdf1cbc04a3130109fd84439280f5f29630"),
            ("--mode fixed2 --L 3 --seed 3",
             "3e668941a12fd83121c1543de2ec84d5d7a31f01472f2945cd5b8dbe95351f9f"),
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
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "mode, size, n, oracle, digest",
        [
            ("fixed2", 6, 40, "constant-edge",
             "2875aa15af6d49c57220d6fdbea4e20763eb100c6304a24284a404bef2edc690"),
            ("greedy", 28, 20, "constant-edge",
             "079a3307b542fd4cfda114532c37bfdd1aaea47ed12534d3477c8ad4b13f957e"),
            ("fixed2", 5, 40, "stump",
             "0bc0883b626b976ee10ecd86d1e6b281c0bd41a664e7892a5c3727532c68ebe7"),
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
        assert hashlib.sha256((tmp_path / "m.json").read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "shape, digest",
        [
            ("ptree-128-edge", "5b485fd5b0e148c6ab0240c249aeafd919b1508ec8a179da1d6997036158a65d"),
            ("ptree-64-stump-exact", "5aa52eb0363b5dea072634d3dff4590c72baf1b309e63bafa3e2da380d017d07"),
            ("ptree-64-stump-sampled", "d67a1217a41176a75e65eb62c2f80ae2024ec02d2900231d5e405c7ba0cdac8b"),
            ("adaboost-3-sampled", "7a5860d71bed9533b1c453970983dd94f2a693bdcc3226f70ba49b9a6e0869f1"),
        ],
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
        assert hashlib.sha256((tmp_path / "m.json").read_bytes()).hexdigest() == digest

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
