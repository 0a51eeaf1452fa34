"""Command-line surface: figure CSVs, training, evaluation."""

import csv
import json
import math
import shutil
from pathlib import Path

import pytest
from click.testing import CliRunner

from probboost import adaboost, bounds, cli, ptree
from probboost.adaboost import TrainConfig, train_adaboost
from probboost.cli import _mc_loss, main
from probboost.core import RandomStream, make_synthetic_dataset
from probboost.matryoshka import TraceEvent, build_fixed_2_matryoshka
from probboost.persist import save_model
from probboost.ptree import grow_tree
from probboost.weak_learner import builtin_constant_edge_oracle, builtin_noisy_stump


@pytest.fixture
def runner():
    return CliRunner()


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


TRACE_KEYS = ["step", "action", "path", "alpha_plus", "alpha_minus", "Z", "Z_plus", "Z_minus", "C",
              "rate_simple", "rate_matryoshka"]


def _refuse_constant(token):
    raise ValueError(f"{token} is not strict JSON")


def _read_trace(path):
    """A `--log` trace, one strict-JSON object per line."""
    return [json.loads(line, parse_constant=_refuse_constant) for line in path.read_text().splitlines()]


def _replayed_leaf_sum(nodes, path=""):
    """C of a tree given as path -> (Z+, Z-): the sum of its leaves' Z products."""
    if path not in nodes:
        return 1.0
    z_plus, z_minus = nodes[path]
    return z_plus * _replayed_leaf_sum(nodes, path + "+") + z_minus * _replayed_leaf_sum(nodes, path + "-")


class TestBoundsFigure:
    def test_main_figure(self, runner, tmp_path):
        out = tmp_path / "fig.csv"
        result = runner.invoke(main, ["bounds-figure", "adaboost-vs-tree-vs-m2", "--out", str(out)])
        assert result.exit_code == 0, result.output
        header, rows = _read_csv(out)
        assert header[0] == "T"
        assert "F_31_32" in header and "adaboost_1_2" in header and "M2_1_4" in header
        assert [r[0] for r in rows] == [str(2**k) for k in range(11)]
        # at T = 1 all three curves coincide at rho
        first = dict(zip(header, rows[0]))
        assert float(first["F_1_2"]) == pytest.approx(0.5, abs=1e-12)
        assert float(first["adaboost_1_2"]) == pytest.approx(0.5, abs=1e-12)
        assert float(first["M2_1_2"]) == pytest.approx(0.5, abs=1e-12)
        # interior row matches the library directly
        row = dict(zip(header, rows[5]))  # T = 32
        assert float(row["F_3_4"]) == pytest.approx(bounds.bound_F(32, 0.75), rel=1e-12)

    def test_tree_of_trees(self, runner, tmp_path):
        out = tmp_path / "fig.csv"
        result = runner.invoke(main, ["bounds-figure", "tree-of-trees", "--out", str(out)])
        assert result.exit_code == 0, result.output
        header, rows = _read_csv(out)
        assert header == ["T", "T1", "nested_bound"]
        rho = 31 / 32
        for T in (64, 256, 1024):
            sub = {int(r[1]): float(r[2]) for r in rows if int(r[0]) == T}
            top = bounds.bound_F(T, rho)
            assert sub[1] == pytest.approx(top, rel=1e-12)
            assert sub[T] == pytest.approx(top, rel=1e-12)
            interior = {t1: v for t1, v in sub.items() if 1 < t1 < T}
            assert all(v < top for v in interior.values())

    def test_nesting_levels(self, runner, tmp_path):
        out = tmp_path / "fig.csv"
        result = runner.invoke(main, ["bounds-figure", "nesting-levels", "--out", str(out)])
        assert result.exit_code == 0, result.output
        header, rows = _read_csv(out)
        assert header == ["T", "L", "iso_bound", "iso_bound_integer"]
        for T in (1024, 65536):
            values = [float(r[2]) for r in rows if int(r[0]) == T]
            assert len(values) == int(math.log2(T))
            assert values[0] == pytest.approx(bounds.bound_F(T, 31 / 32), rel=1e-12)
            assert all(b < a for a, b in zip(values, values[1:]))

    def test_figures_regenerate_identically(self, runner, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            runner.invoke(main, ["bounds-figure", "tree-of-trees", "--out", str(p)])
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_bad_name(self, runner, tmp_path):
        result = runner.invoke(main, ["bounds-figure", "no-such", "--out", str(tmp_path / "x.csv")])
        assert result.exit_code != 0


class TestRatesReport:
    def test_report(self, runner, tmp_path):
        out = tmp_path / "rates.csv"
        result = runner.invoke(
            main, ["rates-report", "--rho", "0.5", "--t-max", "8", "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        header, rows = _read_csv(out)
        assert header == ["T", "C", "rate_simple", "rate_matryoshka"]
        assert len(rows) == 8
        first = rows[0]
        assert float(first[1]) == pytest.approx(0.5, rel=1e-12)
        # both rates negative along a decreasing curve
        assert float(first[2]) < 0.0 and float(first[3]) < 0.0


class TestTrain:
    def test_adaboost_deterministic_files(self, runner, tmp_path):
        files = [tmp_path / "m1.json", tmp_path / "m2.json"]
        for f in files:
            result = runner.invoke(
                main,
                ["train", "--algo", "adaboost", "--T", "5", "--seed", "7", "--out", str(f)],
            )
            assert result.exit_code == 0, result.output
        assert files[0].read_bytes() == files[1].read_bytes()

    def test_ptree_bound_below_F(self, runner, tmp_path):
        result = runner.invoke(
            main,
            [
                "train", "--algo", "ptree", "--oracle", "constant-edge",
                "--epsilon", "0.3", "--exact-q", "--T", "16",
                "--trials", "200",
            ],
        )
        assert result.exit_code == 0, result.output
        line = next(l for l in result.output.splitlines() if l.startswith("recorded bound:"))
        bound = float(line.split(":")[1])
        assert bound <= bounds.bound_F(16, 0.8) + 1e-9

    def test_matryoshka_budget_line(self, runner):
        result = runner.invoke(
            main,
            [
                "train", "--algo", "matryoshka", "--mode", "fixed2", "--L", "3",
                "--oracle", "constant-edge", "--epsilon", "0.3", "--exact-q",
                "--trials", "100",
            ],
        )
        assert result.exit_code == 0, result.output
        assert "weak-learner budget: 8 calls" in result.output

    def test_adaboost_log(self, runner, tmp_path):
        log = tmp_path / "log.jsonl"
        result = runner.invoke(
            main,
            [
                "train", "--algo", "adaboost", "--oracle", "constant-edge",
                "--epsilon", "0.3", "--exact-q", "--T", "4",
                "--log", str(log), "--trials", "100",
            ],
        )
        assert result.exit_code == 0, result.output
        events = _read_trace(log)
        assert [list(event) for event in events] == [TRACE_KEYS] * 4
        assert [event["action"] for event in events] == ["stage"] * 4
        running = 1.0
        for event in events:
            running *= event["Z"]
            assert event["C"] == pytest.approx(running, rel=1e-12)

    def test_ptree_log_in_growth_order(self, runner, tmp_path):
        # the ptree and the top tree of a fixed-2 matryoshka share one log format
        cases = [
            (
                ["--algo", "ptree", "--T", "6"],
                lambda ds, cfg: grow_tree(ds, builtin_noisy_stump(0.1), max_nodes=6, config=cfg),
            ),
            (
                ["--algo", "matryoshka", "--mode", "fixed2", "--L", "2", "--oracle", "constant-edge"],
                lambda ds, cfg: build_fixed_2_matryoshka(ds, builtin_constant_edge_oracle(0.2), 2, cfg),
            ),
        ]
        for args, build in cases:
            log = tmp_path / "log.jsonl"
            result = runner.invoke(
                main,
                ["train", *args, "--seed", "0", "--exact-q", "--log", str(log), "--trials", "10"],
            )
            assert result.exit_code == 0, result.output
            events = _read_trace(log)
            assert all(list(event) == TRACE_KEYS and event["action"] == "grow" for event in events)
            tree = build(make_synthetic_dataset(seed=0), TrainConfig(seed=0, exact_q=True))
            assert [event["path"] for event in events] == list(tree.nodes)
            for event, node, c in zip(events, tree.nodes.values(), tree.trajectory[1:]):
                assert [event["Z_plus"], event["Z_minus"], event["C"]] == [node.z_plus, node.z_minus, c]
                assert [event["alpha_plus"], event["alpha_minus"]] == [node.alpha_plus, node.alpha_minus]
            log.unlink()

    @pytest.mark.parametrize(
        "args",
        [
            ["--algo", "adaboost", "--T", "6"],
            ["--algo", "adaboost", "--T", "6", "--strategy", "B"],
            ["--algo", "ptree", "--T", "8"],
            ["--algo", "matryoshka", "--mode", "fixed2", "--L", "2", "--oracle", "constant-edge", "--exact-q"],
            ["--algo", "matryoshka", "--mode", "greedy", "--T", "16", "--oracle", "constant-edge",
             "--epsilon", "0.3", "--exact-q", "--seed", "3"],
            # C falls to 1e-17, so grows whose update cancels restate C as the leaf sum
            ["--algo", "ptree", "--T", "16", "--p-flip", "0", "--exact-q", "--seed", "1"],
        ],
        ids=["adaboost-A", "adaboost-B", "ptree", "fixed2", "greedy", "ptree-noiseless"],
    )
    def test_trace_replays_C(self, runner, tmp_path, args):
        log = tmp_path / "trace.jsonl"
        result = runner.invoke(main, ["train", *args, "--log", str(log), "--trials", "10"])
        assert result.exit_code == 0, result.output
        events = _read_trace(log)
        nodes: dict[str, tuple[float, float]] = {}  # the tree replayed so far: path -> (Z+, Z-)
        c, restated = 1.0, 0
        for event in events:
            assert list(event) == TRACE_KEYS
            action, path = event["action"], event["path"]
            if action == "stage":
                assert path is None and event["Z_plus"] is None and event["Z_minus"] is None
                assert event["C"] == c * event["Z"]
            else:
                assert event["Z"] is None
                if action == "grow":
                    prefix = 1.0
                    for depth, edge in enumerate(path):
                        prefix *= nodes[path[:depth]][0 if edge == "+" else 1]
                    # the update, unless it cancelled and C was restated (below)
                    incremental = event["C"] == c + prefix * (event["Z_plus"] + event["Z_minus"] - 1.0)
                    restated += not incremental
                else:
                    assert action == "collect"
                    nodes = {p: z for p, z in nodes.items() if not p.startswith(path)}
                nodes[path] = (event["Z_plus"], event["Z_minus"])
                if action == "collect" or not incremental:
                    assert event["C"] == pytest.approx(_replayed_leaf_sum(nodes), rel=1e-12, abs=0.0)
            # the rates are a collect's alone
            assert (event["rate_simple"] is None) == (event["rate_matryoshka"] is None) == (action != "collect")
            c = event["C"]
        recorded = next(line for line in result.output.splitlines() if line.startswith("recorded bound: "))
        assert c == float(recorded[len("recorded bound: "):])
        assert (restated > 0) == ("--p-flip" in args)
        if "greedy" in args:
            assert any(event["action"] == "collect" for event in events)

    def test_trace_writes_non_finite_as_null(self):
        event = TraceEvent(1, "grow", "", 1.0, math.inf, None, math.nan, 0.25, math.nan)
        text = event.to_json()
        assert "NaN" not in text and "Infinity" not in text
        assert json.loads(text, parse_constant=_refuse_constant) == dict(
            zip(TRACE_KEYS, [1, "grow", "", 1.0, None, None, None, 0.25, None, None, None])
        )

    def test_look_cap_stop_is_reported(self, runner, monkeypatch):
        monkeypatch.setattr(adaboost, "R_MAX_DEFAULT", 1)
        args = ["train", "--algo", "adaboost", "--T", "3", "--strategy", "B", "--seed", "3", "--trials", "10"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert "stopped after 1 of 3 stages: strategy B's look cap bound\n" in result.output
        monkeypatch.undo()  # the real cap does not bind, and no line is printed
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert "stopped after" not in result.output

    def test_missing_T_rejected(self, runner):
        result = runner.invoke(main, ["train", "--algo", "adaboost"])
        assert result.exit_code != 0

    def test_strategy_b_with_exact_q_rejected(self, runner):
        result = runner.invoke(
            main, ["train", "--algo", "adaboost", "--T", "2", "--strategy", "B", "--exact-q"]
        )
        assert result.exit_code == 1
        assert "Error: strategy B samples q" in result.output


class TestEval:
    def test_round_trip_adaboost(self, runner, tmp_path):
        model = tmp_path / "m.json"
        r = runner.invoke(
            main,
            [
                "train", "--algo", "adaboost", "--oracle", "constant-edge",
                "--epsilon", "0.3", "--exact-q", "--T", "4",
                "--seed", "3", "--out", str(model), "--trials", "100",
            ],
        )
        assert r.exit_code == 0, r.output
        r = runner.invoke(
            main, ["eval", "--model", str(model), "--trials", "400", "--seed", "3"]
        )
        assert r.exit_code == 0, r.output
        lines = {l.split(":")[0]: l for l in r.output.splitlines() if ":" in l}
        exact = float(lines["exact exponential bound"].split(":")[1])
        recorded = float(lines["recorded training bound"].split(":")[1])
        assert exact == pytest.approx(recorded, abs=1e-10)

    def test_round_trip_tree(self, runner, tmp_path):
        model = tmp_path / "t.json"
        r = runner.invoke(
            main,
            [
                "train", "--algo", "ptree", "--oracle", "constant-edge",
                "--epsilon", "0.3", "--exact-q", "--T", "5",
                "--seed", "2", "--out", str(model), "--trials", "100",
            ],
        )
        assert r.exit_code == 0, r.output
        r = runner.invoke(
            main, ["eval", "--model", str(model), "--trials", "300", "--seed", "2"]
        )
        assert r.exit_code == 0, r.output
        lines = {l.split(":")[0]: l for l in r.output.splitlines() if ":" in l}
        exact = float(lines["exact exponential bound"].split(":")[1])
        recorded = float(lines["recorded training bound"].split(":")[1])
        assert exact == pytest.approx(recorded, abs=1e-10)

    def test_dimension_mismatch(self, runner, tmp_path):
        model = tmp_path / "t.json"
        data = tmp_path / "d.csv"
        data.write_text("f0,label\n0.0,1\n1.0,-1\n")
        r = runner.invoke(
            main,
            [
                "train", "--algo", "ptree", "--oracle", "stump", "--T", "2",
                "--out", str(model), "--trials", "50",
            ],
        )
        assert r.exit_code == 0, r.output
        r = runner.invoke(main, ["eval", "--model", str(model), "--data", str(data)])
        assert r.exit_code != 0
        assert "dimension" in r.output

    def test_adaboost_dimension_mismatch(self, runner, tmp_path):
        # 40 rows, as many as the model's training set, so only the
        # dimension tells the data apart
        model = tmp_path / "a.json"
        data = tmp_path / "d.csv"
        rows = [f"{n},{-n},{n % 3},{1 if n % 2 else -1}" for n in range(40)]
        data.write_text("\n".join(["f0,f1,f2,label", *rows]) + "\n")
        save_model(train_adaboost(make_synthetic_dataset(seed=0), builtin_noisy_stump(0.1), 2), model)
        assert json.loads(model.read_text())["metadata"]["dimension"] == 2
        r = runner.invoke(main, ["eval", "--model", str(model), "--data", str(data)])
        assert r.exit_code == 1
        assert r.output == "Error: dataset dimension 3 does not match model (2)\n"


def _zero_weight_csv(path):
    """``make_synthetic_dataset(20, seed=3)`` with weight 1 on its first row and 0 on the rest."""
    dataset = make_synthetic_dataset(20, seed=3)
    rows = [f"{f0!r},{f1!r},{label},{int(n == 0)}"
            for n, ((f0, f1), label) in enumerate(zip(dataset.features.tolist(), dataset.labels.tolist()))]
    path.write_text("\n".join(["f0,f1,label,weight", *rows]) + "\n")


class TestZeroWeightRows:
    """Rows of weight 0 add nothing to an exact bound, even where the product
    of a row's edge factors overflows: eval prints the recorded bound, not nan."""

    @pytest.mark.parametrize("args, recorded", [
        (["--algo", "matryoshka", "--mode", "fixed2", "--L", "3", "--oracle", "constant-edge",
          "--epsilon", "0.3"], 1.0642371728110667e-278),
        (["--algo", "adaboost", "--T", "128", "--oracle", "stump", "--p-flip", "0"], 0.0),
    ], ids=["fixed2-L3", "adaboost-T128"])
    def test_exact_bound_is_the_recorded_bound(self, runner, tmp_path, args, recorded):
        data, model = tmp_path / "zero-weights.csv", tmp_path / "m.json"
        _zero_weight_csv(data)
        r = runner.invoke(main, ["train", *args, "--exact-q", "--seed", "1", "--data", str(data),
                                 "--out", str(model), "--trials", "50"])
        assert r.exit_code == 0, r.output
        r = runner.invoke(main, ["eval", "--model", str(model), "--data", str(data), "--trials", "50"])
        assert r.exit_code == 0, r.output
        values = dict(line.split(": ", 1) for line in r.output.splitlines())
        assert float(values["recorded training bound"]) == recorded
        assert float(values["exact exponential bound"]) == recorded


class TestTreeMcLoss:
    def test_composite_beyond_walk_table_cap(self):
        # the root composite has 69,065 inner walks, so a table of its
        # walks on 200 rows would pass the cap; a walk descends instead
        model = build_fixed_2_matryoshka(
            make_synthetic_dataset(40, seed=0), builtin_noisy_stump(0.1), 6, TrainConfig(exact_q=True)
        )
        reach, _, classes = model.nodes[""].classifier.leaf_table
        assert reach[classes].shape == (40, 69_065)
        loss, se = _mc_loss(model, make_synthetic_dataset(200, seed=5), 2, 1)
        assert 0.0 <= loss <= 1.0 and math.isfinite(se)

    def test_no_generator_per_draw(self, monkeypatch):
        calls = []
        generator = RandomStream.generator

        def counted(stream, *args, **kwargs):
            calls.append(args)
            return generator(stream, *args, **kwargs)

        monkeypatch.setattr(RandomStream, "generator", counted)
        data = make_synthetic_dataset(seed=0)
        tree = build_fixed_2_matryoshka(data, builtin_noisy_stump(0.1), 2, TrainConfig(exact_q=True))
        calls.clear()
        _mc_loss(tree, data, 50, 3)
        assert calls == []


class TestInputErrors:
    @pytest.fixture
    def files(self, tmp_path):
        data = make_synthetic_dataset(seed=0)
        paths = {"ada": tmp_path / "ada.json", "tree": tmp_path / "tree.json",
                 "edge": tmp_path / "edge.json", "fixed2": tmp_path / "fixed2.json",
                 "old-edge": tmp_path / "old-edge.json", "out": tmp_path / "r.csv",
                 "short": tmp_path / "short.csv", "bad": tmp_path / "bad.csv",
                 "nan": tmp_path / "nan.csv", "d0": tmp_path / "d0.csv"}
        save_model(train_adaboost(data, builtin_noisy_stump(0.1), 2), paths["ada"])
        save_model(grow_tree(data, builtin_noisy_stump(0.1), max_nodes=2), paths["tree"])
        save_model(grow_tree(data, builtin_constant_edge_oracle(0.3), max_nodes=2), paths["edge"])
        save_model(build_fixed_2_matryoshka(data, builtin_noisy_stump(0.1), 2, TrainConfig(exact_q=True)),
                   paths["fixed2"])
        # an older constant-edge file, whose records carry their rows inline
        shutil.copyfile(Path(__file__).parent / "data" / "edge_ptree.json", paths["old-edge"])
        paths["short"].write_text("f0,f1,label\n0.5,0.5,1\n-0.5,-0.5,-1\n-1.0,0.0,-1\n")
        paths["bad"].write_text("f0,f1,label\n0.5,0.5\n")
        paths["nan"].write_text("f0,f1,label,weight\n0.5,0.5,1,1\n-0.5,-0.5,-1,nan\n")
        paths["d0"].write_text("label\n1\n-1\n1\n")
        return paths

    @pytest.mark.parametrize(
        "args, message",
        [
            ("eval --model {tree} --data {short}", "dataset size does not match"),
            ("eval --model {ada} --data {short}", "dataset size does not match"),
            ("train --algo ptree --T 2 --data {bad}", "expected 3 fields"),
            ("eval --model {tree} --data {bad}", "expected 3 fields"),
            ("train --algo ptree --T 2 --data {nan}", "row 3: non-finite value"),
            # a file whose only column is the label has no feature to split on
            ("train --algo ptree --T 2 --data {d0} --oracle constant-edge --exact-q", "at least one column"),
            ("train --algo adaboost --T 2 --data {d0} --strategy B", "at least one column"),
            ("train --algo adaboost --T 0", "T must be >= 1"),
            ("train --algo ptree --T 0", "max_nodes must be >= 1"),
            ("train --algo matryoshka --L 0", "L must be >= 1"),
            ("train --algo adaboost --T 2 --oracle constant-edge --epsilon 0.7", "epsilon"),
            ("eval --model {ada} --trials 0", "trials must be >= 1"),
            ("eval --model {tree} --trials 0", "trials must be >= 1"),
            ("eval --model {ada} --trials 4294967296", "trials must be >= 1 and below 2^32"),
            # seed 4 makes other examples than the oracle was trained on
            ("eval --model {edge} --seed 4", "only knows its training examples"),
            ("rates-report --rho 1.5 --out {out}", "rho must be in [0, 1), got 1.5"),
            ("rates-report --rho 0 --out {out}", "C must be in (0, 1], got 0.0"),
            ("rates-report --t-max 0 --out {out}", "--t-max must be >= 1, got 0"),
            ("rates-report --t-max -2 --out {out}", "--t-max must be >= 1, got -2"),
            # a synthetic dataset needs a seed >= 0; training seeds may be negative
            ("train --algo matryoshka --L 2 --seed -1", "--seed must be >= 0 for a synthetic dataset"),
            ("eval --model {tree} --seed -3", "--seed must be >= 0 for a synthetic dataset"),
            # an option that the trainer or the oracle would ignore, defaults or not
            ("train --algo adaboost --T 3 --L 4", "Error: --L does not apply to adaboost\n"),
            ("train --algo matryoshka --mode fixed2 --L 2 --T 3", "Error: --T does not apply to fixed-2 matryoshka\n"),
            ("train --algo ptree --T 3 --mode greedy", "Error: --mode does not apply to ptree\n"),
            ("train --algo ptree --T 3 --epsilon 0.2", "Error: --epsilon does not apply to the stump oracle\n"),
            ("train --algo ptree --T 3 --oracle constant-edge --p-flip 0.1",
             "Error: --p-flip does not apply to the constant-edge oracle\n"),
        ],
    )
    def test_one_line_error(self, runner, files, args, message):
        result = runner.invoke(main, args.format(**files).split())
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # reported, not raised
        assert result.output.startswith("Error: ") and message in result.output
        assert "Traceback" not in result.output

    @staticmethod
    def _parent(record, key_path):
        """What holds the last key of ``key_path``; a classifier that records
        repeat is an index into the ``classifiers`` table, and read there."""
        parent = record
        for key in key_path[:-1]:
            parent = parent[key]
            if key == "classifier" and isinstance(parent, int):
                parent = record["classifiers"][parent]
        return parent

    @staticmethod
    def _delete(*key_path):
        def edit(record):
            del TestInputErrors._parent(record, key_path)[key_path[-1]]
            return record

        return edit

    @staticmethod
    def _flip_first_table_label(record):
        entry = next(iter(record["training_sets"].values()))
        entry["labels"][0] *= -1
        return record

    @staticmethod
    def _set(value, *key_path):
        def edit(record):
            TestInputErrors._parent(record, key_path)[key_path[-1]] = value
            return record

        return edit

    @staticmethod
    def _set_in_table(value, *key_path):
        """``_set`` on the first entry of the ``training_sets`` table."""
        def edit(record):
            TestInputErrors._set(value, *key_path)(next(iter(record["training_sets"].values())))
            return record

        return edit

    @staticmethod
    def _set_every_q(value):
        def edit(record):
            for node in record["nodes"].values():
                node["q_plus"] = [value] * len(node["q_plus"])
            return record

        return edit

    @staticmethod
    def _edit_q_index(edit):
        """``edit`` of the root node's or first stage's ``q_index``, given it and the
        count of stored q values; the fixture's sampled q repeats values, so it has one."""
        def edit_record(record):
            plain = record["nodes"][""] if "nodes" in record else record["stages"][0]
            plain["q_index"] = edit(plain["q_index"], len(plain["q_plus"]))
            return record

        return edit_record

    @pytest.mark.parametrize(
        "model, edit, message",
        [
            ("tree", _delete("nodes"), "malformed ptree record (KeyError: 'nodes')"),
            ("ada", _delete("stages", 0, "classifier", "feature"),
             "malformed adaboost record (KeyError: 'feature')"),
            ("tree", _delete("nodes", "", "z_minus"), "malformed ptree record (KeyError: 'z_minus')"),
            ("tree", lambda record: [record], "a model file holds one JSON object"),
            ("tree", lambda record: {**record, "metadata": []},
             "malformed ptree record (TypeError: metadata must be a JSON object)"),
            ("ada", lambda record: {**record, "metadata": []},
             "malformed adaboost record (TypeError: metadata must be a JSON object)"),
            ("edge", _flip_first_table_label, "malformed training set"),
            ("edge", _delete("training_sets"), "malformed constant-edge record: training set"),
            # every number is decoded where the record is read
            ("tree", _set("x", "nodes", "", "alpha_plus"),
             "malformed ptree record (TypeError: alpha_plus must be a number, got 'x')"),
            ("tree", _set(None, "nodes", "", "alpha_plus"),
             "malformed ptree record (TypeError: alpha_plus must be a number, got None)"),
            ("tree", _set(10**400, "nodes", "", "alpha_plus"),
             "malformed ptree record (OverflowError: int too large to convert to float)"),
            ("tree", _set(None, "nodes", "", "q_plus"),
             "malformed ptree record (TypeError: q_plus must be a list of numbers in [0, 1])"),
            ("ada", _set(None, "stages", 0, "q_plus"),
             "malformed adaboost record (TypeError: q_plus must be a list of numbers in [0, 1])"),
            ("tree", lambda record: TestInputErrors._delete("nodes", "", "q_index")(
                TestInputErrors._set(None, "nodes", "", "q_plus")(record)),
             "malformed ptree record (TypeError: q_plus must be a list of numbers in [0, 1])"),
            # a null beside a q_index is refused where the file could rebuild q too
            ("edge", lambda record: TestInputErrors._set(None, "nodes", "", "q_plus")(
                TestInputErrors._edit_q_index(lambda index, k: index)(record)),
             "malformed ptree record (TypeError: q_plus must be a list of numbers in [0, 1])"),
            # q_index: a list of ints, each an index of the stored q values
            ("tree", _edit_q_index(lambda index, k: [float(i) for i in index]),
             "malformed ptree record (TypeError: q_index must be a list of ints in [0, "),
            ("ada", _edit_q_index(lambda index, k: [i > 0 for i in index]),
             "malformed adaboost record (TypeError: q_index must be a list of ints in [0, "),
            ("tree", _edit_q_index(lambda index, k: [[i] for i in index]),
             "malformed ptree record (TypeError: q_index must be a list of ints in [0, "),
            ("tree", _edit_q_index(lambda index, k: [[0], *index[1:]]),
             "malformed ptree record (TypeError: q_index must be a list of ints in [0, "),
            ("tree", _edit_q_index(lambda index, k: [-1, *index[1:]]),
             "malformed ptree record (TypeError: q_index must be a list of ints in [0, "),
            ("ada", _edit_q_index(lambda index, k: [*index[:-1], k]),
             "malformed adaboost record (TypeError: q_index must be a list of ints in [0, "),
            ("tree", _edit_q_index(lambda index, k: "0"),
             "malformed ptree record (TypeError: q_index must be a list of ints in [0, "),
            ("tree", _set_every_q(2.0),
             "malformed ptree record (TypeError: q_plus must be a list of numbers in [0, 1])"),
            ("tree", _set("a", "nodes", "", "classifier", "feature"),
             "malformed ptree record (TypeError: feature must be an int >= 0, got 'a')"),
            ("tree", _set(9, "nodes", "", "classifier", "feature"),
             "malformed ptree record (TypeError: feature must be below the model's dimension 2, got 9)"),
            ("ada", _set(2, "stages", 0, "classifier", "feature"),
             "malformed adaboost record (TypeError: feature must be below the model's dimension 2, got 2)"),
            ("tree", _set(2, "nodes", "", "classifier", "p_flip"),
             "malformed ptree record (TypeError: p_flip must be in [0, 0.5), got 2)"),
            ("tree", _set(["a"], "trajectory"),
             "malformed ptree record (TypeError: trajectory must be a number, got 'a')"),
            ("ada", _set("a", "stages", 0, "z"),
             "malformed adaboost record (TypeError: z must be a number, got 'a')"),
            ("edge", _set(0.7, "nodes", "", "classifier", "epsilon"),
             "malformed ptree record (TypeError: epsilon must be in (0, 0.5], got 0.7)"),
            # the records inside a composite are read as the top-level ones
            ("fixed2", _set(9, "nodes", "", "classifier", "inner", "nodes", "", "classifier", "feature"),
             "malformed matryoshka record (TypeError: feature must be below the model's dimension 2, got 9)"),
            ("fixed2", _delete("nodes", "", "classifier", "inner", "nodes", "", "z_minus"),
             "malformed matryoshka record (KeyError: 'z_minus')"),
            ("fixed2", _set("x", "nodes", "", "classifier", "inner", "nodes", "", "alpha_plus"),
             "malformed matryoshka record (TypeError: alpha_plus must be a number, got 'x')"),
            # rows and labels that numpy cannot read, in the table or inline
            ("edge", _set_in_table("a", "features", 0, 0),
             "malformed ptree record (TypeError: malformed training set: "),
            ("edge", _set_in_table("x", "labels", 0),
             "malformed ptree record (TypeError: malformed training set: "),
            ("edge", _set_in_table([0.5], "features", 0),
             "malformed ptree record (TypeError: malformed training set: "),
            ("old-edge", _set("a", "nodes", "", "classifier", "features", 0, 0),
             "malformed ptree record (TypeError: malformed training set: "),
            # the ValueErrors of decoding name the file and the record kind too
            ("tree", lambda record: {**record, "nodes": {**record["nodes"], "+x": record["nodes"][""]}},
             "malformed ptree record (ValueError: path index must consist of '+'/'-', got '+x')"),
            ("tree", lambda record: {**record, "nodes": {**record["nodes"], "+-+": record["nodes"][""]}},
             "malformed ptree record (ValueError: node '+-+' has no parent in the record)"),
            ("tree", _set("tree", "nodes", "", "classifier", "kind"),
             "malformed ptree record (ValueError: unknown classifier kind 'tree')"),
            ("tree", _set("tree", "kind"), "tree.json: unknown model kind 'tree'"),
            # the edge fixture's two nodes repeat one classifier record: each names index 0
            ("edge", _set(1, "nodes", "", "classifier"),
             "malformed ptree record (TypeError: classifier must be a record or an index in [0, 1), got 1)"),
            ("edge", _set(-1, "nodes", "", "classifier"),
             "malformed ptree record (TypeError: classifier must be a record or an index in [0, 1), got -1)"),
            ("edge", _set(False, "nodes", "", "classifier"),
             "malformed ptree record (TypeError: classifier must be a record or an index in [0, 1), got False)"),
            ("edge", _set(0.0, "nodes", "", "classifier"),
             "malformed ptree record (TypeError: classifier must be a record or an index in [0, 1), got 0.0)"),
            ("edge", _set("0", "nodes", "", "classifier"),
             "malformed ptree record (TypeError: classifier must be a record or an index in [0, 1), got '0')"),
            ("tree", _set(0, "nodes", "", "classifier"),
             "malformed ptree record (TypeError: classifier must be a record or an index in [0, 0), got 0)"),
            ("edge", lambda record: {**record, "classifiers": {"0": record["classifiers"][0]}},
             "malformed ptree record (TypeError: classifiers must be a list of plain classifier records)"),
            ("edge", lambda record: {**record, "classifiers": [0]},
             "malformed ptree record (TypeError: classifiers must be a list of plain classifier records)"),
            ("fixed2", lambda record: {**record, "classifiers": [record["nodes"][""]["classifier"]]},
             "malformed matryoshka record (ValueError: unknown classifier kind 'composite')"),
            ("edge", _set("tree", "classifiers", 0, "kind"),
             "malformed ptree record (ValueError: unknown classifier kind 'tree')"),
        ],
        ids=["no-nodes", "no-stump-feature", "no-z-minus", "json-list", "tree-metadata-list",
             "ada-metadata-list", "fingerprint-mismatch", "missing-training-set", "alpha-string", "alpha-null",
             "alpha-past-float", "q-null", "ada-q-null", "q-null-no-index", "edge-q-null-beside-index",
             "q-index-floats", "ada-q-index-bools", "q-index-nested", "q-index-ragged", "q-index-negative",
             "ada-q-index-past-values", "q-index-string", "q-above-one", "feature-string", "feature-beyond-columns",
             "ada-feature-beyond-columns", "p-flip-two", "trajectory-string", "ada-z-string",
             "epsilon-above-half", "inner-feature-beyond-columns", "inner-no-z-minus", "inner-alpha-string",
             "table-feature-string", "table-label-string", "table-row-ragged", "inline-feature-string",
             "path-not-signs", "orphan-node", "unknown-classifier-kind", "unknown-model-kind",
             "index-past-table", "index-negative", "index-bool", "index-float", "index-string", "index-without-table",
             "table-not-list", "table-entry-not-record", "table-composite", "table-unknown-kind"],
    )
    def test_malformed_model_file(self, runner, files, model, edit, message):
        record = edit(json.loads(files[model].read_text()))
        files[model].write_text(json.dumps(record))
        result = runner.invoke(main, ["eval", "--model", str(files[model])])
        assert result.exit_code == 1
        assert result.output.startswith("Error: ") and message in result.output
        assert len(result.output.splitlines()) == 1
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("model", ["tree", "ada"])
    @pytest.mark.parametrize("change", [-1, 1])
    def test_q_index_of_another_length(self, runner, files, model, change):
        # a q_index one example short or long reads as a model of another dataset
        record = self._edit_q_index(lambda index, k: index[:-1] if change < 0 else [*index, 0])(
            json.loads(files[model].read_text()))
        files[model].write_text(json.dumps(record))
        result = runner.invoke(main, ["eval", "--model", str(files[model])])
        assert result.exit_code == 1
        assert result.output == "Error: dataset size does not match the stored model\n"

    def test_non_finite_numbers_load(self, runner, files):
        # training records nan where a bound cancels or an edge's 0 * inf
        # is nan, and inf where a value overflows; eval prints them
        record = json.loads(files["tree"].read_text())
        record["trajectory"][-1] = math.nan
        record["nodes"][""].update(z_plus=math.nan, z_minus=math.inf)
        record["nodes"][""]["classifier"]["threshold"] = math.inf
        files["tree"].write_text(json.dumps(record))
        result = runner.invoke(main, ["eval", "--model", str(files["tree"])])
        assert result.exit_code == 0, result.output
        assert result.output.splitlines()[-1] == "recorded training bound: nan"

    def test_non_json_model_file(self, runner, tmp_path):
        text = tmp_path / "notes.md"
        text.write_text("# not a model\n")
        result = runner.invoke(main, ["eval", "--model", str(text)])
        assert result.exit_code == 1
        assert result.output == f"Error: {text}: not a JSON model file (Expecting value: line 1 column 1 (char 0))\n"

    @pytest.mark.parametrize(
        "args, name",
        [
            (["train", "--algo", "ptree", "--T", "3", "--exact-q", "--oracle", "constant-edge", "--out"], "m.json"),
            (["train", "--algo", "ptree", "--T", "3", "--exact-q", "--oracle", "constant-edge", "--log"], "t.jsonl"),
            (["bounds-figure", "tree-of-trees", "--out"], "x.csv"),
        ],
        ids=["train-out", "train-log", "bounds-figure"],
    )
    def test_unwritable_output_path(self, runner, tmp_path, args, name):
        path = tmp_path / "no-such-dir" / name
        result = runner.invoke(main, [*args, str(path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # reported, not raised
        assert result.output == f"Error: {path}: No such file or directory\n"

    @pytest.mark.parametrize("algo", [["adaboost", "--T", "2"], ["ptree", "--T", "2"],
                                      ["matryoshka", "--L", "2"]], ids=lambda a: a[0])
    def test_trials_checked_before_training(self, runner, tmp_path, monkeypatch, algo):
        def untrained(*args, **kwargs):
            raise AssertionError("trained before --trials was checked")

        for name in ("train_adaboost", "grow_tree", "build_fixed_2_matryoshka"):
            monkeypatch.setattr(cli, name, untrained)
        out = tmp_path / "m.json"
        for trials in ("0", str(2**32)):
            result = runner.invoke(main, ["train", "--algo", *algo, "--trials", trials, "--out", str(out)])
            assert result.exit_code == 1
            assert result.output == f"Error: trials must be >= 1 and below 2^32, got {trials}\n"
            assert not out.exists()

    def test_nesting_too_deep(self, runner, monkeypatch):
        # the walk-table cap is reported as bad input, not as the learner's
        # failure; a low cap keeps the case small
        monkeypatch.setattr(ptree, "MAX_WALK_ENTRIES", 200)
        for mode in (["--mode", "fixed2", "--L", "3"], ["--mode", "greedy", "--T", "12"]):
            result = runner.invoke(main, ["train", "--algo", "matryoshka", *mode, "--oracle",
                                          "constant-edge", "--epsilon", "0.3", "--exact-q"])
            assert result.exit_code == 1
            assert result.output.startswith("Error: walk table exceeds 200 entries; nesting too deep")
            assert "Traceback" not in result.output

    def test_trees_reject_strategy_b(self, runner):
        for algo in (["ptree", "--T", "2"], ["matryoshka", "--L", "2"],
                     ["matryoshka", "--mode", "greedy", "--T", "3"]):
            result = runner.invoke(main, ["train", "--algo", *algo, "--strategy", "B"])
            assert result.exit_code == 1
            assert "Error: strategy B is for AdaBoost" in result.output
