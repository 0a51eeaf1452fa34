"""Command-line surface: figure CSVs, training, evaluation."""

import csv
import json
import math

import pytest
from click.testing import CliRunner

from probboost import bounds, ptree
from probboost.adaboost import TrainConfig, train_adaboost
from probboost.cli import _tree_mc_loss, main
from probboost.core import RandomStream, make_synthetic_dataset
from probboost.matryoshka import build_fixed_2_matryoshka
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
        log = tmp_path / "log.csv"
        result = runner.invoke(
            main,
            [
                "train", "--algo", "adaboost", "--oracle", "constant-edge",
                "--epsilon", "0.3", "--exact-q", "--T", "4",
                "--log", str(log), "--trials", "100",
            ],
        )
        assert result.exit_code == 0, result.output
        header, rows = _read_csv(log)
        assert header == ["round", "Z", "alpha_plus", "alpha_minus", "bound_so_far"]
        assert len(rows) == 4
        running = 1.0
        for row in rows:
            running *= float(row[1])
            assert float(row[4]) == pytest.approx(running, rel=1e-12)

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
            log = tmp_path / "log.csv"
            result = runner.invoke(
                main,
                ["train", *args, "--seed", "0", "--exact-q", "--log", str(log), "--trials", "10"],
            )
            assert result.exit_code == 0, result.output
            header, rows = _read_csv(log)
            assert header == ["step", "leaf", "Z_plus", "Z_minus", "C"]
            tree = build(make_synthetic_dataset(seed=0), TrainConfig(seed=0, exact_q=True))
            assert [row[1] for row in rows] == [p or "root" for p in tree.nodes]
            for row, node, c in zip(rows, tree.nodes.values(), tree.trajectory[1:]):
                assert [float(v) for v in row[2:]] == [node.z_plus, node.z_minus, c]
            log.unlink()

    def test_missing_T_rejected(self, runner):
        result = runner.invoke(main, ["train", "--algo", "adaboost"])
        assert result.exit_code != 0

    def test_strategy_b_with_exact_q_rejected(self, runner):
        result = runner.invoke(
            main, ["train", "--algo", "adaboost", "--T", "2", "--strategy", "B", "--exact-q"]
        )
        assert result.exit_code == 1
        assert "Error: strategy B samples q" in result.output

    def test_seed_env_var(self, runner, tmp_path, monkeypatch):
        f1, f2 = tmp_path / "env.json", tmp_path / "flag.json"
        monkeypatch.setenv("MATRYOSHKA_SEED", "123")
        r = runner.invoke(main, ["train", "--algo", "adaboost", "--T", "3", "--out", str(f1)])
        assert r.exit_code == 0, r.output
        monkeypatch.delenv("MATRYOSHKA_SEED")
        r = runner.invoke(
            main, ["train", "--algo", "adaboost", "--T", "3", "--seed", "123", "--out", str(f2)]
        )
        assert r.exit_code == 0, r.output
        assert f1.read_bytes() == f2.read_bytes()


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


class TestTreeMcLoss:
    def test_composite_beyond_walk_table_cap(self):
        # the root composite has 69,065 inner walks, so a table of its
        # walks on 200 rows would pass the cap; a walk descends instead
        model = build_fixed_2_matryoshka(
            make_synthetic_dataset(40, seed=0), builtin_noisy_stump(0.1), 6, TrainConfig(exact_q=True)
        )
        assert model.nodes[""].classifier.leaf_table[0].shape == (40, 69_065)
        loss, se = _tree_mc_loss(model, make_synthetic_dataset(200, seed=5), 2, 1)
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
        _tree_mc_loss(tree, data, 50, 3)
        assert calls == []


class TestInputErrors:
    @pytest.fixture
    def files(self, tmp_path):
        data = make_synthetic_dataset(seed=0)
        paths = {"ada": tmp_path / "ada.json", "tree": tmp_path / "tree.json",
                 "edge": tmp_path / "edge.json", "out": tmp_path / "r.csv",
                 "short": tmp_path / "short.csv", "bad": tmp_path / "bad.csv",
                 "nan": tmp_path / "nan.csv"}
        save_model(train_adaboost(data, builtin_noisy_stump(0.1), 2), paths["ada"])
        save_model(grow_tree(data, builtin_noisy_stump(0.1), max_nodes=2), paths["tree"])
        save_model(grow_tree(data, builtin_constant_edge_oracle(0.3), max_nodes=2), paths["edge"])
        paths["short"].write_text("f0,f1,label\n0.5,0.5,1\n-0.5,-0.5,-1\n-1.0,0.0,-1\n")
        paths["bad"].write_text("f0,f1,label\n0.5,0.5\n")
        paths["nan"].write_text("f0,f1,label,weight\n0.5,0.5,1,1\n-0.5,-0.5,-1,nan\n")
        return paths

    @pytest.mark.parametrize(
        "args, message",
        [
            ("eval --model {tree} --data {short}", "dataset size does not match"),
            ("eval --model {ada} --data {short}", "dataset size does not match"),
            ("train --algo ptree --T 2 --data {bad}", "expected 3 fields"),
            ("eval --model {tree} --data {bad}", "expected 3 fields"),
            ("train --algo ptree --T 2 --data {nan}", "row 3: non-finite value"),
            ("train --algo adaboost --T 0", "T must be >= 1"),
            ("train --algo ptree --T 0", "max_nodes must be >= 1"),
            ("train --algo matryoshka --L 0", "L must be >= 1"),
            ("train --algo adaboost --T 2 --oracle constant-edge --epsilon 0.7", "epsilon"),
            ("eval --model {ada} --trials 0", "trials must be >= 1"),
            ("eval --model {tree} --trials 0", "trials must be >= 1"),
            # seed 4 makes other examples than the oracle was trained on
            ("eval --model {edge} --seed 4", "only knows its training examples"),
            ("rates-report --rho 1.5 --out {out}", "rho must be in [0, 1), got 1.5"),
            ("rates-report --rho 0 --out {out}", "C must be in (0, 1], got 0.0"),
            # a synthetic dataset needs a seed >= 0; training seeds may be negative
            ("train --algo matryoshka --L 2 --seed -1", "--seed must be >= 0 for a synthetic dataset"),
            ("eval --model {tree} --seed -3", "--seed must be >= 0 for a synthetic dataset"),
        ],
    )
    def test_one_line_error(self, runner, files, args, message):
        result = runner.invoke(main, args.format(**files).split())
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # reported, not raised
        assert result.output.startswith("Error: ") and message in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize(
        "model, key_path, message",
        [
            ("tree", ["nodes"], "malformed ptree record (KeyError: 'nodes')"),
            ("ada", ["stages", 0, "classifier", "feature"],
             "malformed adaboost record (KeyError: 'feature')"),
            ("tree", ["nodes", "", "z_minus"], "malformed ptree record (KeyError: 'z_minus')"),
            ("tree", None, "a model file holds one JSON object"),
        ],
        ids=["no-nodes", "no-stump-feature", "no-z-minus", "json-list"],
    )
    def test_malformed_model_file(self, runner, files, model, key_path, message):
        record = json.loads(files[model].read_text())
        if key_path is None:
            record = [record]  # a JSON list instead of an object
        else:
            parent = record
            for key in key_path[:-1]:
                parent = parent[key]
            del parent[key_path[-1]]
        files[model].write_text(json.dumps(record))
        result = runner.invoke(main, ["eval", "--model", str(files[model])])
        assert result.exit_code == 1
        assert result.output.startswith("Error: ") and message in result.output
        assert "Traceback" not in result.output

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
