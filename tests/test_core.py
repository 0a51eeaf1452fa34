"""Dataset handling, path indices, random streams, persistence."""

import json
import math

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from probboost.adaboost import TrainConfig, train_adaboost
from probboost.cli import main
from probboost.core import (
    Dataset,
    RandomStream,
    load_csv,
    load_record,
    make_synthetic_dataset,
    normalize_weights,
    save_record,
    validate_path,
)
from probboost.core import _philox4x32
from probboost.matryoshka import build_fixed_2_matryoshka, build_greedy_matryoshka
from probboost.persist import save_model
from probboost.ptree import grow_tree
from probboost.weak_learner import builtin_constant_edge_oracle, builtin_noisy_stump


class TestNormalizeWeights:
    def test_uniform(self):
        np.testing.assert_allclose(normalize_weights(np.ones(4)), np.full(4, 0.25))

    def test_proportionality_with_zero(self):
        np.testing.assert_allclose(normalize_weights(np.array([2.0, 0.0, 2.0])), [0.5, 0.0, 0.5])

    def test_underflow_survival(self):
        out = normalize_weights(np.array([1e-300, 1e-300]))
        np.testing.assert_allclose(out, [0.5, 0.5])

    @given(
        st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=30)
    )
    @settings(max_examples=100, deadline=None)
    def test_idempotent_bit_exact(self, raw):
        once = normalize_weights(np.array(raw))
        twice = normalize_weights(once)
        assert np.array_equal(once, twice)

    def test_errors(self):
        with pytest.raises(ValueError):
            normalize_weights(np.zeros(3))
        with pytest.raises(ValueError):
            normalize_weights(np.array([1.0, -0.5]))
        with pytest.raises(ValueError):
            normalize_weights(np.array([]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            normalize_weights(np.array([1.0, bad, 2.0]))


class TestDataset:
    def test_uniform_default_weights(self):
        ds = Dataset.from_arrays([[0.0], [1.0]], [1, -1])
        np.testing.assert_allclose(ds.weights, [0.5, 0.5])
        assert ds.n_examples == 2
        assert ds.dimension == 1

    def test_label_validation(self):
        with pytest.raises(ValueError):
            Dataset.from_arrays([[0.0]], [0])

    def test_weight_sum_validation(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 1)), np.array([1, -1]), np.array([0.6, 0.6]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_features_rejected(self, bad):
        with pytest.raises(ValueError, match="features must be finite"):
            Dataset.from_arrays([[0.0, 1.0], [bad, 2.0]], [1, -1])

    @pytest.mark.parametrize("weights", [[math.nan, 1.0], [math.inf, 0.0], [0.5, math.nan]])
    def test_non_finite_weights_rejected(self, weights):
        # a nan sum passes the sum-to-1 test, so nan must be caught on its own
        with pytest.raises(ValueError, match="finite"):
            Dataset(np.zeros((2, 1)), np.array([1, -1]), np.array(weights))
        with pytest.raises(ValueError, match="finite"):
            Dataset.from_arrays(np.zeros((2, 1)), [1, -1], weights)

    def test_synthetic_is_valid(self):
        ds = make_synthetic_dataset(n=11, dim=3, seed=4)
        assert ds.n_examples == 11
        assert ds.dimension == 3
        assert abs(ds.weights.sum() - 1.0) <= 1e-12
        assert set(np.unique(ds.labels)) <= {-1, 1}

    def test_synthetic_seeded(self):
        a = make_synthetic_dataset(seed=9)
        b = make_synthetic_dataset(seed=9)
        assert np.array_equal(a.features, b.features)


class TestLoadCsv:
    def test_uniform_weights(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f0,label\n0.5,1\n-1.5,-1\n")
        ds = load_csv(p)
        np.testing.assert_allclose(ds.weights, [0.5, 0.5])
        np.testing.assert_allclose(ds.features[:, 0], [0.5, -1.5])

    def test_weight_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f0,label,weight\n0,1,3\n1,-1,1\n")
        ds = load_csv(p)
        np.testing.assert_allclose(ds.weights, [0.75, 0.25])

    def test_bad_label_names_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f0,label\n0.5,1\n0.7,0\n")
        with pytest.raises(ValueError, match="row 3"):
            load_csv(p)

    def test_malformed_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f0,label\n0.5,1\nxyz,1\n")
        with pytest.raises(ValueError, match="row 3"):
            load_csv(p)

    @pytest.mark.parametrize("rows", ["0.5,1,1\n0.7,-1,nan\n", "inf,1,1\n0.7,-1,1\n"])
    def test_non_finite_value_names_row(self, tmp_path, rows):
        p = tmp_path / "d.csv"
        p.write_text("f0,label,weight\n" + rows)
        with pytest.raises(ValueError, match="row [23]: non-finite value"):
            load_csv(p)

    def test_wrong_field_count(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f0,f1,label\n0.5,1\n")
        with pytest.raises(ValueError, match="row 2"):
            load_csv(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_csv(p)

    def test_header_enforced(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y,label\n0,0,1\n")
        with pytest.raises(ValueError):
            load_csv(p)


class TestPaths:
    def test_validate(self):
        assert validate_path("") == ""
        with pytest.raises(ValueError):
            validate_path("+x")


class TestRandomStream:
    def test_reproducible(self):
        a = RandomStream(7).generator("p", 3, 2).random(5)
        b = RandomStream(7).generator("p", 3, 2).random(5)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        s = RandomStream(7)
        draws = {
            float(s.uniforms("p", 0, 0)),
            float(s.uniforms("p", 1, 0)),
            float(s.uniforms("p", 0, 1)),
            float(s.uniforms("q", 0, 0)),
            float(RandomStream(8).uniforms("p", 0, 0)),
        }
        assert len(draws) == 5

    def test_order_independent(self):
        s = RandomStream(3)
        forward = [float(s.uniforms("t", n, 0)) for n in range(4)]
        backward = [float(RandomStream(3).uniforms("t", n, 0)) for n in reversed(range(4))]
        assert forward == list(reversed(backward))

    @pytest.mark.parametrize(
        "counter, key, expected",
        [  # known-answer vectors of Philox4x32-10 from Random123
            ((0, 0, 0, 0), (0, 0), (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
            ((0xFFFFFFFF,) * 4, (0xFFFFFFFF,) * 2, (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD)),
            (
                (0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344),
                (0xA4093822, 0x299F31D0),
                (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1),
            ),
        ],
    )
    def test_philox_known_answers(self, counter, key, expected):
        assert tuple(int(w) for w in _philox4x32(counter, key)) == expected

    def test_array_call_equals_elementwise_calls(self):
        s = RandomStream(2**63 - 25)  # the 63-bit seeds a nested unit draws
        examples = np.array([[0, 5, 2**40], [7, 1, 3]])
        counters = np.array([[9, 0, 1], [2**33 + 4, 6, 0]])
        grid = s.uniforms("p", examples, counters)
        assert grid.shape == (2, 3)
        for i in (1, 0):  # any order
            for j in (2, 0, 1):
                assert grid[i, j] == s.uniforms("p", int(examples[i, j]), int(counters[i, j]))
        # any layout: transposed, broadcast and scalar arguments
        np.testing.assert_array_equal(s.uniforms("p", examples.T, counters.T), grid.T)
        row = s.uniforms("p", np.arange(4)[:, None], np.arange(3)[None, :])
        assert row.shape == (4, 3)
        assert row[2, 1] == s.uniforms("p", 2, 1)
        np.testing.assert_array_equal(s.uniforms("p", 3, np.arange(3)), row[3])
        assert RandomStream(-5).uniforms("p", 0, 0) != RandomStream(5).uniforms("p", 0, 0)

    def test_unit_interval_on_a_grid(self):
        u = RandomStream(11).uniforms("grid", np.arange(20_000), 3)
        assert np.all((u >= 0.0) & (u < 1.0))
        scaled = u * 2.0**53
        np.testing.assert_array_equal(scaled, np.floor(scaled))

    def test_uniformity_smoke(self):
        n = 100_000
        u = RandomStream(12).uniforms("smoke", np.arange(n) % 100, np.arange(n) // 100)
        counts = np.bincount((u * 10).astype(int), minlength=10)
        chi2 = float(np.sum((counts - n / 10) ** 2 / (n / 10)))
        assert chi2 < 30.0  # 9 degrees of freedom: P(chi2 > 30) < 0.001
        assert u.mean() == pytest.approx(0.5, abs=5 * math.sqrt(1 / 12 / n))
        # neighbouring counters are not correlated
        assert abs(np.corrcoef(u[:-1], u[1:])[0, 1]) < 5 / math.sqrt(n)


class TestRecords:
    def test_round_trip(self, tmp_path):
        record = {"kind": "demo", "values": [1.0, 0.30000000000000004], "nested": {"a": 1}}
        path = tmp_path / "m.json"
        save_record(record, path)
        loaded = load_record(path)
        assert loaded == record

    def test_identical_bytes(self, tmp_path):
        record = {"b": 2, "a": [1.5, -0.125]}
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_record(record, p1)
        save_record(record, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_one_line_sorted(self, tmp_path):
        path = tmp_path / "m.json"
        save_record({"kind": "demo", "b": {"y": 2, "x": [1.5, -0.125]}, "a": None}, path)
        assert path.read_text(encoding="utf-8") == (
            '{"a": null,"b": {"x": [1.5,-0.125],"y": 2},"format_version": 1,"kind": "demo"}\n'
        )

    def test_indented_models_evaluate_alike(self, tmp_path):
        # files written before models became one line are indented
        data = make_synthetic_dataset(seed=0)
        edge = builtin_constant_edge_oracle(0.3)
        exact = TrainConfig(exact_q=True)
        models = {
            "adaboost": train_adaboost(data, builtin_noisy_stump(0.1), 3, TrainConfig(seed=1)),
            "ptree": grow_tree(data, edge, max_nodes=8, config=exact),
            "fixed-2": build_fixed_2_matryoshka(data, builtin_noisy_stump(0.1), 3, exact),
            "greedy": build_greedy_matryoshka(data, edge, 10, config=exact)[0],
        }
        runner = CliRunner()
        for kind, model in models.items():
            line, indented = tmp_path / f"{kind}.json", tmp_path / f"{kind}-indented.json"
            save_model(model, line)
            record = json.loads(line.read_text(encoding="utf-8"))
            indented.write_text(json.dumps(record, sort_keys=True, indent=1) + "\n", encoding="utf-8")
            assert load_record(indented) == load_record(line)
            outputs = [
                runner.invoke(main, ["eval", "--model", str(path), "--trials", "50"])
                for path in (line, indented)
            ]
            assert all(result.exit_code == 0 for result in outputs), kind
            assert outputs[0].output == outputs[1].output, kind

    def test_version_checked(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text('{"kind": "demo", "format_version": 99}')
        with pytest.raises(ValueError, match="version"):
            load_record(p)
