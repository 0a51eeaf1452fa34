"""The four benchmark workloads.

Each workload builds its inputs from the run's seed (``setup``), runs a
fixed list of operations (``run``), and checks every operation's output
outside the timed section (``check``).  An operation is the work a user
asks for in one call: train and save a model, or evaluate a stored one.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from probboost import bounds, cli
from probboost.adaboost import TrainConfig, train_adaboost
from probboost.core import make_synthetic_dataset
from probboost.matryoshka import (
    CountingLearner,
    MatryoshkaPolicy,
    build_fixed_2_matryoshka,
    build_greedy_matryoshka,
)
from probboost.persist import save_model
from probboost.ptree import grow_tree
from probboost.weak_learner import builtin_constant_edge_oracle, builtin_noisy_stump

import checks

EPSILON = 0.3  # constant-edge oracle edge; rho = 0.8
P_FLIP = 0.1  # noisy stump flip probability


def sub_seed(seed: int, k: int) -> int:
    """Seed of the k-th input of a run."""
    return (seed * 1_000_003 + k) % 2**31


@dataclass
class Result:
    model: Any
    path: Path
    bytes: int
    extra: dict[str, Any] = field(default_factory=dict)


def _save(model, path: Path) -> Result:
    save_model(model, path)
    return Result(model, path, path.stat().st_size)


class Workload:
    name = ""
    #: One round of operation kinds; a run repeats whole rounds.
    round_kinds: tuple[str, ...] = ("op",)
    #: Normalised seconds of one round at the calibration commit; sets the
    #: number of rounds for a given --seconds (see ``n_rounds``).
    round_nominal_s: float

    def n_rounds(self, seconds: float) -> int:
        return max(1, round(seconds / self.round_nominal_s))

    def setup(self, seed: int, n_ops: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.kinds = [self.round_kinds[k % len(self.round_kinds)] for k in range(n_ops)]

    def run(self, k: int) -> Result:
        raise NotImplementedError

    def check(self, k: int, result: Result) -> list[str]:
        raise NotImplementedError


class SampledBoost(Workload):
    """Probabilistic AdaBoost, noisy stump, q sampled by strategy A (MAP)."""

    name = "sampled-boost"
    N, T = 100, 3
    round_nominal_s = 0.16

    def setup(self, seed, n_ops, workdir):
        super().setup(seed, n_ops, workdir)
        self.datasets = [make_synthetic_dataset(self.N, seed=sub_seed(seed, k)) for k in range(n_ops)]

    def run(self, k):
        config = TrainConfig(seed=sub_seed(self.seed, k), exact_q=False, estimator="map", strategy="A")
        model = train_adaboost(self.datasets[k], builtin_noisy_stump(P_FLIP), self.T, config)
        return _save(model, self.workdir / "model.json")

    def check(self, k, result):
        problems = checks.check_adaboost(result.model, self.datasets[k])
        if result.model.n_stages != self.T:
            problems.append(f"{result.model.n_stages} stages, expected {self.T}")
        return problems + checks.check_reload(result.model, result.path)


class ExactTrees(Workload):
    """Plain greedy ptree, constant-edge oracle, exact q."""

    name = "exact-trees"
    N, T = 40, 128
    round_nominal_s = 0.28

    def setup(self, seed, n_ops, workdir):
        super().setup(seed, n_ops, workdir)
        self.datasets = [make_synthetic_dataset(self.N, seed=sub_seed(seed, k)) for k in range(n_ops)]
        self.rho = bounds.rho_from_epsilon(EPSILON)

    def run(self, k):
        model = grow_tree(
            self.datasets[k],
            builtin_constant_edge_oracle(EPSILON),
            max_nodes=self.T,
            config=TrainConfig(seed=sub_seed(self.seed, k), exact_q=True),
        )
        return _save(model, self.workdir / "model.json")

    def check(self, k, result):
        return checks.check_ptree(result.model, self.datasets[k], self.T, self.rho)


class NestedTrees(Workload):
    """Fixed-2 and greedy matryoshki, constant-edge oracle, exact q, each as
    large as the walk-table cap allows.  A round builds two fixed-2 trees and
    one greedy tree, so that the median falls inside one kind's times."""

    name = "nested-trees"
    L, N_FIXED = 6, 40
    BUDGET, N_GREEDY = 28, 20
    round_kinds = ("fixed-2", "fixed-2", "greedy")
    round_nominal_s = 0.84

    def setup(self, seed, n_ops, workdir):
        super().setup(seed, n_ops, workdir)
        sizes = {"fixed-2": self.N_FIXED, "greedy": self.N_GREEDY}
        self.datasets = [
            make_synthetic_dataset(sizes[kind], seed=sub_seed(seed, k))
            for k, kind in enumerate(self.kinds)
        ]
        self.rho = bounds.rho_from_epsilon(EPSILON)

    def run(self, k):
        learner = CountingLearner(builtin_constant_edge_oracle(EPSILON))
        config = TrainConfig(seed=sub_seed(self.seed, k), exact_q=True)
        if self.kinds[k] == "fixed-2":
            model = build_fixed_2_matryoshka(self.datasets[k], learner, self.L, config)
            log = None
            analytic = bounds.bound_M2(2**self.L, self.rho)
        else:
            model, log = build_greedy_matryoshka(
                self.datasets[k], learner, self.BUDGET, MatryoshkaPolicy(mode="greedy"), config=config
            )
            analytic = bounds.bound_F(self.BUDGET, self.rho)
        result = _save(model, self.workdir / "model.json")
        result.extra.update(log=log, calls=learner.calls, analytic=analytic)
        return result

    def check(self, k, result):
        dataset, calls, analytic = self.datasets[k], result.extra["calls"], result.extra["analytic"]
        if self.kinds[k] == "fixed-2":
            return checks.check_fixed_2(result.model, dataset, self.L, self.rho, calls) + \
                checks.check_analytic("M2", analytic, checks.iterated_M2(self.L, self.rho))
        return checks.check_greedy(result.model, result.extra["log"], dataset, self.BUDGET, calls) + \
            checks.check_analytic("F", analytic, checks.product_bound_F(self.BUDGET, self.rho))


class EvalMC(Workload):
    """`probboost eval` on stored models: a plain ptree and a fixed-2
    matryoshka with nested composites, both trained with the noisy stump and
    exact q on the CSV that every evaluation scores."""

    name = "eval-mc"
    N, TRIALS = 40, 60
    TREE_T, FIXED_L = 16, 3
    round_kinds = ("ptree", "fixed-2")
    round_nominal_s = 0.235

    def setup(self, seed, n_ops, workdir):
        super().setup(seed, n_ops, workdir)
        self.dataset = make_synthetic_dataset(self.N, seed=seed)
        self.csv = workdir / "data.csv"
        self._write_csv(self.csv)
        config = TrainConfig(seed=seed, exact_q=True)
        learner = builtin_noisy_stump(P_FLIP)
        self.models = {
            "ptree": grow_tree(self.dataset, learner, max_nodes=self.TREE_T, config=config),
            "fixed-2": build_fixed_2_matryoshka(self.dataset, learner, self.FIXED_L, config),
        }
        self.paths = {}
        for kind, model in self.models.items():
            self.paths[kind] = workdir / f"{kind}.json"
            save_model(model, self.paths[kind])

    def _write_csv(self, path: Path) -> None:
        ds = self.dataset
        header = ",".join([f"f{j}" for j in range(ds.dimension)] + ["label"])
        rows = [",".join([*(repr(float(v)) for v in x), str(int(lab))]) for x, lab in zip(ds.features, ds.labels)]
        path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")

    def run(self, k):
        path = self.paths[self.kinds[k]]
        args = ["eval", "--model", str(path), "--data", str(self.csv),
                "--trials", str(self.TRIALS), "--seed", str(sub_seed(self.seed, k))]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.main.main(args, prog_name="probboost", standalone_mode=False)
        return Result(None, path, path.stat().st_size, {"text": out.getvalue()})

    def check(self, k, result):
        return checks.check_eval(result.extra["text"], self.models[self.kinds[k]], self.dataset)


WORKLOADS = {w.name: w for w in (SampledBoost, ExactTrees, NestedTrees, EvalMC)}
