"""Command-line surface: figure reproduction, training, evaluation."""

from __future__ import annotations

import csv
import functools
import math
import sys

import click

from . import bounds
from .adaboost import (
    AdaboostModel,
    TrainConfig,
    exact_expected_bound,
    mc_misclassification,
    train_adaboost,
)
from .core import Dataset, RandomStream, load_csv, make_synthetic_dataset
from .matryoshka import (
    CountingLearner,
    MatryoshkaPolicy,
    build_fixed_2_matryoshka,
    build_greedy_matryoshka,
)
from .persist import load_model, save_model
from .ptree import TreeModel, exact_tree_bound, grow_tree, predict_tree
from .weak_learner import builtin_constant_edge_oracle, builtin_noisy_stump

FIGURE_RHOS = [("31/32", 31 / 32), ("7/8", 7 / 8), ("3/4", 3 / 4), ("1/2", 1 / 2), ("1/4", 1 / 4)]


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


@click.group()
def main() -> None:
    """Probabilistic boosting, decision trees, and matryoshka trees."""


def _input_errors(command):
    """Report the library's ValueErrors on bad input (options, data files,
    models that do not fit the data) as one-line click errors."""

    @functools.wraps(command)
    def wrapper(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except ValueError as exc:
            raise click.ClickException(str(exc)) from None

    return wrapper


@main.command("bounds-figure")
@click.argument(
    "name", type=click.Choice(["adaboost-vs-tree-vs-m2", "tree-of-trees", "nesting-levels"])
)
@click.option("--out", required=True, type=click.Path(), help="output CSV path")
@_input_errors
def cmd_bounds_figure(name: str, out: str) -> None:
    """Emit the data behind one of the analytic bound figures."""
    if name == "adaboost-vs-tree-vs-m2":
        header = ["T"]
        for label, _ in FIGURE_RHOS:
            tag = label.replace("/", "_")
            header += [f"F_{tag}", f"adaboost_{tag}", f"M2_{tag}"]
        rows = []
        for k in range(0, 11):
            T = 2**k
            row: list = [T]
            for _, rho in FIGURE_RHOS:
                row += [
                    bounds.bound_F(T, rho),
                    bounds.bound_adaboost(T, rho),
                    bounds.bound_M2(T, rho),
                ]
            rows.append(row)
        _write_csv(out, header, rows)
    elif name == "tree-of-trees":
        rho = 31 / 32
        rows = []
        for T in (64, 256, 1024):
            for T1 in range(1, T + 1):
                if T % T1 == 0:
                    rows.append([T, T1, bounds.bound_nested(T, T1, rho)])
        _write_csv(out, ["T", "T1", "nested_bound"], rows)
    else:  # nesting-levels
        rho = 31 / 32
        rows = []
        for T in (1024, 65536):
            for L in range(1, int(math.log2(T)) + 1):
                iso = bounds.bound_iso_nested(T, L, rho)
                size = max(1, round(T ** (1.0 / L)))
                value = rho
                for _ in range(L):
                    value = bounds.bound_F(float(size), value)
                rows.append([T, L, iso, value])
        _write_csv(out, ["T", "L", "iso_bound", "iso_bound_integer"], rows)
    click.echo(f"wrote {out}")


@main.command("rates-report")
@click.option("--rho", type=float, default=0.5, show_default=True)
@click.option("--t-max", type=int, default=32, show_default=True)
@click.option("--out", required=True, type=click.Path())
@_input_errors
def cmd_rates_report(rho: float, t_max: int, out: str) -> None:
    """Compare the discrete and analytic bound decrease rates along C = F(T, rho)."""
    rows = []
    for T in range(1, t_max + 1):
        c = bounds.bound_F(T, rho)
        c_prev = 1.0 if T == 1 else bounds.bound_F(T - 1, rho)
        simple = bounds.rate_simple(c_prev, bounds.bound_F(T + 1, rho))
        matry = bounds.rate_matryoshka(c, T)
        rows.append([T, c, simple, matry])
    _write_csv(out, ["T", "C", "rate_simple", "rate_matryoshka"], rows)
    click.echo(f"wrote {out}")


def _load_dataset(data: str | None, seed: int) -> Dataset:
    if data is not None:
        return load_csv(data)
    if seed < 0:
        raise ValueError(f"--seed must be >= 0 for a synthetic dataset (no --data), got {seed}")
    return make_synthetic_dataset(seed=seed)


def _make_learner(oracle: str, epsilon: float, p_flip: float):
    if oracle == "constant-edge":
        return builtin_constant_edge_oracle(epsilon)
    return builtin_noisy_stump(p_flip)


@main.command("train")
@click.option("--algo", type=click.Choice(["adaboost", "ptree", "matryoshka"]), required=True)
@click.option("--data", type=click.Path(exists=True), default=None, help="CSV dataset; synthetic if omitted")
@click.option("--oracle", type=click.Choice(["stump", "constant-edge"]), default="stump", show_default=True)
@click.option("--epsilon", type=float, default=0.2, show_default=True)
@click.option("--p-flip", type=float, default=0.1, show_default=True)
@click.option("--T", "t_stop", type=int, default=None, help="rounds / inner nodes / raw budget")
@click.option("--L", "levels", type=int, default=None, help="fixed-2 matryoshka nesting levels")
@click.option("--mode", type=click.Choice(["fixed2", "greedy"]), default="fixed2", show_default=True)
@click.option("--estimator", type=click.Choice(["map", "ml"]), default="map", show_default=True)
@click.option("--strategy", type=click.Choice(["A", "B"]), default="A", show_default=True,
              help="sampled-q AdaBoost: A samples each stage until its Z estimate rises; B "
                   "advances or resamples, whichever lowers the bound more per pass over the data")
@click.option("--exact-q", is_flag=True, help="use the synthetic oracle's exact q")
@click.option("--seed", type=int, envvar="MATRYOSHKA_SEED", default=0, show_default=True)
@click.option("--out", type=click.Path(), default=None, help="model output path")
@click.option("--log", "log_path", type=click.Path(), default=None, help="per-step CSV log path")
@click.option("--trials", type=int, default=2000, show_default=True, help="Monte-Carlo trials for the reported training error")
@_input_errors
def cmd_train(algo, data, oracle, epsilon, p_flip, t_stop, levels, mode, estimator,
              strategy, exact_q, seed, out, log_path, trials) -> None:
    """Train a model and report its recorded bound and training error."""
    dataset = _load_dataset(data, seed)
    learner = CountingLearner(_make_learner(oracle, epsilon, p_flip))
    config = TrainConfig(seed=seed, exact_q=exact_q, estimator=estimator, strategy=strategy)

    if algo == "adaboost":
        if t_stop is None:
            raise click.ClickException("--T is required for adaboost")
        model = train_adaboost(dataset, learner, t_stop, config)
        recorded = model.recorded_bound()
        if log_path:
            rows, running = [], 1.0
            for i, stage in enumerate(model.stages, start=1):
                running *= stage.z
                rows.append([i, stage.z, stage.alpha_plus, stage.alpha_minus, running])
            _write_csv(log_path, ["round", "Z", "alpha_plus", "alpha_minus", "bound_so_far"], rows)
        loss, se = mc_misclassification(model, dataset, trials, seed=seed + 1)
    elif algo == "ptree":
        if t_stop is None:
            raise click.ClickException("--T is required for ptree")
        model = grow_tree(dataset, learner, max_nodes=t_stop, config=config)
        recorded = model.recorded_bound()
        if log_path:
            _write_tree_log(log_path, model)
        loss, se = _tree_mc_loss(model, dataset, trials, seed + 1)
    else:  # matryoshka
        if mode == "fixed2":
            if levels is None:
                raise click.ClickException("--L is required for fixed-2 matryoshka")
            model = build_fixed_2_matryoshka(dataset, learner, levels, config)
            if log_path:
                _write_tree_log(log_path, model)
        else:
            if t_stop is None:
                raise click.ClickException("--T is required for greedy matryoshka")
            model, build_log = build_greedy_matryoshka(
                dataset, learner, t_stop, MatryoshkaPolicy(mode="greedy"), config=config
            )
            if log_path:
                _write_csv(
                    log_path,
                    ["step", "subtree", "action", "C", "T", "rate_simple", "rate_matryoshka"],
                    [[e.step, e.subtree or "root", e.action, e.C, e.T, e.rate_simple, e.rate_matryoshka] for e in build_log],
                )
        recorded = model.recorded_bound()
        loss, se = _tree_mc_loss(model, dataset, trials, seed + 1)
        click.echo(f"weak-learner budget: {learner.calls} calls")

    if out:
        save_model(model, out)
        click.echo(f"model written to {out}")
    click.echo(f"recorded bound: {recorded!r}")
    click.echo(f"mc training error: {loss:.6f} +/- {se:.6f} ({trials} trials)")


def _write_tree_log(path: str, tree: TreeModel) -> None:
    """One row per node of the (top) tree, in growth order."""
    rows = [
        [i, p or "root", node.z_plus, node.z_minus, tree.trajectory[i]]
        for i, (p, node) in enumerate(tree.nodes.items(), start=1)
    ]
    _write_csv(path, ["step", "leaf", "Z_plus", "Z_minus", "C"], rows)


def _tree_mc_loss(tree: TreeModel, dataset: Dataset, trials: int, seed: int) -> tuple[float, float]:
    scores, _ = predict_tree(tree, dataset.features, RandomStream(seed), "tree-mc", trials)
    per_trial = (scores * dataset.labels <= 0.0) @ dataset.weights
    se = float(per_trial.std(ddof=1) / math.sqrt(trials)) if trials > 1 else float("inf")
    return float(per_trial.mean()), se


@main.command("eval")
@click.option("--model", "model_path", type=click.Path(exists=True), required=True)
@click.option("--data", type=click.Path(exists=True), default=None)
@click.option("--trials", type=int, default=2000, show_default=True)
@click.option("--seed", type=int, envvar="MATRYOSHKA_SEED", default=0, show_default=True)
@_input_errors
def cmd_eval(model_path, data, trials, seed) -> None:
    """Evaluate a stored model: Monte-Carlo loss, exact bound, recorded bound."""
    model = load_model(model_path)
    dataset = _load_dataset(data, seed)
    expected_dim = model.metadata.get("dimension")  # older AdaBoost files lack it
    if expected_dim is not None and expected_dim != dataset.dimension:
        raise click.ClickException(
            f"dataset dimension {dataset.dimension} does not match model ({expected_dim})"
        )
    # the exact bounds come first: they refuse data of another size
    if isinstance(model, AdaboostModel):
        exact = exact_expected_bound(model, dataset)
        loss, se = mc_misclassification(model, dataset, trials, seed=seed)
    else:
        exact = exact_tree_bound(model, dataset)
        loss, se = _tree_mc_loss(model, dataset, trials, seed)
    recorded = model.recorded_bound()
    click.echo(f"mc loss: {loss:.6f} +/- {se:.6f} ({trials} trials)")
    click.echo(f"exact exponential bound: {exact!r}")
    click.echo(f"recorded training bound: {recorded!r}")


if __name__ == "__main__":
    sys.exit(main())
