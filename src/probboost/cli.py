"""Command-line surface: figure reproduction, training, evaluation."""

from __future__ import annotations

import csv
import functools
import math
import sys
from itertools import accumulate
from operator import mul

import click
from click.core import ParameterSource

from . import bounds
from .adaboost import (
    AdaboostModel,
    TrainConfig,
    exact_expected_bound,
    mc_misclassification,
    train_adaboost,
)
from .core import Dataset, RandomStream, _check_trials, _mc_summary, load_csv, make_synthetic_dataset
from .matryoshka import CountingLearner, TraceEvent, build_fixed_2_matryoshka, build_greedy_matryoshka
from .persist import load_model, save_model
from .ptree import exact_tree_bound, grow_tree, predict_tree
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
    models that do not fit the data) and OSErrors as one-line click errors."""

    @functools.wraps(command)
    def wrapper(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except ValueError as exc:
            raise click.ClickException(str(exc)) from None
        except OSError as exc:
            raise click.ClickException(f"{exc.filename}: {exc.strerror}" if exc.filename else str(exc)) from None

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
    if t_max < 1:
        raise ValueError(f"--t-max must be >= 1, got {t_max}")
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
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), default=None, help="model output path")
@click.option("--log", "log_path", type=click.Path(), default=None, help="per-step JSON-lines trace path")
@click.option("--trials", type=int, default=2000, show_default=True, help="Monte-Carlo trials for the reported training error")
@_input_errors
def cmd_train(algo, data, oracle, epsilon, p_flip, t_stop, levels, mode, estimator,
              strategy, exact_q, seed, out, log_path, trials) -> None:
    """Train a model and report its recorded bound and training error."""
    trainer = mode if algo == "matryoshka" else algo
    name = {"fixed2": "fixed-2 matryoshka", "greedy": "greedy matryoshka"}.get(trainer, trainer)
    # an option the trainer or oracle would ignore is refused; --mode, --epsilon and --p-flip have defaults
    for param, option, ignored, by in (("levels", "--L", trainer != "fixed2", name),
                                       ("t_stop", "--T", trainer == "fixed2", name),
                                       ("mode", "--mode", algo != "matryoshka", algo),
                                       ("epsilon", "--epsilon", oracle != "constant-edge", "the stump oracle"),
                                       ("p_flip", "--p-flip", oracle != "stump", "the constant-edge oracle")):
        if ignored and click.get_current_context().get_parameter_source(param) is ParameterSource.COMMANDLINE:
            raise click.ClickException(f"{option} does not apply to {by}")
    _check_trials(trials)  # before training, which the report would otherwise throw away
    dataset = _load_dataset(data, seed)
    base = builtin_constant_edge_oracle(epsilon) if oracle == "constant-edge" else builtin_noisy_stump(p_flip)
    learner = CountingLearner(base)
    config = TrainConfig(seed=seed, exact_q=exact_q, estimator=estimator, strategy=strategy)

    option, size = ("--L", levels) if trainer == "fixed2" else ("--T", t_stop)
    if size is None:
        raise click.ClickException(f"{option} is required for {name}")
    trace = None  # read off the finished model unless the trainer returns one
    if trainer == "adaboost":
        model = train_adaboost(dataset, learner, size, config)
        if model.n_stages < size:
            click.echo(f"stopped after {model.n_stages} of {size} stages: strategy B's look cap bound")
    elif trainer == "ptree":
        model = grow_tree(dataset, learner, max_nodes=size, config=config)
    elif trainer == "fixed2":
        model = build_fixed_2_matryoshka(dataset, learner, size, config)
    else:
        model, trace = build_greedy_matryoshka(dataset, learner, size, config=config)
    if log_path:
        with open(log_path, "w", encoding="utf-8") as fh:
            fh.writelines(event.to_json() + "\n" for event in trace or _model_trace(model))
    loss, se = _mc_loss(model, dataset, trials, seed + 1)
    if algo == "matryoshka":
        click.echo(f"weak-learner budget: {learner.calls} calls")
    if out:
        save_model(model, out)
        click.echo(f"model written to {out}")
    click.echo(f"recorded bound: {model.recorded_bound()!r}")
    click.echo(f"mc training error: {loss:.6f} +/- {se:.6f} ({trials} trials)")


def _model_trace(model) -> list[TraceEvent]:
    """An AdaBoost model's stages, or a (top) tree's nodes in growth order, each with the C after it."""
    if isinstance(model, AdaboostModel):
        running = accumulate((stage.z for stage in model.stages), mul)  # recorded_bound's product, in order
        return [TraceEvent(step, "stage", None, stage.alpha_plus, stage.alpha_minus, stage.z, None, None, c)
                for step, (stage, c) in enumerate(zip(model.stages, running), start=1)]
    return [TraceEvent.of_node(step, "grow", path, node, c)
            for step, ((path, node), c) in enumerate(zip(model.nodes.items(), model.trajectory[1:]), start=1)]


def _mc_loss(model, dataset: Dataset, trials: int, seed: int) -> tuple[float, float]:
    """Monte-Carlo weighted 0/1 loss of a model on the dataset: (mean, standard error)."""
    if isinstance(model, AdaboostModel):
        return mc_misclassification(model, dataset, trials, seed=seed)
    scores, _ = predict_tree(model, dataset.features, RandomStream(seed), "tree-mc", trials, leaves=False)
    return _mc_summary(scores, dataset)


@main.command("eval")
@click.option("--model", "model_path", type=click.Path(exists=True), required=True)
@click.option("--data", type=click.Path(exists=True), default=None)
@click.option("--trials", type=int, default=2000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
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
    # the exact bound comes first: it refuses data of another size
    exact = (exact_expected_bound if isinstance(model, AdaboostModel) else exact_tree_bound)(model, dataset)
    loss, se = _mc_loss(model, dataset, trials, seed)
    click.echo(f"mc loss: {loss:.6f} +/- {se:.6f} ({trials} trials)")
    click.echo(f"exact exponential bound: {exact!r}")
    click.echo(f"recorded training bound: {model.recorded_bound()!r}")


if __name__ == "__main__":
    sys.exit(main())
