"""Scaling sweeps with fitted exponents, in normalised seconds.

    python3 bench/sweep.py

Run from the repository root; takes about a minute.  Regenerates the
"Baseline" scaling figures of ROADMAP.md: ptree growth in T, fixed-2
nesting in L, greedy matryoshka in its raw budget, sampled-q AdaBoost in N,
and `probboost eval` in its number of trials.  Each point is the median of
three timings (see reference.py); sizes past the walk-table cap are shown
as failing.  For each sweep it prints the power-law exponent (slope of
log time on log size) and the growth factor per unit of size (exp of the
slope of log time on size); the first describes T, N and trials, the
second L and the greedy budget.  The table also goes to
bench/results/sweep.json.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import statistics
import sys
from pathlib import Path

import reference
import run

REPS = 3


def _fit(xs, ys):
    """Least-squares slope of ys on xs."""
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def _time(fn) -> float | None:
    """Median normalised seconds of REPS runs; None if the run raises."""
    times = []
    for _ in range(REPS):
        try:
            times.append(reference.timed(fn, retimes=0)[2])
        except (RuntimeError, ValueError):
            return None
    return statistics.median(times)


def sweeps(workdir: Path) -> dict[str, dict]:
    from probboost import cli
    from probboost.adaboost import TrainConfig, train_adaboost
    from probboost.core import make_synthetic_dataset
    from probboost.matryoshka import MatryoshkaPolicy, build_fixed_2_matryoshka, build_greedy_matryoshka
    from probboost.persist import save_model
    from probboost.ptree import grow_tree
    from probboost.weak_learner import builtin_constant_edge_oracle, builtin_noisy_stump

    oracle = builtin_constant_edge_oracle(0.3)
    exact = TrainConfig(seed=0, exact_q=True)
    ds40, ds20 = make_synthetic_dataset(40, seed=0), make_synthetic_dataset(20, seed=0)
    tree16 = workdir / "tree16.json"
    save_model(grow_tree(ds40, builtin_noisy_stump(0.1), max_nodes=16, config=exact), tree16)

    def eval_trials(trials):
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main.main(["eval", "--model", str(tree16), "--trials", str(trials), "--seed", "1"],
                          standalone_mode=False)

    cases = {
        "ptree T (N=40, constant-edge, exact q)": (
            [64, 128, 256, 512], lambda T: grow_tree(ds40, oracle, max_nodes=T, config=exact)),
        "fixed-2 L (N=40, constant-edge, exact q)": (
            [3, 4, 5, 6, 7], lambda L: build_fixed_2_matryoshka(ds40, oracle, L, exact)),
        "greedy budget (N=20, constant-edge, exact q)": (
            [12, 16, 20, 24, 28, 32],
            lambda B: build_greedy_matryoshka(ds20, oracle, B, MatryoshkaPolicy(mode="greedy"), config=exact)),
        "sampled-boost N (T=2, noisy stump, strategy A)": (
            [250, 500, 1000, 2000],
            lambda N: train_adaboost(make_synthetic_dataset(N, seed=0), builtin_noisy_stump(0.1), 2,
                                     TrainConfig(seed=0))),
        "eval trials (ptree T=16, N=40)": ([250, 500, 1000, 2000], eval_trials),
    }
    out = {}
    for name, (sizes, make) in cases.items():
        points = {size: _time(lambda: make(size)) for size in sizes}
        ok = [(s, t) for s, t in points.items() if t is not None]
        logs = [math.log(t) for _, t in ok]
        out[name] = {
            "seconds": points,
            "power_exponent": _fit([math.log(s) for s, _ in ok], logs),
            "growth_per_unit": math.exp(_fit([s for s, _ in ok], logs)),
        }
    return out


def main() -> int:
    run.use_checkout_sources()
    workdir = run.work_dir("sweep-")
    try:
        table = sweeps(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, row in table.items():
        cells = ", ".join(f"{s}: {'fails' if t is None else f'{t:.3g} s'}" for s, t in row["seconds"].items())
        print(f"{name}\n  {cells}\n  power exponent {row['power_exponent']:.2f}, "
              f"growth per unit {row['growth_per_unit']:.3f}")
    (run.BENCH / "results").mkdir(exist_ok=True)
    (run.BENCH / "results" / "sweep.json").write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
