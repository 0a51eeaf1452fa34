"""Self-check of the benchmark: a quick run of every workload, then proof
that each correctness check rejects a corrupted model.

    python3 bench/selfcheck.py

Run from the repository root.  Prints one line per case and exits 1 if any
case fails.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
from pathlib import Path

import run

QUICK_SEED = 7
failures: list[str] = []


def report(case: str, ok: bool, detail: str = "") -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {case}" + (f": {detail}" if detail else ""))
    if not ok:
        failures.append(case)


def expect_rejected(case: str, problems: list[str], keyword: str) -> None:
    hit = [p for p in problems if keyword in p]
    report(f"rejects {case}", bool(hit), hit[0] if hit else f"problems: {problems}")


def quick_runs(workdir: Path) -> None:
    """Every workload, one round of operations, untraced and traced."""
    for name in run.WORKLOAD_NAMES:
        for trace in (False, True):
            line, details = run.run_workload(name, QUICK_SEED, 0.0, trace, workdir)
            ok = line["correct"] and line["failed"] == 0 and len(line["metrics"]) > 0
            report(f"quick {name} trace={int(trace)}: {line['attempted']} ops", ok,
                   "; ".join(details["failures"]))


def corrupted_models(workdir: Path) -> None:
    run._forget_modules()  # untraced modules for the corruption cases
    import workloads

    def first_results(name):
        w = workloads.WORKLOADS[name]()
        w.setup(QUICK_SEED, len(w.round_kinds), workdir)
        return w, [w.run(k) for k in range(len(w.round_kinds))]

    def resaved(result, model):
        workloads.save_model(model, result.path)
        return workloads.Result(model, result.path, result.path.stat().st_size, result.extra)

    # sampled-boost
    w, (res,) = first_results("sampled-boost")
    report("sampled-boost passes before corruption", not w.check(0, res))
    model = copy.deepcopy(res.model)
    model.stages[1].alpha_plus += 1e-3
    expect_rejected("an alpha nudged", w.check(0, resaved(res, model)), "replayed Z product")
    model = copy.deepcopy(res.model)
    model.stages[0].q_plus[3] = 1.0 - model.stages[0].q_plus[3]
    expect_rejected("a stored q flipped", w.check(0, resaved(res, model)), "replayed Z product")
    model = copy.deepcopy(res.model)
    model.stages[2].classifier.polarity *= -1
    expect_rejected("a stump that is not the best", w.check(0, resaved(res, model)), "above the best")
    res = resaved(res, res.model)
    text = res.path.read_text()
    res.path.write_text(text.replace('"alpha_minus": ', '"alpha_minus": 1', 1))
    expect_rejected("a saved file that differs", w.check(0, res), "saved JSON differs")

    # exact-trees
    w, (res,) = first_results("exact-trees")
    report("exact-trees passes before corruption", not w.check(0, res))
    model = copy.deepcopy(res.model)
    model.nodes["+-"].alpha_minus += 1e-3
    expect_rejected("an alpha nudged", w.check(0, workloads.Result(model, res.path, 0)), "exact loss")
    model = copy.deepcopy(res.model)
    model.trajectory[-1] = workloads.checks.product_bound_F(w.T, w.rho) * 1.01
    expect_rejected("a bound above F", w.check(0, workloads.Result(model, res.path, 0)), "F(T, rho)")
    model = copy.deepcopy(res.model)
    model.trajectory[5] = model.trajectory[3] * 1.5
    expect_rejected("a rising trajectory", w.check(0, workloads.Result(model, res.path, 0)), "increases")
    model = copy.deepcopy(res.model)
    deepest = max(model.nodes, key=len)
    del model.nodes[deepest]
    expect_rejected("a missing node", w.check(0, workloads.Result(model, res.path, 0)), "nodes, expected")

    # nested-trees: results 0 and 1 are fixed-2, 2 is greedy
    w, results = first_results("nested-trees")
    report("nested-trees passes before corruption", not any(w.check(k, r) for k, r in enumerate(results)))
    res = results[0]
    model = copy.deepcopy(res.model)
    inner = model.nodes[""].classifier.inner
    child = next(path for path in inner.nodes if path)
    inner.nodes[child].alpha_plus += 1e-3  # a node inside the root composite
    expect_rejected("a nested alpha nudged", w.check(0, workloads.Result(model, res.path, 0, res.extra)),
                    "exact loss")
    model = copy.deepcopy(res.model)
    model.trajectory[-1] = workloads.checks.iterated_M2(w.L, w.rho) * 1.01
    expect_rejected("a bound above M2", w.check(0, workloads.Result(model, res.path, 0, res.extra)), "M2")
    expect_rejected("an extra weak-learner call",
                    w.check(0, workloads.Result(res.model, res.path, 0, {**res.extra, "calls": 2**w.L + 1})),
                    "budget")
    res = results[2]
    log = copy.deepcopy(res.extra["log"])
    k = next(i for i, e in enumerate(log) if e.action == "collect")
    log[k].C = log[k - 1].C + 1e-6
    expect_rejected("a collect that raises C",
                    w.check(2, workloads.Result(res.model, res.path, 0, {**res.extra, "log": log})), "raised C")

    # eval-mc: corrupt the stored files; the check scores them against the
    # models that were saved
    w, results = first_results("eval-mc")
    report("eval-mc passes before corruption", not any(w.check(k, r) for k, r in enumerate(results)))
    record = json.loads(w.paths["ptree"].read_text())
    node = record["nodes"]["+"]
    node["q_plus"][0] = 1.0 - node["q_plus"][0]
    bad = workdir / "bad-q.json"
    bad.write_text(json.dumps(record))
    w.paths["ptree"] = bad
    expect_rejected("a stored q flipped", w.check(0, w.run(0)), "printed exact bound")
    record = json.loads(w.paths["fixed-2"].read_text())
    record["nodes"][""]["alpha_plus"] *= -1.0
    record["nodes"][""]["alpha_minus"] *= -1.0
    bad = workdir / "bad-alpha.json"
    bad.write_text(json.dumps(record))
    w.paths["fixed-2"] = bad
    expect_rejected("negated root alphas (mc loss)", w.check(1, w.run(1)), "standard errors")


def main() -> int:
    run.use_checkout_sources()
    workdir = run.work_dir("selfcheck-")
    try:
        quick_runs(workdir)
        corrupted_models(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(failures)} case(s) failed" if failures else "all cases passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
