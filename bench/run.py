"""probboost benchmark: one workload per run, timed in normalised seconds.

    python3 bench/run.py --workload exact-trees --seed 1 --seconds 15 --trace 0

Run from the repository root.  The last line of standard output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it gives raw wall-clock figures, for
reference only.  A copy of both goes to ``bench/results/``.  See
bench/README.md for the workloads, the metrics and the reference clock.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

import reference  # noqa: E402  (the benchmark's own module; no probboost code)

SETUP_REPS = 5
TAIL_BEYOND = 10  # op_s_ptail leaves this many operations above it
WORKLOAD_NAMES = ("sampled-boost", "exact-trees", "nested-trees", "eval-mc")
_FRESH = ("probboost", "workloads", "checks", "tracing")


def use_checkout_sources() -> None:
    """Import probboost from this checkout's src/, or exit with an error."""
    if not (SRC / "probboost" / "__init__.py").is_file():
        sys.exit(f"error: no probboost sources under {SRC}; run from a probboost checkout")
    sys.path.insert(0, str(SRC))


def work_dir(prefix: str) -> Path:
    """A fresh directory under bench/work/ for the files a run writes."""
    (BENCH / "work").mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=BENCH / "work"))


def _forget_modules() -> None:
    """Drop probboost and the modules bound to it, so the next import
    executes them afresh."""
    for name in list(sys.modules):
        if name.split(".")[0] in _FRESH:
            del sys.modules[name]


def _set_up(name: str, seed: int, seconds: float, workdir: Path):
    """One set-up: import probboost and build the workload's inputs."""
    _forget_modules()
    workloads = importlib.import_module("workloads")
    workload = workloads.WORKLOADS[name]()
    n_ops = workload.n_rounds(seconds) * len(workload.round_kinds)
    workload.setup(seed, n_ops, workdir)
    return workload, n_ops


def _tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    values above it."""
    ordered = sorted(values)
    rank = max(len(ordered) - TAIL_BEYOND, 1)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> tuple[dict, dict]:
    """Run one workload; returns (result line, details)."""
    setups = [reference.timed(lambda: _set_up(name, seed, seconds, workdir)) for _ in range(SETUP_REPS)]
    workload, n_ops = setups[-1][0]
    tracer = tracing = None
    if trace:
        tracing = importlib.import_module("tracing")
        tracer = tracing.Tracer()
        tracing.install(tracer)

    wall, norm, factors, sizes, failures = [], [], [], [], []
    by_kind: dict[str, list[float]] = {}
    covered = traced_wall = check_s = 0.0
    retimed = 0
    correct = True

    def fresh_attempt():
        gc.collect()
        if tracer:
            tracer.discard()  # only the last timed attempt counts

    for k in range(n_ops):
        try:
            result, op_wall, op_norm, factor, attempts = reference.timed(
                lambda: workload.run(k), fresh_attempt)
        except Exception:  # an operation that raises counts as failed
            failures.append(f"op {k} ({workload.kinds[k]}) raised:\n{traceback.format_exc()}")
            if tracer:
                tracer.discard()
            continue
        if tracer:
            covered += tracer.end_op(factor)
            traced_wall += op_wall
        retimed += attempts - 1
        t0 = time.perf_counter()
        problems = workload.check(k, result)
        check_s += time.perf_counter() - t0
        op_bytes = result.bytes
        del result  # the next operation starts without this one's output
        if tracer:
            tracer.discard()  # spans of the check are not the operation's
        if problems:
            correct = False
            failures.append(f"op {k} ({workload.kinds[k]}) failed its check: " + "; ".join(problems))
            continue
        wall.append(op_wall)
        norm.append(op_norm)
        factors.append(factor)
        sizes.append(op_bytes)
        by_kind.setdefault(workload.kinds[k], []).append(op_norm)

    details = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "operations": n_ops, "retimed": retimed, "check_wall_s": check_s, "failures": failures,
        "op_s_p50_by_kind": {kind: statistics.median(v) for kind, v in by_kind.items()},
        "speed_factor_median": statistics.median(factors) if factors else None,
    }
    if tracer:
        metrics = {key: _metric(value, tracing.PER_LAYER[key][0])
                   for key, value in tracer.metrics().items()}
        details["layer_coverage"] = covered / traced_wall if traced_wall else 0.0
        details["traced_op_s_p50"] = statistics.median(norm) if norm else None
    elif norm:
        tail, percentile = _tail(norm)
        metrics = {
            "op_s_p50": _metric(statistics.median(norm), "s"),
            "op_s_ptail": _metric(tail, "s"),
            "ops_per_s": _metric(len(norm) / sum(norm), "1/s"),
            "setup_s": _metric(statistics.median(s[2] for s in setups), "s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "model_bytes": _metric(statistics.fmean(sizes), "B"),
        }
        details["tail_percentile"] = percentile
        details["raw_wall"] = {
            "op_s_p50": statistics.median(wall),
            "op_s_ptail": _tail(wall)[0],
            "ops_per_s": len(wall) / sum(wall),
            "setup_s": statistics.median(s[1] for s in setups),
        }
    else:
        metrics = {}
    line = {"correct": correct, "attempted": n_ops, "failed": len(failures), "metrics": metrics}
    return line, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    use_checkout_sources()
    workdir = work_dir(f"{args.workload}-")
    try:
        line, details = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in details["failures"]:
        print(failure, file=sys.stderr)
    if not line["metrics"]:
        print("error: no operation completed", file=sys.stderr)
        return 1

    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps({**line, "details": details}, indent=1) + "\n")
    print(json.dumps({key: value for key, value in details.items() if key != "failures"}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
