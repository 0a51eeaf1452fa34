"""End-to-end acceptance checks.  Each test prints a single PASS/FAIL line
(with its runtime) before asserting, so the suite output doubles as the
acceptance report."""

import math
import time

import numpy as np
import pytest

from probboost import bounds
from probboost.adaboost import TrainConfig, exact_expected_bound, train_adaboost
from probboost.bounds import (
    bound_F,
    bound_M2,
    bound_adaboost,
    bound_iso_nested,
    bound_nested,
    dF_dT,
    dF_drho,
    rate_matryoshka,
)
from probboost.core import Dataset, RandomStream, make_synthetic_dataset
from probboost.matryoshka import build_fixed_2_matryoshka
from probboost.persist import load_model, save_model
from probboost.ptree import exact_tree_bound, grow_tree
from probboost.specfun import beta, digamma
from probboost.weak_learner import (
    builtin_constant_edge_oracle,
    builtin_noisy_stump,
    estimate_q_strategy_A,
)


def _report(number: int, description: str, failures: list, started: float, limit: float):
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < limit
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {status} ({elapsed:.2f}s) {description}")
    assert not failures, f"criterion {number}: {failures[:5]}"
    assert elapsed < limit, f"criterion {number}: runtime {elapsed:.2f}s over {limit}s limit"


def _eps_for(rho: float) -> float:
    return 0.5 * math.sqrt(1.0 - rho * rho)


def test_criterion_01_bound_figure_ordering():
    t0 = time.perf_counter()
    failures = []
    for rho in (31 / 32, 7 / 8, 3 / 4, 1 / 2, 1 / 4):
        for k in range(1, 11):
            T = 2**k
            ada = bound_adaboost(T, rho)
            m2 = bound_M2(T, rho)
            f = bound_F(T, rho)
            if not (ada <= m2 + 1e-12 and m2 <= f + 1e-12):
                failures.append((rho, T, "ordering"))
            if T >= 4 and rho >= 0.5:
                if not (m2 - ada > 1e-12 and f - m2 > 1e-12):
                    failures.append((rho, T, "strictness"))
    _report(1, "rho^T <= M2 <= F across the figure grid", failures, t0, 1.0)


def test_criterion_02_closed_form_vs_product():
    t0 = time.perf_counter()
    failures = []
    rhos = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 31 / 32]
    for rho in rhos:
        for T in range(1, 2049):
            if abs(bound_F(T, rho) * (T * beta(T, rho)) - 1.0) > 1e-12:
                failures.append((T, rho, "identity"))
        for T in (100, 200, 500, 1000, 2048):
            exact = bound_F(T, rho)
            approx = bounds.bound_F_asymptotic(T, rho)
            if abs(approx - exact) / exact > 0.01:
                failures.append((T, rho, "asymptotic"))
    _report(2, "F = 1/(T B(T,rho)) and the large-T form agree", failures, t0, 1.0)


def test_criterion_03_tree_of_trees_sweep():
    t0 = time.perf_counter()
    failures = []
    rho = 31 / 32
    for T in (64, 256, 1024):
        top = bound_F(T, rho)
        for T1 in (1, T):
            if abs(bound_nested(T, T1, rho) - top) > 1e-12:
                failures.append((T, T1, "endpoint"))
        divisors = [d for d in range(2, T) if T % d == 0]
        values = {T1: bound_nested(T, T1, rho) for T1 in divisors}
        for T1, v in values.items():
            if not v < top:
                failures.append((T, T1, "interior"))
        best = min(values, key=values.get)
        root = math.sqrt(T)
        if not root / 2.0 <= best <= 2.0 * root:
            failures.append((T, best, "minimizer"))
    _report(3, "two-layer sweep: flat endpoints, strict interior gain, sqrt(T) optimum", failures, t0, 1.0)


def test_criterion_04_nesting_level_monotonicity():
    t0 = time.perf_counter()
    failures = []
    rho = 31 / 32
    for T in (1024, 65536):
        values = [bound_iso_nested(T, L, rho) for L in range(1, int(math.log2(T)) + 1)]
        for L, (a, b) in enumerate(zip(values, values[1:]), start=1):
            if not b < a:
                failures.append((T, L))
    _report(4, "iso-nested bound strictly improves with every level", failures, t0, 1.0)


def test_criterion_05_telescoping_identities():
    t0 = time.perf_counter()
    failures = []
    dataset = make_synthetic_dataset(n=20, seed=0)
    chain_specs = [
        (builtin_constant_edge_oracle(0.3), 5, True),
        (builtin_constant_edge_oracle(0.3), 8, True),
        (builtin_constant_edge_oracle(0.2), 6, False),
        (builtin_constant_edge_oracle(0.1), 10, True),
        (builtin_constant_edge_oracle(0.25), 12, True),
        (builtin_noisy_stump(0.1), 5, False),
        (builtin_noisy_stump(0.2), 6, False),
        (builtin_noisy_stump(0.0), 4, True),
        (builtin_noisy_stump(0.3), 8, False),
        (builtin_constant_edge_oracle(0.43), 7, True),
    ]
    for seed, (learner, T, exact) in enumerate(chain_specs):
        model = train_adaboost(dataset, learner, T, TrainConfig(seed=seed, exact_q=exact))
        gap = abs(exact_expected_bound(model, dataset) - model.recorded_bound())
        if gap > 1e-10:
            failures.append(("chain", seed, gap))
    tree_specs = [
        (builtin_constant_edge_oracle(0.3), 4, True),
        (builtin_constant_edge_oracle(0.3), 8, True),
        (builtin_constant_edge_oracle(0.2), 12, True),
        (builtin_constant_edge_oracle(0.1), 6, False),
        (builtin_constant_edge_oracle(0.25), 10, True),
        (builtin_noisy_stump(0.1), 5, False),
        (builtin_noisy_stump(0.2), 7, False),
        (builtin_noisy_stump(0.0), 3, True),
        (builtin_noisy_stump(0.3), 9, False),
        (builtin_constant_edge_oracle(0.43), 11, True),
    ]
    for seed, (learner, T, exact) in enumerate(tree_specs):
        tree = grow_tree(
            dataset, learner, max_nodes=T, config=TrainConfig(seed=seed, exact_q=exact)
        )
        gap = abs(exact_tree_bound(tree, dataset) - tree.leaf_sum())
        if gap > 1e-10:
            failures.append(("tree", seed, gap))
        gap2 = abs(tree.leaf_sum() - tree.recorded_bound())
        if gap2 > 1e-10:
            failures.append(("tree-trajectory", seed, gap2))
    _report(5, "enumerated exponential loss equals recorded Z products on 20 models", failures, t0, 10.0)


def test_criterion_06_weak_learner_bound():
    t0 = time.perf_counter()
    failures = []
    dataset = make_synthetic_dataset(n=30, seed=1)
    for eps in (0.1, 0.2, 0.3, 0.43):
        rho = math.sqrt(1.0 - 4.0 * eps * eps)
        model = train_adaboost(
            dataset, builtin_constant_edge_oracle(eps), 8, TrainConfig(exact_q=True)
        )
        for stage in model.stages:
            if stage.z > rho + 1e-12:
                failures.append((eps, "stage-z", stage.z))
        if model.recorded_bound() > rho**8 + 1e-12:
            failures.append((eps, "chain-bound"))
        tree = grow_tree(
            dataset,
            builtin_constant_edge_oracle(eps),
            max_nodes=64,
            config=TrainConfig(exact_q=True),
        )
        for path, node in tree.nodes.items():
            if node.z_plus + node.z_minus > rho + 1e-12:
                failures.append((eps, "node-z", path))
        for T, c in enumerate(tree.trajectory[1:], start=1):
            if c > bound_F(T, rho) + 1e-9:
                failures.append((eps, "trajectory", T))
    _report(6, "every Z within rho; chain and tree bounds hold to T = 64", failures, t0, 5.0)


def test_criterion_07_matryoshka_dominance():
    t0 = time.perf_counter()
    failures = []
    dataset = make_synthetic_dataset(n=20, seed=5)
    for rho in (0.5, 0.75, 31 / 32):
        eps = _eps_for(rho)
        for L in (2, 3, 4):
            T = 2**L
            cfg = TrainConfig(seed=5, exact_q=True)
            matry = build_fixed_2_matryoshka(
                dataset, builtin_constant_edge_oracle(eps), L, cfg
            )
            plain = grow_tree(
                dataset,
                builtin_constant_edge_oracle(eps),
                max_nodes=T,
                config=cfg,
            )
            recorded = matry.recorded_bound()
            if recorded > bound_M2(T, rho) + 1e-9:
                failures.append((rho, T, "vs-M2", recorded, bound_M2(T, rho)))
            if recorded > plain.recorded_bound() + 1e-9:
                failures.append((rho, T, "vs-plain", recorded, plain.recorded_bound()))
    _report(7, "fixed-2 nesting dominates M2 and the plain tree", failures, t0, 10.0)


def test_criterion_08_exponential_vs_binomial_separation():
    t0 = time.perf_counter()
    failures = []
    p = 0.5 - 0.2  # per-draw error of the constant-edge oracle
    err_vote = sum(
        math.comb(15, k) * p**k * (1.0 - p) ** (15 - k) for k in range(8, 16)
    )
    depth = int(math.log2(15))  # 3
    err_path = sum(
        math.comb(depth, k) * p**k * (1.0 - p) ** (depth - k)
        for k in range(depth // 2 + 1, depth + 1)
    )
    if not err_vote < err_path:
        failures.append((err_vote, err_path))
    _report(8, "15-vote majority error beats the 3-draw path error", failures, t0, 1.0)


def test_criterion_09_special_functions():
    t0 = time.perf_counter()
    failures = []
    if abs(digamma(1.0) + 0.5772156649) > 1e-9:
        failures.append("digamma(1)")
    h = 1e-5
    # grid starts above 1 so the central difference stays inside the domain
    for T in (1.5, 2.0, 4.0, 8.0, 16.0):
        for rho in (0.1, 0.3, 0.5, 0.7, 0.9):
            fd_T = (bound_F(T + h, rho) - bound_F(T - h, rho)) / (2.0 * h)
            fd_r = (bound_F(T, rho + h) - bound_F(T, rho - h)) / (2.0 * h)
            if abs(dF_dT(T, rho) - fd_T) / abs(fd_T) > 1e-6:
                failures.append(("dF_dT", T, rho))
            if abs(dF_drho(T, rho) - fd_r) / abs(fd_r) > 1e-6:
                failures.append(("dF_drho", T, rho))
    for T in (1.0, 2.0, 100.0):
        if rate_matryoshka(1.0, T) != 0.0:
            failures.append(("rate", T))
    _report(9, "digamma, derivative closed forms, flat-bound rate", failures, t0, 1.0)


def test_criterion_10_determinism_and_persistence(tmp_path):
    t0 = time.perf_counter()
    failures = []
    dataset = make_synthetic_dataset(n=20, seed=2)
    builders = {
        "adaboost": lambda: train_adaboost(
            dataset, builtin_noisy_stump(0.1), 4, TrainConfig(seed=11)
        ),
        "ptree": lambda: grow_tree(
            dataset, builtin_noisy_stump(0.1), max_nodes=4, config=TrainConfig(seed=11)
        ),
        "matryoshka": lambda: build_fixed_2_matryoshka(
            dataset,
            builtin_constant_edge_oracle(0.3),
            2,
            TrainConfig(seed=11, exact_q=True),
        ),
    }
    for name, build in builders.items():
        p1 = tmp_path / f"{name}-1.json"
        p2 = tmp_path / f"{name}-2.json"
        save_model(build(), p1)
        save_model(build(), p2)
        if p1.read_bytes() != p2.read_bytes():
            failures.append((name, "bytes"))
        loaded = load_model(p1)
        p3 = tmp_path / f"{name}-3.json"
        save_model(loaded, p3)
        if p1.read_bytes() != p3.read_bytes():
            failures.append((name, "round-trip"))
    _report(10, "same seed, same bytes; serialization round-trips", failures, t0, 5.0)


def test_criterion_11_estimation_behavior():
    t0 = time.perf_counter()
    failures = []
    # expected MAP-based Z estimate decreases as sampling rounds accumulate
    labels = np.array([1, 1, 1, 1, 1, -1, -1, -1, -1, -1])
    true_q = np.where(labels == 1, 0.7, 0.3)
    weights = np.full(10, 0.1)
    rng = np.random.default_rng(99)
    trials = 10_000
    means, sems = [], []
    for R in (1, 4, 16, 64):
        counts = rng.binomial(R, true_q[None, :], size=(trials, 10))
        q_hat = (1.0 + counts) / (R + 2)
        pos = labels == 1
        pp = (weights[pos] * q_hat[:, pos]).sum(axis=1)
        pm = (weights[~pos] * q_hat[:, ~pos]).sum(axis=1)
        mp = (weights[pos] * (1.0 - q_hat[:, pos])).sum(axis=1)
        mm = (weights[~pos] * (1.0 - q_hat[:, ~pos])).sum(axis=1)
        z = 2.0 * np.sqrt(pp * pm) + 2.0 * np.sqrt(mp * mm)
        means.append(float(z.mean()))
        sems.append(float(z.std(ddof=1) / math.sqrt(trials)))
    for i in range(len(means) - 1):
        if means[i + 1] > means[i] + 2.0 * (sems[i] + sems[i + 1]):
            failures.append(("map-trend", i, means))
    # stopping rule always fires well before the hard cap
    ds = Dataset.from_arrays(
        [[float(i)] for i in range(6)], [1, 1, 1, -1, -1, -1]
    )
    clf = builtin_constant_edge_oracle(0.2).train(ds, ds.weights)
    for seed in range(1000):
        _, rounds = estimate_q_strategy_A(
            clf, ds, ds.weights, RandomStream(seed), purpose="acceptance"
        )
        if rounds >= 10_000:
            failures.append(("no-stop", seed))
    _report(11, "MAP Z-estimate shrinks with rounds; the stop rule always fires", failures, t0, 60.0)
